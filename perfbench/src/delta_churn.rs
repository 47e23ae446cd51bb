//! `delta_churn`: catalog writes beside reads on a durable server, then a
//! restart over the same data directory.
//!
//! `Server::start_durable` runs over a fresh data directory holding
//! `Catalog::synthesize(CATALOG_SEED, 47)`. One connection reads 16 hot
//! 2-objective `FrontierOnly` plans over a 10⁴-candidate subspace,
//! seed-drawn; one admin connection sends a seed-drawn throughput patch
//! every 500 ms. The run has two phases. In the first, reads are
//! open-loop at a fixed rate and timed from their due time, for the
//! latency and freshness figures; they continue a second past the last
//! delta, and every delta must be read back, so the phase ends only after
//! every delta has been acknowledged and answered. In the second, the
//! deltas go on while the reader keeps a fixed number of reads in flight;
//! what it completes is the throughput figure. The server is then shut
//! down and the directory reopened; each restart is timed to the first
//! answer for a plan key seen before it.
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{
    AirframeId, AlgorithmId, Catalog, CatalogDelta, CatalogEpoch, ComputeId, SensorId,
};
use f1_serve::protocol::{self, Client};
use f1_serve::{Durability, Scheduler, Server};
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_store::{DurableOptions, DurableStore, SpillRecord};
use f1_units::Watts;

use crate::loadgen::{self, Answer, Due, Load};
use crate::stats::{self, ms, num, summarize, windowed_tail, Rng};
use crate::trace::Tracer;
use crate::{repeated_setup, Report, ScratchDir, CATALOG_SEED};

const SYNTH_PER_FAMILY: usize = 47;
/// The serving workload's two airframes, eight plans each. The plans
/// rank velocity against TDP, the paper's central trade-off, whose small
/// frontiers keep every spilled result a few kilobytes, so the data
/// directory stays small across many epochs.
const HOT_AIRFRAMES: [usize; 2] = [25, 46];
const HOT_PER_AIRFRAME: usize = 8;
/// Hot plans cover the first 22 sensors, platforms and algorithms
/// (10,648 candidates), and every delta patches a pair inside that
/// subspace. A plan a delta made stale re-evaluates in a few
/// milliseconds, so re-warming after a delta takes a small, steady share
/// of the reader's time rather than most of it.
const HOT_PER_FAMILY: usize = 22;
const DELTA_EVERY: Duration = Duration::from_millis(500);
/// Offered reads per second on the query connection in the open-loop
/// phase: a tenth of the 70,000 reads/s the saturation phase reached on
/// a 2-vCPU host when the rate was set (see `perfbench/README.md`). Each
/// run reports the share of its own measured capacity that this is.
const READS_PER_S: f64 = 7000.0;
/// Share of the run given to the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Reads the open-loop phase goes on for after its last delta.
const READ_BACK: Duration = Duration::from_secs(1);
const TOP_K: usize = 5;
const RESTARTS: usize = 3;
/// Set-ups per run. One takes about 15 ms, most of it the genesis
/// snapshot's fsyncs, whose latency varies; nine cost nothing and steady
/// the median.
const SETUPS: usize = 9;

fn hot_plans() -> Vec<QueryPlan> {
    HOT_AIRFRAMES
        .iter()
        .flat_map(|&a| {
            (0..HOT_PER_AIRFRAME).map(move |i| {
                QueryPlan::builder()
                    .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
                    .constraint(Constraint::MaxTotalTdp(Watts::new(8.0 + i as f64)))
                    .airframes(&[AirframeId::from_index(a)])
                    .sensors(
                        &(0..HOT_PER_FAMILY)
                            .map(SensorId::from_index)
                            .collect::<Vec<_>>(),
                    )
                    .computes(
                        &(0..HOT_PER_FAMILY)
                            .map(ComputeId::from_index)
                            .collect::<Vec<_>>(),
                    )
                    .algorithms(
                        &(0..HOT_PER_FAMILY)
                            .map(AlgorithmId::from_index)
                            .collect::<Vec<_>>(),
                    )
                    .keep_points(KeepPoints::FrontierOnly)
                    .build()
                    .expect("hot plans are valid")
            })
        })
        .collect()
}

/// A throughput patch of one seed-drawn platform × algorithm pair of the
/// hot subspace.
fn delta_json(rng: &mut Rng) -> String {
    format!(
        r#"{{"throughput": [{{"compute": "Synth Compute {:06}", "algorithm": "Synth Algorithm {:06}", "hz": {:.3}}}]}}"#,
        rng.below(HOT_PER_FAMILY),
        rng.below(HOT_PER_FAMILY),
        rng.range(5.0, 500.0)
    )
}

fn genesis() -> Catalog {
    Catalog::synthesize(CATALOG_SEED, SYNTH_PER_FAMILY)
}

/// Opens (or recovers) `dir` and boots a durable server over it, with the
/// digest-validated spill as its warm cache — the `skyline-serve
/// --data-dir` boot path.
fn boot(dir: &Path) -> (Server, Arc<DurableStore>) {
    let durable = Arc::new(
        DurableStore::open(dir, genesis, DurableOptions::default()).expect("data dir opens"),
    );
    let warm = warm_map(&durable);
    let session = Arc::new(Session::over(Arc::clone(durable.store())));
    let server = Server::start_durable(
        session,
        loadgen::serve_config(),
        Durability {
            durable: Arc::clone(&durable),
            warm,
            replica: false,
        },
    )
    .expect("server starts on loopback");
    (server, durable)
}

/// Spilled results whose digest matches their recovered epoch.
fn warm_map(durable: &DurableStore) -> HashMap<(String, u64), String> {
    let mut warm = HashMap::new();
    for record in durable.load_spill().expect("spill loads").records {
        let matches = durable
            .store()
            .at(CatalogEpoch::from_raw(record.epoch))
            .is_some_and(|s| s.digest() == record.digest);
        if matches {
            warm.insert((record.plan_key, record.epoch), record.result_json);
        }
    }
    warm
}

struct Setup {
    dir: ScratchDir,
    server: Server,
    durable: Arc<DurableStore>,
    hot: Vec<QueryPlan>,
}

fn setup() -> Setup {
    let dir = ScratchDir::new("delta_churn");
    let (server, durable) = boot(dir.path());
    let hot = hot_plans();
    server
        .session()
        .run_batch(&hot)
        .expect("hot plans evaluate");
    Setup {
        dir,
        server,
        durable,
        hot,
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connects to the server");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    client
}

#[derive(Debug, Clone, Copy)]
struct Ack {
    epoch: u64,
    sent: Instant,
    received: Instant,
}

/// A read schedule: a seed-drawn hot plan per read, due at a fixed rate
/// (the saturation phase ignores the due times).
struct Reads {
    plans: Vec<usize>,
    dues: Vec<Due>,
    lines: Vec<String>,
}

fn reads(rng: &mut Rng, hot: &[QueryPlan], length: Duration) -> Reads {
    let n = (length.as_secs_f64() * READS_PER_S) as usize;
    let plans: Vec<usize> = (0..n).map(|_| rng.below(hot.len())).collect();
    let dues = (0..n)
        .map(|i| Due {
            at: Duration::from_secs_f64(i as f64 / READS_PER_S),
            conn: 0,
        })
        .collect();
    let lines = plans
        .iter()
        .map(|&p| format!("top {TOP_K} {}\n", hot[p].key()))
        .collect();
    Reads { plans, dues, lines }
}

/// Runs `reader` against the server while the admin connection applies
/// `deltas` seed-drawn deltas, one every [`DELTA_EVERY`] from half an
/// interval in.
fn churn(
    setup: &Setup,
    rng: &mut Rng,
    deltas: usize,
    reader: impl FnOnce(std::net::SocketAddr) -> Load,
) -> (Load, Vec<Ack>) {
    let addr = setup.server.local_addr();
    let lines: Vec<String> = (0..deltas)
        .map(|_| format!("delta {}", delta_json(rng)))
        .collect();
    // Both generators start their clocks 20 ms after they are called;
    // the deltas follow the same clock.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let admin = scope.spawn(|| {
            let mut client = connect(addr);
            let mut acks = Vec::with_capacity(deltas);
            for (i, line) in lines.iter().enumerate() {
                let due = start + DELTA_EVERY * (2 * i as u32 + 1) / 2;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let (ok, body) = client.request(line).expect("delta is answered");
                let received = Instant::now();
                assert!(ok, "delta refused: {body}");
                acks.push(Ack {
                    epoch: loadgen::epoch_of(&body).expect("delta body carries its epoch"),
                    sent,
                    received,
                });
            }
            acks
        });
        let load = reader(addr);
        (load, admin.join().expect("admin thread"))
    })
}

/// Answers at a few sampled epochs must be byte-identical to a cold
/// session's rendering at that epoch; `answered` pairs each answer with
/// the hot plan it asked for. Returns (checked, wrong).
fn check_reads(setup: &Setup, answered: &[(usize, Answer)], epochs: &[u64]) -> (usize, usize) {
    let store = setup.durable.store();
    let cold = Session::over(Arc::clone(store));
    let mut checked = 0;
    let mut wrong = 0;
    for &epoch in epochs {
        let snapshot = store
            .at(CatalogEpoch::from_raw(epoch))
            .expect("the store keeps every epoch");
        let results = cold
            .run_batch_at(&setup.hot, snapshot.epoch())
            .expect("oracle evaluates");
        let mut expected: HashMap<(usize, bool), u64> = HashMap::new();
        for (plan, a) in answered.iter().filter(|(_, a)| a.epoch == epoch) {
            let plan = *plan;
            let want = *expected.entry((plan, a.cached)).or_insert_with(|| {
                loadgen::body_hash(&protocol::top_body(
                    TOP_K,
                    &results[plan],
                    &snapshot,
                    a.cached,
                ))
            });
            checked += 1;
            if want != a.body_hash {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

fn normalized(body: &str) -> String {
    body.replace("\"cached\": true", "\"cached\": false")
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (setup, setup_s, setups) = repeated_setup(SETUPS, setup, |s| s.server.join());
    let mut delta_rng = Rng::new(seed ^ 0xDE17);
    let mut read_rng = Rng::new(seed ^ 0x9011);

    // Open loop: a delta every interval, reads a second past the last.
    let open_deltas = ((budget.mul_f64(OPEN_SHARE).saturating_sub(READ_BACK)).as_secs_f64()
        / DELTA_EVERY.as_secs_f64()) as usize;
    let open_deltas = open_deltas.max(1);
    let open_length = DELTA_EVERY * open_deltas as u32 + READ_BACK;
    let open = reads(&mut read_rng, &setup.hot, open_length);
    let (load, open_acks) = churn(&setup, &mut delta_rng, open_deltas, |addr| {
        loadgen::drive(addr, 1, &open.dues, &open.lines)
    });
    loadgen::check_generator(&load, &mut report);

    // Saturation: the deltas go on at the same pace, the last a quarter
    // interval before the reader stops.
    let saturated_length = budget.saturating_sub(open_length).max(DELTA_EVERY);
    let saturated_deltas = (saturated_length.as_secs_f64() / DELTA_EVERY.as_secs_f64()) as usize;
    let cycled = reads(&mut read_rng, &setup.hot, Duration::from_secs(1));
    let (saturated, saturated_acks) = churn(&setup, &mut delta_rng, saturated_deltas, |addr| {
        loadgen::saturate(addr, 1, &cycled.lines, saturated_length)
    });
    report.peak_rss();

    let deltas = open_deltas + saturated_deltas;
    let acks: Vec<Ack> = open_acks.iter().chain(&saturated_acks).copied().collect();
    let open_answered: Vec<Answer> = load.answers.iter().copied().filter(|a| a.ok).collect();
    let saturated_answered: Vec<Answer> =
        saturated.answers.iter().copied().filter(|a| a.ok).collect();
    let answered: Vec<(usize, Answer)> = open_answered
        .iter()
        .map(|a| (open.plans[a.request], *a))
        .chain(
            saturated_answered
                .iter()
                .map(|a| (cycled.plans[a.request], *a)),
        )
        .collect();
    let sent = load.answers.len() + saturated.answers.len();
    let refused = (sent - answered.len()) as u64;
    let epochs: BTreeSet<u64> = answered.iter().map(|(_, a)| a.epoch).collect();
    report.check(epochs.len() == deltas + 1, || {
        format!("{} epochs answered for {deltas} deltas", epochs.len())
    });
    report.check(
        acks.iter()
            .enumerate()
            .all(|(i, a)| a.epoch == i as u64 + 1),
        || "delta acknowledgements skipped an epoch".to_owned(),
    );
    let mut check_epochs = vec![0, open_deltas as u64, deltas as u64];
    check_epochs.push(1 + Rng::new(seed).below(deltas) as u64);
    check_epochs.sort_unstable();
    check_epochs.dedup();
    let (checked, wrong) = check_reads(&setup, &answered, &check_epochs);
    report.check(wrong == 0, || {
        format!("{wrong} of {checked} sampled reads differ from a cold session")
    });
    // Every repeat of one (plan, epoch) answer must be byte-identical.
    let mut seen: HashMap<(usize, u64, bool), HashSet<u64>> = HashMap::new();
    for (plan, a) in &answered {
        seen.entry((*plan, a.epoch, a.cached))
            .or_default()
            .insert(a.body_hash);
    }
    let unstable = seen.values().filter(|h| h.len() > 1).count();
    report.check(unstable == 0, || {
        format!("{unstable} (plan, epoch) answers changed between repeats")
    });

    // Freshness: from each acknowledgement to the first answer, at the new
    // epoch or later, of a read sent after it. Every delta of either
    // phase must be read back in that phase; the figure is the open
    // loop's.
    let read_back = |acks: &[Ack], answers: &[Answer]| -> Vec<f64> {
        acks.iter()
            .filter_map(|ack| {
                answers
                    .iter()
                    .find(|a| a.sent >= ack.received && a.epoch >= ack.epoch)
                    .map(|a| ms(a.received - ack.received))
            })
            .collect()
    };
    let freshness = read_back(&open_acks, &open_answered);
    let unread = deltas - freshness.len() - read_back(&saturated_acks, &saturated_answered).len();
    report.check(unread == 0, || {
        format!("{unread} of {deltas} deltas were never read back")
    });

    // Shut down, remember what must survive, and restart.
    let before = setup.server.session().store().current();
    let key = setup.hot[0].key().to_owned();
    let (ok, last_body) = connect(setup.server.local_addr())
        .request(&format!("query {key}"))
        .expect("query before shutdown is answered");
    report.check(ok, || format!("query before shutdown failed: {last_body}"));
    let Setup {
        dir,
        server,
        durable,
        hot: _,
    } = setup;
    server.join();
    drop(server);
    drop(durable);
    let mut restart_s = Vec::with_capacity(RESTARTS);
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let (server, durable) = boot(dir.path());
        let (ok, body) = connect(server.local_addr())
            .request(&format!("query {key}"))
            .expect("query after restart is answered");
        restart_s.push(t0.elapsed().as_secs_f64());
        let recovered = durable.report();
        report.check(
            ok && recovered.epoch == before.epoch().get() && recovered.digest == before.digest(),
            || {
                format!(
                    "recovered epoch {} digest {} differ from {} {}",
                    recovered.epoch,
                    recovered.digest,
                    before.epoch().get(),
                    before.digest()
                )
            },
        );
        report.check(normalized(&body) == normalized(&last_body), || {
            "the answer after restart differs from the answer before it".to_owned()
        });
        server.join();
    }
    drop(dir);

    report.attempted = (sent + deltas + RESTARTS) as u64;
    report.failed = refused + wrong as u64 + (deltas - acks.len()) as u64;
    let timed: Vec<(f64, f64)> = load
        .answers
        .iter()
        .map(|a| {
            (
                open.dues[a.request].at.as_secs_f64(),
                load.latency_ms(a, &open.dues),
            )
        })
        .collect();
    let latency = summarize(&timed.iter().map(|&(_, l)| l).collect::<Vec<_>>());
    let tail = windowed_tail(&timed, load.window_s());
    let ack = summarize(
        &acks
            .iter()
            .map(|a| ms(a.received - a.sent))
            .collect::<Vec<_>>(),
    );
    let fresh = summarize(&freshness);
    let read_capacity = saturated_answered.len() as f64 / saturated.window_s();
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", latency.p50, "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric(
        "throughput_ops_s",
        (saturated_answered.len() + saturated_acks.len()) as f64 / saturated.window_s(),
        "ops/s",
    );
    report.detail(
        "loadgen",
        loadgen::detail_json(&load, READS_PER_S, 1, read_capacity),
    );
    report.detail(
        "saturated_ops_s_by_slice",
        stats::list(&loadgen::slice_rates(&saturated, saturated_length, 10)),
    );
    report.detail("setup_s_each", format!("{setups:?}"));
    report.detail("latency_ms", latency.json());
    report.detail("latency_tail_ms", tail.json());
    report.detail("delta_ack_ms", ack.json());
    report.detail("freshness_ms", fresh.json());
    report.detail("restart_s", num(stats::median(&restart_s)));
    report.detail("restart_s_each", format!("{restart_s:?}"));
    report.detail(
        "epochs",
        format!(
            "{{\"deltas\": {deltas}, \"open_loop_deltas\": {open_deltas}, \"answered\": {}, \
             \"checked_reads\": {checked}, \"checked_epochs\": {check_epochs:?}}}",
            epochs.len()
        ),
    );
    report.detail(
        "error_rate",
        num(report.failed as f64 / report.attempted as f64),
    );
    report
}

/// The traced run's `delta_churn` part, in-process: deltas through
/// `Scheduler::apply_delta` with the durable sink attached, the
/// benchmark's own session refreshing the hot plans after each, then
/// reopening the data directory.
pub fn trace(seed: u64, budget: Duration, report: &mut Report) {
    let dir = ScratchDir::new("delta_churn_trace");
    let durable =
        DurableStore::open(dir.path(), genesis, DurableOptions::default()).expect("data dir opens");
    let store = Arc::clone(durable.store());
    let scheduler = Scheduler::start(
        Arc::new(Session::over(Arc::clone(&store))),
        loadgen::serve_config().scheduler,
    );
    let reader = Session::over(Arc::clone(&store));
    let hot = hot_plans();
    scheduler
        .session()
        .run_batch(&hot)
        .expect("hot plans evaluate");
    reader.run_batch(&hot).expect("hot plans evaluate");
    let mut rng = Rng::new(seed ^ 0xDE17);
    let log = dir.path().join(f1_store::durable::EPOCH_LOG_FILE);
    let log_len = || std::fs::metadata(&log).map_or(0, |m| m.len());

    let pass = |t: &mut Tracer, rng: &mut Rng| {
        let started = Instant::now();
        let mut cycles = 0u32;
        while started.elapsed() < budget / 4 || cycles == 0 {
            let json = delta_json(rng);
            t.next_op();
            let delta = t
                .span("components", "delta.from_json", |_| {
                    CatalogDelta::from_json(&json)
                })
                .expect("delta parses");
            t.span("serve.scheduler", "apply_delta", |_| {
                scheduler.apply_delta(&delta)
            })
            .expect("delta applies");
            for plan in &hot {
                t.span("skyline.session", "refresh", |_| reader.refresh(plan))
                    .expect("hot plan refreshes");
            }
            cycles += 1;
        }
        (started.elapsed().as_secs_f64(), cycles)
    };
    let (plain_s, plain_cycles) = pass(&mut Tracer::new(false), &mut rng);
    let repairs_before = reader.cache_stats().repairs;
    let background_before = scheduler.stats().background_repairs;
    let log_before = log_len();
    let mut t = Tracer::new(true);
    let (traced_s, cycles) = pass(&mut t, &mut rng);
    let per_delta = |n: u64| n as f64 / f64::from(cycles);
    let repairs = reader.cache_stats().repairs - repairs_before;
    let log_bytes = log_len() - log_before;
    // Let the background repair of the last delta finish before counting.
    std::thread::sleep(Duration::from_millis(200));
    let background = scheduler.stats().background_repairs - background_before;

    // What a server's shutdown does: spill the memo cache for the next boot.
    let spill = durable.spill_log().expect("a primary has a spill");
    for (plan_key, epoch, digest, result_json) in scheduler.session().export_cache() {
        spill
            .append(&SpillRecord {
                plan_key,
                epoch,
                digest,
                result_json,
            })
            .expect("spill appends");
    }
    let final_epoch = store.current_epoch().get();
    scheduler.shutdown();
    drop((scheduler, reader, store, durable));
    let mut open_ms = Vec::with_capacity(RESTARTS);
    let mut replayed = 0;
    let mut spill_hits = 0;
    for _ in 0..RESTARTS {
        let t0 = Instant::now();
        let reopened = t.span("store", "open", |_| {
            DurableStore::open(dir.path(), genesis, DurableOptions::default())
        });
        let reopened = reopened.expect("data dir recovers");
        open_ms.push(ms(t0.elapsed()));
        replayed = reopened.report().replayed_deltas;
        let warm = warm_map(&reopened);
        spill_hits = hot
            .iter()
            .filter(|p| warm.contains_key(&(p.key().to_owned(), final_epoch)))
            .count();
        report.check(reopened.report().epoch == final_epoch, || {
            format!(
                "reopened at epoch {} not {final_epoch}",
                reopened.report().epoch
            )
        });
    }
    drop(dir);
    report.attempted += u64::from(plain_cycles + cycles) + RESTARTS as u64;

    let span_ms = |name: &str| stats::median(&t.durations_ms(name));
    report.metric("session.refresh_ms", span_ms("refresh"), "ms");
    report.metric("session.repairs", per_delta(repairs), "count");
    report.metric(
        "scheduler.background_repairs",
        per_delta(background),
        "count",
    );
    report.metric("components.apply_ms", span_ms("apply_delta"), "ms");
    report.metric("store.log_bytes_per_delta", per_delta(log_bytes), "bytes");
    report.metric("store.open_ms", stats::median(&open_ms), "ms");
    report.metric("store.replayed_deltas", replayed as f64, "count");
    report.metric("store.spill_hits", spill_hits as f64, "count");
    report.detail(
        "delta_churn_trace",
        format!(
            "{{\"samples\": {{\"deltas\": {cycles}, \"refresh\": {}, \"apply_delta\": {}, \
             \"open\": {}}}, \"tracing_overhead\": {}, \"untraced_s_per_delta\": {}, \
             \"traced_s_per_delta\": {}, \"self_time\": {}}}",
            t.durations_ms("refresh").len(),
            t.durations_ms("apply_delta").len(),
            open_ms.len(),
            num((traced_s / f64::from(cycles)) / (plain_s / f64::from(plain_cycles)) - 1.0),
            num(plain_s / f64::from(plain_cycles)),
            num(traced_s / f64::from(cycles)),
            t.self_time_json()
        ),
    );
}
