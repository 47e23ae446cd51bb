//! `serve_hot`: open-loop `top`/`query` traffic over loopback TCP against
//! a warmed in-process server.
//!
//! The catalog is `Catalog::synthesize(CATALOG_SEED, 47)` (about 10⁵
//! candidates per airframe). 128 4-objective `FrontierOnly` plans over
//! two airframes are evaluated before the clock starts, and requests pick
//! among them Zipf-skewed, with a seed-drawn popularity order. Most
//! requests are `top 5`, one in a hundred is a full `query` body, and
//! every half second a burst of two never-seen plans with one evaluation
//! signature arrives, one on each connection, so the pair coalesces in
//! the scheduler. One generator thread sends every request at its due
//! time; one reader thread per connection times each answer from that
//! due time. The last third of the run is a closed-loop saturation phase
//! over the same hot mix, whose completed rate is the throughput figure.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{AirframeId, Catalog, CatalogStore};
use f1_serve::protocol::{self, parse_request, Request};
use f1_serve::Server;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;

use crate::loadgen::{self, Answer, Due};
use crate::stats::{self, ms, num, summarize, us, windowed_tail, Rng, Zipf};
use crate::trace::Tracer;
use crate::{repeated_setup, Report, CATALOG_SEED, SETUPS};

const SYNTH_PER_FAMILY: usize = 47;
/// The two airframes of the catalog with the smallest 4-objective
/// frontiers (about 1,200 and 1,400 points), which keeps a full `query`
/// body near 0.3 MB.
const HOT_AIRFRAMES: [usize; 2] = [25, 46];
const HOT_PER_AIRFRAME: usize = 64;
/// Offered load of the open-loop phase, requests per second over both
/// connections: a tenth of the 52,000 requests/s the saturation phase
/// reached on a 2-vCPU host when the rate was set (see
/// `perfbench/README.md`), so the latency figures describe a lightly
/// loaded server. Each run reports the share of its own measured
/// capacity that this is.
const RATE_PER_S: f64 = 5000.0;
/// Share of the run given to the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 2.0 / 3.0;
const QUERY_SHARE: f64 = 0.01;
const TOP_K: usize = 5;
const BURST_EVERY_S: f64 = 0.25;
const CONNECTIONS: usize = 2;
fn plan(airframe: AirframeId, cap_w: f64) -> QueryPlan {
    QueryPlan::builder()
        .objectives(&[
            Objective::SafeVelocity,
            Objective::TotalTdp,
            Objective::PayloadMass,
            Objective::MissionEnergyWhPerKm,
        ])
        .constraint(Constraint::MaxTotalTdp(Watts::new(cap_w)))
        .airframes(&[airframe])
        .keep_points(KeepPoints::FrontierOnly)
        .build()
        .expect("serving plans are valid")
}

/// The warmed plan set and the never-seen plans of the bursts.
struct Plans {
    airframes: Vec<AirframeId>,
    hot: Vec<QueryPlan>,
    /// Popularity rank → index into `hot`.
    by_rank: Vec<usize>,
}

impl Plans {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5E7E);
        let airframes: Vec<AirframeId> = HOT_AIRFRAMES
            .iter()
            .map(|&i| AirframeId::from_index(i))
            .collect();
        let hot: Vec<QueryPlan> = airframes
            .iter()
            .flat_map(|&a| (0..HOT_PER_AIRFRAME).map(move |i| plan(a, 8.0 + 0.25 * i as f64)))
            .collect();
        let mut by_rank: Vec<usize> = (0..hot.len()).collect();
        rng.shuffle(&mut by_rank);
        Self {
            airframes,
            hot,
            by_rank,
        }
    }

    /// The `n`-th never-seen plan: a cap above every hot plan's, on the
    /// airframe of its burst.
    fn miss(&self, n: usize) -> QueryPlan {
        let burst = n / CONNECTIONS;
        plan(
            self.airframes[burst % self.airframes.len()],
            30.0 + 0.001 * n as f64,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    Hot(usize),
    Miss(usize),
}

#[derive(Debug, Clone, Copy)]
struct Op {
    target: Target,
    query: bool,
}

/// A seeded request schedule: what each request asks, when it is due,
/// and its wire line.
struct Traffic {
    ops: Vec<Op>,
    dues: Vec<Due>,
    lines: Vec<String>,
}

/// The request schedule for `length` of offered load. Miss plans are
/// numbered from `first_miss`, so schedules built with disjoint ranges
/// never share a cold key.
fn traffic(seed: u64, length: Duration, plans: &Plans, first_miss: usize) -> Traffic {
    let mut rng = Rng::new(seed ^ 0x0A11);
    let zipf = Zipf::new(plans.hot.len(), 1.0);
    let n = (length.as_secs_f64() * RATE_PER_S) as usize;
    let mut requests: Vec<(Due, Op)> = (0..n)
        .map(|i| {
            let due = Due {
                at: Duration::from_secs_f64(i as f64 / RATE_PER_S),
                conn: i % CONNECTIONS,
            };
            let target = Target::Hot(plans.by_rank[zipf.sample(&mut rng)]);
            let query = rng.unit() < QUERY_SHARE;
            (due, Op { target, query })
        })
        .collect();
    let bursts = (length.as_secs_f64() / BURST_EVERY_S) as usize;
    let mut next_miss = first_miss;
    for b in 0..bursts {
        let at = Duration::from_secs_f64((b as f64 + 0.5) * BURST_EVERY_S);
        for conn in 0..CONNECTIONS {
            let op = Op {
                target: Target::Miss(next_miss),
                query: false,
            };
            requests.push((Due { at, conn }, op));
            next_miss += 1;
        }
    }
    requests.sort_by_key(|(due, _)| due.at);
    let lines = requests.iter().map(|(_, op)| line(op, plans)).collect();
    let (dues, ops) = requests.into_iter().unzip();
    Traffic { ops, dues, lines }
}

fn line(op: &Op, plans: &Plans) -> String {
    let key = match op.target {
        Target::Hot(i) => plans.hot[i].key().to_owned(),
        Target::Miss(n) => plans.miss(n).key().to_owned(),
    };
    if op.query {
        format!("query {key}\n")
    } else {
        format!("top {TOP_K} {key}\n")
    }
}

struct Setup {
    server: Server,
    catalog: Arc<Catalog>,
    plans: Plans,
}

fn setup(seed: u64) -> Setup {
    let catalog = Arc::new(Catalog::synthesize(CATALOG_SEED, SYNTH_PER_FAMILY));
    let store = Arc::new(CatalogStore::from_shared(Arc::clone(&catalog)));
    let session = Arc::new(Session::over(store));
    let server =
        Server::start(session, loadgen::serve_config()).expect("server starts on loopback");
    let plans = Plans::new(seed);
    server
        .session()
        .run_batch(&plans.hot)
        .expect("hot plans evaluate");
    Setup {
        server,
        catalog,
        plans,
    }
}

/// Checks every answer against a cold session's rendering of the same
/// plan at the same epoch; returns the number of wrong answers.
fn check_answers(catalog: &Arc<Catalog>, plans: &Plans, ops: &[Op], answers: &[Answer]) -> u64 {
    let mut observed: HashMap<(Target, bool, bool), HashSet<u64>> = HashMap::new();
    for a in answers.iter().filter(|a| a.ok) {
        let op = &ops[a.request];
        observed
            .entry((op.target, op.query, a.cached))
            .or_default()
            .insert(a.body_hash);
    }
    let mut targets: Vec<Target> = observed.keys().map(|k| k.0).collect();
    targets.sort_by_key(|t| match *t {
        Target::Hot(i) => (0, i),
        Target::Miss(n) => (1, n),
    });
    targets.dedup();
    let oracle_plans: Vec<QueryPlan> = targets
        .iter()
        .map(|t| match *t {
            Target::Hot(i) => plans.hot[i].clone(),
            Target::Miss(n) => plans.miss(n),
        })
        .collect();
    let cold = Session::new(Arc::clone(catalog));
    let results = cold.run_batch(&oracle_plans).expect("oracle evaluates");
    let snapshot = cold.store().current();
    let by_target: HashMap<Target, _> = targets.into_iter().zip(results).collect();
    let mut expected: HashMap<(Target, bool, bool), u64> = HashMap::new();
    for &(target, query, cached) in observed.keys() {
        let result = &by_target[&target];
        let body = if query {
            protocol::query_body(result, &snapshot, cached)
        } else {
            protocol::top_body(TOP_K, result, &snapshot, cached)
        };
        expected.insert((target, query, cached), loadgen::body_hash(&body));
    }
    answers
        .iter()
        .filter(|a| {
            let op = &ops[a.request];
            a.ok && expected[&(op.target, op.query, a.cached)] != a.body_hash
        })
        .count() as u64
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (setup, setup_s, setups) = repeated_setup(SETUPS, || setup(seed), |s| s.server.join());
    let open = budget.mul_f64(OPEN_SHARE);
    let t = traffic(seed, open, &setup.plans, 0);
    let stats_before = setup.server.scheduler().stats();
    let load = loadgen::drive(setup.server.local_addr(), CONNECTIONS, &t.dues, &t.lines);
    let sched = setup.server.scheduler().stats();
    // The saturation phase sends the open loop's hot requests, cycling.
    let hot_ops: Vec<Op> = t
        .ops
        .iter()
        .copied()
        .filter(|op| matches!(op.target, Target::Hot(_)))
        .collect();
    let hot_lines: Vec<String> = hot_ops.iter().map(|op| line(op, &setup.plans)).collect();
    let saturated = loadgen::saturate(
        setup.server.local_addr(),
        CONNECTIONS,
        &hot_lines,
        budget - open,
    );
    setup.server.join();
    report.peak_rss();

    let mut ops = t.ops.clone();
    ops.extend(&hot_ops);
    let answers: Vec<Answer> = load
        .answers
        .iter()
        .copied()
        .chain(saturated.answers.iter().map(|a| Answer {
            request: a.request + t.ops.len(),
            ..*a
        }))
        .collect();
    let refused = answers.iter().filter(|a| !a.ok).count() as u64;
    let wrong = check_answers(&setup.catalog, &setup.plans, &ops, &answers);
    report.attempted = answers.len() as u64;
    report.failed = refused + wrong;
    report.check(wrong == 0, || {
        format!("{wrong} answers differ from a cold session")
    });
    loadgen::check_generator(&load, &mut report);

    let latencies: Vec<f64> = load
        .answers
        .iter()
        .map(|a| load.latency_ms(a, &t.dues))
        .collect();
    let timed: Vec<(f64, f64)> = load
        .answers
        .iter()
        .zip(&latencies)
        .map(|(a, &l)| (t.dues[a.request].at.as_secs_f64(), l))
        .collect();
    let latency = summarize(&latencies);
    let tail = windowed_tail(&timed, open.as_secs_f64());
    let capacity = saturated.answers.iter().filter(|a| a.ok).count() as f64 / saturated.window_s();
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", latency.p50, "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("throughput_ops_s", capacity, "ops/s");
    report.detail("setup_s_each", format!("{setups:?}"));
    report.detail("latency_ms", latency.json());
    report.detail("latency_tail_ms", tail.json());
    report.detail(
        "error_rate",
        num(report.failed as f64 / report.attempted as f64),
    );
    let rtt: Vec<f64> = load
        .answers
        .iter()
        .map(|a| ms(a.received - a.sent))
        .collect();
    report.detail("rtt_ms", summarize(&rtt).json());
    let misses: Vec<f64> = load
        .answers
        .iter()
        .zip(&latencies)
        .filter(|(a, _)| matches!(t.ops[a.request].target, Target::Miss(_)))
        .map(|(_, &l)| l)
        .collect();
    report.detail("miss_latency_ms", summarize(&misses).json());
    report.detail(
        "loadgen",
        loadgen::detail_json(&load, RATE_PER_S, CONNECTIONS, capacity),
    );
    report.detail(
        "saturated_ops_s_by_slice",
        stats::list(&loadgen::slice_rates(&saturated, budget - open, 10)),
    );
    report.detail(
        "scheduler",
        format!(
            "{{\"fast_path_hits\": {}, \"admitted\": {}, \"batches\": {}, \"coalesced\": {}, \
             \"rejected\": {}}}",
            sched.fast_path_hits - stats_before.fast_path_hits,
            sched.admitted - stats_before.admitted,
            sched.batches - stats_before.batches,
            sched.coalesced - stats_before.coalesced,
            sched.rejected - stats_before.rejected
        ),
    );
    report
}

/// Per-operation measurements of an in-process replay.
#[derive(Default)]
struct Replay {
    /// Whole dispatch time per hit, microseconds.
    hit_dispatch_us: Vec<f64>,
    turnaround_ms: Vec<f64>,
    body_bytes: Vec<f64>,
    fast_path: u64,
    ops: u64,
    elapsed: Duration,
}

/// Replays `traffic` in-process through the functions the server's answer
/// path calls, back to back, with spans when `t` is enabled.
fn replay(server: &Server, traffic: &Traffic, t: &mut Tracer) -> Replay {
    let Traffic { ops, dues, lines } = traffic;
    let scheduler = server.scheduler();
    let session = server.session();
    let mut out = Replay::default();
    let mut wire = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i < ops.len() {
        // A burst of misses due together is submitted together, as the
        // server's connections do, so it can coalesce.
        let mut j = i + 1;
        if matches!(ops[i].target, Target::Miss(_)) {
            while j < ops.len()
                && matches!(ops[j].target, Target::Miss(_))
                && dues[j].at == dues[i].at
            {
                j += 1;
            }
        }
        t.next_op();
        let t0 = Instant::now();
        let mut hits = 0;
        t.span("loadgen", "dispatch", |t| {
            let mut pending = Vec::new();
            for line in &lines[i..j] {
                let request = t.span("serve.protocol", "parse", |_| {
                    parse_request(line.trim_end())
                });
                let (k, key) = match request.expect("benchmark requests parse") {
                    Request::Top { k, key } => (Some(k), key),
                    Request::Query { key } => (None, key),
                    other => unreachable!("benchmark sends only top/query, got {other:?}"),
                };
                let snapshot = session.store().current();
                let cached = t.span("skyline.session", "cached_at", |_| {
                    session.cached_at(&key, snapshot.epoch())
                });
                match cached {
                    Some(result) => {
                        scheduler.note_fast_path_hit();
                        hits += 1;
                        out.fast_path += 1;
                        pending.push((k, Ok(result), snapshot, None));
                    }
                    None => {
                        let plan = t
                            .span("skyline.plan", "from_key", |_| QueryPlan::from_key(&key))
                            .expect("benchmark keys are canonical");
                        let submitted = Instant::now();
                        let rx = t
                            .span("serve.scheduler", "submit", |_| {
                                scheduler.submit(plan, snapshot.epoch())
                            })
                            .expect("queue has room");
                        pending.push((k, Err(rx), snapshot, Some(submitted)));
                    }
                }
            }
            for (k, answer, snapshot, submitted) in pending {
                let (result, cached) = match answer {
                    Ok(result) => (result, true),
                    Err(rx) => {
                        let result = t
                            .span("serve.scheduler", "recv", |_| rx.recv())
                            .expect("executor replies")
                            .expect("plan evaluates");
                        if let Some(s) = submitted {
                            out.turnaround_ms.push(ms(s.elapsed()));
                        }
                        (result, false)
                    }
                };
                let body = t.span("serve.protocol", "render", |_| match k {
                    Some(k) => protocol::top_body(k, &result, &snapshot, cached),
                    None => protocol::query_body(&result, &snapshot, cached),
                });
                out.body_bytes.push(body.len() as f64);
                wire.clear();
                t.span("serve.protocol", "write_response", |_| {
                    protocol::write_response(&mut wire, true, &body)
                })
                .expect("writes to memory");
            }
        });
        if hits == j - i {
            out.hit_dispatch_us.push(us(t0.elapsed()) / hits as f64);
        }
        out.ops += (j - i) as u64;
        i = j;
    }
    out.elapsed = started.elapsed();
    out
}

/// The traced run's `serve_hot` part: a short untraced TCP phase for the
/// wire and generator figures, then the request schedule replayed
/// in-process back to back, untraced and then traced. The replays cover
/// the whole budget's schedule, for enough misses to time.
pub fn trace(seed: u64, budget: Duration, report: &mut Report) {
    let setup = setup(seed);
    let tcp = traffic(seed, budget / 3, &setup.plans, 0);
    let load = loadgen::drive(
        setup.server.local_addr(),
        CONNECTIONS,
        &tcp.dues,
        &tcp.lines,
    );
    report.attempted += tcp.ops.len() as u64;
    report.failed += load.answers.iter().filter(|a| !a.ok).count() as u64;
    let (late_p99, backlog_max) = loadgen::check_generator(&load, report);
    let rtt_hit_us: Vec<f64> = load
        .answers
        .iter()
        .filter(|a| a.cached)
        .map(|a| us(a.received - a.sent))
        .collect();

    // Replays use their own never-seen keys, so both passes pay the same
    // misses.
    let plain = replay(
        &setup.server,
        &traffic(seed, budget, &setup.plans, 100_000),
        &mut Tracer::new(false),
    );
    let replayed = traffic(seed, budget, &setup.plans, 200_000);
    let before = setup.server.scheduler().stats();
    let mut t = Tracer::new(true);
    let traced = replay(&setup.server, &replayed, &mut t);
    let after = setup.server.scheduler().stats();
    setup.server.join();
    report.attempted += plain.ops + traced.ops;

    let median_us = |name: &str| stats::median(&t.durations_ms(name)) * 1e3;
    let wire_us = stats::median(&rtt_hit_us) - stats::median(&plain.hit_dispatch_us);
    let batches = after.batches - before.batches;
    let batched = after.batched_requests - before.batched_requests;
    report.metric("protocol.parse_us", median_us("parse"), "us");
    report.metric("session.probe_us", median_us("cached_at"), "us");
    report.metric("protocol.render_us", median_us("render"), "us");
    report.metric(
        "protocol.body_bytes",
        stats::median(&traced.body_bytes),
        "bytes",
    );
    report.metric("server.wire_us", wire_us, "us");
    report.metric(
        "scheduler.turnaround_ms",
        stats::median(&traced.turnaround_ms),
        "ms",
    );
    report.metric(
        "scheduler.batch_size_mean",
        batched as f64 / batches.max(1) as f64,
        "count",
    );
    report.metric(
        "scheduler.coalesced",
        (after.coalesced - before.coalesced) as f64,
        "count",
    );
    report.metric(
        "scheduler.rejected",
        (after.rejected - before.rejected) as f64,
        "count",
    );
    report.metric(
        "scheduler.fast_path_ratio",
        traced.fast_path as f64 / traced.ops as f64,
        "ratio",
    );
    report.metric("plan.from_key_us", median_us("from_key"), "us");
    report.metric("loadgen.late_p99_ms", late_p99, "ms");
    report.metric("loadgen.backlog_max", backlog_max as f64, "count");
    let overhead =
        stats::median(&traced.hit_dispatch_us) / stats::median(&plain.hit_dispatch_us) - 1.0;
    report.detail(
        "serve_hot_trace",
        format!(
            "{{\"samples\": {{\"parse\": {}, \"cached_at\": {}, \"render\": {}, \"from_key\": {}, \
             \"turnaround\": {}, \"wire_rtt\": {}, \"dispatch\": {}, \"loadgen\": {}}}, \
             \"tracing_overhead_hit_dispatch\": {}, \"untraced_s\": {}, \"traced_s\": {}, \"self_time\": {}}}",
            t.durations_ms("parse").len(),
            t.durations_ms("cached_at").len(),
            t.durations_ms("render").len(),
            t.durations_ms("from_key").len(),
            traced.turnaround_ms.len(),
            rtt_hit_us.len(),
            plain.hit_dispatch_us.len(),
            load.late_ms.len(),
            num(overhead),
            num(plain.elapsed.as_secs_f64()),
            num(traced.elapsed.as_secs_f64()),
            t.self_time_json()
        ),
    );
}
