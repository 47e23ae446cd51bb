//! `explore_mix`: one closed-loop caller drives `Session` in-process (no
//! TCP, no store) with a seeded stream of distinct cold plans whose sizes
//! are heavy-tailed.
//!
//! The stream is made of cycles of 40 operations in seed-shuffled order:
//! 16 plans over `Catalog::paper()`, 10 over 10³-candidate and 5 over
//! 10⁴-candidate id subsets of `Catalog::synthesize(CATALOG_SEED, 100)`,
//! 3 `run_batch` groups of 8 plans sharing one signature, 2 streamed
//! 10⁵ subsets, 1 materialized (`KeepPoints::All`) 10⁵ subset, 1 streamed
//! 10⁶ airframe and 2 tier-2 plans over the paper catalog on a session
//! with `SimHarness`. Fixed counts per cycle keep the share of large
//! plans, and so the tail, the same from run to run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use f1_components::{AirframeId, AlgorithmId, Catalog, ComputeId, SensorId};
use f1_sim::SimHarness;
use f1_skyline::frontier::{dominates_min, naive_pareto_min};
use f1_skyline::plan::{KeepPoints, QueryPlan, SimObjective};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_units::Watts;

use crate::stats::{self, num, summarize, windowed_tail, Rng};
use crate::trace::Tracer;
use crate::{repeated_setup, Report, CATALOG_SEED, SETUPS};

const SYNTH_PER_FAMILY: usize = 100;
/// Sampled results up to this many rows are checked against the naive
/// all-pairs scan, which is quadratic; larger ones by the O(N·F) test of
/// [`frontier_is_pareto`].
const CHECK_MAX_ROWS: usize = 4_000;
/// One in this many operations is sampled for the frontier check.
const CHECK_EVERY: usize = 4;
/// At most this many sampled 10⁵ plans are checked. They are the plans
/// that reach the cross-shard merge.
const LARGE_MAX: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Paper,
    Sub1e3,
    Sub1e4,
    Batch8,
    Stream1e5,
    All1e5,
    Stream1e6,
    Tier2,
}

impl Class {
    const ALL: [Class; 8] = [
        Class::Paper,
        Class::Sub1e3,
        Class::Sub1e4,
        Class::Batch8,
        Class::Stream1e5,
        Class::All1e5,
        Class::Stream1e6,
        Class::Tier2,
    ];

    fn per_cycle(self) -> usize {
        match self {
            Class::Paper => 16,
            Class::Sub1e3 => 10,
            Class::Sub1e4 => 5,
            Class::Batch8 => 3,
            Class::Stream1e5 | Class::Tier2 => 2,
            Class::All1e5 | Class::Stream1e6 => 1,
        }
    }

    /// The span name of this class's run call.
    fn span(self) -> &'static str {
        match self {
            Class::Paper => "cold_run.paper",
            Class::Sub1e3 => "cold_run.1e3",
            Class::Sub1e4 => "cold_run.1e4",
            Class::Batch8 => "run_batch.8",
            Class::Stream1e5 => "cold_run.1e5.stream",
            Class::All1e5 => "cold_run.1e5.all",
            Class::Stream1e6 => "cold_run.1e6",
            Class::Tier2 => "cold_run.tier2",
        }
    }

    fn label(self) -> &'static str {
        &self.span()[self.span().find('.').map_or(0, |i| i + 1)..]
    }
}

/// One operation: a plan, or a batch of plans sharing a signature.
#[derive(Debug, Clone)]
struct Op {
    class: Class,
    plans: Vec<QueryPlan>,
}

const OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// The objectives of every 10⁵ and 10⁶ plan. The large plans set the
/// tail and most of the run time, so their shape is fixed, their airframes
/// follow one rotation whatever the seed, and only their subsets and caps
/// are drawn.
const LARGE_OBJECTIVES: [Objective; 3] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
];

/// A plan on one synthesized airframe over the sensors, platforms and
/// algorithms with the given ids (every one when `ids` is `None`).
fn synth_plan(
    airframe: usize,
    ids: Option<&[usize]>,
    objectives: &[Objective],
    cap: Option<Constraint>,
    keep: KeepPoints,
) -> QueryPlan {
    let mut builder = QueryPlan::builder()
        .objectives(objectives)
        .airframes(&[AirframeId::from_index(airframe)])
        .keep_points(keep);
    if let Some(cap) = cap {
        builder = builder.constraint(cap);
    }
    if let Some(ids) = ids {
        builder = builder
            .sensors(
                &ids.iter()
                    .map(|&i| SensorId::from_index(i))
                    .collect::<Vec<_>>(),
            )
            .computes(
                &ids.iter()
                    .map(|&i| ComputeId::from_index(i))
                    .collect::<Vec<_>>(),
            )
            .algorithms(
                &ids.iter()
                    .map(|&i| AlgorithmId::from_index(i))
                    .collect::<Vec<_>>(),
            );
    }
    builder.build().expect("generated plans are valid")
}

/// Draws operations; every plan key it returns is new.
///
/// How costly a plan is depends mostly on its cap and its number of
/// objectives. Both follow fixed per-class sequences, so that every run,
/// whatever its seed, draws the same mix of cheap and costly plans: each
/// class's caps are a golden-ratio sequence over 5–60 W from a
/// seed-drawn start, which covers the range evenly in any stretch of a
/// run, and its objective counts cycle through 2, 3 and 4. The seed
/// draws which objectives, subsets and airframes.
struct Generator {
    rng: Rng,
    /// Makes every cap, and so every key, distinct.
    serial: u64,
    /// Large plans drawn so far: the position in the airframe rotation.
    large: usize,
    /// The class of the operation being drawn.
    class: Class,
    /// Per class: operations drawn so far.
    ops: [u64; Class::ALL.len()],
    /// Per class: caps drawn so far.
    caps: [u64; Class::ALL.len()],
    /// Where every class's cap sequence starts, in `[0, 1)`.
    offset: f64,
}

impl Generator {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0xE4A1);
        let offset = rng.unit();
        Self {
            rng,
            serial: 0,
            large: 0,
            class: Class::Paper,
            ops: [0; Class::ALL.len()],
            caps: [0; Class::ALL.len()],
            offset,
        }
    }

    fn cap(&mut self) -> Constraint {
        const GOLDEN: f64 = 0.618_033_988_749_894_8;
        self.serial += 1;
        let n = &mut self.caps[self.class as usize];
        *n += 1;
        let u = (self.offset + *n as f64 * GOLDEN).fract();
        let cap = 5.0 + 55.0 * u + self.serial as f64 * 1e-7;
        Constraint::MaxTotalTdp(Watts::new(cap))
    }

    /// Two, three or four of the four battery-free objectives, in turn.
    fn objectives(&mut self) -> Vec<Objective> {
        let mut all = OBJECTIVES;
        self.rng.shuffle(&mut all);
        all[..2 + (self.ops[self.class as usize] % 3) as usize].to_vec()
    }

    fn ids(&mut self, n: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..SYNTH_PER_FAMILY).collect();
        self.rng.shuffle(&mut all);
        all.truncate(n);
        all.sort_unstable();
        all
    }

    /// A plan over `per_family`³ synthesized candidates on one airframe
    /// (`per_family == 100` takes the whole airframe). Large plans take
    /// the next airframe of the rotation.
    fn synth(
        &mut self,
        per_family: usize,
        objectives: &[Objective],
        keep: KeepPoints,
    ) -> QueryPlan {
        let airframe = if per_family >= 47 {
            self.large += 1;
            self.large * 37 % SYNTH_PER_FAMILY
        } else {
            self.rng.below(SYNTH_PER_FAMILY)
        };
        let ids = (per_family < SYNTH_PER_FAMILY).then(|| self.ids(per_family));
        synth_plan(airframe, ids.as_deref(), objectives, Some(self.cap()), keep)
    }

    fn op(&mut self, class: Class) -> Op {
        self.class = class;
        self.ops[class as usize] += 1;
        let objectives = self.objectives();
        let plans = match class {
            Class::Paper => vec![QueryPlan::builder()
                .objectives(&objectives)
                .constraint(self.cap())
                .build()
                .expect("paper plan is valid")],
            Class::Sub1e3 => vec![self.synth(10, &objectives, KeepPoints::Auto)],
            Class::Sub1e4 => vec![self.synth(22, &objectives, KeepPoints::Auto)],
            Class::Batch8 => {
                // One subspace and objective set, eight caps: one shared
                // evaluation signature.
                let airframe = self.rng.below(SYNTH_PER_FAMILY);
                let ids = self.ids(10);
                (0..8)
                    .map(|_| {
                        let cap = self.cap();
                        synth_plan(
                            airframe,
                            Some(&ids),
                            &objectives,
                            Some(cap),
                            KeepPoints::Auto,
                        )
                    })
                    .collect()
            }
            Class::Stream1e5 => vec![self.synth(47, &LARGE_OBJECTIVES, KeepPoints::FrontierOnly)],
            Class::All1e5 => vec![self.synth(47, &LARGE_OBJECTIVES, KeepPoints::All)],
            Class::Stream1e6 => vec![self.synth(100, &LARGE_OBJECTIVES, KeepPoints::FrontierOnly)],
            Class::Tier2 => vec![QueryPlan::builder()
                .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
                .constraint(self.cap())
                .sim_objective(SimObjective::MissionRobustness { trials: 8 })
                .sim_objective(SimObjective::PipelineP99Latency)
                .survivor_budget(8)
                .build()
                .expect("tier-2 plan is valid")],
        };
        Op { class, plans }
    }

    /// The next cycle of operations, in seeded order.
    fn cycle(&mut self) -> Vec<Op> {
        let mut classes: Vec<Class> = Class::ALL
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, c.per_cycle()))
            .collect();
        self.rng.shuffle(&mut classes);
        classes.into_iter().map(|c| self.op(c)).collect()
    }
}

struct Setup {
    paper: Session,
    synth: Session,
}

impl Setup {
    fn session(&self, class: Class) -> &Session {
        match class {
            Class::Paper | Class::Tier2 => &self.paper,
            _ => &self.synth,
        }
    }

    fn clear(&self) {
        self.paper.clear_cache();
        self.synth.clear_cache();
    }
}

fn setup() -> Setup {
    let paper = Session::new(Arc::new(Catalog::paper()))
        .with_tier2(Arc::new(SimHarness::default()))
        .with_cache_capacity(64);
    let synth = Session::new(Arc::new(Catalog::synthesize(
        CATALOG_SEED,
        SYNTH_PER_FAMILY,
    )))
    .with_cache_capacity(1);
    // Derive each session's epoch state and touch the large-plan
    // allocations once, with plans the stream never draws (no cap).
    paper
        .run(
            &QueryPlan::builder()
                .objectives(&OBJECTIVES)
                .build()
                .expect("valid"),
        )
        .expect("paper warm-up runs");
    let first_47: Vec<usize> = (0..47).collect();
    synth
        .run(&synth_plan(
            0,
            Some(&first_47),
            &OBJECTIVES,
            None,
            KeepPoints::All,
        ))
        .expect("synth warm-up runs");
    synth
        .run(&synth_plan(
            0,
            None,
            &OBJECTIVES,
            None,
            KeepPoints::FrontierOnly,
        ))
        .expect("synth warm-up runs");
    let setup = Setup { paper, synth };
    setup.clear();
    setup
}

/// What one operation produced.
struct Done {
    class: Class,
    seconds: f64,
    candidates: u64,
    /// The first result, when the operation was sampled for the check.
    sample: Option<Arc<ResultSet>>,
}

/// What the frontier check keeps of a sampled operation: its first plan
/// and the frontier that plan got. After the timed window the plan
/// re-runs materialized on a fresh session, which must reproduce that
/// frontier, and the re-run's frontier is checked against the full key
/// domain. Only indices are kept through the window, so the check adds
/// nothing to the run's memory or time.
struct Sample {
    class: Class,
    plan: QueryPlan,
    frontier: Vec<usize>,
}

/// Runs one operation: the run call, then reading the best five builds,
/// as a caller exploring the space would.
fn execute(setup: &Setup, op: &Op, keep_sample: bool, t: &mut Tracer) -> Result<Done, String> {
    let session = setup.session(op.class);
    t.next_op();
    let t0 = Instant::now();
    let results = t.span("skyline.session", op.class.span(), |_| {
        if op.plans.len() == 1 {
            session.run(&op.plans[0]).map(|r| vec![r])
        } else {
            session.run_batch(&op.plans)
        }
    });
    let results = results.map_err(|e| format!("{:?} plan failed: {e}", op.class))?;
    for r in &results {
        let top = t.span("skyline.session", "result.top_k", |_| r.top_k(5));
        std::hint::black_box(top);
    }
    let seconds = t0.elapsed().as_secs_f64();
    // A batch shares one evaluation pass over one subspace.
    let candidates = results
        .iter()
        .map(|r| (r.len() + r.dropped()) as u64)
        .max()
        .unwrap_or(0);
    let sample = results.into_iter().next().filter(|_| keep_sample);
    Ok(Done {
        class: op.class,
        seconds,
        candidates,
        sample,
    })
}

/// The frontier of a materialized `result` must equal the naive all-pairs
/// scan over the same minimized keys; above [`CHECK_MAX_ROWS`] rows the
/// equivalent O(N·F) test stands in for the scan.
fn frontier_matches(result: &ResultSet) -> bool {
    if result.len() > CHECK_MAX_ROWS {
        return frontier_is_pareto(result);
    }
    let (keys, map) = result.minimized_keys();
    let dims = result.objectives().len();
    let expected: Vec<usize> = naive_pareto_min(dims, &keys)
        .into_iter()
        .map(|i| map[i])
        .collect();
    expected == result.frontier()
}

/// Whether the frontier of a materialized `result` is the set
/// `naive_pareto_min` defines — the rows no row dominates — tested in
/// O(N·F): no row dominates a frontier row, and every other row is
/// dominated by some frontier row. (A row no row dominates but missing
/// from the frontier fails the second test; a dominated row on it fails
/// the first.)
fn frontier_is_pareto(result: &ResultSet) -> bool {
    let (keys, map) = result.minimized_keys();
    let dims = result.objectives().len();
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    let Some(frontier) = result
        .frontier()
        .iter()
        .map(|f| map.binary_search(f).ok())
        .collect::<Option<Vec<usize>>>()
    else {
        return false;
    };
    let mut on_frontier = vec![false; map.len()];
    for &f in &frontier {
        on_frontier[f] = true;
    }
    frontier.windows(2).all(|w| w[0] < w[1])
        && frontier
            .iter()
            .all(|&f| (0..map.len()).all(|j| !dominates_min(row(j), row(f))))
        && (0..map.len())
            .filter(|&i| !on_frontier[i])
            .all(|i| frontier.iter().any(|&f| dominates_min(row(f), row(i))))
}

/// `plan` with every point kept.
fn materialized(plan: &QueryPlan) -> QueryPlan {
    let mut builder = QueryPlan::builder()
        .objectives(plan.objectives())
        .keep_points(KeepPoints::All);
    for &c in plan.constraints() {
        builder = builder.constraint(c);
    }
    if let Some(ids) = plan.airframes() {
        builder = builder.airframes(ids);
    }
    if let Some(ids) = plan.sensors() {
        builder = builder.sensors(ids);
    }
    if let Some(ids) = plan.computes() {
        builder = builder.computes(ids);
    }
    if let Some(ids) = plan.algorithms() {
        builder = builder.algorithms(ids);
    }
    builder
        .build()
        .expect("a valid plan stays valid materialized")
}

/// Checks every sample; returns the number whose frontier is wrong.
fn check_samples(setup: &Setup, samples: &[Sample]) -> usize {
    let paper = Session::new(setup.paper.catalog());
    let synth = Session::new(setup.synth.catalog()).with_cache_capacity(1);
    samples
        .iter()
        .filter(|sample| {
            let session = match sample.class {
                Class::Paper | Class::Tier2 => &paper,
                _ => &synth,
            };
            let result = session
                .run(&materialized(&sample.plan))
                .expect("re-run evaluates");
            result.frontier() != sample.frontier.as_slice() || !frontier_matches(&result)
        })
        .count()
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (setup, setup_s, setups) = repeated_setup(SETUPS, setup, drop);
    let mut generator = Generator::new(seed);
    let mut sampler = Rng::new(seed ^ 0xC4EC);
    let mut t = Tracer::new(false);
    let mut done = Vec::new();
    let mut samples = Vec::new();
    let mut large_checks = 0;
    let start = Instant::now();
    'run: loop {
        for op in generator.cycle() {
            if start.elapsed() >= budget {
                break 'run;
            }
            report.attempted += 1;
            let at = start.elapsed().as_secs_f64();
            match execute(&setup, &op, sampler.below(CHECK_EVERY) == 0, &mut t) {
                Ok(mut d) => {
                    let large = matches!(d.class, Class::Stream1e5 | Class::All1e5);
                    // 10⁶ plans are not re-run: materialized, one would
                    // raise the run's peak memory.
                    let checked =
                        d.class != Class::Stream1e6 && (!large || large_checks < LARGE_MAX);
                    if let Some(r) = d.sample.take().filter(|_| checked) {
                        large_checks += usize::from(large);
                        samples.push(Sample {
                            class: d.class,
                            plan: op.plans[0].clone(),
                            frontier: r.frontier().to_vec(),
                        });
                    }
                    done.push((at, d));
                }
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(e);
                }
            }
        }
    }
    let window = start.elapsed().as_secs_f64();
    report.peak_rss();
    let wrong = check_samples(&setup, &samples);
    report.failed += wrong as u64;
    report.check(wrong == 0, || {
        format!(
            "{wrong} of {} sampled frontiers differ from a materialized re-run's or from the Pareto set",
            samples.len()
        )
    });

    let timed: Vec<(f64, f64)> = done.iter().map(|(at, d)| (*at, d.seconds * 1e3)).collect();
    let latency = summarize(&timed.iter().map(|&(_, l)| l).collect::<Vec<_>>());
    let tail = windowed_tail(&timed, window);
    let candidates: u64 = done.iter().map(|(_, d)| d.candidates).sum();
    let busy: f64 = done.iter().map(|(_, d)| d.seconds).sum();
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", latency.p50, "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("throughput_ops_s", done.len() as f64 / window, "ops/s");
    report.detail("setup_s_each", format!("{setups:?}"));
    report.detail("latency_ms", latency.json());
    report.detail("latency_tail_ms", tail.json());
    report.detail("candidates_per_s", num(candidates as f64 / busy));
    report.detail(
        "error_rate",
        num(report.failed as f64 / report.attempted.max(1) as f64),
    );
    report.detail(
        "checked_frontiers",
        format!("{{\"all\": {}, \"1e5\": {large_checks}}}", samples.len()),
    );
    let by_class: Vec<(String, String)> = Class::ALL
        .iter()
        .map(|&c| {
            let ms: Vec<f64> = done
                .iter()
                .filter(|(_, d)| d.class == c)
                .map(|(_, d)| d.seconds * 1e3)
                .collect();
            (c.label().to_owned(), summarize(&ms).json())
        })
        .collect();
    report.detail("latency_ms_by_class", stats::object(&by_class));
    report
}

/// The traced run's `explore_mix` part: whole cycles untraced for half
/// the budget, then the same operations traced on cleared caches.
pub fn trace(seed: u64, budget: Duration, report: &mut Report) {
    let setup = setup();
    let mut generator = Generator::new(seed);
    let mut ops = Vec::new();
    let mut plain = Tracer::new(false);
    let mut plain_s = 0.0;
    while plain_s < (budget / 2).as_secs_f64() {
        for op in generator.cycle() {
            plain_s += execute(&setup, &op, false, &mut plain)
                .expect("explore_mix plans run")
                .seconds;
            ops.push(op);
        }
    }
    setup.clear();
    let sim_before = setup.paper.sim_stats();
    let mut t = Tracer::new(true);
    let done: Vec<Done> = ops
        .iter()
        .map(|op| execute(&setup, op, false, &mut t).expect("explore_mix plans run"))
        .collect();
    let traced_s: f64 = done.iter().map(|d| d.seconds).sum();
    let sim = setup.paper.sim_stats();
    report.attempted += 2 * ops.len() as u64;

    let span_ms = |name: &str| stats::median(&t.durations_ms(name));
    let ns_per_candidate = |classes: &[Class]| {
        let per: Vec<f64> = done
            .iter()
            .filter(|d| classes.contains(&d.class))
            .map(|d| d.seconds * 1e9 / d.candidates.max(1) as f64)
            .collect();
        (stats::median(&per), per.len())
    };
    let (stream_ns, stream_n) = ns_per_candidate(&[Class::Stream1e5, Class::Stream1e6]);
    let (materialize_ns, materialize_n) = ns_per_candidate(&[Class::All1e5]);
    let evaluations = (sim.evaluations - sim_before.evaluations).max(1) as f64;
    report.metric("session.cold_run_ms.paper", span_ms("cold_run.paper"), "ms");
    report.metric("session.cold_run_ms.1e3", span_ms("cold_run.1e3"), "ms");
    report.metric("session.cold_run_ms.1e6", span_ms("cold_run.1e6"), "ms");
    report.metric("session.ns_per_candidate.stream", stream_ns, "ns");
    report.metric("session.ns_per_candidate.materialize", materialize_ns, "ns");
    report.metric("session.batch8_ms", span_ms("run_batch.8"), "ms");
    report.metric("result.top_k_us", span_ms("result.top_k") * 1e3, "us");
    report.metric("sim.eval_ms", span_ms("cold_run.tier2"), "ms");
    report.metric(
        "sim.trials",
        (sim.trials - sim_before.trials) as f64 / evaluations,
        "count",
    );
    report.metric(
        "sim.survivors",
        (sim.survivors - sim_before.survivors) as f64 / evaluations,
        "count",
    );
    let samples: Vec<(String, String)> = Class::ALL
        .iter()
        .map(|c| {
            (
                c.span().to_owned(),
                t.durations_ms(c.span()).len().to_string(),
            )
        })
        .chain([
            (
                "result.top_k".to_owned(),
                t.durations_ms("result.top_k").len().to_string(),
            ),
            ("ns_per_candidate.stream".to_owned(), stream_n.to_string()),
            (
                "ns_per_candidate.materialize".to_owned(),
                materialize_n.to_string(),
            ),
            ("sim.evaluations".to_owned(), num(evaluations)),
        ])
        .collect();
    report.detail(
        "explore_mix_trace",
        format!(
            "{{\"samples\": {}, \"tracing_overhead\": {}, \"untraced_s\": {}, \"traced_s\": {}, \
             \"sim_millis\": {}, \"self_time\": {}}}",
            stats::object(&samples),
            num(traced_s / plain_s - 1.0),
            num(plain_s),
            num(traced_s),
            sim.millis - sim_before.millis,
            t.self_time_json()
        ),
    );
}
