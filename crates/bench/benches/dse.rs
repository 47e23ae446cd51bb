//! Design-space exploration arms that the end-to-end benchmark
//! (`perfbench/`) does not reproduce: the skyline algorithms on
//! synthesized catalogs — the production `pareto_min` against the
//! running-frontier fallback and the O(n²) all-pairs scan at
//! 10³/10⁴/10⁵ candidates, which `pareto_min`'s dispatch threshold
//! cites — a cold 5-objective query with a mounted battery and a
//! keep-all 8-plan batch at 10⁵ candidates, and the two-tier group
//! measuring the simulation tier's overhead against the analytic pass
//! alone (tier-2 cost scales with the survivor budget, not the
//! candidate count). Battery-free cold passes, cache hits, small
//! batches, delta repair and the streamed collector are measured by
//! perfbench's `session.*` metrics. Recorded runs are in
//! `BENCH_dse.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use f1_components::Catalog;
use f1_skyline::frontier;
use f1_skyline::plan::QueryPlan;
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;

/// The minimized key buffer of a synthesized catalog's single-airframe
/// query over the first `dims` of [`Objective::ALL`] (velocity, TDP,
/// payload, energy, endurance) — the frontier benchmarks' common input.
/// The 5-objective slice mounts the catalog's first battery (the
/// endurance objective requires one).
fn synthetic_keys(n_per_family: usize, dims: usize) -> Vec<f64> {
    let objectives = &Objective::ALL[..dims];
    let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    let mut builder = QueryPlan::builder()
        .airframes(&[airframe])
        .objectives(objectives);
    if objectives.contains(&Objective::HoverEnduranceMin) {
        let battery = catalog
            .battery_entries()
            .next()
            .map(|(id, _)| id)
            .expect("synthesized catalog has batteries");
        builder = builder.battery(battery);
    }
    let plan = builder.build().expect("synthetic plan is valid");
    let result = Session::new(catalog)
        .run(&plan)
        .expect("synthetic query evaluates");
    result.minimized_keys().0
}

/// Skyline algorithms on synthesized catalogs of 10³/10⁴/10⁵
/// candidates: the production `pareto_min` (staircase sweep at 3
/// objectives, divide-and-conquer at 4–5) against the old O(n·f)
/// running-frontier fallback (4–5 objectives) and the O(n²) all-pairs
/// scan. The naive arm is capped at ~10⁴ points — at 10⁵ it needs
/// ~10¹⁰ dominance checks per iteration and would dominate the whole
/// bench run, which is exactly the result. The 5-objective 10³ input
/// is below `pareto_min`'s crossover, so its production arm already is
/// the running frontier and gets no separate running arm.
fn bench_synthetic_frontier(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_synthetic_frontier");
    for dims in [3usize, 4, 5] {
        for (label, n_per_family) in [("1e3", 10usize), ("1e4", 22), ("1e5", 47)] {
            let keys = synthetic_keys(n_per_family, dims);
            let points = keys.len() / dims;
            // "sweep3" is the 3-objective staircase; "pareto4/5" is the
            // production dispatch (divide-and-conquer, except small
            // 5-objective inputs which cross back to the running
            // frontier).
            let name = if dims == 3 { "sweep" } else { "pareto" };
            g.bench_function(format!("{name}{dims}/{label}_{points}pts"), |b| {
                b.iter(|| black_box(frontier::pareto_min(dims, &keys)))
            });
            if dims == 4 || (dims == 5 && label != "1e3") {
                g.bench_function(format!("running{dims}/{label}_{points}pts"), |b| {
                    b.iter(|| black_box(frontier::running_frontier_min(dims, &keys)))
                });
            }
            if points <= 15_000 {
                g.bench_function(format!("naive{dims}/{label}_{points}pts"), |b| {
                    b.iter(|| black_box(frontier::naive_pareto_min(dims, &keys)))
                });
            }
        }
    }
    g.finish();
}

/// A cold 5-objective query over 10⁵ synthesized candidates on a fresh
/// session per iteration: the fused pass with a mounted battery (the
/// endurance objective) plus the 5-objective frontier.
fn bench_synthetic_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_synthetic_query");
    let catalog = Arc::new(Catalog::synthesize(42, 47));
    let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
    let battery = catalog.battery_entries().next().map(|(id, _)| id).unwrap();
    let plan = QueryPlan::builder()
        .airframes(&[airframe])
        .objectives(&Objective::ALL)
        .battery(battery)
        .build()
        .unwrap();
    g.bench_function("five_objectives/1e5", |b| {
        b.iter(|| black_box(Session::new(Arc::clone(&catalog)).run(&plan).unwrap()))
    });
    g.finish();
}

/// An 8-plan keep-all batch (a Table II-style TDP budget sweep) over
/// 10⁵ synthesized candidates on a fresh session per iteration: one
/// shared enumeration + evaluation whose shared skyline is merged
/// across shards.
fn bench_plan_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_plan_reuse");
    let catalog = Arc::new(Catalog::synthesize(42, 47));
    let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
    let plans: Vec<QueryPlan> = [60.0, 30.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
        .iter()
        .map(|&w| {
            QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&Objective::ALL[..4])
                .constraint(Constraint::MaxTotalTdp(Watts::new(w)))
                .build()
                .unwrap()
        })
        .collect();
    g.bench_function("batch8_shared_pass/1e5", |b| {
        b.iter(|| {
            black_box(
                Session::new(Arc::clone(&catalog))
                    .run_batch(&plans)
                    .unwrap(),
            )
        })
    });
    g.finish();
}

/// Two-tier evaluation cost: the analytic fused pass alone vs the same
/// plan with simulation objectives (32-trial `MissionRobustness` +
/// `PipelineP99Latency`) at survivor budget 16, over 10⁴ and
/// 10⁵ synthetic candidates. The point is the scaling law: tier-2 cost
/// is per-survivor-flat and proportional to the survivor set (the
/// 4-objective frontier ∪ top-k — ~9% of candidates at 10⁴, ~4% at
/// 10⁵), not to the candidate count, so the two-tier split is ~11×
/// cheaper than simulating every candidate at 10⁴ and ~23× at 10⁵.
fn bench_two_tier(c: &mut Criterion) {
    use f1_sim::SimHarness;
    use f1_skyline::plan::SimObjective;

    let mut g = c.benchmark_group("dse_two_tier");
    for (label, n_per_family) in [("1e4", 22usize), ("1e5", 47)] {
        let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
        let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
        let tier1 = QueryPlan::builder()
            .airframes(&[airframe])
            .objectives(&Objective::ALL[..4])
            .build()
            .unwrap();
        g.bench_function(format!("tier1_only/{label}"), |b| {
            b.iter(|| {
                let session = Session::new(Arc::clone(&catalog));
                black_box(session.run(&tier1).unwrap())
            })
        });
        let plan = QueryPlan::builder()
            .airframes(&[airframe])
            .objectives(&Objective::ALL[..4])
            .sim_objective(SimObjective::MissionRobustness { trials: 32 })
            .sim_objective(SimObjective::PipelineP99Latency)
            .survivor_budget(16)
            .build()
            .unwrap();
        g.bench_function(format!("two_tier_b16/{label}"), |b| {
            b.iter(|| {
                let session =
                    Session::new(Arc::clone(&catalog)).with_tier2(Arc::new(SimHarness::default()));
                black_box(session.run(&plan).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(
    dse,
    bench_synthetic_frontier,
    bench_synthetic_query,
    bench_plan_reuse,
    bench_two_tier
);
criterion_main!(dse);
