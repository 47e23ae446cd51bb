//! Benchmarks for design-space exploration through query plans on a
//! session: cold runs of the default plan over the full paper catalog
//! and over one airframe, the synthetic-catalog group comparing the old
//! O(n²) all-pairs Pareto scan against the O(n log n) sort-and-sweep
//! skyline at 10³/10⁴/10⁵ candidates, the `plan_reuse` group: one cold
//! pass vs. a session plan-cache hit vs. an 8-plan shared-pass batch — the
//! `budget_sweep` group running a 64-plan TDP budget sweep as one
//! batch, plus the
//! `stream_shards` group pitting the frontier-only collector against
//! the keep-all one at 10⁵/10⁶ candidates, and the `two_tier`
//! group measuring the simulation tier's overhead against the analytic
//! pass alone (tier-2 cost scales with the survivor budget, not the
//! candidate count). Representative numbers are recorded in
//! `BENCH_dse.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use f1_components::{names, Catalog, CatalogDelta, CatalogStore};
use f1_skyline::frontier;
use f1_skyline::plan::{KeepPoints, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::Session;
use f1_units::Watts;

/// The default 3-objective plan over the whole paper catalog, run cold:
/// a fresh session per iteration, so each one pays the epoch-state
/// derivation and the full sharded pass with its frontier.
fn bench_full_catalog(c: &mut Criterion) {
    let catalog = Arc::new(Catalog::paper());
    let plan = QueryPlan::builder().build().unwrap();
    c.bench_function("dse_full_catalog_cold_run", |b| {
        b.iter(|| black_box(Session::new(Arc::clone(&catalog)).run(&plan).unwrap()))
    });
}

/// The same plan restricted to the AscTec Pelican, run cold.
fn bench_single_airframe(c: &mut Criterion) {
    let catalog = Arc::new(Catalog::paper());
    let pelican = catalog.airframe_id(names::ASCTEC_PELICAN).unwrap();
    let plan = QueryPlan::builder().airframes(&[pelican]).build().unwrap();
    let mut g = c.benchmark_group("dse_single_airframe");
    g.bench_function("cold_session_run", |b| {
        b.iter(|| black_box(Session::new(Arc::clone(&catalog)).run(&plan).unwrap()))
    });
    g.finish();
}

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
/// bench run, which is exactly the result.
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
            if dims >= 4 {
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

/// End-to-end cold queries over synthesized catalogs, on a fresh
/// session per iteration: the fused batched pass (evaluation +
/// constraints + objective extraction) plus the frontier, at 4
/// objectives and — with a mounted battery — 5.
fn bench_synthetic_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_synthetic_query");
    for dims in [4usize, 5] {
        for (label, n_per_family) in [("1e3", 10usize), ("1e4", 22), ("1e5", 47)] {
            let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
            let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
            let battery = catalog.battery_entries().next().map(|(id, _)| id).unwrap();
            let mut builder = QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&Objective::ALL[..dims]);
            if dims == 5 {
                builder = builder.battery(battery);
            }
            let plan = builder.build().unwrap();
            let group = if dims == 4 {
                "four_objectives"
            } else {
                "five_objectives"
            };
            g.bench_function(format!("{group}/{label}"), |b| {
                b.iter(|| black_box(Session::new(Arc::clone(&catalog)).run(&plan).unwrap()))
            });
        }
    }
    g.finish();
}

/// The compile/execute split at serving scale: a cold 4-objective plan
/// through a fresh `Session` (one fused pass, session construction
/// included), the same plan repeated against a warm session (a
/// plan-cache lookup returning the memoized `Arc`), and an 8-plan
/// shared-pass batch (a Table II-style TDP budget sweep over one
/// enumeration + evaluation), at 10⁴ and 10⁵ synthetic candidates.
fn bench_plan_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_plan_reuse");
    for (label, n_per_family) in [("1e4", 22usize), ("1e5", 47)] {
        let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
        let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
        let caps = [60.0, 30.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5];
        let plans: Vec<QueryPlan> = caps
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
        g.bench_function(format!("cold_pass/{label}"), |b| {
            b.iter(|| {
                let session = Session::new(Arc::clone(&catalog));
                black_box(session.run(&plans[0]).unwrap())
            })
        });
        let warm = Session::new(Arc::clone(&catalog));
        warm.run(&plans[0]).unwrap();
        g.bench_function(format!("cached_lookup/{label}"), |b| {
            b.iter(|| black_box(warm.run(&plans[0]).unwrap()))
        });
        g.bench_function(format!("batch8_shared_pass/{label}"), |b| {
            b.iter(|| {
                let session = Session::new(Arc::clone(&catalog));
                black_box(session.run_batch(&plans).unwrap())
            })
        });
    }
    g.finish();
}

/// A Fig. 12-style TDP budget sweep at full pass width: 64 co-shaped
/// frontier-only 4-objective plans with caps stepped by 0.5 W over one
/// 10⁵-candidate airframe (two shards), run as one batch — one shared
/// pass whose cross-shard merge runs once for the shared skyline, not
/// once per plan.
fn bench_budget_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_budget_sweep");
    let catalog = Arc::new(Catalog::synthesize(42, 47));
    let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
    let plans: Vec<QueryPlan> = (1..=64)
        .map(|step| {
            QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&Objective::ALL[..4])
                .constraint(Constraint::MaxTotalTdp(Watts::new(0.5 * f64::from(step))))
                .keep_points(KeepPoints::FrontierOnly)
                .build()
                .unwrap()
        })
        .collect();
    g.bench_function("batch64_frontier_only/1e5", |b| {
        b.iter(|| {
            let session = Session::new(Arc::clone(&catalog));
            black_box(session.run_batch(&plans).unwrap())
        })
    });
    g.finish();
}

/// The versioned-store serving story: rolling catalog updates. Each
/// iteration publishes a one-pair throughput patch as a new epoch and
/// brings the 4-objective result forward — `incremental_refresh`
/// through `Session::refresh` (survivors splice by reference, only the
/// patched pair's candidates re-evaluate, frontier merged), vs
/// `cold_rerun` paying the full fused pass at the new epoch. The
/// session cache is LRU-capped so the rolling history stays bounded.
fn bench_delta_repair(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_delta_repair");
    for (label, n_per_family) in [("1e4", 22usize), ("1e5", 47)] {
        let catalog = Catalog::synthesize(42, n_per_family);
        let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
        let compute = catalog
            .computes()
            .next()
            .map(|c| c.name().to_owned())
            .unwrap();
        let algorithm = catalog
            .algorithms()
            .next()
            .map(|a| a.name().to_owned())
            .unwrap();
        let plan = QueryPlan::builder()
            .airframes(&[airframe])
            .objectives(&Objective::ALL[..4])
            .build()
            .unwrap();
        // Two deltas toggling one characterized pair, so every epoch
        // differs from its predecessor.
        let deltas = [
            CatalogDelta::new().patch_throughput(&compute, &algorithm, f1_units::Hertz::new(90.0)),
            CatalogDelta::new().patch_throughput(&compute, &algorithm, f1_units::Hertz::new(91.0)),
        ];
        let store = Arc::new(CatalogStore::new(catalog.clone()));
        let session = Session::over(Arc::clone(&store)).with_cache_capacity(4);
        session.run(&plan).unwrap();
        let mut flip = 0usize;
        g.bench_function(format!("incremental_refresh/{label}"), |b| {
            b.iter(|| {
                store.apply(&deltas[flip % 2]).unwrap();
                flip += 1;
                black_box(session.refresh(&plan).unwrap())
            })
        });
        let store = Arc::new(CatalogStore::new(catalog));
        let mut flip = 0usize;
        g.bench_function(format!("cold_rerun/{label}"), |b| {
            b.iter(|| {
                store.apply(&deltas[flip % 2]).unwrap();
                flip += 1;
                let session = Session::over(Arc::clone(&store));
                black_box(session.run(&plan).unwrap())
            })
        });
    }
    g.finish();
}

/// The frontier-only collector vs the keep-all one: the same
/// 4-objective single-airframe query under `KeepPoints::All` and
/// `KeepPoints::FrontierOnly` at 10⁵ and 10⁶ candidates. The frontier,
/// top-k ranking and accounting are bit-identical between the arms, so
/// the delta is pure collector cost: per-candidate ns for the streamed
/// lane must stay at or below the keep-all lane, while its peak memory
/// is O(shard + frontier + k) instead of O(candidates).
fn bench_stream_shards(c: &mut Criterion) {
    let mut g = c.benchmark_group("dse_stream_shards");
    for (label, n_per_family) in [("1e5", 47usize), ("1e6", 100)] {
        let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
        let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
        for (mode, keep) in [
            ("materialize", KeepPoints::All),
            ("stream", KeepPoints::FrontierOnly),
        ] {
            let plan = QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&Objective::ALL[..4])
                .keep_points(keep)
                .build()
                .unwrap();
            g.bench_function(format!("{mode}/{label}"), |b| {
                b.iter(|| {
                    let session = Session::new(Arc::clone(&catalog));
                    black_box(session.run(&plan).unwrap())
                })
            });
        }
    }
    g.finish();
}

/// Two-tier evaluation cost: the analytic fused pass alone vs the same
/// plan with simulation objectives (32-trial `MissionRobustness` +
/// `PipelineP99Latency`) at survivor budgets 16 and 64, over 10⁴ and
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
        for budget in [16usize, 64] {
            let plan = QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&Objective::ALL[..4])
                .sim_objective(SimObjective::MissionRobustness { trials: 32 })
                .sim_objective(SimObjective::PipelineP99Latency)
                .survivor_budget(budget)
                .build()
                .unwrap();
            g.bench_function(format!("two_tier_b{budget}/{label}"), |b| {
                b.iter(|| {
                    let session = Session::new(Arc::clone(&catalog))
                        .with_tier2(Arc::new(SimHarness::default()));
                    black_box(session.run(&plan).unwrap())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    dse,
    bench_full_catalog,
    bench_single_airframe,
    bench_synthetic_frontier,
    bench_synthetic_query,
    bench_plan_reuse,
    bench_budget_sweep,
    bench_delta_repair,
    bench_stream_shards,
    bench_two_tier,
);
criterion_main!(dse);
