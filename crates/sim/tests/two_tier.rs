//! Bit-identity properties of two-tier evaluation.
//!
//! The tier-2 contract (seeds are pure functions of plan key ∖ storage
//! policy, candidate identity and trial index) promises that simulated
//! values are **bit-identical** — not "close" — across every execution
//! shape: materializing vs streamed storage, `run` vs `run_batch` vs
//! `run_at`, cache hits, and delta repair vs a cold run at the new
//! epoch. These tests hold the harness to that promise, plus a fuzz
//! round-trip of the `t2=` canonical-key section.

use std::sync::Arc;

use f1_components::{names, Catalog, CatalogDelta, CatalogStore, Sensor, SensorModality};
use f1_sim::SimHarness;
use f1_skyline::plan::{KeepPoints, QueryPlan, SimObjective, MAX_SIM_TRIALS};
use f1_skyline::query::Objective;
use f1_skyline::session::Session;
use f1_skyline::tier2::SimBlock;
use f1_units::{Grams, Hertz, Meters};
use proptest::prelude::*;

/// The survivor budget the identity suite runs with: small enough to
/// keep debug-mode trials cheap, large enough that the top-k and the
/// frontier overlap only partially.
const BUDGET: usize = 8;

fn tier2_plan(keep: KeepPoints) -> QueryPlan {
    QueryPlan::builder()
        .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
        .sim_objective(SimObjective::MissionRobustness { trials: 6 })
        .sim_objective(SimObjective::PipelineP99Latency)
        .survivor_budget(BUDGET)
        .keep_points(keep)
        .build()
        .expect("valid tier-2 plan")
}

fn tier2_session(catalog: Catalog) -> Session {
    Session::new(Arc::new(catalog)).with_tier2(Arc::new(SimHarness::default()))
}

/// Bit-exact sim-block equality: values compared by bit pattern, so a
/// `-0.0`/`0.0` or NaN-payload drift fails even where `==` would pass.
fn assert_sim_bits_equal(a: &SimBlock, b: &SimBlock, what: &str) {
    assert_eq!(a.objectives, b.objectives, "{what}: objectives");
    assert_eq!(a.rows.len(), b.rows.len(), "{what}: row count");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.candidate_id, rb.candidate_id, "{what}: candidate id");
        assert_eq!(ra.index, rb.index, "{what}: survivor index");
        assert_eq!(ra.values.len(), rb.values.len(), "{what}: value arity");
        for (va, vb) in ra.values.iter().zip(&rb.values) {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{what}: candidate {} value {va} vs {vb}",
                ra.candidate_id
            );
        }
    }
    assert_eq!(a.report, b.report, "{what}: verification report");
}

#[test]
fn materializing_and_streamed_runs_are_bit_identical() {
    // Same query, three storage policies. The stored tier-1 points
    // differ by design; the simulated survivor values must not.
    let catalog = Catalog::paper();
    let reference = tier2_session(catalog.clone())
        .run(&tier2_plan(KeepPoints::All))
        .expect("materializing run");
    let reference_sim = reference.sim().expect("sim block");
    for keep in [KeepPoints::Auto, KeepPoints::FrontierOnly] {
        let other = tier2_session(catalog.clone())
            .run(&tier2_plan(keep))
            .expect("run");
        assert_sim_bits_equal(
            reference_sim,
            other.sim().expect("sim block"),
            &format!("{keep:?} vs All"),
        );
    }
}

#[test]
fn run_shapes_are_bit_identical() {
    let catalog = Catalog::paper();
    let plan = tier2_plan(KeepPoints::Auto);

    let via_run = tier2_session(catalog.clone()).run(&plan).expect("run");

    // run_batch, with an unrelated plan sharing the pass.
    let batch_session = tier2_session(catalog.clone());
    let other = QueryPlan::builder()
        .objectives(&[Objective::PayloadMass])
        .build()
        .expect("sibling plan");
    let batch = batch_session
        .run_batch(&[plan.clone(), other])
        .expect("batch");
    let via_batch = batch.first().expect("first batch result");

    // run_at the current (genesis) epoch, over an explicit store.
    let store = Arc::new(CatalogStore::new(catalog));
    let at_session = Session::over(Arc::clone(&store)).with_tier2(Arc::new(SimHarness::default()));
    let via_run_at = at_session
        .run_at(&plan, store.current_epoch())
        .expect("run_at");

    let reference = via_run.sim().expect("sim block");
    assert_sim_bits_equal(
        reference,
        via_batch.sim().expect("sim block"),
        "run_batch vs run",
    );
    assert_sim_bits_equal(
        reference,
        via_run_at.sim().expect("sim block"),
        "run_at vs run",
    );
}

#[test]
fn cache_hits_reuse_the_block_without_re_evaluating() {
    let session = tier2_session(Catalog::paper());
    let plan = tier2_plan(KeepPoints::Auto);
    let first = session.run(&plan).expect("cold run");
    let again = session.run(&plan).expect("cache hit");
    assert!(Arc::ptr_eq(&first, &again), "memoized result is shared");
    let stats = session.sim_stats();
    assert_eq!(stats.evaluations, 1, "cache hit must not re-simulate");
    assert!(stats.trials > 0);
    assert_eq!(
        u64::try_from(first.sim().expect("sim").rows.len()).ok(),
        Some(stats.survivors)
    );
}

#[test]
fn delta_repair_is_bit_identical_to_a_cold_run() {
    // An added sensor perturbs the candidate space; repaired tier-2
    // values must match a cold session at the new epoch bit-for-bit,
    // and survivors whose tier-1 row is unchanged may be served from
    // the prior block (observationally identical by the seed scheme).
    let wide_cam = Sensor::new(
        "Wide Cam 90",
        SensorModality::RgbCamera,
        Hertz::new(90.0),
        Meters::new(7.0),
        Grams::new(24.0),
    )
    .expect("fixture sensor");
    let deltas: Vec<(&str, CatalogDelta)> = vec![
        ("add sensor", CatalogDelta::new().add_sensor(wide_cam)),
        (
            "retire compute",
            CatalogDelta::new().retire_compute(names::TX2),
        ),
        (
            "patch throughput",
            CatalogDelta::new().patch_throughput(names::TX2, names::DRONET, Hertz::new(220.0)),
        ),
    ];
    let plan = tier2_plan(KeepPoints::Auto);
    let mut total_reused = 0;
    for (what, delta) in deltas {
        let store = Arc::new(CatalogStore::new(Catalog::paper()));
        let session = Session::over(Arc::clone(&store)).with_tier2(Arc::new(SimHarness::default()));
        session.run(&plan).expect("genesis run");
        store.apply(&delta).expect("delta applies");
        let repaired = session.refresh(&plan).expect("refresh");
        let cold = Session::new(Arc::clone(store.current().catalog()))
            .with_tier2(Arc::new(SimHarness::default()))
            .run(&plan)
            .expect("cold run at new epoch");
        assert_sim_bits_equal(
            repaired.sim().expect("sim block"),
            cold.sim().expect("sim block"),
            what,
        );
        total_reused += session.sim_stats().reused_rows;
    }
    // At least one delta left survivors untouched — those rows must be
    // served from the prior block, not re-simulated.
    assert!(total_reused > 0, "delta repair never reused a prior row");
}

proptest! {
    /// Fuzz the `t2=` canonical-key section: any valid combination of
    /// sim objectives and survivor budget must survive
    /// `key → from_key → key` unchanged, and re-parse to an equal plan.
    #[test]
    fn t2_key_section_round_trips(
        combo in 0u64..5,
        trials in 1u32..MAX_SIM_TRIALS + 1,
        budget in 1usize..65,
    ) {
        let robustness = SimObjective::MissionRobustness { trials };
        let p99 = SimObjective::PipelineP99Latency;
        // 0: no tier-2; 1: robustness; 2: p99; 3: both; 4: both reversed.
        let declared: Vec<SimObjective> = match combo {
            0 => vec![],
            1 => vec![robustness],
            2 => vec![p99],
            3 => vec![robustness, p99],
            _ => vec![p99, robustness],
        };
        let mut builder = QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity]);
        for objective in &declared {
            builder = builder.sim_objective(*objective);
        }
        if !declared.is_empty() {
            builder = builder.survivor_budget(budget);
        }
        let plan = builder.build().expect("valid plan");
        let replayed = QueryPlan::from_key(plan.key()).expect("key parses");
        prop_assert_eq!(replayed.key(), plan.key());
        prop_assert_eq!(replayed.sim_objectives(), plan.sim_objectives());
        prop_assert_eq!(replayed.survivor_budget(), plan.survivor_budget());
        prop_assert_eq!(replayed.has_tier2(), !declared.is_empty());
    }
}
