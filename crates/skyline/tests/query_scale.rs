//! Acceptance tests for query plans on a session at scale: the
//! four-objective query over a synthesized 10⁵-candidate catalog, exact
//! frontier agreement with the naive Pareto on the paper catalog, and
//! the shared-pass acceptance — a batch of 8 distinct 4-objective plans
//! over the 10⁵-candidate catalog in less than 2× one query's time,
//! with repeated plans served from the session cache.
//!
//! Catalog sizes drop an order of magnitude under `debug_assertions` so
//! plain `cargo test` stays quick; the release-mode CI job runs the full
//! 10⁵-candidate versions (timing assertions are release-only — debug
//! builds aren't what the acceptance criterion measures).

use std::sync::Arc;
use std::time::Instant;

use f1_components::{Catalog, ComputeId};
use f1_skyline::frontier;
use f1_skyline::plan::{PlanBuilder, QueryPlan};
use f1_skyline::query::{Constraint, Objective};
use f1_skyline::session::{ResultSet, Session};
use f1_units::Watts;

const FOUR_OBJECTIVES: [Objective; 4] = [
    Objective::SafeVelocity,
    Objective::TotalTdp,
    Objective::PayloadMass,
    Objective::MissionEnergyWhPerKm,
];

/// Builds a plan and runs it cold on a fresh session over `catalog`.
fn run(catalog: &Arc<Catalog>, builder: PlanBuilder) -> Arc<ResultSet> {
    Session::new(Arc::clone(catalog))
        .run(&builder.build().expect("valid plan"))
        .expect("plan evaluates")
}

/// The headline acceptance: a 4-objective query (velocity, TDP, payload,
/// mission energy) over a synthesized 10⁵-candidate catalog completes
/// with the O(n log n) frontier.
#[test]
fn four_objective_query_over_1e5_candidate_catalog() {
    // 47 parts per family ⇒ 47³ = 103 823 characterized candidates on
    // one airframe.
    let catalog = Arc::new(Catalog::synthesize(42, 47));
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    let result = run(
        &catalog,
        QueryPlan::builder()
            .airframes(&[airframe])
            .objectives(&FOUR_OBJECTIVES),
    );
    assert_eq!(result.points().len(), 47 * 47 * 47);
    assert!(!result.frontier().is_empty());

    // Frontier points are feasible, finite-valued, and mutually
    // non-dominated (full pairwise check within the frontier itself —
    // it is small, unlike the candidate set).
    let objectives = result.objectives();
    let frontier_rows: Vec<Vec<f64>> = result
        .frontier()
        .iter()
        .map(|&i| {
            assert!(result.points()[i].outcome.feasible);
            result
                .row(i)
                .iter()
                .zip(objectives)
                .map(|(&v, o)| {
                    assert!(v.is_finite());
                    if o.maximize() {
                        -v
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    for a in &frontier_rows {
        for b in &frontier_rows {
            assert!(!frontier::dominates_min(a, b));
        }
    }

    // Spot-check optimality: the single best point per objective is
    // undominated, hence on the frontier.
    for (pos, objective) in objectives.iter().enumerate() {
        let best = (0..result.points().len())
            .filter(|&i| result.points()[i].outcome.feasible)
            .filter(|&i| result.row(i).iter().all(|v| v.is_finite()))
            .min_by(|&a, &b| {
                let (va, vb) = (result.value(a, pos), result.value(b, pos));
                if objective.maximize() {
                    vb.total_cmp(&va)
                } else {
                    va.total_cmp(&vb)
                }
            })
            .expect("some feasible point exists");
        let best_value = result.value(best, pos);
        assert!(
            result
                .frontier()
                .iter()
                .any(|&i| result.value(i, pos) == best_value),
            "the {objective}-optimal value {best_value} is missing from the frontier"
        );
    }
}

/// On the paper-sized catalog the sweep frontier must equal the naive
/// O(n²) Pareto **exactly** — same indices, same order — for the default
/// 3-objective query and the 4-objective energy query alike.
#[test]
fn sweep_frontier_matches_naive_exactly_on_paper_catalog() {
    let catalog = Arc::new(Catalog::paper());
    for objectives in [
        &[
            Objective::SafeVelocity,
            Objective::TotalTdp,
            Objective::PayloadMass,
        ][..],
        &FOUR_OBJECTIVES[..],
    ] {
        let result = run(&catalog, QueryPlan::builder().objectives(objectives));
        let (keys, map) = result.minimized_keys();
        let naive: Vec<usize> = frontier::naive_pareto_min(objectives.len(), &keys)
            .into_iter()
            .map(|i| map[i])
            .collect();
        assert_eq!(result.frontier(), naive, "{} objectives", objectives.len());
        assert!(!naive.is_empty());
    }
}

/// Same exactness on a small synthesized catalog, where duplicates and
/// near-ties are common because parts repeat across candidates.
#[test]
fn sweep_frontier_matches_naive_exactly_on_small_synth_catalog() {
    let catalog = Arc::new(Catalog::synthesize(7, 8));
    for k in [2, 3, 4] {
        let result = run(
            &catalog,
            QueryPlan::builder().objectives(&FOUR_OBJECTIVES[..k]),
        );
        let (keys, map) = result.minimized_keys();
        let naive: Vec<usize> = frontier::naive_pareto_min(k, &keys)
            .into_iter()
            .map(|i| map[i])
            .collect();
        assert_eq!(result.frontier(), naive, "{k} objectives");
    }
}

/// The shared-pass acceptance: a batch of 8 **distinct** 4-objective
/// plans (a Table II-style TDP budget sweep) over a 10⁵-candidate
/// synthetic catalog completes in < 2× the single-query pass time,
/// because candidates are enumerated and the momentum-theory outcome
/// evaluated once for the whole batch. Each batched result must equal
/// its standalone run, and a repeated plan must come back from the
/// session cache with identical frontier indices.
#[test]
fn batch_of_eight_plans_shares_the_evaluation_pass_at_scale() {
    // 47³ ≈ 1.04 × 10⁵ candidates in release; 22³ ≈ 1.06 × 10⁴ in debug.
    let n_per_family = if cfg!(debug_assertions) { 22 } else { 47 };
    let catalog = Arc::new(Catalog::synthesize(42, n_per_family));
    let airframe = catalog
        .airframe_entries()
        .next()
        .map(|(id, _)| id)
        .expect("synthesized catalog has airframes");
    // Distinct plans: descending TDP budgets over the synth catalog's
    // 0.05–60 W log-uniform TDP range (the first is effectively open).
    let caps = [60.0, 30.0, 16.0, 8.0, 4.0, 2.0, 1.0, 0.5];
    let plans: Vec<QueryPlan> = caps
        .iter()
        .map(|&w| {
            QueryPlan::builder()
                .airframes(&[airframe])
                .objectives(&FOUR_OBJECTIVES)
                .constraint(Constraint::MaxTotalTdp(Watts::new(w)))
                .build()
                .unwrap()
        })
        .collect();
    assert_eq!(
        plans
            .iter()
            .map(QueryPlan::key)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        8,
        "the 8 plans must be distinct"
    );

    // Baseline: one plan, one pass. Best of two fresh-session
    // runs, for both arms — the claim is about steady-state cost, not
    // first-touch page faults on a noisy box.
    let mut single = None;
    let mut single_time = None;
    for _ in 0..2 {
        let session = Session::new(Arc::clone(&catalog));
        let start = Instant::now();
        single = Some(session.run(&plans[0]).unwrap());
        let elapsed = start.elapsed();
        single_time = Some(single_time.map_or(elapsed, |t| elapsed.min(t)));
    }
    let (single, single_time) = (single.unwrap(), single_time.unwrap());

    // The batch: one shared pass for all 8.
    let mut batch_session = Session::new(Arc::clone(&catalog));
    let mut batch = None;
    let mut batch_time = None;
    for _ in 0..2 {
        let session = Session::new(Arc::clone(&catalog));
        let start = Instant::now();
        batch = Some(session.run_batch(&plans).unwrap());
        let elapsed = start.elapsed();
        batch_time = Some(batch_time.map_or(elapsed, |t| elapsed.min(t)));
        batch_session = session;
    }
    let (batch, batch_time) = (batch.unwrap(), batch_time.unwrap());

    // Correctness before speed: every member equals its standalone run.
    assert_eq!(*batch[0], *single);
    for (plan, batched) in plans.iter().zip(&batch).skip(1) {
        let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
        assert_eq!(**batched, *standalone);
    }
    // Tighter budgets keep fewer points; every member's accounting adds
    // back up to the full space.
    let total = single.len() + single.dropped();
    for pair in batch.windows(2) {
        assert!(pair[0].len() >= pair[1].len());
    }
    for member in &batch {
        assert_eq!(member.len() + member.dropped(), total);
    }

    // A repeated plan is a cache lookup with identical frontier indices
    // (the very same Arc).
    let repeat_start = Instant::now();
    let again = batch_session.run(&plans[3]).unwrap();
    let repeat_time = repeat_start.elapsed();
    assert!(Arc::ptr_eq(&again, &batch[3]));
    assert_eq!(again.frontier(), batch[3].frontier());
    assert!(
        repeat_time < single_time / 10,
        "cache lookup took {repeat_time:?} vs cold {single_time:?}"
    );

    // The timing acceptance is a release-mode claim (the CI release job
    // runs it at the full 10⁵); debug codegen distorts the ratio.
    #[cfg(not(debug_assertions))]
    {
        assert!(
            batch_time < single_time * 2,
            "8-plan batch took {batch_time:?}, single pass {single_time:?} \
             (acceptance: batch < 2× single)"
        );
    }
    #[cfg(debug_assertions)]
    let _ = (batch_time, single_time);
}

/// Constraints compose with scale: a TDP cap prunes the synthetic space
/// without touching the surviving outcomes.
#[test]
fn constrained_query_on_synth_catalog_prunes_consistently() {
    let catalog = Arc::new(Catalog::synthesize(42, 12));
    let airframe = catalog.airframe_entries().next().map(|(id, _)| id).unwrap();
    let open = run(&catalog, QueryPlan::builder().airframes(&[airframe]));
    let capped = run(
        &catalog,
        QueryPlan::builder()
            .airframes(&[airframe])
            .constraint(Constraint::MaxTotalTdp(Watts::new(10.0))),
    );
    assert_eq!(
        capped.points().len() + capped.dropped(),
        open.points().len()
    );
    let kept: Vec<ComputeId> = capped
        .points()
        .iter()
        .map(|p| p.candidate.compute)
        .collect();
    for id in kept {
        assert!(catalog.compute_by_id(id).tdp().get() <= 10.0);
    }
    for point in capped.points() {
        let twin = open
            .points()
            .iter()
            .find(|p| p.candidate == point.candidate)
            .expect("unconstrained query holds a superset");
        assert_eq!(twin.outcome, point.outcome);
    }
}
