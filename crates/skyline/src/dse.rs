//! The F-1 evaluation kernel behind automated design-space exploration.
//!
//! The paper's conclusion: "We believe that the model can be used for
//! automated design space exploration and aid with generating an optimal
//! domain-specific architecture best suited for a UAV." Such questions
//! are asked as a [`QueryPlan`](crate::QueryPlan) run on a
//! [`Session`](crate::Session); this module holds what every plan
//! evaluates:
//!
//! * [`Candidate`] — one sensor × compute × algorithm combination by
//!   interned id, with its characterized throughput already resolved;
//! * [`Outcome`] — the F-1 result of one build: feasibility, safe
//!   velocity, roof, knee, bound, TDP, payload and roofline;
//! * [`evaluate_parts`] — one set of parts on one airframe, the serial
//!   per-candidate reference. The tier-1 executor of [`crate::shard`]
//!   runs the same two halves, `pair_stage` and `algo_stage`, with the
//!   pair stage hoisted out of its inner loop.
//!
//! Model errors propagate as [`SkylineError`] instead of panicking; an
//! un-liftable payload is an infeasible outcome, not an error.

use f1_components::{Airframe, AlgorithmId, ComputeId, ComputePlatform, Sensor, SensorId};
use f1_model::analysis::DesignAssessment;
use f1_model::heatsink::HeatsinkModel;
use f1_model::pipeline::StageRates;
use f1_model::roofline::{Bound, Roofline, Saturation};
use f1_model::safety::SafetyModel;
use f1_units::{Grams, Hertz, MetersPerSecond, Watts};

use crate::SkylineError;

/// One sensor × compute × algorithm combination, by interned id, with its
/// characterized throughput already resolved. `Copy` — the evaluation
/// loop moves these around without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The sensor.
    pub sensor: SensorId,
    /// The compute platform.
    pub compute: ComputeId,
    /// The autonomy algorithm.
    pub algorithm: AlgorithmId,
    /// Characterized throughput of the algorithm on the platform.
    pub throughput: Hertz,
}

/// The F-1 outcome of evaluating one set of parts on an airframe,
/// independent of how the parts were chosen.
///
/// `feasible` is the authoritative flag: the kernel produces `Some` for
/// `bound`/`compute_assessment`/`roofline` and non-zero
/// `velocity`/`roof`/`knee` exactly when `feasible` is true. The struct
/// stays flat-and-`Copy` for the hot loop rather than encoding that as
/// an enum; don't hand-construct inconsistent values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Whether the build can hover at all.
    pub feasible: bool,
    /// Achieved safe velocity (zero when infeasible).
    pub velocity: MetersPerSecond,
    /// The physics roof (zero when infeasible).
    pub roof: MetersPerSecond,
    /// The roofline knee rate (zero when infeasible).
    pub knee: Hertz,
    /// Bound classification (`None` when infeasible).
    pub bound: Option<Bound>,
    /// Combined TDP of the onboard compute (Pareto objective ↓).
    pub total_tdp: Watts,
    /// Total payload mass including the TDP-sized heatsink (objective ↓).
    pub payload: Grams,
    /// Compute stage vs. knee assessment (`None` when infeasible).
    pub compute_assessment: Option<DesignAssessment>,
    /// The roofline, for charting (`None` when infeasible).
    pub roofline: Option<Roofline>,
}

impl Outcome {
    fn infeasible(total_tdp: Watts, payload: Grams) -> Self {
        Self {
            feasible: false,
            velocity: MetersPerSecond::ZERO,
            roof: MetersPerSecond::ZERO,
            knee: Hertz::ZERO,
            bound: None,
            total_tdp,
            payload,
            compute_assessment: None,
            roofline: None,
        }
    }
}

/// Evaluates one set of parts on an airframe, with extra payload mass
/// riding along (a mission battery, cargo, or a
/// [`Knob::PayloadDelta`](crate::query::Knob::PayloadDelta) sweep value),
/// under the paper-calibrated heatsink model and the default knee
/// saturation — exactly what a [`Session`](crate::Session) evaluates.
/// The parts need not come from a catalog: pass a what-if variant such
/// as a TDP-scaled platform.
///
/// The **extra** contribution is floored at zero as defense-in-depth
/// for direct callers: a negative value contributes nothing rather than
/// erasing platform, heatsink or sensor mass and evaluating a physically
/// impossible build. (Plans reject negative payload deltas outright.)
///
/// This intentionally mirrors the single-compute, no-battery slice of
/// [`UavSystem`](crate::UavSystem)'s payload/safety composition without
/// allocating a system; the `engine_matches_uav_system_analysis` test
/// pins the two paths together over the whole catalog — change them in
/// lockstep.
///
/// # Errors
///
/// Propagates model-domain errors as [`SkylineError::Model`]. An
/// over-heavy payload is **not** an error: it yields an infeasible
/// [`Outcome`].
pub fn evaluate_parts(
    airframe: &Airframe,
    sensor: &Sensor,
    platform: &ComputePlatform,
    throughput: Hertz,
    extra_payload: Grams,
) -> Result<Outcome, SkylineError> {
    let heatsink = HeatsinkModel::paper_calibrated();
    let pair = pair_stage(&heatsink, airframe, sensor, platform, extra_payload)?;
    algo_stage(&pair, airframe, sensor, throughput)
}

/// The algorithm-independent half of [`evaluate_parts`]: everything
/// that depends only on (airframe, sensor, compute platform, extra
/// payload) — payload mass, loaded dynamics, the safety model and the
/// roofline. The tier-1 executor of [`crate::shard`] hoists this out of
/// its inner loop, computing it once per (sensor, compute)
/// pair instead of once per candidate; [`algo_stage`] finishes the job
/// per algorithm. Splitting here cannot change bits: the composition is
/// the literal statement sequence of the original fused kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PairStage {
    /// The payload is too heavy to hover: every algorithm on this pair
    /// yields the same infeasible outcome.
    Infeasible {
        /// Combined compute TDP, carried into the infeasible outcome.
        total_tdp: Watts,
        /// Total payload mass, carried into the infeasible outcome.
        payload: Grams,
    },
    /// The build hovers: the roofline every algorithm on this pair
    /// shares.
    Ready {
        /// Combined compute TDP.
        total_tdp: Watts,
        /// Total payload mass.
        payload: Grams,
        /// The shared safety roofline.
        roofline: Roofline,
    },
}

/// Computes the algorithm-independent [`PairStage`] of the evaluation
/// kernel, sizing the heatsink with `heatsink` (always the
/// paper-calibrated model; callers build it once rather than per pair)
/// and the knee at [`Saturation::DEFAULT`]. See [`evaluate_parts`] for
/// the contract; the statement sequence is byte-for-byte the prefix of
/// the original fused kernel.
///
/// # Errors
///
/// Propagates model-domain errors as [`SkylineError::Model`]; an
/// over-heavy payload is the `Infeasible` variant, not an error.
pub(crate) fn pair_stage(
    heatsink: &HeatsinkModel,
    airframe: &Airframe,
    sensor: &Sensor,
    platform: &ComputePlatform,
    extra_payload: Grams,
) -> Result<PairStage, SkylineError> {
    let total_tdp = platform.tdp();
    let payload = Grams::new(
        platform.fielded_mass().get()
            + heatsink.mass_for(total_tdp).get()
            + sensor.mass().get()
            + extra_payload.get().max(0.0),
    );
    let dynamics = airframe.loaded_dynamics(payload)?;
    let Ok(a_max) = dynamics.a_max() else {
        return Ok(PairStage::Infeasible { total_tdp, payload });
    };
    let safety = SafetyModel::new(a_max, sensor.range())?;
    let roofline = Roofline::with_saturation(safety, Saturation::DEFAULT);
    Ok(PairStage::Ready {
        total_tdp,
        payload,
        roofline,
    })
}

/// Finishes the evaluation kernel for one algorithm on a computed
/// [`PairStage`]: stage rates, roofline classification and the design
/// assessment. The statement sequence is byte-for-byte the suffix of
/// the original fused kernel, so `pair_stage` + `algo_stage` is
/// bit-identical to [`evaluate_parts`].
///
/// # Errors
///
/// Propagates [`StageRates`] domain errors as [`SkylineError::Model`].
pub(crate) fn algo_stage(
    pair: &PairStage,
    airframe: &Airframe,
    sensor: &Sensor,
    throughput: Hertz,
) -> Result<Outcome, SkylineError> {
    match pair {
        PairStage::Infeasible { total_tdp, payload } => {
            Ok(Outcome::infeasible(*total_tdp, *payload))
        }
        PairStage::Ready {
            total_tdp,
            payload,
            roofline,
        } => {
            let rates = StageRates::new(sensor.frame_rate(), throughput, airframe.control_rate())?;
            let bound = roofline.classify(&rates);
            Ok(Outcome {
                feasible: true,
                velocity: bound.velocity,
                roof: bound.roof,
                knee: bound.knee.rate,
                bound: Some(bound.bound),
                total_tdp: *total_tdp,
                payload: *payload,
                compute_assessment: Some(DesignAssessment::of(roofline, rates.compute())),
                roofline: Some(*roofline),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::frontier::naive_pareto_min;
    use crate::plan::QueryPlan;
    use crate::session::{ResultSet, Session};
    use crate::system::UavSystem;
    use f1_components::{names, Catalog};

    /// The default 3-objective plan (velocity ↑, TDP ↓, payload ↓) over
    /// one paper airframe, or every airframe for `None`, run on a fresh
    /// session.
    fn explore(catalog: &Arc<Catalog>, airframe: Option<&str>) -> Arc<ResultSet> {
        let mut builder = QueryPlan::builder();
        if let Some(name) = airframe {
            builder = builder.airframes(&[catalog.airframe_id(name).unwrap()]);
        }
        Session::new(Arc::clone(catalog))
            .run(&builder.build().unwrap())
            .unwrap()
    }

    /// `a` dominates `b` when it is at least as good on every objective
    /// (velocity ↑, TDP ↓, payload ↓) and strictly better on one.
    fn dominates(a: &Outcome, b: &Outcome) -> bool {
        a.velocity >= b.velocity
            && a.total_tdp <= b.total_tdp
            && a.payload <= b.payload
            && (a.velocity > b.velocity || a.total_tdp < b.total_tdp || a.payload < b.payload)
    }

    #[test]
    fn explores_pelican_and_ranks() {
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, Some(names::ASCTEC_PELICAN));
        assert!(!result.is_empty());
        // Ranked feasible first, then descending by velocity.
        let ranked = result.ranked();
        let feasible = ranked
            .iter()
            .take_while(|&&i| result.point(i).outcome.feasible)
            .count();
        for w in ranked[..feasible].windows(2) {
            assert!(result.point(w[0]).outcome.velocity >= result.point(w[1]).outcome.velocity);
        }
        assert!(ranked[feasible..]
            .iter()
            .all(|&i| !result.point(i).outcome.feasible));
        // Pelican can lift everything in the catalog.
        let best = result.best().unwrap();
        assert!(best.outcome.velocity.get() > 0.0);
    }

    #[test]
    fn best_pelican_build_uses_a_light_fast_combo() {
        // The winner should be physics-bound (fast algorithm) and use a
        // lightweight platform; heavyweights like SPA-on-TX2 must rank low.
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, Some(names::ASCTEC_PELICAN));
        let best = result.best().unwrap();
        assert_eq!(best.outcome.bound, Some(Bound::Physics));
        let worst_feasible = result
            .ranked()
            .into_iter()
            .map(|i| result.point(i))
            .rfind(|p| p.outcome.feasible)
            .unwrap();
        assert!(best.outcome.velocity > worst_feasible.outcome.velocity);
    }

    #[test]
    fn nano_uav_rejects_heavy_platforms() {
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, Some(names::NANO_UAV));
        let compute = |id| catalog.compute_by_id(id).name();
        // AGX/TX2 builds are infeasible on the nano frame.
        assert!(result.points().iter().any(|p| !p.outcome.feasible
            && [names::AGX, names::TX2].contains(&compute(p.candidate.compute))));
        // But PULP-DroNet flies.
        let best = compute(result.best().unwrap().candidate.compute);
        assert!(
            [names::PULP, names::NAVION, names::NCS].contains(&best),
            "best nano compute was {best}"
        );
    }

    #[test]
    fn uncharacterized_pairs_are_counted_not_evaluated() {
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, Some(names::DJI_SPARK));
        assert!(result.uncharacterized() > 0);
    }

    #[test]
    fn engine_matches_uav_system_analysis() {
        // Every point of the default plan must agree with the full
        // UavSystem::from_catalog + analyze pipeline on EVERY airframe ×
        // candidate of the catalog. This test is the contract that keeps
        // the evaluation kernel and UavSystem's payload/safety
        // composition from drifting apart — extend one, extend the other.
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, None);
        assert_eq!(
            result.len(),
            catalog.airframe_count() * catalog.sensor_count() * catalog.matrix().len()
        );
        for point in result.points() {
            let system = UavSystem::from_catalog(
                &catalog,
                catalog.airframe_by_id(point.airframe).name(),
                catalog.sensor_by_id(point.candidate.sensor).name(),
                catalog.compute_by_id(point.candidate.compute).name(),
                catalog.algorithm_by_id(point.candidate.algorithm).name(),
            )
            .unwrap();
            let outcome = &point.outcome;
            match system.analyze() {
                Ok(analysis) => {
                    assert!(outcome.feasible);
                    assert_eq!(outcome.velocity, analysis.bound.velocity);
                    assert_eq!(outcome.bound, Some(analysis.bound.bound));
                    assert_eq!(outcome.knee, analysis.bound.knee.rate);
                    assert_eq!(outcome.payload, analysis.payload);
                }
                Err(SkylineError::CannotHover { .. }) => assert!(!outcome.feasible),
                Err(other) => panic!("unexpected analysis error: {other}"),
            }
        }
    }

    #[test]
    fn pareto_frontier_invariants() {
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, None);
        let frontier = result.frontier();
        assert!(!frontier.is_empty());

        // 0. The frontier is exactly the all-pairs Pareto scan.
        let (keys, map) = result.minimized_keys();
        let naive: Vec<usize> = naive_pareto_min(3, &keys)
            .into_iter()
            .map(|i| map[i])
            .collect();
        assert_eq!(frontier, naive);

        let all_feasible: Vec<usize> = (0..result.len())
            .filter(|&i| result.point(i).outcome.feasible)
            .collect();
        let outcome = |i: usize| &result.point(i).outcome;
        // 1. Every frontier point is feasible and undominated by ANY
        //    feasible candidate.
        for &point in frontier {
            assert!(outcome(point).feasible);
            for &other in &all_feasible {
                assert!(
                    !dominates(outcome(other), outcome(point)),
                    "frontier point {point} dominated by {other}"
                );
            }
        }
        // 2. Every feasible non-frontier candidate is dominated by some
        //    frontier point (dominance is transitive, so the maximal set
        //    covers everything).
        for &candidate in all_feasible.iter().filter(|i| !frontier.contains(i)) {
            assert!(
                frontier
                    .iter()
                    .any(|&p| dominates(outcome(p), outcome(candidate))),
                "non-frontier candidate {candidate} undominated"
            );
        }
        // 3. The global best-velocity build is always on the frontier.
        let best_velocity = all_feasible
            .iter()
            .map(|&i| outcome(i).velocity.get())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(frontier
            .iter()
            .any(|&p| outcome(p).velocity.get() == best_velocity));
    }

    #[test]
    fn candidate_enumeration_is_characterized_only() {
        let catalog = Arc::new(Catalog::paper());
        let result = explore(&catalog, Some(names::ASCTEC_PELICAN));
        let total = catalog.sensor_count() * catalog.compute_count() * catalog.algorithm_count();
        assert!(result.len() < total);
        assert_eq!(
            result.len(),
            catalog.sensor_count() * catalog.matrix().len()
        );
        assert_eq!(result.len() + result.uncharacterized(), total);
        // Every candidate's throughput matches the string-keyed lookup.
        for c in result.points().iter().map(|p| p.candidate) {
            let compute = catalog.compute_by_id(c.compute).name();
            let algorithm = catalog.algorithm_by_id(c.algorithm).name();
            assert_eq!(
                catalog.throughput(compute, algorithm).unwrap(),
                c.throughput
            );
        }
    }

    #[test]
    fn evaluate_parts_supports_what_if_platforms() {
        // The §VI-A AGX 30 W → 15 W what-if: halving TDP keeps throughput
        // but sheds heatsink mass, raising the roof.
        let catalog = Catalog::paper();
        let spark = catalog.airframe(names::DJI_SPARK).unwrap();
        let sensor = catalog.sensor(names::RGB_60).unwrap();
        let agx = catalog.compute(names::AGX).unwrap();
        let rate = catalog.throughput(names::AGX, names::DRONET).unwrap();
        let stock = evaluate_parts(spark, sensor, agx, rate, Grams::ZERO).unwrap();
        let halved = agx.with_tdp_scaled(0.5).unwrap();
        let optimized = evaluate_parts(spark, sensor, &halved, rate, Grams::ZERO).unwrap();
        assert!(optimized.payload < stock.payload);
        assert!(optimized.roof > stock.roof);
    }
}
