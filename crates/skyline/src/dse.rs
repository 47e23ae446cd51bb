//! Automated design-space exploration over the component catalog.
//!
//! The paper's conclusion: "We believe that the model can be used for
//! automated design space exploration and aid with generating an optimal
//! domain-specific architecture best suited for a UAV." This module does
//! exactly that, as a reusable [`Engine`]:
//!
//! * candidates are enumerated **lazily over interned ids**
//!   ([`f1_components::SensorId`] × [`f1_components::ComputeId`] ×
//!   [`f1_components::AlgorithmId`]) against a dense
//!   [`ThroughputTable`], so the hot loop performs **zero string hashing
//!   and zero per-candidate allocation**;
//! * evaluation runs through the sharded tier-1 executor of
//!   [`crate::shard`] and **propagates** model errors as
//!   [`SkylineError`] instead of panicking (an un-liftable payload is an
//!   infeasible outcome, not an error);
//! * [`Engine::explore_all`] batches every airframe into one parallel
//!   evaluation, and [`Exploration::pareto_frontier`] reports the
//!   non-dominated builds over (safe velocity ↑, total TDP ↓, payload
//!   mass ↓).
//!
//! What to optimize, filter and sweep is expressed through the
//! composable [`Engine::query`] API (see [`crate::query`]): `explore`,
//! [`Engine::explore_airframe`] and [`Engine::explore_all`] are thin
//! compatibility wrappers over a default 3-objective query, and
//! [`Exploration::pareto_frontier`] rides the O(n log n) skyline of
//! [`crate::frontier`].

use f1_components::{
    Airframe, AirframeId, AlgorithmId, Catalog, ComputeId, ComputePlatform, Sensor, SensorId,
    ThroughputTable,
};
use f1_model::analysis::DesignAssessment;
use f1_model::heatsink::HeatsinkModel;
use f1_model::pipeline::StageRates;
use f1_model::roofline::{Bound, Roofline, Saturation};
use f1_model::safety::SafetyModel;
use f1_units::{Grams, Hertz, MetersPerSecond, Watts};

use crate::frontier;
use crate::query::QueryPoint;
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
/// `feasible` is the authoritative flag: the engine produces `Some` for
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

/// One evaluated candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluated {
    /// The candidate that was evaluated.
    pub candidate: Candidate,
    /// Its F-1 outcome.
    pub outcome: Outcome,
}

/// Exploration result for one airframe: candidates ranked best-first
/// (feasible before infeasible, then by safe velocity descending; ties
/// keep enumeration order, so results are deterministic run-over-run).
#[derive(Debug, Clone, PartialEq)]
pub struct AirframeExploration {
    /// The explored airframe.
    pub airframe: AirframeId,
    /// Ranked evaluations (best first).
    pub ranked: Vec<Evaluated>,
    /// Number of sensor × compute × algorithm combinations skipped
    /// because the platform × algorithm pair was never characterized.
    pub uncharacterized: usize,
}

impl AirframeExploration {
    /// The best feasible candidate, if any.
    #[must_use]
    pub fn best(&self) -> Option<&Evaluated> {
        self.ranked.iter().find(|e| e.outcome.feasible)
    }

    /// All feasible candidates, best first.
    pub fn feasible(&self) -> impl Iterator<Item = &Evaluated> {
        self.ranked.iter().filter(|e| e.outcome.feasible)
    }
}

/// A point on the catalog-wide Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint<'e> {
    /// The airframe the build flies on.
    pub airframe: AirframeId,
    /// The evaluated build.
    pub evaluated: &'e Evaluated,
}

/// Result of a full-catalog exploration across every airframe.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// Per-airframe results, in airframe-name order.
    pub airframes: Vec<AirframeExploration>,
}

/// `a` dominates `b` when it is at least as good on every objective
/// (velocity ↑, TDP ↓, payload ↓) and strictly better on one. Kept as
/// the test oracle for the sort-based frontier.
#[cfg(test)]
fn dominates(a: &Outcome, b: &Outcome) -> bool {
    a.velocity >= b.velocity
        && a.total_tdp <= b.total_tdp
        && a.payload <= b.payload
        && (a.velocity > b.velocity || a.total_tdp < b.total_tdp || a.payload < b.payload)
}

impl Exploration {
    /// Total number of evaluated candidates across all airframes.
    #[must_use]
    pub fn evaluated_count(&self) -> usize {
        self.airframes.iter().map(|a| a.ranked.len()).sum()
    }

    /// The feasible builds not dominated by any other feasible build on
    /// (safe velocity ↑, total TDP ↓, payload mass ↓), across all
    /// airframes, in deterministic (airframe, rank) order.
    ///
    /// Candidates with a non-finite objective are excluded up front:
    /// dominance uses IEEE comparisons, under which a NaN point could
    /// never be dominated and would pollute the frontier. (The current
    /// paper catalog cannot produce one; what-if inputs through
    /// [`Engine::evaluate_parts`] could.)
    ///
    /// Computed with the O(n log n) sort-and-sweep skyline of
    /// [`crate::frontier`] — identical membership and order to the old
    /// all-pairs scan (still available as
    /// [`frontier::naive_pareto_min`]), but usable at the 10⁵–10⁶
    /// candidates of [`Catalog::synthesize`]d catalogs.
    #[must_use]
    pub fn pareto_frontier(&self) -> Vec<ParetoPoint<'_>> {
        let finite = |o: &Outcome| {
            o.velocity.get().is_finite()
                && o.total_tdp.get().is_finite()
                && o.payload.get().is_finite()
        };
        let feasible: Vec<ParetoPoint<'_>> = self
            .airframes
            .iter()
            .flat_map(|result| {
                result
                    .feasible()
                    .filter(|e| finite(&e.outcome))
                    .map(|evaluated| ParetoPoint {
                        airframe: result.airframe,
                        evaluated,
                    })
            })
            .collect();
        let mut keys = Vec::with_capacity(feasible.len() * 3);
        for point in &feasible {
            let o = &point.evaluated.outcome;
            keys.extend([-o.velocity.get(), o.total_tdp.get(), o.payload.get()]);
        }
        frontier::pareto_min(3, &keys)
            .into_iter()
            .map(|i| feasible[i])
            .collect()
    }
}

/// A reusable, ID-interned design-space exploration engine over one
/// catalog.
///
/// Construction snapshots the catalog's component ids (in name order, so
/// results are deterministic) and its throughput matrix into a dense
/// [`ThroughputTable`]. Exploration then never touches a string: every
/// lookup is an array index over `Copy` ids.
#[derive(Debug, Clone)]
pub struct Engine<'c> {
    catalog: &'c Catalog,
    airframes: Vec<AirframeId>,
    sensors: Vec<SensorId>,
    computes: Vec<ComputeId>,
    algorithms: Vec<AlgorithmId>,
    table: ThroughputTable,
    heatsink: HeatsinkModel,
    saturation: Saturation,
}

impl<'c> Engine<'c> {
    /// Builds an engine over the catalog with the same heatsink model and
    /// knee saturation [`UavSystem`](crate::UavSystem) uses, so engine
    /// outcomes match `UavSystem::from_catalog(..).analyze()` exactly.
    #[must_use]
    pub fn new(catalog: &'c Catalog) -> Self {
        Self {
            catalog,
            airframes: catalog.airframe_entries().map(|(id, _)| id).collect(),
            sensors: catalog.sensor_entries().map(|(id, _)| id).collect(),
            computes: catalog.compute_entries().map(|(id, _)| id).collect(),
            algorithms: catalog.algorithm_entries().map(|(id, _)| id).collect(),
            table: catalog.throughput_table(),
            heatsink: HeatsinkModel::paper_calibrated(),
            saturation: Saturation::DEFAULT,
        }
    }

    /// Overrides the heatsink model used to convert TDP into payload.
    #[must_use]
    pub fn with_heatsink(mut self, heatsink: HeatsinkModel) -> Self {
        self.heatsink = heatsink;
        self
    }

    /// Overrides the knee saturation used for rooflines.
    #[must_use]
    pub fn with_saturation(mut self, saturation: Saturation) -> Self {
        self.saturation = saturation;
        self
    }

    /// The catalog this engine explores.
    #[must_use]
    pub fn catalog(&self) -> &'c Catalog {
        self.catalog
    }

    /// The snapshotted airframe ids, in name order.
    pub(crate) fn airframe_ids(&self) -> &[AirframeId] {
        &self.airframes
    }

    /// Lazily enumerates every characterized sensor × compute × algorithm
    /// candidate (airframe-independent), in deterministic name order —
    /// sensor-major over
    /// [`ThroughputTable::characterized_pairs`](f1_components::ThroughputTable::characterized_pairs),
    /// the same pair order the tier-1 executor ([`crate::shard`])
    /// decodes candidates from.
    pub fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        self.sensors.iter().flat_map(move |&sensor| {
            self.table
                .characterized_pairs(&self.computes, &self.algorithms)
                .map(move |(compute, algorithm, throughput)| Candidate {
                    sensor,
                    compute,
                    algorithm,
                    throughput,
                })
        })
    }

    /// Evaluates arbitrary parts (used for what-if platforms that are not
    /// in the catalog, e.g. a TDP-scaled variant).
    ///
    /// This intentionally mirrors the single-compute, no-battery slice of
    /// [`UavSystem`](crate::UavSystem)'s payload/safety composition
    /// without allocating a system; the `engine_matches_uav_system_analysis`
    /// test pins the two paths together over the whole catalog — change
    /// them in lockstep.
    ///
    /// # Errors
    ///
    /// Propagates model-domain errors as [`SkylineError::Model`]. An
    /// over-heavy payload is **not** an error: it yields an infeasible
    /// [`Outcome`].
    pub fn evaluate_parts(
        &self,
        airframe: &Airframe,
        sensor: &Sensor,
        platform: &ComputePlatform,
        throughput: Hertz,
    ) -> Result<Outcome, SkylineError> {
        self.evaluate_parts_loaded(airframe, sensor, platform, throughput, Grams::ZERO)
    }

    /// [`evaluate_parts`](Self::evaluate_parts) with extra payload mass
    /// riding along (a mission battery, cargo, or a
    /// [`Knob::PayloadDelta`](crate::query::Knob::PayloadDelta) sweep
    /// value). The **extra** contribution is floored at zero as
    /// defense-in-depth for direct callers: a negative value
    /// contributes nothing rather than erasing platform, heatsink or
    /// sensor mass and evaluating a physically impossible build. (The
    /// query layer rejects negative payload deltas outright.)
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_parts`](Self::evaluate_parts).
    pub fn evaluate_parts_loaded(
        &self,
        airframe: &Airframe,
        sensor: &Sensor,
        platform: &ComputePlatform,
        throughput: Hertz,
        extra_payload: Grams,
    ) -> Result<Outcome, SkylineError> {
        evaluate_parts_with(
            &self.heatsink,
            self.saturation,
            airframe,
            sensor,
            platform,
            throughput,
            extra_payload,
        )
    }

    /// Projects this engine into the tier-1 executor's borrowed
    /// context, so [`Query::run`](crate::query::Query::run) and
    /// [`Session`](crate::session::Session) execute identical code.
    pub(crate) fn pass_context(&self) -> crate::shard::PassContext<'_> {
        crate::shard::PassContext {
            catalog: self.catalog,
            airframes: &self.airframes,
            sensors: &self.sensors,
            computes: &self.computes,
            algorithms: &self.algorithms,
            table: &self.table,
            heatsink: &self.heatsink,
            saturation: self.saturation,
        }
    }

    /// Evaluates one id-interned candidate on an airframe. This is the
    /// hot-loop body: every component resolve is an array index.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate_parts`](Self::evaluate_parts).
    pub fn evaluate(
        &self,
        airframe: AirframeId,
        candidate: Candidate,
    ) -> Result<Evaluated, SkylineError> {
        let outcome = self.evaluate_parts(
            self.catalog.airframe_by_id(airframe),
            self.catalog.sensor_by_id(candidate.sensor),
            self.catalog.compute_by_id(candidate.compute),
            candidate.throughput,
        )?;
        Ok(Evaluated { candidate, outcome })
    }

    /// Resolves catalog names and evaluates that single combination.
    ///
    /// # Errors
    ///
    /// Returns [`SkylineError::Component`] for unknown names or an
    /// uncharacterized platform × algorithm pair, plus the errors of
    /// [`evaluate`](Self::evaluate).
    pub fn evaluate_named(
        &self,
        airframe: &str,
        sensor: &str,
        compute: &str,
        algorithm: &str,
    ) -> Result<Evaluated, SkylineError> {
        let airframe = self.catalog.airframe_id(airframe)?;
        let candidate = Candidate {
            sensor: self.catalog.sensor_id(sensor)?,
            compute: self.catalog.compute_id(compute)?,
            algorithm: self.catalog.algorithm_id(algorithm)?,
            throughput: self.catalog.throughput(compute, algorithm)?,
        };
        self.evaluate(airframe, candidate)
    }

    fn rank(ranked: &mut [Evaluated]) {
        // Stable sort: ties keep deterministic enumeration order.
        ranked.sort_by(|a, b| {
            b.outcome.feasible.cmp(&a.outcome.feasible).then_with(|| {
                b.outcome
                    .velocity
                    .get()
                    .total_cmp(&a.outcome.velocity.get())
            })
        });
    }

    /// Converts one airframe's contiguous slice of default-query points
    /// back into the classic velocity-ranked exploration view.
    fn rank_points(
        airframe: AirframeId,
        points: &[QueryPoint],
        uncharacterized: usize,
    ) -> AirframeExploration {
        let mut ranked: Vec<Evaluated> = points
            .iter()
            .map(|p| Evaluated {
                candidate: p.candidate,
                outcome: p.outcome,
            })
            .collect();
        Self::rank(&mut ranked);
        AirframeExploration {
            airframe,
            ranked,
            uncharacterized,
        }
    }

    /// Exhaustively explores the catalog for one airframe, evaluating
    /// candidates in parallel work-stealing chunks.
    ///
    /// Compatibility wrapper: runs a default 3-objective
    /// [`query`](Self::query) restricted to `airframe` and re-ranks by
    /// safe velocity.
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error ([`SkylineError::Model`]);
    /// infeasible builds are ranked last, not errors.
    pub fn explore_airframe(
        &self,
        airframe: AirframeId,
    ) -> Result<AirframeExploration, SkylineError> {
        let result = self.query().airframes(&[airframe]).run_without_frontier()?;
        Ok(Self::rank_points(
            airframe,
            result.points(),
            result.uncharacterized(),
        ))
    }

    /// Explores **every** airframe in the catalog as one batched parallel
    /// evaluation over the full airframe × sensor × compute × algorithm
    /// cross product.
    ///
    /// Compatibility wrapper over a default 3-objective unconstrained
    /// [`query`](Self::query), whose points come back airframe-major in
    /// this engine's airframe order.
    ///
    /// # Errors
    ///
    /// Same as [`explore_airframe`](Self::explore_airframe).
    pub fn explore_all(&self) -> Result<Exploration, SkylineError> {
        let result = self.query().run_without_frontier()?;
        let per_airframe = if self.airframes.is_empty() {
            0
        } else {
            result.points().len() / self.airframes.len()
        };
        let airframes = self
            .airframes
            .iter()
            .enumerate()
            .map(|(i, &airframe)| {
                Self::rank_points(
                    airframe,
                    &result.points()[i * per_airframe..(i + 1) * per_airframe],
                    result.uncharacterized(),
                )
            })
            .collect();
        Ok(Exploration { airframes })
    }

    /// Renders an id-based exploration into the string-keyed [`DseResult`]
    /// of the original API (allocates names once per outcome, outside the
    /// evaluation loop).
    #[must_use]
    pub fn describe(&self, result: &AirframeExploration) -> DseResult {
        DseResult {
            airframe: self
                .catalog
                .airframe_by_id(result.airframe)
                .name()
                .to_owned(),
            ranked: result
                .ranked
                .iter()
                .map(|e| DseOutcome {
                    sensor: self
                        .catalog
                        .sensor_by_id(e.candidate.sensor)
                        .name()
                        .to_owned(),
                    compute: self
                        .catalog
                        .compute_by_id(e.candidate.compute)
                        .name()
                        .to_owned(),
                    algorithm: self
                        .catalog
                        .algorithm_by_id(e.candidate.algorithm)
                        .name()
                        .to_owned(),
                    velocity: e.outcome.velocity,
                    bound: e.outcome.bound,
                    feasible: e.outcome.feasible,
                })
                .collect(),
            uncharacterized: result.uncharacterized,
            nonfinite: 0,
        }
    }
}

/// The engine-free evaluation core behind [`Engine::evaluate_parts_loaded`]:
/// one set of parts on one airframe, under a heatsink model and knee
/// saturation. The tier-1 executor of [`crate::shard`] runs the same two
/// halves, [`pair_stage`] and [`algo_stage`], with the pair stage hoisted.
///
/// This intentionally mirrors the single-compute, no-battery slice of
/// [`UavSystem`](crate::UavSystem)'s payload/safety composition without
/// allocating a system; the `engine_matches_uav_system_analysis` test
/// pins the two paths together over the whole catalog — change them in
/// lockstep.
fn evaluate_parts_with(
    heatsink: &HeatsinkModel,
    saturation: Saturation,
    airframe: &Airframe,
    sensor: &Sensor,
    platform: &ComputePlatform,
    throughput: Hertz,
    extra_payload: Grams,
) -> Result<Outcome, SkylineError> {
    let pair = pair_stage(
        heatsink,
        saturation,
        airframe,
        sensor,
        platform,
        extra_payload,
    )?;
    algo_stage(&pair, airframe, sensor, throughput)
}

/// The algorithm-independent half of [`evaluate_parts_with`]: everything
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
/// kernel. See [`evaluate_parts_with`] for the contract; the statement
/// sequence is byte-for-byte the prefix of the original fused kernel.
///
/// # Errors
///
/// Propagates model-domain errors as [`SkylineError::Model`]; an
/// over-heavy payload is the `Infeasible` variant, not an error.
pub(crate) fn pair_stage(
    heatsink: &HeatsinkModel,
    saturation: Saturation,
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
    let roofline = Roofline::with_saturation(safety, saturation);
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
/// bit-identical to [`evaluate_parts_with`].
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

/// One evaluated candidate configuration (string-keyed compatibility
/// view; see [`Evaluated`] for the id-interned form).
#[derive(Debug, Clone, PartialEq)]
pub struct DseOutcome {
    /// Sensor name.
    pub sensor: String,
    /// Compute platform name.
    pub compute: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Achieved safe velocity (zero when infeasible).
    pub velocity: MetersPerSecond,
    /// Bound classification (None when infeasible).
    pub bound: Option<Bound>,
    /// Whether the build can hover at all.
    pub feasible: bool,
}

/// Result of a design-space exploration: candidates ranked by velocity,
/// feasible first.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The airframe explored.
    pub airframe: String,
    /// Ranked outcomes (best first).
    pub ranked: Vec<DseOutcome>,
    /// Number of combinations skipped because the platform × algorithm
    /// pair was never characterized.
    pub uncharacterized: usize,
    /// Feasible points of this airframe excluded from frontier
    /// computation because an objective value was non-finite (the
    /// per-airframe reports sum to
    /// [`ResultSet::nonfinite`](crate::ResultSet::nonfinite); always
    /// zero for the classic velocity/TDP/payload exploration, whose
    /// objectives are finite for every valid part).
    pub nonfinite: usize,
}

impl DseResult {
    /// The best feasible candidate, if any.
    #[must_use]
    pub fn best(&self) -> Option<&DseOutcome> {
        self.ranked.iter().find(|o| o.feasible)
    }

    /// All feasible candidates.
    pub fn feasible(&self) -> impl Iterator<Item = &DseOutcome> {
        self.ranked.iter().filter(|o| o.feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::UavSystem;
    use f1_components::names;

    /// Explores one airframe by name and ranks the outcomes — what the
    /// removed string-keyed `explore` wrapper did, spelled through the
    /// id-interned engine.
    fn explore(catalog: &Catalog, airframe: &str) -> Result<DseResult, SkylineError> {
        let engine = Engine::new(catalog);
        let id = catalog.airframe_id(airframe)?;
        let result = engine.explore_airframe(id)?;
        Ok(engine.describe(&result))
    }

    #[test]
    fn explores_pelican_and_ranks() {
        let catalog = Catalog::paper();
        let result = explore(&catalog, names::ASCTEC_PELICAN).unwrap();
        assert!(!result.ranked.is_empty());
        // Ranked descending by velocity among feasible entries.
        let feas: Vec<f64> = result.feasible().map(|o| o.velocity.get()).collect();
        for w in feas.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Pelican can lift everything in the catalog.
        let best = result.best().unwrap();
        assert!(best.velocity.get() > 0.0);
    }

    #[test]
    fn best_pelican_build_uses_a_light_fast_combo() {
        // The winner should be physics-bound (fast algorithm) and use a
        // lightweight platform; heavyweights like SPA-on-TX2 must rank low.
        let catalog = Catalog::paper();
        let result = explore(&catalog, names::ASCTEC_PELICAN).unwrap();
        let best = result.best().unwrap();
        assert_eq!(best.bound, Some(Bound::Physics));
        let worst_feasible = result.feasible().last().unwrap();
        assert!(best.velocity.get() > worst_feasible.velocity.get());
    }

    #[test]
    fn nano_uav_rejects_heavy_platforms() {
        let catalog = Catalog::paper();
        let result = explore(&catalog, names::NANO_UAV).unwrap();
        // AGX/TX2 builds are infeasible on the nano frame.
        assert!(result
            .ranked
            .iter()
            .any(|o| !o.feasible && (o.compute == names::AGX || o.compute == names::TX2)));
        // But PULP-DroNet flies.
        let best = result.best().unwrap();
        assert!(
            best.compute == names::PULP
                || best.compute == names::NAVION
                || best.compute == names::NCS,
            "best nano compute was {}",
            best.compute
        );
    }

    #[test]
    fn uncharacterized_pairs_are_counted_not_evaluated() {
        let catalog = Catalog::paper();
        let result = explore(&catalog, names::DJI_SPARK).unwrap();
        assert!(result.uncharacterized > 0);
    }

    #[test]
    fn unknown_airframe_is_an_error() {
        let catalog = Catalog::paper();
        assert!(explore(&catalog, "Ingenuity").is_err());
    }

    #[test]
    fn engine_matches_uav_system_analysis() {
        // The id-interned fast path must agree with the full
        // UavSystem::from_catalog + analyze pipeline on EVERY airframe ×
        // candidate of the catalog. This test is the contract that keeps
        // Engine::evaluate_parts and UavSystem's payload/safety
        // composition from drifting apart — extend one, extend the other.
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        for (airframe_id, airframe) in catalog.airframe_entries() {
            for candidate in engine.candidates() {
                let fast = engine.evaluate(airframe_id, candidate).unwrap();
                let system = UavSystem::from_catalog(
                    &catalog,
                    airframe.name(),
                    catalog.sensor_by_id(candidate.sensor).name(),
                    catalog.compute_by_id(candidate.compute).name(),
                    catalog.algorithm_by_id(candidate.algorithm).name(),
                )
                .unwrap();
                match system.analyze() {
                    Ok(analysis) => {
                        assert!(fast.outcome.feasible);
                        assert_eq!(fast.outcome.velocity, analysis.bound.velocity);
                        assert_eq!(fast.outcome.bound, Some(analysis.bound.bound));
                        assert_eq!(fast.outcome.knee, analysis.bound.knee.rate);
                        assert_eq!(fast.outcome.payload, analysis.payload);
                    }
                    Err(SkylineError::CannotHover { .. }) => {
                        assert!(!fast.outcome.feasible);
                    }
                    Err(other) => panic!("unexpected analysis error: {other}"),
                }
            }
        }
    }

    #[test]
    fn explore_all_covers_every_airframe_and_is_deterministic() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let first = engine.explore_all().unwrap();
        let second = engine.explore_all().unwrap();
        assert_eq!(first, second, "explore_all must be deterministic");
        assert_eq!(first.airframes.len(), catalog.airframe_count());
        // Airframes come back in name order.
        let names_in_order: Vec<&str> = first
            .airframes
            .iter()
            .map(|a| catalog.airframe_by_id(a.airframe).name())
            .collect();
        let mut sorted = names_in_order.clone();
        sorted.sort_unstable();
        assert_eq!(names_in_order, sorted);
        // Each per-airframe slice matches a standalone exploration.
        for per_airframe in &first.airframes {
            let standalone = engine.explore_airframe(per_airframe.airframe).unwrap();
            assert_eq!(per_airframe, &standalone);
        }
    }

    #[test]
    fn explore_all_matches_string_compat_wrapper() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let all = engine.explore_all().unwrap();
        for per_airframe in &all.airframes {
            let name = catalog.airframe_by_id(per_airframe.airframe).name();
            let compat = explore(&catalog, name).unwrap();
            assert_eq!(engine.describe(per_airframe), compat);
        }
    }

    #[test]
    fn pareto_frontier_invariants() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let exploration = engine.explore_all().unwrap();
        let frontier = exploration.pareto_frontier();
        assert!(!frontier.is_empty());

        let all_feasible: Vec<&Evaluated> = exploration
            .airframes
            .iter()
            .flat_map(|a| a.feasible())
            .collect();
        // 1. Every frontier point is feasible and undominated by ANY
        //    feasible candidate.
        for point in &frontier {
            assert!(point.evaluated.outcome.feasible);
            for other in &all_feasible {
                assert!(
                    !dominates(&other.outcome, &point.evaluated.outcome),
                    "frontier point dominated by {other:?}"
                );
            }
        }
        // 2. Every feasible non-frontier candidate is dominated by some
        //    frontier point (dominance is transitive, so the maximal set
        //    covers everything).
        for candidate in &all_feasible {
            let on_frontier = frontier
                .iter()
                .any(|p| std::ptr::eq(p.evaluated, *candidate));
            if !on_frontier {
                assert!(
                    frontier
                        .iter()
                        .any(|p| dominates(&p.evaluated.outcome, &candidate.outcome)),
                    "non-frontier candidate undominated: {candidate:?}"
                );
            }
        }
        // 3. The global best-velocity build is always on the frontier.
        let best_velocity = all_feasible
            .iter()
            .map(|e| e.outcome.velocity.get())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(frontier
            .iter()
            .any(|p| p.evaluated.outcome.velocity.get() == best_velocity));
    }

    #[test]
    fn candidate_enumeration_is_lazy_and_characterized_only() {
        let catalog = Catalog::paper();
        let engine = Engine::new(&catalog);
        let total = catalog.sensor_count() * catalog.compute_count() * catalog.algorithm_count();
        let candidates: Vec<Candidate> = engine.candidates().collect();
        assert!(candidates.len() < total);
        assert_eq!(
            candidates.len(),
            catalog.sensor_count() * catalog.matrix().len()
        );
        // Every candidate's throughput matches the string-keyed lookup.
        for c in &candidates {
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
        let engine = Engine::new(&catalog);
        let spark = catalog.airframe(names::DJI_SPARK).unwrap();
        let sensor = catalog.sensor(names::RGB_60).unwrap();
        let agx = catalog.compute(names::AGX).unwrap();
        let rate = catalog.throughput(names::AGX, names::DRONET).unwrap();
        let stock = engine.evaluate_parts(spark, sensor, agx, rate).unwrap();
        let halved = agx.with_tdp_scaled(0.5).unwrap();
        let optimized = engine.evaluate_parts(spark, sensor, &halved, rate).unwrap();
        assert!(optimized.payload < stock.payload);
        assert!(optimized.roof > stock.roof);
    }
}
