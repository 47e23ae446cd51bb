//! The tier-2 evaluation hook: simulation-backed objectives on tier-1
//! survivors.
//!
//! A [`QueryPlan`] may declare [`SimObjective`]s
//! ([`PlanBuilder::sim_objective`](crate::plan::PlanBuilder::sim_objective)).
//! The analytic tier-1 pass runs unchanged; afterwards the
//! session hands the result's **survivor set** — Pareto frontier ∪
//! ranked top-k, capped by the plan's
//! [`survivor_budget`](crate::plan::QueryPlan::survivor_budget) — to the
//! installed [`Tier2Evaluator`], which simulates each survivor and
//! returns a [`SimBlock`]: one value row per survivor per sim objective
//! plus a [`VerificationReport`] comparing analytic and simulated
//! rankings (the paper's fig. 7 validation, generalized).
//!
//! The hook lives in `f1-skyline` so the session can invoke it without
//! depending on the simulators; the `f1-sim` crate implements it on top
//! of `f1-flightsim` and `f1-pipeline` and a serving tier installs it
//! with [`Session::with_tier2`](crate::Session::with_tier2). The
//! [`SimBlock`] is stored **inside** the [`ResultSet`] and therefore
//! memoized, spilled and repaired with it — cache hits, batch shapes and
//! delta repair all observe bit-identical tier-2 values by construction.

use std::sync::Arc;

use f1_components::Catalog;

use crate::plan::{QueryPlan, SimObjective};
use crate::query::Objective;
use crate::session::ResultSet;

/// One survivor's simulated objective values.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Stable candidate identity: a seed-grade hash of the survivor's
    /// catalog part ids and knob-setting position, independent of
    /// enumeration order, batch shape and storage mode — what keeps
    /// trial seeds (and therefore results) bit-identical across cache
    /// hits, streaming and delta repair.
    pub candidate_id: u64,
    /// The survivor's global tier-1 point index in the parent
    /// [`ResultSet`] (the same index space as
    /// [`ResultSet::frontier`]/[`ResultSet::top_k`]).
    pub index: usize,
    /// Simulated values, aligned with [`SimBlock::objectives`].
    pub values: Vec<f64>,
}

/// The tier-2 result attached to a [`ResultSet`]: simulated columns for
/// the survivor set plus the analytic-vs-simulated verification report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBlock {
    /// The plan's sim objectives, in declaration order.
    pub objectives: Vec<SimObjective>,
    /// One row per simulated survivor, ascending by `candidate_id`.
    pub rows: Vec<SimRow>,
    /// Rank-agreement verification per sim objective.
    pub report: VerificationReport,
}

impl SimBlock {
    /// The row simulated for `candidate_id`, if any.
    #[must_use]
    pub fn row_for(&self, candidate_id: u64) -> Option<&SimRow> {
        self.rows
            .binary_search_by_key(&candidate_id, |r| r.candidate_id)
            .ok()
            .map(|i| &self.rows[i])
    }
}

/// Rank agreement between one sim objective and its analytic
/// counterpart over the survivor set — the fig. 7 question ("does the
/// cheap model order designs the way the simulator does?") asked of
/// every tier-2 objective.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationEntry {
    /// The simulated objective.
    pub objective: SimObjective,
    /// The analytic objective it was ranked against.
    pub analytic: Objective,
    /// Signed Kendall rank correlation (tau-b, tie-adjusted) between
    /// the analytic and simulated orderings, in `[-1, 1]`; `0` when
    /// fewer than two survivors have comparable values.
    pub tau: f64,
    /// `|tau|` — direction-agnostic agreement (a p99-latency objective
    /// legitimately anti-correlates with a maximize-velocity analytic).
    pub agreement: f64,
    /// Candidate ids of the worst rank disagreements (largest rank
    /// displacement between the two orderings), worst first, at most a
    /// handful — the designs a human should re-examine.
    pub outliers: Vec<u64>,
}

/// Per-objective [`VerificationEntry`]s, aligned with the plan's sim
/// objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// One entry per sim objective, in declaration order.
    pub entries: Vec<VerificationEntry>,
}

/// Everything a [`Tier2Evaluator`] sees for one evaluation: the pinned
/// catalog, the plan, the finished tier-1 result, and — on delta repair
/// — the prior result whose sim rows may be reused for survivors whose
/// tier-1 row did not change.
#[derive(Debug)]
pub struct Tier2Context<'a> {
    /// The catalog the tier-1 pass executed against.
    pub catalog: &'a Catalog,
    /// The plan (sim objectives, survivor budget, canonical key — the
    /// base of every trial seed).
    pub plan: &'a QueryPlan,
    /// The finished tier-1 result the survivor set is drawn from.
    pub result: &'a ResultSet,
    /// On [`Session::refresh`](crate::Session::refresh) repair: the
    /// prior cached result (with its [`SimBlock`]); `None` on a cold
    /// run. Evaluators may reuse a prior row only when the survivor's
    /// full tier-1 point is unchanged — reuse must be observationally
    /// bit-identical to re-simulating.
    pub prior: Option<&'a ResultSet>,
}

/// What one tier-2 evaluation cost, for the session's [`SimStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimUsage {
    /// Simulation trials actually run (robustness trials + pipeline
    /// runs; reused rows contribute nothing).
    pub trials: u64,
    /// Survivor rows served from the prior result without simulating.
    pub reused_rows: u64,
}

/// A finished tier-2 evaluation: the block to attach plus its cost.
#[derive(Debug)]
pub struct Tier2Evaluation {
    /// The sim columns + verification report to store in the result.
    pub block: SimBlock,
    /// Trials run / rows reused, for accounting only.
    pub usage: SimUsage,
}

/// The tier-2 evaluation hook a [`Session`](crate::Session) invokes for
/// plans with sim objectives (see [`Session::with_tier2`](crate::Session::with_tier2)).
///
/// Implementations MUST be deterministic functions of
/// `(catalog, plan, tier-1 result)`: the returned block is memoized
/// inside the [`ResultSet`] and compared bit-for-bit across cache hits,
/// batch shapes, streamed mode and delta repair.
pub trait Tier2Evaluator: Send + Sync + std::fmt::Debug {
    /// Simulates the survivor set of `ctx.result` and returns the block
    /// to attach.
    ///
    /// # Errors
    ///
    /// [`SkylineError`](crate::SkylineError) when a survivor cannot be
    /// mapped onto the simulators (e.g. an invalid derived dynamics
    /// model); infeasible survivors should instead degrade to sentinel
    /// values (robustness `0`, latency `+∞`) so one broken design never
    /// aborts a whole query.
    fn evaluate(&self, ctx: &Tier2Context<'_>) -> Result<Tier2Evaluation, crate::SkylineError>;
}

/// A `Send + Sync` handle to an installed evaluator.
pub type SharedTier2 = Arc<dyn Tier2Evaluator>;

/// Tier-2 accounting of a [`Session`](crate::Session): how many
/// evaluations ran, how many survivors they simulated, the trials paid
/// and reused, and wall-clock spent — the `"sim"` block of a serving
/// tier's `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Tier-2 evaluations invoked (one per non-reused plan execution
    /// with sim objectives).
    pub evaluations: u64,
    /// Survivor rows across all evaluations (simulated + reused).
    pub survivors: u64,
    /// Simulation trials actually run.
    pub trials: u64,
    /// Survivor rows reused from prior results during delta repair.
    pub reused_rows: u64,
    /// Total wall-clock milliseconds spent in tier-2 evaluation.
    pub millis: u64,
}
