//! The tier-1 executor: every plan a [`Session`](crate::Session) runs is
//! evaluated here.
//!
//! `run_plans` groups a batch by evaluation signature (subspace, knob
//! settings, battery) and runs each group, in chunks of at most 64
//! plans, as **one sharded pass with one lane per plan**:
//!
//! * **Lazy enumeration.** A job is an airframe × knob setting × sensor ×
//!   characterized (compute, algorithm) pair coordinate decoded from a
//!   flat index (airframe-major, then setting, then sensor over the
//!   [`ThroughputTable::characterized_pairs`](f1_components::ThroughputTable::characterized_pairs)
//!   order); the cross product is never held in memory. Shards are
//!   contiguous runs of at most [`SHARD_SIZE`] jobs and the unit of
//!   parallelism — a one-shard space runs inline, spawning no threads.
//! * **Evaluate once per candidate.** The algorithm-independent
//!   `pair_stage` and the mission power model are computed once per
//!   (sensor, compute) pair. Each lane's constraint verdict is one bit
//!   of a `u64` mask, and a row's objective values are filled once, for
//!   the union of the objectives its keeping lanes need, into one
//!   struct-of-arrays value slab every lane reads. A lane whose mission
//!   profile differs from the pass's shared profile reads its own
//!   power-dependent columns.
//! * **Per-lane collectors.** The plan's [`KeepPoints`] resolution picks
//!   the collector. *Keep-all* lanes keep every kept row in enumeration
//!   order, and all of them read one point store shared by the pass.
//!   *Frontier-only* lanes keep the shard-local Pareto frontier plus a
//!   bounded top-[`STREAM_TOP_K`], so their memory is O(shard + frontier
//!   + k), not O(candidates).
//! * **Shared skylines.** Lanes with one objective set and only
//!   downward-closed constraints (a cap on a minimized objective, a
//!   floor on a maximized one, feasibility) share one shard-local
//!   skyline over their union domain and intersect it with their own
//!   kept rows; every other lane intersects a skyline of its own.
//!
//! Per-shard memory does not grow with the lane count: the slab holds
//! one value row and one mask per kept job, the per-lane selection
//! buffers are reused from one lane to the next, and a frontier-only
//! lane's top-k never buffers more than 2K candidates. After the
//! reduction only the slab rows some survivor references are kept.
//!
//! Both collectors share one **exact** serial merge, run once per share
//! rather than once per lane:
//!
//! * frontier(S ∪ D) = frontier(frontier(S) ∪ frontier(D)), so one
//!   [`frontier::pareto_min`] over a share's shard skylines, concatenated
//!   in shard order, is the share's global skyline. A lane's global
//!   frontier is its local frontier rows on that skyline — the
//!   downward-closed identity again, frontier(kept) = frontier(⋃ members'
//!   kept) ∩ kept; a lane of its own share is unchanged by it. A
//!   one-shard pass's local skylines are already global, so it runs no
//!   second skyline. Global kept indices are a prefix sum over the
//!   per-shard kept counts, and survivors are emitted ascending.
//! * The rank order (feasible first, then the primary objective, ties by
//!   enumeration index) restricted to one shard is the shard's local
//!   order, so the global top-K is the best K of the per-shard top-Ks.
//! * A frontier-only lane re-derives the points it stores; each one is
//!   derived once per pass however many lanes store it.
//!
//! `tests/stream_properties.rs` checks both collectors against a serial
//! per-candidate oracle; `tests/stream_scale.rs` pins the 10⁷ target.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use f1_components::{
    Airframe, AirframeId, AlgorithmId, Catalog, ComponentError, ComputeId, ComputePlatform, Sensor,
    SensorId, ThroughputTable,
};
use f1_model::heatsink::HeatsinkModel;
use f1_model::mission::{hover_endurance, PowerModel};
use f1_units::{Grams, Hertz, Meters};

use crate::dse::{algo_stage, pair_stage, Candidate, Outcome, PairStage};
use crate::frontier;
use crate::plan::{KeepPoints, QueryPlan};
use crate::query::{
    Constraint, Knob, KnobSetting, MissionProfile, Objective, QueryPoint, MAX_OBJECTIVES,
};
use crate::session::{PointRef, ResultSet, StreamedMeta};
use crate::sweep::parallel_map_indices;
use crate::SkylineError;

/// Maximum jobs per shard. 65536 four-objective rows are ~3 MB of slab
/// — a small, bounded working set, while big enough that intra-shard
/// domination (the window prefilter plus one exact local skyline) culls
/// most points before the cross-shard merge: smaller shards shift work
/// into the merge's concatenated-frontier skyline, which measures slower
/// at 10⁷ candidates. Still yields ~150 shards per 10⁷ for work
/// stealing.
pub const SHARD_SIZE: usize = 65536;

/// How many best-ranked points a streamed result retains. The stored
/// prefix equals `ranked()[..STREAM_TOP_K]` of the keep-all collector
/// exactly (including tie order).
pub const STREAM_TOP_K: usize = 64;

/// How many recent prefilter survivors each eligible row is probed
/// against before the exact local skyline. Purely a constant-factor
/// dial: any value yields identical results (the prefilter only drops
/// rows a retained row dominates).
const PREFILTER_WINDOW: usize = 16;

/// Job count above which a [`KeepPoints::Auto`] plan streams instead of
/// materializing. Below this the full point store costs a few hundred
/// MB at most and callers keep random access; above it, materializing
/// is what makes 10⁷ queries impossible, so streaming wins.
pub const STREAM_AUTO_THRESHOLD: usize = 2_000_000;

/// How many plans share one pass at most: a lane's verdict is one bit of
/// a `u64` row mask.
const MAX_LANES: usize = 64;

/// Everything a pass needs from one catalog epoch, borrowed from the
/// [`Session`](crate::Session)'s per-epoch state: the catalog, its
/// active ids in name order and its dense throughput table.
pub(crate) struct PassContext<'a> {
    pub catalog: &'a Catalog,
    pub airframes: &'a [AirframeId],
    pub sensors: &'a [SensorId],
    pub computes: &'a [ComputeId],
    pub algorithms: &'a [AlgorithmId],
    pub table: &'a ThroughputTable,
}

/// Pre-built component variants for one knob setting, indexed by
/// position in the pass's resolved sensor/compute/airframe lists.
struct VariantParts {
    sensors: Vec<Sensor>,
    computes: Vec<ComputePlatform>,
    /// `Some` only when the setting scales an airframe knob (drone
    /// weight / rotor pull); `None` shares the stock catalog airframes.
    airframes: Option<Vec<Airframe>>,
    extra_payload: Grams,
}

/// One characterized (compute, algorithm) pair of the resolved
/// subspace, with the compute's position for variant lookup.
struct PairEntry {
    compute_pos: u32,
    compute: ComputeId,
    algorithm: AlgorithmId,
    throughput: Hertz,
}

/// The resolved (active-filtered) component subspace of a plan plus its
/// characterized pair list — everything needed to decode a flat job
/// index into parts without materializing candidates.
struct Space<'a> {
    airframes: Cow<'a, [AirframeId]>,
    sensors: Cow<'a, [SensorId]>,
    computes: Cow<'a, [ComputeId]>,
    algorithms: Cow<'a, [AlgorithmId]>,
    pairs: Vec<PairEntry>,
}

impl Space<'_> {
    /// Candidates per (airframe, setting) block.
    fn cand_count(&self) -> usize {
        self.sensors.len() * self.pairs.len()
    }

    /// Sensor × compute × algorithm combinations skipped because the
    /// pair was never characterized — counted once per subspace, not per
    /// airframe or setting.
    fn uncharacterized(&self) -> usize {
        self.sensors.len() * self.computes.len() * self.algorithms.len() - self.cand_count()
    }
}

/// Resolves a plan's subspace (explicit plan lists or the context
/// defaults, retired components filtered — so cold runs and incremental
/// repairs agree on the enumeration at every epoch), then snapshots the
/// characterized pair list in compute-major order.
fn resolve_space<'a>(ctx: &PassContext<'a>, plan: &'a QueryPlan) -> Space<'a> {
    let catalog = ctx.catalog;
    let airframes = active_ids(plan.airframes().unwrap_or(ctx.airframes), |id| {
        catalog.airframe_is_active(id)
    });
    let sensors = active_ids(plan.sensors().unwrap_or(ctx.sensors), |id| {
        catalog.sensor_is_active(id)
    });
    let computes = active_ids(plan.computes().unwrap_or(ctx.computes), |id| {
        catalog.compute_is_active(id)
    });
    let algorithms = active_ids(plan.algorithms().unwrap_or(ctx.algorithms), |id| {
        catalog.algorithm_is_active(id)
    });
    let mut pairs = Vec::new();
    for (compute_pos, &compute) in computes.iter().enumerate() {
        for (_, algorithm, throughput) in ctx
            .table
            .characterized_pairs(std::slice::from_ref(&compute), &algorithms)
        {
            pairs.push(PairEntry {
                compute_pos: compute_pos as u32,
                compute,
                algorithm,
                throughput,
            });
        }
    }
    Space {
        airframes,
        sensors,
        computes,
        algorithms,
        pairs,
    }
}

/// Filters a component-id list to the catalog's active (non-retired)
/// ids, borrowing when nothing is filtered — which is always the case
/// for the session/engine default lists (built from active entries) and
/// for explicit plan subspaces on an unretired catalog.
pub(crate) fn active_ids<T: Copy>(list: &[T], is_active: impl Fn(T) -> bool) -> Cow<'_, [T]> {
    if list.iter().all(|&id| is_active(id)) {
        Cow::Borrowed(list)
    } else {
        Cow::Owned(list.iter().copied().filter(|&id| is_active(id)).collect())
    }
}

/// Validates that every id a plan carries is in range for the catalog.
fn validate_plan_ids(ctx: &PassContext<'_>, plan: &QueryPlan) -> Result<(), SkylineError> {
    fn indices<T: Copy>(ids: Option<&[T]>, index: impl Fn(T) -> usize) -> Vec<usize> {
        ids.unwrap_or_default()
            .iter()
            .map(|&id| index(id))
            .collect()
    }
    let catalog = ctx.catalog;
    let families = [
        (
            "airframe",
            indices(plan.airframes(), AirframeId::index),
            catalog.airframe_count(),
        ),
        (
            "sensor",
            indices(plan.sensors(), SensorId::index),
            catalog.sensor_count(),
        ),
        (
            "compute",
            indices(plan.computes(), ComputeId::index),
            catalog.compute_count(),
        ),
        (
            "algorithm",
            indices(plan.algorithms(), AlgorithmId::index),
            catalog.algorithm_count(),
        ),
        (
            "battery",
            plan.battery().map(|id| id.index()).into_iter().collect(),
            catalog.battery_count(),
        ),
    ];
    for (family, ids, count) in families {
        if let Some(&index) = ids.iter().find(|&&index| index >= count) {
            return Err(SkylineError::PlanCatalog {
                family,
                index,
                count,
            });
        }
    }
    Ok(())
}

/// Two plans can share one evaluation pass when everything that shapes
/// the evaluated *outcomes* matches: the candidate subspace, the
/// expanded knob settings and the mounted battery (its mass rides on
/// every build). Objectives, constraints, mission profiles and keep
/// policies are per-lane.
fn same_pass(a: &QueryPlan, b: &QueryPlan) -> bool {
    a.airframes() == b.airframes()
        && a.sensors() == b.sensors()
        && a.computes() == b.computes()
        && a.algorithms() == b.algorithms()
        && a.settings() == b.settings()
        && a.battery() == b.battery()
}

/// Runs a batch of plans: every subset with the same evaluation
/// signature shares one sharded pass, at most [`MAX_LANES`] plans per
/// pass. Results come back aligned with `plans`.
///
/// # Errors
///
/// [`SkylineError::PlanCatalog`] for foreign ids and
/// [`SkylineError::KnobVariant`] for out-of-domain sweep values, both
/// before any evaluation; evaluation errors (unreachable for catalog
/// parts and validated variants) propagate in enumeration order.
// analyze::allow(indexing, scope = "fn", reason = "slot indices come from enumerate() over plans and stay < plans.len()")
// analyze::allow(panic, scope = "fn", reason = "the grouping loop assigns every plan index to exactly one group")
pub(crate) fn run_plans(
    ctx: &PassContext<'_>,
    plans: &[&QueryPlan],
) -> Result<Vec<ResultSet>, SkylineError> {
    for plan in plans {
        validate_plan_ids(ctx, plan)?;
    }
    // Group by pass signature (order-preserving; batches are small, the
    // quadratic scan is noise next to a single evaluation).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|members| same_pass(plans[members[0]], plan))
        {
            Some(members) => members.push(i),
            None => groups.push(vec![i]),
        }
    }
    let mut out: Vec<Option<ResultSet>> = (0..plans.len()).map(|_| None).collect();
    for members in groups {
        for chunk in members.chunks(MAX_LANES) {
            let lanes: Vec<&QueryPlan> = chunk.iter().map(|&i| plans[i]).collect();
            let results = Pass::new(ctx, &lanes)?.run()?;
            for (&slot, result) in chunk.iter().zip(results) {
                out[slot] = Some(result);
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every plan belongs to exactly one group"))
        .collect())
}

/// Builds the per-setting component variants for one pass.
///
/// This is where sweep variants are **validated**: every scaled sensor,
/// compute platform and airframe is constructed (and domain-checked)
/// here, before the pass, so an out-of-domain knob value surfaces as
/// [`SkylineError::KnobVariant`] naming the offending knob instead of
/// aborting a running evaluation.
fn build_variants(
    catalog: &Catalog,
    space: &Space<'_>,
    settings: &[KnobSetting],
    battery_mass: f64,
) -> Result<Vec<VariantParts>, SkylineError> {
    // A scaled magnitude must stay positive and finite *before* it
    // reaches the unit types (whose constructors panic on non-finite
    // values) or the component constructors.
    let scaled = |base: f64, knob: Knob, scale: f64, field: &'static str| {
        let value = base * scale;
        if value.is_finite() && value > 0.0 {
            Ok(value)
        } else {
            Err(SkylineError::KnobVariant {
                knob: knob.table2_parameter(),
                value: scale,
                source: ComponentError::InvalidField {
                    field,
                    reason: format!("scaled magnitude must be positive and finite, got {value}"),
                },
            })
        }
    };
    settings
        .iter()
        .map(|setting| {
            let sensors = space
                .sensors
                .iter()
                .map(|&id| {
                    let s = catalog.sensor_by_id(id);
                    if setting.sensor_rate_scale == 1.0 && setting.sensor_range_scale == 1.0 {
                        Ok(s.clone())
                    } else {
                        let rate = scaled(
                            s.frame_rate().get(),
                            Knob::SensorRateScale,
                            setting.sensor_rate_scale,
                            "frame_rate",
                        )?;
                        let range = scaled(
                            s.range().get(),
                            Knob::SensorRangeScale,
                            setting.sensor_range_scale,
                            "range",
                        )?;
                        // `scaled` has already validated both magnitudes;
                        // any residual constructor error is a
                        // catalog-field problem, not a knob one.
                        Sensor::new(
                            s.name(),
                            s.modality(),
                            Hertz::new(rate),
                            Meters::new(range),
                            s.mass(),
                        )
                        .map_err(SkylineError::from)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let computes = space
                .computes
                .iter()
                .map(|&id| {
                    let c = catalog.compute_by_id(id);
                    if setting.tdp_scale == 1.0 {
                        Ok(c.clone())
                    } else {
                        // Guards the product: `with_tdp_scaled` only
                        // validates the factor, and an overflowed TDP
                        // would panic inside the Watts constructor.
                        scaled(c.tdp().get(), Knob::TdpScale, setting.tdp_scale, "tdp")?;
                        c.with_tdp_scaled(setting.tdp_scale)
                            .map_err(SkylineError::from)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            let airframes = if setting.weight_scale == 1.0 && setting.rotor_pull_scale == 1.0 {
                None
            } else {
                Some(
                    space
                        .airframes
                        .iter()
                        .map(|&id| {
                            let a = catalog.airframe_by_id(id);
                            scaled(
                                a.base_mass().get(),
                                Knob::WeightScale,
                                setting.weight_scale,
                                "base_mass",
                            )?;
                            scaled(
                                a.rotor_pull().get(),
                                Knob::RotorPull,
                                setting.rotor_pull_scale,
                                "rotor_pull",
                            )?;
                            let a = if setting.weight_scale == 1.0 {
                                a.clone()
                            } else {
                                a.with_base_mass_scaled(setting.weight_scale)?
                            };
                            if setting.rotor_pull_scale == 1.0 {
                                Ok(a)
                            } else {
                                a.with_rotor_pull_scaled(setting.rotor_pull_scale)
                                    .map_err(SkylineError::from)
                            }
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                )
            };
            Ok(VariantParts {
                sensors,
                computes,
                airframes,
                extra_payload: Grams::new(battery_mass + setting.payload_delta.get()),
            })
        })
        .collect()
}

/// Whether every constraint of the plan is **downward-closed** with
/// respect to the plan's own minimized objective keys: a cap on a
/// minimized objective, a floor on a maximized one, or plain
/// feasibility (which the frontier domain already implies).
///
/// For such plans the kept set is dominance-downward-closed — if build
/// `b` dominates build `a` and `a` passed the constraints, then `b`
/// passed them too, because each constraint bounds an objective on
/// which `b` is at least as good. Consequently
/// `frontier(kept) = frontier(domain) ∩ kept` **exactly** (membership
/// and tie handling): a dominated point stays dominated by a kept
/// dominator, and no new frontier point can appear. Co-shaped lanes
/// (same objective set, e.g. a Table II budget sweep) therefore share
/// **one** skyline per shard plus O(n) intersections.
fn frontier_reducible(plan: &QueryPlan) -> bool {
    plan.constraints().iter().all(|c| match c {
        Constraint::FeasibleOnly => true,
        Constraint::MinVelocity(_) => plan.objectives().contains(&Objective::SafeVelocity),
        Constraint::MaxTotalTdp(_) => plan.objectives().contains(&Objective::TotalTdp),
        Constraint::MaxPayload(_) => plan.objectives().contains(&Objective::PayloadMass),
    })
}

/// [`Objective::ALL`] bits of the objectives that read the mission power
/// model (energy per km, hover endurance).
const POWER_BITS: u8 = 0b1_1000;

/// The pair-constant mission power state of one (sensor, compute) pair
/// under one mission profile, built on the first kept row that needs it
/// — so a pair nobody keeps builds nothing.
#[derive(Clone, Copy, Default)]
struct PairPower {
    /// The momentum-theory power model (`Some(None)`: cannot hover).
    model: Option<Option<PowerModel>>,
    endurance: Option<f64>,
}

/// One plan's lane of a pass.
struct Lane<'p> {
    plan: &'p QueryPlan,
    /// Slab column and `maximize` flag of each objective, in the plan's
    /// objective order.
    keys: Vec<(usize, bool)>,
    /// What a row this lane keeps needs filled: `(profile slot,
    /// Objective::ALL bits)`, at most two entries.
    needs: Vec<(usize, u8)>,
    /// Frontier-only collector; otherwise the lane keeps every row.
    stream: bool,
    /// The share set whose skyline this lane intersects.
    share: usize,
}

/// The lanes that intersect one shard-local skyline: all lanes of one
/// objective set whose constraints are downward-closed
/// ([`frontier_reducible`]), or a single other lane.
struct Share {
    /// The objective set ([`Objective::ALL`] bits) of a reducible share.
    set: Option<u8>,
    /// Key columns and their `maximize` flags.
    keys: Vec<(usize, bool)>,
    /// Member lane bits.
    members: u64,
}

/// One shard's kept rows: one value column per slab column (a row's
/// unfilled values are NaN) plus, per row, the lane mask, the
/// shard-local job offset and feasibility.
struct Slab {
    cols: Vec<Vec<f64>>,
    masks: Vec<u64>,
    jobs: Vec<u32>,
    feasible: Vec<bool>,
}

impl Slab {
    fn with_capacity(rows: usize, stride: usize) -> Self {
        Self {
            cols: columns_with_capacity(stride, rows),
            masks: Vec::with_capacity(rows),
            jobs: Vec::with_capacity(rows),
            feasible: Vec::with_capacity(rows),
        }
    }

    /// The columns of `keys`, each with its `maximize` flag.
    // analyze::allow(indexing, scope = "fn", reason = "key columns were assigned < stride at pass setup")
    fn key_columns(&self, keys: &[(usize, bool)]) -> Vec<(&[f64], bool)> {
        keys.iter()
            .map(|&(col, maximize)| (self.cols[col].as_slice(), maximize))
            .collect()
    }

    /// Appends row `r` of `other`.
    // analyze::allow(indexing, scope = "fn", reason = "r is a row of `other`, whose per-row vectors are equally long")
    fn copy_row(&mut self, other: &Slab, r: usize) {
        for (col, source) in self.cols.iter_mut().zip(&other.cols) {
            col.push(source[r]);
        }
        self.masks.push(other.masks[r]);
        self.jobs.push(other.jobs[r]);
        self.feasible.push(other.feasible[r]);
    }
}

/// Accumulates minimized keys for one local skyline behind a cheap
/// dominance prefilter. Enumeration order visits one (sensor, compute)
/// pair's algorithms back-to-back, so a dominated row's dominator is
/// usually a few rows back: probing the most recent survivors kills most
/// rows in O(window) before the superlinear exact pass. Exact — a
/// discarded row is dominated by a *retained* one, so the survivors'
/// skyline is the full set's skyline.
#[derive(Default)]
struct Keys {
    dims: usize,
    keys: Vec<f64>,
    /// The caller's tag (a row) of each retained key row.
    tags: Vec<u32>,
}

impl Keys {
    fn reset(&mut self, dims: usize) {
        self.dims = dims;
        self.keys.clear();
        self.tags.clear();
    }

    /// Offers row `r`, eligible (feasible, finite) under the key
    /// columns `cols`.
    // analyze::allow(indexing, scope = "fn", reason = "key rows are dims long; r is a row of the key columns")
    fn push(&mut self, cols: &[(&[f64], bool)], r: usize, tag: u32) {
        let mut key = [0.0f64; MAX_OBJECTIVES];
        for (slot, &(col, maximize)) in key.iter_mut().zip(cols) {
            *slot = if maximize { -col[r] } else { col[r] };
        }
        let (k, n) = (self.dims, self.tags.len());
        let dominated = (n.saturating_sub(PREFILTER_WINDOW)..n)
            .rev()
            .any(|m| frontier::dominates_min(&self.keys[m * k..m * k + k], &key[..k]));
        if !dominated {
            self.tags.push(tag);
            self.keys.extend_from_slice(&key[..k]);
        }
    }

    // analyze::allow(indexing, scope = "fn", reason = "pareto_min returns positions < tags.len()")
    fn skyline(&self) -> Vec<u32> {
        frontier::pareto_min(self.dims, &self.keys)
            .into_iter()
            .map(|i| self.tags[i])
            .collect()
    }
}

/// A retained row of one lane in one shard: its lane-local kept index
/// and its slab row (in the shard's retained slab once reduced).
#[derive(Clone, Copy)]
struct Survivor {
    rank: u32,
    row: u32,
}

/// One lane's reduction of one shard.
#[derive(Default)]
struct LaneOut {
    kept: usize,
    nonfinite: usize,
    /// Local Pareto frontier, ascending rank.
    frontier: Vec<Survivor>,
    /// Frontier-only lanes: local bounded top-k, rank order.
    topk: Vec<Survivor>,
    /// Keep-all lanes: shard-store position of every kept row.
    refs: Vec<u32>,
    /// Keep-all lanes: one value column per objective.
    columns: Vec<Vec<f64>>,
}

/// One shard's output: the keep-all lanes' point store, every lane's
/// reduction, and the slab rows its survivors reference.
struct ShardOut {
    start: usize,
    store: Vec<QueryPoint>,
    lanes: Vec<LaneOut>,
    retained: Slab,
    /// Per retained row, bit `s` set while the row is on share `s`'s
    /// skyline: the shard-local one until the merge narrows it to the
    /// global one.
    on_skyline: Vec<u64>,
}

/// `count` empty value columns of capacity `rows` each (`vec![v; n]`
/// would clone the capacity away from all but one).
pub(crate) fn columns_with_capacity(count: usize, rows: usize) -> Vec<Vec<f64>> {
    (0..count).map(|_| Vec::with_capacity(rows)).collect()
}

/// The rank order: feasible first, then the primary objective, ties by
/// enumeration index. Total. Arguments are `(feasible, primary value,
/// index)`.
pub(crate) fn rank_cmp(maximize: bool, a: (bool, f64, usize), b: (bool, f64, usize)) -> Ordering {
    b.0.cmp(&a.0)
        .then_with(|| {
            if maximize {
                b.1.total_cmp(&a.1)
            } else {
                a.1.total_cmp(&b.1)
            }
        })
        .then_with(|| a.2.cmp(&b.2))
}

/// One sharded pass over a group of same-signature plans.
struct Pass<'a> {
    ctx: &'a PassContext<'a>,
    /// The paper-calibrated heatsink model, built once per pass.
    heatsink: HeatsinkModel,
    space: Space<'a>,
    settings: &'a [KnobSetting],
    variants: Vec<VariantParts>,
    battery_wh: Option<f64>,
    job_count: usize,
    /// Mission profile of each power slot; slot 0 is the shared profile
    /// (the first power-needing plan's).
    profiles: Vec<MissionProfile>,
    /// Slab column of each (slot, [`Objective::ALL`] position).
    col_of: Vec<[usize; MAX_OBJECTIVES]>,
    stride: usize,
    lanes: Vec<Lane<'a>>,
    shares: Vec<Share>,
    /// Bits of the keep-all lanes: rows any of them keeps enter the
    /// shard's point store.
    all_mask: u64,
}

impl<'a> Pass<'a> {
    /// Sets up a pass: resolves the subspace, validates the knob
    /// variants (before anything can short-circuit, so every keep
    /// policy reports the same errors), and lays out lanes and slab
    /// columns.
    // analyze::allow(indexing, scope = "fn", reason = "run_plans passes 1..=64 plans; slots index the profiles list they were pushed to; lane and share positions come from enumerate()/push")
    fn new(ctx: &'a PassContext<'a>, plans: &[&'a QueryPlan]) -> Result<Self, SkylineError> {
        let rep = plans[0];
        let catalog = ctx.catalog;
        let space = resolve_space(ctx, rep);
        let settings = rep.settings();
        let battery = rep.battery().map(|id| catalog.battery_by_id(id));
        let battery_mass = battery.map_or(0.0, |b| b.mass().get());
        let variants = build_variants(catalog, &space, settings, battery_mass)?;
        let job_count = space.airframes.len() * settings.len() * space.cand_count();

        // Power slots: slot 0 is the first power-needing plan's profile.
        let mut profiles: Vec<MissionProfile> = Vec::new();
        let slots: Vec<usize> = plans
            .iter()
            .map(|plan| {
                if !plan.needs_power() {
                    return 0;
                }
                let profile = plan.mission_profile();
                profiles
                    .iter()
                    .position(|&p| p == profile)
                    .unwrap_or_else(|| {
                        profiles.push(profile);
                        profiles.len() - 1
                    })
            })
            .collect();
        if profiles.is_empty() {
            profiles.push(MissionProfile::default());
        }
        let mut col_of = vec![[usize::MAX; MAX_OBJECTIVES]; profiles.len()];
        let mut stride = 0usize;
        let mut lanes: Vec<Lane<'a>> = Vec::with_capacity(plans.len());
        let mut shares: Vec<Share> = Vec::new();
        for (&plan, &slot) in plans.iter().zip(&slots) {
            let mut keys = Vec::with_capacity(plan.objectives().len());
            let mut needs: Vec<(usize, u8)> = Vec::with_capacity(2);
            for objective in plan.objectives() {
                let idx = objective.all_index();
                let bit = 1u8 << idx;
                let slot = if bit & POWER_BITS != 0 { slot } else { 0 };
                if col_of[slot][idx] == usize::MAX {
                    col_of[slot][idx] = stride;
                    stride += 1;
                }
                keys.push((col_of[slot][idx], objective.maximize()));
                match needs.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, bits)) => *bits |= bit,
                    None => needs.push((slot, bit)),
                }
            }
            let stream = match plan.keep_points() {
                KeepPoints::All => false,
                KeepPoints::FrontierOnly => true,
                KeepPoints::Auto => job_count > STREAM_AUTO_THRESHOLD,
            };
            // Skylines: one per objective set for the reducible lanes
            // that read the shared profile's columns, one per other lane.
            let set = match needs[..] {
                [(0, set)] if frontier_reducible(plan) => Some(set),
                _ => None,
            };
            let share = match shares.iter().position(|s| set.is_some() && s.set == set) {
                Some(pos) => pos,
                None => {
                    shares.push(Share {
                        set,
                        keys: keys.clone(),
                        members: 0,
                    });
                    shares.len() - 1
                }
            };
            shares[share].members |= 1 << lanes.len();
            lanes.push(Lane {
                plan,
                keys,
                needs,
                stream,
                share,
            });
        }
        let all_mask = lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| !lane.stream)
            .fold(0u64, |m, (i, _)| m | 1 << i);

        Ok(Self {
            ctx,
            heatsink: HeatsinkModel::paper_calibrated(),
            space,
            settings,
            variants,
            battery_wh: battery.map(f1_components::Battery::energy_watt_hours),
            job_count,
            profiles,
            col_of,
            stride,
            lanes,
            shares,
            all_mask,
        })
    }

    /// Evaluates every shard (in parallel when there are several) and
    /// merges them into one result per lane.
    fn run(&self) -> Result<Vec<ResultSet>, SkylineError> {
        let shards = self.job_count.div_ceil(SHARD_SIZE);
        let mut outs = parallel_map_indices(shards, 1, |shard| self.eval_shard(shard))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        // A one-shard pass's local skylines are already the global ones.
        if outs.len() > 1 {
            for s in 0..self.shares.len() {
                self.merge_share(s, &mut outs);
            }
        }
        // The keep-all lanes' point store: the rows at least one of them
        // kept, in enumeration order, built once for the whole pass.
        let mut store_offsets = Vec::with_capacity(outs.len());
        let mut store = Vec::with_capacity(outs.iter().map(|o| o.store.len()).sum());
        for out in &mut outs {
            store_offsets.push(store.len());
            store.extend(std::mem::take(&mut out.store));
        }
        let store = Arc::new(store);
        // Stored points of frontier-only lanes, derived once per pass. A
        // lone frontier-only lane derives straight into its result: a
        // cache would only double its points' memory.
        let streamed = self.lanes.iter().filter(|lane| lane.stream).count();
        let mut points = (streamed > 1).then(HashMap::new);
        (0..self.lanes.len())
            .map(|li| self.merge_lane(li, &outs, &store, &store_offsets, &mut points))
            .collect()
    }

    /// Narrows share `s`'s skyline bits from the shard-local skylines to
    /// the global one. frontier(S ∪ D) = frontier(frontier(S) ∪
    /// frontier(D)), so one skyline over the shard skylines is the global
    /// skyline of the share's domain (the rows any member kept).
    // analyze::allow(indexing, scope = "fn", reason = "s < shares.len(); members hold (shard, row) positions read from the outs they index")
    fn merge_share(&self, s: usize, outs: &mut [ShardOut]) {
        let bit = 1u64 << s;
        let share_keys = &self.shares[s].keys;
        let mut keys = Keys::default();
        keys.reset(share_keys.len());
        let mut members: Vec<(usize, usize)> = Vec::new();
        for (shard, out) in outs.iter().enumerate() {
            let cols = out.retained.key_columns(share_keys);
            for (r, &on) in out.on_skyline.iter().enumerate() {
                if on & bit != 0 {
                    keys.push(&cols, r, members.len() as u32);
                    members.push((shard, r));
                }
            }
        }
        for &(shard, r) in &members {
            outs[shard].on_skyline[r] &= !bit;
        }
        for m in keys.skyline() {
            let (shard, r) = members[m as usize];
            outs[shard].on_skyline[r] |= bit;
        }
    }

    /// The (possibly knob-scaled) airframe and parts of one
    /// (airframe, setting) block.
    // analyze::allow(indexing, scope = "fn", reason = "block < airframes × settings, the block count the job space was sized from")
    fn block_parts(&self, block: usize) -> (usize, usize, &Airframe, &VariantParts) {
        let (airframe_pos, setting_pos) =
            (block / self.settings.len(), block % self.settings.len());
        let parts = &self.variants[setting_pos];
        let airframe = match &parts.airframes {
            Some(scaled) => &scaled[airframe_pos],
            None => self
                .ctx
                .catalog
                .airframe_by_id(self.space.airframes[airframe_pos]),
        };
        (airframe_pos, setting_pos, airframe, parts)
    }

    /// Re-derives the point of one job: evaluating the same inputs
    /// through the same kernel is bit-deterministic, so a frontier-only
    /// survivor's point equals the one the pass saw.
    // analyze::allow(indexing, scope = "fn", reason = "job < job_count decodes to in-range block, sensor and pair positions")
    fn point_of(&self, job: usize) -> Result<QueryPoint, SkylineError> {
        let cand_count = self.space.cand_count();
        let (airframe_pos, setting_pos, airframe, parts) = self.block_parts(job / cand_count);
        let c = job % cand_count;
        let sensor_pos = c / self.space.pairs.len();
        let entry = &self.space.pairs[c % self.space.pairs.len()];
        let sensor = &parts.sensors[sensor_pos];
        let stage = pair_stage(
            &self.heatsink,
            airframe,
            sensor,
            &parts.computes[entry.compute_pos as usize],
            parts.extra_payload,
        )?;
        let outcome = algo_stage(&stage, airframe, sensor, entry.throughput)?;
        Ok(self.point(airframe_pos, setting_pos, sensor_pos, entry, outcome))
    }

    // analyze::allow(indexing, scope = "fn", reason = "positions were decoded from the job space the lists sized")
    fn point(
        &self,
        airframe_pos: usize,
        setting_pos: usize,
        sensor_pos: usize,
        entry: &PairEntry,
        outcome: Outcome,
    ) -> QueryPoint {
        QueryPoint {
            airframe: self.space.airframes[airframe_pos],
            candidate: Candidate {
                sensor: self.space.sensors[sensor_pos],
                compute: entry.compute,
                algorithm: entry.algorithm,
                throughput: entry.throughput,
            },
            setting: self.settings[setting_pos],
            outcome,
        }
    }

    /// Fills the `need`-ed objectives ([`Objective::ALL`]-order bits) of one
    /// slab row under power slot `slot`'s mission profile, at that slot's
    /// columns. Each value is computed once per row however many lanes
    /// read it.
    // analyze::allow(indexing, scope = "fn", reason = "slot < profiles.len() == col_of.len(); idx enumerates Objective::ALL; needed columns were assigned < stride at pass setup")
    fn fill_values(
        &self,
        slot: usize,
        need: u8,
        row: &mut [f64],
        airframe: &Airframe,
        outcome: &Outcome,
        power: &mut PairPower,
    ) -> Result<(), SkylineError> {
        let (cols, profile) = (&self.col_of[slot], self.profiles[slot]);
        if need & POWER_BITS != 0 && power.model.is_none() {
            power.model = Some(if outcome.feasible {
                Some(crate::mission::power_model_for_parts(
                    airframe,
                    airframe.takeoff_mass(outcome.payload),
                    outcome.total_tdp,
                    profile.figure_of_merit,
                    profile.parasitic_coeff,
                )?)
            } else {
                None
            });
        }
        let model = power.model.flatten();
        let v = outcome.velocity;
        for (idx, objective) in Objective::ALL.iter().enumerate() {
            if need & (1 << idx) == 0 {
                continue;
            }
            row[cols[idx]] = match objective {
                Objective::SafeVelocity => v.get(),
                Objective::TotalTdp => outcome.total_tdp.get(),
                Objective::PayloadMass => outcome.payload.get(),
                Objective::MissionEnergyWhPerKm => match model {
                    Some(p) if v.get() > 0.0 => p.power_at(v).get() * (1000.0 / v.get()) / 3600.0,
                    _ => f64::INFINITY,
                },
                Objective::HoverEnduranceMin => match (power.endurance, model) {
                    (Some(endurance), _) => endurance,
                    (None, Some(p)) => {
                        let wh = self
                            .battery_wh
                            // analyze::allow(panic, reason = "plan validation rejects endurance objectives without a battery before execution")
                            .expect("plan validation rejects endurance plans without a battery");
                        let endurance = hover_endurance(&p, wh, profile.battery_reserve)?.get();
                        power.endurance = Some(endurance);
                        endurance
                    }
                    (None, None) => 0.0,
                },
            };
        }
        Ok(())
    }

    /// Evaluates one shard into its slab (and, for keep-all lanes, its
    /// point store), then reduces it per lane.
    // analyze::allow(indexing, scope = "fn", reason = "shard kernel: positions index the part lists and tables they were decoded from")
    fn eval_shard(&self, shard: usize) -> Result<ShardOut, SkylineError> {
        let start = shard * SHARD_SIZE;
        let end = (start + SHARD_SIZE).min(self.job_count);
        let cand_count = self.space.cand_count();
        let pair_count = self.space.pairs.len();
        let mut slab = Slab::with_capacity(end - start, self.stride);
        // Reserved, not grown: an untouched tail costs no resident memory,
        // while growth would leave a trail of freed copies behind.
        let mut store: Vec<QueryPoint> =
            Vec::with_capacity(if self.all_mask == 0 { 0 } else { end - start });
        let mut powers = vec![PairPower::default(); self.profiles.len()];
        // Per-slot fill bits for the last distinct row mask: consecutive
        // rows usually carry the same mask.
        let mut need = vec![0u8; self.profiles.len()];
        let mut need_mask = 0u64;
        // One row's values before they are appended to the slab columns.
        let mut row = vec![f64::NAN; self.stride];

        let mut job = start;
        while job < end {
            let block = job / cand_count;
            let block_start = block * cand_count;
            let block_end = (block_start + cand_count).min(end);
            let (airframe_pos, setting_pos, airframe, parts) = self.block_parts(block);
            let mut cur_pair = (usize::MAX, u32::MAX);
            let mut stage = None::<PairStage>;
            for c in job - block_start..block_end - block_start {
                let sensor_pos = c / pair_count;
                let entry = &self.space.pairs[c % pair_count];
                let sensor = &parts.sensors[sensor_pos];
                if cur_pair != (sensor_pos, entry.compute_pos) {
                    cur_pair = (sensor_pos, entry.compute_pos);
                    stage = Some(pair_stage(
                        &self.heatsink,
                        airframe,
                        sensor,
                        &parts.computes[entry.compute_pos as usize],
                        parts.extra_payload,
                    )?);
                    powers.fill(PairPower::default());
                }
                // analyze::allow(panic, reason = "the loop sets `stage` on the first candidate of every (sensor, compute) run")
                let stage = stage.as_ref().expect("pair stage set on first candidate");
                let outcome = algo_stage(stage, airframe, sensor, entry.throughput)?;
                let mut mask = 0u64;
                for (i, lane) in self.lanes.iter().enumerate() {
                    let admitted = lane.plan.constraints().iter().all(|c| c.admits(&outcome));
                    mask |= u64::from(admitted) << i;
                }
                if mask == 0 {
                    continue;
                }
                if mask != need_mask {
                    need_mask = mask;
                    need.fill(0);
                    let mut bits = mask;
                    while bits != 0 {
                        let lane = &self.lanes[bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                        for &(slot, b) in &lane.needs {
                            need[slot] |= b;
                        }
                    }
                }
                row.fill(f64::NAN);
                for (slot, &bits) in need.iter().enumerate() {
                    if bits != 0 {
                        self.fill_values(
                            slot,
                            bits,
                            &mut row,
                            airframe,
                            &outcome,
                            &mut powers[slot],
                        )?;
                    }
                }
                for (col, &v) in slab.cols.iter_mut().zip(&row) {
                    col.push(v);
                }
                slab.masks.push(mask);
                slab.jobs.push((block_start + c - start) as u32);
                slab.feasible.push(outcome.feasible);
                if mask & self.all_mask != 0 {
                    store.push(self.point(airframe_pos, setting_pos, sensor_pos, entry, outcome));
                }
            }
            job = block_end;
        }

        // Keep only the slab rows some survivor references (a few per
        // lane, however many jobs the shard held), renumbering the
        // survivors to match. Every share skyline row is on some member's
        // frontier, so it is retained too.
        let (skylines, mut lanes) = self.reduce(&slab);
        let mut rows: Vec<u32> = lanes
            .iter()
            .flat_map(|out| out.frontier.iter().chain(&out.topk).map(|s| s.row))
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let mut retained = Slab::with_capacity(rows.len(), self.stride);
        for &r in &rows {
            retained.copy_row(&slab, r as usize);
        }
        let position = |row: u32| rows.partition_point(|&r| r < row);
        for survivor in lanes
            .iter_mut()
            .flat_map(|out| out.frontier.iter_mut().chain(out.topk.iter_mut()))
        {
            survivor.row = position(survivor.row) as u32;
        }
        let mut on_skyline = vec![0u64; rows.len()];
        for (s, skyline) in skylines.iter().enumerate() {
            for &row in skyline {
                on_skyline[position(row)] |= 1 << s;
            }
        }
        Ok(ShardOut {
            start,
            store,
            lanes,
            retained,
            on_skyline,
        })
    }

    /// Reduces one shard's slab: one skyline per share (ascending slab
    /// rows), then per lane the accounting, the local frontier (the
    /// lane's rows on its share's skyline), and either every kept row
    /// (keep-all) or the local top-k (frontier-only).
    // analyze::allow(indexing, scope = "fn", reason = "rows index the slab they enumerate; lane columns index slab rows")
    fn reduce(&self, slab: &Slab) -> (Vec<Vec<u32>>, Vec<LaneOut>) {
        // One skyline per share over the feasible, finite rows any member
        // kept (empty without a frontier: there are no shares then).
        let mut keys = Keys::default();
        let skylines: Vec<Vec<u32>> = self
            .shares
            .iter()
            .map(|share| {
                let cols = slab.key_columns(&share.keys);
                keys.reset(cols.len());
                for (r, &mask) in slab.masks.iter().enumerate() {
                    if mask & share.members != 0
                        && slab.feasible[r]
                        && cols.iter().all(|(col, _)| col[r].is_finite())
                    {
                        keys.push(&cols, r, r as u32);
                    }
                }
                keys.skyline()
            })
            .collect();

        // Top-k candidates as (rank, row), at most 2K at a time.
        let mut best: Vec<(u32, u32)> = Vec::with_capacity(2 * STREAM_TOP_K);
        let mut outs = Vec::with_capacity(self.lanes.len());
        for (li, lane) in self.lanes.iter().enumerate() {
            let bit = 1u64 << li;
            let cols = slab.key_columns(&lane.keys);
            let k = cols.len();
            best.clear();
            // The rank order restricted to this shard. The comparator is
            // total (index tiebreak), so keeping the best K whenever 2K
            // candidates pile up, and admitting only candidates that beat
            // the K-th best kept so far, ends at the exact local top-K.
            let mut cutoff: Option<(u32, u32)> = None;
            let maximize = lane.plan.objectives()[0].maximize();
            let primary = cols[0].0;
            let key = |&(rank, r): &(u32, u32)| {
                let r = r as usize;
                (slab.feasible[r], primary[r], rank as usize)
            };
            let cmp = |a: &(u32, u32), b: &(u32, u32)| rank_cmp(maximize, key(a), key(b));
            let skyline: &[u32] = &skylines[lane.share];
            let mut on_skyline = skyline.iter().peekable();
            let mut out = LaneOut::default();
            if !lane.stream {
                let kept = slab.masks.iter().filter(|&&mask| mask & bit != 0).count();
                out.refs = Vec::with_capacity(kept);
                out.columns = columns_with_capacity(k, kept);
            }
            let (mut rank, mut store_pos) = (0u32, 0u32);
            for (r, &mask) in slab.masks.iter().enumerate() {
                if mask & bit != 0 {
                    let feasible = slab.feasible[r];
                    if lane.stream {
                        let candidate = (rank, r as u32);
                        if cutoff.map_or(true, |c| cmp(&candidate, &c) == Ordering::Less) {
                            best.push(candidate);
                            if best.len() == 2 * STREAM_TOP_K {
                                best.select_nth_unstable_by(STREAM_TOP_K - 1, cmp);
                                best.truncate(STREAM_TOP_K);
                                cutoff = best.last().copied();
                            }
                        }
                    } else {
                        out.refs.push(store_pos);
                        for (column, (col, _)) in out.columns.iter_mut().zip(&cols) {
                            column.push(col[r]);
                        }
                    }
                    // A feasible row with a non-finite value stays kept
                    // but is outside the frontier domain.
                    let finite = cols.iter().all(|(col, _)| col[r].is_finite());
                    if feasible && !finite {
                        out.nonfinite += 1;
                    }
                    // Both lists ascend: a two-pointer intersection.
                    while on_skyline.next_if(|&&s| (s as usize) < r).is_some() {}
                    if on_skyline.next_if(|&&s| s as usize == r).is_some() {
                        out.frontier.push(Survivor {
                            rank,
                            row: r as u32,
                        });
                    }
                    rank += 1;
                }
                store_pos += u32::from(mask & self.all_mask != 0);
            }
            out.kept = rank as usize;
            if lane.stream {
                if best.len() > STREAM_TOP_K {
                    best.select_nth_unstable_by(STREAM_TOP_K - 1, cmp);
                    best.truncate(STREAM_TOP_K);
                }
                best.sort_unstable_by(cmp);
                out.topk = best
                    .iter()
                    .map(|&(rank, row)| Survivor { rank, row })
                    .collect();
            }
            outs.push(out);
        }
        (skylines, outs)
    }

    /// Merges one lane's shard reductions into its result, deriving the
    /// stored points no earlier lane derived into `points` (if caching).
    // analyze::allow(indexing, scope = "fn", reason = "li < lanes.len() == every shard's lane count; survivor rows index their shard's retained slab")
    fn merge_lane(
        &self,
        li: usize,
        outs: &[ShardOut],
        store: &Arc<Vec<QueryPoint>>,
        store_offsets: &[usize],
        points: &mut Option<HashMap<(usize, usize), QueryPoint>>,
    ) -> Result<ResultSet, SkylineError> {
        let lane = &self.lanes[li];
        let objectives = lane.plan.objectives().to_vec();
        let k = objectives.len();
        let mut offsets = Vec::with_capacity(outs.len());
        let (mut kept, mut nonfinite) = (0usize, 0usize);
        for out in outs {
            offsets.push(kept);
            kept += out.lanes[li].kept;
            nonfinite += out.lanes[li].nonfinite;
        }
        let dropped = self.job_count - kept;
        // A lane's survivors as (global index, shard, retained row), and
        // each shard's retained key columns.
        let survivors = |pick: fn(&LaneOut) -> &[Survivor]| {
            outs.iter()
                .zip(&offsets)
                .enumerate()
                .flat_map(move |(shard, (out, &offset))| {
                    pick(&out.lanes[li])
                        .iter()
                        .map(move |s| (offset + s.rank as usize, shard, s.row as usize))
                })
        };
        let cols: Vec<Vec<(&[f64], bool)>> = outs
            .iter()
            .map(|out| out.retained.key_columns(&lane.keys))
            .collect();

        // The lane's local frontier rows still on its share's global
        // skyline: frontier(kept) = frontier(share domain) ∩ kept for a
        // downward-closed lane, and a lane of its own is its whole share.
        // Survivors come in shard (= enumeration) order, so the global
        // indices come out ascending.
        let bit = 1u64 << lane.share;
        let frontier: Vec<(usize, usize, usize)> = survivors(|l| &l.frontier)
            .filter(|&(_, shard, r)| outs[shard].on_skyline[r] & bit != 0)
            .collect();
        let frontier_global: Vec<usize> = frontier.iter().map(|&(g, ..)| g).collect();

        if !lane.stream {
            let mut columns = columns_with_capacity(k, kept);
            let mut refs: Vec<PointRef> = Vec::with_capacity(kept);
            for (out, &offset) in outs.iter().zip(store_offsets) {
                let lane_out = &out.lanes[li];
                for (column, part) in columns.iter_mut().zip(&lane_out.columns) {
                    column.extend_from_slice(part);
                }
                refs.extend(lane_out.refs.iter().map(|&pos| PointRef {
                    segment: 0,
                    index: (offset + pos as usize) as u32,
                }));
            }
            // A lane that kept every stored row reads the store directly
            // — `points()` is then free, not a lazy copy.
            let refs = (refs.len() != store.len()).then_some(refs);
            return Ok(ResultSet::from_segments(
                objectives,
                vec![Arc::clone(store)],
                refs,
                columns,
                frontier_global,
                self.space.uncharacterized(),
                dropped,
                nonfinite,
            ));
        }

        // Exact top-k: the best K of the union of the shard top-Ks.
        let maximize = objectives[0].maximize();
        let rank_key = |&(g, shard, r): &(usize, usize, usize)| {
            (outs[shard].retained.feasible[r], cols[shard][0].0[r], g)
        };
        let mut topk: Vec<(usize, usize, usize)> = survivors(|l| &l.topk).collect();
        topk.sort_unstable_by(|a, b| rank_cmp(maximize, rank_key(a), rank_key(b)));
        topk.truncate(STREAM_TOP_K);

        // Stored rows = frontier ∪ top-k, ascending global index; only
        // their points are re-derived.
        let mut stored: Vec<(usize, usize, usize)> =
            frontier.iter().chain(&topk).copied().collect();
        stored.sort_unstable_by_key(|&(g, ..)| g);
        stored.dedup_by_key(|&mut (g, ..)| g);
        // Collected with an exact capacity: results stay cached.
        let mut lane_points = Vec::with_capacity(stored.len());
        for &(_, shard, r) in &stored {
            let job = outs[shard].start + outs[shard].retained.jobs[r] as usize;
            let point = match points.as_mut().map(|points| points.entry((shard, r))) {
                Some(Entry::Occupied(known)) => *known.get(),
                Some(Entry::Vacant(slot)) => *slot.insert(self.point_of(job)?),
                None => self.point_of(job)?,
            };
            lane_points.push(point);
        }
        let mut columns = columns_with_capacity(k, stored.len());
        for &(_, shard, r) in &stored {
            for (column, (col, _)) in columns.iter_mut().zip(&cols[shard]) {
                column.push(col[r]);
            }
        }
        let meta = StreamedMeta {
            total_kept: kept,
            stored: stored.iter().map(|&(g, ..)| g).collect(),
            topk: topk.iter().map(|&(g, ..)| g).collect(),
        };
        Ok(ResultSet::from_streamed(
            objectives,
            lane_points,
            columns,
            frontier_global,
            meta,
            self.space.uncharacterized(),
            dropped,
            nonfinite,
        ))
    }
}
