//! The **execute** half of the compile/execute split: a plan-cached
//! [`Session`] over a versioned catalog store, and the columnar
//! [`ResultSet`] it produces.
//!
//! A [`Session`] is the one way to run a design-space query: it owns its
//! catalog (no lifetimes in the public API), is `Send + Sync`, and
//! executes owned [`QueryPlan`]s through the one tier-1 executor,
//! [`crate::shard`]:
//!
//! * [`Session::run_batch`] runs every group of same-signature plans as
//!   **one** sharded pass with a lane per plan — candidates are
//!   enumerated and the momentum-theory outcome evaluated *once*, then
//!   each lane's constraint filter, objective values and collector
//!   apply in-pass — so eight what-if questions over a 10⁵-candidate
//!   catalog cost barely more than one.
//! * Completed results are memoized under each plan's
//!   [canonical key](crate::plan::QueryPlan::key) and epoch: a repeated
//!   query is a cache lookup returning the same `Arc<ResultSet>`, and
//!   [`Session::refresh`] repairs an older epoch's result across a
//!   catalog delta (the `repair` module).
//!
//! ```
//! use std::sync::Arc;
//! use f1_components::Catalog;
//! use f1_skyline::plan::QueryPlan;
//! use f1_skyline::query::Objective;
//! use f1_skyline::session::Session;
//!
//! let session = Session::new(Arc::new(Catalog::paper()));
//! let plan = QueryPlan::builder()
//!     .objectives(&[Objective::SafeVelocity, Objective::TotalTdp])
//!     .build()?;
//! let result = session.run(&plan)?;          // one sharded pass
//! let again = session.run(&plan)?;           // plan-cache hit
//! assert!(Arc::ptr_eq(&result, &again));
//! let top = result.top_k(3);                 // bounded-heap, no full sort
//! assert_eq!(top, &result.ranked()[..3]);
//! # Ok::<(), f1_skyline::SkylineError>(())
//! ```

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use f1_components::json::{fmt_number, quote};
use f1_components::{
    AirframeId, AlgorithmId, Catalog, CatalogEpoch, CatalogStore, ComputeId, EpochSnapshot,
    SensorId, ThroughputTable,
};

use crate::plan::QueryPlan;
use crate::query::{Objective, QueryPoint};
use crate::shard::{run_plans, PassContext};
use crate::tier2::{SharedTier2, SimBlock, SimStats, Tier2Context};
use crate::SkylineError;

// ---------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------

/// The columnar result of executing one plan: every evaluated point that
/// passed the constraints, per-objective value columns, and the Pareto
/// frontier.
///
/// Objective values are stored **column-major** — one contiguous
/// `Vec<f64>` per objective ([`column`](Self::column)) — the layout a
/// serving tier wants for export, streaming top-k selection and
/// columnar analytics. Point identity (airframe, candidate, knob
/// setting, outcome) stays row-wise in [`points`](Self::points).
///
/// Ranked access scales down gracefully: [`top_k`](Self::top_k) selects
/// the best *k* with a bounded heap in O(n log k) without materializing
/// the full ranking, [`pages`](Self::pages) iterates fixed-size windows
/// for paged serving, and [`ranked`](Self::ranked) still materializes
/// everything when asked.
///
/// The export format is [`to_json`](Self::to_json).
///
/// Internally, result sets produced by one shared-pass batch all point
/// into **one** `Arc`-shared store of evaluated points (a plan holds
/// the indices its constraints kept), so an 8-plan batch materializes
/// the heavyweight point rows once, not eight times. [`point`] and the
/// iterators read through the indirection for free;
/// [`points`](Self::points) materializes a contiguous slice lazily on
/// first call.
///
/// # Streamed mode
///
/// Plans whose [`KeepPoints`](crate::plan::KeepPoints) policy resolves
/// to streaming run through the frontier-only collector of
/// [`crate::shard`], which never materializes the full point store:
/// the result keeps the Pareto frontier, a bounded top-k
/// ([`crate::shard::STREAM_TOP_K`] indices) and the accounting
/// counters, all **bit-identical** to the keep-all collector and still
/// addressed by the same global enumeration indices. Accessors that
/// need an arbitrary point ([`points`](Self::points),
/// [`minimized_keys`](Self::minimized_keys), [`point`](Self::point) on
/// a non-stored index) panic with a clear message in streamed mode;
/// [`frontier`](Self::frontier), [`top_k`](Self::top_k),
/// [`best`](Self::best), [`to_json`](Self::to_json) and the counters
/// work in both. [`is_streamed`](Self::is_streamed) and
/// [`stored_indices`](Self::stored_indices) report the mode.
///
/// [`point`]: Self::point
#[derive(Debug, Clone)]
pub struct ResultSet {
    objectives: Vec<Objective>,
    /// Point storage **segments**. Segment 0 is the producing pass's
    /// store (the points at least one plan of the batch kept, in
    /// enumeration order, shared across the batch); incremental delta
    /// repair splices the slab passes' stores as further segments, so a
    /// repaired result shares the surviving point rows with the result
    /// it was repaired from instead of duplicating tens of megabytes.
    segments: Vec<Arc<Vec<QueryPoint>>>,
    /// References into `segments` this plan kept, in enumeration order
    /// (`None`: segment 0 *is* the point list).
    kept: Option<Vec<PointRef>>,
    /// Lazily materialized contiguous point list for
    /// [`points`](Self::points) when `kept` is `Some`.
    points_cache: std::sync::OnceLock<Vec<QueryPoint>>,
    /// One column per objective, each `len()` long, in each objective's
    /// natural (unnegated) unit.
    columns: Vec<Vec<f64>>,
    frontier: Vec<usize>,
    uncharacterized: usize,
    dropped: usize,
    nonfinite: usize,
    /// `Some` when this result was produced by a frontier-only lane:
    /// segment 0 holds only the stored (frontier ∪ top-k) points and
    /// `columns` only their rows, while indices everywhere stay global.
    streamed: Option<StreamedMeta>,
    /// The tier-2 simulation block, attached by the session after the
    /// tier-1 pass for plans with sim objectives (see [`crate::tier2`]).
    /// Part of the result's logical identity: memoized, spilled and
    /// equality-compared with everything else.
    sim: Option<SimBlock>,
}

/// The streamed-mode bookkeeping of a [`ResultSet`]: how many points
/// the plan logically kept, which global indices were materialized, and
/// the bounded top-k ranking.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StreamedMeta {
    /// Logical kept-point count (what `len()` reports).
    pub(crate) total_kept: usize,
    /// Ascending global indices of the stored points — row `r` of
    /// segment 0 and of every column is the point `stored[r]`.
    pub(crate) stored: Vec<usize>,
    /// Global indices of the best-ranked points, in rank order, at most
    /// [`crate::shard::STREAM_TOP_K`] of them. Always a subset of
    /// `stored`.
    pub(crate) topk: Vec<usize>,
}

impl PartialEq for ResultSet {
    /// Logical equality: same objectives, same point sequence (read
    /// through the shared store without materializing), same columns,
    /// frontier and accounting. Streamed results compare their stored
    /// subset (plus the streamed bookkeeping itself); a streamed and a
    /// materializing result are never equal — they answer different
    /// queries even when produced from the same plan shape.
    fn eq(&self, other: &Self) -> bool {
        self.objectives == other.objectives
            && self.len() == other.len()
            && self.columns == other.columns
            && self.frontier == other.frontier
            && self.uncharacterized == other.uncharacterized
            && self.dropped == other.dropped
            && self.nonfinite == other.nonfinite
            && self.streamed == other.streamed
            && self.sim == other.sim
            && match &self.streamed {
                None => (0..self.len()).all(|i| self.point(i) == other.point(i)),
                Some(meta) => meta.stored.iter().all(|&i| self.point(i) == other.point(i)),
            }
    }
}

/// One kept point's location in a [`ResultSet`]'s segmented store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PointRef {
    pub(crate) segment: u32,
    pub(crate) index: u32,
}

impl ResultSet {
    /// Builds a streamed-mode result: `stored_points` (and the column
    /// rows) cover only the frontier ∪ top-k survivors, ascending by
    /// global index; `meta` carries the logical count and rankings.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_streamed(
        objectives: Vec<Objective>,
        stored_points: Vec<QueryPoint>,
        columns: Vec<Vec<f64>>,
        frontier: Vec<usize>,
        meta: StreamedMeta,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        debug_assert_eq!(stored_points.len(), meta.stored.len());
        debug_assert!(meta.stored.windows(2).all(|w| w[0] < w[1]));
        let segments = vec![Arc::new(stored_points)];
        Self {
            streamed: Some(meta),
            ..Self::from_segments(
                objectives,
                segments,
                None,
                columns,
                frontier,
                uncharacterized,
                dropped,
                nonfinite,
            )
        }
    }

    /// Rebuilds a (materializing) result whose point store has grown
    /// many repair-spliced segments into a single contiguous segment.
    /// Logically equal to `self` (same points, columns, frontier and
    /// counters) — only the storage layout changes, trading one copy of
    /// the kept points for O(1)-segment reads afterwards.
    pub(crate) fn compacted(&self) -> Self {
        debug_assert!(self.streamed.is_none(), "streamed results have one segment");
        Self {
            sim: self.sim.clone(),
            ..Self::from_segments(
                self.objectives.clone(),
                vec![Arc::new(self.points().to_vec())],
                None,
                self.columns.clone(),
                self.frontier.clone(),
                self.uncharacterized,
                self.dropped,
                self.nonfinite,
            )
        }
    }

    /// Builds a materializing result over a segmented store: a cold
    /// pass hands every keep-all lane the pass's one shared store (with
    /// `kept: None` when the lane kept every stored point); incremental
    /// repair splices the repaired result's segments with the delta
    /// points' segment.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_segments(
        objectives: Vec<Objective>,
        segments: Vec<Arc<Vec<QueryPoint>>>,
        kept: Option<Vec<PointRef>>,
        columns: Vec<Vec<f64>>,
        frontier: Vec<usize>,
        uncharacterized: usize,
        dropped: usize,
        nonfinite: usize,
    ) -> Self {
        Self {
            objectives,
            segments,
            kept,
            points_cache: std::sync::OnceLock::new(),
            columns,
            frontier,
            uncharacterized,
            dropped,
            nonfinite,
            streamed: None,
            sim: None,
        }
    }

    /// The point storage segments (for the repair path, which splices
    /// new segment lists from old ones).
    pub(crate) fn segments(&self) -> &[Arc<Vec<QueryPoint>>] {
        &self.segments
    }

    /// The segmented-store location of the point at `index`
    /// (materializing results only — repair never splices a streamed
    /// result).
    // analyze::allow(indexing, scope = "fn", reason = "callers pass indices < len(), the kept vec length — crate-internal accessor")
    pub(crate) fn point_ref(&self, index: usize) -> PointRef {
        debug_assert!(self.streamed.is_none());
        match &self.kept {
            None => PointRef {
                segment: 0,
                index: index as u32,
            },
            Some(kept) => kept[index],
        }
    }

    /// The point a segmented-store reference names.
    // analyze::allow(indexing, scope = "fn", reason = "refs are built in-range by the pass or repair that produced the segments")
    fn at(&self, r: PointRef) -> &QueryPoint {
        &self.segments[r.segment as usize][r.index as usize]
    }

    /// Whether this result was produced in streamed mode (frontier +
    /// top-k + accounting only; see the type-level *streamed mode*
    /// section).
    #[must_use]
    pub fn is_streamed(&self) -> bool {
        self.streamed.is_some()
    }

    /// Global indices of the materialized points of a streamed result
    /// (the frontier ∪ top-k survivors), ascending; `None` for a
    /// materializing result, where every index `0..len()` is available.
    #[must_use]
    pub fn stored_indices(&self) -> Option<&[usize]> {
        self.streamed.as_ref().map(|m| m.stored.as_slice())
    }

    /// Number of point-store segments (1 after a cold pass or
    /// compaction; delta repair splices more). Diagnostic — the
    /// accessors hide segmentation entirely.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Maps a global point index to its row position in the stored
    /// columns/points, panicking for an index a streamed result did not
    /// keep.
    // analyze::allow(panic, scope = "fn", reason = "documented `# Panics` contract for unstored streamed indices; serving code routes through try_point")
    fn row_pos(&self, index: usize) -> usize {
        match &self.streamed {
            None => index,
            Some(meta) => meta.stored.binary_search(&index).unwrap_or_else(|_| {
                panic!(
                    "point {index} is not materialized in this streamed result \
                     (only the frontier and top-k are stored; see stored_indices())"
                )
            }),
        }
    }

    /// Number of stored rows (= `len()` for materializing results, the
    /// stored-subset size for streamed ones).
    fn rows_len(&self) -> usize {
        self.streamed
            .as_ref()
            .map_or_else(|| self.len(), |m| m.stored.len())
    }

    /// The global index of stored row `r` (identity when materializing).
    // analyze::allow(indexing, scope = "fn", reason = "r ranges over rows_len() == stored.len() at every call site")
    fn row_global(&self, r: usize) -> usize {
        self.streamed.as_ref().map_or(r, |m| m.stored[r])
    }

    /// The plan's objectives, primary first.
    #[must_use]
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// The point at `index`, in deterministic enumeration order
    /// (airframe-major, then knob setting, then sensor × compute ×
    /// algorithm in name order). Reads through the batch-shared store —
    /// prefer this (or the iterators) over [`points`](Self::points) when
    /// a contiguous slice isn't needed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if a streamed result did
    /// not store the point (only frontier and top-k indices are
    /// addressable then).
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` accessor; try_point is the checked sibling the serving tier uses")
    pub fn point(&self, index: usize) -> &QueryPoint {
        match self.streamed {
            Some(_) => &self.segments[0][self.row_pos(index)],
            None => self.at(self.point_ref(index)),
        }
    }

    /// Non-panicking [`point`](Self::point): `None` when `index` is out
    /// of range, or when a streamed result did not materialize the
    /// point (only frontier ∪ top-k indices are stored then). This is
    /// the accessor a serving tier should route client-supplied indices
    /// through — a bad request becomes a structured error, not a dead
    /// worker.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "every index is checked against len() or comes from a binary_search hit")
    pub fn try_point(&self, index: usize) -> Option<&QueryPoint> {
        if index >= self.len() {
            return None;
        }
        match &self.streamed {
            Some(meta) => Some(&self.segments[0][meta.stored.binary_search(&index).ok()?]),
            None => Some(self.at(self.point_ref(index))),
        }
    }

    /// Non-panicking [`points`](Self::points): `None` for a streamed
    /// result, whose full point list was never materialized (use
    /// [`stored_indices`](Self::stored_indices) with
    /// [`try_point`](Self::try_point) instead).
    #[must_use]
    pub fn try_points(&self) -> Option<&[QueryPoint]> {
        if self.streamed.is_some() {
            return None;
        }
        Some(self.points())
    }

    /// Non-panicking [`row`](Self::row): the objective values of point
    /// `index` across the columns, `None` when the index is out of
    /// range or unstored in a streamed result.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "row index is a binary_search hit or checked against len(); columns are row-aligned")
    pub fn try_row(&self, index: usize) -> Option<Vec<f64>> {
        if index >= self.len() {
            return None;
        }
        let r = match &self.streamed {
            Some(meta) => meta.stored.binary_search(&index).ok()?,
            None => index,
        };
        Some(self.columns.iter().map(|c| c[r]).collect())
    }

    /// Every kept point as a contiguous slice, in enumeration order.
    /// When this result shares a batch's point store and kept only a
    /// subset, the slice is materialized lazily on first call (and
    /// cached); [`point`](Self::point), [`iter_points`](Self::iter_points)
    /// and the ranked/paged accessors never pay that copy.
    ///
    /// # Panics
    ///
    /// Panics on a streamed result — the full point list was never
    /// materialized. Use [`stored_indices`](Self::stored_indices) with
    /// [`point`](Self::point), or [`iter_points`](Self::iter_points),
    /// which yields the stored subset.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "segment 0 always exists; kept refs were built in-range by the enumeration pass")
    pub fn points(&self) -> &[QueryPoint] {
        assert!(
            self.streamed.is_none(),
            "a streamed result set does not materialize every point; \
             use stored_indices()/point(i) or iter_points()"
        );
        match &self.kept {
            None => &self.segments[0],
            Some(kept) => self
                .points_cache
                .get_or_init(|| kept.iter().map(|&r| *self.at(r)).collect()),
        }
    }

    /// Iterates the stored points in enumeration order, reading through
    /// the shared store. For a materializing result that is every kept
    /// point; for a streamed one, the stored (frontier ∪ top-k) subset.
    pub fn iter_points(&self) -> impl Iterator<Item = &QueryPoint> {
        (0..self.rows_len()).map(|r| self.point(self.row_global(r)))
    }

    /// Number of points the plan kept. In streamed mode this is the
    /// logical count — how many candidates passed the constraints — not
    /// the (much smaller) number of stored points.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "segments is never empty: every constructor seeds segment 0")
    pub fn len(&self) -> usize {
        if let Some(meta) = &self.streamed {
            return meta.total_kept;
        }
        self.kept.as_ref().map_or(self.segments[0].len(), Vec::len)
    }

    /// Whether the result holds no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous value column of the objective at `position` in
    /// [`objectives`](Self::objectives). In streamed mode the column
    /// holds only the stored rows, aligned with
    /// [`stored_indices`](Self::stored_indices).
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; column_for is the checked sibling")
    pub fn column(&self, position: usize) -> &[f64] {
        &self.columns[position]
    }

    /// The value column of `objective`, if the plan carried it.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "position comes from iter().position over the same objectives vec")
    pub fn column_for(&self, objective: Objective) -> Option<&[f64]> {
        self.objectives
            .iter()
            .position(|&o| o == objective)
            .map(|pos| self.columns[pos].as_slice())
    }

    /// The value of point `index` under the objective at `position`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range, or if a streamed result
    /// did not store the point.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; the row index is validated by row_pos")
    pub fn value(&self, index: usize, position: usize) -> f64 {
        self.columns[position][self.row_pos(index)]
    }

    /// The objective values of point `index` gathered across the
    /// columns, aligned with [`objectives`](Self::objectives).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range, or if a streamed result did
    /// not store the point.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "row index validated by row_pos; columns are row-aligned")
    pub fn row(&self, index: usize) -> Vec<f64> {
        let r = self.row_pos(index);
        self.columns.iter().map(|c| c[r]).collect()
    }

    /// Indices (into [`points`](Self::points)) of the Pareto frontier
    /// over all objectives jointly, ascending. Only feasible points with
    /// finite objective values participate.
    #[must_use]
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// The frontier as points, in enumeration order.
    pub fn frontier_points(&self) -> impl Iterator<Item = &QueryPoint> {
        self.frontier.iter().map(|&i| self.point(i))
    }

    /// The rank comparator ([`crate::shard`]'s rank order) over point
    /// indices.
    // analyze::allow(indexing, scope = "fn", reason = "comparator only sees indices < len() produced by the ranking loops")
    fn rank_cmp(&self, a: usize, b: usize) -> Ordering {
        let key = |i: usize| (self.point(i).outcome.feasible, self.columns[0][i], i);
        crate::shard::rank_cmp(self.objectives[0].maximize(), key(a), key(b))
    }

    /// Indices of all points ranked best-first: feasible before
    /// infeasible, then by the **primary** (first) objective; ties keep
    /// enumeration order. Materializes and sorts the full index vector —
    /// prefer [`top_k`](Self::top_k) when only the head is needed.
    ///
    /// A streamed result returns its bounded top-k ranking (at most
    /// [`crate::shard::STREAM_TOP_K`] indices) — the exact prefix of
    /// what the full ranking would have been.
    #[must_use]
    pub fn ranked(&self) -> Vec<usize> {
        if let Some(meta) = &self.streamed {
            return meta.topk.clone();
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self.rank_cmp(a, b));
        order
    }

    /// The best `k` point indices in rank order, selected with a bounded
    /// heap in O(n log k) — no full sort, no O(n) ranking allocation
    /// beyond the heap. Equals `ranked()[..k]` exactly (including tie
    /// order). `k` larger than the result just returns the full ranking.
    ///
    /// A streamed result serves the prefix of its bounded top-k
    /// ranking; `k` beyond [`crate::shard::STREAM_TOP_K`] clamps to
    /// what was kept.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "slice bound is clamped to the stored top-k length first")
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        if let Some(meta) = &self.streamed {
            return meta.topk[..k.min(meta.topk.len())].to_vec();
        }
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        // Max-heap ordered worst-first via `Reverse`-free trick: the heap
        // key inverts the rank comparator, so `peek` is the worst kept
        // index and a better candidate evicts it.
        struct Key<'a> {
            set: &'a ResultSet,
            index: usize,
        }
        impl PartialEq for Key<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.index == other.index
            }
        }
        impl Eq for Key<'_> {}
        impl PartialOrd for Key<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Greater = worse, so BinaryHeap's max is the eviction
                // candidate.
                self.set.rank_cmp(self.index, other.index)
            }
        }
        let mut heap: BinaryHeap<Key<'_>> = BinaryHeap::with_capacity(k + 1);
        for index in 0..self.len() {
            let key = Key { set: self, index };
            if heap.len() < k {
                heap.push(key);
            } else if let Some(worst) = heap.peek() {
                if key.cmp(worst) == Ordering::Less {
                    heap.pop();
                    heap.push(key);
                }
            }
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|k| k.index)
            .collect()
    }

    /// The best feasible point by the primary objective, if any —
    /// bounded-heap selection, no full ranking.
    #[must_use]
    pub fn best(&self) -> Option<&QueryPoint> {
        self.top_k(1)
            .first()
            .map(|&i| self.point(i))
            .filter(|p| p.outcome.feasible)
    }

    /// One fixed-size window of the result, for paged serving.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (`offset` past the end just yields an
    /// empty page).
    #[must_use]
    pub fn page(&self, offset: usize, limit: usize) -> ResultPage<'_> {
        assert!(limit > 0, "page limit must be positive");
        let start = offset.min(self.len());
        let end = offset.saturating_add(limit).min(self.len());
        ResultPage {
            set: self,
            start,
            end,
        }
    }

    /// Iterates the whole result as consecutive pages of at most
    /// `limit` points, in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn pages(&self, limit: usize) -> impl Iterator<Item = ResultPage<'_>> {
        assert!(limit > 0, "page limit must be positive");
        (0..self.len().div_ceil(limit)).map(move |p| self.page(p * limit, limit))
    }

    /// Sensor × compute × algorithm combinations skipped **per airframe
    /// and knob setting** because the platform × algorithm pair was never
    /// characterized.
    #[must_use]
    pub fn uncharacterized(&self) -> usize {
        self.uncharacterized
    }

    /// Number of evaluated points rejected by the plan's constraints.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of **feasible** points whose objective row contains a
    /// non-finite value (e.g. [`Objective::MissionEnergyWhPerKm`] at a
    /// vanishing achieved velocity → `+∞`). Such points stay in
    /// [`points`](Self::points) and the ranked report but cannot
    /// participate in the frontier, which is defined over finite keys
    /// only — this counter is the accounting for that exclusion, so no
    /// feasible point ever vanishes silently.
    #[must_use]
    pub fn nonfinite(&self) -> usize {
        self.nonfinite
    }

    /// The tier-2 simulation block, when this result was produced by a
    /// plan with sim objectives on a session with a
    /// [`Tier2Evaluator`](crate::tier2::Tier2Evaluator) installed.
    #[must_use]
    pub fn sim(&self) -> Option<&SimBlock> {
        self.sim.as_ref()
    }

    /// Returns this result with `block` attached as its tier-2 sim
    /// block (session-internal: the block is computed once per
    /// `(plan key, epoch)` and memoized with the result).
    pub(crate) fn with_sim(mut self, block: SimBlock) -> Self {
        self.sim = Some(block);
        self
    }

    /// The tier-1 **survivor set** a tier-2 pass simulates: Pareto
    /// frontier ∪ the best `budget` ranked indices, deduplicated,
    /// ascending. Works identically in materializing and streamed mode
    /// for `budget ≤ `[`STREAM_TOP_K`](crate::shard::STREAM_TOP_K) —
    /// a streamed result stores exactly frontier ∪ top-k, so every
    /// survivor is addressable via [`point`](Self::point)/[`value`](Self::value).
    #[must_use]
    pub fn survivors(&self, budget: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.frontier.clone();
        out.extend(self.top_k(budget));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The frontier's input domain: minimized objective-key rows
    /// (maximize objectives negated) for every feasible point with
    /// finite values, plus the map from key-row position back to the
    /// index in [`points`](Self::points). This is exactly what
    /// [`frontier`](Self::frontier) was computed from — benchmarks and
    /// tests that compare skyline algorithms against the naive scan
    /// should extract keys through here so they keep measuring the
    /// production path. Feasible points skipped for non-finite rows are
    /// counted by [`nonfinite`](Self::nonfinite).
    ///
    /// # Panics
    ///
    /// Panics on a streamed result: the full key domain was reduced
    /// shard-by-shard and never materialized.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "i < len() and columns are row-aligned with the point list")
    pub fn minimized_keys(&self) -> (Vec<f64>, Vec<usize>) {
        assert!(
            self.streamed.is_none(),
            "a streamed result set never materialized its full frontier key domain"
        );
        let mut keys = Vec::new();
        let mut map = Vec::new();
        'points: for i in 0..self.len() {
            let point = self.point(i);
            if !point.outcome.feasible {
                continue;
            }
            for column in &self.columns {
                if !column[i].is_finite() {
                    continue 'points;
                }
            }
            map.push(i);
            keys.extend(self.columns.iter().zip(&self.objectives).map(|(c, o)| {
                if o.maximize() {
                    -c[i]
                } else {
                    c[i]
                }
            }));
        }
        (keys, map)
    }

    /// Serializes the result for serving: a self-describing JSON
    /// document with the objective schema, the per-objective value
    /// columns (column-major, `null` for non-finite values — JSON has
    /// no `Infinity`), the catalog-resolved build identity of every
    /// point, the frontier indices and the accounting counters. The
    /// catalog must be the one the plan executed against.
    ///
    /// A streamed result exports its stored (frontier ∪ top-k) rows
    /// plus a `"stored"` array mapping each row to its global index
    /// (`"count"` stays the logical kept count), so consumers can tell
    /// the modes apart.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "pos enumerates self.objectives; columns are objective-aligned by construction")
    pub fn to_json(&self, catalog: &Catalog) -> String {
        let number = |v: f64| fmt_number(v).unwrap_or_else(|| "null".to_owned());
        let mut out = String::with_capacity(64 + self.len() * 96);
        out.push_str("{\n  \"objectives\": [");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": {}, \"unit\": {}, \"maximize\": {}}}",
                quote(o.label()),
                quote(o.unit()),
                o.maximize()
            ));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"count\": {}, \"dropped\": {}, \"uncharacterized\": {}, \"nonfinite\": {},\n",
            self.len(),
            self.dropped,
            self.uncharacterized,
            self.nonfinite
        ));
        if let Some(meta) = &self.streamed {
            out.push_str("  \"stored\": [");
            for (i, g) in meta.stored.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&g.to_string());
            }
            out.push_str("],\n");
        }
        out.push_str("  \"columns\": {");
        for (pos, objective) in self.objectives.iter().enumerate() {
            if pos > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote(objective.label()));
            out.push_str(": [");
            for (i, v) in self.columns[pos].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&number(*v));
            }
            out.push(']');
        }
        out.push_str("},\n  \"builds\": [");
        for i in 0..self.rows_len() {
            let point = self.point(self.row_global(i));
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"airframe\": ");
            out.push_str(&quote(catalog.airframe_by_id(point.airframe).name()));
            out.push_str(", \"sensor\": ");
            out.push_str(&quote(catalog.sensor_by_id(point.candidate.sensor).name()));
            out.push_str(", \"compute\": ");
            out.push_str(&quote(
                catalog.compute_by_id(point.candidate.compute).name(),
            ));
            out.push_str(", \"algorithm\": ");
            out.push_str(&quote(
                catalog.algorithm_by_id(point.candidate.algorithm).name(),
            ));
            out.push_str(&format!(", \"feasible\": {}", point.outcome.feasible));
            if !point.setting.is_identity() {
                let s = &point.setting;
                out.push_str(&format!(
                    ", \"setting\": {{\"tdp_scale\": {}, \"sensor_rate_scale\": {}, \
                     \"sensor_range_scale\": {}, \"payload_delta_g\": {}, \
                     \"weight_scale\": {}, \"rotor_pull_scale\": {}}}",
                    number(s.tdp_scale),
                    number(s.sensor_rate_scale),
                    number(s.sensor_range_scale),
                    number(s.payload_delta.get()),
                    number(s.weight_scale),
                    number(s.rotor_pull_scale),
                ));
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"frontier\": [");
        for (i, f) in self.frontier.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_string());
        }
        out.push(']');
        if let Some(sim) = &self.sim {
            out.push_str(",\n  \"sim\": {\n    \"objectives\": [");
            for (i, o) in sim.objectives.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"label\": {}, \"maximize\": {}}}",
                    quote(o.label()),
                    o.maximize()
                ));
            }
            out.push_str("],\n    \"survivors\": [");
            for (i, row) in sim.rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"id\": {}, \"index\": {}, \"values\": [",
                    row.candidate_id, row.index
                ));
                for (j, v) in row.values.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&number(*v));
                }
                out.push_str("]}");
            }
            out.push_str("\n    ],\n    \"report\": [");
            for (i, entry) in sim.report.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"objective\": {}, \"analytic\": {}, \"tau\": {}, \
                     \"agreement\": {}, \"outliers\": [{}]}}",
                    quote(entry.objective.label()),
                    quote(entry.analytic.label()),
                    number(entry.tau),
                    number(entry.agreement),
                    entry
                        .outliers
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
            out.push_str("\n    ]\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// One fixed-size window of a [`ResultSet`], for paged serving.
#[derive(Debug, Clone, Copy)]
pub struct ResultPage<'a> {
    set: &'a ResultSet,
    start: usize,
    end: usize,
}

impl<'a> ResultPage<'a> {
    /// Index of the first point in this page.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.start
    }

    /// Number of points in this page.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the page is empty (offset past the end).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The page's points, in enumeration order (materializes the parent
    /// result's contiguous point list on first access — see
    /// [`ResultSet::points`]).
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "page bounds were clamped to the result length in page()")
    pub fn points(&self) -> &'a [QueryPoint] {
        &self.set.points()[self.start..self.end]
    }

    /// The page's slice of an objective's value column.
    ///
    /// # Panics
    ///
    /// Panics if `position` is out of range.
    #[must_use]
    // analyze::allow(indexing, scope = "fn", reason = "documented `# Panics` contract; page bounds clamped in page()")
    pub fn column(&self, position: usize) -> &'a [f64] {
        &self.set.columns[position][self.start..self.end]
    }

    /// Iterates `(result index, point)` pairs of the page.
    pub fn rows(self) -> impl Iterator<Item = (usize, &'a QueryPoint)> {
        let start = self.start;
        self.points()
            .iter()
            .enumerate()
            .map(move |(i, p)| (start + i, p))
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// Segment-count threshold past which [`Session::refresh`] compacts a
/// repaired result's spliced point store back into one contiguous
/// segment. Each delta repair adds roughly one segment per slab pass;
/// compaction bounds the indirection long-lived sessions accumulate
/// while keeping the amortized copy cost a small fraction of repairs.
pub const COMPACT_SEGMENT_THRESHOLD: usize = 8;

/// Cache accounting of a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan lookups served from the memo cache.
    pub hits: u64,
    /// Plan lookups that required a pass.
    pub misses: u64,
    /// Completed results currently held.
    pub entries: usize,
    /// Entries dropped by the LRU size cap (see
    /// [`Session::with_cache_capacity`]).
    pub evictions: u64,
    /// Results produced by incremental delta repair
    /// ([`Session::refresh`]) instead of a cold pass.
    pub repairs: u64,
}

/// One memoized result with its last-used tick (for LRU eviction).
#[derive(Debug)]
struct MemoSlot {
    result: Arc<ResultSet>,
    tick: u64,
}

/// The session memo cache: results keyed by
/// `(canonical plan key, catalog epoch)`, with optional size-capped LRU
/// eviction. Epochs nest under the plan key so
/// [`Session::refresh`] can find the newest older-epoch result to
/// repair from without scanning the whole cache.
#[derive(Debug, Default)]
struct MemoCache {
    plans: HashMap<String, BTreeMap<u64, MemoSlot>>,
    len: usize,
    capacity: Option<usize>,
    tick: u64,
    evictions: u64,
}

impl MemoCache {
    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, key: &str, epoch: u64) -> Option<Arc<ResultSet>> {
        let tick = self.bump();
        let slot = self.plans.get_mut(key)?.get_mut(&epoch)?;
        slot.tick = tick;
        Some(Arc::clone(&slot.result))
    }

    /// The newest cached result of this plan at an epoch strictly before
    /// `epoch` — the repair source for [`Session::refresh`].
    fn newest_before(&mut self, key: &str, epoch: u64) -> Option<(u64, Arc<ResultSet>)> {
        let tick = self.bump();
        let (&found, slot) = self.plans.get_mut(key)?.range_mut(..epoch).next_back()?;
        slot.tick = tick;
        Some((found, Arc::clone(&slot.result)))
    }

    fn insert(&mut self, key: &str, epoch: u64, result: Arc<ResultSet>) {
        let tick = self.bump();
        let by_epoch = self.plans.entry(key.to_owned()).or_default();
        if by_epoch.insert(epoch, MemoSlot { result, tick }).is_none() {
            self.len += 1;
        }
        if let Some(capacity) = self.capacity {
            while self.len > capacity {
                self.evict_lru();
            }
        }
    }

    /// Drops the least-recently-used entry (linear scan: capped caches
    /// are small, and eviction is off the lookup fast path). Only the
    /// victim's plan key is cloned. Tick ties break on `(key, epoch)`
    /// so the victim does not depend on hash iteration order.
    fn evict_lru(&mut self) {
        let victim = self
            .plans
            // analyze::allow(determinism, reason = "min over a total order (tick, key, epoch) — hash iteration order cannot change the victim")
            .iter()
            .flat_map(|(key, by_epoch)| {
                by_epoch
                    .iter()
                    .map(move |(&epoch, slot)| (slot.tick, key, epoch))
            })
            .min_by_key(|&(tick, key, epoch)| (tick, key, epoch))
            .map(|(_, key, epoch)| (key.clone(), epoch));
        if let Some((key, epoch)) = victim {
            // analyze::allow(panic, reason = "victim key was read from this map under &mut self — no concurrent removal possible")
            let by_epoch = self.plans.get_mut(&key).expect("victim key exists");
            by_epoch.remove(&epoch);
            if by_epoch.is_empty() {
                self.plans.remove(&key);
            }
            self.len -= 1;
            self.evictions += 1;
        }
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.len = 0;
    }
}

/// One epoch's execution snapshot: the pinned catalog plus everything a
/// pass derives from it once (active id lists in name order, the dense
/// throughput table). Sessions build one per epoch they touch and share
/// it across runs.
#[derive(Debug)]
pub(crate) struct EpochState {
    pub(crate) snapshot: EpochSnapshot,
    pub(crate) airframes: Vec<AirframeId>,
    pub(crate) sensors: Vec<SensorId>,
    pub(crate) computes: Vec<ComputeId>,
    pub(crate) algorithms: Vec<AlgorithmId>,
    pub(crate) table: ThroughputTable,
}

impl EpochState {
    fn new(snapshot: EpochSnapshot) -> Self {
        let catalog = snapshot.catalog();
        Self {
            airframes: catalog.airframe_entries().map(|(id, _)| id).collect(),
            sensors: catalog.sensor_entries().map(|(id, _)| id).collect(),
            computes: catalog.compute_entries().map(|(id, _)| id).collect(),
            algorithms: catalog.algorithm_entries().map(|(id, _)| id).collect(),
            table: catalog.throughput_table(),
            snapshot,
        }
    }

    pub(crate) fn catalog(&self) -> &Arc<Catalog> {
        self.snapshot.catalog()
    }

    /// Borrows this state as the tier-1 executor's pass context.
    fn pass_context(&self) -> PassContext<'_> {
        PassContext {
            catalog: self.catalog(),
            airframes: &self.airframes,
            sensors: &self.sensors,
            computes: &self.computes,
            algorithms: &self.algorithms,
            table: &self.table,
        }
    }

    pub(crate) fn epoch(&self) -> CatalogEpoch {
        self.snapshot.epoch()
    }
}

/// A shared, thread-safe query-execution service over a **versioned**
/// catalog store.
///
/// A session binds to a [`CatalogStore`] rather than one catalog: every
/// published [`CatalogEpoch`] is an immutable `Arc<Catalog>` snapshot,
/// and the session derives one execution state per epoch it touches
/// (active id lists in name order, dense throughput table). Every plan
/// evaluates under the paper-calibrated heatsink model and the default
/// knee saturation, as [`dse::evaluate_parts`](crate::dse::evaluate_parts)
/// does. The session is `Send + Sync` and free of lifetimes: clone the
/// `Arc`s, move it into a server, share it across threads.
///
/// * [`run`](Self::run) executes at the store's **current** epoch;
///   [`run_at`](Self::run_at) pins any published epoch.
/// * Results are memoized by `(plan key, epoch)`, optionally size-capped
///   with LRU eviction ([`with_cache_capacity`](Self::with_cache_capacity)).
/// * [`refresh`](Self::refresh) brings a plan to the current epoch by
///   **incrementally repairing** the newest cached older-epoch result
///   across the catalog delta: only net-new candidates are evaluated,
///   retired candidates are masked out, and the frontier is merged —
///   exactly (bit-identical to a cold run), at a fraction of the cost
///   for small deltas.
///
/// See the [module docs](self) for the shared-pass and caching
/// semantics, and [`QueryPlan`] for the owned request type.
#[derive(Debug)]
pub struct Session {
    store: Arc<CatalogStore>,
    states: Mutex<HashMap<u64, Arc<EpochState>>>,
    cache: Mutex<MemoCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    repairs: AtomicU64,
    /// The tier-2 evaluation hook for plans with sim objectives; `None`
    /// (the default) fails such plans with [`SkylineError::Tier2`].
    tier2: Option<SharedTier2>,
    sim_evaluations: AtomicU64,
    sim_survivors: AtomicU64,
    sim_trials: AtomicU64,
    sim_reused: AtomicU64,
    sim_millis: AtomicU64,
}

impl Session {
    /// Opens a session over a single shared catalog (a private
    /// single-epoch store; use [`over`](Self::over) to share a store —
    /// and its delta stream — between sessions).
    #[must_use]
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::over(Arc::new(CatalogStore::from_shared(catalog)))
    }

    /// Opens a session bound to a shared versioned catalog store.
    #[must_use]
    pub fn over(store: Arc<CatalogStore>) -> Self {
        Self {
            store,
            states: Mutex::new(HashMap::new()),
            cache: Mutex::new(MemoCache::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            tier2: None,
            sim_evaluations: AtomicU64::new(0),
            sim_survivors: AtomicU64::new(0),
            sim_trials: AtomicU64::new(0),
            sim_reused: AtomicU64::new(0),
            sim_millis: AtomicU64::new(0),
        }
    }

    /// Installs the tier-2 evaluation hook: plans declaring
    /// [`SimObjective`](crate::plan::SimObjective)s have their tier-1
    /// survivor set simulated by `evaluator` and the resulting
    /// [`SimBlock`] merged into the memoized result (see
    /// [`crate::tier2`]). Without an evaluator such plans fail with
    /// [`SkylineError::Tier2`]; pure analytic plans never invoke it.
    #[must_use]
    pub fn with_tier2(mut self, evaluator: SharedTier2) -> Self {
        self.tier2 = Some(evaluator);
        self
    }

    /// Caps the memo cache at `capacity` results, evicting the
    /// least-recently-used entry past the cap
    /// ([`CacheStats::evictions`] counts drops). Uncapped by default.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .capacity = Some(capacity);
        self
    }

    /// The versioned catalog store this session executes against.
    #[must_use]
    pub fn store(&self) -> &Arc<CatalogStore> {
        &self.store
    }

    /// The catalog of the store's current epoch.
    #[must_use]
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(self.store.current().catalog())
    }

    /// The store's current epoch.
    #[must_use]
    pub fn epoch(&self) -> CatalogEpoch {
        self.store.current_epoch()
    }

    /// How many per-epoch execution states a session retains. States
    /// are derived data (rebuildable from the store at any time), so a
    /// session following a rolling stream of catalog deltas stays
    /// bounded: the oldest epochs' states are dropped past the cap and
    /// transparently rebuilt if an old epoch is pinned again.
    const MAX_EPOCH_STATES: usize = 8;

    /// The execution state for an epoch snapshot, derived once and
    /// shared across runs (until evicted by [`Self::MAX_EPOCH_STATES`]).
    fn state_for(&self, snapshot: &EpochSnapshot) -> Arc<EpochState> {
        let mut states = self
            .states
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = Arc::clone(
            states
                .entry(snapshot.epoch().get())
                .or_insert_with(|| Arc::new(EpochState::new(snapshot.clone()))),
        );
        while states.len() > Self::MAX_EPOCH_STATES {
            // analyze::allow(panic, reason = "an entry was inserted into this map a few lines above")
            let oldest = *states.keys().min().expect("map is non-empty");
            states.remove(&oldest);
        }
        state
    }

    fn current_state(&self) -> Arc<EpochState> {
        self.state_for(&self.store.current())
    }

    fn state_at(&self, epoch: CatalogEpoch) -> Result<Arc<EpochState>, SkylineError> {
        match self.store.at(epoch) {
            Some(snapshot) => Ok(self.state_for(&snapshot)),
            None => Err(SkylineError::UnknownEpoch {
                requested: epoch.get(),
                latest: self.store.current_epoch().get(),
            }),
        }
    }

    /// Runs the tier-2 hook for a plan with sim objectives and attaches
    /// the returned [`SimBlock`] to `result`; pass-through for pure
    /// analytic plans. `prior` is the cached result a delta repair
    /// started from, letting the evaluator reuse sim rows of survivors
    /// whose tier-1 point is unchanged.
    fn attach_tier2(
        &self,
        plan: &QueryPlan,
        state: &EpochState,
        result: ResultSet,
        prior: Option<&ResultSet>,
    ) -> Result<ResultSet, SkylineError> {
        if !plan.has_tier2() {
            return Ok(result);
        }
        let Some(evaluator) = &self.tier2 else {
            return Err(SkylineError::Tier2 {
                reason: "plan declares sim objectives but this session has no tier-2 \
                         evaluator installed (see Session::with_tier2; the f1-sim crate \
                         provides the flightsim/pipeline-backed implementation)"
                    .to_owned(),
            });
        };
        // Wall-clock feeds only the sim_millis counter, never result bytes.
        let started = std::time::Instant::now();
        let evaluation = evaluator.evaluate(&Tier2Context {
            catalog: state.catalog(),
            plan,
            result: &result,
            prior,
        })?;
        self.sim_evaluations.fetch_add(1, AtomicOrdering::Relaxed);
        self.sim_survivors
            .fetch_add(evaluation.block.rows.len() as u64, AtomicOrdering::Relaxed);
        self.sim_trials
            .fetch_add(evaluation.usage.trials, AtomicOrdering::Relaxed);
        self.sim_reused
            .fetch_add(evaluation.usage.reused_rows, AtomicOrdering::Relaxed);
        self.sim_millis.fetch_add(
            started.elapsed().as_millis() as u64,
            AtomicOrdering::Relaxed,
        );
        Ok(result.with_sim(evaluation.block))
    }

    /// Cache read with no hit/miss accounting.
    fn peek(&self, key: &str, epoch: u64) -> Option<Arc<ResultSet>> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key, epoch)
    }

    fn insert(&self, key: &str, epoch: u64, result: Arc<ResultSet>) {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, epoch, result);
    }

    /// Executes one plan at the store's **current** epoch: a memo-cache
    /// lookup by `(`[canonical key](QueryPlan::key)`, epoch)` first, one
    /// sharded pass on a miss. The cached `Arc` is returned as-is, so
    /// repeated queries are pointer-identical — bit-identical objective
    /// rows and frontier indices by construction.
    ///
    /// # Errors
    ///
    /// [`SkylineError::PlanCatalog`] when the plan's ids don't belong to
    /// this session's catalog, [`SkylineError::KnobVariant`] when a
    /// sweep value produces an out-of-domain part variant (both strictly
    /// before the pass), plus any evaluation error, propagated
    /// deterministically in enumeration order.
    pub fn run(&self, plan: &QueryPlan) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.current_state();
        self.run_at_state(plan, &state)
    }

    /// Executes one plan pinned at a published epoch — historical
    /// queries stay reproducible after the catalog moves on. Memoized
    /// like [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// [`SkylineError::UnknownEpoch`] when the store never published
    /// `epoch`, plus everything [`run`](Self::run) can produce.
    pub fn run_at(
        &self,
        plan: &QueryPlan,
        epoch: CatalogEpoch,
    ) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.state_at(epoch)?;
        self.run_at_state(plan, &state)
    }

    fn run_at_state(
        &self,
        plan: &QueryPlan,
        state: &EpochState,
    ) -> Result<Arc<ResultSet>, SkylineError> {
        let epoch = state.epoch().get();
        if let Some(hit) = self.peek(plan.key(), epoch) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let mut results = run_plans(&state.pass_context(), &[plan])?;
        // analyze::allow(panic, reason = "run_plans returns exactly one result per input plan")
        let result = results.pop().expect("one plan in, one result out");
        let result = Arc::new(self.attach_tier2(plan, state, result, None)?);
        self.insert(plan.key(), epoch, Arc::clone(&result));
        Ok(result)
    }

    /// Brings a plan's result to the store's **current** epoch, reusing
    /// work from earlier epochs:
    ///
    /// 1. current-epoch cache hit → returned as-is;
    /// 2. a cached result at an older epoch → **incrementally
    ///    repaired** across the catalog delta: survivors keep their
    ///    evaluated outcomes, retired candidates are masked out, only
    ///    net-new/re-characterized candidates run through the sharded
    ///    pass, and the frontier is merged — the result is
    ///    **bit-identical** to a cold run at the current epoch
    ///    (property-tested), and counted in [`CacheStats::repairs`];
    /// 3. otherwise a cold pass.
    ///
    /// The repaired result is memoized at the current epoch like any
    /// other.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn refresh(&self, plan: &QueryPlan) -> Result<Arc<ResultSet>, SkylineError> {
        let state = self.current_state();
        let epoch = state.epoch().get();
        if let Some(hit) = self.peek(plan.key(), epoch) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok(hit);
        }
        let source = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .newest_before(plan.key(), epoch);
        if let Some((old_epoch, cached)) = source {
            // The source epoch is still resolvable (stores retain every
            // epoch) unless the cache outlived a different store — then
            // fall through to a cold run.
            if let Ok(old_state) = self.state_at(CatalogEpoch::from_raw(old_epoch)) {
                match crate::repair::repair_result(
                    &old_state,
                    &state,
                    &state.pass_context(),
                    plan,
                    &cached,
                )? {
                    crate::repair::Repair::Unchanged => {
                        // The delta does not intersect the plan's design
                        // space: the cached result IS the current-epoch
                        // answer.
                        self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                        self.insert(plan.key(), epoch, Arc::clone(&cached));
                        return Ok(cached);
                    }
                    crate::repair::Repair::Repaired(result) => {
                        self.repairs.fetch_add(1, AtomicOrdering::Relaxed);
                        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                        // Chained refreshes splice ~#slabs segments into
                        // the point store per delta; past the threshold,
                        // fold them back into one contiguous segment
                        // (logically equal — only the layout changes) so
                        // long-lived sessions never accumulate unbounded
                        // segment indirection.
                        let result = if result.segment_count() > COMPACT_SEGMENT_THRESHOLD {
                            result.compacted()
                        } else {
                            *result
                        };
                        // Re-attach tier 2 with the prior result in
                        // hand: survivors whose tier-1 point is
                        // unchanged reuse their sim rows, everything
                        // else re-simulates — bit-identical to a cold
                        // run either way (seeds depend only on plan key
                        // and candidate identity).
                        let result =
                            Arc::new(self.attach_tier2(plan, &state, result, Some(&cached))?);
                        self.insert(plan.key(), epoch, Arc::clone(&result));
                        return Ok(result);
                    }
                    crate::repair::Repair::Cold => {}
                }
            }
        }
        self.run_at_state(plan, &state)
    }

    /// Probes the memo cache for a result by **canonical plan key** at
    /// the store's current epoch, without parsing the key or running
    /// anything — the serving fast path: an exact `(key, epoch)` repeat
    /// is answered straight from the cache before the request ever
    /// reaches a scheduler queue. Counts a [`CacheStats::hits`] on
    /// success; a probe miss is not counted (the eventual
    /// [`run`](Self::run)/[`run_batch`](Self::run_batch) will count the
    /// pass it pays).
    #[must_use]
    pub fn cached(&self, key: &str) -> Option<Arc<ResultSet>> {
        self.cached_at(key, self.store.current_epoch())
    }

    /// [`cached`](Self::cached) pinned at a specific epoch — what a
    /// server probes for requests admitted before a catalog delta
    /// landed.
    #[must_use]
    pub fn cached_at(&self, key: &str, epoch: CatalogEpoch) -> Option<Arc<ResultSet>> {
        let hit = self.peek(key, epoch.get());
        if hit.is_some() {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
        }
        hit
    }

    /// The distinct canonical plan keys currently memoized (at any
    /// epoch), sorted — cache introspection for a serving tier's
    /// background repair: after a catalog delta, each returned key can
    /// be [`refresh`](Self::refresh)ed to bring the hot entries forward
    /// off the request path. Sorting makes the repair order (and any
    /// log of it) reproducible run-to-run.
    #[must_use]
    pub fn cached_plan_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .plans
            // analyze::allow(determinism, reason = "collected then sorted below — hash order never escapes this fn")
            .keys()
            .cloned()
            .collect();
        keys.sort();
        keys
    }

    /// Exports every memoized result as
    /// `(plan key, epoch, catalog digest, result JSON)`, sorted by
    /// `(plan key, epoch)` — the warm-cache **spill** feed for a durable
    /// serving tier: persisted on shutdown and re-served byte-identically
    /// after a restart without re-running any physics. The digest is the
    /// epoch's [`EpochSnapshot::digest`], letting the restore side trust
    /// an entry only if its recovered catalog reproduces the same
    /// digest. Entries whose epoch is no longer resolvable in the store
    /// are skipped.
    #[must_use]
    pub fn export_cache(&self) -> Vec<(String, u64, u64, String)> {
        let mut entries: Vec<(String, u64, Arc<ResultSet>)> = {
            let cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache
                .plans
                // analyze::allow(determinism, reason = "collected then sorted below — hash order never escapes this fn")
                .iter()
                .flat_map(|(key, by_epoch)| {
                    by_epoch
                        .iter()
                        .map(move |(&epoch, slot)| (key.clone(), epoch, Arc::clone(&slot.result)))
                })
                .collect()
        };
        entries.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        let mut out = Vec::with_capacity(entries.len());
        for (key, epoch, result) in entries {
            let Some(snapshot) = self.store.at(CatalogEpoch::from_raw(epoch)) else {
                continue;
            };
            out.push((
                key,
                epoch,
                snapshot.digest(),
                result.to_json(snapshot.catalog()),
            ));
        }
        out
    }

    /// Executes a batch of plans (at the current epoch) in as few sharded
    /// passes as their evaluation signatures allow — plans over the same
    /// subspace, knob settings and battery share **one** enumeration +
    /// evaluation, with each plan's constraints and objective rows
    /// applied in-pass. Cached plans are served from the memo cache
    /// without joining a pass; duplicate plans within the batch are
    /// deduplicated by canonical key. Results come back aligned with
    /// `plans`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); the first error aborts the batch.
    pub fn run_batch(&self, plans: &[QueryPlan]) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        self.run_batch_state(plans, &self.current_state())
    }

    /// [`run_batch`](Self::run_batch) pinned at a published epoch — the
    /// scheduler-side batch admission hook: a micro-batching server
    /// groups concurrently admitted requests by their admission epoch
    /// and coalesces each group into one shared pass, so a catalog
    /// delta published mid-window never bleeds into results admitted
    /// before it.
    ///
    /// # Errors
    ///
    /// [`SkylineError::UnknownEpoch`] when the store never published
    /// `epoch`, plus everything [`run_batch`](Self::run_batch) can
    /// produce.
    pub fn run_batch_at(
        &self,
        plans: &[QueryPlan],
        epoch: CatalogEpoch,
    ) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        let state = self.state_at(epoch)?;
        self.run_batch_state(plans, &state)
    }

    // analyze::allow(indexing, scope = "fn", reason = "i and j range over plans.len(); out is built with one slot per plan")
    // analyze::allow(panic, scope = "fn", reason = "every slot is provably filled: cached, computed, or twinned from its pending representative")
    fn run_batch_state(
        &self,
        plans: &[QueryPlan],
        state: &EpochState,
    ) -> Result<Vec<Arc<ResultSet>>, SkylineError> {
        let epoch = state.epoch().get();
        // Cache-served plans count a hit each; deduplicated uncached
        // work counts ONE miss per pass actually run, so the stats keep
        // meaning "lookups served" vs "passes paid".
        let mut out: Vec<Option<Arc<ResultSet>>> = plans
            .iter()
            .map(|p| {
                let hit = self.peek(p.key(), epoch);
                if hit.is_some() {
                    self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                }
                hit
            })
            .collect();
        // Dedup uncached work by canonical key.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..plans.len() {
            if out[i].is_none() && !pending.iter().any(|&j| plans[j].key() == plans[i].key()) {
                pending.push(i);
            }
        }
        if !pending.is_empty() {
            self.misses
                .fetch_add(pending.len() as u64, AtomicOrdering::Relaxed);
            let refs: Vec<&QueryPlan> = pending.iter().map(|&i| &plans[i]).collect();
            let results = run_plans(&state.pass_context(), &refs)?;
            for (&i, result) in pending.iter().zip(results) {
                let result = Arc::new(self.attach_tier2(&plans[i], state, result, None)?);
                self.insert(plans[i].key(), epoch, Arc::clone(&result));
                out[i] = Some(result);
            }
        }
        // Batch-internal duplicates resolve against the slots this very
        // batch just filled — never back through the shared cache, which
        // another thread may clear concurrently.
        for i in 0..plans.len() {
            if out[i].is_none() {
                let twin = pending
                    .iter()
                    .find(|&&j| plans[j].key() == plans[i].key())
                    .expect("every uncached plan has a pending representative");
                out[i] = out[*twin].clone();
            }
        }
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("every slot was cached, computed, or twinned"))
            .collect())
    }

    /// Cache accounting: lookups served ([`CacheStats::hits`]) vs passes
    /// run ([`CacheStats::misses`]), retained results, LRU evictions and
    /// incremental repairs.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            entries: cache.len,
            evictions: cache.evictions,
            repairs: self.repairs.load(AtomicOrdering::Relaxed),
        }
    }

    /// Tier-2 accounting: evaluations invoked, survivors simulated,
    /// trials paid, rows reused across delta repair, and wall-clock
    /// spent — all zero until a plan with sim objectives runs.
    #[must_use]
    pub fn sim_stats(&self) -> SimStats {
        SimStats {
            evaluations: self.sim_evaluations.load(AtomicOrdering::Relaxed),
            survivors: self.sim_survivors.load(AtomicOrdering::Relaxed),
            trials: self.sim_trials.load(AtomicOrdering::Relaxed),
            reused_rows: self.sim_reused.load(AtomicOrdering::Relaxed),
            millis: self.sim_millis.load(AtomicOrdering::Relaxed),
        }
    }

    /// Drops every memoized result (the hit/miss/eviction counters keep
    /// counting).
    pub fn clear_cache(&self) {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Constraint, Knob, KnobSweep};
    use f1_components::names;
    use f1_units::{MetersPerSecond, Watts};

    fn session() -> Session {
        Session::new(Arc::new(Catalog::paper()))
    }

    #[test]
    fn sessions_and_results_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<ResultSet>();
    }

    #[test]
    fn repeated_plans_hit_the_cache_pointer_identically() {
        let session = session();
        let plan = QueryPlan::builder().build().unwrap();
        let first = session.run(&plan).unwrap();
        let second = session.run(&plan).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        // A semantically equal plan built separately shares the key,
        // hence the entry.
        let rebuilt = QueryPlan::builder().build().unwrap();
        let third = session.run(&rebuilt).unwrap();
        assert!(Arc::ptr_eq(&first, &third));
        let stats = session.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));

        session.clear_cache();
        let fourth = session.run(&plan).unwrap();
        assert!(!Arc::ptr_eq(&first, &fourth));
        assert_eq!(*first, *fourth, "recomputation is deterministic");
    }

    #[test]
    fn batch_shares_a_pass_and_matches_standalone() {
        let session = session();
        let caps = [20.0, 10.0, 5.0, 2.0];
        // TDP-capped plans that rank TDP share one skyline; velocity
        // floors on plans that do not rank velocity are not
        // downward-closed, so those plans must not share one.
        let plans: Vec<QueryPlan> = caps
            .iter()
            .flat_map(|&w| {
                [
                    QueryPlan::builder()
                        .constraint(Constraint::MaxTotalTdp(Watts::new(w)))
                        .build()
                        .unwrap(),
                    QueryPlan::builder()
                        .objectives(&[Objective::TotalTdp, Objective::PayloadMass])
                        .constraint(Constraint::MinVelocity(MetersPerSecond::new(w / 4.0)))
                        .build()
                        .unwrap(),
                ]
            })
            .collect();
        let batch = session.run_batch(&plans).unwrap();
        assert_eq!(batch.len(), plans.len());
        for (plan, batched) in plans.iter().zip(&batch) {
            let standalone = Session::new(session.catalog()).run(plan).unwrap();
            assert_eq!(**batched, *standalone);
        }
        // The batch memoized every member.
        assert_eq!(session.cache_stats().entries, plans.len());
        for (plan, batched) in plans.iter().zip(&batch) {
            assert!(Arc::ptr_eq(batched, &session.run(plan).unwrap()));
        }
    }

    #[test]
    fn batch_dedups_identical_plans() {
        let session = session();
        let plan = QueryPlan::builder().build().unwrap();
        let twin = QueryPlan::builder().build().unwrap();
        let results = session.run_batch(&[plan, twin]).unwrap();
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(session.cache_stats().entries, 1);
    }

    #[test]
    fn batch_with_mixed_signatures_still_matches_standalone() {
        let catalog = Arc::new(Catalog::paper());
        let spark = catalog.airframe_id(names::DJI_SPARK).unwrap();
        let session = Session::new(Arc::clone(&catalog));
        let plans = vec![
            QueryPlan::builder().build().unwrap(),
            QueryPlan::builder().airframes(&[spark]).build().unwrap(),
            QueryPlan::builder()
                .sweep(KnobSweep::new(Knob::TdpScale, vec![1.0, 0.5]))
                .build()
                .unwrap(),
        ];
        let batch = session.run_batch(&plans).unwrap();
        for (plan, batched) in plans.iter().zip(&batch) {
            let standalone = Session::new(Arc::clone(&catalog)).run(plan).unwrap();
            assert_eq!(**batched, *standalone);
        }
    }

    #[test]
    fn foreign_ids_are_rejected_not_panicking() {
        let session = session();
        let plan = QueryPlan::builder()
            .airframes(&[AirframeId::from_index(10_000)])
            .build()
            .unwrap();
        match session.run(&plan).unwrap_err() {
            SkylineError::PlanCatalog {
                family,
                index,
                count,
            } => {
                assert_eq!(family, "airframe");
                assert_eq!(index, 10_000);
                assert_eq!(count, session.catalog().airframe_count());
            }
            other => panic!("expected PlanCatalog, got {other:?}"),
        }
        let plan = QueryPlan::builder()
            .battery(f1_components::BatteryId::from_index(9_999))
            .build()
            .unwrap();
        assert!(matches!(
            session.run(&plan).unwrap_err(),
            SkylineError::PlanCatalog {
                family: "battery",
                ..
            }
        ));
    }

    #[test]
    fn top_k_equals_ranked_prefix() {
        let result = session()
            .run(&QueryPlan::builder().build().unwrap())
            .unwrap();
        let ranked = result.ranked();
        for k in [0, 1, 2, 7, ranked.len(), ranked.len() + 5] {
            assert_eq!(result.top_k(k), &ranked[..k.min(ranked.len())], "k={k}");
        }
        assert_eq!(
            result.best().map(|p| p.candidate),
            ranked
                .first()
                .map(|&i| result.points()[i])
                .filter(|p| p.outcome.feasible)
                .map(|p| p.candidate)
        );
    }

    #[test]
    fn pages_tile_the_result_exactly() {
        let result = session()
            .run(&QueryPlan::builder().build().unwrap())
            .unwrap();
        let n = result.len();
        for limit in [1, 7, 64, n, n + 3] {
            let pages: Vec<_> = result.pages(limit).collect();
            assert_eq!(pages.len(), n.div_ceil(limit), "limit={limit}");
            let mut seen = 0usize;
            for page in &pages {
                assert_eq!(page.offset(), seen);
                assert!(page.len() <= limit);
                assert_eq!(page.points().len(), page.len());
                assert_eq!(page.column(0).len(), page.len());
                for (index, point) in page.rows() {
                    assert_eq!(point, &result.points()[index]);
                }
                seen += page.len();
            }
            assert_eq!(seen, n);
        }
        // Out-of-range page is empty, not a panic.
        assert!(result.page(n + 10, 5).is_empty());
    }

    #[test]
    fn json_export_is_well_formed() {
        let session = session();
        let plan = QueryPlan::builder()
            .objectives(&[Objective::SafeVelocity, Objective::MissionEnergyWhPerKm])
            .build()
            .unwrap();
        let result = session.run(&plan).unwrap();
        let json = result.to_json(&session.catalog());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"objectives\""));
        assert!(json.contains("\"velocity\": ["));
        assert!(json.contains("\"frontier\": ["));
        assert!(json.contains(&format!("\"count\": {}", result.len())));
        // Non-finite energies (infeasible builds) must be null, never
        // bare `inf`.
        assert!(!json.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness check; no JSON
        // parser in the offline stub set).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{open}{close}"
            );
        }
    }

    #[test]
    fn column_access_matches_rows() {
        let result = session()
            .run(
                &QueryPlan::builder()
                    .objectives(&[Objective::TotalTdp, Objective::SafeVelocity])
                    .build()
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(result.column(0).len(), result.len());
        assert_eq!(
            result.column_for(Objective::SafeVelocity).unwrap(),
            result.column(1)
        );
        assert!(result.column_for(Objective::PayloadMass).is_none());
        for i in 0..result.len().min(50) {
            assert_eq!(result.row(i), vec![result.value(i, 0), result.value(i, 1)]);
        }
    }
}
