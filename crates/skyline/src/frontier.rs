//! Pareto-skyline computation: O(n log n) sort-and-sweep frontiers.
//!
//! The DSE engine's original frontier was an O(n²) all-pairs dominance
//! scan — fine for the paper's ~10² candidates per airframe, hopeless for
//! the 10⁵–10⁶-candidate synthetic catalogs the ROADMAP targets. This
//! module provides the sort-based skyline the engine's
//! [`query`](crate::query) layer uses:
//!
//! * **2 objectives** — the classic sweep: sort lexicographically, keep a
//!   running minimum of the second key.
//! * **3 objectives** — sort by the first key and sweep a *staircase*
//!   (the running 2-D frontier of the remaining keys), maintained as a
//!   B-tree with O(log n) queries and amortized O(log n) inserts.
//! * **d ≥ 4 objectives** — a divide-and-conquer skyline: split the
//!   lexicographically sorted points in half, recurse, then strip the
//!   lex-later half's skyline of points dominated by the lex-earlier
//!   half's skyline with a dimension-reducing merge (Bentley's
//!   multidimensional divide and conquer), ~O(n·logᵈ⁻² n) instead of
//!   the old running-frontier fallback's O(n·f) — which survives as
//!   [`running_frontier_min`], the benchmarks' comparison arm.
//!
//! All functions use the **minimization** convention: a point dominates
//! another when it is ≤ in every key and < in at least one. Callers with
//! maximizing objectives (e.g. safe velocity) negate those keys. Ties and
//! exact duplicates are preserved exactly as the naive all-pairs scan
//! would keep them — duplicates do occur in real explorations (two
//! physics-bound algorithms on the same build share velocity, TDP and
//! payload) — and [`naive_pareto_min`] stays available as the reference
//! implementation for tests and benchmarks.
//!
//! Keys must be **finite**: NaN keys make the result unspecified (the
//! query layer filters non-finite outcomes before calling in, mirroring
//! the original engine's behavior). Negative zero is fine — keys are
//! normalized so `-0.0` and `+0.0` land in the same tie group, matching
//! the IEEE comparisons the naive scan uses.

use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Returns `true` when `a` dominates `b` under minimization: `a ≤ b` in
/// every key and `a < b` in at least one.
///
/// # Panics
///
/// Panics (debug) if the slices have different lengths.
#[must_use]
pub fn dominates_min(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strict = true;
        }
    }
    strict
}

fn point_count(dims: usize, keys: &[f64]) -> usize {
    assert!(dims > 0, "need at least one objective");
    assert_eq!(
        keys.len() % dims,
        0,
        "key buffer length must be a multiple of the dimension count"
    );
    keys.len() / dims
}

/// Reference O(n²) all-pairs Pareto scan (minimization convention).
///
/// `keys` is row-major: point `i` occupies `keys[i*dims .. (i+1)*dims]`.
/// Returns the indices of non-dominated points in ascending order. Kept
/// public as the ground truth for property tests and the "old frontier"
/// arm of the DSE benchmarks.
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn naive_pareto_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    let n = point_count(dims, keys);
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    (0..n)
        .filter(|&i| !(0..n).any(|j| dominates_min(row(j), row(i))))
        .collect()
}

/// Sort-based Pareto skyline (minimization convention): O(n log n) for
/// 2–3 objectives, divide-and-conquer skyline for d ≥ 4.
///
/// `keys` is row-major: point `i` occupies `keys[i*dims .. (i+1)*dims]`.
/// Returns exactly the same index set as [`naive_pareto_min`], in
/// ascending order.
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn pareto_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    let (keys, order) = match prepare(dims, keys) {
        Some(prepared) => prepared,
        None => return Vec::new(),
    };
    let keys = keys.as_slice();
    let mut survivors = match dims {
        1 => min_scan(&order, keys),
        2 => sweep2(&order, &|i| (keys[i * 2], keys[i * 2 + 1])),
        3 => sweep3(&order, keys),
        // Crossover dispatch: the divide-and-conquer skyline wins
        // asymptotically, but its recursion overhead grows with the
        // dimension — at 5+ objectives the running frontier measured
        // faster below a few thousand points (~123 µs vs ~221 µs at
        // 10³ points when this threshold was set), while at 4
        // objectives d&c already wins by 10³. The `dse` bench's
        // `dse_synthetic_frontier` group (BENCH_dse.json) times
        // `pareto5` against `running5` only at 10⁴ and 10⁵; no arm
        // times d&c below this threshold at 5 objectives, so the
        // crossover itself is not re-measured.
        _ if dims >= 5 && order.len() <= DC_SMALL_N => running_frontier(dims, keys, &order),
        _ => dc_skyline(dims, keys, &order),
    };
    survivors.sort_unstable();
    survivors
}

/// Below this many points, 5+-objective inputs dispatch to the running
/// frontier instead of the divide-and-conquer skyline (measured
/// crossover; see [`pareto_min`]).
const DC_SMALL_N: usize = 2048;

/// The previous d ≥ 4 path: a lexicographic running frontier, worst case
/// O(n·f) for a frontier of size f. [`pareto_min`] now uses a
/// divide-and-conquer skyline instead; this stays public as the
/// comparison arm of the DSE benchmarks and a second reference
/// implementation (same contract as [`pareto_min`]).
///
/// # Panics
///
/// Panics if `dims == 0` or `keys.len()` is not a multiple of `dims`.
#[must_use]
pub fn running_frontier_min(dims: usize, keys: &[f64]) -> Vec<usize> {
    let (keys, order) = match prepare(dims, keys) {
        Some(prepared) => prepared,
        None => return Vec::new(),
    };
    let mut survivors = running_frontier(dims, &keys, &order);
    survivors.sort_unstable();
    survivors
}

/// The shared skyline preamble: validates the buffer, normalizes
/// `-0.0` to `+0.0`, and computes the lexicographic order. `None` for
/// an empty input.
///
/// The normalization is correctness-critical for every algorithm
/// downstream: the sorts split tie groups with `total_cmp`, under which
/// `-0.0 < +0.0`, while dominance (and the naive scan) uses IEEE
/// comparisons where they are equal — without it a total_cmp-lex-later
/// point could still dominate an earlier one (e.g. `[+0.0, 1]` vs
/// `[-0.0, 2]`), breaking the sorted-order invariants. `x + 0.0` maps
/// `-0.0` to `+0.0` and is the identity on every other value.
fn prepare(dims: usize, keys: &[f64]) -> Option<(Vec<f64>, Vec<usize>)> {
    let n = point_count(dims, keys);
    if n == 0 {
        return None;
    }
    let keys: Vec<f64> = keys.iter().map(|v| v + 0.0).collect();
    let order = lex_order(dims, &keys, n);
    Some((keys, order))
}

/// Indices `0..n` sorted lexicographically over all keys, index order
/// for fully tied points, so every routine downstream is deterministic.
/// The explicit index tiebreak makes the unstable sort equivalent to a
/// stable one while skipping the stable sort's scratch allocation —
/// this sort runs once per skyline call and dominates small-frontier
/// inputs, so the constant factor matters (the sharded streaming
/// executor calls it per shard).
fn lex_order(dims: usize, keys: &[f64], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (
            &keys[a * dims..(a + 1) * dims],
            &keys[b * dims..(b + 1) * dims],
        );
        for (x, y) in pa.iter().zip(pb) {
            match x.total_cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        a.cmp(&b)
    });
    order
}

/// 1-D frontier: every point tied at the minimum key.
fn min_scan(order: &[usize], keys: &[f64]) -> Vec<usize> {
    let min = keys[order[0]];
    order
        .iter()
        .copied()
        .take_while(|&i| keys[i].total_cmp(&min) == Ordering::Equal)
        .collect()
}

/// 2-D sweep over indices pre-sorted lexicographically by `key`.
///
/// Walks groups of equal first key in ascending order, tracking the best
/// (minimum) second key seen in *strictly earlier* groups. Within a
/// group, only the points tied at the group's minimum second key can
/// survive (anything above is strictly dominated inside the group), and
/// they do survive exactly when that minimum beats every earlier group.
///
/// Also the in-group engine of the 3-D sweep, which is why it takes an
/// index slice rather than a raw buffer.
fn sweep2(order: &[usize], key: &dyn Fn(usize) -> (f64, f64)) -> Vec<usize> {
    let mut out = Vec::new();
    let mut best: Option<f64> = None;
    let mut start = 0;
    while start < order.len() {
        let (a, group_min) = key(order[start]);
        let mut end = start;
        while end < order.len() && key(order[end]).0.total_cmp(&a) == Ordering::Equal {
            end += 1;
        }
        if best.map_or(true, |b| group_min < b) {
            out.extend(
                order[start..end]
                    .iter()
                    .copied()
                    .take_while(|&i| key(i).1.total_cmp(&group_min) == Ordering::Equal),
            );
        }
        best = Some(best.map_or(group_min, |b| b.min(group_min)));
        start = end;
    }
    out
}

/// A totally ordered f64 (via `total_cmp`) for use as a B-tree key.
#[derive(Debug, Clone, Copy)]
struct Key(f64);

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A staircase: 2-D running frontier over `(b, c)` pairs, held as a
/// B-tree map from `b` to the smallest `c` seen at that `b`, with `c`
/// strictly descending as `b` ascends. Membership means "some point in
/// an earlier first-key group had these trailing keys", so weak (≤, ≤)
/// coverage is full dominance — the first key is already strict.
///
/// Queries are O(log f); inserts are amortized O(log f) because every
/// step a new one covers is removed exactly once over the sweep's
/// lifetime (this is why the structure is a B-tree rather than a sorted
/// `Vec`, whose front inserts would memmove O(f) elements and turn
/// anti-correlated inputs quadratic).
struct Staircase {
    steps: BTreeMap<Key, f64>,
}

impl Staircase {
    fn new() -> Self {
        Self {
            steps: BTreeMap::new(),
        }
    }

    /// Is `(b, c)` weakly covered by an existing step?
    fn covers(&self, b: f64, c: f64) -> bool {
        // c descends as b ascends, so among the steps with step.b ≤ b
        // the rightmost has the smallest c.
        self.steps
            .range(..=Key(b))
            .next_back()
            .is_some_and(|(_, &step_c)| step_c <= c)
    }

    /// Inserts `(b, c)`, dropping any steps it covers.
    fn insert(&mut self, b: f64, c: f64) {
        if self.covers(b, c) {
            return;
        }
        // Steps at b' ≥ b with c' ≥ c are now covered; by the descending-c
        // invariant they form a contiguous run starting at b.
        let covered: Vec<Key> = self
            .steps
            .range(Key(b)..)
            .take_while(|(_, &step_c)| step_c >= c)
            .map(|(&key, _)| key)
            .collect();
        for key in covered {
            self.steps.remove(&key);
        }
        self.steps.insert(Key(b), c);
    }
}

/// 3-D sweep: groups of equal first key in ascending order, tested
/// against the staircase of all earlier groups, then 2-D-swept within
/// the group (equal first keys dominate on the trailing pair alone).
/// Each surviving point is inserted into the staircase *after* its whole
/// group is processed, so equal-first-key points never dominate each
/// other through it. Dominance is transitive, so testing the in-group
/// sweep only on staircase survivors loses nothing.
fn sweep3(order: &[usize], keys: &[f64]) -> Vec<usize> {
    let k = |i: usize, d: usize| keys[i * 3 + d];
    let mut out = Vec::new();
    let mut stair = Staircase::new();
    let mut start = 0;
    while start < order.len() {
        let a = k(order[start], 0);
        let mut end = start;
        while end < order.len() && k(order[end], 0).total_cmp(&a) == Ordering::Equal {
            end += 1;
        }
        let undominated: Vec<usize> = order[start..end]
            .iter()
            .copied()
            .filter(|&i| !stair.covers(k(i, 1), k(i, 2)))
            .collect();
        // `undominated` inherits the (k1, k2, index) lexicographic order
        // the group was sorted in, which is what sweep2 requires.
        let survivors = sweep2(&undominated, &|i| (k(i, 1), k(i, 2)));
        for &i in &survivors {
            stair.insert(k(i, 1), k(i, 2));
        }
        out.extend_from_slice(&survivors);
        start = end;
    }
    out
}

/// d-dimensional fallback: after a lexicographic sort a later point can
/// never dominate an earlier one (componentwise ≤ plus lexicographic ≥
/// forces equality), so the frontier only grows — each point is checked
/// against it once. Frontier members are probed newest-first: a point's
/// dominator tends to be a lexicographically close predecessor, so the
/// reverse probe usually exits after a handful of checks.
fn running_frontier(dims: usize, keys: &[f64], order: &[usize]) -> Vec<usize> {
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    let mut front: Vec<usize> = Vec::new();
    for &i in order {
        if !front.iter().rev().any(|&j| dominates_min(row(j), row(i))) {
            front.push(i);
        }
    }
    front
}

/// Below this many points a subproblem is solved by the running
/// frontier directly — recursion overhead beats O(n·f) only once n·f
/// can actually grow.
const DC_BASE: usize = 64;

/// Below this many candidate pairs the cross-filter tests dominance
/// pairwise instead of partitioning further.
const DC_PAIRWISE: usize = 512;

/// d ≥ 4 divide-and-conquer skyline over a lexicographically sorted
/// index slice (Bentley's multidimensional divide and conquer).
///
/// Split the sorted points at the midpoint into a lex-earlier half `A`
/// and a lex-later half `B`. No point of `B` can dominate a point of
/// `A` (componentwise ≤ plus lexicographically ≥ forces equality, and
/// equals never dominate), so
/// `skyline(S) = skyline(A) ∪ filter(skyline(B) vs skyline(A))`
/// where the filter removes `B`-skyline points dominated by an
/// `A`-skyline point — dominance is transitive, so testing against the
/// skyline loses nothing. The filter recurses on one coordinate at a
/// time ([`filter_dominated`]), giving ~O(n·logᵈ⁻² n) overall.
///
/// Returns survivors in input (lexicographic) order.
fn dc_skyline(dims: usize, keys: &[f64], order: &[usize]) -> Vec<usize> {
    if order.len() <= DC_BASE {
        return running_frontier(dims, keys, order);
    }
    let mid = order.len() / 2;
    let mut left = dc_skyline(dims, keys, &order[..mid]);
    let right = dc_skyline(dims, keys, &order[mid..]);
    let right = cross_filter(dims, keys, &left, right);
    left.extend(right);
    left
}

/// Removes from `b` (the lex-later half's skyline) every point dominated
/// by a point of `a` (the lex-earlier half's skyline), preserving order.
fn cross_filter(dims: usize, keys: &[f64], a: &[usize], b: Vec<usize>) -> Vec<usize> {
    let mut dead = vec![false; b.len()];
    let positions: Vec<u32> = (0..b.len() as u32).collect();
    filter_dominated(dims, keys, &b, &mut dead, a.to_vec(), positions, dims);
    b.into_iter()
        .zip(dead)
        .filter_map(|(i, dead)| (!dead).then_some(i))
        .collect()
}

/// The cross-filter's dimension-reducing recursion: marks `dead[p]` for
/// every position `p` (into `b_ids`) whose point is dominated by some
/// point of `a`.
///
/// `d` counts the leading coordinates still unverified; the recursion
/// maintains the invariant that every (a, b) pair in the current
/// subproblem is already weakly ≤ on all coordinates `>= d`. Each step
/// partitions both sets around a pivot of coordinate `d − 1`:
/// strictly-smaller `a`s versus weakly-larger `b`s have that coordinate
/// settled (strictly, even) and descend with `d − 1`; the two same-side
/// quadrants keep `d` but strictly shrink; the remaining quadrant
/// (larger `a`, smaller `b`) can never dominate and is skipped — this
/// pruning is the entire speedup. Elimination itself only ever happens
/// in the leaves via the exact predicate ([`dominates_min`], or the
/// exact-duplicate rule at `d == 0`), so ties and duplicates behave
/// precisely as in [`naive_pareto_min`].
fn filter_dominated(
    dims: usize,
    keys: &[f64],
    b_ids: &[usize],
    dead: &mut [bool],
    a: Vec<usize>,
    b: Vec<u32>,
    d: usize,
) {
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    // Skip positions already killed on an earlier recursion path.
    let b: Vec<u32> = b.into_iter().filter(|&p| !dead[p as usize]).collect();
    if a.is_empty() || b.is_empty() {
        return;
    }
    if d == 0 {
        // Every pair is weakly ≤ on every coordinate, so a `b` point
        // survives only when it is an exact duplicate of every `a`
        // point (equals never dominate).
        for &bp in &b {
            let brow = row(b_ids[bp as usize]);
            if a.iter().any(|&ai| row(ai) != brow) {
                dead[bp as usize] = true;
            }
        }
        return;
    }
    if a.len() * b.len() <= DC_PAIRWISE {
        eliminate_pairwise(dims, keys, b_ids, dead, &a, &b);
        return;
    }
    let c = d - 1;
    let ak = |i: usize| keys[i * dims + c];
    let bk = |p: u32| keys[b_ids[p as usize] * dims + c];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in a.iter().map(|&i| ak(i)).chain(b.iter().map(|&p| bk(p))) {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo == hi {
        // No spread: coordinate c is weakly ≤ (equal) for every pair.
        filter_dominated(dims, keys, b_ids, dead, a, b, c);
        return;
    }
    // Median pivot, nudged above the minimum so both sides shrink.
    let mut vals: Vec<f64> = a
        .iter()
        .map(|&i| ak(i))
        .chain(b.iter().map(|&p| bk(p)))
        .collect();
    let mid = vals.len() / 2;
    vals.select_nth_unstable_by(mid, f64::total_cmp);
    let mut pivot = vals[mid];
    if pivot == lo {
        pivot = vals
            .iter()
            .copied()
            .filter(|&v| v > lo)
            .fold(f64::INFINITY, f64::min);
    }
    let (a_lo, a_hi): (Vec<usize>, Vec<usize>) = a.iter().partition(|&&i| ak(i) < pivot);
    let (b_lo, b_hi): (Vec<u32>, Vec<u32>) = b.iter().partition(|&&p| bk(p) < pivot);
    if (a_lo.is_empty() && b_lo.is_empty()) || (a_hi.is_empty() && b_hi.is_empty()) {
        // Degenerate pivot: with finite keys both sides always shrink,
        // but NaN keys (unspecified per the module contract) compare
        // false against any pivot and would otherwise recurse forever.
        // Resolve the whole subproblem with the exact pairwise
        // predicate instead — never crash.
        eliminate_pairwise(dims, keys, b_ids, dead, &a, &b);
        return;
    }
    // a_lo < pivot ≤ b_hi: coordinate c is strictly settled — drop a dim.
    filter_dominated(dims, keys, b_ids, dead, a_lo.clone(), b_hi.clone(), c);
    filter_dominated(dims, keys, b_ids, dead, a_lo, b_lo, d);
    // a_hi can never dominate b_lo (strictly larger on coordinate c).
    filter_dominated(dims, keys, b_ids, dead, a_hi, b_hi, d);
}

/// The cross-filter's exact leaf: marks dead every `b` position whose
/// point is dominated (full predicate, all `dims` coordinates) by some
/// `a` point. Shared by the small-subproblem cutoff and the
/// degenerate-pivot fallback of [`filter_dominated`].
fn eliminate_pairwise(
    dims: usize,
    keys: &[f64],
    b_ids: &[usize],
    dead: &mut [bool],
    a: &[usize],
    b: &[u32],
) {
    let row = |i: usize| &keys[i * dims..(i + 1) * dims];
    for &bp in b {
        let brow = row(b_ids[bp as usize]);
        if a.iter().any(|&ai| dominates_min(row(ai), brow)) {
            dead[bp as usize] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn grid_points(seed: u64, n: usize, dims: usize, grid: u32) -> Vec<f64> {
        // Coarse integer grids force heavy ties and exact duplicates —
        // the cases where sweep bookkeeping can drift from the naive scan.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dims)
            .map(|_| f64::from(rng.gen_range(0u32..grid)))
            .collect()
    }

    /// The divide-and-conquer path directly, bypassing `pareto_min`'s
    /// small-n crossover dispatch, so property tests exercise it at
    /// every size and dimension.
    fn dc_direct(dims: usize, keys: &[f64]) -> Vec<usize> {
        let (keys, order) = prepare(dims, keys).expect("non-empty input");
        let mut survivors = dc_skyline(dims, &keys, &order);
        survivors.sort_unstable();
        survivors
    }

    #[test]
    fn empty_and_singleton() {
        for dims in 1..=5 {
            assert!(pareto_min(dims, &[]).is_empty());
        }
        assert_eq!(pareto_min(3, &[1.0, 2.0, 3.0]), vec![0]);
    }

    #[test]
    fn duplicates_all_survive() {
        // Exact duplicates never dominate each other; all copies stay.
        let keys = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0, 0.5];
        assert_eq!(pareto_min(2, &keys), vec![0, 1, 2, 3]);
        assert_eq!(naive_pareto_min(2, &keys), vec![0, 1, 2, 3]);
    }

    #[test]
    fn simple_2d_staircase() {
        // (0,3) (1,1) (3,0) frontier; (2,2) dominated by (1,1).
        let keys = [0.0, 3.0, 1.0, 1.0, 2.0, 2.0, 3.0, 0.0];
        assert_eq!(pareto_min(2, &keys), vec![0, 1, 3]);
    }

    #[test]
    fn one_dim_keeps_all_minima() {
        let keys = [3.0, 1.0, 2.0, 1.0, 1.0];
        assert_eq!(pareto_min(1, &keys), vec![1, 3, 4]);
        assert_eq!(naive_pareto_min(1, &keys), vec![1, 3, 4]);
    }

    #[test]
    fn equal_first_key_groups_dominate_within_group() {
        // Same first key: (5,1,9) dominates (5,2,9); (5,1,9) survives.
        let keys = [5.0, 1.0, 9.0, 5.0, 2.0, 9.0];
        assert_eq!(pareto_min(3, &keys), vec![0]);
    }

    #[test]
    fn matches_naive_on_random_grids() {
        for dims in 1..=5 {
            for seed in 0..40u64 {
                for &grid in &[2u32, 3, 5, 17] {
                    let n = 1 + (seed as usize * 7 + dims) % 90;
                    let keys = grid_points(seed * 31 + dims as u64, n, dims, grid);
                    assert_eq!(
                        pareto_min(dims, &keys),
                        naive_pareto_min(dims, &keys),
                        "dims {dims} seed {seed} grid {grid}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_naive_on_continuous_points() {
        let mut rng = StdRng::seed_from_u64(7);
        for dims in 2..=4 {
            for _ in 0..20 {
                let n = rng.gen_range(1usize..200);
                let keys: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
                assert_eq!(pareto_min(dims, &keys), naive_pareto_min(dims, &keys));
            }
        }
    }

    #[test]
    fn large_3d_frontier_is_fast_and_correct_on_sample() {
        // 20k anti-correlated points (worst-ish case: big frontier); spot
        // check the sweep's frontier against the dominance predicate.
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = rng.gen_range(0.0..1.0);
                let b = rng.gen_range(0.0..1.0);
                [a, b, 2.0 - a - b + rng.gen_range(0.0..0.01)]
            })
            .collect();
        let front = pareto_min(3, &keys);
        assert!(!front.is_empty());
        let row = |i: usize| &keys[i * 3..i * 3 + 3];
        for &i in front.iter().step_by(97) {
            for j in 0..n {
                assert!(!dominates_min(row(j), row(i)));
            }
        }
    }

    #[test]
    fn negative_zero_ties_with_positive_zero() {
        // -0.0 and +0.0 are IEEE-equal, so neither point dominates the
        // other and both stay — even though total_cmp orders them.
        let keys = [-0.0, 5.0, 0.0, 5.0];
        assert_eq!(pareto_min(2, &keys), vec![0, 1]);
        assert_eq!(naive_pareto_min(2, &keys), vec![0, 1]);
        let keys3 = [1.0, -0.0, 2.0, 1.0, 0.0, 2.0];
        assert_eq!(pareto_min(3, &keys3), naive_pareto_min(3, &keys3));
    }

    #[test]
    fn anti_correlated_staircase_inserts_stay_fast() {
        // Every point is on the frontier and every staircase insert
        // lands at the front — the case a sorted-Vec staircase turns
        // quadratic on. 200k points must finish promptly (the B-tree
        // makes this ~n log n; a memmove staircase would do ~2·10¹⁰
        // element moves here).
        let n = 200_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|i| {
                let x = i as f64;
                [x, (n - i) as f64, x]
            })
            .collect();
        let front = pareto_min(3, &keys);
        assert_eq!(front.len(), n);
    }

    #[test]
    fn dc_matches_naive_on_large_lattices() {
        // Tie-heavy integer grids at 4 and 5 objectives, big enough to
        // exercise the divide-and-conquer recursion (base case is 64
        // points) and the dimension-reducing cross-filter.
        for dims in [4usize, 5] {
            for (seed, grid) in [(11u64, 3u32), (12, 5), (13, 9), (14, 17)] {
                let n = 600 + seed as usize * 37;
                let keys = grid_points(seed * 101 + dims as u64, n, dims, grid);
                let expected = naive_pareto_min(dims, &keys);
                assert_eq!(
                    pareto_min(dims, &keys),
                    expected,
                    "dims {dims} seed {seed} grid {grid}"
                );
                assert_eq!(
                    dc_direct(dims, &keys),
                    expected,
                    "d&c dims {dims} seed {seed} grid {grid}"
                );
                assert_eq!(
                    running_frontier_min(dims, &keys),
                    expected,
                    "running frontier dims {dims} seed {seed} grid {grid}"
                );
            }
        }
    }

    #[test]
    fn dc_matches_naive_on_large_continuous_sets() {
        let mut rng = StdRng::seed_from_u64(4242);
        for dims in [4usize, 5] {
            for _ in 0..6 {
                let n = rng.gen_range(300usize..1200);
                let keys: Vec<f64> = (0..n * dims).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let expected = naive_pareto_min(dims, &keys);
                assert_eq!(pareto_min(dims, &keys), expected, "dims {dims} n {n}");
                assert_eq!(dc_direct(dims, &keys), expected, "d&c dims {dims} n {n}");
                assert_eq!(running_frontier_min(dims, &keys), expected);
            }
        }
    }

    #[test]
    fn dc_keeps_duplicates_split_across_halves() {
        // Hundreds of exact copies of one frontier point, interleaved
        // with dominated points: the position split lands copies in both
        // recursion halves, and the cross-filter must not let one copy
        // kill another (equals never dominate).
        let mut keys = Vec::new();
        for i in 0..400 {
            if i % 2 == 0 {
                keys.extend([1.0, 1.0, 1.0, 1.0]);
            } else {
                keys.extend([2.0, 2.0, 2.0, 1.0 + f64::from(i)]);
            }
        }
        let front = pareto_min(4, &keys);
        let expected: Vec<usize> = (0..400).step_by(2).collect();
        assert_eq!(front, expected);
        assert_eq!(naive_pareto_min(4, &keys), expected);
    }

    #[test]
    fn nan_keys_do_not_crash_the_dc_skyline() {
        // NaN keys are contractually unspecified, but they must never
        // crash: a NaN coordinate defeats every pivot comparison, and
        // without the degenerate-pivot fallback the cross-filter would
        // recurse forever (stack overflow). On all-NaN duplicates the
        // result even matches the naive scan: nothing dominates, all
        // points survive.
        let n = 200;
        let keys: Vec<f64> = (0..n).flat_map(|_| [f64::NAN, 1.0, 1.0, 1.0]).collect();
        let front = pareto_min(4, &keys);
        assert_eq!(front, naive_pareto_min(4, &keys));
        assert_eq!(front.len(), n);
    }

    #[test]
    fn dc_handles_large_anti_correlated_4d_sets() {
        // Everything on (or near) the frontier — the worst case for the
        // old O(n·f) running frontier. 30k points must finish promptly;
        // spot-check survivors against the dominance predicate.
        let mut rng = StdRng::seed_from_u64(7177);
        let n = 30_000;
        let keys: Vec<f64> = (0..n)
            .flat_map(|_| {
                let a = rng.gen_range(0.0..1.0);
                let b = rng.gen_range(0.0..1.0);
                let c = rng.gen_range(0.0..1.0);
                [a, b, c, 3.0 - a - b - c + rng.gen_range(0.0..0.01)]
            })
            .collect();
        let front = pareto_min(4, &keys);
        assert!(!front.is_empty());
        let row = |i: usize| &keys[i * 4..i * 4 + 4];
        for &i in front.iter().step_by(211) {
            for j in 0..n {
                assert!(!dominates_min(row(j), row(i)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the dimension count")]
    fn ragged_buffer_rejected() {
        let _ = pareto_min(3, &[1.0, 2.0]);
    }
}
