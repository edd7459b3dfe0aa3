//! Uniform-grid (bucket) spatial index with bucket-major SoA storage.
//!
//! The bucket alternative to the KD-tree: space is covered by square cells
//! of side `cell`; each cell holds the points inside it. Range queries visit
//! only the cells overlapping the query rectangle. For the roughly uniform
//! densities of the traffic workload a grid with cell ≈ visibility radius is
//! hard to beat; for strongly clustered workloads (fish schools) the KD-tree
//! adapts where the grid degrades — which is exactly why the comparison is
//! interesting (perfbench's `spatial.grid.*` and `spatial.kdtree.*` rows).
//!
//! The grid hashes unbounded space: cell coordinates are derived by flooring
//! and looked up in a hash map, so the "unbounded ocean" of the fish model
//! needs no special casing.
//!
//! # Bucket-major SoA arena
//!
//! Storage is one contiguous arena of three parallel columns (`xs`, `ys`,
//! `payloads`), laid out once at build: each bucket owns a *run* — a
//! `[start, start+len)` range of those columns, sorted by payload. A k-NN
//! probe therefore streams each visited bucket's coordinates straight
//! through the lane kernel ([`crate::kernels::dist2`]) with no per-probe
//! gather. The grid is build-only; the engine builds none (see `crate::index`).
//!
//! Range emission is globally **ascending by payload**: probes merge the
//! overlapping payload-sorted runs by payload, so candidates stream out in
//! id order on any id-ordered pool. That makes the grid's canonical order
//! identical to the cluster collector's, i.e. order-sensitive float-sum
//! models are exactly distributable on the grid (see
//! `brace_scenario::builtin`). The order is a pure function of the matching
//! point *set* — not even the cell size can perturb it.

use crate::index::{finish_knn, knn_cmp, SpatialIndex, DIST2_SCRATCH, KNN_SCRATCH};
use crate::kernels::dist2;
use brace_common::{Rect, Vec2};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Widest rectangle (in overlapped buckets) served by the allocation-free
/// k-way run merge; wider probes fall back to gather-and-sort.
const MERGE_WIDTH: usize = 16;

/// One bucket's run in the column arena: slots `[start, start+len)`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start: u32,
    len: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { start: 0, len: 0 };
}

/// Bucket index over uniform square cells. See module docs.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    cell: f64,
    /// Bucket-major SoA columns: one contiguous arena, every bucket's run
    /// back to back.
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
    buckets: HashMap<(i64, i64), Bucket>,
}

/// Default cell size when the caller builds through the generic
/// [`SpatialIndex::build`] (which cannot pass a size): chosen from the data
/// so that an average cell holds a handful of points.
fn auto_cell(points: &[(Vec2, u32)]) -> f64 {
    if points.is_empty() {
        return 1.0;
    }
    let bounds = points.iter().fold(Rect::EMPTY, |b, &(p, _)| b.extended(p));
    let area = (bounds.width().max(1e-9)) * (bounds.height().max(1e-9));
    // Target ~4 points per cell.
    (area * 4.0 / points.len() as f64).sqrt().max(1e-9)
}

impl UniformGrid {
    /// Build with an explicit cell size (normally the visibility bound).
    pub fn with_cell(points: &[(Vec2, u32)], cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        let mut groups: HashMap<(i64, i64), Vec<(Vec2, u32)>> = HashMap::new();
        let mut order: Vec<(i64, i64)> = Vec::new();
        for &(p, payload) in points {
            match groups.entry(Self::key(p, cell)) {
                Entry::Occupied(mut e) => e.get_mut().push((p, payload)),
                Entry::Vacant(e) => {
                    order.push(*e.key());
                    e.insert(vec![(p, payload)]);
                }
            }
        }
        let mut xs = Vec::with_capacity(points.len());
        let mut ys = Vec::with_capacity(points.len());
        let mut payloads = Vec::with_capacity(points.len());
        let mut buckets = HashMap::with_capacity(order.len());
        for key in order {
            let mut group = groups.remove(&key).expect("grouped above");
            group.sort_unstable_by_key(|&(_, payload)| payload);
            let start = xs.len() as u32;
            for &(p, payload) in &group {
                xs.push(p.x);
                ys.push(p.y);
                payloads.push(payload);
            }
            buckets.insert(key, Bucket { start, len: group.len() as u32 });
        }
        UniformGrid { cell, xs, ys, payloads, buckets }
    }

    #[inline]
    fn key(p: Vec2, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// The configured cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of non-empty cells (diagnostic for load-skew analysis).
    pub fn occupied_cells(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn run_bounds(b: Bucket) -> (usize, usize) {
        (b.start as usize, (b.start + b.len) as usize)
    }

    /// Collect the ≤[`MERGE_WIDTH`] buckets overlapping `rect` into `runs`.
    /// Returns `(n_runs, overflow, sparse, keys)` — `overflow` when the
    /// rect overlaps more buckets than the fixed-width merge handles,
    /// `sparse` when iterating cells would visit more cells than exist
    /// (degenerate/huge rects: scan occupied buckets instead).
    #[inline]
    fn collect_runs(
        &self,
        rect: &Rect,
        runs: &mut [((i64, i64), Bucket); MERGE_WIDTH],
    ) -> (usize, bool, bool, (i64, i64), (i64, i64)) {
        let (x0, y0) = Self::key(rect.lo, self.cell);
        let (x1, y1) = Self::key(rect.hi, self.cell);
        // Guard against absurd query rectangles producing gigantic loops:
        // iterate cells only when the cell count is smaller than the bucket
        // count; otherwise scan the occupied buckets directly (hash-map
        // iteration order must never leak into results — the payload merge
        // or sort below canonicalizes it away).
        let cell_count = (x1 - x0 + 1).saturating_mul(y1 - y0 + 1);
        let sparse = cell_count as usize > self.buckets.len();
        let mut n_runs = 0;
        let mut overflow = sparse;
        if !sparse {
            'collect: for cx in x0..=x1 {
                for cy in y0..=y1 {
                    if let Some(&bucket) = self.buckets.get(&(cx, cy)) {
                        if n_runs == MERGE_WIDTH {
                            overflow = true;
                            break 'collect;
                        }
                        runs[n_runs] = ((cx, cy), bucket);
                        n_runs += 1;
                    }
                }
            }
        }
        (n_runs, overflow, sparse, (x0, y0), (x1, y1))
    }

    /// Visit every point of the buckets overlapping `rect` in globally
    /// ascending payload order. Runs are payload-sorted, so the typical
    /// ≤3×3 overlap is an allocation-free k-way merge of sorted runs; wider
    /// rectangles (and the sparse-occupancy fallback, which scans every
    /// occupied bucket) gather into a per-thread scratch and sort by
    /// payload once. This is [`SpatialIndex::range`]'s walk (with an
    /// inline containment test).
    ///
    /// Payloads are pool row indices, and every single-node pool stores
    /// rows in id order — so ascending-payload emission *is* id-sorted
    /// emission, the cluster collector's canonical order. That makes
    /// order-sensitive float-sum models exactly distributable on the grid
    /// (see `brace_scenario::builtin`); before this merge the emission was
    /// bucket-major, an order no distributed reduction can reproduce.
    fn for_merged_points(&self, rect: &Rect, mut f: impl FnMut(Vec2, u32)) {
        if rect.is_empty() || self.payloads.is_empty() {
            return;
        }
        let mut runs = [((0i64, 0i64), Bucket::EMPTY); MERGE_WIDTH];
        let (n_runs, overflow, sparse, (x0, y0), (x1, y1)) = self.collect_runs(rect, &mut runs);
        if overflow {
            // Wide rectangle or degenerate occupancy: one gather + one
            // payload sort beats an O(points × buckets) min-scan here.
            MERGE_SCRATCH.with_borrow_mut(|pairs| {
                pairs.clear();
                let mut gather = |b: Bucket| {
                    let (s, e) = Self::run_bounds(b);
                    pairs.extend(
                        self.xs[s..e]
                            .iter()
                            .zip(&self.ys[s..e])
                            .zip(&self.payloads[s..e])
                            .map(|((&x, &y), &payload)| (Vec2::new(x, y), payload)),
                    );
                };
                if sparse {
                    self.buckets.values().for_each(|&b| gather(b));
                } else {
                    for cx in x0..=x1 {
                        for cy in y0..=y1 {
                            if let Some(&b) = self.buckets.get(&(cx, cy)) {
                                gather(b);
                            }
                        }
                    }
                }
                pairs.sort_unstable_by_key(|&(_, payload)| payload);
                for &(p, payload) in pairs.iter() {
                    f(p, payload);
                }
            });
            return;
        }
        // Common case: merge the payload-sorted runs with a linear
        // min-scan over ≤16 cursors — no allocation, no per-probe sort.
        let mut cursors = [0u32; MERGE_WIDTH];
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (i, &(_, b)) in runs[..n_runs].iter().enumerate() {
                if cursors[i] < b.len {
                    let payload = self.payloads[(b.start + cursors[i]) as usize];
                    if best.is_none_or(|(bp, _)| payload < bp) {
                        best = Some((payload, i));
                    }
                }
            }
            let Some((payload, i)) = best else { return };
            let at = (runs[i].1.start + cursors[i]) as usize;
            cursors[i] += 1;
            f(Vec2::new(self.xs[at], self.ys[at]), payload);
        }
    }
}

thread_local! {
    /// Reusable per-thread point buffer for range probes too wide for the
    /// fixed-width bucket merge, which must still emit in ascending
    /// payload order without a per-probe allocation.
    static MERGE_SCRATCH: RefCell<Vec<(Vec2, u32)>> = RefCell::default();
}

impl SpatialIndex for UniformGrid {
    /// Emission is globally **ascending by payload** (runs are
    /// payload-sorted and range probes merge them by payload), so the order
    /// is a pure function of the matching point set alone — not even the
    /// cell size can perturb it. Since payloads are
    /// id-ordered pool rows on every single-node pool, this is exactly the
    /// id-sorted order the cluster collector canonicalizes to, making the
    /// grid exactly distributable for order-sensitive float reductions.
    const RANGE_CANONICAL: bool = true;

    fn build(points: &[(Vec2, u32)]) -> Self {
        UniformGrid::with_cell(points, auto_cell(points))
    }

    fn range(&self, rect: &Rect, out: &mut Vec<u32>) {
        self.for_merged_points(rect, |p, payload| {
            if rect.contains(p) {
                out.push(payload);
            }
        });
    }

    /// Grid k-NN: search rings of cells outward from the query's cell and
    /// stop once `k` points are in hand whose k-th squared distance is no
    /// larger than anything an unvisited ring could hold: after ring `r`
    /// every unvisited point lies outside the `(2r + 1)²` block of cells
    /// around the query's, hence at least as far from `q` as the block's
    /// nearest edge (so a query in the middle of a dense bucket can stop
    /// at ring 0). Squared distances run as a lane kernel per bucket run
    /// directly over the native columns ([`dist2`] — the exact per-element
    /// operation sequence of `Vec2::dist2`), and the canonical
    /// `(distance, payload)` selection is shared with every other index, so
    /// the result — order and `exclude` semantics included — is that of a
    /// scan over all points. When the rings have looked up more cells than
    /// there are buckets (a query far from a sparse population), scanning
    /// every bucket is cheaper and is what happens.
    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        let n = self.payloads.len();
        if k == 0 || n == 0 {
            return;
        }
        KNN_SCRATCH.with_borrow_mut(|found| {
            DIST2_SCRATCH.with_borrow_mut(|d2| {
                found.clear();
                let mut gather = |b: Bucket, found: &mut Vec<(f64, u32)>| {
                    let (s, e) = Self::run_bounds(b);
                    dist2(&self.xs[s..e], &self.ys[s..e], q.x, q.y, d2);
                    found.extend(
                        d2.iter()
                            .zip(&self.payloads[s..e])
                            .filter(|&(_, &payload)| Some(payload) != exclude)
                            .map(|(&d, &payload)| (d, payload)),
                    );
                };
                let (qx, qy) = Self::key(q, self.cell);
                // Bucket membership is `floor(p / cell)` in floating point, so
                // a point can sit a few ulp outside its real-arithmetic cell;
                // the bound gives that up with a margin ~10⁶ ulp wide —
                // vastly more than division rounding can produce.
                let slack = 1e-9 * (self.cell + q.x.abs() + q.y.abs());
                // Cells looked up and points seen so far (excluded one included).
                let (mut cells, mut seen) = (0usize, 0usize);
                // Ring coordinates stay far from `i64` overflow: the walk ends
                // after at most `buckets.len()` lookups.
                let walkable = qx.unsigned_abs().max(qy.unsigned_abs()) < 1 << 62;
                let mut ring = 0i64;
                while walkable && cells <= self.buckets.len() && seen < n {
                    let mut visit = |cx: i64, cy: i64, found: &mut Vec<(f64, u32)>| {
                        cells += 1;
                        if let Some(&b) = self.buckets.get(&(cx, cy)) {
                            seen += b.len as usize;
                            gather(b, found);
                        }
                    };
                    if ring == 0 {
                        visit(qx, qy, found);
                    } else {
                        for cx in qx - ring..=qx + ring {
                            visit(cx, qy - ring, found);
                            visit(cx, qy + ring, found);
                        }
                        for cy in qy - ring + 1..qy + ring {
                            visit(qx - ring, cy, found);
                            visit(qx + ring, cy, found);
                        }
                    }
                    if found.len() >= k {
                        // Distance from `q` to the nearest edge of the visited block.
                        let edge =
                            |lo: i64, hi: i64, v: f64| (v - lo as f64 * self.cell).min((hi + 1) as f64 * self.cell - v);
                        let reach = edge(qx - ring, qx + ring, q.x).min(edge(qy - ring, qy + ring, q.y));
                        let reach = (reach - slack).max(0.0);
                        let (_, kth, _) = found.select_nth_unstable_by(k - 1, knn_cmp);
                        if kth.0 < reach * reach {
                            return finish_knn(found, k, out);
                        }
                    }
                    ring += 1;
                }
                if seen < n {
                    found.clear();
                    for &b in self.buckets.values() {
                        gather(b, found);
                    }
                }
                finish_knn(found, k, out);
            });
        });
    }

    fn len(&self) -> usize {
        self.payloads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScanIndex;
    use brace_common::DetRng;

    fn random_points(n: usize, seed: u64) -> Vec<(Vec2, u32)> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|i| (Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)), i as u32)).collect()
    }

    #[test]
    fn grid_range_matches_scan() {
        let pts = random_points(400, 11);
        let grid = UniformGrid::with_cell(&pts, 7.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(12);
        for _ in 0..50 {
            let c = Vec2::new(rng.range(-60.0, 60.0), rng.range(-60.0, 60.0));
            let rect = Rect::centered(c, rng.range(0.0, 25.0));
            let mut a = Vec::new();
            let mut b = Vec::new();
            grid.range(&rect, &mut a);
            scan.range(&rect, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn grid_nearest_matches_scan() {
        let pts = random_points(200, 13);
        let grid = UniformGrid::with_cell(&pts, 5.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(14);
        for _ in 0..100 {
            let q = Vec2::new(rng.range(-70.0, 70.0), rng.range(-70.0, 70.0));
            assert_eq!(knn(&grid, q, 1, None), knn(&scan, q, 1, None), "q={q}");
        }
    }

    #[test]
    fn grid_handles_negative_coordinates() {
        let pts = vec![(Vec2::new(-10.5, -0.1), 0), (Vec2::new(-9.9, -0.2), 1)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        let mut out = Vec::new();
        grid.range(&Rect::from_bounds(-11.0, -10.0, -1.0, 0.0), &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn auto_cell_build_works() {
        let pts = random_points(100, 15);
        let grid = UniformGrid::build(&pts);
        assert_eq!(grid.len(), 100);
        assert!(grid.cell_size() > 0.0);
        let mut out = Vec::new();
        grid.range(&Rect::EVERYTHING.intersection(&Rect::from_bounds(-50.0, 50.0, -50.0, 50.0)), &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_grid() {
        let grid = UniformGrid::build(&[]);
        assert!(grid.is_empty());
        assert!(knn(&grid, Vec2::ZERO, 1, None).is_empty());
    }

    #[test]
    fn nearest_with_exclusion() {
        let pts = vec![(Vec2::ZERO, 0), (Vec2::new(1.0, 0.0), 1)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(knn(&grid, Vec2::new(0.1, 0.0), 1, Some(0)), [1]);
    }

    #[test]
    fn far_query_still_finds_nearest() {
        let pts = vec![(Vec2::new(1000.0, 1000.0), 7)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(knn(&grid, Vec2::ZERO, 1, None), [7]);
    }

    fn knn(idx: &impl SpatialIndex, q: Vec2, k: usize, exclude: Option<u32>) -> Vec<u32> {
        let mut out = vec![99];
        idx.k_nearest_into(q, k, exclude, &mut out);
        out
    }

    /// The ring search answers exactly what a scan over every point answers
    /// — same payloads, same `(distance, payload)` order, same `exclude` —
    /// for queries inside, beside and far outside the population, for cells
    /// much smaller and much larger than the point spacing, and with
    /// coincident points forcing payload tie-breaks.
    #[test]
    fn grid_knn_ring_search_matches_scan() {
        let mut pts = random_points(300, 21);
        pts.extend((300..320).map(|i| (Vec2::new(3.0, -4.0), i))); // 20 coincident points
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(22);
        for cell in [0.3, 5.0, 60.0] {
            let grid = UniformGrid::with_cell(&pts, cell);
            for i in 0..60 {
                let q = match i % 3 {
                    0 => Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)),
                    1 => Vec2::new(3.0, -4.0),
                    _ => Vec2::new(rng.range(-400.0, 400.0), rng.range(-400.0, 400.0)),
                };
                let k = [1, 2, 7, 25, 64][i % 5];
                let exclude = (i % 4 == 0).then_some(rng.below(320) as u32);
                assert_eq!(knn(&grid, q, k, exclude), knn(&scan, q, k, exclude), "cell {cell} q {q} k {k}");
            }
        }
    }

    #[test]
    fn grid_knn_with_k_larger_than_the_population() {
        let pts = random_points(9, 23);
        let grid = UniformGrid::with_cell(&pts, 2.0);
        let scan = ScanIndex::build(&pts);
        for q in [Vec2::ZERO, Vec2::new(49.0, -49.0), Vec2::new(1e6, 1e6)] {
            let got = knn(&grid, q, 50, None);
            assert_eq!(got.len(), 9, "every point, once");
            assert_eq!(got, knn(&scan, q, 50, None));
            assert_eq!(knn(&grid, q, 50, Some(4)), knn(&scan, q, 50, Some(4)));
        }
        assert!(knn(&grid, Vec2::ZERO, 0, None).is_empty());
        assert!(knn(&UniformGrid::build(&[]), Vec2::ZERO, 3, None).is_empty());
    }

    /// All points in one bucket 10⁹ cells from the query: the walk must give
    /// up on rings (it would take 10⁹ of them) and still answer exactly.
    #[test]
    fn grid_knn_with_all_points_in_one_far_bucket() {
        let pts: Vec<(Vec2, u32)> = (0..6).map(|i| (Vec2::new(1e9 + 0.1 * i as f64, -1e9), i)).collect();
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(grid.occupied_cells(), 1);
        assert_eq!(knn(&grid, Vec2::ZERO, 3, None), vec![0, 1, 2]);
        assert_eq!(knn(&grid, Vec2::new(2e9, -1e9), 3, Some(5)), vec![4, 3, 2]);
        // A query whose own cell index saturates `i64` (every distance
        // rounds to the same value, so payload order decides — as in a scan).
        let q = Vec2::new(1e30, 0.0);
        assert_eq!(knn(&grid, q, 2, None), knn(&ScanIndex::build(&pts), q, 2, None));
    }

    /// The canonical-order guarantee itself: every probe — narrow (k-way
    /// merge), wide (gather + sort) and sparse-occupancy fallback — emits
    /// the matching payloads in globally ascending order.
    #[test]
    fn grid_range_emits_ascending_payloads_on_every_path() {
        let pts = random_points(400, 21);
        let grid = UniformGrid::with_cell(&pts, 7.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(22);
        let mut probes: Vec<Rect> = (0..40)
            .map(|_| {
                let c = Vec2::new(rng.range(-60.0, 60.0), rng.range(-60.0, 60.0));
                Rect::centered(c, rng.range(0.0, 8.0)) // ≤ 3×3 buckets: merge path
            })
            .collect();
        probes.push(Rect::centered(Vec2::ZERO, 40.0)); // > 16 buckets: gather + sort
        probes.push(Rect::from_bounds(-1e9, 1e9, -1e9, 1e9)); // sparse fallback
        for rect in probes {
            let (mut got, mut want) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut got);
            scan.range(&rect, &mut want);
            want.sort_unstable();
            assert_eq!(got, want, "grid emission for {rect:?} is not the ascending matching set");
        }
    }

    /// Duplicate payloads (which the executor never builds, but `build`
    /// accepts) still answer every range probe with the right multiset.
    #[test]
    fn duplicate_payloads_still_query_correctly() {
        let mut pts = random_points(64, 51);
        for (i, p) in pts.iter_mut().enumerate() {
            p.1 = (i % 8) as u32; // heavy duplication
        }
        let grid = UniformGrid::with_cell(&pts, 5.0);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(52);
        for _ in 0..20 {
            let rect = Rect::centered(Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), rng.range(0.0, 20.0));
            let (mut got, mut want) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut got);
            scan.range(&rect, &mut want);
            want.sort_unstable();
            assert_eq!(got, want, "duplicate-payload emission diverged for {rect:?}");
        }
    }
}
