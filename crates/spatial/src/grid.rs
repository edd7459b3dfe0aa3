//! Uniform-grid (bucket) spatial index with bucket-major SoA storage.
//!
//! The ablation alternative to the KD-tree: space is covered by square cells
//! of side `cell`; each cell holds the points inside it. Range queries visit
//! only the cells overlapping the query rectangle. For the roughly uniform
//! densities of the traffic workload a grid with cell ≈ visibility radius is
//! hard to beat; for strongly clustered workloads (fish schools) the KD-tree
//! adapts where the grid degrades — which is exactly why the comparison is
//! interesting (see `bench/benches/spatial_index.rs`).
//!
//! The grid hashes unbounded space: cell coordinates are derived by flooring
//! and looked up in a hash map, so the "unbounded ocean" of the fish model
//! needs no special casing.
//!
//! # Bucket-major SoA arena
//!
//! Storage is one contiguous arena of three parallel columns (`xs`, `ys`,
//! `payloads`); each bucket owns a *run* — a `[start, start+len)` range of
//! those columns, with `cap ≥ len` slack so nearby churn stays in place. A
//! probe therefore streams each overlapping bucket's coordinates straight
//! through the lane kernels ([`crate::kernels::filter_rect`]) with **no
//! per-probe gather**, which is what lets the grid declare
//! [`SpatialIndex::RANGE_BATCH_NATIVE`] (see `range_batch` below).
//!
//! The arena is maintained incrementally: a moved agent either stays in its
//! bucket (coordinates overwritten in place — the common case when cell ≈
//! visibility ≫ reachability) or moves to an adjacent bucket (one shift-out
//! of the old run + one sorted shift-in to the new run; a full run relocates
//! to the arena tail with doubled slack). Dead slots left behind by
//! relocation are reclaimed by an amortized compaction once they outnumber
//! live ones — a pure re-layout, invisible to queries, *not* an
//! executor-visible rebuild: stable populations still do zero rebuilds.
//!
//! Range emission is globally **ascending by payload**: each run is kept
//! payload-sorted and probes merge the overlapping runs by payload, so
//! candidates stream out in id order on any id-ordered pool. That makes the
//! grid's canonical order identical to the cluster collector's, i.e.
//! order-sensitive float-sum models are exactly distributable on the grid
//! (see `brace_scenario::builtin`). Crucially the order is a pure function
//! of the matching point *set* — arena layout (and therefore relocation or
//! compaction history) can never leak into results.

use crate::index::{dense_slots, finish_knn, knn_cmp, with_dist2_scratch, with_knn_scratch, SpatialIndex};
use crate::kernels::{dist2, filter_rect};
use brace_common::{Rect, Vec2};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Widest rectangle (in overlapped buckets) served by the allocation-free
/// k-way run merge; wider probes fall back to gather-and-sort.
const MERGE_WIDTH: usize = 16;

/// Slack capacity given to a freshly created (post-build) bucket run.
const NEW_BUCKET_CAP: u32 = 4;

/// One bucket's run in the column arena: `[start, start+len)` live slots,
/// `[start+len, start+cap)` slack for incremental inserts.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start: u32,
    len: u32,
    cap: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket { start: 0, len: 0, cap: 0 };
}

/// Bucket index over uniform square cells. See module docs.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    cell: f64,
    /// Bucket-major SoA columns: one contiguous arena shared by every
    /// bucket's run. Slack/dead slots hold `NaN`/`u32::MAX` and are never
    /// read (runs address only their live `[start, start+len)` range).
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
    buckets: HashMap<(i64, i64), Bucket>,
    len: usize,
    /// Arena slots abandoned by run relocation / bucket death; compacted
    /// away once they outnumber live points.
    dead: usize,
    /// `payload -> current cell key`, when payloads are dense (enables
    /// `update`); runs are kept sorted by payload so removal is a binary
    /// search rather than a scan.
    locator: Option<Vec<(i64, i64)>>,
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
            let n = group.len() as u32;
            buckets.insert(key, Bucket { start, len: n, cap: n });
        }
        let locator = dense_slots(points).map(|slots| {
            let mut loc = vec![(i64::MAX, i64::MAX); slots.len()];
            for &(p, payload) in points {
                loc[payload as usize] = Self::key(p, cell);
            }
            loc
        });
        UniformGrid { cell, xs, ys, payloads, buckets, len: points.len(), dead: 0, locator }
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

    /// Arena slots currently dead (diagnostic: relocation/compaction churn).
    pub fn dead_slots(&self) -> usize {
        self.dead
    }

    #[inline]
    fn run_bounds(b: Bucket) -> (usize, usize) {
        (b.start as usize, (b.start + b.len) as usize)
    }

    /// True when cell `key` lies entirely inside `rect`, with enough
    /// conservative slack that *every point whose floored key equals `key`*
    /// is guaranteed contained. Bucket membership is `floor(p/c) == key`
    /// under floating-point division, so a member can sit a few ulp outside
    /// the real-arithmetic cell; the `1e-9`-relative margin is ~10⁶ ulp —
    /// vastly more than division/multiplication rounding can produce, and
    /// still negligible against any real probe rect (which extends a full
    /// visibility radius beyond a covered cell). A covered bucket's run is
    /// emitted whole, skipping the per-point containment test; when the
    /// test fails we just filter — never a correctness question.
    #[inline]
    fn cell_covered(&self, key: (i64, i64), rect: &Rect) -> bool {
        let c = self.cell;
        let lox = key.0 as f64 * c;
        let loy = key.1 as f64 * c;
        let hix = lox + c;
        let hiy = loy + c;
        let m = 1e-9 * (c + lox.abs().max(hix.abs()) + loy.abs().max(hiy.abs()));
        rect.lo.x <= lox - m && hix + m <= rect.hi.x && rect.lo.y <= loy - m && hiy + m <= rect.hi.y
    }

    /// Append the payloads of `bucket`'s points inside `rect` to `buf`, in
    /// run (= ascending payload) order, streaming the arena columns through
    /// the lane kernel — the gather-free native filter. Fully covered cells
    /// skip the kernel and emit the run whole (identical output by
    /// [`Self::cell_covered`]'s guarantee).
    #[inline]
    fn filter_run(&self, key: (i64, i64), bucket: Bucket, rect: &Rect, buf: &mut Vec<u32>) {
        let (s, e) = Self::run_bounds(bucket);
        if self.cell_covered(key, rect) {
            buf.extend_from_slice(&self.payloads[s..e]);
        } else {
            filter_rect(&self.xs[s..e], &self.ys[s..e], &self.payloads[s..e], rect, buf);
        }
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
    /// ascending payload order. Runs stay payload-sorted through `update`s,
    /// so the typical ≤3×3 overlap is an allocation-free k-way merge of
    /// sorted runs; wider rectangles (and the sparse-occupancy fallback,
    /// which scans every occupied bucket) gather into a per-thread scratch
    /// and sort by payload once. This is the scalar reference path behind
    /// [`SpatialIndex::range`] (inline containment test) — the batched
    /// [`SpatialIndex::range_batch`] emits candidates from exactly the same
    /// payload-ascending sequence by construction (filter-then-merge over
    /// the same runs).
    ///
    /// Payloads are pool row indices, and every single-node pool stores
    /// rows in id order — so ascending-payload emission *is* id-sorted
    /// emission, the cluster collector's canonical order. That makes
    /// order-sensitive float-sum models exactly distributable on the grid
    /// (see `brace_scenario::builtin`); before this merge the emission was
    /// bucket-major, an order no distributed reduction can reproduce.
    fn for_merged_points(&self, rect: &Rect, mut f: impl FnMut(Vec2, u32)) {
        if rect.is_empty() || self.len == 0 {
            return;
        }
        let mut runs = [((0i64, 0i64), Bucket::EMPTY); MERGE_WIDTH];
        let (n_runs, overflow, sparse, (x0, y0), (x1, y1)) = self.collect_runs(rect, &mut runs);
        if overflow {
            // Wide rectangle or degenerate occupancy: one gather + one
            // payload sort beats an O(points × buckets) min-scan here.
            with_merge_scratch(|pairs| {
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

    /// Remove `payload` from the run at `key`: shift-left within the run
    /// (the vacated tail slot becomes slack); an emptied bucket's whole run
    /// becomes dead and the bucket leaves the map.
    fn remove_from(&mut self, key: (i64, i64), payload: u32) {
        let b = self.buckets.get_mut(&key).expect("locator points at a live bucket");
        let (s, e) = (b.start as usize, (b.start + b.len) as usize);
        let i = self.payloads[s..e].binary_search(&payload).expect("payload in its bucket");
        self.xs.copy_within(s + i + 1..e, s + i);
        self.ys.copy_within(s + i + 1..e, s + i);
        self.payloads.copy_within(s + i + 1..e, s + i);
        b.len -= 1;
        if b.len == 0 {
            let cap = b.cap as usize;
            self.buckets.remove(&key);
            self.dead += cap;
        }
    }

    /// Insert `(p, payload)` into the run at `key`, keeping it
    /// payload-sorted: shift-in when the run has slack, otherwise relocate
    /// the run to the arena tail with doubled capacity (the old run becomes
    /// dead slots, reclaimed by [`Self::compact`]).
    fn insert_into(&mut self, key: (i64, i64), p: Vec2, payload: u32) {
        match self.buckets.entry(key) {
            Entry::Occupied(mut entry) => {
                let b = entry.get_mut();
                let (s, len) = (b.start as usize, b.len as usize);
                let i = self.payloads[s..s + len].binary_search(&payload).unwrap_err();
                if b.len < b.cap {
                    self.xs.copy_within(s + i..s + len, s + i + 1);
                    self.ys.copy_within(s + i..s + len, s + i + 1);
                    self.payloads.copy_within(s + i..s + len, s + i + 1);
                    self.xs[s + i] = p.x;
                    self.ys[s + i] = p.y;
                    self.payloads[s + i] = payload;
                    b.len += 1;
                } else {
                    let cap = (b.cap.saturating_mul(2)).max(NEW_BUCKET_CAP) as usize;
                    let start = self.xs.len();
                    self.xs.extend_from_within(s..s + i);
                    self.ys.extend_from_within(s..s + i);
                    self.payloads.extend_from_within(s..s + i);
                    self.xs.push(p.x);
                    self.ys.push(p.y);
                    self.payloads.push(payload);
                    self.xs.extend_from_within(s + i..s + len);
                    self.ys.extend_from_within(s + i..s + len);
                    self.payloads.extend_from_within(s + i..s + len);
                    self.xs.resize(start + cap, f64::NAN);
                    self.ys.resize(start + cap, f64::NAN);
                    self.payloads.resize(start + cap, u32::MAX);
                    self.dead += b.cap as usize;
                    *b = Bucket { start: start as u32, len: len as u32 + 1, cap: cap as u32 };
                }
            }
            Entry::Vacant(entry) => {
                let start = self.xs.len();
                self.xs.push(p.x);
                self.ys.push(p.y);
                self.payloads.push(payload);
                self.xs.resize(start + NEW_BUCKET_CAP as usize, f64::NAN);
                self.ys.resize(start + NEW_BUCKET_CAP as usize, f64::NAN);
                self.payloads.resize(start + NEW_BUCKET_CAP as usize, u32::MAX);
                entry.insert(Bucket { start: start as u32, len: 1, cap: NEW_BUCKET_CAP });
            }
        }
    }

    /// Fold `bucket`'s points into the running `(dist², payload)` best for
    /// the expanding-ring nearest search.
    fn consider_bucket(&self, b: Bucket, q: Vec2, exclude: Option<u32>, best: &mut Option<(f64, u32)>) {
        let (s, e) = Self::run_bounds(b);
        for i in s..e {
            let payload = self.payloads[i];
            if Some(payload) == exclude {
                continue;
            }
            let d = Vec2::new(self.xs[i], self.ys[i]).dist2(q);
            if best.is_none_or(|(bd, _)| d < bd) {
                *best = Some((d, payload));
            }
        }
    }

    /// Re-layout every live run contiguously and drop dead slots. A pure
    /// storage re-pack: bucket membership, run sort order and therefore
    /// every query answer are untouched (emission is payload-canonical, so
    /// even the new run placement — hash-map iteration order — cannot leak
    /// into results). This is *not* an executor-visible rebuild.
    fn compact(&mut self) {
        let mut xs = Vec::with_capacity(self.len);
        let mut ys = Vec::with_capacity(self.len);
        let mut payloads = Vec::with_capacity(self.len);
        for b in self.buckets.values_mut() {
            let (s, e) = (b.start as usize, (b.start + b.len) as usize);
            let start = xs.len() as u32;
            xs.extend_from_slice(&self.xs[s..e]);
            ys.extend_from_slice(&self.ys[s..e]);
            payloads.extend_from_slice(&self.payloads[s..e]);
            b.start = start;
            b.cap = b.len;
        }
        self.xs = xs;
        self.ys = ys;
        self.payloads = payloads;
        self.dead = 0;
    }
}

brace_common::tls_scratch!(
    /// Reusable per-thread point buffer for range probes too wide for the
    /// fixed-width bucket merge, which must still emit in ascending
    /// payload order without a per-probe allocation.
    fn with_merge_scratch -> Vec<(Vec2, u32)>
);

brace_common::tls_scratch!(
    /// Reusable per-thread payload buffer for the native batched probe:
    /// holds each overlapping run's lane-filter output as a contiguous
    /// segment, which the k-way payload merge then drains into the
    /// caller's buffer.
    fn with_filter_scratch -> Vec<u32>
);

impl SpatialIndex for UniformGrid {
    /// Emission is globally **ascending by payload** (runs stay
    /// payload-sorted through `update`s and range probes merge them by
    /// payload), so the order is a pure function of the matching point set
    /// alone — not even the cell size can perturb it. Since payloads are
    /// id-ordered pool rows on every single-node pool, this is exactly the
    /// id-sorted order the cluster collector canonicalizes to, making the
    /// grid exactly distributable for order-sensitive float reductions.
    const RANGE_CANONICAL: bool = true;

    /// The batched filter streams the grid's **own** bucket-major SoA
    /// columns through the lane kernel — no per-probe gather since the
    /// arena rewrite. (The previous AoS-bucket storage had to gather per
    /// probe and measured 0.7–0.9× scalar; see `BENCH_tick_throughput.json`
    /// for the native columns' speedups.)
    const RANGE_BATCH_NATIVE: bool = true;

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

    /// Native batched range: each overlapping run's columns stream through
    /// the lane kernel ([`filter_rect`]) into a per-thread scratch — one
    /// ascending-payload segment per bucket, no gather — and the surviving
    /// segments k-way merge into the caller's buffer. The filter *selects*
    /// (per-run order is preserved) and the merge is the same
    /// lowest-payload-first rule as [`Self::for_merged_points`], so the
    /// emitted sequence is exactly [`SpatialIndex::range`]'s: the ascending
    /// payloads of the matching point set (the canonical-order contract).
    /// Wide/sparse probes filter every overlapped run and sort the
    /// surviving payloads once, mirroring the scalar gather+sort fallback.
    fn range_batch(&self, rect: &Rect, out: &mut Vec<u32>) {
        if rect.is_empty() || self.len == 0 {
            return;
        }
        let mut runs = [((0i64, 0i64), Bucket::EMPTY); MERGE_WIDTH];
        let (n_runs, overflow, sparse, (x0, y0), (x1, y1)) = self.collect_runs(rect, &mut runs);
        with_filter_scratch(|buf| {
            buf.clear();
            if overflow {
                if sparse {
                    for (&key, &b) in self.buckets.iter() {
                        self.filter_run(key, b, rect, buf);
                    }
                } else {
                    for cx in x0..=x1 {
                        for cy in y0..=y1 {
                            if let Some(&b) = self.buckets.get(&(cx, cy)) {
                                self.filter_run((cx, cy), b, rect, buf);
                            }
                        }
                    }
                }
                buf.sort_unstable();
                out.extend_from_slice(buf);
                return;
            }
            let mut segs = [(0u32, 0u32); MERGE_WIDTH];
            let mut n_segs = 0;
            for &(key, b) in &runs[..n_runs] {
                let s0 = buf.len() as u32;
                self.filter_run(key, b, rect, buf);
                if buf.len() as u32 > s0 {
                    segs[n_segs] = (s0, buf.len() as u32);
                    n_segs += 1;
                }
            }
            match n_segs {
                0 => {}
                // One surviving segment: already ascending, copy through.
                1 => out.extend_from_slice(&buf[segs[0].0 as usize..segs[0].1 as usize]),
                _ => {
                    // Min-scan merge over the filtered segments — same
                    // rule as the scalar merge, but over survivors only.
                    let mut cursors = [0u32; MERGE_WIDTH];
                    for (c, &(s, _)) in cursors.iter_mut().zip(&segs[..n_segs]) {
                        *c = s;
                    }
                    loop {
                        let mut best: Option<(u32, usize)> = None;
                        for i in 0..n_segs {
                            if cursors[i] < segs[i].1 {
                                let payload = buf[cursors[i] as usize];
                                if best.is_none_or(|(bp, _)| payload < bp) {
                                    best = Some((payload, i));
                                }
                            }
                        }
                        let Some((payload, i)) = best else { return };
                        cursors[i] += 1;
                        out.push(payload);
                    }
                }
            }
        });
    }

    fn nearest(&self, q: Vec2, exclude: Option<u32>) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        // Expanding ring search over cells; falls back to a full scan once
        // the ring is larger than the populated area.
        let (qx, qy) = Self::key(q, self.cell);
        let mut best: Option<(f64, u32)> = None;
        let mut ring = 0i64;
        loop {
            let mut saw_any = false;
            for cx in (qx - ring)..=(qx + ring) {
                for cy in (qy - ring)..=(qy + ring) {
                    // Only the ring boundary (inner cells were already done).
                    if ring > 0 && cx != qx - ring && cx != qx + ring && cy != qy - ring && cy != qy + ring {
                        continue;
                    }
                    if let Some(&b) = self.buckets.get(&(cx, cy)) {
                        saw_any = true;
                        self.consider_bucket(b, q, exclude, &mut best);
                    }
                }
            }
            // A hit in ring r guarantees the true nearest is within ring
            // r+1 (cell geometry), so scan one extra ring then stop.
            if let Some((bd, _)) = best {
                let safe_radius = (ring as f64) * self.cell;
                if bd.sqrt() <= safe_radius || ring as usize > self.buckets.len() {
                    return best.map(|(_, p)| p);
                }
            }
            if !saw_any && ring > 0 && (ring as u64) > 2 * self.len as u64 + 2 {
                // Degenerate spread; brute force the remainder.
                for &b in self.buckets.values() {
                    self.consider_bucket(b, q, exclude, &mut best);
                }
                return best.map(|(_, p)| p);
            }
            ring += 1;
        }
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
        if k == 0 || self.len == 0 {
            return;
        }
        with_knn_scratch(|found| {
            with_dist2_scratch(|d2| {
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
                // the bound gives that up with a margin ~10⁶ ulp wide (the
                // same slack as `cell_covered`).
                let slack = 1e-9 * (self.cell + q.x.abs() + q.y.abs());
                // Cells looked up and points seen so far (excluded one included).
                let (mut cells, mut seen) = (0usize, 0usize);
                // Ring coordinates stay far from `i64` overflow: the walk ends
                // after at most `buckets.len()` lookups.
                let walkable = qx.unsigned_abs().max(qy.unsigned_abs()) < 1 << 62;
                let mut ring = 0i64;
                while walkable && cells <= self.buckets.len() && seen < self.len {
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
                if seen < self.len {
                    found.clear();
                    for &b in self.buckets.values() {
                        gather(b, found);
                    }
                }
                finish_knn(found, k, out);
            });
        });
    }

    fn update(&mut self, moved: &[(u32, Vec2)]) -> bool {
        if self.locator.is_none() {
            return false;
        }
        for &(payload, new) in moved {
            let old_key = match self.locator.as_ref().expect("checked above").get(payload as usize) {
                Some(&key) if key != (i64::MAX, i64::MAX) => key,
                _ => return false,
            };
            let new_key = Self::key(new, self.cell);
            if new_key == old_key {
                // Same bucket (the common case with cell ≈ visibility ≫
                // reachability): overwrite the coordinates in place.
                let b = *self.buckets.get(&old_key).expect("locator points at a live bucket");
                let (s, e) = Self::run_bounds(b);
                let i = self.payloads[s..e].binary_search(&payload).expect("payload in its bucket");
                self.xs[s + i] = new.x;
                self.ys[s + i] = new.y;
            } else {
                self.remove_from(old_key, payload);
                self.insert_into(new_key, new, payload);
                self.locator.as_mut().expect("checked above")[payload as usize] = new_key;
            }
        }
        // Amortized arena hygiene: once relocations have abandoned more
        // slots than there are live points, re-pack. O(live) work paid at
        // most every O(live) relocations — queries never see it.
        if self.dead > self.len.max(NEW_BUCKET_CAP as usize) {
            self.compact();
        }
        true
    }

    fn len(&self) -> usize {
        self.len
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
            let a = grid.nearest(q, None).unwrap();
            let b = scan.nearest(q, None).unwrap();
            let da = pts[a as usize].0.dist2(q);
            let db = pts[b as usize].0.dist2(q);
            assert!((da - db).abs() < 1e-12, "grid {da} vs scan {db}");
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
        assert_eq!(grid.nearest(Vec2::ZERO, None), None);
    }

    #[test]
    fn nearest_with_exclusion() {
        let pts = vec![(Vec2::ZERO, 0), (Vec2::new(1.0, 0.0), 1)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(grid.nearest(Vec2::new(0.1, 0.0), Some(0)), Some(1));
    }

    #[test]
    fn far_query_still_finds_nearest() {
        let pts = vec![(Vec2::new(1000.0, 1000.0), 7)];
        let grid = UniformGrid::with_cell(&pts, 1.0);
        assert_eq!(grid.nearest(Vec2::ZERO, None), Some(7));
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
    /// payloads in globally ascending order, and the native `range_batch`
    /// emits the exact same sequence from the arena columns.
    #[test]
    fn grid_range_emits_ascending_payloads_on_every_path() {
        let pts = random_points(400, 21);
        let grid = UniformGrid::with_cell(&pts, 7.0);
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
            let (mut scalar, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert!(scalar.windows(2).all(|w| w[0] < w[1]), "non-ascending emission for {rect:?}: {scalar:?}");
            assert_eq!(scalar, batched, "range_batch sequence diverged for {rect:?}");
        }
    }

    /// Ascending emission survives incremental updates that shuffle points
    /// across buckets (shift-out + sorted shift-in keeps every run sorted),
    /// and the native batched path keeps emitting the identical sequence
    /// through run relocations and arena compactions.
    #[test]
    fn grid_emission_stays_ascending_after_updates() {
        let pts = random_points(120, 23);
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        let mut rng = DetRng::seed_from_u64(24);
        for round in 0..10 {
            let moved: Vec<(u32, Vec2)> = (0..40)
                .map(|_| {
                    let payload = rng.range(0.0, 120.0) as u32 % 120;
                    (payload, Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0)))
                })
                .collect();
            assert!(grid.update(&moved));
            let rect = Rect::centered(Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), 9.0);
            let (mut out, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut out);
            grid.range_batch(&rect, &mut batched);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "round {round}: non-ascending {out:?}");
            assert_eq!(out, batched, "round {round}: batched sequence diverged");
        }
    }

    /// Arena stability under adversarial churn: every agent funneled into
    /// one hotspot cell (maximal run relocation + growth), then scattered
    /// back out (bucket death + compaction). After each phase the grid must
    /// answer exactly like a fresh build over the moved points, on both the
    /// scalar and the native batched path.
    #[test]
    fn soa_arena_survives_hotspot_collapse_and_scatter() {
        let pts = random_points(200, 31);
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        let mut current = pts.clone();
        let mut rng = DetRng::seed_from_u64(32);
        for phase in 0..6 {
            let collapse = phase % 2 == 0;
            let moved: Vec<(u32, Vec2)> = (0..200u32)
                .map(|payload| {
                    let p = if collapse {
                        // Everyone into one cell: runs relocate and double.
                        Vec2::new(rng.range(0.0, 4.9), rng.range(0.0, 4.9))
                    } else {
                        Vec2::new(rng.range(-50.0, 50.0), rng.range(-50.0, 50.0))
                    };
                    (payload, p)
                })
                .collect();
            assert!(grid.update(&moved));
            for &(payload, p) in &moved {
                current[payload as usize].0 = p;
            }
            let fresh = UniformGrid::with_cell(&current, 5.0);
            for _ in 0..20 {
                let c = Vec2::new(rng.range(-55.0, 55.0), rng.range(-55.0, 55.0));
                let rect = Rect::centered(c, rng.range(0.0, 12.0));
                let (mut inc, mut inc_b, mut ref_s) = (Vec::new(), Vec::new(), Vec::new());
                grid.range(&rect, &mut inc);
                grid.range_batch(&rect, &mut inc_b);
                fresh.range(&rect, &mut ref_s);
                assert_eq!(inc, ref_s, "phase {phase}: incremental != fresh for {rect:?}");
                assert_eq!(inc, inc_b, "phase {phase}: batched sequence diverged for {rect:?}");
            }
            assert_eq!(grid.len(), 200);
        }
        // The collapse/scatter cycles must actually have exercised the
        // relocation machinery; compaction keeps dead slots bounded.
        assert!(grid.dead_slots() <= grid.len().max(NEW_BUCKET_CAP as usize), "compaction never engaged");
    }

    /// A rect that fully covers interior cells takes the covered-run fast
    /// path (whole runs emitted without the lane filter); the emission must
    /// still be exactly the scalar sequence.
    #[test]
    fn covered_cell_fast_path_matches_scalar() {
        let pts = random_points(300, 41);
        let grid = UniformGrid::with_cell(&pts, 7.0);
        let mut rng = DetRng::seed_from_u64(42);
        for _ in 0..30 {
            let c = Vec2::new(rng.range(-30.0, 30.0), rng.range(-30.0, 30.0));
            // Half-extent 10.5–14 over 7.0-cells: 3–5 cells per axis, the
            // interior ones fully covered.
            let rect = Rect::centered(c, rng.range(10.5, 14.0));
            let (mut scalar, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert_eq!(scalar, batched, "covered fast path diverged for {rect:?}");
            assert!(!scalar.is_empty(), "probe should hit points");
        }
    }

    /// Duplicate payloads disable the locator (no `update`) but every range
    /// path must still work over the arena and agree scalar ≡ batched as a
    /// value sequence.
    #[test]
    fn duplicate_payloads_still_query_correctly() {
        let mut pts = random_points(64, 51);
        for (i, p) in pts.iter_mut().enumerate() {
            p.1 = (i % 8) as u32; // heavy duplication
        }
        let mut grid = UniformGrid::with_cell(&pts, 5.0);
        assert!(!grid.update(&[(0, Vec2::ZERO)]), "duplicates cannot maintain in place");
        let mut rng = DetRng::seed_from_u64(52);
        for _ in 0..20 {
            let rect = Rect::centered(Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), rng.range(0.0, 20.0));
            let (mut scalar, mut batched) = (Vec::new(), Vec::new());
            grid.range(&rect, &mut scalar);
            grid.range_batch(&rect, &mut batched);
            assert_eq!(scalar, batched, "duplicate-payload sequence diverged for {rect:?}");
        }
    }
}
