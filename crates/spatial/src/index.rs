//! The spatial-index abstraction.
//!
//! BRACE's reducers answer one query shape billions of times: *"which agents
//! lie inside this axis-aligned rectangle?"* (the compiled form of a BRASIL
//! `foreach` under a `#range` visibility constraint) — plus nearest-neighbor
//! probes for models like MITSIM's lead/rear-vehicle lookup. The engine is
//! generic over [`SpatialIndex`] so the paper's indexing-on/off experiments
//! (Figures 3 and 4) are a one-line configuration change, and so the KD-tree
//! can be compared against a uniform grid in the ablation benchmarks.
//!
//! Every index is **build-only**. Positions are frozen for the whole query
//! phase (the state-effect pattern), so an index answers one tick's probes
//! and is then dropped: the executor builds one per tick it probes (k-NN,
//! the scan, unbounded visibility) and none at all for a bounded range
//! schema, whose sort-merge tile join needs no index (`brace_core::executor`).
//! Rebuilding is the maintenance policy — measured against in-place updates
//! it was never meaningfully slower.

use brace_common::{Rect, Vec2};
use std::cell::RefCell;

/// A read-only spatial index over a set of points, each carrying a `u32`
/// payload (the index of the agent in the tick's agent table).
pub trait SpatialIndex: Send + Sync {
    /// True when [`SpatialIndex::range`] emits candidates in ascending
    /// payload order whenever the points were built in ascending payload
    /// order (the executor builds them that way: payload = row). On an
    /// id-ordered pool that is the canonical candidate order itself, so the
    /// executor skips its per-probe candidate sort.
    const RANGE_CANONICAL: bool = false;

    /// Build an index over `points`. Payloads need not be unique or dense.
    fn build(points: &[(Vec2, u32)]) -> Self
    where
        Self: Sized;

    /// Append the payloads of every point inside the closed rectangle
    /// `rect` to `out`, in unspecified order.
    fn range(&self, rect: &Rect, out: &mut Vec<u32>);

    /// The `k` nearest points to `q` by Euclidean distance, sorted
    /// ascending into `out` (cleared first), excluding payload `exclude`.
    /// Fewer than `k` results when fewer points exist. This is the probe
    /// behind the paper's nearest-neighbor-indexing extension (its
    /// "planned future work"): MITSIM-style models look up lead/rear
    /// vehicles by proximity rather than fixed range. Ties are broken by
    /// ascending payload, so the result is a pure function of the point
    /// *set* — every index kind answers bit-identically to every other.
    /// Taking the caller's buffer means a caller probing once per agent per
    /// tick performs no per-probe allocation (the `Nearest` probe path of
    /// the executor).
    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>);

    /// Always `false`: every index is build-only, so a moved point set
    /// means a fresh [`SpatialIndex::build`]. The method survives only
    /// because the frozen `perfbench` per-layer probe calls it (its
    /// `spatial.*.update_*` rows time this default); a `[benchmark]` PR may
    /// drop the probe and the method together.
    fn update(&mut self, _moved: &[(u32, Vec2)]) -> bool {
        false
    }

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// True when no points are indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which index the engine should build each tick. This enum exists so that
/// configuration is data (serializable into experiment manifests) rather
/// than a type parameter, while the hot loops still run against the
/// concrete, monomorphized index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// No index: the query phase scans every agent for every agent. This is
    /// the quadratic baseline of Figures 3 and 4.
    Scan,
    /// KD-tree with orthogonal range queries (the paper's choice).
    #[default]
    KdTree,
    /// Uniform grid (bucket) index; ablation alternative.
    Grid,
}

thread_local! {
    /// Reusable per-thread `(dist², payload)` buffer for k-NN gathering, so
    /// [`SpatialIndex::k_nearest_into`] implementations allocate nothing
    /// per probe after warm-up.
    pub(crate) static KNN_SCRATCH: RefCell<Vec<(f64, u32)>> = RefCell::default();

    /// Reusable per-thread squared-distance column for batched k-NN
    /// gathering (the output of [`crate::kernels::dist2`]).
    pub(crate) static DIST2_SCRATCH: RefCell<Vec<f64>> = RefCell::default();
}

/// Canonical k-NN ordering: ascending distance, ties by ascending payload.
#[inline]
pub(crate) fn knn_cmp(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Keep the canonical first `k` of `scratch` (see [`knn_cmp`]), sorted, and
/// append their payloads to `out`.
pub(crate) fn finish_knn(scratch: &mut Vec<(f64, u32)>, k: usize, out: &mut Vec<u32>) {
    if scratch.len() > k {
        scratch.select_nth_unstable_by(k, knn_cmp);
        scratch.truncate(k);
    }
    scratch.sort_unstable_by(knn_cmp);
    out.extend(scratch.iter().map(|&(_, p)| p));
}

/// Brute-force "index": linear scan. The `build` step is free; every query
/// is O(n). With n agents each running one range query per tick the tick
/// cost is O(n²) — exactly the no-indexing degradation the paper reports.
///
/// Storage is struct-of-arrays (`xs`/`ys`/`payloads` columns): every probe
/// touches every point, so the range probe *is* one lane-kernel pass over
/// the flat coordinate columns ([`crate::kernels::filter_rect`]).
#[derive(Debug, Clone, Default)]
pub struct ScanIndex {
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
}

impl SpatialIndex for ScanIndex {
    /// The scan emits in build order, which the executor builds in
    /// ascending row order.
    const RANGE_CANONICAL: bool = true;

    fn build(points: &[(Vec2, u32)]) -> Self {
        ScanIndex {
            xs: points.iter().map(|&(p, _)| p.x).collect(),
            ys: points.iter().map(|&(p, _)| p.y).collect(),
            payloads: points.iter().map(|&(_, pl)| pl).collect(),
        }
    }

    /// The lane kernel over the scan's own columns: the naive in-order
    /// containment loop's sequence, with no per-point branch.
    fn range(&self, rect: &Rect, out: &mut Vec<u32>) {
        crate::kernels::filter_rect(&self.xs, &self.ys, &self.payloads, rect, out);
    }

    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        if k == 0 {
            return;
        }
        // Squared distances as one lane kernel over the columns, then the
        // canonical (distance, payload) selection — element-for-element the
        // same arithmetic as the per-point path, so results are identical.
        DIST2_SCRATCH.with_borrow_mut(|d2| {
            crate::kernels::dist2(&self.xs, &self.ys, q.x, q.y, d2);
            KNN_SCRATCH.with_borrow_mut(|scratch| {
                scratch.clear();
                scratch.extend(
                    d2.iter()
                        .zip(&self.payloads)
                        .filter(|&(_, &payload)| Some(payload) != exclude)
                        .map(|(&d, &payload)| (d, payload)),
                );
                finish_knn(scratch, k, out);
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

    fn pts() -> Vec<(Vec2, u32)> {
        vec![(Vec2::new(0.0, 0.0), 0), (Vec2::new(1.0, 1.0), 1), (Vec2::new(2.0, 2.0), 2), (Vec2::new(-1.0, 3.0), 3)]
    }

    #[test]
    fn scan_range_finds_exact_set() {
        let idx = ScanIndex::build(&pts());
        let mut out = Vec::new();
        idx.range(&Rect::from_bounds(0.0, 1.5, 0.0, 1.5), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn scan_range_boundary_inclusive() {
        let idx = ScanIndex::build(&pts());
        let mut out = Vec::new();
        idx.range(&Rect::from_bounds(1.0, 2.0, 1.0, 2.0), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn scan_knn_with_exclusion() {
        let idx = ScanIndex::build(&pts());
        let mut out = Vec::new();
        idx.k_nearest_into(Vec2::new(0.1, 0.1), 1, None, &mut out);
        assert_eq!(out, [0]);
        idx.k_nearest_into(Vec2::new(0.1, 0.1), 1, Some(0), &mut out);
        assert_eq!(out, [1]);
    }

    #[test]
    fn scan_empty() {
        let idx = ScanIndex::build(&[]);
        assert!(idx.is_empty());
        let mut out = Vec::new();
        idx.k_nearest_into(Vec2::ZERO, 1, None, &mut out);
        assert!(out.is_empty());
        idx.range(&Rect::EVERYTHING, &mut out);
        assert!(out.is_empty());
    }
}
