//! The spatial-index abstraction.
//!
//! A [`SpatialIndex`] answers *"which points lie inside this axis-aligned
//! rectangle?"* and *"which `k` points lie nearest?"* over one frozen point
//! set. Three structures implement it: [`ScanIndex`], `KdTree` and
//! `UniformGrid`. The engine builds none of them: a tick's range probes are
//! answered by the sort-merge tile join, whose probe order is the index, or
//! by the no-indexing scan over the id order (`brace_core::executor`). The
//! structures serve `perfbench`'s per-layer probes (`spatial.*`) and the
//! `all_indexes_*` properties, which hold each one to the others as an
//! oracle.
//!
//! Every index is **build-only**: a moved point set means a fresh
//! [`SpatialIndex::build`].

use brace_common::{Rect, Vec2};
use std::cell::RefCell;

/// A read-only spatial index over a set of points, each carrying a `u32`
/// payload (an agent's row).
pub trait SpatialIndex: Send + Sync {
    /// True when [`SpatialIndex::range`] emits candidates in ascending
    /// payload order whenever the points were built in ascending payload
    /// order.
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
    /// Fewer than `k` results when fewer points exist. Ties are broken by
    /// ascending payload, so the result is a pure function of the point
    /// *set* — every index kind answers bit-identically to every other.
    /// Taking the caller's buffer means a caller probing many times
    /// performs no per-probe allocation.
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

/// How the engine answers a tick's range probes. The choice is run
/// configuration (a CLI flag, a serve field, a manifest byte), read once per
/// tick; both kinds give every agent the same neighbours in the same order,
/// so it never moves a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum IndexKind {
    /// The sort-merge tile join: the tick's probe order is the index, and the
    /// agents of neighbouring tiles share one candidate block.
    #[default]
    Join,
    /// No index: the query phase scans every agent for every agent. This is
    /// the quadratic baseline of Figures 3 and 4.
    Scan,
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
/// the flat coordinate columns ([`crate::kernels::filter_rect`]) — the pass
/// the engine's `IndexKind::Scan` runs over the id order.
#[derive(Debug, Clone, Default)]
pub struct ScanIndex {
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
}

impl SpatialIndex for ScanIndex {
    /// The scan emits in build order.
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
