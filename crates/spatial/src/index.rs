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
//! Positions are immutable during the query phase (the state-effect
//! pattern guarantees states are frozen within a tick), so no index needs to
//! support updates mid-tick. *Between* ticks, however, the reachability
//! bound limits how far any agent can move, so rebuilding from scratch every
//! tick wastes the work of the previous build. Indexes that can exploit this
//! implement [`SpatialIndex::update`] (apply a batch of per-payload position
//! changes in place) and [`SpatialIndex::maintain`] (amortized
//! restructuring once accumulated motion exceeds a budget); the executor
//! charges only the agents that actually moved and falls back to a full
//! rebuild when `update` reports the index cannot maintain itself.

use brace_common::{Rect, Vec2};

/// A read-only spatial index over a set of points, each carrying a `u32`
/// payload (the index of the agent in the tick's agent table).
pub trait SpatialIndex: Send + Sync {
    /// True when [`SpatialIndex::range`] emits candidates in an order that
    /// is a pure function of the current point set (same points in the
    /// same payload order ⇒ same emission order), independent of the
    /// history of [`SpatialIndex::update`] calls. Canonical indexes let
    /// the executor skip its per-probe candidate sort: a maintained index
    /// and a fresh rebuild already aggregate float effects identically.
    const RANGE_CANONICAL: bool = false;

    /// Build an index over `points`. Payloads need not be unique or dense.
    fn build(points: &[(Vec2, u32)]) -> Self
    where
        Self: Sized;

    /// Append the payloads of every point inside the closed rectangle
    /// `rect` to `out`, in unspecified order.
    fn range(&self, rect: &Rect, out: &mut Vec<u32>);

    /// True when [`SpatialIndex::range_batch`] filters the index's **own**
    /// SoA columns with no per-probe gather (the scan; the grid since its
    /// buckets became bucket-major column runs in one arena). A
    /// gather-based batched filter (KD boundary leaves; the grid before the
    /// arena) adds a second memory pass over every candidate, which on
    /// memory-bound cores costs more than the lane compares save for the
    /// small per-probe candidate sets indexes exist to produce — the
    /// gather-era grid measured 0.7–0.9× query throughput on the reference
    /// container, where the arena-native grid measures 1.15–1.3× and the
    /// native scan path 2–8×. The executor probes a tile of agents once
    /// through `range` and lane-filters the shared candidate block itself
    /// (`brace_core::executor`); only a row probing alone (non-local
    /// schemas, the scan baseline, a tile of one) asks through
    /// `range_batch`, and only where this is true. Gather-based paths stay
    /// exercised by the conformance suite.
    const RANGE_BATCH_NATIVE: bool = false;

    /// Batched form of [`SpatialIndex::range`]: emit coarse candidates
    /// (whole buckets, boundary leaves, whole columns) into gather columns
    /// and run the containment test as a lane kernel
    /// ([`crate::kernels::filter_rect`]) instead of a branch per point.
    /// Candidates are identical to `range`'s: for canonical indexes the
    /// emitted *sequence* matches exactly (filtering preserves gather
    /// order), for non-canonical indexes the *set* matches (callers sort,
    /// exactly as they must for `range`). The default forwards to `range`
    /// for indexes without a batched path.
    fn range_batch(&self, rect: &Rect, out: &mut Vec<u32>) {
        self.range(rect, out);
    }

    /// Payload of a point nearest to `q` in Euclidean distance (ties are
    /// broken arbitrarily), excluding points whose payload equals `exclude`
    /// (so an agent can ask for its nearest *other* agent). `None` when no
    /// eligible point exists.
    fn nearest(&self, q: Vec2, exclude: Option<u32>) -> Option<u32>;

    /// The `k` nearest points to `q` by Euclidean distance, sorted
    /// ascending into `out` (cleared first), excluding payload `exclude`.
    /// Fewer than `k` results when fewer points exist. This is the probe
    /// behind the paper's nearest-neighbor-indexing extension (its
    /// "planned future work"): MITSIM-style models look up lead/rear
    /// vehicles by proximity rather than fixed range. Ties are broken by
    /// ascending payload, so the result is a pure function of the point
    /// *set* — independent of build history, which is what lets
    /// incrementally maintained indexes answer bit-identically to freshly
    /// rebuilt ones. Taking the caller's buffer means a caller probing
    /// once per agent per tick performs no per-probe allocation (the
    /// `Nearest` probe path of the executor).
    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>);

    /// Apply a batch of position changes: each `(payload, new_pos)` moves
    /// every point carrying `payload` to `new_pos`. Returns `true` when the
    /// index applied the batch in place; `false` when it does not support
    /// in-place maintenance (or its internal payload map cannot represent
    /// the workload), in which case the caller must rebuild. After a
    /// successful `update`, every query answers exactly as a fresh build
    /// over the moved points would (candidate *sets*; intra-probe order may
    /// differ).
    fn update(&mut self, _moved: &[(u32, Vec2)]) -> bool {
        false
    }

    /// Amortized restructuring hook for indexes whose query efficiency
    /// (not correctness) degrades under [`SpatialIndex::update`]: once the
    /// accumulated motion since the last restructure exceeds
    /// `motion_budget`, the index rebuilds its stale regions. The budget is
    /// policy owned by the caller — the executor passes a fraction of the
    /// schema's visibility bound, the scale at which inflated bounding
    /// boxes start admitting extra probe candidates.
    fn maintain(&mut self, _motion_budget: f64) {}

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

/// Map `payload -> slot` for point sets whose payloads are unique and
/// dense enough (max payload < 4 × point count) — the executor's row
/// payloads always are. `None` when the payload space is sparse or
/// duplicated, in which case in-place maintenance is unsupported and the
/// caller rebuilds. Shared by every index's [`SpatialIndex::update`].
pub(crate) fn dense_slots(points: &[(Vec2, u32)]) -> Option<Vec<u32>> {
    let max = points.iter().map(|&(_, p)| p).max()?;
    if max as usize >= 4 * points.len().max(16) {
        return None;
    }
    let mut slots = vec![u32::MAX; max as usize + 1];
    for (i, &(_, p)) in points.iter().enumerate() {
        if slots[p as usize] != u32::MAX {
            return None; // duplicate payload
        }
        slots[p as usize] = i as u32;
    }
    Some(slots)
}

brace_common::tls_scratch!(
    /// Reusable per-thread `(dist², payload)` buffer for k-NN gathering, so
    /// [`SpatialIndex::k_nearest_into`] implementations allocate nothing
    /// per probe after warm-up.
    pub(crate) fn with_knn_scratch -> Vec<(f64, u32)>
);

brace_common::tls_scratch!(
    /// Reusable per-thread squared-distance column for batched k-NN
    /// gathering (the output of [`crate::kernels::dist2`]).
    pub(crate) fn with_dist2_scratch -> Vec<f64>
);

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
/// touches every point, so the range filter runs as one lane kernel over
/// the flat coordinate columns ([`crate::kernels::filter_rect`]) with no
/// per-probe gather at all.
#[derive(Debug, Clone, Default)]
pub struct ScanIndex {
    xs: Vec<f64>,
    ys: Vec<f64>,
    payloads: Vec<u32>,
    /// `payload -> slot`, when payloads are dense (enables `update`).
    slots: Option<Vec<u32>>,
}

impl SpatialIndex for ScanIndex {
    /// The scan preserves insertion order and `update` overwrites slots in
    /// place, so emission order never depends on update history.
    const RANGE_CANONICAL: bool = true;

    /// The batched filter runs directly over the scan's own columns — no
    /// per-probe gather, so it is the executor's default probe here.
    const RANGE_BATCH_NATIVE: bool = true;

    fn build(points: &[(Vec2, u32)]) -> Self {
        ScanIndex {
            xs: points.iter().map(|&(p, _)| p.x).collect(),
            ys: points.iter().map(|&(p, _)| p.y).collect(),
            payloads: points.iter().map(|&(_, pl)| pl).collect(),
            slots: dense_slots(points),
        }
    }

    fn range(&self, rect: &Rect, out: &mut Vec<u32>) {
        // Lockstep iterators, not indexing: three independent columns would
        // otherwise pay a bounds check per element.
        for ((&x, &y), &payload) in self.xs.iter().zip(&self.ys).zip(&self.payloads) {
            if rect.contains(Vec2::new(x, y)) {
                out.push(payload);
            }
        }
    }

    /// The flagship batched path: the columns are already SoA, so the lane
    /// kernel filters them directly — no gather, no per-point branch.
    fn range_batch(&self, rect: &Rect, out: &mut Vec<u32>) {
        crate::kernels::filter_rect(&self.xs, &self.ys, &self.payloads, rect, out);
    }

    fn nearest(&self, q: Vec2, exclude: Option<u32>) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        for ((&x, &y), &payload) in self.xs.iter().zip(&self.ys).zip(&self.payloads) {
            if Some(payload) == exclude {
                continue;
            }
            let d = Vec2::new(x, y).dist2(q);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, payload));
            }
        }
        best.map(|(_, payload)| payload)
    }

    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        if k == 0 {
            return;
        }
        // Squared distances as one lane kernel over the columns, then the
        // canonical (distance, payload) selection — element-for-element the
        // same arithmetic as the per-point path, so results are identical.
        with_dist2_scratch(|d2| {
            crate::kernels::dist2(&self.xs, &self.ys, q.x, q.y, d2);
            with_knn_scratch(|scratch| {
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

    fn update(&mut self, moved: &[(u32, Vec2)]) -> bool {
        let Some(slots) = &self.slots else { return false };
        for &(payload, new) in moved {
            match slots.get(payload as usize) {
                Some(&slot) if slot != u32::MAX => {
                    self.xs[slot as usize] = new.x;
                    self.ys[slot as usize] = new.y;
                }
                _ => return false,
            }
        }
        true
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
    fn scan_nearest_with_exclusion() {
        let idx = ScanIndex::build(&pts());
        assert_eq!(idx.nearest(Vec2::new(0.1, 0.1), None), Some(0));
        assert_eq!(idx.nearest(Vec2::new(0.1, 0.1), Some(0)), Some(1));
    }

    #[test]
    fn scan_empty() {
        let idx = ScanIndex::build(&[]);
        assert!(idx.is_empty());
        assert_eq!(idx.nearest(Vec2::ZERO, None), None);
        let mut out = Vec::new();
        idx.range(&Rect::EVERYTHING, &mut out);
        assert!(out.is_empty());
    }
}
