//! Batched lane kernels over candidate columns.
//!
//! The state-effect pattern freezes every position for the whole query
//! phase, so the probe hot path — *"which of these candidate points lie in
//! this rectangle / within this squared distance?"* — is a pure map over
//! flat `f64` columns with no loop-carried dependence. That is exactly the
//! shape that vectorizes, and this module is the single home for the
//! fixed-width kernels the indexes and the executor batch through.
//!
//! # Lane-width / tail contract
//!
//! Every kernel processes its input in exact chunks of [`LANES`] elements
//! followed by a scalar tail of `len % LANES` elements. Both halves perform
//! the *same IEEE-754 operation sequence per element* (compare, multiply,
//! add, subtract, divide, square root — each correctly rounded and therefore
//! identical lane-wise and scalar; no FMA contraction, no reassociation), so
//! a kernel's output is bit-identical to the naive per-element loop for
//! every input length. The tail boundary can never change results — only
//! which instructions produce them. `tests` pins the remainder handling at
//! candidate counts of 0, 1, `LANES−1`, `LANES`, `LANES+1` and `2·LANES−1`.
//!
//! # Why canonicalized candidate order makes vectorization order-safe
//!
//! Filtering kernels *select*, they never *combine*: the emitted candidate
//! subsequence preserves the input order, so a batched filter composed with
//! the indexes' canonical emission order ([`crate::SpatialIndex::RANGE_CANONICAL`])
//! feeds the behavior's effect aggregation in exactly the order the scalar
//! path would have. Reduction-shaped model kernels (fish forces, traffic
//! gap scans) keep the same guarantee by splitting into a vectorized
//! per-candidate map (distances, directions, gaps — independent elements)
//! followed by an ordered scalar fold over the mapped columns: the fold
//! runs in canonical candidate order, so float aggregation is bit-identical
//! to the per-row path by construction. `tests/properties.rs` proves the
//! equivalence end to end (`kernel_*` conformance properties).
//!
//! The portable kernels are written so stable LLVM autovectorizes them
//! (branch-free masks, exact chunking); on x86-64 an explicit `std::arch`
//! AVX path is selected by runtime feature detection
//! ([`std::arch::is_x86_feature_detected`]) — it computes the identical
//! comparisons, so the dispatch never affects results, only speed.

use brace_common::Rect;

/// Fixed lane width of the batched kernels: 4 × `f64` is one 256-bit AVX
/// register (two 128-bit SSE2 registers on older cores).
pub const LANES: usize = 4;

/// Reusable per-thread gather columns for batched range filtering: indexes
/// without native SoA storage gather candidate points (the KD-tree's
/// boundary-leaf slices) into these columns, then run [`filter_rect`] over
/// them. One scratch per thread keeps `SpatialIndex::range_batch`
/// allocation-free after warm-up. The scan and the grid never gather —
/// they filter their own columns in place (`RANGE_BATCH_NATIVE`).
#[derive(Debug, Default)]
pub struct GatherScratch {
    pub xs: Vec<f64>,
    pub ys: Vec<f64>,
    pub payloads: Vec<u32>,
}

impl GatherScratch {
    /// Drop gathered candidates, keeping the allocations.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
        self.payloads.clear();
    }

    /// Append one candidate point.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64, payload: u32) {
        self.xs.push(x);
        self.ys.push(y);
        self.payloads.push(payload);
    }

    /// Number of gathered candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }
}

brace_common::tls_scratch!(
    /// Run `f` with the thread's reusable [`GatherScratch`].
    pub fn with_gather_scratch -> GatherScratch
);

/// Append `payloads[i]` to `out` for every `i` with `(xs[i], ys[i])` inside
/// the closed rectangle `rect`, preserving input order. Bit-identical to
/// the scalar `Rect::contains` loop for every input (see the module docs);
/// an empty `rect` emits nothing, exactly like `contains`.
pub fn filter_rect(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    debug_assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
    debug_assert_eq!(xs.len(), payloads.len(), "payload column must be parallel");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just detected at runtime.
        unsafe { filter_rect_avx(xs, ys, payloads, rect, out) };
        return;
    }
    filter_rect_lanes(xs, ys, payloads, rect, out);
}

/// Portable lane implementation of [`filter_rect`]: branch-free containment
/// masks over exact [`LANES`]-wide chunks (written so LLVM autovectorizes
/// the compares on stable), then a scalar tail.
fn filter_rect_lanes(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    let n = xs.len();
    let (lox, hix, loy, hiy) = (rect.lo.x, rect.hi.x, rect.lo.y, rect.hi.y);
    let head = n - n % LANES;
    let mut i = 0;
    while i < head {
        let mut mask = [false; LANES];
        for j in 0..LANES {
            let (x, y) = (xs[i + j], ys[i + j]);
            // `&` (not `&&`): no short-circuit branches inside the lane.
            mask[j] = (x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy);
        }
        for j in 0..LANES {
            if mask[j] {
                out.push(payloads[i + j]);
            }
        }
        i += LANES;
    }
    for j in head..n {
        let (x, y) = (xs[j], ys[j]);
        if (x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy) {
            out.push(payloads[j]);
        }
    }
}

/// Explicit AVX form of [`filter_rect`]: four doubles per compare, a
/// movemask per chunk, the same scalar tail. The `_CMP_GE_OQ`/`_CMP_LE_OQ`
/// predicates are the ordered-quiet forms of `>=`/`<=`, so NaN coordinates
/// fail containment exactly as they do in scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn filter_rect_avx(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    use std::arch::x86_64::*;
    let n = xs.len();
    // The vector loads below index all three columns by `xs`' length.
    assert!(ys.len() >= n && payloads.len() >= n, "filter_rect columns must be parallel");
    let lox = _mm256_set1_pd(rect.lo.x);
    let hix = _mm256_set1_pd(rect.hi.x);
    let loy = _mm256_set1_pd(rect.lo.y);
    let hiy = _mm256_set1_pd(rect.hi.y);
    let head = n - n % LANES;
    let mut i = 0;
    while i < head {
        // SAFETY: `i + LANES <= head <= n`, and every column holds at least
        // `n` elements (asserted above), so each load reads in bounds.
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        let y = _mm256_loadu_pd(ys.as_ptr().add(i));
        let mx = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(x, lox), _mm256_cmp_pd::<_CMP_LE_OQ>(x, hix));
        let my = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(y, loy), _mm256_cmp_pd::<_CMP_LE_OQ>(y, hiy));
        let mut bits = _mm256_movemask_pd(_mm256_and_pd(mx, my)) as u32;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            out.push(payloads[i + j]);
            bits &= bits - 1;
        }
        i += LANES;
    }
    for j in head..n {
        let (x, y) = (xs[j], ys[j]);
        if (x >= rect.lo.x) & (x <= rect.hi.x) & (y >= rect.lo.y) & (y <= rect.hi.y) {
            out.push(payloads[j]);
        }
    }
}

/// Write the squared Euclidean distance from `(qx, qy)` to every
/// `(xs[i], ys[i])` into `out` (cleared and resized to the input length).
/// Each element is `dx*dx + dy*dy` — the exact operation sequence of
/// `Vec2::dist2` — so batched k-NN gathering aggregates the same bits the
/// per-point path would.
pub fn dist2(xs: &[f64], ys: &[f64], qx: f64, qy: f64, out: &mut Vec<f64>) {
    debug_assert_eq!(xs.len(), ys.len(), "coordinate columns must be parallel");
    out.clear();
    out.extend(xs.iter().zip(ys).map(|(&x, &y)| {
        let (dx, dy) = (x - qx, y - qy);
        dx * dx + dy * dy
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{DetRng, Vec2};

    fn naive_filter(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        for i in 0..xs.len() {
            if rect.contains(Vec2::new(xs[i], ys[i])) {
                out.push(payloads[i]);
            }
        }
        out
    }

    fn columns(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<u32>) {
        let mut rng = DetRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.range(-10.0, 10.0)).collect();
        let pls: Vec<u32> = (0..n as u32).collect();
        (xs, ys, pls)
    }

    /// The scalar-tail contract: candidate counts of 0, 1, LANES−1, LANES,
    /// LANES+1 and 2·LANES−1 pin the remainder handling of both dispatch
    /// paths against the naive per-element loop.
    #[test]
    fn filter_rect_tail_counts_match_naive() {
        let rect = Rect::from_bounds(-5.0, 5.0, -5.0, 5.0);
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            let (xs, ys, pls) = columns(n, n as u64 + 7);
            let mut got = Vec::new();
            filter_rect(&xs, &ys, &pls, &rect, &mut got);
            assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect), "count {n}");
            // The portable lane path must agree with whatever `filter_rect`
            // dispatched to (the AVX path on x86-64 with AVX).
            let mut lanes = Vec::new();
            filter_rect_lanes(&xs, &ys, &pls, &rect, &mut lanes);
            assert_eq!(lanes, got, "lane/arch dispatch divergence at count {n}");
        }
    }

    #[test]
    fn filter_rect_preserves_input_order() {
        let (xs, ys, pls) = columns(97, 3);
        let rect = Rect::from_bounds(-4.0, 9.0, -8.0, 3.0);
        let mut got = Vec::new();
        filter_rect(&xs, &ys, &pls, &rect, &mut got);
        assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect));
        // Emission preserves input order (payloads were assigned in order).
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn filter_rect_boundary_and_empty_rect() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.0; 5];
        let pls = [0, 1, 2, 3, 4];
        // Closed containment: both boundary points included.
        let mut out = Vec::new();
        filter_rect(&xs, &ys, &pls, &Rect::from_bounds(2.0, 4.0, 0.0, 0.0), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        // Empty rectangle (lo > hi) admits nothing — same as Rect::contains.
        out.clear();
        filter_rect(&xs, &ys, &pls, &Rect::EMPTY, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_rect_denormal_and_signed_zero_positions() {
        let tiny = f64::MIN_POSITIVE; // smallest normal
        let denormal = f64::from_bits(1); // smallest subnormal
        let xs = [0.0, -0.0, denormal, -denormal, tiny, 1.0, -1.0];
        let ys = [denormal, 0.0, -0.0, tiny, -tiny, 0.0, 0.0];
        let pls: Vec<u32> = (0..xs.len() as u32).collect();
        let rect = Rect::from_bounds(-0.0, tiny, -tiny, tiny);
        let mut got = Vec::new();
        filter_rect(&xs, &ys, &pls, &rect, &mut got);
        assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect));
        // ±0.0 compare equal: both zero-x points are inside [-0.0, tiny].
        assert!(got.contains(&0) && got.contains(&1));
    }

    #[test]
    fn dist2_matches_per_point_ops_at_tail_counts() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            let (xs, ys, _) = columns(n, n as u64 + 31);
            let q = Vec2::new(0.25, -3.5);
            let mut got = Vec::new();
            dist2(&xs, &ys, q.x, q.y, &mut got);
            assert_eq!(got.len(), n);
            for i in 0..n {
                let want = Vec2::new(xs[i], ys[i]).dist2(q);
                assert_eq!(got[i].to_bits(), want.to_bits(), "count {n} element {i}");
            }
        }
    }

    #[test]
    fn gather_scratch_reuses_and_clears() {
        with_gather_scratch(|s| {
            s.clear();
            assert!(s.is_empty());
            s.push(1.0, 2.0, 7);
            assert_eq!(s.len(), 1);
        });
        with_gather_scratch(|s| {
            s.clear();
            assert!(s.is_empty(), "clear must drop candidates across uses");
        });
    }
}
