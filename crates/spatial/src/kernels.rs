//! Batched lane kernels over candidate columns.
//!
//! The state-effect pattern freezes every position for the whole query
//! phase, so the probe hot path — *"which of these candidate points lie in
//! this rectangle / within this squared distance?"* — is a pure map over
//! flat `f64` columns with no loop-carried dependence. That is exactly the
//! shape that vectorizes, and this module is the single home for the
//! fixed-width kernels the indexes and the executor batch through: the
//! executor's join members and its scan filter with [`filter_rect_coords`]
//! (which emits each hit's coordinates beside its row, so a member's
//! candidates leave the filter with their positions), the scan index with
//! [`filter_rect`], the scan and grid indexes gather k-NN distances with
//! [`dist2`], and the zonal models (fish, flock-obstacles) compress those
//! carried positions to their visible disc with [`compress_disc`] and turn
//! the kept candidates into unit directions with [`unit_dirs`]. The
//! executor's join also orders and looks up here:
//! each block goes into ascending id by
//! [`block_order`] (rank placement, or the byte radix [`radix_sort_by_key`]
//! that builds the tick's id order too), the probe order of [`ProbeKey`]s is
//! sorted by [`TileDirectory::sort`] (a counting sort whose prefix sums are
//! the tile directory, or that radix sort for a sparse world), and each
//! block's rows are found by [`TileDirectory::window`] or, without a
//! directory, [`seek_window`] — exact integer work, no float at all.
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
//! candidate counts of 0, 1, `LANES−1`, `LANES`, `LANES+1` and `2·LANES−1`
//! — for [`filter_rect`], under every hit pattern of those lengths (and for
//! its coordinate mode under every hit pattern of every length to
//! `2·LANES`, payloads and coordinate bits), for [`compress_disc`] at every
//! run length to a full block against the scalar per-candidate cursor, and
//! for [`unit_dirs`], which maps `N` elements per call (its caller takes a
//! run in chunks of `N` and the remainder one at a time), at `N` = 1, 2 and
//! [`LANES`] against [`candidate_force`], element by element.
//!
//! # Emission: write, then advance
//!
//! The contract covers how [`filter_rect`] and [`compress_disc`] *emit*,
//! not only how they test. A member of a probe group selects ≈45 % of its
//! block, so a branch (and a `Vec::push` with its capacity test) per hit
//! mispredicts about as often as a branch can. Head and tail therefore emit
//! without one: every candidate's payload is **written** at the current end
//! of the output unconditionally, and the end **advances** by the
//! candidate's mask bit — a miss is overwritten by the next write, a hit is
//! kept. In [`filter_rect_coords`] the candidate's x and y are written at
//! the same end of their own outputs, so the three stay parallel; in
//! [`compress_disc`] its row, displacement and squared distance. The AVX2
//! head does this four at a time (compress-store: a 16-entry
//! lane-permutation table packs the chunk's hits to the front of one
//! 16-byte store of payloads, its 64-bit twin packs the chunk's doubles to
//! the front of one 32-byte store per column; the end advances by
//! `popcnt(mask)`).
//!
//! *The over-write bound.* The filter reserves one slot per input element
//! up front in each output it writes (the disc compress writes fixed arrays
//! at least as long as its run), so every write lands in memory the output
//! owns: the end never runs ahead of the number of elements visited, and a
//! chunk's store covers at most [`LANES`] slots from the end. On return at
//! most `LANES − 1` slots past the final length have been written; they
//! stay outside `len` — the length is set once, after the last write,
//! nothing uninitialised is ever read, and the output's earlier contents
//! are never touched (the filter appends).
//!
//! *Why selection stays order-preserving.* Writes happen in input order and
//! a kept payload's slot is the number of hits before it — in the vector
//! head too, where the permutation table lists a mask's set lanes in
//! ascending order. The emitted subsequence is the naive loop's, element
//! for element, which is what the next section leans on.
//!
//! # Why canonicalized candidate order makes vectorization order-safe
//!
//! Filtering kernels *select*, they never *combine*: the emitted candidate
//! subsequence preserves the input order, so a batched filter composed with
//! the indexes' canonical emission order ([`crate::SpatialIndex::RANGE_CANONICAL`])
//! feeds the behavior's effect aggregation in exactly the order the scalar
//! path would have. The one model kernel, [`unit_dirs`], keeps the same
//! guarantee by being a pure map — independent elements, each bit for bit
//! what [`candidate_force`] returns; the zonal query that folds its output
//! in candidate order is described at `brace_models`' `fold_zonal_forces`,
//! and `tests/properties.rs` proves it end to end
//! (`kernel_zonal_forces_equal_the_candidate_loop`), as
//! `kernel_range_filter_batched_equals_scalar` does the filter.
//!
//! The portable kernels are written so stable LLVM autovectorizes them
//! (branch-free masks, exact chunking); on x86-64 the filter (both modes)
//! and [`compress_disc`] have explicit `std::arch` AVX2 paths, selected by
//! runtime feature detection ([`std::arch::is_x86_feature_detected`]) —
//! they compute the identical comparisons and arithmetic and emit the
//! identical subsequence, so the dispatch never affects results, only
//! speed. They need AVX2 (for `vpermps`, the cross-lane permute that packs
//! doubles) and nothing newer: no FMA, BMI2 or AVX-512. A runner without
//! AVX2 takes the portable lane paths, which the tests pin to the same
//! bits.

use brace_common::{Rect, Vec2};

/// Fixed lane width of the batched kernels: 4 × `f64` is one 256-bit AVX
/// register (two 128-bit SSE2 registers on older cores).
pub const LANES: usize = 4;

/// Append `payloads[i]` to `out` for every `i` with `(xs[i], ys[i])` inside
/// the closed rectangle `rect`, preserving input order. Bit-identical to
/// the scalar `Rect::contains` loop for every input (see the module docs);
/// an empty `rect` emits nothing, exactly like `contains`. `out`'s existing
/// contents are kept; its capacity grows by at most the input length.
pub fn filter_rect(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect, out: &mut Vec<u32>) {
    // The coordinate columns are never touched in this mode: empty vectors,
    // which allocate nothing.
    filter::<false>(xs, ys, payloads, rect, out, &mut Vec::new(), &mut Vec::new());
}

/// [`filter_rect`] that also appends each hit's coordinates, `xs[i]` to
/// `out_xs` and `ys[i]` to `out_ys`, beside its payload: the three outputs
/// grow by the same hits in the same order, so a caller that hands in
/// parallel columns gets parallel columns back.
pub fn filter_rect_coords(
    xs: &[f64],
    ys: &[f64],
    payloads: &[u32],
    rect: &Rect,
    out: &mut Vec<u32>,
    out_xs: &mut Vec<f64>,
    out_ys: &mut Vec<f64>,
) {
    filter::<true>(xs, ys, payloads, rect, out, out_xs, out_ys);
}

/// The one body of [`filter_rect`] and [`filter_rect_coords`]: `COORDS`
/// says whether the hits' coordinates are emitted too.
#[inline(always)]
fn filter<const COORDS: bool>(
    xs: &[f64],
    ys: &[f64],
    payloads: &[u32],
    rect: &Rect,
    out: &mut Vec<u32>,
    out_xs: &mut Vec<f64>,
    out_ys: &mut Vec<f64>,
) {
    // Hard asserts: the AVX2 path's raw loads and both paths' emission bound
    // (`hits <= xs.len()`) rest on the three columns being parallel.
    assert!(ys.len() == xs.len() && payloads.len() == xs.len(), "filter_rect columns must be parallel");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected at runtime, and the columns
        // are parallel (asserted above).
        unsafe { filter_rect_avx2::<COORDS>(xs, ys, payloads, rect, out, out_xs, out_ys) };
        return;
    }
    filter_rect_lanes::<COORDS>(xs, ys, payloads, rect, out, out_xs, out_ys);
}

/// Portable lane implementation of [`filter`]: branch-free containment
/// masks over exact [`LANES`]-wide chunks (written so LLVM autovectorizes
/// the compares on stable), then a scalar tail — both emitting by
/// write-then-advance (module docs) into the outputs' spare capacity.
fn filter_rect_lanes<const COORDS: bool>(
    xs: &[f64],
    ys: &[f64],
    payloads: &[u32],
    rect: &Rect,
    out: &mut Vec<u32>,
    out_xs: &mut Vec<f64>,
    out_ys: &mut Vec<f64>,
) {
    let n = xs.len();
    let (ys, payloads) = (&ys[..n], &payloads[..n]);
    let (lox, hix, loy, hiy) = (rect.lo.x, rect.hi.x, rect.lo.y, rect.hi.y);
    out.reserve(n);
    if COORDS {
        out_xs.reserve(n);
        out_ys.reserve(n);
    }
    let (len, len_x, len_y) = (out.len(), out_xs.len(), out_ys.len());
    let spare = out.spare_capacity_mut();
    let (spare_x, spare_y) = (out_xs.spare_capacity_mut(), out_ys.spare_capacity_mut());
    // Write element `j` at the end, `k`: its payload, and in the coordinate
    // mode its position. `k <= j < n <= spare.len()`: one hit at most per
    // element visited.
    let mut write = |k: usize, j: usize| {
        spare[k].write(payloads[j]);
        if COORDS {
            spare_x[k].write(xs[j]);
            spare_y[k].write(ys[j]);
        }
    };
    let head = n - n % LANES;
    let mut k = 0;
    let mut i = 0;
    while i < head {
        let mut mask = [false; LANES];
        for j in 0..LANES {
            let (x, y) = (xs[i + j], ys[i + j]);
            // `&` (not `&&`): no short-circuit branches inside the lane.
            mask[j] = (x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy);
        }
        for (j, &hit) in mask.iter().enumerate() {
            write(k, i + j);
            k += hit as usize;
        }
        i += LANES;
    }
    for j in head..n {
        let (x, y) = (xs[j], ys[j]);
        write(k, j);
        k += ((x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy)) as usize;
    }
    // SAFETY: `k <= n` slots were reserved above in each output written, and
    // every slot of `len..len + k` was written: slot `k'` is (re)written by
    // each element visited while the hit count stands at `k'`, the last of
    // which is the hit that advances the count past it. The coordinate
    // outputs, in the coordinate mode, likewise from `len_x` and `len_y`.
    unsafe {
        out.set_len(len + k);
        if COORDS {
            out_xs.set_len(len_x + k);
            out_ys.set_len(len_y + k);
        }
    }
}

/// `COMPRESS[m]`: the lanes set in the 4-bit mask `m`, ascending, packed to
/// the front — the `vpermilps` control that moves a chunk's selected
/// payloads, in input order, to the low end of the register. Unused control
/// lanes are 0: they move a payload of the same chunk into a slot past the
/// advanced length, which the next store (or nothing) overwrites.
#[cfg(target_arch = "x86_64")]
static COMPRESS: [[u32; LANES]; 1 << LANES] = {
    let mut lut = [[0; LANES]; 1 << LANES];
    let mut m = 0;
    while m < 1 << LANES {
        let (mut k, mut lane) = (0, 0);
        while lane < LANES {
            if m >> lane & 1 == 1 {
                lut[m][k] = lane as u32;
                k += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    lut
};

/// `COMPRESS_F64[m]`: [`COMPRESS`] for four `f64` lanes, as the `vpermps`
/// control over their eight 32-bit halves — kept lane `l` moves as the
/// pair `2l, 2l + 1`. Unused pairs are lane 0's, as in [`COMPRESS`].
#[cfg(target_arch = "x86_64")]
static COMPRESS_F64: [[u32; 2 * LANES]; 1 << LANES] = {
    let mut lut = [[0; 2 * LANES]; 1 << LANES];
    let mut m = 0;
    while m < 1 << LANES {
        let mut j = 0;
        while j < LANES {
            lut[m][2 * j] = 2 * COMPRESS[m][j];
            lut[m][2 * j + 1] = 2 * COMPRESS[m][j] + 1;
            j += 1;
        }
        m += 1;
    }
    lut
};

/// Explicit AVX2 form of [`filter`]: four doubles per compare, a movemask
/// per chunk, and emission by **compress-store** — the mask picks a lane
/// permutation from [`COMPRESS`], `vpermilps` packs the chunk's selected
/// payloads to the front, one unconditional 16-byte store writes them at
/// the current end, and the end advances by `popcnt(mask)`. In the
/// coordinate mode the same mask picks a [`COMPRESS_F64`] control, and
/// `vpermps` packs the chunk's x and y lanes the same way, one 32-byte store
/// each. No branch or `push` per hit: members select ≈45 % of their block,
/// which a per-lane branch mispredicts. AVX2 for `vpermps` (no BMI2 `pext`
/// or AVX-512 `vpcompress`). The `_CMP_GE_OQ`/`_CMP_LE_OQ` predicates are
/// the ordered-quiet forms of `>=`/`<=`, so NaN coordinates fail
/// containment exactly as they do in scalar code.
///
/// # Safety
///
/// The CPU must support AVX2, and `ys` and `payloads` must hold at least
/// `xs.len()` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn filter_rect_avx2<const COORDS: bool>(
    xs: &[f64],
    ys: &[f64],
    payloads: &[u32],
    rect: &Rect,
    out: &mut Vec<u32>,
    out_xs: &mut Vec<f64>,
    out_ys: &mut Vec<f64>,
) {
    use std::arch::x86_64::*;
    let n = xs.len();
    debug_assert!(ys.len() >= n && payloads.len() >= n);
    let lox = _mm256_set1_pd(rect.lo.x);
    let hix = _mm256_set1_pd(rect.hi.x);
    let loy = _mm256_set1_pd(rect.lo.y);
    let hiy = _mm256_set1_pd(rect.hi.y);
    out.reserve(n);
    if COORDS {
        out_xs.reserve(n);
        out_ys.reserve(n);
    }
    let (len, len_x, len_y) = (out.len(), out_xs.len(), out_ys.len());
    // SAFETY (every write below): `dst` addresses the `n` reserved slots
    // past `len`, and in the coordinate mode `dst_x` and `dst_y` those past
    // `len_x` and `len_y` (otherwise they are never written). The hit count
    // `k` never exceeds the number of elements already visited, so a chunk's
    // stores cover slots `k..k + LANES` with `k + LANES <= i + LANES <= n`,
    // and a tail write lands at `k <= j < n`.
    let dst = out.as_mut_ptr().add(len);
    let (dst_x, dst_y) = (out_xs.as_mut_ptr().add(len_x), out_ys.as_mut_ptr().add(len_y));
    let head = n - n % LANES;
    let mut k = 0;
    let mut i = 0;
    while i < head {
        // SAFETY: `i + LANES <= head <= n`, and every column holds at least
        // `n` elements (the caller's contract), so each load reads in bounds.
        let x = _mm256_loadu_pd(xs.as_ptr().add(i));
        let y = _mm256_loadu_pd(ys.as_ptr().add(i));
        let mx = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(x, lox), _mm256_cmp_pd::<_CMP_LE_OQ>(x, hix));
        let my = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(y, loy), _mm256_cmp_pd::<_CMP_LE_OQ>(y, hiy));
        let mask = _mm256_movemask_pd(_mm256_and_pd(mx, my)) as usize;
        let chunk = _mm_castsi128_ps(_mm_loadu_si128(payloads.as_ptr().add(i).cast()));
        let control = _mm_loadu_si128(COMPRESS[mask].as_ptr().cast());
        _mm_storeu_ps(dst.add(k).cast(), _mm_permutevar_ps(chunk, control));
        if COORDS {
            let control = _mm256_loadu_si256(COMPRESS_F64[mask].as_ptr().cast());
            let pack = |v: __m256d| _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), control));
            _mm256_storeu_pd(dst_x.add(k), pack(x));
            _mm256_storeu_pd(dst_y.add(k), pack(y));
        }
        k += mask.count_ones() as usize;
        i += LANES;
    }
    for j in head..n {
        let (x, y) = (xs[j], ys[j]);
        dst.add(k).write(payloads[j]);
        if COORDS {
            dst_x.add(k).write(x);
            dst_y.add(k).write(y);
        }
        k += ((x >= rect.lo.x) & (x <= rect.hi.x) & (y >= rect.lo.y) & (y <= rect.hi.y)) as usize;
    }
    // SAFETY: slots `len..len + k` are initialised — each chunk's store puts
    // its `popcnt` selected payloads first and `k` advances past exactly
    // those, a tail write is kept only when `k` advances past it — and
    // `len + k <= len + n` is within the reserved capacity; the coordinate
    // outputs likewise in the coordinate mode. Set after the last write:
    // nothing past the old lengths was observable before this line.
    out.set_len(len + k);
    if COORDS {
        out_xs.set_len(len_x + k);
        out_ys.set_len(len_y + k);
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

/// The zonal models' per-candidate force geometry, and the scalar
/// specification [`unit_dirs`] is held to: the squared distance from
/// `(mx, my)` to `(cx, cy)` plus the unit direction toward it — zero when
/// (near) coincident, the same guard `Vec2::normalized` applies, but on the
/// cheaper `sqrt(d²)` rather than `hypot`. Zone cutoffs compare against
/// squared radii for the same reason.
#[inline]
pub fn candidate_force(mx: f64, my: f64, cx: f64, cy: f64) -> (f64, f64, f64) {
    let dx = cx - mx;
    let dy = cy - my;
    let d2 = dx * dx + dy * dy;
    let d = d2.sqrt();
    if d > f64::EPSILON {
        (d2, dx / d, dy / d)
    } else {
        (d2, 0.0, 0.0)
    }
}

/// The unit directions of `N` displacements `(dx[j], dy[j])` whose squared
/// lengths are `d2[j]` (`dx[j]² + dy[j]²`, computed by the caller): bit for
/// bit the `(ux, uy)` [`candidate_force`] returns for each. A pure map whose
/// guard is a bit mask, not a branch, so LLVM packs an `N = 2` call into one
/// square root and two divides on the baseline target. A caller that maps a
/// run of any length takes it in chunks of `N` and its remainder with
/// `N = 1`.
#[inline(always)]
pub fn unit_dirs<const N: usize>(dx: [f64; N], dy: [f64; N], d2: [f64; N]) -> ([f64; N], [f64; N]) {
    let d = d2.map(f64::sqrt);
    let (mut ux, mut uy) = ([0.0; N], [0.0; N]);
    for j in 0..N {
        // All ones where the length exceeds `f64::EPSILON`, else (a NaN length
        // included) all zeros, which turns both quotients into `+0.0`,
        // `candidate_force`'s `0.0`. A discarded quotient (`x / 0`, `∞ / ∞`,
        // …) traps no floating-point exception.
        let keep = u64::from(d[j] > f64::EPSILON).wrapping_neg();
        ux[j] = f64::from_bits((dx[j] / d[j]).to_bits() & keep);
        uy[j] = f64::from_bits((dy[j] / d[j]).to_bits() & keep);
    }
    (ux, uy)
}

/// One run of candidates kept by [`compress_disc`], first `len` entries of
/// each column (the kernel's return value): the candidate's row, its
/// displacement `(dx, dy)` from the querying point and its squared distance
/// `d2`. Entries past `len` hold whatever the last writes left there.
#[derive(Debug, Clone)]
pub struct Kept<const N: usize> {
    pub rows: [u32; N],
    pub dx: [f64; N],
    pub dy: [f64; N],
    pub d2: [f64; N],
}

impl<const N: usize> Default for Kept<N> {
    fn default() -> Self {
        Kept { rows: [0; N], dx: [0.0; N], dy: [0.0; N], d2: [0.0; N] }
    }
}

/// The zonal models' compress pass: for every candidate `i` of the run
/// `(rows, xs, ys)` (parallel, at most `N` long), the displacement
/// `(xs[i] − c.x, ys[i] − c.y)` and its squared length `dx·dx + dy·dy` —
/// [`candidate_force`]'s operation sequence, no FMA — and keep it, in run
/// order, unless its row is `me` or its squared distance is greater than
/// `rho2` (a NaN distance is not greater, so it stays in). Returns how many
/// were kept into `out`.
///
/// Emission is [`filter_rect`]'s: write every candidate at the end, advance
/// by its keep bit; the AVX2 path packs each [`LANES`]-wide chunk's kept
/// lanes with the same permutation tables and stores them unconditionally.
/// The portable path is the lane loop of the same operations; both equal
/// the scalar per-candidate cursor, bit for bit.
#[inline]
pub fn compress_disc<const N: usize>(
    rows: &[u32],
    xs: &[f64],
    ys: &[f64],
    me: u32,
    c: Vec2,
    rho2: f64,
    out: &mut Kept<N>,
) -> usize {
    // Hard assert: both paths' stores rest on it (a chunk's store reaches
    // `LANES` slots past the end, which the bound keeps inside `N`).
    assert!(
        xs.len() == rows.len() && ys.len() == rows.len() && rows.len() <= N,
        "compress_disc columns must be parallel and fit the output"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected at runtime; the columns are
        // parallel and fit `out` (asserted above).
        return unsafe { compress_disc_avx2(rows, xs, ys, me, c, rho2, out) };
    }
    compress_disc_lanes(rows, xs, ys, me, c, rho2, out)
}

/// `!(d2 > rho2)`: within the disc, or a NaN distance (one compare).
#[inline(always)]
fn not_beyond(d2: f64, rho2: f64) -> bool {
    d2.partial_cmp(&rho2) != Some(std::cmp::Ordering::Greater)
}

/// Portable lane implementation of [`compress_disc`]: each [`LANES`]-wide
/// chunk's displacements, squared distances and keep bits, then its
/// write-then-advance emission; then the tail one at a time.
fn compress_disc_lanes<const N: usize>(
    rows: &[u32],
    xs: &[f64],
    ys: &[f64],
    me: u32,
    c: Vec2,
    rho2: f64,
    out: &mut Kept<N>,
) -> usize {
    let n = rows.len();
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mut k = 0;
    // Write candidate `j` at the end, `k` (`k <= j < n <= N`), and return
    // its keep bit.
    let mut emit = |k: usize, j: usize| {
        let (dx, dy) = (xs[j] - c.x, ys[j] - c.y);
        let d2 = dx * dx + dy * dy;
        (out.rows[k], out.dx[k], out.dy[k], out.d2[k]) = (rows[j], dx, dy, d2);
        ((rows[j] != me) & not_beyond(d2, rho2)) as usize
    };
    let head = n - n % LANES;
    for i in (0..head).step_by(LANES) {
        for j in i..i + LANES {
            k += emit(k, j);
        }
    }
    for j in head..n {
        k += emit(k, j);
    }
    k
}

/// Explicit AVX2 form of [`compress_disc`]: four displacements, squared
/// distances and compares per chunk (`sub`, `mul`, `mul`, `add`: the scalar
/// sequence, and nothing here enables FMA), the keep mask from the
/// `_CMP_GT_OQ` movemask (false for NaN, so a NaN distance is kept) and the
/// rows' equality with `me`, then [`filter_rect_avx2`]'s compress-store of
/// the rows, `dx`, `dy` and `d2` at the end, which advances by
/// `popcnt(mask)`.
///
/// # Safety
///
/// The CPU must support AVX2; `xs` and `ys` must hold at least
/// `rows.len()` elements, and `rows.len() <= N`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compress_disc_avx2<const N: usize>(
    rows: &[u32],
    xs: &[f64],
    ys: &[f64],
    me: u32,
    c: Vec2,
    rho2: f64,
    out: &mut Kept<N>,
) -> usize {
    use std::arch::x86_64::*;
    let n = rows.len();
    debug_assert!(xs.len() >= n && ys.len() >= n && n <= N);
    let (cx, cy, r2) = (_mm256_set1_pd(c.x), _mm256_set1_pd(c.y), _mm256_set1_pd(rho2));
    let mine = _mm_set1_epi32(me as i32);
    let head = n - n % LANES;
    let mut k = 0;
    let mut i = 0;
    while i < head {
        // SAFETY: `i + LANES <= head <= n`, within every column (the
        // caller's contract). Each store covers `k..k + LANES` with
        // `k <= i`, so `k + LANES <= n <= N`, inside every output array.
        let dx = _mm256_sub_pd(_mm256_loadu_pd(xs.as_ptr().add(i)), cx);
        let dy = _mm256_sub_pd(_mm256_loadu_pd(ys.as_ptr().add(i)), cy);
        let d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
        let far = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(d2, r2));
        let chunk = _mm_loadu_si128(rows.as_ptr().add(i).cast());
        let own = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(chunk, mine)));
        let mask = (!(far | own) & 0xF) as usize;
        let control = _mm_loadu_si128(COMPRESS[mask].as_ptr().cast());
        _mm_storeu_ps(out.rows.as_mut_ptr().add(k).cast(), _mm_permutevar_ps(_mm_castsi128_ps(chunk), control));
        let control = _mm256_loadu_si256(COMPRESS_F64[mask].as_ptr().cast());
        let pack = |v: __m256d| _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), control));
        _mm256_storeu_pd(out.dx.as_mut_ptr().add(k), pack(dx));
        _mm256_storeu_pd(out.dy.as_mut_ptr().add(k), pack(dy));
        _mm256_storeu_pd(out.d2.as_mut_ptr().add(k), pack(d2));
        k += mask.count_ones() as usize;
        i += LANES;
    }
    for j in head..n {
        let (dx, dy) = (xs[j] - c.x, ys[j] - c.y);
        let d2 = dx * dx + dy * dy;
        (out.rows[k], out.dx[k], out.dy[k], out.d2[k]) = (rows[j], dx, dy, d2);
        k += ((rows[j] != me) & not_beyond(d2, rho2)) as usize;
    }
    k
}

/// The longest block [`block_order`] orders by rank placement; a longer one
/// takes the byte radix. Placement does `len × W` compares; the radix makes
/// two counting passes whose 256-bucket prefix sums cost as much at 33
/// ranks as at 500. Against `sort_unstable` plus the map, on distinct ranks
/// below 40 000 (2-vCPU Xeon, baseline x86-64 codegen, best of 7 on a noisy
/// host): placement takes 28 ns against ≈ 95 at 8 ranks and 150–210
/// against 260–330 at 32; the radix loses just above the cut (33 ranks:
/// 400–550 against 270–340), breaks even near 64 and wins from ≈ 100 ranks
/// (153: ≈ 1 000 against ≈ 1 500; 540: ≈ 3 000 against ≈ 6 500). Blocks of
/// 33–64 ranks are 2 % of `predator`'s and 16 % of `epidemic`'s.
const PLACE_MAX: usize = 32;

/// Put a join block in ascending agent id: `block` holds distinct id ranks
/// (places in the id order `by_id`, all below `u32::MAX`), and on return it
/// holds their rows `by_id[rank]` in ascending rank. A set of distinct ranks
/// has exactly one ascending order, so both arms below produce it, bit for
/// bit what `sort_unstable` followed by the map does.
///
/// - **Up to `PLACE_MAX` ranks: rank placement.** Each rank's row is
///   written at the count of smaller ranks in the block — a compare-all sum
///   over a `u32::MAX`-padded copy 8, 16 or 32 wide, which LLVM vectorizes
///   on the baseline target with no branch on the data.
/// - **Above: a byte radix** ([`radix_sort_by_key`], two passes below
///   65 536 visible rows) through the scatter buffer `spare`, then the map.
pub fn block_order(block: &mut Vec<u32>, by_id: &[u32], spare: &mut Vec<u32>) {
    match block.len() {
        0..=8 => place::<8>(block, by_id),
        9..=16 => place::<16>(block, by_id),
        17..=PLACE_MAX => place::<PLACE_MAX>(block, by_id),
        _ => {
            radix_sort_by_key(block, spare, |&rank| rank as u128);
            block.iter_mut().for_each(|rank| *rank = by_id[*rank as usize]);
        }
    }
}

/// Rank placement of at most `W` distinct ranks. The padding is `u32::MAX`,
/// above every rank, so it never counts as smaller.
#[inline]
fn place<const W: usize>(block: &mut [u32], by_id: &[u32]) {
    let mut ranks = [u32::MAX; W];
    ranks[..block.len()].copy_from_slice(block);
    for &rank in &ranks[..block.len()] {
        let smaller: u32 = ranks.iter().map(|&other| (other < rank) as u32).sum();
        block[smaller as usize] = by_id[rank as usize];
    }
}

/// Stable LSD radix sort of `items` by `key`, through the scatter buffer
/// `spare`: one counting pass per byte of the key that not every key shares
/// — none when all keys are equal, two or three for a run's agent ids, one
/// per byte of a world's extent in tiles. On return `items` and `spare` may
/// have traded buffers.
pub fn radix_sort_by_key<T: Copy>(items: &mut Vec<T>, spare: &mut Vec<T>, key: impl Fn(&T) -> u128) {
    let Some(&head) = items.first() else { return };
    let first = key(&head);
    let varying = items.iter().fold(0, |bits, item| bits | (key(item) ^ first));
    for shift in (0..128).step_by(8).filter(|&shift| (varying >> shift) as u8 != 0) {
        let digit = |item: &T| (key(item) >> shift) as u8 as usize;
        // Count each digit, then turn the counts into where each digit's
        // next item goes.
        let mut next = [0usize; 256];
        items.iter().for_each(|item| next[digit(item)] += 1);
        next.iter_mut().fold(0, |start, n| start + std::mem::replace(n, start));
        spare.resize(items.len(), head);
        for item in items.iter() {
            let d = digit(item);
            spare[next[d]] = *item;
            next[d] += 1;
        }
        std::mem::swap(items, spare);
    }
}

/// One visible row in a tick's **probe order**: the tile its position falls
/// in, the row, and its id rank (its place in the id order). The order is
/// sorted by `(ty, tx, id)` — y-major, so the tiles a rect spans along x are
/// one contiguous run per tile-row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeKey {
    pub ty: i64,
    pub tx: i64,
    pub row: u32,
    pub rank: u32,
}

impl ProbeKey {
    #[inline]
    pub fn tile(&self) -> (i64, i64) {
        (self.ty, self.tx)
    }
}

/// Tiles a [`TileDirectory`] may span per visible row (agent) it sorts,
/// beyond [`DIRECTORY_SLACK`]: within that, its prefix-sum pass and its
/// offsets (4 bytes a tile) stay a small multiple of the rows' own counting
/// pass and memory; a sparser world keeps the radix sort.
const DIRECTORY_TILES_PER_ROW: usize = 8;

/// Tiles any world's directory may span (16 KiB of offsets), so a small
/// world is never refused for being sparse.
const DIRECTORY_SLACK: usize = 4096;

/// The probe order's **tile directory**: when the box of occupied tiles is
/// dense enough, the order is a counting sort by the dense tile index
/// `(ty − ty0)·w + (tx − tx0)`, and its prefix sums are kept — `start[t]` is
/// where tile `t` begins — with the rows' id ranks in probe order, so every
/// tile-row of a window is one slice of `ranks`, two offset loads away
/// ([`TileDirectory::window`]). Buffers are kept across ticks.
#[derive(Debug, Default)]
pub struct TileDirectory {
    /// The occupied tile box's lowest and highest tiles, `(ty, tx)`.
    lo: (i64, i64),
    hi: (i64, i64),
    /// Tiles per box row.
    w: usize,
    /// `w·h + 1` offsets into `ranks`; empty when the directory is not built.
    start: Vec<u32>,
    ranks: Vec<u32>,
}

impl TileDirectory {
    /// Sort `cells`, fed in id order, into the probe order through the
    /// scatter buffer `spare`. When the occupied box holds at most `DIRECTORY_TILES_PER_ROW` tiles
    /// per row plus `DIRECTORY_SLACK`, the sort is a counting sort by dense
    /// tile index and builds the directory; a box over that (an outlier
    /// 10⁹ units out, tiles saturated at the ends of `i64`, a sparse
    /// diagonal) takes [`radix_sort_by_key`] over the tile's offset from
    /// the lowest one. Both are stable, so ties keep ascending id and the
    /// two orders are the same.
    pub fn sort(&mut self, cells: &mut Vec<ProbeKey>, spare: &mut Vec<ProbeKey>) {
        self.clear();
        let (lo, hi) = cells.iter().fold(((i64::MAX, i64::MAX), (i64::MIN, i64::MIN)), |(lo, hi), c| {
            ((lo.0.min(c.ty), lo.1.min(c.tx)), (hi.0.max(c.ty), hi.1.max(c.tx)))
        });
        // Checked: tiles saturate at the ends of `i64`, and an empty world's
        // box is inverted.
        let span = |lo: i64, hi: i64| usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1);
        let budget = cells.len().saturating_mul(DIRECTORY_TILES_PER_ROW).saturating_add(DIRECTORY_SLACK);
        let dense = span(lo.1, hi.1).zip(span(lo.0, hi.0)).and_then(|(w, h)| Some((w, w.checked_mul(h)?)));
        let (Some((w, tiles)), Some(&head)) = (dense.filter(|&(_, tiles)| tiles <= budget), cells.first()) else {
            // Offsets, not the tiles' sign-flipped bits: a world that
            // straddles tile 0 would vary in every byte of those.
            radix_sort_by_key(cells, spare, |c| {
                ((c.ty.wrapping_sub(lo.0) as u64 as u128) << 64) | c.tx.wrapping_sub(lo.1) as u64 as u128
            });
            return;
        };
        let tile = |c: &ProbeKey| (c.ty - lo.0) as usize * w + (c.tx - lo.1) as usize;
        // Count tile `t` at `start[t + 1]`; the exclusive prefix sums then
        // put where tile `t` begins there, and the scatter advances it to
        // where tile `t + 1` begins.
        let start = &mut self.start;
        start.resize(tiles + 1, 0);
        cells.iter().for_each(|c| start[tile(c) + 1] += 1);
        start.iter_mut().fold(0, |begin, n| begin + std::mem::replace(n, begin));
        spare.resize(cells.len(), head);
        for c in cells.iter() {
            let next = &mut start[tile(c) + 1];
            spare[*next as usize] = *c;
            *next += 1;
        }
        std::mem::swap(cells, spare);
        self.ranks.extend(cells.iter().map(|c| c.rank));
        (self.lo, self.hi, self.w) = (lo, hi, w);
    }

    /// Drop the directory, keeping its buffers.
    pub fn clear(&mut self) {
        self.start.clear();
        self.ranks.clear();
    }

    /// Whether the last [`TileDirectory::sort`] built the directory.
    pub fn is_built(&self) -> bool {
        !self.start.is_empty()
    }

    /// Append to `block` the id rank of every sorted row whose tile lies in
    /// the window `lo..=hi` (`(ty, tx)` corners), in probe order: the window
    /// is clamped into the occupied box — exact, since no row lies outside
    /// it — and each of its tile-rows is the slice of `ranks` from where its
    /// first tile begins to where the tile after its last one does. The
    /// directory must be built.
    #[inline]
    pub fn window(&self, lo: (i64, i64), hi: (i64, i64), block: &mut Vec<u32>) {
        let (y0, x0) = (lo.0.max(self.lo.0), lo.1.max(self.lo.1));
        let (y1, x1) = (hi.0.min(self.hi.0), hi.1.min(self.hi.1));
        if x0 > x1 {
            return;
        }
        let (x0, x1) = ((x0 - self.lo.1) as usize, (x1 - self.lo.1) as usize);
        for y in y0..=y1 {
            let row = (y - self.lo.0) as usize * self.w;
            block.extend_from_slice(&self.ranks[self.start[row + x0] as usize..self.start[row + x1 + 1] as usize]);
        }
    }
}

/// First index `i` of `cells` (sorted) with `cells[i].tile() >= lo`, found by
/// galloping outward from `hint`: O(log distance), so a hint near the answer
/// — where the same window tile-row began for the previous probe group —
/// costs a step or two, and any hint at all is merely slower, never wrong.
fn seek_tile(cells: &[ProbeKey], hint: usize, lo: (i64, i64)) -> usize {
    let before = |c: &ProbeKey| c.tile() < lo;
    let hint = hint.min(cells.len());
    let mut step = 1;
    if hint < cells.len() && before(&cells[hint]) {
        // Everything left of `base` is before `lo`.
        let mut base = hint + 1;
        while base + step <= cells.len() && before(&cells[base + step - 1]) {
            base += step;
            step *= 2;
        }
        let end = (base + step - 1).min(cells.len());
        base + cells[base..end].partition_point(before)
    } else {
        // Everything from `top` on is at or after `lo`.
        let mut top = hint;
        while top >= step && !before(&cells[top - step]) {
            top -= step;
            step *= 2;
        }
        let start = top.saturating_sub(step);
        start + cells[start..top].partition_point(before)
    }
}

/// The probe order's window without a directory: append to `block` the id
/// rank of every row of `cells` (sorted by `(ty, tx, id)`) whose tile lies in
/// the window `lo..=hi` (`(ty, tx)` corners) — one contiguous run of `cells`
/// per tile-row, in probe order, each found by a galloping search.
///
/// `cursors[d]` is the seek hint for the window's tile-row `lo.0 + d`, keyed
/// by row — not by how many runs were found — so a window with empty rows
/// (every window of a 1-D world has two) keeps each hint on its own row.
/// Every landing is stored, and a row the seek skipped because it holds
/// nothing from `lo.1` on begins where the seek landed, so after the call
/// `cursors[d]` is exactly where row `lo.0 + d` of this window begins: a step
/// or two from where it begins for the next probe group, which is usually
/// the same window moved right. Each row's seek consults its own cursor,
/// including the row a seek landed in after skipping empty ones.
pub fn seek_window(cells: &[ProbeKey], lo: (i64, i64), hi: (i64, i64), cursors: &mut [usize; 3], block: &mut Vec<u32>) {
    let ((ty0, tx0), (ty1, tx1)) = (lo, hi);
    let mut ty = ty0;
    // Everything before `i` lies before `(ty, tx0)`.
    let mut i = 0;
    loop {
        let d = ty.abs_diff(ty0);
        i = seek_tile(cells, cursors.get(d as usize).map_or(i, |&cursor| cursor.max(i)), (ty, tx0));
        let landed = cells.get(i).filter(|c| c.ty <= ty1);
        // Rows `ty0 + d .. ty0 + end` all begin at `i`.
        let end = landed.map_or(u64::MAX, |c| c.ty.abs_diff(ty0).max(d.saturating_add(1)));
        for cursor in cursors.iter_mut().take(end.min(3) as usize).skip(d as usize) {
            *cursor = i;
        }
        let Some(first) = landed else { break };
        if first.ty > ty {
            // Skipped empty tile-rows and landed in a later one, maybe left
            // of the window: seek that row from its own cursor.
            ty = first.ty;
            continue;
        }
        while let Some(c) = cells.get(i).filter(|c| c.ty == ty && c.tx <= tx1) {
            block.push(c.rank);
            i += 1;
        }
        if ty == ty1 {
            break;
        }
        ty += 1;
    }
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

    /// A naive filter's hits with their coordinates' bits, `(payload, x, y)`.
    fn naive_hits(xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect) -> Vec<(u32, u64, u64)> {
        (0..xs.len())
            .filter(|&i| rect.contains(Vec2::new(xs[i], ys[i])))
            .map(|i| (payloads[i], xs[i].to_bits(), ys[i].to_bits()))
            .collect()
    }

    type Filter = fn(&[f64], &[f64], &[u32], &Rect, &mut Vec<u32>, &mut Vec<f64>, &mut Vec<f64>);

    /// Both paths of both modes: the dispatched one (AVX2 where the CPU has
    /// it) and the portable lanes, payloads only and with coordinates.
    const FILTERS: [(&str, Filter); 4] = [
        ("dispatched", filter::<false>),
        ("lanes", filter_rect_lanes::<false>),
        ("dispatched coords", filter::<true>),
        ("lanes coords", filter_rect_lanes::<true>),
    ];

    /// Every path against the naive loop, appending to `prefix` held in
    /// vectors whose capacity is exactly their length — so the kernel has to
    /// grow them, must keep what was there, and everything it wrote past the
    /// final lengths stays unobservable. The coordinate mode must emit the
    /// naive loop's payloads and coordinate bits; the payload mode must leave
    /// the coordinate outputs alone.
    fn assert_paths_match_naive(xs: &[f64], ys: &[f64], pls: &[u32], rect: &Rect, prefix: &[u32], what: &str) {
        let want = naive_hits(xs, ys, pls, rect);
        let prefix_xs: Vec<f64> = prefix.iter().map(|&p| p as f64 + 0.5).collect();
        let prefix_ys: Vec<f64> = prefix.iter().map(|&p| -(p as f64)).collect();
        for (path, kernel) in FILTERS {
            let coords = path.ends_with("coords");
            let start = |v: &[f64]| {
                let mut out = Vec::with_capacity(v.len());
                out.extend_from_slice(v);
                out
            };
            let mut got = Vec::with_capacity(prefix.len());
            got.extend_from_slice(prefix);
            let (mut got_xs, mut got_ys) = (start(&prefix_xs), start(&prefix_ys));
            assert_eq!((got.capacity(), got_xs.capacity()), (got.len(), got_xs.len()));
            kernel(xs, ys, pls, rect, &mut got, &mut got_xs, &mut got_ys);
            assert_eq!(&got[..prefix.len()], prefix, "{path} path, {what}: prefix");
            assert_eq!(got[prefix.len()..], want.iter().map(|h| h.0).collect::<Vec<_>>()[..], "{path} path, {what}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut want_xs, mut want_ys) = (bits(&prefix_xs), bits(&prefix_ys));
            if coords {
                want_xs.extend(want.iter().map(|h| h.1));
                want_ys.extend(want.iter().map(|h| h.2));
            }
            assert_eq!((bits(&got_xs), bits(&got_ys)), (want_xs, want_ys), "{path} path, {what}: coordinates");
        }
    }

    /// Every hit pattern of the tail-contract lengths: for each length `n`
    /// of 0, 1, LANES−1, LANES, LANES+1 and 2·LANES−1, all `2ⁿ` in/out
    /// assignments — which puts each of the 16 lane masks in the vector head
    /// (n = LANES), each followed by every tail (n = 2·LANES−1), and covers
    /// 0 % and 100 % selectivity at every length. Payloads are not the
    /// identity, so a permutation that moved the wrong lane shows.
    #[test]
    fn filter_rect_every_lane_mask_at_every_tail_count() {
        let rect = Rect::from_bounds(0.0, 1.0, 0.0, 1.0);
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            let pls: Vec<u32> = (0..n as u32).map(|i| 1000 + 7 * i).collect();
            for hits in 0u32..1 << n {
                // In: (0.5, 0.5). Out: alternately left of and above the rect.
                let inside = |i: usize| hits >> i & 1 == 1;
                let xs: Vec<f64> = (0..n).map(|i| if inside(i) || i % 2 == 1 { 0.5 } else { -1.0 }).collect();
                let ys: Vec<f64> = (0..n).map(|i| if inside(i) || i % 2 == 0 { 0.5 } else { 2.0 }).collect();
                assert_paths_match_naive(&xs, &ys, &pls, &rect, &[], &format!("n {n} hits {hits:#b}"));
                assert_paths_match_naive(&xs, &ys, &pls, &rect, &[9, 8, 7], &format!("n {n} hits {hits:#b}, appended"));
            }
        }
    }

    /// The coordinate mode's tail contract, exhaustively: at every length
    /// from 0 to 2·LANES, every hit pattern, through both paths of both
    /// modes — the vector head sees all 16 lane masks followed by every tail.
    /// Hits sit at distinct positions (signed zeros among them), so a lane
    /// packed out of place moves a coordinate's bits.
    #[test]
    fn kernel_filter_rect_coords_every_hit_pattern_to_two_lane_widths() {
        let rect = Rect::from_bounds(-1.0, 1.0, -1.0, 1.0);
        for n in 0..=2 * LANES {
            let pls: Vec<u32> = (0..n as u32).map(|i| 500 + 3 * i).collect();
            for hits in 0u32..1 << n {
                let inside = |i: usize| hits >> i & 1 == 1;
                let at = |i: usize, sign: f64| match i % 3 {
                    0 => sign * 0.0,
                    _ => sign * (i as f64 + 1.0) / 16.0,
                };
                let xs: Vec<f64> = (0..n).map(|i| if inside(i) || i % 2 == 1 { at(i, -1.0) } else { -3.0 }).collect();
                let ys: Vec<f64> = (0..n).map(|i| if inside(i) || i % 2 == 0 { at(i, 1.0) } else { 3.0 }).collect();
                assert_paths_match_naive(&xs, &ys, &pls, &rect, &[], &format!("n {n} hits {hits:#b}"));
                assert_paths_match_naive(&xs, &ys, &pls, &rect, &[4, 2], &format!("n {n} hits {hits:#b}, appended"));
            }
        }
    }

    /// NaN in either column at every place of every length to 2·LANES, and
    /// NaN rect bounds: a NaN coordinate fails containment, a NaN bound
    /// admits nothing, in the head and in the tail of both paths and modes.
    #[test]
    fn kernel_filter_rect_coords_nan_columns_and_bounds() {
        let nan = f64::NAN;
        let rects = [
            Rect::from_bounds(0.0, 1.0, 0.0, 1.0),
            Rect::from_bounds(f64::NEG_INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::INFINITY),
            Rect::from_bounds(nan, 1.0, 0.0, 1.0),
            Rect::from_bounds(0.0, 1.0, 0.0, nan),
        ];
        for n in 0..=2 * LANES {
            let pls: Vec<u32> = (0..n as u32).map(|i| 40 - i).collect();
            for bad in 0..n {
                for axis in 0..3 {
                    let xs: Vec<f64> = (0..n).map(|i| if i == bad && axis != 1 { nan } else { 0.5 }).collect();
                    let ys: Vec<f64> = (0..n).map(|i| if i == bad && axis != 0 { nan } else { 0.25 }).collect();
                    for rect in &rects {
                        let what = format!("n {n}, NaN at {bad} on axis {axis}, rect {rect:?}");
                        assert_paths_match_naive(&xs, &ys, &pls, rect, &[7], &what);
                    }
                }
            }
        }
    }

    /// The scalar cursor compress [`compress_disc`] replaced, as
    /// `(row, dx, dy, d2)` bits per kept candidate.
    fn cursor_compress(rows: &[u32], xs: &[f64], ys: &[f64], me: u32, c: Vec2, rho2: f64) -> Vec<[u64; 4]> {
        let mut kept = Vec::new();
        for i in 0..rows.len() {
            let (dx, dy) = (xs[i] - c.x, ys[i] - c.y);
            let d2 = dx * dx + dy * dy;
            if rows[i] != me && d2.partial_cmp(&rho2) != Some(std::cmp::Ordering::Greater) {
                kept.push([rows[i] as u64, dx.to_bits(), dy.to_bits(), d2.to_bits()]);
            }
        }
        kept
    }

    /// Both paths of [`compress_disc`] on one run, against the cursor.
    fn assert_compress_matches_cursor(rows: &[u32], xs: &[f64], ys: &[f64], me: u32, c: Vec2, rho2: f64, what: &str) {
        let want = cursor_compress(rows, xs, ys, me, c, rho2);
        type Compress = fn(&[u32], &[f64], &[f64], u32, Vec2, f64, &mut Kept<32>) -> usize;
        for (path, kernel) in [("dispatched", compress_disc as Compress), ("lanes", compress_disc_lanes)] {
            let mut out = Kept::<32>::default();
            let k = kernel(rows, xs, ys, me, c, rho2, &mut out);
            let got: Vec<[u64; 4]> = (0..k)
                .map(|i| [out.rows[i] as u64, out.dx[i].to_bits(), out.dy[i].to_bits(), out.d2[i].to_bits()])
                .collect();
            assert_eq!(got, want, "{path} path, {what}");
        }
    }

    /// The lane compress against the scalar cursor at every run length to
    /// a full block of 32, with the member's own row at each block edge
    /// (first, last, either side of a lane boundary) or absent, over
    /// positions around the querying point that reach every case: ±0
    /// displacements, coincident points (d = 0), distances at and one ulp
    /// either side of ρ, squares that overflow to ∞, ±∞ and NaN coordinates,
    /// and ordinary points of the probe square.
    #[test]
    fn kernel_compress_disc_equals_the_scalar_cursor() {
        let (rho, nan, inf) = (6.0f64, f64::NAN, f64::INFINITY);
        let up = |r: f64| f64::from_bits(r.to_bits() + 1);
        let special = [
            (0.0, 0.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (rho, 0.0),
            (0.0, -rho),
            (up(rho), 0.0),
            (f64::from_bits(rho.to_bits() - 1), 0.0),
            (1e155, 1e155),
            (inf, 0.0),
            (-inf, inf),
            (nan, 0.5),
            (1.0, nan),
        ];
        for center in [Vec2::new(0.0, 0.0), Vec2::new(-0.0, 0.0), Vec2::new(3.25, -1.5), Vec2::new(nan, 0.0)] {
            for n in 0..=32usize {
                for seed in 0..6u64 {
                    let mut rng = DetRng::seed_from_u64(seed * 131 + n as u64);
                    let (xs, ys): (Vec<f64>, Vec<f64>) = (0..n)
                        .map(|i| match rng.range(0.0, 3.0) as u32 {
                            0 => {
                                let (x, y) = special[(i + seed as usize) % special.len()];
                                (center.x + x, center.y + y)
                            }
                            _ => (center.x + rng.range(-rho, rho), center.y + rng.range(-rho, rho)),
                        })
                        .collect();
                    let rows: Vec<u32> = (0..n as u32).map(|i| 900 + i).collect();
                    for at in [0, 3, 4, 5, 7, 8, n.saturating_sub(1), n] {
                        let me = rows.get(at).copied().unwrap_or(u32::MAX);
                        let what = format!("center {center:?} n {n} seed {seed} me at {at}");
                        assert_compress_matches_cursor(&rows, &xs, &ys, me, center, rho * rho, &what);
                    }
                }
            }
        }
    }

    /// Every keep pattern of one and two lane widths: each candidate is
    /// either the member itself, beyond ρ, or kept.
    #[test]
    fn kernel_compress_disc_every_keep_pattern() {
        for n in [LANES, LANES + 1, 2 * LANES] {
            for pattern in 0..3u32.pow(n as u32) {
                let kind = |i: usize| pattern / 3u32.pow(i as u32) % 3;
                let rows: Vec<u32> = (0..n as u32).map(|i| if kind(i as usize) == 0 { 77 } else { i }).collect();
                let xs: Vec<f64> = (0..n).map(|i| if kind(i) == 1 { 10.0 } else { i as f64 / 4.0 }).collect();
                let ys: Vec<f64> = (0..n).map(|i| -(i as f64) / 8.0).collect();
                let what = format!("n {n} pattern {pattern}");
                assert_compress_matches_cursor(&rows, &xs, &ys, 77, Vec2::new(0.0, 0.0), 4.0, &what);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be parallel and fit the output")]
    fn kernel_compress_disc_rejects_a_run_longer_than_its_output() {
        let run = [0.0; 5];
        compress_disc(&[0; 5], &run, &run, 0, Vec2::ZERO, 1.0, &mut Kept::<4>::default());
    }

    /// Random columns at 0 %, ≈45 % (what a probe-group member selects of
    /// its block) and 100 % selectivity, appended to a non-empty `out`.
    #[test]
    fn filter_rect_selectivities_append_to_a_full_vector() {
        let (xs, ys, pls) = columns(203, 11);
        let rects = [
            (0.0..=0.0, Rect::from_bounds(20.0, 30.0, 20.0, 30.0)),
            (0.35..=0.55, Rect::from_bounds(-10.0, 3.4, -10.0, 3.4)),
            (1.0..=1.0, Rect::from_bounds(-10.0, 10.0, -10.0, 10.0)),
        ];
        for (selectivity, rect) in rects {
            let share = naive_filter(&xs, &ys, &pls, &rect).len() as f64 / xs.len() as f64;
            assert!(selectivity.contains(&share), "selectivity {share} outside {selectivity:?}");
            for n in [0, 1, LANES + 1, 64, 203] {
                let what = format!("selectivity {share:.2}, n {n}");
                assert_paths_match_naive(&xs[..n], &ys[..n], &pls[..n], &rect, &[u32::MAX, 0, 5], &what);
            }
        }
    }

    /// Many short runs filtered into one shared buffer: each call appends.
    #[test]
    fn filter_rect_appends_run_after_run() {
        let (xs, ys, pls) = columns(61, 5);
        let rect = Rect::from_bounds(-6.0, 6.0, -2.0, 9.0);
        let (mut got, mut lanes) = (Vec::new(), Vec::new());
        let mut s = 0;
        for run in [3, 1, 0, 7, 4, 2, 11, 5, 28] {
            filter_rect(&xs[s..s + run], &ys[s..s + run], &pls[s..s + run], &rect, &mut got);
            filter_rect_lanes::<false>(
                &xs[s..s + run],
                &ys[s..s + run],
                &pls[s..s + run],
                &rect,
                &mut lanes,
                &mut Vec::new(),
                &mut Vec::new(),
            );
            s += run;
        }
        assert_eq!(s, xs.len());
        assert_eq!(got, naive_filter(&xs, &ys, &pls, &rect));
        assert_eq!(lanes, got);
    }

    /// NaN coordinates fail every ordered compare, in a lane and in the tail.
    #[test]
    fn filter_rect_nan_coordinates_are_outside() {
        let nan = f64::NAN;
        let xs = [0.5, nan, 0.5, nan, 0.5, 0.5, nan];
        let ys = [0.5, 0.5, nan, nan, 0.5, nan, 0.5];
        let pls: Vec<u32> = (10..17).collect();
        for rect in
            [Rect::from_bounds(0.0, 1.0, 0.0, 1.0), Rect::from_bounds(f64::NEG_INFINITY, f64::INFINITY, -1.0, 1.0)]
        {
            assert_paths_match_naive(&xs, &ys, &pls, &rect, &[1], "NaN columns");
            let mut got = Vec::new();
            filter_rect(&xs, &ys, &pls, &rect, &mut got);
            assert_eq!(got, vec![10, 14]);
        }
        // A NaN rect bound admits nothing.
        assert_paths_match_naive(&xs, &ys, &pls, &Rect::from_bounds(nan, 1.0, 0.0, 1.0), &[], "NaN bound");
    }

    #[test]
    #[should_panic(expected = "columns must be parallel")]
    fn filter_rect_rejects_ragged_columns() {
        filter_rect(&[0.0; 5], &[0.0; 5], &[0; 4], &Rect::from_bounds(-1.0, 1.0, -1.0, 1.0), &mut Vec::new());
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
        assert_paths_match_naive(&xs, &ys, &pls, &rect, &[], "denormals and signed zeros");
        // ±0.0 compare equal: both zero-x points are inside [-0.0, tiny].
        assert!(got.contains(&0) && got.contains(&1));
    }

    /// Candidates around a querying point at the origin that reach every
    /// branch of the guard: coincident and ±0.0 displacements, lengths at and
    /// either side of `f64::EPSILON`, subnormals, ordinary ones, squared
    /// lengths that overflow to ∞ or underflow to 0, infinite and NaN
    /// coordinates.
    fn unit_dir_candidates(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let eps = f64::EPSILON;
        let special = [
            (0.0, 0.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (eps, 0.0),
            (0.0, -eps),
            (f64::from_bits(eps.to_bits() + 1), 0.0),
            (f64::from_bits(eps.to_bits() - 1), 0.0),
            (eps * 0.6, eps * 0.8),
            (f64::from_bits(1), -f64::from_bits(3)),
            (1e-160, 1e-160),
            (1e155, 1e155),
            (-1e300, 3.0),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::NAN, 0.5),
            (2.0, f64::NAN),
        ];
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match rng.range(0.0, 3.0) as u32 {
                0 => special[(i * 7 + seed as usize) % special.len()],
                _ => (rng.range(-6.0, 6.0), rng.range(-6.0, 6.0)),
            })
            .collect()
    }

    /// A run mapped the way a caller of [`unit_dirs`] maps it: chunks of
    /// `N`, then the remainder one element at a time.
    fn unit_dirs_run<const N: usize>(dx: &[f64], dy: &[f64], d2: &[f64]) -> Vec<(f64, f64)> {
        let head = dx.len() - dx.len() % N;
        let mut out = Vec::new();
        for i in (0..head).step_by(N) {
            let chunk = |col: &[f64]| -> [f64; N] { col[i..i + N].try_into().unwrap() };
            let (ux, uy) = unit_dirs(chunk(dx), chunk(dy), chunk(d2));
            out.extend(ux.into_iter().zip(uy));
        }
        for i in head..dx.len() {
            let ([ux], [uy]) = unit_dirs([dx[i]], [dy[i]], [d2[i]]);
            out.push((ux, uy));
        }
        out
    }

    /// The lane/tail contract for [`unit_dirs`]: at every tail-contract
    /// length, a run mapped one, two or [`LANES`] elements at a time equals
    /// [`candidate_force`] element by element, bit for bit, for
    /// displacements from a querying point at the origin.
    #[test]
    fn unit_dirs_matches_candidate_force_at_tail_counts() {
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES - 1] {
            for seed in 0..64 {
                let cands = unit_dir_candidates(n, seed);
                let (dx, dy): (Vec<f64>, Vec<f64>) = cands.iter().copied().unzip();
                let d2: Vec<f64> = cands.iter().map(|&(x, y)| x * x + y * y).collect();
                let runs = [
                    (1, unit_dirs_run::<1>(&dx, &dy, &d2)),
                    (2, unit_dirs_run::<2>(&dx, &dy, &d2)),
                    (LANES, unit_dirs_run::<LANES>(&dx, &dy, &d2)),
                ];
                for (width, run) in runs {
                    assert_eq!(run.len(), n);
                    for (i, (&(cx, cy), (ux, uy))) in cands.iter().zip(run).enumerate() {
                        let (s, wx, wy) = candidate_force(0.0, 0.0, cx, cy);
                        let got = (d2[i].to_bits(), ux.to_bits(), uy.to_bits());
                        assert_eq!(
                            got,
                            (s.to_bits(), wx.to_bits(), wy.to_bits()),
                            "width {width} n {n} seed {seed} element {i}"
                        );
                    }
                }
            }
        }
    }

    /// A non-origin querying point: the displacement the caller computes is
    /// `c − m`, exactly as [`candidate_force`] computes it.
    #[test]
    fn unit_dirs_matches_candidate_force_off_the_origin() {
        let (xs, ys, _) = columns(2 * LANES - 1, 17);
        let (mx, my) = (3.25, -1.5);
        let dx: Vec<f64> = xs.iter().map(|x| x - mx).collect();
        let dy: Vec<f64> = ys.iter().map(|y| y - my).collect();
        let d2: Vec<f64> = dx.iter().zip(&dy).map(|(x, y)| x * x + y * y).collect();
        for (i, (ux, uy)) in unit_dirs_run::<2>(&dx, &dy, &d2).into_iter().enumerate() {
            let (_, wx, wy) = candidate_force(mx, my, xs[i], ys[i]);
            assert_eq!((ux.to_bits(), uy.to_bits()), (wx.to_bits(), wy.to_bits()), "element {i}");
        }
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
}
