//! Two-dimensional geometry primitives.
//!
//! BRACE treats a tick as a spatial self-join: every agent is joined with the
//! agents inside its *visible region*. Visible and reachable regions are
//! axis-aligned rectangles ([`Rect`]), matching the paper's implementation
//! choice ("in our current implementation the constraints are
//! (hyper)rectangles").

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point or displacement in the two-dimensional simulation space.
///
/// One-dimensional models (the linear highway of the traffic simulation) use
/// `y` for the lane index so that the same spatial machinery serves both.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean length; cheaper than [`Vec2::norm`] when only
    /// comparisons are needed (hot in neighbor queries).
    #[inline]
    pub fn norm2(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other`.
    #[inline]
    pub fn dist2(self, other: Vec2) -> f64 {
        (self - other).norm2()
    }

    /// Chebyshev (L∞) distance; rectangles with half-extent `r` contain
    /// exactly the points with Chebyshev distance ≤ `r`.
    #[inline]
    pub fn dist_linf(self, other: Vec2) -> f64 {
        (self.x - other.x).abs().max((self.y - other.y).abs())
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Unit vector in the same direction, or zero if the vector is (near)
    /// zero. Behavioral models normalize influence vectors this way so a
    /// lone agent is not pulled toward NaN.
    #[inline]
    pub fn normalized(self) -> Vec2 {
        let n = self.norm();
        if n <= f64::EPSILON {
            Vec2::ZERO
        } else {
            self / n
        }
    }

    /// Rotate by `angle` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(self.x * c - self.y * s, self.x * s + self.y * c)
    }

    /// Angle of the vector in radians in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Component-wise clamp into `rect`.
    #[inline]
    pub fn clamped(self, rect: &Rect) -> Vec2 {
        Vec2::new(self.x.clamp(rect.lo.x, rect.hi.x), self.y.clamp(rect.lo.y, rect.hi.y))
    }

    /// True if any component is NaN; used by debug assertions in the tick
    /// executor to catch models that diverge.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.x.is_nan() || self.y.is_nan()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// A closed axis-aligned rectangle `[lo.x, hi.x] × [lo.y, hi.y]`.
///
/// Used for visible regions, reachable regions, partition owned regions and
/// KD-tree bounding boxes. An *empty* rectangle has `lo > hi` on some axis
/// and contains nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    pub lo: Vec2,
    pub hi: Vec2,
}

impl Rect {
    /// The empty rectangle: the identity for [`Rect::union`].
    pub const EMPTY: Rect = Rect {
        lo: Vec2 { x: f64::INFINITY, y: f64::INFINITY },
        hi: Vec2 { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY },
    };

    /// The whole plane: the identity for [`Rect::intersection`] and the
    /// visible region of an unconstrained agent.
    pub const EVERYTHING: Rect = Rect {
        lo: Vec2 { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY },
        hi: Vec2 { x: f64::INFINITY, y: f64::INFINITY },
    };

    #[inline]
    pub const fn new(lo: Vec2, hi: Vec2) -> Self {
        Rect { lo, hi }
    }

    /// Rectangle from axis intervals `[x0, x1] × [y0, y1]`.
    #[inline]
    pub fn from_bounds(x0: f64, x1: f64, y0: f64, y1: f64) -> Self {
        Rect::new(Vec2::new(x0, y0), Vec2::new(x1, y1))
    }

    /// Axis-aligned square of half-extent `r` centered on `c`: the visible
    /// region of an agent with `#range[-r, r]` constraints on both axes.
    ///
    /// On each axis it holds exactly the doubles `q` with `|fl(q − c)| ≤ r`,
    /// so visibility is symmetric: `fl(c − q) = −fl(q − c)`, hence `q` is in
    /// the square around `c` iff `c` is in the square around `q`. The plain
    /// `[c − r, c + r]` is not: `fl(1.1 − 1) > 0.1`, so a prober at 1.1
    /// misses 0.1 while one at 0.1 sees 1.1. `c ± r` is kept when one
    /// branch-free check shows each bound is in the set and the next double
    /// outward is not; a bound that fails it is searched for over the bit
    /// patterns, starting at `c ± r`.
    #[inline]
    pub fn centered(c: Vec2, r: f64) -> Self {
        let (lo, hi) = (Vec2::new(c.x - r, c.y - r), Vec2::new(c.x + r, c.y + r));
        let ok = [
            (lo.x - c.x >= -r) & (step(lo.x, -1) - c.x < -r),
            (lo.y - c.y >= -r) & (step(lo.y, -1) - c.y < -r),
            (hi.x - c.x <= r) & (step(hi.x, 1) - c.x > r),
            (hi.y - c.y <= r) & (step(hi.y, 1) - c.y > r),
        ];
        if ok[0] & ok[1] & ok[2] & ok[3] {
            return Rect::new(lo, hi);
        }
        // `fl(q − c) ≥ −r` iff `fl(−q − (−c)) ≤ r`: a lower bound is the
        // mirrored upper one (`side` −1).
        let bound = |ok: bool, guess: f64, c: f64, side: f64| match ok {
            true => guess,
            false => side * exact_upper(side * c, r, side * guess),
        };
        Rect::new(
            Vec2::new(bound(ok[0], lo.x, c.x, -1.0), bound(ok[1], lo.y, c.y, -1.0)),
            Vec2::new(bound(ok[2], hi.x, c.x, 1.0), bound(ok[3], hi.y, c.y, 1.0)),
        )
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    #[inline]
    pub fn width(&self) -> f64 {
        (self.hi.x - self.lo.x).max(0.0)
    }

    #[inline]
    pub fn height(&self) -> f64 {
        (self.hi.y - self.lo.y).max(0.0)
    }

    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    #[inline]
    pub fn center(&self) -> Vec2 {
        Vec2::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// Closed containment test (boundary points are inside).
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// True if the rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// True if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (self.lo.x <= other.lo.x
                && self.lo.y <= other.lo.y
                && self.hi.x >= other.hi.x
                && self.hi.y >= other.hi.y)
    }

    /// Smallest rectangle containing both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            Vec2::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            Vec2::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        )
    }

    /// Largest rectangle contained in both inputs (possibly empty).
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Rect {
        Rect::new(
            Vec2::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            Vec2::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        )
    }

    /// Grow the rectangle by `r` on every side. This is the *visible region
    /// of a partition*: the owned region dilated by the agents' visibility
    /// bound (Minkowski sum with a square of half-extent `r`).
    #[inline]
    pub fn expanded(&self, r: f64) -> Rect {
        Rect::new(Vec2::new(self.lo.x - r, self.lo.y - r), Vec2::new(self.hi.x + r, self.hi.y + r))
    }

    /// Grow the rectangle to include point `p`.
    #[inline]
    pub fn extended(&self, p: Vec2) -> Rect {
        Rect::new(Vec2::new(self.lo.x.min(p.x), self.lo.y.min(p.y)), Vec2::new(self.hi.x.max(p.x), self.hi.y.max(p.y)))
    }

    /// Minimum squared distance from `p` to any point of the rectangle
    /// (0 when `p` is inside). Used by the KD-tree nearest-neighbor search
    /// to prune subtrees.
    #[inline]
    pub fn dist2_to_point(&self, p: Vec2) -> f64 {
        let dx = (self.lo.x - p.x).max(0.0).max(p.x - self.hi.x);
        let dy = (self.lo.y - p.y).max(0.0).max(p.y - self.hi.y);
        dx * dx + dy * dy
    }
}

/// The double `k` steps of the bit pattern above `v` (below for negative
/// `k`), without `next_up`'s branches. A step across zero or past ±∞ gives
/// NaN, which fails any comparison it feeds.
#[inline(always)]
fn step(v: f64, k: i64) -> f64 {
    let bits = v.to_bits() as i64;
    // Up adds to the bits under a positive sign and subtracts under a
    // negative one.
    let up = (bits >> 63) | 1;
    f64::from_bits(bits.wrapping_add(k.wrapping_mul(up)) as u64)
}

/// The largest double `q` with `fl(q − c) ≤ r`, searched over the ordered
/// bit patterns from −∞ to +∞ (`fl(q − c)` is monotone in `q`); −∞ when no
/// double qualifies, in which case the mirrored lower bound is above it.
/// The answer is nearly always within a step or two of `guess` (`c + r`);
/// otherwise steps doubling away from the guess bracket it and a bisection
/// closes the bracket. Near a zero crossing the answer is far from `c + r`:
/// for `c = −1, r = 1` it is 2⁻⁵³, not 0, since `fl(2⁻⁵³ + 1) = 1`.
#[cold]
fn exact_upper(c: f64, r: f64, guess: f64) -> f64 {
    let near = |k: i64| step(guess, k);
    let (first, past) = (near(-1), near(3));
    if (first - c <= r) & (past - c > r) {
        return near(-1 + (near(0) - c <= r) as i64 + (near(1) - c <= r) as i64 + (near(2) - c <= r) as i64);
    }
    // A total order on non-NaN doubles as integers (−0 just below +0); it is
    // its own inverse.
    let key = |v: i64| v ^ (((v >> 63) as u64) >> 1) as i64;
    let fits = |k: i64| f64::from_bits(key(k) as u64) - c <= r;
    let (mut yes, mut no) = (key(f64::NEG_INFINITY.to_bits() as i64), key(f64::INFINITY.to_bits() as i64));
    if fits(no) {
        return f64::INFINITY;
    }
    if !fits(yes) {
        return f64::NEG_INFINITY;
    }
    if !guess.is_nan() {
        let g = key(guess.to_bits() as i64);
        let mut stride = 1i64;
        if fits(g) {
            yes = g;
            while fits(g.saturating_add(stride).min(no)) {
                yes = g + stride;
                stride = stride.saturating_mul(2);
            }
            no = g.saturating_add(stride).min(no);
        } else {
            no = g;
            while !fits(g.saturating_sub(stride).max(yes)) {
                no = g - stride;
                stride = stride.saturating_mul(2);
            }
            yes = g.saturating_sub(stride).max(yes);
        }
    }
    while yes + 1 < no {
        let mid = yes.midpoint(no);
        if fits(mid) {
            yes = mid;
        } else {
            no = mid;
        }
    }
    f64::from_bits(key(yes) as u64)
}

impl Default for Rect {
    fn default() -> Self {
        Rect::EMPTY
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, Vec2::new(2.0, 4.0));
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
        assert_eq!(a.dot(b), 1.0);
    }

    #[test]
    fn vec2_norms_and_distances() {
        let a = Vec2::new(3.0, 4.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm2(), 25.0);
        assert_eq!(a.dist(Vec2::ZERO), 5.0);
        assert_eq!(a.dist2(Vec2::ZERO), 25.0);
        assert_eq!(a.dist_linf(Vec2::ZERO), 4.0);
    }

    #[test]
    fn vec2_normalized_handles_zero() {
        assert_eq!(Vec2::ZERO.normalized(), Vec2::ZERO);
        let u = Vec2::new(0.0, -7.0).normalized();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert_eq!(u, Vec2::new(0.0, -1.0));
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        let r = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!((r.x - 0.0).abs() < 1e-12);
        assert!((r.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rect_containment_is_closed() {
        let r = Rect::from_bounds(0.0, 1.0, 0.0, 1.0);
        assert!(r.contains(Vec2::new(0.0, 0.0)));
        assert!(r.contains(Vec2::new(1.0, 1.0)));
        assert!(r.contains(Vec2::new(0.5, 0.5)));
        assert!(!r.contains(Vec2::new(1.0001, 0.5)));
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = Rect::from_bounds(0.0, 2.0, 0.0, 2.0);
        let b = Rect::from_bounds(1.0, 3.0, 1.0, 3.0);
        let i = a.intersection(&b);
        assert_eq!(i, Rect::from_bounds(1.0, 2.0, 1.0, 2.0));
        let u = a.union(&b);
        assert_eq!(u, Rect::from_bounds(0.0, 3.0, 0.0, 3.0));
        assert!(a.intersects(&b));
        let far = Rect::from_bounds(10.0, 11.0, 10.0, 11.0);
        assert!(!a.intersects(&far));
        assert!(a.intersection(&far).is_empty());
    }

    #[test]
    fn rect_empty_is_union_identity() {
        let a = Rect::from_bounds(-1.0, 4.0, 2.0, 3.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert!(Rect::EMPTY.is_empty());
        assert!(!Rect::EMPTY.intersects(&a));
    }

    #[test]
    fn rect_expansion_is_partition_visible_region() {
        let owned = Rect::from_bounds(0.0, 10.0, 0.0, 10.0);
        let vis = owned.expanded(2.5);
        assert_eq!(vis, Rect::from_bounds(-2.5, 12.5, -2.5, 12.5));
        // Every point visible from inside `owned` with bound 2.5 is in `vis`.
        assert!(vis.contains(Vec2::new(-2.5, 0.0)));
        assert!(!vis.contains(Vec2::new(-2.6, 0.0)));
    }

    #[test]
    fn rect_dist2_to_point() {
        let r = Rect::from_bounds(0.0, 1.0, 0.0, 1.0);
        assert_eq!(r.dist2_to_point(Vec2::new(0.5, 0.5)), 0.0);
        assert_eq!(r.dist2_to_point(Vec2::new(2.0, 0.5)), 1.0);
        assert_eq!(r.dist2_to_point(Vec2::new(2.0, 2.0)), 2.0);
    }

    #[test]
    fn rect_centered_matches_linf_ball() {
        let c = Vec2::new(1.0, -1.0);
        let r = Rect::centered(c, 3.0);
        assert!(r.contains(Vec2::new(4.0, 2.0)));
        assert!(!r.contains(Vec2::new(4.1, 0.0)));
        assert_eq!(r.center(), c);
    }

    /// `q` is in the square around `c` iff `|fl(q − c)| ≤ r`, and then `c`
    /// is in the square around `q`: over ±0, subnormals, the doubles next to
    /// `c ± r`, `|c| ≫ r`, ±∞ and NaN, and drawn centres and radii. The
    /// centre goes on x and the point on y (and the other way round), so
    /// each pair is tested on both axes.
    #[test]
    fn rect_centered_is_exactly_the_symmetric_bound() {
        let tiny = f64::from_bits(1);
        let special = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            0.1,
            1.1,
            1.0,
            -1.0,
            f64::EPSILON / 2.0,
            1e16,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let radii = [0.0, -0.0, tiny, 0.1, 1.0, 2.0, 1e-300, 1e16, -1.0, f64::INFINITY, f64::NAN];
        let mut rng = crate::DetRng::seed_from_u64(3);
        let mut pairs: Vec<(f64, f64)> = special.iter().flat_map(|&c| radii.map(|r| (c, r))).collect();
        pairs.extend((0..2000).map(|i| {
            let c = rng.range(-4.0, 4.0) * [1.0, 1e-300, 1e12][i % 3];
            (c, [rng.range(0.0, 2.0), rng.below(4) as f64, 0.1][i % 3])
        }));
        for (c, r) in pairs {
            let mut qs = special.to_vec();
            for edge in [c - r, c + r, c] {
                qs.extend([
                    edge,
                    edge.next_up(),
                    edge.next_down(),
                    edge.next_up().next_up(),
                    edge.next_down().next_down(),
                ]);
            }
            for q in qs {
                let seen = (q - c).abs() <= r;
                let (around_c, around_q) = (Rect::centered(Vec2::new(c, q), r), Rect::centered(Vec2::new(q, c), r));
                assert_eq!(around_c.contains(Vec2::new(q, c)), seen, "c={c:e} r={r:e} q={q:e}: {around_c:?}");
                assert_eq!(around_q.contains(Vec2::new(c, q)), seen, "c={q:e} r={r:e} q={c:e}: {around_q:?}");
            }
        }
        // The asymmetry of `[c − r, c + r]`: fl(1.1 − 1) > 0.1.
        assert!(Rect::centered(Vec2::new(1.1, 0.0), 1.0).contains(Vec2::new(0.1, 0.0)));
        // Across zero the bound is not `c + r = 0`: fl(2⁻⁵³ + 1) = 1.
        let across = Rect::centered(Vec2::new(-1.0, 0.0), 1.0);
        assert_eq!((across.lo.x, across.hi.x), (-2.0, f64::EPSILON / 2.0));
    }
}
