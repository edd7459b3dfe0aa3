//! Spatial partitioning — the function `P : L → P` of the paper's
//! Appendix A.
//!
//! The map tasks use a partitioning function to assign each agent to a
//! disjoint region of space (its *owner*) and to compute which other
//! partitions need a *replica* of the agent because it falls inside their
//! visible region `VR(p) = owned(p) ⊕ visibility`. The BRACE prototype used
//! "a simple rectilinear grid partitioning scheme, which assigns each grid
//! cell to a separate slave node", with a one-dimensional load balancer that
//! moves the cell boundaries. [`GridPartitioning`] is that layout and the
//! only one the runtime builds: vertical columns over x, with sorted
//! boundaries the balancer moves at epoch boundaries. Column `c` owns
//! `[b[c], b[c+1])`, the border columns reach to ±∞, and its visible
//! region is the owned interval widened by the visibility on both sides
//! (`tests/properties.rs`'s `partition_*` properties pin both against a
//! nested-loop join).

use serde::{Deserialize, Serialize};

/// Column partitioning over x with movable boundaries.
///
/// `x_bounds` (length `cols + 1`) is strictly increasing; the outermost
/// boundaries are conceptual only — ownership clamps to the border columns,
/// so the partitioning covers unbounded space, and y never matters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPartitioning {
    x_bounds: Vec<f64>,
}

impl GridPartitioning {
    /// `cols` equal columns over `[x0, x1]`.
    pub fn columns(x0: f64, x1: f64, cols: usize) -> Self {
        assert!(cols > 0, "grid needs at least one cell");
        assert!(x0 <= x1, "space must be non-empty");
        let x_bounds = (0..=cols).map(|i| x0 + (x1 - x0) * i as f64 / cols as f64).collect();
        GridPartitioning { x_bounds }
    }

    pub fn cols(&self) -> usize {
        self.x_bounds.len() - 1
    }

    /// Current column boundaries (exposed for the load balancer).
    pub fn x_bounds(&self) -> &[f64] {
        &self.x_bounds
    }

    /// Replace the column boundaries, keeping the number of columns. This is
    /// the load balancer's repartitioning primitive: the master broadcasts
    /// the new bounds and workers switch at an epoch boundary.
    pub fn set_x_bounds(&mut self, x_bounds: Vec<f64>) {
        assert_eq!(x_bounds.len(), self.x_bounds.len(), "column count must not change");
        assert!(x_bounds.windows(2).all(|w| w[0] < w[1]), "x bounds must increase");
        self.x_bounds = x_bounds;
    }

    /// The column owning x-position `x`: the `[b[i], b[i+1])` interval that
    /// holds it, clamped to the border columns — NaN and −∞ land in column
    /// 0, +∞ in the last.
    pub fn column_of(&self, x: f64) -> usize {
        // partition_point returns the first boundary > x.
        let i = self.x_bounds.partition_point(|&b| b <= x);
        i.saturating_sub(1).min(self.cols() - 1)
    }

    /// Columnar ownership scan: `out[i]` = the column owning `xs[i]`. This
    /// is the distribute phase of the pool-resident worker — one pass over
    /// the pool's x column. The boundary array is tiny (≤ workers + 1
    /// entries), so the inner comparison loop is branch-free and
    /// lane-friendly: owner = Σⱼ [x ≥ bⱼ] over the interior boundaries,
    /// exactly [`Self::column_of`]'s `partition_point` arithmetic unrolled
    /// into adds. `ys` is ignored; it stays in the signature only because
    /// the frozen `perfbench` per-layer probe passes it.
    pub fn owners_into(&self, xs: &[f64], ys: &[f64], out: &mut Vec<u32>) {
        debug_assert_eq!(xs.len(), ys.len());
        out.clear();
        let interior = &self.x_bounds[1..self.x_bounds.len() - 1];
        out.extend(xs.iter().map(|&x| interior.iter().map(|&b| (x >= b) as u32).sum::<u32>()));
    }

    /// Inclusive column range `[c0, c1]` of the columns with a prober that
    /// sees x-position `x` — every column that needs a replica of an agent
    /// at `x`, its owner included. A prober at `p` sees `x` when
    /// `|fl(x − p)| ≤ vis`, the symmetric bound of
    /// [`brace_common::Rect::centered`]; `fl(x − p)` falls as `p` grows, so
    /// column `c`, probing from `[b[c], b[c+1])`, needs `x` when
    /// `fl(x − b[c]) ≥ −vis` and `fl(x − b[c+1]) ≤ vis`. (The second is one
    /// prober generous: `b[c+1]` itself belongs to column `c + 1`.)
    /// Branch-free like [`Self::owners_into`]: each end is a count over the
    /// interior boundaries — NaN and −∞ count none, +∞ all.
    #[inline]
    pub fn replica_col_range(&self, x: f64, vis: f64) -> (u32, u32) {
        let interior = &self.x_bounds[1..self.x_bounds.len() - 1];
        interior.iter().fold((0, 0), |(c0, c1), &b| (c0 + (x - b > vis) as u32, c1 + (x - b >= -vis) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{DetRng, Rect, Vec2};

    #[test]
    fn columns_assign_and_clamp_to_the_border() {
        let g = GridPartitioning::columns(0.0, 30.0, 3);
        assert_eq!(g.x_bounds(), &[0.0, 10.0, 20.0, 30.0]);
        let owners: Vec<usize> = [5.0, 10.0, 25.0, 29.9, -100.0, 1e9].iter().map(|&x| g.column_of(x)).collect();
        assert_eq!(owners, [0, 1, 2, 2, 0, 2]);
    }

    #[test]
    fn set_x_bounds_moves_ownership() {
        let mut g = GridPartitioning::columns(0.0, 100.0, 2);
        assert_eq!(g.column_of(40.0), 0);
        g.set_x_bounds(vec![0.0, 30.0, 100.0]);
        assert_eq!(g.column_of(40.0), 1);
    }

    #[test]
    #[should_panic(expected = "column count must not change")]
    fn set_x_bounds_rejects_resize() {
        let mut g = GridPartitioning::columns(0.0, 100.0, 2);
        g.set_x_bounds(vec![0.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn set_x_bounds_rejects_unsorted() {
        let mut g = GridPartitioning::columns(0.0, 100.0, 2);
        g.set_x_bounds(vec![0.0, 200.0, 100.0]);
    }

    #[test]
    fn owners_into_matches_column_of() {
        let mut rng = DetRng::seed_from_u64(7);
        for grid in [GridPartitioning::columns(0.0, 100.0, 4), GridPartitioning::columns(-5.0, 5.0, 1)] {
            let mut xs: Vec<f64> = (0..500).map(|_| rng.range(-50.0, 150.0)).collect();
            xs.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            let mut owners = Vec::new();
            grid.owners_into(&xs, &vec![0.0; xs.len()], &mut owners);
            let expected: Vec<u32> = xs.iter().map(|&x| grid.column_of(x) as u32).collect();
            assert_eq!(owners, expected);
        }
    }

    /// The branch-free band against a `partition_point` search of the
    /// boundaries against the probers that see `x`, `Rect::centered(x, vis)`
    /// on the x axis: random positions, NaN, ±∞, and `x` on the edge of the
    /// band around every boundary `b` (outer ones included) and one ulp past
    /// it, at one, two and four columns, with visibilities drawn whole or
    /// not.
    #[test]
    fn replica_col_range_matches_partition_point() {
        let mut rng = DetRng::seed_from_u64(9);
        for cols in [1, 2, 4] {
            let g = GridPartitioning::columns(0.0, 100.0, cols);
            for i in 0..2000 {
                let vis = if i % 2 == 0 { rng.below(40) as f64 } else { rng.range(0.0, 40.0) };
                let b = g.x_bounds()[rng.below(cols as u64 + 1) as usize];
                let edge = Rect::centered(Vec2::new(b, 0.0), vis);
                let x = match i % 9 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => edge.hi.x,
                    4 => edge.hi.x.next_up(),
                    5 => edge.lo.x,
                    6 => edge.lo.x.next_down(),
                    _ => rng.range(-20.0, 120.0),
                };
                let seen_from = Rect::centered(Vec2::new(x, 0.0), vis);
                let interior = &g.x_bounds()[1..cols];
                // No prober sees NaN, which stays with its owner, column 0.
                let (c0, c1) = match x.is_nan() {
                    true => (0, 0),
                    false => (
                        interior.partition_point(|&b| b < seen_from.lo.x) as u32,
                        interior.partition_point(|&b| b <= seen_from.hi.x) as u32,
                    ),
                };
                assert_eq!(g.replica_col_range(x, vis), (c0, c1), "cols={cols} x={x} vis={vis}");
            }
        }
    }
}
