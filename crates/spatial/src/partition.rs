//! Spatial partitioning — the function `P : L → P` of the paper's
//! Appendix A.
//!
//! The map tasks use a partitioning function to assign each agent to a
//! disjoint region of space (its *owner*) and to compute which other
//! partitions need a *replica* of the agent because it falls inside their
//! visible region `VR(p) = owned(p) ⊕ visibility`. The BRACE prototype used
//! "a simple rectilinear grid partitioning scheme, which assigns each grid
//! cell to a separate slave node", with a one-dimensional load balancer that
//! moves the cell boundaries. [`GridPartitioning`] implements exactly that:
//! sorted boundary arrays per axis, movable at epoch boundaries.

use brace_common::{PartitionId, Rect, Vec2};
use serde::{Deserialize, Serialize};

/// A spatial partitioning function.
///
/// Implementations must cover all of space: every position maps to exactly
/// one owning partition (points outside the configured bounds clamp to the
/// border cells — the fish "ocean" is unbounded).
pub trait Partitioner: Send + Sync {
    /// Total number of partitions.
    fn num_partitions(&self) -> usize;

    /// The unique owner of position `p`.
    fn partition_of(&self, p: Vec2) -> PartitionId;

    /// The owned region of `pid`. Border cells extend to infinity so that
    /// the owned regions tile the whole plane.
    fn owned_region(&self, pid: PartitionId) -> Rect;

    /// Append to `out` every partition whose *visible region* (owned region
    /// expanded by `vis`) contains `p` — i.e. every partition that must
    /// receive a replica of an agent at `p`. The owner itself is always
    /// included. `vis` is the visibility bound in L∞ (rectangular ranges).
    fn replica_targets(&self, p: Vec2, vis: f64, out: &mut Vec<PartitionId>);

    /// The visible region of a partition: `VR(p) = ⋃_{l ∈ owned(p)} VR(l)`.
    fn visible_region(&self, pid: PartitionId, vis: f64) -> Rect {
        self.owned_region(pid).expanded(vis)
    }
}

/// Rectilinear grid partitioning with movable boundaries.
///
/// `cols × rows` cells; cell `(ci, ri)` is partition `ri * cols + ci`.
/// Column boundaries (`x_bounds`, length `cols + 1`) and row boundaries
/// (`y_bounds`, length `rows + 1`) are strictly increasing; the outermost
/// boundaries are conceptual only — ownership clamps to the border cells, so
/// the partitioning covers unbounded space.
///
/// The 1-D load balancer of the paper corresponds to `rows == 1` with
/// movable `x_bounds`; the constructor [`GridPartitioning::columns`] builds
/// that directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPartitioning {
    x_bounds: Vec<f64>,
    y_bounds: Vec<f64>,
}

impl GridPartitioning {
    /// Uniform `cols × rows` grid over `space`.
    pub fn uniform(space: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid needs at least one cell");
        assert!(!space.is_empty(), "space must be non-empty");
        let x_bounds = (0..=cols).map(|i| space.lo.x + space.width() * i as f64 / cols as f64).collect();
        let y_bounds = (0..=rows).map(|i| space.lo.y + space.height() * i as f64 / rows as f64).collect();
        GridPartitioning { x_bounds, y_bounds }
    }

    /// One-dimensional column partitioning over `[x0, x1]` (the layout the
    /// load balancer manages); `y` is unbounded within each column.
    pub fn columns(x0: f64, x1: f64, cols: usize) -> Self {
        Self::uniform(Rect::from_bounds(x0, x1, 0.0, 1.0), cols, 1)
    }

    /// Build directly from boundary arrays (used by the load balancer to
    /// install a recomputed partitioning). Boundaries must be strictly
    /// increasing and have length ≥ 2.
    pub fn from_bounds(x_bounds: Vec<f64>, y_bounds: Vec<f64>) -> Self {
        assert!(x_bounds.len() >= 2 && y_bounds.len() >= 2, "need at least one cell per axis");
        assert!(x_bounds.windows(2).all(|w| w[0] < w[1]), "x bounds must increase");
        assert!(y_bounds.windows(2).all(|w| w[0] < w[1]), "y bounds must increase");
        GridPartitioning { x_bounds, y_bounds }
    }

    pub fn cols(&self) -> usize {
        self.x_bounds.len() - 1
    }

    pub fn rows(&self) -> usize {
        self.y_bounds.len() - 1
    }

    /// Current column boundaries (exposed for the load balancer).
    pub fn x_bounds(&self) -> &[f64] {
        &self.x_bounds
    }

    pub fn y_bounds(&self) -> &[f64] {
        &self.y_bounds
    }

    /// Replace the column boundaries, keeping the number of columns. This is
    /// the load balancer's repartitioning primitive: the master broadcasts
    /// the new bounds and workers switch at an epoch boundary.
    pub fn set_x_bounds(&mut self, x_bounds: Vec<f64>) {
        assert_eq!(x_bounds.len(), self.x_bounds.len(), "column count must not change");
        assert!(x_bounds.windows(2).all(|w| w[0] < w[1]), "x bounds must increase");
        self.x_bounds = x_bounds;
    }

    /// Index of the cell interval containing `v` along boundaries `bounds`,
    /// clamped to the border cells.
    fn axis_cell(bounds: &[f64], v: f64) -> usize {
        // partition_point returns the first boundary > v; cells are
        // [b[i], b[i+1]) with the last cell closed above by clamping.
        let cells = bounds.len() - 1;
        let i = bounds.partition_point(|&b| b <= v);
        i.saturating_sub(1).min(cells - 1)
    }

    /// Range of cell indices along one axis whose expanded interval
    /// intersects `[lo, hi]`.
    fn axis_range(bounds: &[f64], lo: f64, hi: f64) -> (usize, usize) {
        (Self::axis_cell(bounds, lo), Self::axis_cell(bounds, hi))
    }

    fn pid(&self, ci: usize, ri: usize) -> PartitionId {
        PartitionId::new((ri * self.cols() + ci) as u32)
    }

    /// Columnar ownership scan: `out[i]` = partition index owning
    /// `(xs[i], ys[i])`. This is the distribute phase of the pool-resident
    /// worker — one pass over the pool's position columns instead of a
    /// per-record `partition_of` on materialized agents. The boundary
    /// arrays are tiny (≤ workers + 1 entries), so the inner comparison
    /// loop is branch-free and lane-friendly: owner = Σⱼ [x ≥ bⱼ] over the
    /// interior boundaries, exactly `axis_cell`'s `partition_point`
    /// arithmetic unrolled into adds.
    pub fn owners_into(&self, xs: &[f64], ys: &[f64], out: &mut Vec<u32>) {
        debug_assert_eq!(xs.len(), ys.len());
        out.clear();
        out.reserve(xs.len());
        let xb = &self.x_bounds[1..self.x_bounds.len() - 1]; // interior boundaries
        if self.rows() == 1 {
            // 1-D columns layout (the paper's load-balanced partitioning):
            // pure x scan, no row term.
            out.extend(xs.iter().map(|&x| xb.iter().map(|&b| (x >= b) as u32).sum::<u32>()));
        } else {
            let yb = &self.y_bounds[1..self.y_bounds.len() - 1];
            let cols = self.cols() as u32;
            out.extend(xs.iter().zip(ys).map(|(&x, &y)| {
                let ci = xb.iter().map(|&b| (x >= b) as u32).sum::<u32>();
                let ri = yb.iter().map(|&b| (y >= b) as u32).sum::<u32>();
                ri * cols + ci
            }));
        }
    }

    /// Inclusive column range `[c0, c1]` of cells whose visible region
    /// contains x-position `x` under visibility `vis` — the 1-D fast path
    /// of [`Partitioner::replica_targets`] for the `rows() == 1` layout
    /// (every target has row 0, so the cell range *is* the target list).
    /// Branch-free like [`Self::owners_into`]: each end is Σⱼ [v ≥ bⱼ] over
    /// the interior boundaries, which is `axis_cell`'s clamped
    /// `partition_point` for every `v` — NaN and −∞ count none, +∞ all.
    #[inline]
    pub fn replica_col_range(&self, x: f64, vis: f64) -> (u32, u32) {
        let (lo, hi) = (x - vis, x + vis);
        let interior = &self.x_bounds[1..self.x_bounds.len() - 1];
        interior.iter().fold((0, 0), |(c0, c1), &b| (c0 + (lo >= b) as u32, c1 + (hi >= b) as u32))
    }

    fn cell_of(&self, pid: PartitionId) -> (usize, usize) {
        let cols = self.cols();
        let idx = pid.index();
        (idx % cols, idx / cols)
    }
}

impl Partitioner for GridPartitioning {
    fn num_partitions(&self) -> usize {
        self.cols() * self.rows()
    }

    fn partition_of(&self, p: Vec2) -> PartitionId {
        let ci = Self::axis_cell(&self.x_bounds, p.x);
        let ri = Self::axis_cell(&self.y_bounds, p.y);
        self.pid(ci, ri)
    }

    fn owned_region(&self, pid: PartitionId) -> Rect {
        let (ci, ri) = self.cell_of(pid);
        assert!(ci < self.cols() && ri < self.rows(), "partition id out of range: {pid}");
        // Border cells extend to infinity: ownership clamps outside points
        // to the border, so the owned region must reflect that.
        let x0 = if ci == 0 { f64::NEG_INFINITY } else { self.x_bounds[ci] };
        let x1 = if ci == self.cols() - 1 { f64::INFINITY } else { self.x_bounds[ci + 1] };
        let y0 = if ri == 0 { f64::NEG_INFINITY } else { self.y_bounds[ri] };
        let y1 = if ri == self.rows() - 1 { f64::INFINITY } else { self.y_bounds[ri + 1] };
        Rect::from_bounds(x0, x1, y0, y1)
    }

    fn replica_targets(&self, p: Vec2, vis: f64, out: &mut Vec<PartitionId>) {
        debug_assert!(vis >= 0.0);
        let (c0, c1) = Self::axis_range(&self.x_bounds, p.x - vis, p.x + vis);
        let (r0, r1) = Self::axis_range(&self.y_bounds, p.y - vis, p.y + vis);
        for ri in r0..=r1 {
            for ci in c0..=c1 {
                out.push(self.pid(ci, ri));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::DetRng;

    fn grid3x2() -> GridPartitioning {
        GridPartitioning::uniform(Rect::from_bounds(0.0, 30.0, 0.0, 20.0), 3, 2)
    }

    #[test]
    fn uniform_grid_cell_assignment() {
        let g = grid3x2();
        assert_eq!(g.num_partitions(), 6);
        assert_eq!(g.partition_of(Vec2::new(5.0, 5.0)), PartitionId::new(0));
        assert_eq!(g.partition_of(Vec2::new(15.0, 5.0)), PartitionId::new(1));
        assert_eq!(g.partition_of(Vec2::new(25.0, 5.0)), PartitionId::new(2));
        assert_eq!(g.partition_of(Vec2::new(5.0, 15.0)), PartitionId::new(3));
        assert_eq!(g.partition_of(Vec2::new(29.9, 19.9)), PartitionId::new(5));
    }

    #[test]
    fn points_outside_clamp_to_border_cells() {
        let g = grid3x2();
        assert_eq!(g.partition_of(Vec2::new(-100.0, -100.0)), PartitionId::new(0));
        assert_eq!(g.partition_of(Vec2::new(1e9, 1e9)), PartitionId::new(5));
        assert_eq!(g.partition_of(Vec2::new(15.0, -5.0)), PartitionId::new(1));
    }

    #[test]
    fn owned_regions_tile_the_plane() {
        let g = grid3x2();
        let mut rng = DetRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = Vec2::new(rng.range(-100.0, 130.0), rng.range(-100.0, 120.0));
            let owner = g.partition_of(p);
            // The point must be in its owner's region…
            assert!(g.owned_region(owner).contains(p), "{p} not in {owner}");
            // …and in no other region's interior (boundaries shared).
            let inside_count = (0..g.num_partitions())
                .filter(|&i| {
                    let r = g.owned_region(PartitionId::new(i as u32));
                    p.x > r.lo.x && p.x < r.hi.x && p.y > r.lo.y && p.y < r.hi.y
                })
                .count();
            assert!(inside_count <= 1);
        }
    }

    #[test]
    fn replica_targets_match_visible_region_definition() {
        let g = grid3x2();
        let mut rng = DetRng::seed_from_u64(2);
        for _ in 0..500 {
            let p = Vec2::new(rng.range(-5.0, 35.0), rng.range(-5.0, 25.0));
            let vis = rng.range(0.0, 12.0);
            let mut targets = Vec::new();
            g.replica_targets(p, vis, &mut targets);
            targets.sort_unstable();
            // Ground truth: p must be replicated to exactly the partitions
            // whose visible region contains p.
            let expected: Vec<PartitionId> = (0..g.num_partitions())
                .map(|i| PartitionId::new(i as u32))
                .filter(|&pid| g.visible_region(pid, vis).contains(p))
                .collect();
            assert_eq!(targets, expected, "p={p} vis={vis}");
        }
    }

    #[test]
    fn replica_targets_include_owner() {
        let g = grid3x2();
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = Vec2::new(rng.range(-50.0, 80.0), rng.range(-50.0, 70.0));
            let mut targets = Vec::new();
            g.replica_targets(p, 0.0, &mut targets);
            assert!(targets.contains(&g.partition_of(p)));
        }
    }

    #[test]
    fn zero_visibility_single_owner_interior() {
        let g = grid3x2();
        // Strictly interior point: only its owner needs it.
        let mut targets = Vec::new();
        g.replica_targets(Vec2::new(5.0, 5.0), 0.0, &mut targets);
        assert_eq!(targets, vec![PartitionId::new(0)]);
    }

    #[test]
    fn boundary_agent_replicated_to_both_sides() {
        let g = grid3x2();
        // x = 10 is the boundary between columns 0 and 1; with vis 1.0 the
        // agent is visible from both.
        let mut targets = Vec::new();
        g.replica_targets(Vec2::new(10.0, 5.0), 1.0, &mut targets);
        targets.sort_unstable();
        assert_eq!(targets, vec![PartitionId::new(0), PartitionId::new(1)]);
    }

    #[test]
    fn columns_layout_is_one_dimensional() {
        let g = GridPartitioning::columns(0.0, 100.0, 4);
        assert_eq!(g.num_partitions(), 4);
        assert_eq!(g.rows(), 1);
        // y never affects ownership.
        assert_eq!(g.partition_of(Vec2::new(30.0, -1e6)), g.partition_of(Vec2::new(30.0, 1e6)));
    }

    #[test]
    fn set_x_bounds_moves_ownership() {
        let mut g = GridPartitioning::columns(0.0, 100.0, 2);
        assert_eq!(g.partition_of(Vec2::new(40.0, 0.0)), PartitionId::new(0));
        g.set_x_bounds(vec![0.0, 30.0, 100.0]);
        assert_eq!(g.partition_of(Vec2::new(40.0, 0.0)), PartitionId::new(1));
    }

    #[test]
    #[should_panic(expected = "column count must not change")]
    fn set_x_bounds_rejects_resize() {
        let mut g = GridPartitioning::columns(0.0, 100.0, 2);
        g.set_x_bounds(vec![0.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn from_bounds_rejects_unsorted() {
        GridPartitioning::from_bounds(vec![0.0, 2.0, 1.0], vec![0.0, 1.0]);
    }

    #[test]
    fn owners_into_matches_partition_of() {
        let mut rng = DetRng::seed_from_u64(7);
        for grid in [grid3x2(), GridPartitioning::columns(0.0, 100.0, 4), GridPartitioning::columns(-5.0, 5.0, 1)] {
            let (xs, ys): (Vec<f64>, Vec<f64>) =
                (0..500).map(|_| (rng.range(-50.0, 150.0), rng.range(-50.0, 150.0))).unzip();
            let mut owners = Vec::new();
            grid.owners_into(&xs, &ys, &mut owners);
            assert_eq!(owners.len(), xs.len());
            for i in 0..xs.len() {
                assert_eq!(
                    owners[i],
                    grid.partition_of(Vec2::new(xs[i], ys[i])).index() as u32,
                    "point ({}, {})",
                    xs[i],
                    ys[i]
                );
            }
        }
    }

    /// The branch-free band against `replica_targets`' `partition_point`
    /// search: random positions, NaN, ±∞, and `x` exactly at `b ± vis` for
    /// every boundary `b` (outer ones included), at one, two and four
    /// columns, with visibilities drawn whole (so `b ± vis` is exact) or not.
    #[test]
    fn replica_col_range_matches_replica_targets_for_columns() {
        let mut rng = DetRng::seed_from_u64(9);
        for cols in [1, 2, 4] {
            let g = GridPartitioning::columns(0.0, 100.0, cols);
            for i in 0..2000 {
                let vis = if i % 2 == 0 { rng.below(40) as f64 } else { rng.range(0.0, 40.0) };
                let b = g.x_bounds()[rng.below(cols as u64 + 1) as usize];
                let x = match i % 7 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => b + vis,
                    4 => b - vis,
                    _ => rng.range(-20.0, 120.0),
                };
                let p = Vec2::new(x, rng.range(-5.0, 5.0));
                let (c0, c1) = g.replica_col_range(p.x, vis);
                let mut targets = Vec::new();
                g.replica_targets(p, vis, &mut targets);
                targets.sort_unstable();
                let expected: Vec<PartitionId> = (c0..=c1).map(PartitionId::new).collect();
                assert_eq!(targets, expected, "cols={cols} p={p} vis={vis}");
            }
        }
    }

    #[test]
    fn visible_region_expands_owned() {
        let g = grid3x2();
        let vr = g.visible_region(PartitionId::new(1), 2.0);
        // Column 1 owns x in [10, 20]; expanded by 2 -> [8, 22].
        assert!(vr.contains(Vec2::new(8.0, 5.0)));
        assert!(!vr.contains(Vec2::new(7.9, 5.0)));
    }
}
