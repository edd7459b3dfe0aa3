//! Spatial self-join: the formal core of a simulation tick.
//!
//! "We join each agent with the set of agents in its visible region and
//! perform the query phase using only these agents" (§3.1). This module
//! provides the join both as ground truth (nested loop) and in an
//! index-accelerated form, plus the
//! partitioned/replicated decomposition that the MapReduce runtime uses —
//! so tests can assert that *partitioned join == single-node join*, the key
//! correctness property behind Table 1.

use crate::index::SpatialIndex;
use crate::partition::Partitioner;
use brace_common::{PartitionId, Rect, Vec2};

/// All pairs `(i, j)`, `i != j`, where point `j` lies inside the visibility
/// rectangle of point `i` (L∞ ball of radius `vis`). O(n²) reference
/// implementation.
pub fn nested_loop_join(points: &[Vec2], vis: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, &a) in points.iter().enumerate() {
        let region = Rect::centered(a, vis);
        for (j, &b) in points.iter().enumerate() {
            if i != j && region.contains(b) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

/// The same join computed through a [`SpatialIndex`]; O(n · (log n + k)) for
/// a KD-tree with k results per probe.
pub fn index_join<I: SpatialIndex>(points: &[Vec2], vis: f64) -> Vec<(u32, u32)> {
    let indexed: Vec<(Vec2, u32)> = points.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
    let index = I::build(&indexed);
    let mut out = Vec::new();
    let mut probe = Vec::new();
    for (i, &a) in points.iter().enumerate() {
        probe.clear();
        index.range(&Rect::centered(a, vis), &mut probe);
        for &j in &probe {
            if j != i as u32 {
                out.push((i as u32, j));
            }
        }
    }
    out
}

/// One partition's slice of the distributed join: the owned agents and the
/// replicas shipped to it.
#[derive(Debug, Clone, Default)]
pub struct PartitionSlice {
    /// Indices of agents owned by this partition.
    pub owned: Vec<u32>,
    /// Indices of all agents in the partition's visible region (its `owned`
    /// set plus replicas). This is what the reducer gets to see.
    pub visible: Vec<u32>,
}

/// Distribute points over a partitioner exactly like the runtime's map task
/// does: each agent goes to its owner's `owned` list and to the `visible`
/// list of every partition whose visible region contains it.
pub fn distribute<P: Partitioner>(points: &[Vec2], part: &P, vis: f64) -> Vec<PartitionSlice> {
    let mut slices: Vec<PartitionSlice> = (0..part.num_partitions()).map(|_| PartitionSlice::default()).collect();
    let mut targets: Vec<PartitionId> = Vec::new();
    for (i, &p) in points.iter().enumerate() {
        let owner = part.partition_of(p);
        slices[owner.index()].owned.push(i as u32);
        targets.clear();
        part.replica_targets(p, vis, &mut targets);
        for &t in &targets {
            slices[t.index()].visible.push(i as u32);
        }
    }
    slices
}

/// The distributed join: run the per-partition join over each slice (each
/// owned agent probes only the slice's visible set) and concatenate.
/// Correctness of the whole BRACE decomposition rests on this equaling
/// [`nested_loop_join`]; `tests` and the cross-crate integration tests
/// assert it.
pub fn partitioned_join<P: Partitioner>(points: &[Vec2], part: &P, vis: f64) -> Vec<(u32, u32)> {
    let slices = distribute(points, part, vis);
    let mut out = Vec::new();
    for slice in &slices {
        for &i in &slice.owned {
            let region = Rect::centered(points[i as usize], vis);
            for &j in &slice.visible {
                if j != i && region.contains(points[j as usize]) {
                    out.push((i, j));
                }
            }
        }
    }
    out
}

/// Total number of replicas (agent copies beyond the owned one) a
/// distribution produces — the communication volume the paper's replication
/// analysis reasons about.
pub fn replication_overhead(slices: &[PartitionSlice]) -> usize {
    let visible: usize = slices.iter().map(|s| s.visible.len()).sum();
    let owned: usize = slices.iter().map(|s| s.owned.len()).sum();
    visible - owned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use crate::partition::GridPartitioning;
    use brace_common::DetRng;

    fn random_points(n: usize, seed: u64, extent: f64) -> Vec<Vec2> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|_| Vec2::new(rng.range(0.0, extent), rng.range(0.0, extent))).collect()
    }

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn index_join_equals_nested_loop() {
        let pts = random_points(300, 21, 100.0);
        let a = sorted(nested_loop_join(&pts, 8.0));
        let b = sorted(index_join::<KdTree>(&pts, 8.0));
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_join_equals_single_node() {
        let pts = random_points(250, 22, 100.0);
        let part = GridPartitioning::uniform(Rect::from_bounds(0.0, 100.0, 0.0, 100.0), 4, 2);
        for vis in [0.5, 3.0, 10.0, 30.0] {
            let reference = sorted(nested_loop_join(&pts, vis));
            let dist = sorted(partitioned_join(&pts, &part, vis));
            assert_eq!(reference, dist, "vis={vis}");
        }
    }

    #[test]
    fn partitioned_join_handles_out_of_space_agents() {
        // Agents outside the partitioned space (unbounded ocean) must still
        // join correctly via border-cell clamping.
        let mut pts = random_points(100, 23, 100.0);
        pts.push(Vec2::new(-50.0, -50.0));
        pts.push(Vec2::new(150.0, 150.0));
        pts.push(Vec2::new(-49.0, -50.0));
        let part = GridPartitioning::uniform(Rect::from_bounds(0.0, 100.0, 0.0, 100.0), 3, 3);
        let reference = sorted(nested_loop_join(&pts, 5.0));
        let dist = sorted(partitioned_join(&pts, &part, 5.0));
        assert_eq!(reference, dist);
        // The two far agents see each other.
        let n = pts.len() as u32;
        assert!(reference.contains(&(n - 3, n - 1)));
    }

    #[test]
    fn replication_grows_with_visibility() {
        let pts = random_points(500, 24, 100.0);
        let part = GridPartitioning::uniform(Rect::from_bounds(0.0, 100.0, 0.0, 100.0), 4, 4);
        let r_small = replication_overhead(&distribute(&pts, &part, 1.0));
        let r_big = replication_overhead(&distribute(&pts, &part, 20.0));
        assert!(r_big > r_small, "replication {r_small} -> {r_big} should grow with visibility");
    }

    #[test]
    fn zero_visibility_join_only_exact_overlaps() {
        let pts = vec![Vec2::ZERO, Vec2::ZERO, Vec2::new(1.0, 0.0)];
        let j = sorted(nested_loop_join(&pts, 0.0));
        assert_eq!(j, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn distribute_owned_sets_partition_points() {
        let pts = random_points(200, 25, 100.0);
        let part = GridPartitioning::uniform(Rect::from_bounds(0.0, 100.0, 0.0, 100.0), 5, 1);
        let slices = distribute(&pts, &part, 4.0);
        let total_owned: usize = slices.iter().map(|s| s.owned.len()).sum();
        assert_eq!(total_owned, pts.len());
        // Each owned agent appears in exactly one owned list.
        let mut seen = vec![false; pts.len()];
        for s in &slices {
            for &i in &s.owned {
                assert!(!seen[i as usize], "agent {i} owned twice");
                seen[i as usize] = true;
            }
        }
        // Every partition's visible list contains its own owned agents.
        for s in &slices {
            for &i in &s.owned {
                assert!(s.visible.contains(&i));
            }
        }
    }
}
