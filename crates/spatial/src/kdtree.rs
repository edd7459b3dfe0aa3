//! A two-dimensional KD-tree (Bentley-style, array-backed).
//!
//! This is the index the BRACE prototype used ("a generic KD-tree based
//! spatial index capability \[3\]", citing Bentley's semidynamic k-d trees).
//! The implementation optimizes bulk build + query throughput:
//!
//! * nodes live in a flat `Vec` in build order (no per-node allocation);
//! * construction is the classic median split with Hoare partitioning
//!   (`select_nth_unstable_by`), alternating split axes — O(n log n);
//! * leaves hold up to a fixed number of points (16) and are scanned linearly, which
//!   beats deeper recursion for the query sizes behavioral simulations see;
//! * orthogonal range queries and k-nearest-neighbor search both prune by the
//!   node bounding boxes computed during the build.
//!
//! The tree is build-only: positions are frozen for a tick's query phase and
//! the executor builds a fresh tree for each tick it probes one (k-NN and
//! unbounded-visibility schemas; a bounded range schema joins through the
//! probe order and builds none).

use crate::index::{knn_cmp, SpatialIndex, KNN_SCRATCH};
use brace_common::{Rect, Vec2};

/// Maximum number of points in a leaf node. 16 keeps the tree shallow while
/// the per-leaf scan stays within a cache line or two of point data.
const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    /// Internal node: splits `axis` at `split`; children are `left`/`right`
    /// indices into the node vec. `bounds` is the bounding box of the whole
    /// subtree (used for pruning).
    Inner { axis: u8, split: f64, left: u32, right: u32, bounds: Rect },
    /// Leaf: a `start..end` range into the `points` array.
    Leaf { start: u32, end: u32, bounds: Rect },
}

impl Node {
    #[inline]
    fn bounds(&self) -> Rect {
        match self {
            Node::Inner { bounds, .. } | Node::Leaf { bounds, .. } => *bounds,
        }
    }
}

/// Array-backed 2-D KD-tree. See the module docs for design rationale.
#[derive(Debug, Clone, Default)]
pub struct KdTree {
    nodes: Vec<Node>,
    /// Points permuted into build order, so each leaf is a contiguous slice.
    points: Vec<(Vec2, u32)>,
    root: Option<u32>,
}

impl KdTree {
    /// Bounding box of all points (empty rect for an empty tree).
    pub fn bounds(&self) -> Rect {
        match self.root {
            Some(r) => self.nodes[r as usize].bounds(),
            None => Rect::EMPTY,
        }
    }

    /// Depth of the tree (0 for empty); exposed for testing the build shape.
    pub fn depth(&self) -> usize {
        fn go(nodes: &[Node], n: u32) -> usize {
            match &nodes[n as usize] {
                Node::Leaf { .. } => 1,
                Node::Inner { left, right, .. } => 1 + go(nodes, *left).max(go(nodes, *right)),
            }
        }
        self.root.map_or(0, |r| go(&self.nodes, r))
    }

    fn build_rec(points: &mut [(Vec2, u32)], offset: u32, nodes: &mut Vec<Node>) -> u32 {
        let bounds = points.iter().fold(Rect::EMPTY, |b, &(p, _)| b.extended(p));
        if points.len() <= LEAF_SIZE {
            nodes.push(Node::Leaf { start: offset, end: offset + points.len() as u32, bounds });
            return (nodes.len() - 1) as u32;
        }
        // Split the wider axis of the actual bounding box rather than simply
        // alternating: degenerate distributions (all agents on a highway
        // line) otherwise produce sliver cells and deep trees.
        let axis = if bounds.width() >= bounds.height() { 0u8 } else { 1u8 };
        let mid = points.len() / 2;
        let key = |p: &(Vec2, u32)| if axis == 0 { p.0.x } else { p.0.y };
        points.select_nth_unstable_by(mid, |a, b| key(a).total_cmp(&key(b)));
        let split = key(&points[mid]);
        let (lo, hi) = points.split_at_mut(mid);
        let placeholder = nodes.len() as u32;
        nodes.push(Node::Leaf { start: 0, end: 0, bounds: Rect::EMPTY }); // patched below
        let left = Self::build_rec(lo, offset, nodes);
        let right = Self::build_rec(hi, offset + mid as u32, nodes);
        nodes[placeholder as usize] = Node::Inner { axis, split, left, right, bounds };
        placeholder
    }

    fn range_rec(&self, n: u32, rect: &Rect, out: &mut Vec<u32>) {
        match &self.nodes[n as usize] {
            Node::Leaf { start, end, bounds } => {
                if !rect.intersects(bounds) {
                    return;
                }
                for i in *start as usize..*end as usize {
                    if rect.contains(self.points[i].0) {
                        out.push(self.points[i].1);
                    }
                }
            }
            Node::Inner { left, right, bounds, .. } => {
                if !rect.intersects(bounds) {
                    return;
                }
                if rect.contains_rect(bounds) {
                    // Whole subtree inside the query: report without tests.
                    self.report_subtree(n, out);
                    return;
                }
                self.range_rec(*left, rect, out);
                self.range_rec(*right, rect, out);
            }
        }
    }

    fn report_subtree(&self, n: u32, out: &mut Vec<u32>) {
        match &self.nodes[n as usize] {
            Node::Leaf { start, end, .. } => {
                out.extend(self.points[*start as usize..*end as usize].iter().map(|&(_, payload)| payload));
            }
            Node::Inner { left, right, .. } => {
                self.report_subtree(*left, out);
                self.report_subtree(*right, out);
            }
        }
    }

    fn knn_rec(&self, n: u32, q: Vec2, exclude: Option<u32>, k: usize, heap: &mut Vec<(f64, u32)>) {
        let worst = if heap.len() < k { f64::INFINITY } else { heap.last().unwrap().0 };
        match &self.nodes[n as usize] {
            Node::Leaf { start, end, bounds } => {
                if bounds.dist2_to_point(q) > worst {
                    return;
                }
                for &(p, payload) in &self.points[*start as usize..*end as usize] {
                    if Some(payload) == exclude {
                        continue;
                    }
                    let cand = (p.dist2(q), payload);
                    // Canonical (distance, payload) order so ties resolve
                    // identically in every index kind.
                    if heap.len() < k || knn_cmp(&cand, heap.last().unwrap()).is_lt() {
                        let pos = heap.partition_point(|h| knn_cmp(h, &cand).is_lt());
                        heap.insert(pos, cand);
                        if heap.len() > k {
                            heap.pop();
                        }
                    }
                }
            }
            Node::Inner { axis, split, left, right, bounds } => {
                if bounds.dist2_to_point(q) > worst {
                    return;
                }
                let qk = if *axis == 0 { q.x } else { q.y };
                let (near, far) = if qk <= *split { (*left, *right) } else { (*right, *left) };
                self.knn_rec(near, q, exclude, k, heap);
                self.knn_rec(far, q, exclude, k, heap);
            }
        }
    }
}

impl SpatialIndex for KdTree {
    fn build(points: &[(Vec2, u32)]) -> Self {
        if points.is_empty() {
            return KdTree::default();
        }
        let mut points = points.to_vec();
        let mut nodes = Vec::new();
        let root = Self::build_rec(&mut points, 0, &mut nodes);
        KdTree { nodes, points, root: Some(root) }
    }

    fn range(&self, rect: &Rect, out: &mut Vec<u32>) {
        if let Some(r) = self.root {
            self.range_rec(r, rect, out);
        }
    }

    /// Branch-and-bound k-NN over the tree: a sorted bounded buffer plays
    /// the max-heap, and subtree bounding boxes prune against its worst
    /// entry.
    fn k_nearest_into(&self, q: Vec2, k: usize, exclude: Option<u32>, out: &mut Vec<u32>) {
        out.clear();
        let Some(root) = self.root else { return };
        if k == 0 {
            return;
        }
        KNN_SCRATCH.with_borrow_mut(|heap| {
            heap.clear();
            self.knn_rec(root, q, exclude, k, heap);
            out.extend(heap.iter().map(|&(_, p)| p));
        });
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScanIndex;
    use brace_common::DetRng;

    fn random_points(n: usize, seed: u64) -> Vec<(Vec2, u32)> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n).map(|i| (Vec2::new(rng.range(-100.0, 100.0), rng.range(-100.0, 100.0)), i as u32)).collect()
    }

    /// Collecting k-NN helper for assertions over `k_nearest_into`.
    fn knn(t: &KdTree, q: Vec2, k: usize, exclude: Option<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        t.k_nearest_into(q, k, exclude, &mut out);
        out
    }

    #[test]
    fn empty_tree_behaves() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert!(knn(&t, Vec2::ZERO, 1, None).is_empty());
        assert_eq!(t.depth(), 0);
        assert!(t.bounds().is_empty());
        let mut out = Vec::new();
        t.range(&Rect::EVERYTHING, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(&[(Vec2::new(1.0, 2.0), 42)]);
        assert_eq!(knn(&t, Vec2::ZERO, 1, None), [42]);
        assert!(knn(&t, Vec2::ZERO, 1, Some(42)).is_empty());
        let mut out = Vec::new();
        t.range(&Rect::centered(Vec2::new(1.0, 2.0), 0.1), &mut out);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn range_matches_scan_on_random_data() {
        let pts = random_points(500, 1);
        let tree = KdTree::build(&pts);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(2);
        for _ in 0..50 {
            let c = Vec2::new(rng.range(-110.0, 110.0), rng.range(-110.0, 110.0));
            let rect = Rect::centered(c, rng.range(0.0, 40.0));
            let mut a = Vec::new();
            let mut b = Vec::new();
            tree.range(&rect, &mut a);
            scan.range(&rect, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "range mismatch for {rect}");
        }
    }

    #[test]
    fn nearest_matches_scan_on_random_data() {
        let pts = random_points(300, 3);
        let tree = KdTree::build(&pts);
        let scan = ScanIndex::build(&pts);
        let mut rng = DetRng::seed_from_u64(4);
        for _ in 0..100 {
            let q = Vec2::new(rng.range(-120.0, 120.0), rng.range(-120.0, 120.0));
            let mut b = Vec::new();
            scan.k_nearest_into(q, 1, None, &mut b);
            assert_eq!(knn(&tree, q, 1, None), b, "q={q}");
        }
    }

    #[test]
    fn knn_sorted_and_correct() {
        let pts = random_points(200, 5);
        let tree = KdTree::build(&pts);
        let q = Vec2::new(3.0, -7.0);
        let got = knn(&tree, q, 10, None);
        assert_eq!(got.len(), 10);
        // Verify ordering.
        let dists: Vec<f64> = got.iter().map(|&i| pts[i as usize].0.dist2(q)).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        // Verify against brute force.
        let mut all: Vec<(f64, u32)> = pts.iter().map(|&(p, i)| (p.dist2(q), i)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let brute: Vec<f64> = all.iter().take(10).map(|&(d, _)| d).collect();
        for (g, b) in dists.iter().zip(&brute) {
            assert!((g - b).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_more_than_available() {
        let pts = random_points(5, 6);
        let tree = KdTree::build(&pts);
        let got = knn(&tree, Vec2::ZERO, 10, None);
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn knn_into_reuses_buffer() {
        let pts = random_points(64, 9);
        let tree = KdTree::build(&pts);
        let mut out = vec![99u32; 32];
        tree.k_nearest_into(Vec2::ZERO, 4, None, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out, knn(&tree, Vec2::ZERO, 4, None));
    }

    #[test]
    fn knn_ties_break_by_payload() {
        // Four coincident points: the canonical result is ascending payload.
        let p = Vec2::new(1.0, 1.0);
        let pts = vec![(p, 3), (p, 1), (p, 2), (p, 0)];
        let tree = KdTree::build(&pts);
        assert_eq!(knn(&tree, Vec2::ZERO, 3, None), vec![0, 1, 2]);
    }

    #[test]
    fn duplicate_positions_all_reported() {
        let p = Vec2::new(1.0, 1.0);
        let pts: Vec<(Vec2, u32)> = (0..40).map(|i| (p, i)).collect();
        let tree = KdTree::build(&pts);
        let mut out = Vec::new();
        tree.range(&Rect::centered(p, 0.5), &mut out);
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn collinear_points_stay_balanced() {
        // Highway-like degenerate input: all on y = 0.
        let pts: Vec<(Vec2, u32)> = (0..1024).map(|i| (Vec2::new(i as f64, 0.0), i as u32)).collect();
        let tree = KdTree::build(&pts);
        // A balanced tree over 1024 points with leaves of 16 has depth ~7..9.
        assert!(tree.depth() <= 12, "depth {} too deep for collinear input", tree.depth());
        let mut out = Vec::new();
        tree.range(&Rect::from_bounds(10.0, 20.0, -1.0, 1.0), &mut out);
        out.sort_unstable();
        assert_eq!(out, (10..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn bounds_covers_all_points() {
        let pts = random_points(64, 8);
        let tree = KdTree::build(&pts);
        let b = tree.bounds();
        for &(p, _) in &pts {
            assert!(b.contains(p));
        }
    }
}
