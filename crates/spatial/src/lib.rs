//! Spatial substrate for BRACE.
//!
//! The paper's central abstraction is that a simulation tick is a *spatial
//! self-join*: each agent must see exactly the agents inside its visible
//! region. This crate supplies everything spatial that the engine and the
//! MapReduce runtime need:
//!
//! * [`index`] — the [`SpatialIndex`] abstraction with
//!   three implementations: a brute-force scan (the paper's "no indexing"
//!   baseline), a [`KdTree`] (the paper's prototype used a
//!   KD-tree, citing Bentley), and a [`UniformGrid`] bucket index whose
//!   buckets are bucket-major SoA column runs in one contiguous arena —
//!   kernel-native (`RANGE_BATCH_NATIVE`) and canonical
//!   (`RANGE_CANONICAL`), maintained incrementally under motion.
//! * [`partition`] — the spatial partitioning function `P : L → P` of the
//!   paper's Appendix A: a rectilinear grid whose column boundaries can be
//!   moved by the load balancer, owned regions, partition visible regions
//!   and replica-target enumeration; [`quadtree`] provides the paper's
//!   other named candidate, an adaptive quadtree.
//! * [`join`] — reference spatial self-join implementations used to
//!   cross-validate the indexes and as the formal ground truth in tests.
//! * [`kernels`] — fixed-width lane kernels (range filter, squared
//!   distances) behind the executor's probe groups (each agent filters its
//!   tile's shared candidate block with `filter_rect`) and the indexes'
//!   batched probe paths (`SpatialIndex::range_batch`), proven
//!   bit-identical to the scalar loops by the kernel conformance suite in
//!   `tests/properties.rs`.

pub mod grid;
pub mod index;
pub mod join;
pub mod kdtree;
pub mod kernels;
pub mod partition;
pub mod quadtree;

pub use grid::UniformGrid;
pub use index::{IndexKind, ScanIndex, SpatialIndex};
pub use kdtree::KdTree;
pub use partition::{GridPartitioning, Partitioner};
pub use quadtree::QuadTreePartitioning;
