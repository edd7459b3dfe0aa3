//! Spatial substrate for BRACE.
//!
//! The paper's central abstraction is that a simulation tick is a *spatial
//! self-join*: each agent must see exactly the agents inside its visible
//! region. This crate supplies everything spatial that the engine and the
//! MapReduce runtime need:
//!
//! * [`index`] — [`IndexKind`], the engine's choice between the sort-merge
//!   tile join and the paper's "no indexing" scan, and the build-only
//!   [`SpatialIndex`] abstraction with three implementations: a brute-force
//!   scan (whose range probe is one lane-kernel pass), a [`KdTree`] (the
//!   paper's prototype used a KD-tree, citing Bentley), and a
//!   [`UniformGrid`] bucket index whose buckets are payload-sorted SoA
//!   column runs in one contiguous arena. The engine builds none of the
//!   three; they serve `perfbench`'s per-layer probes and the
//!   `all_indexes_*` properties, where each is the others' oracle.
//! * [`partition`] — the spatial partitioning function `P : L → P` of the
//!   paper's Appendix A, in the one layout the runtime builds: vertical
//!   columns over x whose boundaries the 1-D load balancer moves, with the
//!   owner lookup and the contiguous replica band of each agent.
//! * [`kernels`] — fixed-width lane kernels (range filter, squared
//!   distances) behind the executor's probe groups (each agent filters its
//!   tile's shared candidate block with `filter_rect`) and the scan's range
//!   probe, and the indexes' k-NN gathers, proven bit-identical to the scalar loops by
//!   the kernel conformance suite in `tests/properties.rs`; and the join's
//!   integer orders and lookups (`block_order`, `radix_sort_by_key`, the
//!   probe order's `TileDirectory` and its `seek_window` fallback).

pub mod grid;
pub mod index;
pub mod kdtree;
pub mod kernels;
pub mod partition;

pub use grid::UniformGrid;
pub use index::{IndexKind, ScanIndex, SpatialIndex};
pub use kdtree::KdTree;
pub use partition::GridPartitioning;
