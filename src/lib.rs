//! # BRACE — Behavioral Simulations in MapReduce
//!
//! Umbrella crate re-exporting the whole workspace: a faithful Rust
//! reproduction of *"Behavioral Simulations in MapReduce"* (Wang et al.,
//! VLDB 2010), grown into a scenario-driven simulation system. See
//! `README.md` for a tour.
//!
//! The front door is the [`scenario`] crate: look a workload up in the
//! [`Registry`](brace_scenario::Registry), pick a
//! [`Backend`](brace_scenario::Backend), and drive it through the
//! backend-erased [`Runner`](brace_scenario::Runner):
//!
//! ```
//! use brace::prelude::*;
//!
//! let registry = Registry::builtin();
//! let scenario = registry.get("fish").unwrap();
//! let report = Runner::new(scenario).population(200).run(10).unwrap();
//! let cluster = Runner::new(scenario)
//!     .population(200)
//!     .backend(Backend::cluster(2))
//!     .run(10)
//!     .unwrap();
//! assert_eq!(report.checksum, cluster.checksum); // same bits at any scale
//! ```

/// Common geometry, ids, RNG and statistics.
pub use brace_common as common;
/// The state-effect pattern and single-node engine.
pub use brace_core as core;
/// The distributed (simulated-cluster) MapReduce runtime.
pub use brace_mapreduce as mapreduce;
/// Reference simulation models (traffic, fish, predator, epidemic, …).
pub use brace_models as models;
/// The scenario registry and the backend-erased driver.
pub use brace_scenario as scenario;
/// Spatial indexes, the column partitioning and the join kernels.
pub use brace_spatial as spatial;
/// The BRASIL agent language.
pub use brasil;

/// The most common imports for building and running a simulation.
pub mod prelude {
    pub use brace_common::{AgentId, DetRng, Rect, Vec2};
    pub use brace_scenario::{Backend, Observer, Progress, Registry, Runner, Scenario, SimHandle};
    pub use brace_spatial::IndexKind;
}
