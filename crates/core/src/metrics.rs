//! Tick metrics.
//!
//! The paper reports *total simulation time* for single-node experiments
//! (Figures 3, 4) and *agent-ticks per second* for cluster experiments
//! (Figures 5–7). [`TickMetrics`] is what one superstep reports, with a
//! per-phase breakdown — on a cluster worker, for its own partition; a caller
//! that wants a run's totals sums the ticks it stepped, or reads the run's
//! own telemetry registry, a [`Metrics`].

pub use brace_telemetry::Metrics;
use serde::{Deserialize, Serialize};

/// Timing and counters for one executed tick on one partition
/// ([`crate::Superstep::run`]). A cluster worker's distribute step, which
/// runs before the superstep, is in no field.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickMetrics {
    pub tick: u64,
    /// Agents processed (owned agents at the start of the tick's phases: on
    /// a worker, after its distribute step).
    pub n_agents: usize,
    /// Nanoseconds spent building the spatial index.
    pub index_build_ns: u64,
    /// Nanoseconds spent in the query phase (probes + behavior queries +
    /// the effect merge).
    pub query_ns: u64,
    /// Nanoseconds of `query_ns` spent merging effects: ⊕-merging shard
    /// effect tables into the pool's effect columns, exchanging the writes
    /// to rows owned elsewhere (a worker's effect round, its wait on peers
    /// included) and replaying remote writes. A subset, not an additional
    /// phase — a tick's total must not count it twice.
    pub merge_ns: u64,
    /// Nanoseconds spent in the update phase and applying its kills and
    /// spawns; on a worker that includes the spawn-sequencing round, its
    /// wait on peers included.
    pub update_ns: u64,
    /// Neighbor candidates handed to queries: every visible row inside a
    /// reading agent's probe rect. An agent whose query reads no neighbour
    /// this tick (`Behavior::reads_neighbors`) is handed none.
    pub neighbor_visits: u64,
    /// Non-local effect writes performed.
    pub nonlocal_writes: u64,
    pub spawned: usize,
    pub killed: usize,
}
