//! Tick metrics.
//!
//! The paper reports *total simulation time* for single-node experiments
//! (Figures 3, 4) and *agent-ticks per second* for cluster experiments
//! (Figures 5–7). [`TickMetrics`] is what one executed tick reports, with a
//! per-phase breakdown; a caller that wants a run's totals sums the ticks it
//! stepped, or reads the run's own telemetry registry, a [`Metrics`].

pub use brace_telemetry::Metrics;
use serde::{Deserialize, Serialize};

/// Timing and counters for one executed tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TickMetrics {
    pub tick: u64,
    /// Agents processed (owned agents at the start of the tick).
    pub n_agents: usize,
    /// Nanoseconds spent building the spatial index.
    pub index_build_ns: u64,
    /// Nanoseconds spent in the query phase (probes + behavior queries +
    /// the shard effect-table merge).
    pub query_ns: u64,
    /// Nanoseconds of `query_ns` spent ⊕-merging shard effect tables into
    /// the pool's effect columns (a subset, not an additional phase — a
    /// tick's total must not count it twice).
    pub merge_ns: u64,
    /// Nanoseconds spent in the update phase.
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
