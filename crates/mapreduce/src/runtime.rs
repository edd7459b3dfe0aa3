//! Protocol types of the BRACE runtime.
//!
//! The schedule per tick is the paper's Table 1:
//!
//! | phase              | task                | here                         |
//! |--------------------|---------------------|------------------------------|
//! | updateᵗ⁻¹ + distributeᵗ | mapᵗ₁          | `Worker::run_tick`'s distribute step (update executed eagerly at the end of the previous tick) |
//! | queryᵗ / local effectᵗ | reduceᵗ₁        | `brace_core::query_phase_sharded` |
//! | (distribute effects)   | mapᵗ₂ (identity) | eliminated, as the paper notes: the worker routes each replica-targeted write to its target's owner |
//! | global effectᵗ          | reduceᵗ₂        | `brace_core::replay_effects`: the owner folds its own and the shipped writes once, in ascending source id |
//!
//! Workers exchange [`PeerMsg`]s (serialized payloads — see
//! [`codec`](crate::codec)); the master exchanges [`Command`]/[`Report`]
//! at *epoch* granularity only, which is the design point that amortizes
//! coordination over many in-memory ticks.

use brace_common::WorkerId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Worker-to-worker message. Payloads are opaque bytes (agents, delta
/// frames, effect writes or spawn runs); `tick` tags the lockstep round the
/// message belongs to.
#[derive(Debug, Clone)]
pub enum PeerMsg {
    /// Round 1 of a tick: ownership transfers plus the two replica
    /// payloads of the delta-distribution protocol — full records for
    /// agents *entering* the receiver's visible band, and a compact
    /// columnar delta frame (removals + masked field updates) for replicas
    /// that persist there ([`codec::ReplicaDeltaEnc`](crate::codec::ReplicaDeltaEnc)).
    Batch { tick: u64, from: WorkerId, transfers: Bytes, replica_full: Bytes, replica_delta: Bytes },
    /// Round 2 of a tick (non-local effects only): the sender's agents'
    /// writes to agents the receiver owns, uncombined, in ascending source id
    /// ([`codec::encode_effect_writes`](crate::codec::encode_effect_writes)).
    Effects { tick: u64, from: WorkerId, writes: Bytes },
    /// Final round of a tick (spawning runs only): the sender's per-parent
    /// spawn counts as ascending `(parent id, count)` runs
    /// ([`codec::encode_spawn_runs`](crate::codec::encode_spawn_runs)).
    /// Merging every worker's runs in parent-id order yields the global
    /// spawn sequence, from which each worker derives final spawn ids —
    /// `(parent id, ordinal)` ordering, placement-independent.
    Spawns { tick: u64, from: WorkerId, runs: Bytes },
}

impl PeerMsg {
    pub fn tick(&self) -> u64 {
        match self {
            PeerMsg::Batch { tick, .. } | PeerMsg::Effects { tick, .. } | PeerMsg::Spawns { tick, .. } => *tick,
        }
    }

    pub fn from(&self) -> WorkerId {
        match self {
            PeerMsg::Batch { from, .. } | PeerMsg::Effects { from, .. } | PeerMsg::Spawns { from, .. } => *from,
        }
    }

    pub fn round(&self) -> Round {
        match self {
            PeerMsg::Batch { .. } => Round::Distribute,
            PeerMsg::Effects { .. } => Round::Effects,
            PeerMsg::Spawns { .. } => Round::Spawns,
        }
    }
}

/// The communication rounds of a tick, in per-tick order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    Distribute,
    Effects,
    Spawns,
}

/// One epoch's marching orders from the master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochCommand {
    pub epoch: u64,
    /// Ticks to execute in this epoch.
    pub ticks: u64,
    /// Repartitioning: new column boundaries to install *before* the epoch
    /// (the paper: "workers switch to the new partitioning at a specified
    /// epoch boundary").
    pub new_x_bounds: Option<Vec<f64>>,
    /// Produce a coordinated checkpoint snapshot after this epoch.
    pub checkpoint: bool,
    /// Range over which to histogram owned agent x-positions for the load
    /// balancer.
    pub hist_range: (f64, f64),
}

/// Master-to-worker commands.
#[derive(Debug, Clone)]
pub enum Command {
    RunEpoch(EpochCommand),
    /// Replace worker state from a checkpoint snapshot (recovery).
    Restore {
        snapshot: Bytes,
        x_bounds: Vec<f64>,
    },
    /// Send back the current owned agents (end-of-run collection).
    Collect,
    Stop,
}

/// Statistics one worker reports per epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerEpochStats {
    /// Owned agents at the end of the epoch.
    pub owned_agents: usize,
    /// Agent-ticks executed this epoch.
    pub agent_ticks: u64,
    /// Wall time of the epoch on this worker (includes waiting on peers —
    /// the straggler effect load balancing exists to fix).
    pub wall_ns: u64,
    /// Busy time actually spent computing (index+query+update).
    pub busy_ns: u64,
    /// Histogram of owned agents' x positions over the command's
    /// `hist_range` (input to the 1-D load balancer).
    pub x_hist: Vec<u64>,
    /// Observed x extent of owned agents, so the master can widen the
    /// histogram range as the population drifts.
    pub x_min: f64,
    pub x_max: f64,
    /// Communication rounds executed per tick (1 = local effects only,
    /// 2 = map-reduce-reduce). Exposed to assert the Table 1 mapping.
    pub comm_rounds_per_tick: u32,
    /// Full replica records received this epoch (band entrants; under
    /// delta distribution a stable boundary population stops paying this
    /// after its first tick).
    pub replicas_in: u64,
    /// Replica delta updates received this epoch (persisting replicas
    /// refreshed in place).
    pub replica_deltas_in: u64,
    /// Agents whose ownership transferred in this epoch.
    pub transfers_in: u64,
    /// Times this worker rebuilt its agent pool from row records during
    /// the epoch's ticks. The pool-resident protocol's core claim is that
    /// this stays **zero** outside restores — asserted in tests.
    pub pool_rebuilds: u64,
    /// Full-population `Vec<Agent>` materializations performed inside the
    /// epoch's ticks (also pinned to zero; snapshots at epoch boundaries
    /// are the real serialization boundary and are not counted here).
    pub vec_roundtrips: u64,
}

/// Worker-to-master reports. A worker sends `Failed` instead of `EpochDone`
/// when a peer's payload did not decode or could not be applied: it ran the
/// epoch to its end in lockstep, but its state is not the simulation's, so it
/// stops, and the master fails the epoch with `reason`.
#[derive(Debug)]
pub enum Report {
    EpochDone { worker: WorkerId, stats: WorkerEpochStats, snapshot: Option<Bytes> },
    Collected { worker: WorkerId, snapshot: Bytes },
    Failed { worker: WorkerId, reason: String },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_msg_accessors() {
        let b = PeerMsg::Batch {
            tick: 3,
            from: WorkerId::new(1),
            transfers: Bytes::new(),
            replica_full: Bytes::new(),
            replica_delta: Bytes::new(),
        };
        assert_eq!(b.tick(), 3);
        assert_eq!(b.from(), WorkerId::new(1));
        assert_eq!(b.round(), Round::Distribute);
        let e = PeerMsg::Effects { tick: 4, from: WorkerId::new(2), writes: Bytes::new() };
        assert_eq!(e.round(), Round::Effects);
        assert_eq!(e.tick(), 4);
    }
}
