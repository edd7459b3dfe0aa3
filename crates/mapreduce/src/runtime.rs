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
/// frames, effect writes or spawn runs). Each ordered worker pair has a link
/// of its own, which carries its sender's rounds in tick order, so the
/// receiver knows a message's sender and round from where and when it reads
/// it.
#[derive(Debug, Clone)]
pub enum PeerMsg {
    /// The first round of a tick: ownership transfers plus the two replica
    /// payloads of the delta-distribution protocol — full records for
    /// agents *entering* the receiver's visible band, and a compact
    /// columnar delta frame (removals + masked field updates) for replicas
    /// that persist there ([`codec::ReplicaDeltaEnc`](crate::codec::ReplicaDeltaEnc)).
    Batch { transfers: Bytes, replica_full: Bytes, replica_delta: Bytes },
    /// The second round of a tick (non-local effects only): the sender's agents'
    /// writes to agents the receiver owns, uncombined, in ascending source id
    /// ([`codec::encode_effect_writes`](crate::codec::encode_effect_writes)).
    Effects { writes: Bytes },
    /// Final round of a tick (spawning runs only): the sender's per-parent
    /// spawn counts as ascending `(parent id, count)` runs
    /// ([`codec::encode_spawn_runs`](crate::codec::encode_spawn_runs)).
    /// Merging every worker's runs in parent-id order yields the global
    /// spawn sequence, from which each worker derives final spawn ids —
    /// `(parent id, ordinal)` ordering, placement-independent.
    Spawns { runs: Bytes },
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
    /// Times this worker rebuilt its agent pool from row records during
    /// the epoch's ticks. The pool-resident protocol's core claim is that
    /// this stays **zero** outside restores — asserted in tests.
    pub pool_rebuilds: u64,
    /// Full-population `Vec<Agent>` materializations performed inside the
    /// epoch's ticks (also pinned to zero). A worker makes one only when a
    /// restore decodes a snapshot, between epochs; snapshots themselves
    /// are encoded from the pool and make none.
    pub vec_roundtrips: u64,
}

/// Worker-to-master reports. A worker sends `Failed` instead of `EpochDone`
/// when its epoch cannot finish: a peer's payload did not decode or could not
/// be applied, a link to a peer closed, or the behaviour panicked. Its state
/// is not the simulation's, so it stops; the links it drops fail every peer
/// that waits on them, and the master fails the epoch with the first
/// `reason` it reads.
#[derive(Debug)]
pub enum Report {
    EpochDone { worker: WorkerId, stats: WorkerEpochStats, snapshot: Option<Bytes> },
    Collected { worker: WorkerId, snapshot: Bytes },
    Failed { worker: WorkerId, reason: String },
}
