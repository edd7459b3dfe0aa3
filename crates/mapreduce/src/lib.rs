//! # brace-mapreduce — the BRACE main-memory MapReduce runtime
//!
//! The paper builds "a new main memory MapReduce runtime" rather than using
//! Hadoop, because behavioral simulations need millions of *short* iterations
//! with almost no I/O. This crate is that runtime, as a simulated
//! shared-nothing cluster: every worker "node" is an OS thread that owns its
//! agents exclusively and communicates with peers and the master **only**
//! through serialized byte messages over channels. Nothing else is shared —
//! the cut from channels to sockets/MPI is confined to the transport inside
//! [`worker`]/[`master`].
//!
//! # Pool-resident state, delta distribution
//!
//! "Main memory" is not just where the bytes live — it is a protocol
//! property. A disk-era runtime re-materializes and re-distributes its
//! whole working set every iteration; this runtime keeps each worker's
//! state **resident across ticks**. A worker's columnar
//! [`AgentPool`](brace_core::AgentPool) persists: owned rows mutate only
//! through stable-row ops (swap-removal + insertion, with a persistent
//! id ↔ row map) and replicas live in a persistent tail refreshed in place,
//! so the tick's probe order re-sorts a nearly sorted sequence. On the
//! wire, only *changes* travel: agents entering a peer's visible band ship
//! once as full records ([`net::Traffic::ReplicaFull`]), persisting
//! replicas ship masked
//! columnar delta frames — changed fields only, zero bytes when nothing
//! changed ([`net::Traffic::ReplicaDelta`]) — and leavers ship slot
//! removals. A stationary boundary population therefore costs *nothing*
//! per steady-state tick, and a moving one costs the bytes it actually
//! changes.
//!
//! **The `Vec<Agent>` boundary** now lives exactly at the real
//! serialization surfaces and nowhere else: coordinated checkpoint /
//! collect snapshots, restore-time pool rebuilds, the initial population
//! hand-off, and decoded full-record payloads (transfers, band entrants).
//! No tick materializes an owned population as row records —
//! `WorkerEpochStats::{pool_rebuilds, vec_roundtrips}` count the
//! violations and tests pin them to zero.
//!
//! Results are unchanged by any of this: each worker runs the same sharded
//! phase functions as `brace_core::Simulation` (the single node is this
//! runtime with one partition), and an N-worker cluster is bit-identical to
//! it (the query phase canonicalizes neighbor order by agent id, so row
//! placement is unobservable, and every non-local write is folded once, in
//! source-id order, by its target's owner), proven by the
//! `distributed_equivalence` proptests and the golden cluster checksums in
//! `tests/golden_tick.rs`.
//!
//! Layout:
//!
//! * [`codec`] — the wire format: agents (from records or straight from
//!   pool columns), replica delta frames, effect writes, spawn runs and
//!   worker snapshots encoded to [`bytes::Bytes`].
//! * [`net`] — the network ledger: every cross-worker payload is counted
//!   (messages, bytes) per traffic class — transfers, full replicas,
//!   replica deltas, effects, control — exactly where a real transport
//!   would sit.
//! * [`runtime`] — worker protocol types and the per-tick map–reduce–reduce
//!   schedule of Table 1.
//! * [`worker`] — the pool-resident worker node: distribute as a column
//!   scan (map), query/local effects (reduce 1), effect aggregation
//!   (reduce 2), update over the owned prefix — every task for a partition
//!   collocated on its node (same-partition hand-offs never touch the
//!   codec or the ledger), and per-destination replica sessions driving
//!   the delta protocol, the one replica transport.
//! * [`master`] — epoch-granularity coordination: statistics, load
//!   balancing decisions, coordinated checkpoints, and one failure path —
//!   restore every worker from a checkpoint and replay the logged epochs,
//!   for a scheduled [`FaultPlan`] fault and for `--resume` alike. A real
//!   epoch failure ends the run with an error.
//! * [`balance`] — the one-dimensional load balancer.
//! * [`checkpoint`] — coordinated checkpoint store (checksummed, fsynced
//!   on-disk mirrors with retention pruning).
//! * [`manifest`] — crash-safe run manifests: the append-only write-ahead
//!   job log that makes `--resume` across a process restart possible.
//! * [`cluster`] — [`ClusterSim`], the user-facing
//!   facade mirroring `brace_core::Simulation` over many workers; it admits
//!   a population through the same `brace_core::check_population`.

pub mod balance;
pub mod checkpoint;
pub mod cluster;
pub mod codec;
pub mod manifest;
pub mod master;
pub mod net;
pub mod runtime;
pub mod worker;

pub use balance::{BalanceDecision, LoadBalancer};
pub use checkpoint::{CheckpointStore, ClusterCheckpoint};
pub use cluster::{ClusterConfig, ClusterSim, FaultPlan};
pub use manifest::{Manifest, ManifestRecord, ManifestWriter, RunHeader};
pub use master::ClusterStats;
pub use net::{NetLedger, NetStats};
