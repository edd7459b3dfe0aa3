//! Network accounting — the seam where a real transport would sit.
//!
//! Every cross-worker message in the runtime passes through a
//! [`NetLedger`], which counts messages and payload bytes per category.
//! Collocated traffic (a worker handing agents to its own next tick) never
//! touches the ledger or the codec, which is exactly the saving the
//! paper's collocation design buys.

use brace_telemetry::Counter as TelCounter;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What a message carries, for per-category accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Traffic {
    /// Ownership transfers: agents that moved to another partition.
    Transfer,
    /// Full replica records: boundary agents *entering* a neighbor's
    /// visible band. Steady-state boundary populations never pay this.
    ReplicaFull,
    /// Columnar replica delta frames: membership removals plus masked
    /// field updates for replicas that *persist* in a neighbor's band. A
    /// stationary boundary population costs zero bytes here too — empty
    /// frames are never charged.
    ReplicaDelta,
    /// Non-local effect writes shipped to their targets' owners (second
    /// reduce pass).
    Effects,
    /// Per-parent spawn-count runs exchanged so every worker sequences the
    /// tick's spawns globally by `(parent id, ordinal)`. Non-spawning ticks
    /// never pay this — empty runs are not charged.
    Spawns,
    /// Master ↔ worker coordination (epoch commands, stats, checkpoints).
    Control,
}

/// Aggregate counters for one traffic category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    pub messages: u64,
    pub bytes: u64,
}

/// Totals across categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    pub transfer: Counter,
    pub replica_full: Counter,
    pub replica_delta: Counter,
    pub effects: Counter,
    pub spawns: Counter,
    pub control: Counter,
}

impl NetStats {
    pub fn total_bytes(&self) -> u64 {
        self.transfer.bytes + self.replica_bytes() + self.effects.bytes + self.spawns.bytes + self.control.bytes
    }

    pub fn total_messages(&self) -> u64 {
        self.transfer.messages
            + self.replica_full.messages
            + self.replica_delta.messages
            + self.effects.messages
            + self.spawns.messages
            + self.control.messages
    }

    /// Replica traffic across both encodings (the pre-delta `replica`
    /// category).
    pub fn replica_bytes(&self) -> u64 {
        self.replica_full.bytes + self.replica_delta.bytes
    }
}

/// Shared, thread-safe ledger. Cloning shares the underlying counters; every
/// record is mirrored into the `brace_telemetry` registry's per-class byte
/// counters.
#[derive(Debug, Clone, Default)]
pub struct NetLedger {
    inner: Arc<Mutex<NetStats>>,
}

impl NetLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `bytes` payload in category `kind`.
    pub fn record(&self, kind: Traffic, bytes: usize) {
        let mut s = self.inner.lock();
        let c = match kind {
            Traffic::Transfer => &mut s.transfer,
            Traffic::ReplicaFull => &mut s.replica_full,
            Traffic::ReplicaDelta => &mut s.replica_delta,
            Traffic::Effects => &mut s.effects,
            Traffic::Spawns => &mut s.spawns,
            Traffic::Control => &mut s.control,
        };
        c.messages += 1;
        c.bytes += bytes as u64;
        drop(s);
        let counter = match kind {
            Traffic::Transfer => TelCounter::NetTransferBytes,
            Traffic::ReplicaFull => TelCounter::NetReplicaFullBytes,
            Traffic::ReplicaDelta => TelCounter::NetReplicaDeltaBytes,
            Traffic::Effects => TelCounter::NetEffectsBytes,
            Traffic::Spawns => TelCounter::NetSpawnsBytes,
            Traffic::Control => TelCounter::NetControlBytes,
        };
        brace_telemetry::add(counter, bytes as u64);
    }

    /// Snapshot the totals.
    pub fn stats(&self) -> NetStats {
        *self.inner.lock()
    }

    /// Zero all counters (e.g. after warm-up).
    pub fn reset(&self) {
        *self.inner.lock() = NetStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_category() {
        let l = NetLedger::new();
        l.record(Traffic::Transfer, 100);
        l.record(Traffic::Transfer, 50);
        l.record(Traffic::Effects, 10);
        let s = l.stats();
        assert_eq!(s.transfer, Counter { messages: 2, bytes: 150 });
        assert_eq!(s.effects, Counter { messages: 1, bytes: 10 });
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn clones_share_counters() {
        let l = NetLedger::new();
        let l2 = l.clone();
        l2.record(Traffic::ReplicaFull, 7);
        l2.record(Traffic::ReplicaDelta, 2);
        assert_eq!(l.stats().replica_full.bytes, 7);
        assert_eq!(l.stats().replica_delta.bytes, 2);
        assert_eq!(l.stats().replica_bytes(), 9);
    }

    #[test]
    fn reset_zeroes() {
        let l = NetLedger::new();
        l.record(Traffic::Control, 1);
        l.reset();
        assert_eq!(l.stats(), NetStats::default());
    }

    #[test]
    fn ledger_is_thread_safe() {
        let l = NetLedger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        l.record(Traffic::ReplicaFull, 8);
                    }
                });
            }
        });
        assert_eq!(l.stats().replica_full.messages, 4000);
        assert_eq!(l.stats().replica_full.bytes, 32000);
    }
}
