//! Network accounting — the seam where a real transport would sit.
//!
//! Every cross-worker message in the runtime is [`record`]ed, message and
//! payload bytes per category, into the run's telemetry registry; a run's
//! [`NetStats`] are read back off it. Collocated traffic (a worker handing
//! agents to its own next tick) is never recorded and never touches the
//! codec, which is exactly the saving the paper's collocation design buys.

use brace_telemetry::{Counter as TelCounter, Metrics};
use serde::{Deserialize, Serialize};

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

impl Traffic {
    /// The category's telemetry counters: `(bytes, messages)`.
    fn counters(self) -> (TelCounter, TelCounter) {
        match self {
            Traffic::Transfer => (TelCounter::NetTransferBytes, TelCounter::NetTransferMessages),
            Traffic::ReplicaFull => (TelCounter::NetReplicaFullBytes, TelCounter::NetReplicaFullMessages),
            Traffic::ReplicaDelta => (TelCounter::NetReplicaDeltaBytes, TelCounter::NetReplicaDeltaMessages),
            Traffic::Effects => (TelCounter::NetEffectsBytes, TelCounter::NetEffectsMessages),
            Traffic::Spawns => (TelCounter::NetSpawnsBytes, TelCounter::NetSpawnsMessages),
            Traffic::Control => (TelCounter::NetControlBytes, TelCounter::NetControlMessages),
        }
    }
}

/// Record one message of `bytes` payload in category `kind`.
pub fn record(kind: Traffic, bytes: usize) {
    let (bytes_counter, messages) = kind.counters();
    brace_telemetry::add(bytes_counter, bytes as u64);
    brace_telemetry::incr(messages);
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
    /// The totals a run's registry holds.
    pub fn of(metrics: &Metrics) -> NetStats {
        let read = |kind: Traffic| {
            let (bytes, messages) = kind.counters();
            Counter { messages: metrics.counter(messages), bytes: metrics.counter(bytes) }
        };
        NetStats {
            transfer: read(Traffic::Transfer),
            replica_full: read(Traffic::ReplicaFull),
            replica_delta: read(Traffic::ReplicaDelta),
            effects: read(Traffic::Effects),
            spawns: read(Traffic::Spawns),
            control: read(Traffic::Control),
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_accumulate_per_category_in_the_scope() {
        let run = Arc::new(Metrics::new());
        let _scope = brace_telemetry::enter(&run);
        record(Traffic::Transfer, 100);
        record(Traffic::Transfer, 50);
        record(Traffic::Effects, 10);
        record(Traffic::ReplicaFull, 7);
        record(Traffic::ReplicaDelta, 2);
        let s = NetStats::of(&run);
        assert_eq!(s.transfer, Counter { messages: 2, bytes: 150 });
        assert_eq!(s.effects, Counter { messages: 1, bytes: 10 });
        assert_eq!(s.replica_bytes(), 9);
        assert_eq!(s.total_bytes(), 169);
        assert_eq!(s.total_messages(), 5);
    }

    #[test]
    fn records_from_many_threads_sum() {
        let run = Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _scope = brace_telemetry::enter(&run);
                    for _ in 0..1000 {
                        record(Traffic::ReplicaFull, 8);
                    }
                });
            }
        });
        assert_eq!(NetStats::of(&run).replica_full, Counter { messages: 4000, bytes: 32000 });
    }
}
