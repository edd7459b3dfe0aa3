//! # brace-telemetry — always-on observability for BRACE
//!
//! The paper's BSP tick loop (map₁/query → shuffle → map₂/update) is
//! exactly the structure worth *seeing*: per-phase wall time, candidate
//! volumes, per-traffic-class replica bytes and barrier stalls are the
//! quantities that decide every optimisation in the paper's evaluation.
//! This crate is the one place they are recorded:
//!
//! * [`Metrics`], a registry of monotonic [`Counter`]s and log₂-bucketed
//!   histograms in fixed arrays of `AtomicU64`: recording is a
//!   relaxed `fetch_add`, with no locks, allocation or labels. **Each run
//!   owns one**: its engine (`Simulation`, `ClusterSim`) creates it and
//!   [`enter`]s it as the *run scope* of every thread working for the run —
//!   the caller while the engine works, each cluster worker for its life.
//!   [`add`], [`incr`], [`observe`] and a dropped [`timer`] write into the
//!   thread's scope and the process [`TOTAL`], a few times per tick and
//!   never per row. So runs in one process never blend, and the total is
//!   their sum plus the serve plane's own families;
//! * a Prometheus **text-format v0.0.4** renderer
//!   ([`Metrics::render_prometheus`]): `brace-serve` exposes the total as
//!   `GET /metrics` and each served run's registry as `GET /runs/:id/metrics`.
//!
//! ## Determinism contract
//!
//! Telemetry observes, never perturbs: nothing recorded here feeds back
//! into simulation state, RNG streams, shard plans or iteration order. Every
//! leg of the engine matrix in `tests/common/mod.rs` records, so each golden
//! checksum it pins is the checksum of a recording run.
//!
//! ## The metric catalogue
//!
//! | family | kind | source |
//! |---|---|---|
//! | `brace_phase_index_maintain_ns` | histogram | superstep (single node and each cluster worker), per tick: the join's build side — the id-order and probe-order sorts |
//! | `brace_phase_query_ns` | histogram | superstep, per tick: query phase, its effect merge included |
//! | `brace_phase_effect_merge_ns` | histogram | superstep, per tick: shard-table ⊕-merge, the remote-write exchange (a worker's wait on peers included) and the replay |
//! | `brace_phase_update_ns` | histogram | superstep, per tick: update phase and its membership apply (a worker's spawn round and its wait on peers included) |
//! | `brace_epoch_barrier_wait_ns` | histogram | cluster master: each worker's wait behind the epoch's straggler |
//! | `brace_checkpoint_write_ns` | histogram | cluster master: checkpoint store |
//! | `brace_serve_run_latency_ns` | histogram | serve: accepted-run wall time |
//! | `brace_executor_ticks_total` | counter | superstep: ticks run, one per worker on a cluster (so `cluster:2` counts 2 per tick) |
//! | `brace_executor_neighbor_visits_total`, `brace_executor_nonlocal_writes_total` | counter | query phase (executor and cluster workers): candidates handed to queries, and writes to other agents |
//! | `brace_executor_spawned_total`, `brace_executor_killed_total` | counter | update phase (executor and cluster workers): agents spawned and killed |
//! | `brace_executor_probe_groups_total`, `brace_executor_block_candidates_total` | counter | query phase (executor and cluster workers): candidate blocks built (a probe group whose members all read no neighbour builds none) and the rows in them — reading agent-ticks ÷ groups is the readers one block serves |
//! | `brace_executor_effect_log_entries_total` | counter | query phase (executor and cluster workers): writes to remote effect fields, logged for replay in source-id order (0 for local-effect schemas; a local-only field's writes fold in place) |
//! | `brace_executor_tile_directory_ticks_total` | counter | query phase (executor and cluster workers): join ticks whose window rows were read off the probe order's tile directory (the occupied tile box was dense); the rest galloped |
//! | `brace_net_*_bytes_total`, `brace_net_*_messages_total` | counter | cluster workers: payload bytes and messages per traffic class (transfer, replica full, replica delta, effects, spawns, control) |
//! | `brace_cluster_epochs_total`, `brace_cluster_checkpoints_total` | counter | cluster master |
//! | `brace_serve_cache_{hits,misses}_total`, `brace_serve_runs_total` | counter | serve result cache / admissions |
//!
//! `GET /metrics` appends one gauge of the serve plane's own, sampled at
//! scrape: `brace_serve_queue_depth`, the jobs in its admission queue.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic counters. The discriminant is the registry slot; `NAMES`
/// (kept in lockstep) carries the Prometheus family name and help line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    ExecutorTicks = 0,
    ExecutorNeighborVisits,
    ExecutorNonlocalWrites,
    ExecutorSpawned,
    ExecutorKilled,
    ExecutorProbeGroups,
    ExecutorBlockCandidates,
    ExecutorEffectLogEntries,
    ExecutorTileDirectoryTicks,
    NetTransferBytes,
    NetReplicaFullBytes,
    NetReplicaDeltaBytes,
    NetEffectsBytes,
    NetSpawnsBytes,
    NetControlBytes,
    NetTransferMessages,
    NetReplicaFullMessages,
    NetReplicaDeltaMessages,
    NetEffectsMessages,
    NetSpawnsMessages,
    NetControlMessages,
    ClusterEpochs,
    ClusterCheckpoints,
    ServeRuns,
    ServeCacheHits,
    ServeCacheMisses,
}

const COUNTER_NAMES: &[(&str, &str)] = &[
    ("brace_executor_ticks_total", "Ticks run by supersteps (single node, or each cluster worker)"),
    ("brace_executor_neighbor_visits_total", "Neighbor candidates handed to queries"),
    ("brace_executor_nonlocal_writes_total", "Non-local effect writes performed in query phases"),
    ("brace_executor_spawned_total", "Agents spawned by update phases"),
    ("brace_executor_killed_total", "Agents killed by update phases"),
    ("brace_executor_probe_groups_total", "Candidate blocks built by query phases (probe groups with a reader)"),
    ("brace_executor_block_candidates_total", "Candidate rows in the blocks of all probe groups"),
    ("brace_executor_effect_log_entries_total", "Writes to remote effect fields logged for ordered replay"),
    ("brace_executor_tile_directory_ticks_total", "Join query phases whose windows were read off a tile directory"),
    ("brace_net_transfer_bytes_total", "Cluster bytes: agent ownership transfers"),
    ("brace_net_replica_full_bytes_total", "Cluster bytes: full replica distribution"),
    ("brace_net_replica_delta_bytes_total", "Cluster bytes: masked columnar replica deltas"),
    ("brace_net_effects_bytes_total", "Cluster bytes: shipped non-local effect writes"),
    ("brace_net_spawns_bytes_total", "Cluster bytes: spawn-run exchange"),
    ("brace_net_control_bytes_total", "Cluster bytes: master control traffic"),
    ("brace_net_transfer_messages_total", "Cluster messages: agent ownership transfers"),
    ("brace_net_replica_full_messages_total", "Cluster messages: full replica distribution"),
    ("brace_net_replica_delta_messages_total", "Cluster messages: masked columnar replica deltas"),
    ("brace_net_effects_messages_total", "Cluster messages: shipped non-local effect writes"),
    ("brace_net_spawns_messages_total", "Cluster messages: spawn-run exchange"),
    ("brace_net_control_messages_total", "Cluster messages: master control traffic"),
    ("brace_cluster_epochs_total", "Cluster epochs coordinated by masters"),
    ("brace_cluster_checkpoints_total", "Coordinated cluster checkpoints written"),
    ("brace_serve_runs_total", "Runs accepted by the serve control plane"),
    ("brace_serve_cache_hits_total", "Serve result-cache hits"),
    ("brace_serve_cache_misses_total", "Serve result-cache misses"),
];

/// Log₂-bucketed histograms. All record **nanoseconds**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    PhaseIndexMaintain = 0,
    PhaseQuery,
    PhaseEffectMerge,
    PhaseUpdate,
    EpochBarrierWait,
    CheckpointWrite,
    ServeRunLatency,
}

const HIST_NAMES: &[(&str, &str)] = &[
    ("brace_phase_index_maintain_ns", "Per-tick join build side time (id-order and probe-order sorts)"),
    ("brace_phase_query_ns", "Per-tick query phase time (probes, behavior queries, effect merge)"),
    ("brace_phase_effect_merge_ns", "Per-tick effect merge time (shard tables, remote-write exchange and replay)"),
    ("brace_phase_update_ns", "Per-tick update phase time (updates, kills and spawns applied)"),
    (
        "brace_epoch_barrier_wait_ns",
        "Per-epoch worker barrier wait (the slowest worker's epoch wall time minus its own)",
    ),
    ("brace_checkpoint_write_ns", "Coordinated checkpoint write time"),
    ("brace_serve_run_latency_ns", "Wall time of accepted (non-cached) serve runs"),
];

const N_COUNTERS: usize = COUNTER_NAMES.len();
const N_HISTS: usize = HIST_NAMES.len();

/// Finite histogram buckets: upper bounds `2^0 .. 2^(N_BUCKETS-2)` ns, then
/// `+Inf`. 40 finite buckets reach 2³⁹ ns ≈ 9 minutes — far beyond any
/// single phase this records.
const N_BUCKETS: usize = 41;

/// One log₂ histogram: per-bucket counts (not cumulative — the renderer
/// accumulates), plus sum and count for the Prometheus `_sum`/`_count`
/// series.
#[derive(Debug)]
struct Hist {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    const fn new() -> Hist {
        Hist { buckets: [const { AtomicU64::new(0) }; N_BUCKETS], sum: AtomicU64::new(0), count: AtomicU64::new(0) }
    }

    /// Index of the smallest bucket whose upper bound holds `v`:
    /// `le = 2^i` with minimal `i` such that `v ≤ 2^i`, capped at `+Inf`.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(N_BUCKETS - 1)
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// One set of every family: a run's own registry, or the process total.
/// Recording into it is a relaxed `fetch_add` per family touched.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; N_COUNTERS],
    hists: [Hist; N_HISTS],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Every family at zero.
    pub const fn new() -> Metrics {
        Metrics { counters: [const { AtomicU64::new(0) }; N_COUNTERS], hists: [const { Hist::new() }; N_HISTS] }
    }

    /// Current value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Every counter and every histogram's observation count, by family
    /// name (a histogram's with `_count` appended), in catalogue order. Two
    /// runs that did the same work give the same counts; timings differ.
    pub fn counts(&self) -> Vec<(String, u64)> {
        let counters = COUNTER_NAMES.iter().zip(&self.counters).map(|((name, _), c)| (name.to_string(), c));
        let hists = HIST_NAMES.iter().zip(&self.hists).map(|((name, _), h)| (format!("{name}_count"), &h.count));
        counters.chain(hists).map(|(name, v)| (name, v.load(Ordering::Relaxed))).collect()
    }

    /// Render every family as Prometheus text exposition format v0.0.4.
    /// Families render unconditionally (a zero counter is still a family),
    /// so scrapers see a stable catalogue from the first scrape. Histogram
    /// buckets are emitted cumulatively with `le` labels, closed by `+Inf`,
    /// `_sum` and `_count`, per the format spec.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(8192);
        for ((name, help), v) in COUNTER_NAMES.iter().zip(&self.counters) {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}", v.load(Ordering::Relaxed));
        }
        for ((name, help), h) in HIST_NAMES.iter().zip(&self.hists) {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} histogram");
            let mut cum = 0u64;
            for (b, bucket) in h.buckets.iter().enumerate() {
                cum += bucket.load(Ordering::Relaxed);
                if b == N_BUCKETS - 1 {
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                } else {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", 1u64 << b);
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum.load(Ordering::Relaxed));
            let _ = writeln!(out, "{name}_count {}", h.count.load(Ordering::Relaxed));
        }
        out
    }
}

/// The process total: every record of every run, and of the serve plane.
/// `GET /metrics` renders it.
pub static TOTAL: Metrics = Metrics::new();

thread_local! {
    /// The registry of the run this thread works for, if any.
    static SCOPE: RefCell<Option<Arc<Metrics>>> = const { RefCell::new(None) };
}

/// Make `metrics` this thread's run scope until the guard drops, when the
/// scope it replaced comes back. An engine holds one around its own work on
/// the calling thread; a cluster worker holds one for its thread's life.
pub fn enter(metrics: &Arc<Metrics>) -> Scope {
    Scope(SCOPE.with(|scope| scope.replace(Some(Arc::clone(metrics)))))
}

/// The guard [`enter`] returns.
pub struct Scope(Option<Arc<Metrics>>);

impl Drop for Scope {
    fn drop(&mut self) {
        SCOPE.with(|scope| *scope.borrow_mut() = self.0.take());
    }
}

/// Run `record` on the process total and on the thread's run scope.
#[inline]
fn record(record: impl Fn(&Metrics)) {
    record(&TOTAL);
    SCOPE.with(|scope| scope.borrow().as_deref().map(record));
}

/// Add `v` to a counter.
#[inline]
pub fn add(c: Counter, v: u64) {
    record(|m| _ = m.counters[c as usize].fetch_add(v, Ordering::Relaxed));
}

/// Increment a counter by one.
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Record one observation (nanoseconds) into a histogram.
#[inline]
pub fn observe(h: HistId, v: u64) {
    record(|m| m.hists[h as usize].observe(v));
}

/// Start a scoped phase timer that records into `h` on drop.
#[inline]
pub fn timer(h: HistId) -> PhaseTimer {
    PhaseTimer { hist: h, start: Instant::now() }
}

/// Scoped timer for one phase: created by [`timer`], records elapsed
/// nanoseconds into its histogram when dropped.
pub struct PhaseTimer {
    hist: HistId,
    start: Instant,
}

impl PhaseTimer {
    /// Stop and record now (drop does the same; this names the intent).
    pub fn stop(self) {}
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        observe(self.hist, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // le bounds are 1, 2, 4, …: a value lands in the smallest bucket
        // whose bound holds it, exactly at the boundary included.
        assert_eq!(Hist::bucket_index(0), 0);
        assert_eq!(Hist::bucket_index(1), 0);
        assert_eq!(Hist::bucket_index(2), 1);
        assert_eq!(Hist::bucket_index(3), 2);
        assert_eq!(Hist::bucket_index(4), 2);
        assert_eq!(Hist::bucket_index(5), 3);
        assert_eq!(Hist::bucket_index(8), 3);
        assert_eq!(Hist::bucket_index(9), 4);
        for i in 0..N_BUCKETS - 1 {
            let bound = 1u64 << i;
            assert_eq!(Hist::bucket_index(bound), i, "2^{i} must land in its own bucket");
            if bound > 1 {
                assert_eq!(Hist::bucket_index(bound + 1), i + 1, "2^{i}+1 must spill to the next");
            }
        }
        // Beyond the largest finite bound: the +Inf bucket.
        assert_eq!(Hist::bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(Hist::bucket_index(1u64 << (N_BUCKETS - 1)), N_BUCKETS - 1);
    }

    #[test]
    fn records_count_and_render() {
        let run = Arc::new(Metrics::new());
        let _scope = enter(&run);
        add(Counter::NetEffectsBytes, 640);
        incr(Counter::ServeCacheHits);
        observe(HistId::PhaseQuery, 5); // bucket le=8
        observe(HistId::PhaseQuery, 8); // same bucket
        observe(HistId::PhaseQuery, 9); // le=16
        assert_eq!(run.counter(Counter::NetEffectsBytes), 640);
        let text = run.render_prometheus();
        assert!(text.contains("brace_net_effects_bytes_total 640"), "{text}");
        assert!(text.contains("brace_serve_cache_hits_total 1"), "{text}");
        // Cumulative buckets: ≤4 none, ≤8 two, ≤16 all three.
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"4\"} 0"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"8\"} 2"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"16\"} 3"), "{text}");
        assert!(text.contains("brace_phase_query_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("brace_phase_query_ns_sum 22"), "{text}");
        assert!(text.contains("brace_phase_query_ns_count 3"), "{text}");
    }

    /// A scope holds on its own thread and only there; nested scopes
    /// restore the outer one; every record reaches the total as well.
    #[test]
    fn scopes_are_per_thread_and_nest() {
        let (outer, inner) = (Arc::new(Metrics::new()), Arc::new(Metrics::new()));
        let before = TOTAL.counter(Counter::ClusterEpochs);
        {
            let _outer = enter(&outer);
            incr(Counter::ClusterEpochs);
            {
                let _inner = enter(&inner);
                incr(Counter::ClusterEpochs);
                timer(HistId::CheckpointWrite).stop();
            }
            incr(Counter::ClusterEpochs);
            std::thread::scope(|s| s.spawn(|| incr(Counter::ClusterEpochs)).join().unwrap());
        }
        incr(Counter::ClusterEpochs);
        assert_eq!(outer.counter(Counter::ClusterEpochs), 2);
        assert_eq!(inner.counter(Counter::ClusterEpochs), 1);
        let timed = |m: &Metrics| m.render_prometheus().contains("brace_checkpoint_write_ns_count 1\n");
        assert!(!timed(&outer) && timed(&inner), "the timer recorded outside its scope");
        assert!(TOTAL.counter(Counter::ClusterEpochs) >= before + 5);
    }

    #[test]
    fn every_family_renders_with_help_and_type_and_counts() {
        let text = Metrics::new().render_prometheus();
        for (name, _) in COUNTER_NAMES.iter().chain(HIST_NAMES) {
            assert!(text.contains(&format!("# HELP {name} ")), "missing HELP for {name}");
            assert!(text.contains(&format!("# TYPE {name} ")), "missing TYPE for {name}");
        }
        assert_eq!(Metrics::new().counts().len(), N_COUNTERS + N_HISTS);
    }
}
