//! One superstep: the tick driver both engines run.
//!
//! A tick is the same dataflow on one partition or many (Table 1 of the
//! paper; the superstep "BSP vs MapReduce" prices as w + g·h + l): reduce₁,
//! the query phase over the owned rows; reduce₂, the exchange of the writes
//! made to rows owned elsewhere and the replay of every remote write; map,
//! the update phase and its kills and spawns. [`Superstep`] owns the phase
//! calls, what a tick carries to the next (the [`TickScratch`], the update's
//! buffers, the tick counter, the run's seed and index kind, and its thread
//! budget as a [`ShardPool`] of parked helpers),
//! the [`TickMetrics`] it returns and the tick's telemetry. A [`Partition`]
//! is what differs: a single node's exchange is the identity and it compacts
//! its id-ordered pool; a cluster worker ships writes to their owners and
//! ranks spawns with its peers, after its own distribute step.

use crate::agent::AgentPool;
use crate::behavior::Behavior;
use crate::effect::EffectWrite;
use crate::executor::{
    query_phase_sharded, replay_effects, update_phase_sharded, PendingSpawn, TickScratch, SHARD_ROWS,
};
use crate::fanout::ShardPool;
use crate::metrics::TickMetrics;
use brace_spatial::IndexKind;
use brace_telemetry::{incr, observe, Counter, HistId};
use std::time::Instant;

/// The partition a [`Superstep`] runs on: its pool and the tick's two seams.
pub trait Partition {
    /// Why a seam could not finish (a worker's closed link or bad payload).
    type Error;

    /// The pool: the owned rows first, then any replicas.
    fn pool(&mut self) -> &mut AgentPool;

    /// Hand `outbound` — the writes the owned agents made to replica rows,
    /// `(row, write)` in ascending source id — to the rows' owners, and push
    /// the writes others made to owned rows onto `inbound` as `(owned row,
    /// write)`. Called only for a schema with non-local effects. The default
    /// is a partition that owns every row: nothing leaves, nothing comes in.
    fn exchange_effects(
        &mut self,
        _outbound: &[(u32, EffectWrite)],
        _inbound: &mut Vec<(u32, EffectWrite)>,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Apply the update phase's report: remove the `killed` owned rows
    /// (ascending) and admit every `spawned` agent (drained), each with the id
    /// its place in the world's spawn order gives it.
    fn apply_membership(&mut self, killed: &[u32], spawned: &mut Vec<PendingSpawn>) -> Result<(), Self::Error>;
}

/// The tick driver: what a tick carries to the next, and the one sequence
/// of phase calls and recordings.
#[derive(Default)]
pub struct Superstep {
    index: IndexKind,
    seed: u64,
    /// The run's thread budget: both phases fan out through it.
    pool: ShardPool,
    /// The next tick to run (a restored partition sets it).
    pub tick: u64,
    scratch: TickScratch,
    /// The update phase's report and the writes others made to owned rows,
    /// reused across ticks.
    killed: Vec<u32>,
    spawned: Vec<PendingSpawn>,
    inbound: Vec<(u32, EffectWrite)>,
}

impl Superstep {
    /// A driver at tick 0. `index`, `seed` and the `parallelism` thread
    /// budget are the run's; none of them changes a result but `seed`. The
    /// budget (`0` = every core) is started here as `budget − 1` parked
    /// helper threads, joined when the driver drops.
    pub fn new(index: IndexKind, seed: u64, parallelism: usize) -> Self {
        Superstep { index, seed, pool: ShardPool::new(parallelism), ..Superstep::default() }
    }

    /// Run one tick over the first `n_owned` rows of `part`'s pool, and
    /// record one `brace_executor_ticks_total` and one observation in each
    /// `brace_phase_*` histogram into the thread's run scope. Each seam is
    /// timed in its phase: the exchange with the replay in `merge_ns` (so in
    /// `query_ns`), the membership apply in `update_ns`. A seam's error ends
    /// the tick unrecorded, and the partition unfit to continue from.
    pub fn run<B: Behavior, P: Partition>(
        &mut self,
        behavior: &B,
        part: &mut P,
        n_owned: usize,
    ) -> Result<TickMetrics, P::Error> {
        let (tick, seed, fanout) = (self.tick, self.seed, &mut self.pool);
        let scratch = &mut self.scratch;
        let mut tm =
            query_phase_sharded(behavior, part.pool(), n_owned, self.index, tick, seed, scratch, SHARD_ROWS, fanout);
        let t0 = Instant::now();
        self.inbound.clear();
        if behavior.schema().has_nonlocal_effects() {
            part.exchange_effects(scratch.outbound(), &mut self.inbound)?;
        }
        replay_effects(part.pool(), scratch, &mut self.inbound);
        let reduce2_ns = t0.elapsed().as_nanos() as u64;
        tm.merge_ns += reduce2_ns;
        tm.query_ns += reduce2_ns;
        let t1 = Instant::now();
        let (killed, spawned) = (&mut self.killed, &mut self.spawned);
        update_phase_sharded(behavior, part.pool(), n_owned, tick, seed, scratch, fanout, killed, spawned);
        (tm.spawned, tm.killed) = (spawned.len(), killed.len());
        part.apply_membership(killed, spawned)?;
        part.pool().reset_effects();
        (tm.tick, tm.n_agents, tm.update_ns) = (tick, n_owned, t1.elapsed().as_nanos() as u64);
        // Telemetry records the measurements above and reads no clock of its own.
        observe(HistId::PhaseIndexMaintain, tm.index_build_ns);
        observe(HistId::PhaseQuery, tm.query_ns);
        observe(HistId::PhaseEffectMerge, tm.merge_ns);
        observe(HistId::PhaseUpdate, tm.update_ns);
        incr(Counter::ExecutorTicks);
        self.tick += 1;
        Ok(tm)
    }
}
