//! The single-node engine.
//!
//! [`Simulation`] is BRACE's one-partition runtime. It owns the agent pool,
//! the tick's [`TickScratch`], the spawn-id generator and the run's
//! telemetry registry ([`Simulation::metrics`]), and each
//! [`Simulation::step`] runs the executor's phases back to back —
//! [`query_phase_sharded`], [`replay_effects`], then
//! [`update_phase_sharded`] — applies the update's membership changes,
//! records the tick and returns its [`TickMetrics`]. The MapReduce worker
//! calls the very same functions with communication in between, so a single
//! node *is* the runtime with one partition.
//!
//! It is one of the two engines behind the backend-erased driver in
//! `brace_scenario` — `Runner`/`SimHandle` drive either this or
//! `brace_mapreduce::ClusterSim` behind one facade, which is the surface most
//! callers should use; reach for `Simulation` directly when embedding a
//! single-node engine with a concrete behavior type (it stays monomorphized
//! over `B`, so model code inlines into the probe loop). Both engines admit
//! a population through the same [`check_population`].

use crate::agent::{Agent, AgentPool};
use crate::behavior::Behavior;
use crate::executor::{
    query_phase_sharded, replay_effects, update_phase_sharded, PendingSpawn, TickScratch, SHARD_ROWS,
};
use crate::metrics::TickMetrics;
use crate::schema::AgentSchema;
use brace_common::ids::AgentIdGen;
use brace_common::{BraceError, Result};
use brace_spatial::IndexKind;
use brace_telemetry::{incr, observe, Counter, HistId, Metrics};
use std::sync::Arc;
use std::time::Instant;

/// Admit an initial population — the one check both engines run
/// ([`SimulationBuilder::build`] and `brace_mapreduce::ClusterSim::new`), so
/// a population is accepted or refused identically on every backend. Every
/// agent's state and effect slots must match `schema`, ids must be distinct,
/// and no id may be `u64::MAX`: it is the spawn-id space's exclusive end.
/// Returns the first spawn id, one past the largest initial id (0 for an
/// empty population).
pub fn check_population(schema: &AgentSchema, agents: &[Agent]) -> Result<u64> {
    for a in agents {
        if a.state.len() != schema.num_states() {
            return Err(BraceError::Schema(format!(
                "agent {} has {} state slots, schema `{}` expects {}",
                a.id,
                a.state.len(),
                schema.name(),
                schema.num_states()
            )));
        }
        if a.effects.len() != schema.num_effects() {
            return Err(BraceError::Schema(format!(
                "agent {} has {} effect slots, schema `{}` expects {}",
                a.id,
                a.effects.len(),
                schema.name(),
                schema.num_effects()
            )));
        }
    }
    let mut ids = std::collections::HashSet::with_capacity(agents.len());
    let mut first_spawn_id = 0;
    for a in agents {
        if a.id.raw() == u64::MAX {
            return Err(BraceError::Config(format!("agent id {} is reserved: it ends the spawn-id space", a.id)));
        }
        if !ids.insert(a.id) {
            return Err(BraceError::Config(format!("duplicate agent id {}", a.id)));
        }
        first_spawn_id = first_spawn_id.max(a.id.raw() + 1);
    }
    Ok(first_spawn_id)
}

/// Builder for a single-node [`Simulation`].
pub struct SimulationBuilder<B: Behavior> {
    behavior: B,
    agents: Vec<Agent>,
    index: IndexKind,
    seed: u64,
    parallelism: usize,
}

impl<B: Behavior> SimulationBuilder<B> {
    /// Initial population. Each agent must match the behavior's schema.
    pub fn agents(mut self, agents: Vec<Agent>) -> Self {
        self.agents = agents;
        self
    }

    /// How the query phase answers range probes (default: the tile join).
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.index = kind;
        self
    }

    /// Master seed; every run with the same seed is bit-identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Thread budget for the query/update phases: `1` (default) runs the
    /// deterministic shard plan serially, `0` uses every available core,
    /// `n` caps at `n` threads. Results are identical for every setting —
    /// only wall time changes.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Validate ([`check_population`]) and build.
    pub fn build(self) -> Result<Simulation<B>> {
        let schema = self.behavior.schema();
        let first_spawn_id = check_population(schema, &self.agents)?;
        let pool = AgentPool::from_agents(schema, &self.agents);
        Ok(Simulation {
            behavior: self.behavior,
            pool,
            index: self.index,
            scratch: TickScratch::new(),
            id_gen: AgentIdGen::from(first_spawn_id),
            killed: Vec::new(),
            spawned: Vec::new(),
            parallelism: self.parallelism,
            seed: self.seed,
            tick: 0,
            metrics: Arc::default(),
        })
    }
}

/// A single-node behavioral simulation: the reference implementation of a
/// BRACE tick, and the baseline of the paper's Figures 3 and 4.
pub struct Simulation<B: Behavior> {
    behavior: B,
    pool: AgentPool,
    index: IndexKind,
    scratch: TickScratch,
    id_gen: AgentIdGen,
    /// The update phase's report, reused across ticks: the rows it killed and
    /// the spawns it requested, in chunk order.
    killed: Vec<u32>,
    spawned: Vec<PendingSpawn>,
    parallelism: usize,
    seed: u64,
    tick: u64,
    /// This run's telemetry registry: the scope of every step.
    metrics: Arc<Metrics>,
}

impl<B: Behavior> Simulation<B> {
    /// Start building a simulation around `behavior`.
    pub fn builder(behavior: B) -> SimulationBuilder<B> {
        SimulationBuilder { behavior, agents: Vec::new(), index: IndexKind::Join, seed: 0, parallelism: 1 }
    }

    /// Execute one tick (query → finalize effects → update).
    pub fn step(&mut self) -> TickMetrics {
        let _scope = brace_telemetry::enter(&self.metrics);
        let n = self.pool.len();
        let mut tm = query_phase_sharded(
            &self.behavior,
            &mut self.pool,
            n,
            self.index,
            self.tick,
            self.seed,
            &mut self.scratch,
            SHARD_ROWS,
            self.parallelism,
        );
        // One partition owns every target: nothing is shipped in.
        let replay_ns = replay_effects(&mut self.pool, &self.scratch, &mut []);
        tm.merge_ns += replay_ns;
        tm.query_ns += replay_ns;
        // The update phase only reports membership changes; a single node
        // applies them in place — survivors keep their (id-ordered) rows and
        // spawns take fresh ids in the order they were emitted. The apply is
        // part of the phase's time.
        let t0 = Instant::now();
        update_phase_sharded(
            &self.behavior,
            &mut self.pool,
            n,
            self.tick,
            self.seed,
            &mut self.scratch,
            self.parallelism,
            &mut self.killed,
            &mut self.spawned,
        );
        self.pool.retain_alive();
        (tm.spawned, tm.killed) = (self.spawned.len(), self.killed.len());
        for s in self.spawned.drain(..) {
            let id = self.id_gen.alloc().expect("agent id space exhausted");
            self.pool.push_spawn(id, s.pos, &s.state);
        }
        self.pool.reset_effects();
        (tm.tick, tm.n_agents, tm.update_ns) = (self.tick, n, t0.elapsed().as_nanos() as u64);
        // Phase timings re-use the stats the phases already measured:
        // telemetry adds no clock reads to the tick, only these records.
        observe(HistId::PhaseIndexMaintain, tm.index_build_ns);
        observe(HistId::PhaseQuery, tm.query_ns);
        observe(HistId::PhaseEffectMerge, tm.merge_ns);
        observe(HistId::PhaseUpdate, tm.update_ns);
        incr(Counter::ExecutorTicks);
        self.tick += 1;
        tm
    }

    /// Execute `n` ticks.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Materialize the world as row records (the serialization boundary;
    /// hot paths read [`Simulation::pool`]).
    pub fn agents(&self) -> Vec<Agent> {
        self.pool.to_agents()
    }

    /// The columnar working representation.
    pub fn pool(&self) -> &AgentPool {
        &self.pool
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// This run's telemetry registry: what it recorded, and nothing else.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Neighbors, UpdateCtx};
    use crate::effect::EffectWriter;
    use brace_common::{AgentId, DetRng, Vec2};

    struct Noop(AgentSchema);

    impl Behavior for Noop {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: crate::agent::AgentRef<'_>,
            _n: &Neighbors<'_>,
            _e: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
        }
        fn update(&self, _m: &mut Agent, _c: &mut UpdateCtx<'_>) {}
    }

    fn noop() -> Noop {
        Noop(AgentSchema::builder("Noop").state("s").visibility(1.0).build().unwrap())
    }

    #[test]
    fn builder_validates_state_shape() {
        let b = noop();
        let bad = Agent { id: AgentId::new(0), pos: Vec2::ZERO, state: vec![], effects: vec![], alive: true };
        let err = Simulation::builder(b).agents(vec![bad]).build().err().expect("shape must be rejected");
        assert!(err.to_string().contains("state slots"));
    }

    #[test]
    fn builder_rejects_duplicate_ids() {
        let b = noop();
        let a1 = Agent::new(AgentId::new(1), Vec2::ZERO, b.schema());
        let a2 = Agent::new(AgentId::new(1), Vec2::new(1.0, 0.0), b.schema());
        let err = Simulation::builder(b).agents(vec![a1, a2]).build().err().expect("duplicate ids must be rejected");
        assert!(err.to_string().contains("duplicate agent id"));
    }

    #[test]
    fn population_check_reserves_the_last_id_and_returns_the_first_spawn_id() {
        let b = noop();
        let at = |id: u64| Agent::new(AgentId::new(id), Vec2::ZERO, b.schema());
        assert_eq!(check_population(b.schema(), &[]).unwrap(), 0);
        assert_eq!(check_population(b.schema(), &[at(3), at(0)]).unwrap(), 4);
        assert_eq!(check_population(b.schema(), &[at(u64::MAX - 1)]).unwrap(), u64::MAX);
        let err = check_population(b.schema(), &[at(u64::MAX)]).expect_err("u64::MAX must be rejected");
        assert!(err.to_string().contains("reserved"), "{err}");
    }
}
