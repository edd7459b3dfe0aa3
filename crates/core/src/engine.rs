//! The single-node engine.
//!
//! [`Simulation`] is BRACE's one-partition runtime. It owns the agent pool,
//! the spawn-id generator, the run's telemetry registry
//! ([`Simulation::metrics`]) and a [`Superstep`], the tick driver a cluster
//! worker runs too: each [`Simulation::step`] is one driver call on a
//! partition that owns every row, so nothing is exchanged, and that applies
//! the update's kills and spawns in place. A single node *is* the runtime
//! with one partition.
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
use crate::executor::PendingSpawn;
use crate::metrics::TickMetrics;
use crate::schema::AgentSchema;
use crate::superstep::{Partition, Superstep};
use brace_common::ids::AgentIdGen;
use brace_common::{BraceError, Result};
use brace_spatial::IndexKind;
use brace_telemetry::Metrics;
use std::convert::Infallible;
use std::sync::Arc;

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
    let reserved = |a: &Agent| BraceError::Config(format!("agent id {} is reserved: it ends the spawn-id space", a.id));
    // Ids in strictly increasing order (every registry population's) are
    // distinct, and only the last can be the reserved one: no set is built.
    if agents.windows(2).all(|w| w[0].id < w[1].id) {
        return match agents.last() {
            Some(a) if a.id.raw() == u64::MAX => Err(reserved(a)),
            last => Ok(last.map_or(0, |a| a.id.raw() + 1)),
        };
    }
    let mut ids = std::collections::HashSet::with_capacity(agents.len());
    let mut first_spawn_id = 0;
    for a in agents {
        if a.id.raw() == u64::MAX {
            return Err(reserved(a));
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
    /// deterministic shard plan serially and starts no thread, `0` uses
    /// every available core, `n` caps at `n` threads — `n − 1` parked
    /// helpers held for the simulation's life. Results are identical for
    /// every setting — only wall time changes.
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
            node: OneNode { pool, id_gen: AgentIdGen::from(first_spawn_id) },
            superstep: Superstep::new(self.index, self.seed, self.parallelism),
            metrics: Arc::default(),
        })
    }
}

/// A single-node behavioral simulation: the reference implementation of a
/// BRACE tick, and the baseline of the paper's Figures 3 and 4.
pub struct Simulation<B: Behavior> {
    behavior: B,
    node: OneNode,
    superstep: Superstep,
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
        let n = self.node.pool.len();
        let Ok(tm) = self.superstep.run(&self.behavior, &mut self.node, n);
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
        self.node.pool.to_agents()
    }

    /// The columnar working representation.
    pub fn pool(&self) -> &AgentPool {
        &self.node.pool
    }

    pub fn tick(&self) -> u64 {
        self.superstep.tick
    }

    /// This run's telemetry registry: what it recorded, and nothing else.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

/// A single node's partition: it owns every row, so the effect exchange is
/// the identity, and its pool stays in id order — survivors keep their rows,
/// spawns take fresh ids in emission order.
struct OneNode {
    pool: AgentPool,
    id_gen: AgentIdGen,
}

impl Partition for OneNode {
    type Error = Infallible;

    fn pool(&mut self) -> &mut AgentPool {
        &mut self.pool
    }

    fn apply_membership(&mut self, _: &[u32], spawned: &mut Vec<PendingSpawn>) -> std::result::Result<(), Infallible> {
        self.pool.retain_alive();
        for s in spawned.drain(..) {
            let id = self.id_gen.alloc().expect("agent id space exhausted");
            self.pool.push_spawn(id, s.pos, &s.state);
        }
        Ok(())
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
        // Sorted or not, the same answers: the sorted path builds no set.
        assert_eq!(check_population(b.schema(), &[at(0), at(3), at(7)]).unwrap(), 8);
        assert_eq!(check_population(b.schema(), &[at(7), at(0), at(3)]).unwrap(), 8);
        for ids in [[2, 5, u64::MAX], [u64::MAX, 2, 5]] {
            let err = check_population(b.schema(), &ids.map(at)).expect_err("u64::MAX must be rejected");
            assert!(err.to_string().contains("reserved"), "{err}");
        }
        let err = check_population(b.schema(), &[at(2), at(2), at(u64::MAX)]).expect_err("a duplicate first");
        assert!(err.to_string().contains("duplicate agent id"), "{err}");
    }
}
