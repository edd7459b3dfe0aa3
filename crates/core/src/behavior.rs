//! The [`Behavior`] trait: what a simulation model is.
//!
//! A model supplies exactly the two phases of the state-effect pattern:
//!
//! * [`Behavior::query`] — runs once per owned agent per tick. It may read
//!   `me`'s state (an [`AgentRef`] row view over the
//!   [`AgentPool`](crate::agent::AgentPool)'s columns), iterate the agents
//!   in `me`'s visible region through [`Neighbors`], and assign effects
//!   through [`EffectWriter`]. It *cannot* mutate any state — enforced by
//!   the types: row views only hand out reads.
//! * [`Behavior::update`] — runs once per owned agent at the tick boundary.
//!   It receives a gathered row record (`&mut Agent`) whose effects hold
//!   the tick's aggregates; it may read state + effects and write next
//!   state (including the position, which the executor crops to the
//!   reachable region). It sees no other agent — also enforced by types.
//!
//! The same trait object drives the single-node engine and every reducer
//! of the distributed runtime, which is precisely the paper's claim that
//! programming the agent once suffices ("hides all the complexities of
//! modeling computations in MapReduce").

use crate::agent::{Agent, AgentRef, PoolView};
use crate::effect::EffectWriter;
use crate::schema::AgentSchema;
use brace_common::{DetRng, Rect, Vec2};
use std::sync::Arc;

/// A reference to a visible neighbor: the row view (previous-tick state)
/// plus its row index in the visible set, which is how non-local effect
/// assignments address it.
#[derive(Clone, Copy)]
pub struct NeighborRef<'a> {
    /// Row in the tick's visible set / effect table.
    pub row: u32,
    /// The neighbor's frozen (previous-tick) columns.
    pub agent: AgentRef<'a>,
}

/// The visible neighborhood of one querying agent: the result of the
/// spatial-join probe, excluding the agent itself.
pub struct Neighbors<'a> {
    view: PoolView<'a>,
    candidates: &'a [u32],
    me: u32,
}

impl<'a> Neighbors<'a> {
    /// `view` is the partition's visible agent columns; `candidates` are
    /// row indices produced by the range probe (they may include `me`,
    /// which iteration skips).
    pub fn new(view: PoolView<'a>, candidates: &'a [u32], me: u32) -> Self {
        Neighbors { view, candidates, me }
    }

    /// Iterate the visible neighbors (self excluded).
    pub fn iter(&self) -> impl Iterator<Item = NeighborRef<'a>> + '_ {
        let me = self.me;
        let view = self.view;
        self.candidates
            .iter()
            .copied()
            .filter(move |&i| i != me)
            .map(move |i| NeighborRef { row: i, agent: view.agent(i) })
    }

    /// The columns every [`NeighborRef::row`] indexes: a neighbor met during
    /// iteration reads again as `view().agent(row)`.
    pub fn view(&self) -> PoolView<'a> {
        self.view
    }

    /// Upper bound on the neighbor count (candidates may include self).
    pub fn len_hint(&self) -> usize {
        self.candidates.len()
    }
}

/// Context for the update phase: the tick number, a deterministic per-agent
/// RNG stream, and the spawn queue (agents created this tick enter the
/// simulation at the next tick, with ids assigned by the executor).
pub struct UpdateCtx<'a> {
    /// Tick being completed.
    pub tick: u64,
    /// Per-agent, per-tick RNG stream: identical regardless of worker
    /// placement or iteration order.
    pub rng: DetRng,
    spawns: &'a mut Vec<(Vec2, Vec<f64>)>,
}

impl<'a> UpdateCtx<'a> {
    pub fn new(tick: u64, rng: DetRng, spawns: &'a mut Vec<(Vec2, Vec<f64>)>) -> Self {
        UpdateCtx { tick, rng, spawns }
    }

    /// Queue a new agent at `pos` with the given initial state vector. The
    /// executor materializes it with a fresh id after the update phase.
    pub fn spawn(&mut self, pos: Vec2, state: Vec<f64>) {
        self.spawns.push((pos, state));
    }

    /// Number of spawns queued so far (by all agents this tick).
    pub fn queued_spawns(&self) -> usize {
        self.spawns.len()
    }
}

/// A simulation model: the query and update phases over a fixed schema.
pub trait Behavior: Send + Sync {
    /// The agent schema this behavior operates on. The executor shapes
    /// agents, effect tables and replication from it; it must not change
    /// between calls.
    fn schema(&self) -> &AgentSchema;

    /// The range probe centered on `pos` with visibility bound `vis`: the
    /// rect whose visible rows the query sees — the compiled form of a BRASIL
    /// `foreach` under `#range`. The default is the full visibility square; a
    /// behavior that can *prove* its query ignores part of that square
    /// (BRASIL's visibility-predicate pushdown) may return a tighter rect so
    /// the probe does the filtering. Contract:
    /// the returned rect must contain every candidate whose inclusion can
    /// change any observable result — shrinking it is an optimization,
    /// never a semantic change, and replica shipping still covers the full
    /// visibility region on every backend.
    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        Rect::centered(pos, vis)
    }

    /// Query phase for one agent. `me` is the querying agent's row view
    /// (`me.row` addresses it in the effect table); `rng` is a
    /// deterministic stream derived from `(seed, agent id, tick)`.
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng);

    /// Update phase for one agent: consume `me.effects`, write `me.state` /
    /// `me.pos` (cropped to reachability by the executor), optionally kill
    /// (`me.alive = false`) or spawn (`ctx.spawn`).
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>);
}

/// Forwarding impls, so `Arc<B>` and `Box<B>` are behaviors too — the
/// runtime shares one behavior across worker threads via `Arc`.
macro_rules! forward_behavior {
    ($($ptr:ident),+) => {$(
        impl<B: Behavior + ?Sized> Behavior for $ptr<B> {
            fn schema(&self) -> &AgentSchema {
                (**self).schema()
            }
            fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
                (**self).probe_rect(pos, vis)
            }
            fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
                (**self).query(me, neighbors, eff, rng)
            }
            fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
                (**self).update(me, ctx)
            }
        }
    )+};
}

forward_behavior!(Arc, Box);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentPool;
    use crate::combinator::Combinator;
    use brace_common::AgentId;

    fn schema() -> AgentSchema {
        AgentSchema::builder("T").effect("n", Combinator::Sum).build().unwrap()
    }

    fn pool(schema: &AgentSchema) -> AgentPool {
        let agents: Vec<Agent> =
            (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), schema)).collect();
        AgentPool::from_agents(schema, &agents)
    }

    #[test]
    fn neighbors_exclude_self() {
        let s = schema();
        let p = pool(&s);
        let cands = [0u32, 1, 2, 3];
        let n = Neighbors::new(p.view(), &cands, 2);
        let rows: Vec<u32> = n.iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![0, 1, 3]);
        assert_eq!(n.len_hint(), 4);
    }

    #[test]
    fn update_ctx_spawn_queues() {
        let mut spawns = Vec::new();
        let mut ctx = UpdateCtx::new(3, DetRng::seed_from_u64(1), &mut spawns);
        assert_eq!(ctx.tick, 3);
        ctx.spawn(Vec2::new(1.0, 1.0), vec![0.5]);
        assert_eq!(ctx.queued_spawns(), 1);
        let _ = ctx;
        assert_eq!(spawns.len(), 1);
        assert_eq!(spawns[0].0, Vec2::new(1.0, 1.0));
    }
}
