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
//!   The executor reaches it through [`Behavior::query_slice`], one sweep
//!   slice of members at a time ([`QuerySlice`]: their candidates and
//!   writers), whose default runs `query` member by member; a behavior
//!   that can evaluate many members' neighbourhoods together (BRASIL's
//!   register program, each op once over a run's `(member, candidate)`
//!   pairs) overrides that hook instead.
//! * [`Behavior::update`] — runs once per owned agent at the tick boundary.
//!   It receives a gathered row record (`&mut Agent`) whose effects hold
//!   the tick's aggregates; it may read state + effects and write next
//!   state (including the position, which the executor crops to the
//!   reachable region). It sees no other agent — also enforced by types.
//!   The executor reaches it through [`Behavior::update_rows`], one chunk
//!   of rows at a time, whose default runs `update` row by row; a behavior
//!   that can update many agents per pass straight off the pool's columns
//!   (BRASIL's register program) overrides that hook instead.
//!
//! Two optional hooks push work out of the query phase's spatial join, and
//! neither may change a result:
//!
//! * the **candidate side**, [`Behavior::probe_rect`]: a rect tighter than
//!   the visibility square where the query provably ignores the rest
//!   (BRASIL's visibility-predicate pushdown);
//! * the **probe side**, [`Behavior::reads_neighbors`]: `false` for an agent
//!   whose query, by its own state, reads no neighbour this tick (the
//!   epidemic's non-infectious agents). The engine hands it no candidates
//!   and runs its query anyway, so the hook may return `false` only where
//!   the query over an empty neighbourhood makes the same writes and draws
//!   as over the real one.
//!
//! The serial oracle (`executor::query_phase`) calls neither the probe-side
//! hook nor any shortcut: it hands every query its full neighbourhood, so
//! every oracle ≡ engine comparison checks each override.
//!
//! The same trait object drives the single-node engine and every reducer
//! of the distributed runtime, which is precisely the paper's claim that
//! programming the agent once suffices ("hides all the complexities of
//! modeling computations in MapReduce").

use crate::agent::{Agent, AgentRef, PoolView, UpdateChunk};
use crate::effect::EffectWriter;
use crate::schema::AgentSchema;
use crate::slice::QuerySlice;
use brace_common::{AgentId, DetRng, Rect, Vec2};
use std::sync::Arc;

/// A reference to a visible neighbor: the row view (previous-tick state),
/// its row index in the visible set, which is how non-local effect
/// assignments address it, and its position, carried out of the join.
#[derive(Clone, Copy)]
pub struct NeighborRef<'a> {
    /// Row in the tick's visible set / effect table.
    pub row: u32,
    /// The neighbor's frozen (previous-tick) columns.
    pub agent: AgentRef<'a>,
    /// `agent.pos()`, bit for bit, read from the candidates' own columns.
    pub pos: Vec2,
}

/// The visible neighborhood of one querying agent: the result of the
/// spatial-join probe, excluding the agent itself.
///
/// The candidates come as three parallel columns: their rows and their
/// positions. The join's member filter emits the positions beside the rows
/// (`kernels::filter_rect_coords`), so a query that reads where its
/// neighbours are — a distance, a displacement — reads them contiguously
/// instead of gathering each by row. Every path fills them: the join, the
/// scan, unbounded visibility and the serial oracle; each position equals
/// `view().pos(row)` bit for bit.
pub struct Neighbors<'a> {
    view: PoolView<'a>,
    candidates: &'a [u32],
    xs: &'a [f64],
    ys: &'a [f64],
    me: u32,
}

impl<'a> Neighbors<'a> {
    /// `view` is the partition's visible agent columns; `candidates` are
    /// row indices produced by the range probe (they may include `me`,
    /// which iteration skips), and `xs`, `ys` their positions, parallel to
    /// them. Panics if the three are not the same length.
    #[inline]
    pub fn new(view: PoolView<'a>, candidates: &'a [u32], xs: &'a [f64], ys: &'a [f64], me: u32) -> Self {
        assert!(
            xs.len() == candidates.len() && ys.len() == candidates.len(),
            "neighbour positions must be parallel to the candidates"
        );
        Neighbors { view, candidates, xs, ys, me }
    }

    /// Iterate the visible neighbors (self excluded).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = NeighborRef<'a>> + '_ {
        let (me, view) = (self.me, self.view);
        // Cut to the candidates' length, so a query that reads no position
        // drops the loads and their bounds checks.
        let n = self.candidates.len();
        let (xs, ys) = (&self.xs[..n], &self.ys[..n]);
        self.candidates.iter().enumerate().filter(move |&(_, &i)| i != me).map(move |(j, &i)| NeighborRef {
            row: i,
            agent: view.agent(i),
            pos: Vec2::new(xs[j], ys[j]),
        })
    }

    /// The raw candidate columns — rows, x and y, parallel — in iteration
    /// order, the querying agent's own row included if the probe found it
    /// (compare against [`Neighbors::me`]). For a query that takes its
    /// neighbourhood in lanes.
    #[inline]
    pub fn columns(&self) -> (&'a [u32], &'a [f64], &'a [f64]) {
        (self.candidates, self.xs, self.ys)
    }

    /// The querying agent's row, which [`Neighbors::iter`] skips.
    #[inline]
    pub fn me(&self) -> u32 {
        self.me
    }

    /// The columns every [`NeighborRef::row`] indexes: a neighbor met during
    /// iteration reads again as `view().agent(row)`.
    #[inline]
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

    /// Whether `me`'s query reads its neighbourhood this tick: the
    /// *probe-side* pushdown, where [`Behavior::probe_rect`] is the
    /// candidate side. A member that returns `false` is handed no candidates
    /// — the join builds no block for it and runs no filter — while its
    /// [`Behavior::query`] still runs. Contract: return `false` only when
    /// `me`'s query, handed an empty neighbourhood, makes exactly the writes
    /// and RNG draws it would make over its real one (say, a guard on `me`'s
    /// own state that returns before the neighbour loop). The default reads
    /// everyone.
    fn reads_neighbors(&self, me: AgentRef<'_>) -> bool {
        let _ = me;
        true
    }

    /// Query phase for one agent. `me` is the querying agent's row view
    /// (`me.row` addresses it in the effect table); `rng` is a
    /// deterministic stream derived from `(seed, agent id, tick)`.
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng);

    /// Query phase for one sweep slice — the reduce side of the tick, which
    /// the executor calls once per slice. The [`QuerySlice`] yields the
    /// slice's members in probe order with their candidates and runs each
    /// member's writes against its writer. The default runs
    /// [`Behavior::query`] member by member, each with its stream
    /// ([`QuerySlice::query_each`]). A behavior may override it to evaluate
    /// many members' neighbourhoods together (BRASIL's register program runs
    /// each op once over a run of members' `(member, candidate)` pairs);
    /// contract: every member emitted, in order, each making exactly the
    /// writes and draws its [`Behavior::query`] makes over the same
    /// candidates (a member emitted through [`QuerySlice::emit`] draws
    /// nothing, so a query that draws runs `query_each`).
    fn query_slice(&self, slice: &mut QuerySlice<'_, '_>) {
        slice.query_each(|me, neighbors, eff, rng| self.query(me, neighbors, eff, rng));
    }

    /// Update phase for one agent: consume `me.effects`, write `me.state` /
    /// `me.pos` (cropped to reachability by the executor), optionally kill
    /// (`me.alive = false`) or spawn (`ctx.spawn`).
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>);

    /// Update phase for one chunk of owned rows — the map side of the tick,
    /// which the executor calls once per chunk. Row `i`'s update draws from
    /// `root.stream(id)`; each spawn is queued in `spawns` with its parent's
    /// id pushed to `parents` (lockstep). The default gathers each row into a
    /// scratch record, runs [`Behavior::update`] on it, crops the move
    /// ([`UpdateChunk::move_to`]) and scatters it back. A behavior may
    /// override it to update many rows per pass straight off the columns
    /// (BRASIL's register program does); contract: the chunk ends exactly as
    /// the default leaves it, with the same spawns in the same order.
    fn update_rows(
        &self,
        chunk: &mut UpdateChunk<'_>,
        tick: u64,
        root: &DetRng,
        spawns: &mut Vec<(Vec2, Vec<f64>)>,
        parents: &mut Vec<AgentId>,
    ) {
        let schema = self.schema();
        let reach = schema.reachability();
        let mut me = Agent {
            id: AgentId::new(0),
            pos: Vec2::ZERO,
            state: Vec::with_capacity(schema.num_states()),
            effects: Vec::with_capacity(schema.num_effects()),
            alive: true,
        };
        for i in 0..chunk.len() {
            chunk.load(i, &mut me);
            let before = spawns.len();
            let mut ctx = UpdateCtx::new(tick, root.stream(me.id.raw()), spawns);
            self.update(&mut me, &mut ctx);
            for _ in before..spawns.len() {
                parents.push(me.id);
            }
            chunk.store(i, &me, reach);
        }
    }
}

/// Forwarding impls, so `Arc<B>` and `Box<B>` are behaviors too — the
/// runtime shares one behavior across worker threads via `Arc`. Every hook
/// (seven: `schema`, `probe_rect`, `reads_neighbors`, `query`, `query_slice`,
/// `update`, `update_rows`) is forwarded: an omitted one would silently run
/// the default instead of the wrapped behavior's override.
macro_rules! forward_behavior {
    ($($ptr:ident),+) => {$(
        impl<B: Behavior + ?Sized> Behavior for $ptr<B> {
            fn schema(&self) -> &AgentSchema {
                (**self).schema()
            }
            fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
                (**self).probe_rect(pos, vis)
            }
            fn reads_neighbors(&self, me: AgentRef<'_>) -> bool {
                (**self).reads_neighbors(me)
            }
            fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
                (**self).query(me, neighbors, eff, rng)
            }
            fn query_slice(&self, slice: &mut QuerySlice<'_, '_>) {
                (**self).query_slice(slice)
            }
            fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
                (**self).update(me, ctx)
            }
            fn update_rows(
                &self,
                chunk: &mut UpdateChunk<'_>,
                tick: u64,
                root: &DetRng,
                spawns: &mut Vec<(Vec2, Vec<f64>)>,
                parents: &mut Vec<AgentId>,
            ) {
                (**self).update_rows(chunk, tick, root, spawns, parents)
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
        let (xs, ys) = ([0.0, 1.0, 2.0, 3.0], [0.0; 4]);
        let n = Neighbors::new(p.view(), &cands, &xs, &ys, 2);
        let rows: Vec<u32> = n.iter().map(|r| r.row).collect();
        assert_eq!(rows, vec![0, 1, 3]);
        assert!(n.iter().all(|r| r.pos == r.agent.pos()));
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
