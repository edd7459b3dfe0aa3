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
//! The same trait object drives the single-node executor and every reducer
//! of the distributed runtime, which is precisely the paper's claim that
//! programming the agent once suffices ("hides all the complexities of
//! modeling computations in MapReduce").

use crate::agent::{Agent, AgentRef, PoolView};
use crate::effect::EffectWriter;
use crate::schema::AgentSchema;
use brace_common::{DetRng, Rect, Vec2};

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
    /// row indices produced by the index probe (they may include `me`,
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

    /// Upper bound on the neighbor count (candidates may include self).
    pub fn len_hint(&self) -> usize {
        self.candidates.len()
    }

    /// The nearest neighbor by Euclidean distance, if any. Linear in the
    /// candidate set — the candidates already come from an index probe.
    pub fn nearest(&self, to: Vec2) -> Option<NeighborRef<'a>> {
        self.iter().min_by(|a, b| a.agent.pos().dist2(to).total_cmp(&b.agent.pos().dist2(to)))
    }
}

/// Reusable gather columns backing one shard's [`NeighborBatch`]es. The
/// executor answers a whole probe group (the owned rows of one tile) with
/// one candidate **block**; the block's positions — and, the first time a
/// member's [`NeighborBatch::gather`] asks for them, its state columns — are
/// gathered from the pool **once per block**, and each member's columns are
/// picked out of that small contiguous block instead of out of the pool.
/// Owned by the executor's per-shard scratch; behaviors only ever see it
/// through [`NeighborBatch::gather`].
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Block columns, parallel to the block's rows.
    block_xs: Vec<f64>,
    block_ys: Vec<f64>,
    block_states: Vec<Vec<f64>>,
    /// Whether `block_xs`/`block_ys` hold the current block.
    block_has_xy: bool,
    /// The state slots `block_states` holds for the current block, in
    /// request order; meaningful only while `block_has_states`.
    block_slots: Vec<u16>,
    block_has_states: bool,
    /// One member's columns, picked out of the block.
    xs: Vec<f64>,
    ys: Vec<f64>,
    states: Vec<Vec<f64>>,
}

/// `out ← [col[i] for i in picks]`.
#[inline]
fn pick_into(col: &[f64], picks: &[u32], out: &mut Vec<f64>) {
    out.clear();
    out.extend(picks.iter().map(|&i| col[i as usize]));
}

impl BatchScratch {
    /// Start a new block: the previous block's columns are stale (their
    /// allocations are kept).
    pub(crate) fn begin_block(&mut self) {
        self.block_has_xy = false;
        self.block_has_states = false;
    }

    /// The position columns of `block`, gathered from the pool on the
    /// block's first request.
    pub(crate) fn block_xy(&mut self, view: PoolView<'_>, block: &[u32]) -> (&[f64], &[f64]) {
        if !self.block_has_xy {
            pick_into(view.xs, block, &mut self.block_xs);
            pick_into(view.ys, block, &mut self.block_ys);
            self.block_has_xy = true;
        }
        (&self.block_xs, &self.block_ys)
    }

    /// Make `block_states[..slots.len()]` hold `block`'s state columns for
    /// `slots`. A behavior asks for the same slots on every probe, so this
    /// gathers once per block.
    fn ensure_block_states(&mut self, view: PoolView<'_>, block: &[u32], slots: &[u16]) {
        if self.block_has_states && self.block_slots == slots {
            return;
        }
        while self.block_states.len() < slots.len() {
            self.block_states.push(Vec::new());
        }
        for (col, &slot) in self.block_states.iter_mut().zip(slots) {
            pick_into(&view.states[slot as usize], block, col);
        }
        self.block_slots.clear();
        self.block_slots.extend_from_slice(slots);
        self.block_has_states = true;
    }
}

/// The candidate batch handed to [`Behavior::query_batch`]: the probe's
/// candidate rows (canonical order, possibly including `me`) plus the means
/// to materialize them as SoA columns. The default `query_batch` never
/// gathers — it falls back to the per-row [`Behavior::query`] through
/// [`NeighborBatch::neighbors`] at zero extra cost; batched behaviors call
/// [`NeighborBatch::gather`] and run lane kernels over the returned columns.
pub struct NeighborBatch<'a> {
    view: PoolView<'a>,
    /// The probe group's candidate block (canonical order).
    block: &'a [u32],
    /// This agent's candidates as positions in `block`, with the rows they
    /// name; `None` when the whole block is this agent's candidate set.
    picked: Option<(&'a [u32], &'a [u32])>,
    me: u32,
    scratch: &'a mut BatchScratch,
}

impl<'a> NeighborBatch<'a> {
    /// `block` holds the candidate rows of `me`'s probe group and `scratch`
    /// that block's columns ([`BatchScratch::begin_block`] was called when
    /// the block changed). `picked = Some((picks, rows))` narrows the batch
    /// to `rows[i] == block[picks[i]]`; `None` means every block row is a
    /// candidate. Candidates may include `me`, which batched emission loops
    /// must skip exactly like [`Neighbors`].
    pub(crate) fn new(
        view: PoolView<'a>,
        block: &'a [u32],
        picked: Option<(&'a [u32], &'a [u32])>,
        me: u32,
        scratch: &'a mut BatchScratch,
    ) -> Self {
        debug_assert!(picked.is_none_or(|(picks, rows)| picks.len() == rows.len()));
        NeighborBatch { view, block, picked, me, scratch }
    }

    /// Number of candidates (self included when the probe emitted it).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows().is_empty()
    }

    /// The candidate rows, in canonical probe order.
    #[inline]
    pub fn rows(&self) -> &'a [u32] {
        self.picked.map_or(self.block, |(_, rows)| rows)
    }

    /// Row index of the querying agent (for self-exclusion).
    #[inline]
    pub fn me(&self) -> u32 {
        self.me
    }

    /// The per-row neighbor view over the same candidates — the default
    /// [`Behavior::query_batch`] fallback path.
    #[inline]
    pub fn neighbors(&self) -> Neighbors<'a> {
        Neighbors::new(self.view, self.rows(), self.me)
    }

    /// Materialize candidate positions and the requested state columns
    /// (`state_slots`, schema order) as a SoA view parallel to
    /// [`NeighborBatch::rows`]. The pool is touched at most once per block
    /// (see [`BatchScratch`]); a narrowed batch then picks its columns out
    /// of the block's, and everything downstream streams flat `f64` columns.
    pub fn gather(&mut self, state_slots: &[u16]) -> GatheredBatch<'_> {
        let s = &mut *self.scratch;
        s.block_xy(self.view, self.block);
        s.ensure_block_states(self.view, self.block, state_slots);
        let n = state_slots.len();
        let Some((picks, rows)) = self.picked else {
            return GatheredBatch {
                rows: self.block,
                me: self.me,
                xs: &s.block_xs,
                ys: &s.block_ys,
                states: &s.block_states[..n],
            };
        };
        pick_into(&s.block_xs, picks, &mut s.xs);
        pick_into(&s.block_ys, picks, &mut s.ys);
        while s.states.len() < n {
            s.states.push(Vec::new());
        }
        for (out, col) in s.states.iter_mut().zip(&s.block_states[..n]) {
            pick_into(col, picks, out);
        }
        GatheredBatch { rows, me: self.me, xs: &s.xs, ys: &s.ys, states: &s.states[..n] }
    }
}

/// SoA view of a gathered candidate batch: coordinate and state columns
/// parallel to `rows`. All slices share one length ([`GatheredBatch::len`]).
pub struct GatheredBatch<'g> {
    /// Candidate rows, canonical probe order (may include `me`).
    pub rows: &'g [u32],
    /// Row index of the querying agent.
    pub me: u32,
    /// Candidate x coordinates.
    pub xs: &'g [f64],
    /// Candidate y coordinates.
    pub ys: &'g [f64],
    states: &'g [Vec<f64>],
}

impl GatheredBatch<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th gathered state column, in the order the slots were passed
    /// to [`NeighborBatch::gather`].
    #[inline]
    pub fn state(&self, i: usize) -> &[f64] {
        &self.states[i]
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

/// How the engine materializes a behavior's neighborhood each tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NeighborProbe {
    /// Orthogonal range query over the visible region — the paper's
    /// compiled form of a BRASIL `foreach` under `#range` (default).
    #[default]
    Range,
    /// The `k` nearest agents (Euclidean), cropped to the visible region —
    /// the paper's nearest-neighbor-indexing extension ("planned future
    /// work" in §5.2, needed for parity with MITSIM's hand-coded lookup).
    /// Correctness note: candidates beyond the schema's visibility bound
    /// are filtered out, because the distributed runtime replicates only
    /// the visible region — k-NN cannot see further than `#range` allows.
    Nearest(usize),
}

/// A simulation model: the query and update phases over a fixed schema.
/// Minimum per-candidate kernel cost — in analyzer ALU-op units (cheap
/// arithmetic and compares 1, divides and square roots 8, transcendentals
/// 16; the BRASIL analyzer's `expr_cost` scale) — at which a batched lane
/// kernel pays for its candidate gather. One threshold governs every
/// behavior: the BRASIL compiler scores its generated lane programs
/// against it, and the hand-coded models score their hand-written kernels
/// on the same scale through [`batch_engaged`]. It places fish's force
/// math (sqrt, divide, distance terms) above the line and traffic's
/// three-subtraction gap scan and the predator's subtract-multiply bite
/// scan below it — a calibration from before the tile join, when a batched
/// kernel also saved a per-probe gather. Re-measured on the join path
/// (PR 18; query phase, batched ÷ scalar throughput, interleaved ticks of
/// two bit-identical simulations): traffic 0.82–0.85×, predator 0.79–0.88×,
/// and fish 0.74–0.81× at 5k–100k agents (0.81–0.86× before the register
/// fold). The join hands the scalar path its candidates already filtered,
/// so every hand-coded lane kernel now trails its scalar form, the one this
/// threshold engages included; ROADMAP ("`batch_engaged` constants")
/// carries the decision. BRASIL's lane programs replace an interpreter,
/// not native code, and are not covered by these figures.
pub const BATCH_COST_THRESHOLD: u32 = 10;

/// The one batch-engagement rule: run the lane kernel when the estimated
/// per-candidate cost reaches [`BATCH_COST_THRESHOLD`], unless the caller
/// pins the decision. Pure scheduling policy — the scalar and batched
/// query paths are bit-identical by contract — so overrides exist for
/// conformance tests and bench ablations, never for correctness.
pub fn batch_engaged(per_candidate_cost: u32, engagement_override: Option<bool>) -> bool {
    engagement_override.unwrap_or(per_candidate_cost >= BATCH_COST_THRESHOLD)
}

pub trait Behavior: Send + Sync {
    /// The agent schema this behavior operates on. The executor shapes
    /// agents, effect tables and replication from it; it must not change
    /// between calls.
    fn schema(&self) -> &AgentSchema;

    /// Neighborhood materialization (default: range query).
    fn probe(&self) -> NeighborProbe {
        NeighborProbe::Range
    }

    /// The rect handed to the spatial index for a [`NeighborProbe::Range`]
    /// probe centered on `pos` with visibility bound `vis`. The default is
    /// the full visibility square; a behavior that can *prove* its query
    /// ignores part of that square (BRASIL's visibility-predicate pushdown)
    /// may return a tighter rect so the index does the filtering. Contract:
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

    /// Whether the executor's batched mode should route this behavior
    /// through [`Behavior::query_batch`] (`true`, the default) or keep the
    /// per-row [`Behavior::query`]. Pure scheduling policy, never
    /// semantics — the two paths are bit-identical by contract: a batched
    /// kernel pays a pass that materializes every candidate as columns,
    /// which only amortizes when the per-candidate map is expensive enough.
    /// Behaviors with a cost estimate for their per-candidate kernel should
    /// decide through [`batch_engaged`], the one engagement rule shared by
    /// the BRASIL compiler's lane programs and the hand-coded models.
    fn batch_profitable(&self) -> bool {
        true
    }

    /// Batched query phase for one agent: the same contract as
    /// [`Behavior::query`], but over a [`NeighborBatch`] whose candidates
    /// can be gathered into SoA columns for lane kernels. Overrides **must
    /// be bit-identical** to `query` — the executor treats the two as
    /// interchangeable (its `QueryKernel` ablation knob runs either), and
    /// the kernel conformance properties in `tests/properties.rs` enforce
    /// the equivalence. The default gathers nothing and falls back to the
    /// per-row path.
    fn query_batch(
        &self,
        me: AgentRef<'_>,
        batch: &mut NeighborBatch<'_>,
        eff: &mut EffectWriter<'_>,
        rng: &mut DetRng,
    ) {
        self.query(me, &batch.neighbors(), eff, rng)
    }

    /// Update phase for one agent: consume `me.effects`, write `me.state` /
    /// `me.pos` (cropped to reachability by the executor), optionally kill
    /// (`me.alive = false`) or spawn (`ctx.spawn`).
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>);
}

/// Blanket impl so `Arc<B>` / `Box<B>` / `&B` are behaviors too — the
/// runtime shares one behavior across worker threads via `Arc`.
impl<B: Behavior + ?Sized> Behavior for &B {
    fn schema(&self) -> &AgentSchema {
        (**self).schema()
    }
    fn probe(&self) -> NeighborProbe {
        (**self).probe()
    }
    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        (**self).probe_rect(pos, vis)
    }
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        (**self).query(me, neighbors, eff, rng)
    }
    fn batch_profitable(&self) -> bool {
        (**self).batch_profitable()
    }
    fn query_batch(
        &self,
        me: AgentRef<'_>,
        batch: &mut NeighborBatch<'_>,
        eff: &mut EffectWriter<'_>,
        rng: &mut DetRng,
    ) {
        (**self).query_batch(me, batch, eff, rng)
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        (**self).update(me, ctx)
    }
}

impl<B: Behavior + ?Sized> Behavior for std::sync::Arc<B> {
    fn schema(&self) -> &AgentSchema {
        (**self).schema()
    }
    fn probe(&self) -> NeighborProbe {
        (**self).probe()
    }
    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        (**self).probe_rect(pos, vis)
    }
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        (**self).query(me, neighbors, eff, rng)
    }
    fn batch_profitable(&self) -> bool {
        (**self).batch_profitable()
    }
    fn query_batch(
        &self,
        me: AgentRef<'_>,
        batch: &mut NeighborBatch<'_>,
        eff: &mut EffectWriter<'_>,
        rng: &mut DetRng,
    ) {
        (**self).query_batch(me, batch, eff, rng)
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        (**self).update(me, ctx)
    }
}

impl<B: Behavior + ?Sized> Behavior for Box<B> {
    fn schema(&self) -> &AgentSchema {
        (**self).schema()
    }
    fn probe(&self) -> NeighborProbe {
        (**self).probe()
    }
    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        (**self).probe_rect(pos, vis)
    }
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        (**self).query(me, neighbors, eff, rng)
    }
    fn batch_profitable(&self) -> bool {
        (**self).batch_profitable()
    }
    fn query_batch(
        &self,
        me: AgentRef<'_>,
        batch: &mut NeighborBatch<'_>,
        eff: &mut EffectWriter<'_>,
        rng: &mut DetRng,
    ) {
        (**self).query_batch(me, batch, eff, rng)
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        (**self).update(me, ctx)
    }
}

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
    fn neighbors_nearest() {
        let s = schema();
        let p = pool(&s);
        let cands = [0u32, 1, 2, 3];
        let n = Neighbors::new(p.view(), &cands, 0);
        let near = n.nearest(Vec2::new(0.0, 0.0)).unwrap();
        assert_eq!(near.row, 1);
        // Empty candidate set -> None.
        let empty = Neighbors::new(p.view(), &[], 0);
        assert!(empty.nearest(Vec2::ZERO).is_none());
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
