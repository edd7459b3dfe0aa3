//! Property-based tests on the invariants the paper's design rests on.
//!
//! * The worker's column partitioning ships every join pair's neighbour to
//!   its owner's column, for any boundaries the balancer installs (the
//!   Appendix A decomposition), and replication is exactly visible-interval
//!   membership — no agent is missing where it is visible, none is shipped
//!   where it is not.
//! * Codec round-trips are lossless (checkpoints and messages cannot
//!   corrupt a world).
//! * The sharded/parallel executor phases equal the serial reference at
//!   the bit level — for every thread count, shard granule, index kind and
//!   seed (the determinism contract of `brace_core::executor`), the writes
//!   a worker ships for its replicas included.
//! * The pool-backed executor equals the `Vec<Agent>` reference path at
//!   the bit level — the contract of the struct-of-arrays refactor.
//! * The BRASIL front end turns hostile source — arbitrary bytes, mutated
//!   scripts, nesting past its depth bound — into an error, never a panic.
//! * So do the checkpoint and manifest decoders, the manifest's frame reader,
//!   every decoder of a peer's payloads and the serve parsers (HTTP request,
//!   JSON body, job line) with hostile bytes — arbitrary, flipped, truncated
//!   or with inflated counts — and none sizes an allocation from a count it
//!   has not checked. The durable decoders accept one encoding per value.

mod common;

use brace_common::ids::AgentIdGen;
use brace_common::{AgentId, DetRng, FieldId, Rect, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::executor::{
    query_phase, query_phase_sharded, reference_step, replay_effects, update_phase, update_phase_sharded, TickScratch,
};
use brace_core::{
    Agent, AgentPool, AgentRef, AgentSchema, Combinator, EffectTable, EffectWrite, EffectWriter, ShardPool, Simulation,
};
use brace_mapreduce::codec;
use brace_spatial::kernels::{block_order, candidate_force, radix_sort_by_key, seek_window, ProbeKey, TileDirectory};
use brace_spatial::{GridPartitioning, KdTree, ScanIndex, SpatialIndex, UniformGrid};
use common::{any_index_kind, worlds_bit_identical};
use proptest::prelude::*;

fn any_combinator() -> impl Strategy<Value = Combinator> {
    prop::sample::select(Combinator::ALL.to_vec())
}

/// Local-effects model with float-valued aggregates (Sum + Min + Max):
/// every agent records, per neighbor, a distance-derived float. Local
/// effects shard-merge by copy, so the parallel path must match the serial
/// reference bit for bit even though the values are "awkward" floats.
struct LocalFloat(AgentSchema);

impl LocalFloat {
    fn new(vis: f64) -> Self {
        LocalFloat(
            AgentSchema::builder("LocalFloat")
                .state("s")
                .effect("acc", Combinator::Sum)
                .effect("near", Combinator::Min)
                .effect("far", Combinator::Max)
                .visibility(vis)
                .reachability(1.0)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for LocalFloat {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let d = my_pos.dist_linf(nb.agent.pos());
            eff.local(FieldId::new(0), d * rng.range(0.1, 1.3));
            eff.local(FieldId::new(1), d);
            eff.local(FieldId::new(2), d);
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let acc = me.effect(FieldId::new(0));
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + acc);
        me.pos.x += ctx.rng.range(-0.6, 0.6);
        me.pos.y += ctx.rng.range(-0.6, 0.6);
    }
}

/// Non-local model whose aggregates are exactly associative: integer Sum
/// (pings of 1.0) and lattice Min (distance). The replay folds in id order
/// like the serial reference, so the two agree bit for bit; these values
/// would agree under any association too.
struct NonlocalExact(AgentSchema);

impl NonlocalExact {
    fn new(vis: f64) -> Self {
        NonlocalExact(
            AgentSchema::builder("NonlocalExact")
                .state("hits")
                .remote_effect("pings", Combinator::Sum)
                .remote_effect("near", Combinator::Min)
                .visibility(vis)
                .reachability(0.5)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for NonlocalExact {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            eff.remote(nb.row, FieldId::new(0), 1.0);
            eff.remote(nb.row, FieldId::new(1), my_pos.dist_linf(nb.agent.pos()));
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let pings = me.effect(FieldId::new(0));
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + pings);
        me.pos.x += ctx.rng.range(-0.3, 0.3);
    }
}

/// Non-local model with arbitrary float aggregation, where any
/// re-association shows in the last bits: the replay folds the write-log in
/// source-id order, so it must equal the serial reference bit for bit at
/// every shard granule and thread count.
struct NonlocalFloat(AgentSchema);

impl NonlocalFloat {
    fn new(vis: f64) -> Self {
        NonlocalFloat(
            AgentSchema::builder("NonlocalFloat")
                .remote_effect("w", Combinator::Sum)
                .visibility(vis)
                .reachability(0.5)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for NonlocalFloat {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            eff.remote(nb.row, FieldId::new(0), (my_pos.x - nb.agent.pos().x) * rng.range(0.01, 2.7));
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.pos.y += ctx.rng.range(-0.2, 0.2);
    }
}

/// Non-local model whose schema mixes remote and local-only fields, each
/// written the way the split sink must route by field, not by target:
/// `own` is an order-sensitive float `Sum` written only by its own row
/// (folded in place), `w` a remote float `Sum` that also receives its own
/// row's writes in the same tick (every one logged and replayed in source-id
/// order), and one `fold_local` mixes both kinds with a local-only `Min`.
struct NonlocalMixed(AgentSchema);

impl NonlocalMixed {
    const OWN: FieldId = FieldId::new(0);
    const W: FieldId = FieldId::new(1);
    const NEAR: FieldId = FieldId::new(2);

    fn new(vis: f64) -> Self {
        NonlocalMixed(
            AgentSchema::builder("NonlocalMixed")
                .effect("own", Combinator::Sum)
                .remote_effect("w", Combinator::Sum)
                .effect("near", Combinator::Min)
                .visibility(vis)
                .reachability(0.5)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for NonlocalMixed {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let dx = my_pos.x - nb.agent.pos().x;
            eff.remote(nb.row, Self::W, dx * rng.range(0.01, 2.7));
            eff.local(Self::OWN, dx * rng.range(0.1, 1.3));
        }
        let own_bias = rng.range(-1e3, 1e3);
        eff.fold_local(
            [(Self::OWN, Combinator::Sum), (Self::W, Combinator::Sum), (Self::NEAR, Combinator::Min)],
            |acc| {
                for nb in nbrs.iter() {
                    let dy = my_pos.y - nb.agent.pos().y;
                    acc.sum(0, dy * 0.37 + own_bias);
                    acc.sum(1, dy * 1e-3 - 0.1);
                    acc.min(2, dy.abs());
                }
            },
        );
        eff.local(Self::W, own_bias * 1e5);
        eff.local(Self::OWN, -own_bias);
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.pos.y += ctx.rng.range(-0.2, 0.2) + 1e-3 * me.effect(Self::OWN).tanh();
    }
}

/// Update-phase model exercising spawns, kills and RNG in one pass.
struct Churn(AgentSchema);

impl Churn {
    fn new() -> Self {
        Churn(AgentSchema::builder("Churn").state("age").visibility(1.0).reachability(2.0).build().unwrap())
    }
}

impl Behavior for Churn {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + 1.0);
        if ctx.rng.chance(0.15) {
            ctx.spawn(me.pos + Vec2::new(0.1, -0.1), vec![0.0]);
        }
        if ctx.rng.chance(0.1) {
            me.alive = false;
        }
        me.pos.x += ctx.rng.range(-1.5, 1.5);
    }
}

/// Churn plus a float-effect query: the full lifecycle model for the
/// pool ≡ reference end-to-end property (spawns, kills, movement, effect
/// aggregation all in one world).
struct ChurnField(AgentSchema);

impl ChurnField {
    fn new(vis: f64) -> Self {
        ChurnField(
            AgentSchema::builder("ChurnField")
                .state("age")
                .effect("mass", Combinator::Sum)
                .effect("near", Combinator::Min)
                .visibility(vis)
                .reachability(1.5)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for ChurnField {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }
    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let d = my_pos.dist_linf(nb.agent.pos());
            eff.local(FieldId::new(0), 1.0 / (1.0 + d));
            eff.local(FieldId::new(1), d);
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + 1.0);
        let mass = me.effect(FieldId::new(0));
        if ctx.rng.chance(0.1) && mass < 3.0 {
            ctx.spawn(me.pos + Vec2::new(0.2, 0.2), vec![0.0]);
        }
        if ctx.rng.chance(0.08) {
            me.alive = false;
            return;
        }
        me.pos.x += ctx.rng.range(-1.2, 1.2);
        me.pos.y += ctx.rng.range(-1.2, 1.2);
    }
}

/// A column partitioning as the balancer leaves it — `cols` columns, the
/// interior boundaries drawn anywhere in `[-20, 120)` and installed with
/// `set_x_bounds` — and `n` agents over it. A quarter of the agents sit
/// exactly on a boundary `b`, at `b ± vis`, or on an edge of the band that
/// sees `b` (`Rect::centered(b, vis)`, which rounding can move off
/// `b ± vis`), so the band's edges are met on the nose. Half the draws use
/// a whole visibility and whole boundaries, where those sums are exact;
/// the rest round.
fn partition_draw(seed: u64, n: usize, vis: f64, cols: usize) -> (GridPartitioning, Vec<Vec2>, f64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let whole = rng.chance(0.5);
    let vis = if whole { vis.floor() } else { vis };
    let mut interior: Vec<f64> =
        (1..cols).map(|_| if whole { rng.below(140) as f64 - 20.0 } else { rng.range(-20.0, 120.0) }).collect();
    interior.sort_by(f64::total_cmp);
    interior.dedup();
    let mut bounds = vec![interior.first().map_or(0.0, |&b| b.min(0.0) - 1.0)];
    bounds.extend(&interior);
    bounds.push(interior.last().map_or(100.0, |&b| b.max(100.0) + 1.0));
    let mut part = GridPartitioning::columns(0.0, 100.0, bounds.len() - 1);
    part.set_x_bounds(bounds);
    let points = (0..n)
        .map(|_| {
            let x = if rng.chance(0.25) {
                let b = part.x_bounds()[rng.below(part.x_bounds().len() as u64) as usize];
                let edge = Rect::centered(Vec2::new(b, 0.0), vis);
                [b, b + vis, b - vis, edge.lo.x, edge.hi.x][rng.below(5) as usize]
            } else {
                rng.range(-30.0, 130.0)
            };
            Vec2::new(x, rng.range(0.0, 50.0))
        })
        .collect();
    (part, points, vis)
}

/// Collecting k-NN helper for assertions over `k_nearest_into`.
fn knn<I: SpatialIndex>(idx: &I, q: Vec2, k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    idx.k_nearest_into(q, k, None, &mut out);
    out
}

fn random_population(schema: &AgentSchema, n: usize, seed: u64) -> Vec<Agent> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 40.0), rng.range(0.0, 40.0)), schema))
        .collect()
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Finish a sharded query phase over `pool` with its replay (nothing shipped
/// in) and compare it with the serial reference's table, bit for bit: owned
/// rows against the pool's effect columns, replica rows against the writes
/// the query phase handed out for them ([`TickScratch::outbound`]), folded in
/// the order they were handed out. Those writes must come in ascending
/// source id and name their target row's agent, and the replay must leave
/// the pool's replica rows at identity.
fn replayed_equals_serial(
    serial: &EffectTable,
    pool: &mut AgentPool,
    n_owned: usize,
    scratch: &TickScratch,
) -> Result<(), String> {
    replay_effects(pool, scratch, &mut []);
    let mut shipped = pool.effects().clone();
    shipped.reset(1);
    let identity = shipped.row(0);
    shipped.reset(pool.len());
    let outbound = scratch.outbound();
    if !outbound.windows(2).all(|w| w[0].1.source <= w[1].1.source) {
        return Err(format!("outbound writes out of source-id order: {outbound:?}"));
    }
    for &(row, write) in outbound {
        if (row as usize) < n_owned || pool.id(row) != write.target {
            return Err(format!("{write:?} handed out for row {row} of {n_owned} owned"));
        }
        shipped.combine(row, write.field, write.v);
    }
    for r in 0..pool.len() as u32 {
        let owned = (r as usize) < n_owned;
        let got = if owned { pool.effects().row(r) } else { shipped.row(r) };
        if bits(&got) != bits(&serial.row(r)) {
            return Err(format!("row {r} (owned: {owned}) differs: {got:?} vs {:?}", serial.row(r)));
        }
        if !owned && bits(&pool.effects().row(r)) != bits(&identity) {
            return Err(format!("replica row {r} was folded into: {:?}", pool.effects().row(r)));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appendix A, as a property of the functions the worker runs: every
    /// pair of a nested-loop join has its neighbour shipped to the column
    /// that owns the prober (`owners_into` + `replica_col_range`), for any
    /// boundaries the balancer installs.
    #[test]
    fn partition_ships_every_join_pair_to_the_owners_column(
        seed in 0u64..1000,
        n in 1usize..120,
        vis in 0.0f64..30.0,
        cols in 1usize..6,
    ) {
        let (part, points, vis) = partition_draw(seed, n, vis, cols);
        let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().map(|p| (p.x, p.y)).unzip();
        let mut owners = Vec::new();
        part.owners_into(&xs, &ys, &mut owners);
        let shipped = |j: usize, column: u32| {
            let (c0, c1) = part.replica_col_range(xs[j], vis);
            (c0..=c1).contains(&column)
        };
        for (i, &a) in points.iter().enumerate() {
            prop_assert!(shipped(i, owners[i]), "agent {} at {} is not in its own column {}", i, a, owners[i]);
            let region = Rect::centered(a, vis);
            for (j, &b) in points.iter().enumerate().filter(|&(j, &b)| j != i && region.contains(b)) {
                prop_assert!(
                    shipped(j, owners[i]),
                    "{} sees {} within {}, but column {} of {:?} never receives it",
                    a, b, vis, owners[i], part.x_bounds()
                );
            }
        }
    }

    /// Replication invariant: a finite agent is shipped to column `c` iff
    /// the probers that see it, `Rect::centered(p, vis)` on x, meet `c`'s
    /// interval `[b[c], b[c+1]]`, the border columns reaching to ±∞.
    #[test]
    fn partition_ships_exactly_the_visible_interval(
        seed in 0u64..1000,
        n in 1usize..80,
        vis in 0.0f64..25.0,
        cols in 1usize..6,
    ) {
        let (part, points, vis) = partition_draw(seed, n, vis, cols);
        let b = part.x_bounds();
        let last = part.cols() - 1;
        for p in &points {
            let (c0, c1) = part.replica_col_range(p.x, vis);
            let seen_from = Rect::centered(*p, vis);
            for c in 0..part.cols() {
                let lo = if c == 0 { f64::NEG_INFINITY } else { b[c] };
                let hi = if c == last { f64::INFINITY } else { b[c + 1] };
                let visible = lo <= seen_from.hi.x && seen_from.lo.x <= hi;
                prop_assert_eq!(
                    (c0 as usize..=c1 as usize).contains(&c),
                    visible,
                    "agent at {} (vis {}) vs column {} of {:?}",
                    p, vis, c, b
                );
            }
        }
    }

    /// All three spatial indexes answer every range query identically.
    #[test]
    fn all_indexes_agree_on_range_queries(
        seed in 0u64..1000,
        n in 0usize..150,
        probes in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..40.0), 1..8),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let grid = UniformGrid::build(&pts);
        let scan = ScanIndex::build(&pts);
        for (x, y, r) in probes {
            let rect = Rect::centered(Vec2::new(x, y), r);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut c = Vec::new();
            kd.range(&rect, &mut a);
            grid.range(&rect, &mut b);
            scan.range(&rect, &mut c);
            a.sort_unstable();
            b.sort_unstable();
            c.sort_unstable();
            prop_assert_eq!(&a, &c, "kd vs scan");
            prop_assert_eq!(&b, &c, "grid vs scan");
        }
    }

    /// Codec round-trips preserve agents bit-for-bit, including NaN-free
    /// extremes and dead agents.
    #[test]
    fn agent_codec_round_trips(
        id in any::<u64>(),
        x in -1e12f64..1e12,
        y in -1e12f64..1e12,
        state in prop::collection::vec(-1e9f64..1e9, 0..6),
        effects in prop::collection::vec(-1e9f64..1e9, 0..6),
        alive in any::<bool>(),
    ) {
        let a = Agent { id: AgentId::new(id), pos: Vec2::new(x, y), state, effects, alive };
        let decoded = codec::decode_agents(codec::encode_agents(std::slice::from_ref(&a))).map_err(|e| e.to_string())?;
        prop_assert_eq!(vec![a], decoded);
    }

    /// Pool conversion round-trips preserve agents bit-for-bit: the
    /// serialization boundary (checkpoints, transfers) cannot corrupt a
    /// world that passed through the columnar representation.
    #[test]
    fn pool_conversion_round_trips(
        seed in 0u64..10_000,
        n in 0usize..60,
        n_states in 0usize..4,
        n_effects in 0usize..4,
    ) {
        let mut b = AgentSchema::builder("RT");
        for i in 0..n_states {
            b = b.state(format!("s{i}"));
        }
        for i in 0..n_effects {
            b = b.effect(format!("e{i}"), Combinator::Sum);
        }
        let schema = b.build().unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(rng.unit(), rng.unit()), &schema);
                for s in &mut a.state {
                    *s = rng.range(-1e6, 1e6);
                }
                for e in &mut a.effects {
                    *e = rng.range(-1e6, 1e6);
                }
                a.alive = rng.chance(0.9);
                a
            })
            .collect();
        let pool = AgentPool::from_agents(&schema, &agents);
        prop_assert_eq!(pool.to_agents(), agents);
    }

    /// Snapshot round-trips preserve the whole worker state.
    #[test]
    fn snapshot_codec_round_trips(
        tick in any::<u64>(),
        next in any::<u64>(),
        seed in any::<u64>(),
        n in 0usize..20,
    ) {
        let schema = AgentSchema::builder("S").state("v").effect("e", Combinator::Sum).build().unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(rng.unit(), rng.unit()), &schema);
                a.state[0] = rng.range(-5.0, 5.0);
                a
            })
            .collect();
        let snap = codec::WorkerSnapshot { tick, next_spawn_id: next, rng, agents };
        let back = codec::decode_snapshot(codec::encode_snapshot(&snap)).map_err(|e| e.to_string())?;
        prop_assert_eq!(snap, back);
    }

    /// All three indexes agree on k-NN — exactly, including ties, because
    /// every implementation breaks ties by ascending payload.
    #[test]
    fn all_indexes_agree_on_knn(
        seed in 0u64..1000,
        n in 0usize..120,
        k in 1usize..12,
        qx in -20.0f64..120.0,
        qy in -20.0f64..120.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let grid = UniformGrid::build(&pts);
        let scan = ScanIndex::build(&pts);
        let q = Vec2::new(qx, qy);
        let a = knn(&kd, q, k);
        let b = knn(&grid, q, k);
        let c = knn(&scan, q, k);
        prop_assert_eq!(&a, &c, "kd vs scan");
        prop_assert_eq!(&b, &c, "grid vs scan");
        // Sorted ascending by distance, and buffer-reuse variant agrees.
        let dists: Vec<f64> = c.iter().map(|&i| pts[i as usize].0.dist2(q)).collect();
        prop_assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        let mut buf = vec![7u32; 3];
        kd.k_nearest_into(q, k, None, &mut buf);
        prop_assert_eq!(buf, a);
    }

    /// KD-tree nearest neighbour (`k_nearest_into` at k = 1, with and
    /// without an excluded payload) matches brute force for arbitrary
    /// inputs, ties broken by ascending payload.
    #[test]
    fn kdtree_nearest_matches_brute_force(
        seed in 0u64..1000,
        n in 1usize..100,
        qx in -50.0f64..150.0,
        qy in -50.0f64..150.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let pts: Vec<(Vec2, u32)> =
            (0..n).map(|i| (Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0)), i as u32)).collect();
        let kd = KdTree::build(&pts);
        let q = Vec2::new(qx, qy);
        for exclude in [None, Some(rng.below(n as u64) as u32)] {
            let mut got = Vec::new();
            kd.k_nearest_into(q, 1, exclude, &mut got);
            let best = pts
                .iter()
                .filter(|&&(_, payload)| Some(payload) != exclude)
                .min_by(|a, b| a.0.dist2(q).total_cmp(&b.0.dist2(q)).then(a.1.cmp(&b.1)));
            prop_assert_eq!(got, best.map(|&(_, payload)| payload).into_iter().collect::<Vec<_>>());
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel executor ≡ serial executor (the sharded determinism contract)
// ---------------------------------------------------------------------------

/// The production update phase as a single node runs it: the one sharded
/// update over every row, then its report applied — killed rows compacted
/// away, spawn ids allocated in emitted order, effect columns reset. Returns
/// `(spawned, killed)`.
fn sharded_update_applied<B: Behavior>(
    b: &B,
    pool: &mut AgentPool,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
    scratch: &mut TickScratch,
    fanout: &mut ShardPool,
) -> (usize, usize) {
    let (mut killed, mut spawned) = (Vec::new(), Vec::new());
    let n = pool.len();
    update_phase_sharded(b, pool, n, tick, seed, scratch, fanout, &mut killed, &mut spawned);
    pool.retain_alive();
    for s in &spawned {
        pool.push_spawn(id_gen.alloc().expect("id space"), s.pos, &s.state);
    }
    pool.reset_effects();
    (spawned.len(), killed.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local-effect schemas: the sharded query phase must equal the serial
    /// reference bit for bit — for every index kind, shard granule, thread
    /// count, population and visibility. Shards merge disjoint row slices
    /// by copy, so no float re-association can occur.
    #[test]
    fn sharded_query_equals_serial_for_local_effects(
        seed in 0u64..10_000,
        n in 1usize..220,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..40,
        threads in 1usize..5,
    ) {
        let b = LocalFloat::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut serial = EffectTable::new(b.schema());
        let s_stats = query_phase(&b, &pool, n_owned, &mut serial, 3, seed);
        let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
        let mut scratch = TickScratch::new();
        let p_stats =
            query_phase_sharded(&b, &mut sh_pool, n_owned, kind, 3, seed, &mut scratch, shard_rows, &mut ShardPool::new(threads));
        prop_assert_eq!(s_stats.neighbor_visits, p_stats.neighbor_visits);
        prop_assert_eq!(s_stats.nonlocal_writes, p_stats.nonlocal_writes);
        replayed_equals_serial(&serial, &mut sh_pool, n_owned, &scratch)?;
    }

    /// Non-local schemas whose aggregation is exactly associative (integer
    /// Sum, lattice Min): parallel must equal serial at the bit level —
    /// including the writes handed out for replica agents.
    #[test]
    fn sharded_query_equals_serial_for_exact_nonlocal_effects(
        seed in 0u64..10_000,
        n in 2usize..160,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..40,
        threads in 1usize..5,
    ) {
        let b = NonlocalExact::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut serial = EffectTable::new(b.schema());
        query_phase(&b, &pool, n_owned, &mut serial, 1, seed);
        let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
        let mut scratch = TickScratch::new();
        query_phase_sharded(&b, &mut sh_pool, n_owned, kind, 1, seed, &mut scratch, shard_rows, &mut ShardPool::new(threads));
        replayed_equals_serial(&serial, &mut sh_pool, n_owned, &scratch)?;
    }

    /// Non-local schemas with arbitrary float aggregation: every write is
    /// replayed once, in source-id order, so neither the shard granule nor
    /// the thread count can re-associate a sum — the replayed owned rows and
    /// the handed-out writes for the replicas, folded in the order they are
    /// handed out, equal the serial reference's table bit for bit.
    #[test]
    fn sharded_query_equals_serial_for_float_nonlocal_effects(
        seed in 0u64..10_000,
        n in 2usize..180,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..30,
        threads_a in 1usize..6,
        threads_b in 1usize..6,
    ) {
        let b = NonlocalFloat::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let mut serial = EffectTable::new(b.schema());
        query_phase(&b, &AgentPool::from_agents(b.schema(), &agents), n_owned, &mut serial, 2, seed);
        for threads in [threads_a, threads_b] {
            let mut pool = AgentPool::from_agents(b.schema(), &agents);
            let mut scratch = TickScratch::new();
            query_phase_sharded(&b, &mut pool, n_owned, kind, 2, seed, &mut scratch, shard_rows, &mut ShardPool::new(threads));
            replayed_equals_serial(&serial, &mut pool, n_owned, &scratch)?;
        }
    }

    /// A schema with remote and local-only fields: the local-only ones fold
    /// in place in each shard's table, the remote one is logged and replayed
    /// (its own row's writes, folded ones included, among the others'), so
    /// the tables equal the serial reference bit for bit at every granule
    /// and thread budget.
    #[test]
    fn sharded_query_equals_serial_for_mixed_remote_and_local_only_fields(
        seed in 0u64..10_000,
        n in 2usize..180,
        owned_frac in 0.3f64..1.0,
        vis in 0.4f64..8.0,
        kind in any_index_kind(),
        shard_rows in 1usize..30,
        threads_a in 1usize..6,
        threads_b in 1usize..6,
    ) {
        let b = NonlocalMixed::new(vis);
        let agents = random_population(b.schema(), n, seed);
        let n_owned = ((n as f64 * owned_frac) as usize).max(1);
        let mut serial = EffectTable::new(b.schema());
        let s_stats =
            query_phase(&b, &AgentPool::from_agents(b.schema(), &agents), n_owned, &mut serial, 2, seed);
        for threads in [threads_a, threads_b] {
            let mut pool = AgentPool::from_agents(b.schema(), &agents);
            let mut scratch = TickScratch::new();
            let p_stats =
                query_phase_sharded(&b, &mut pool, n_owned, kind, 2, seed, &mut scratch, shard_rows, &mut ShardPool::new(threads));
            prop_assert_eq!(s_stats.nonlocal_writes, p_stats.nonlocal_writes);
            replayed_equals_serial(&serial, &mut pool, n_owned, &scratch)?;
        }
    }

    /// The sharded update phase (spawns, kills, RNG, movement cropping)
    /// must reproduce the serial reference exactly for every thread count:
    /// same survivors, same new states, same spawn ids in the same order.
    #[test]
    fn sharded_update_equals_serial(
        seed in 0u64..10_000,
        n in 1usize..300,
        threads in 1usize..6,
        tick in 0u64..50,
    ) {
        let b = Churn::new();
        let mut serial_agents = random_population(b.schema(), n, seed);
        let mut pool = AgentPool::from_agents(b.schema(), &serial_agents);
        let mut gen_a = AgentIdGen::from(n as u64);
        let mut gen_b = AgentIdGen::from(n as u64);
        let s = update_phase(&b, &mut serial_agents, tick, seed, &mut gen_a);
        let mut scratch = TickScratch::new();
        let (spawned, killed) = sharded_update_applied(&b, &mut pool, tick, seed, &mut gen_b, &mut scratch, &mut ShardPool::new(threads));
        prop_assert_eq!(s.spawned, spawned);
        prop_assert_eq!(s.killed, killed);
        prop_assert_eq!(serial_agents, pool.to_agents());
    }

    /// End to end: a multi-tick simulation stepped under different thread
    /// budgets converges on bitwise-identical worlds (local-effect model,
    /// spawning population crossing shard boundaries).
    #[test]
    fn executor_is_parallelism_invariant_end_to_end(
        seed in 0u64..10_000,
        n in 2usize..120,
        vis in 0.5f64..5.0,
        kind in any_index_kind(),
        threads in 2usize..5,
    ) {
        let run = |parallelism: usize| {
            let b = LocalFloat::new(vis);
            let agents = random_population(b.schema(), n, seed);
            let mut sim =
                Simulation::builder(b).agents(agents).index(kind).seed(seed).parallelism(parallelism).build().unwrap();
            sim.run(6);
            sim.agents()
        };
        prop_assert_eq!(run(1), run(threads));
    }

    /// End to end: the pool-backed sharded executor (persistent scratch,
    /// tile join, columnar effects) produces a world
    /// bit-identical to the `Vec<Agent>` reference path (per-tick pool
    /// conversion, scalar containment loops, serial phases) — across seeds,
    /// models with churn, visibilities and both index kinds.
    #[test]
    fn pool_executor_equals_vec_agent_reference(
        seed in 0u64..10_000,
        n in 2usize..100,
        vis in 0.5f64..5.0,
        kind in any_index_kind(),
        ticks in 1u64..6,
        threads in 1usize..4,
    ) {
        let b = ChurnField::new(vis);
        let mut world = random_population(b.schema(), n, seed);
        let mut sim = Simulation::builder(ChurnField::new(vis))
            .agents(world.clone())
            .index(kind)
            .seed(seed)
            .parallelism(threads)
            .build()
            .unwrap();
        let mut id_gen = AgentIdGen::from(n as u64);
        for tick in 0..ticks {
            sim.step();
            reference_step(&b, &mut world, tick, seed, &mut id_gen);
        }
        prop_assert_eq!(sim.agents(), world);
    }
}

// ---------------------------------------------------------------------------
// Kernel conformance: the spatial layer's lane kernels ≡ their scalar
// definitions, bitwise, the register-resident effect fold ≡ plain writes, and
// the zonal models' blocked query ≡ their per-candidate loop
// (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

use brace_models::{
    EpidemicBehavior, EpidemicParams, FishBehavior, FishParams, FlockObstaclesBehavior, FlockObstaclesParams,
    PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams,
};

/// Point sets that stress the lane kernels' compare/select paths: ordinary
/// coordinates salted with signed zeros, subnormals and coincident pairs
/// (NaN-free — NaN positions are a model bug the executor debug-asserts
/// against).
fn edge_points(n: usize, seed: u64) -> Vec<(Vec2, u32)> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pts: Vec<(Vec2, u32)> =
        (0..n).map(|i| (Vec2::new(rng.range(-40.0, 40.0), rng.range(-40.0, 40.0)), i as u32)).collect();
    for i in 0..n {
        match i % 9 {
            1 => pts[i].0.x = 0.0,
            3 => pts[i].0.y = -0.0,
            5 => pts[i].0.x = f64::from_bits(1),   // smallest subnormal
            7 if i > 0 => pts[i].0 = pts[i - 1].0, // coincident pair
            _ => {}
        }
    }
    pts
}

/// A position for `kernel_zonal_forces_equal_the_candidate_loop`, drawn
/// relative to the querying agent at `me` (personal radius `alpha`, visible
/// radius `rho`): hostile doubles, coincident points, displacements at and
/// around `f64::EPSILON`, squared distances of exactly `alpha²` and `rho²`
/// (and one ulp either side of the radius), ±0.0, distances whose square
/// overflows, ±∞ and NaN coordinates, and ordinary points of the probe
/// square — corners beyond `rho` included.
fn zonal_point(kind: u8, bits: u64, me: Vec2, alpha: f64, rho: f64) -> Vec2 {
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    // Along x or y, by another bit.
    let offset = |d: f64| if bits & 2 == 0 { Vec2::new(me.x + d, me.y) } else { Vec2::new(me.x, me.y + d) };
    let eps = f64::EPSILON;
    match kind {
        0 => Vec2::new(hostile_f64(bits), hostile_f64(bits.rotate_left(29))),
        1 => me,
        2 => offset(
            sign * [eps, eps / 2.0, f64::from_bits(eps.to_bits() + 1), f64::from_bits(eps.to_bits() - 1)]
                [(bits >> 2) as usize % 4],
        ),
        3 => {
            let r = [alpha, rho][(bits >> 2) as usize % 2];
            offset(
                sign * [r, f64::from_bits(r.to_bits() + 1), f64::from_bits(r.to_bits() - 1)][(bits >> 3) as usize % 3],
            )
        }
        4 => Vec2::new(sign * 0.0, if bits & 2 == 0 { 0.0 } else { -0.0 }),
        5 => Vec2::new(me.x + sign * 1e155, me.y - sign * [1e155, 1e308][(bits >> 2) as usize % 2]),
        6 => match (bits >> 2) % 4 {
            0 => Vec2::new(sign * f64::INFINITY, me.y),
            1 => Vec2::new(f64::INFINITY, f64::NEG_INFINITY),
            2 => Vec2::new(f64::NAN, me.y),
            _ => Vec2::new(me.x, f64::NAN),
        },
        _ => {
            // Uniform over the probe square `rho` on a side of `me`.
            let unit = |b: u64| (b >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            Vec2::new(me.x + rho * unit(bits), me.y + rho * unit(bits.rotate_left(32)))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range emission under the build-only contract: `ScanIndex::range` — the
    /// `filter_rect` lane kernel over the scan's own columns — emits exactly
    /// the *sequence* of the naive in-order containment loop, and
    /// `UniformGrid::range` emits the matching set in ascending payload
    /// order. Points carry NaN coordinates on either axis, signed zeros,
    /// subnormals and coincident pairs; rects pass exactly through a point
    /// (closed edges), are empty, or are inverted.
    #[test]
    fn kernel_range_filter_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..170,
        probes in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, -5.0f64..30.0, 0u8..4), 1..8),
    ) {
        // `edge_points` is NaN-free for the executor's sake; an index must
        // still never report a NaN point.
        let mut pts = edge_points(n, seed);
        for (i, p) in pts.iter_mut().enumerate() {
            match i % 11 {
                2 => p.0.x = f64::NAN,
                6 => p.0.y = f64::NAN,
                _ => {}
            }
        }
        let scan = ScanIndex::build(&pts);
        let grid = UniformGrid::build(&pts);
        for (x, y, r, shape) in probes {
            let rect = match shape {
                0 if n > 0 => {
                    // Lower-right corner exactly on a point.
                    let p = pts[x.abs() as usize % n].0;
                    Rect::from_bounds(p.x - r.abs(), p.x, p.y, p.y + r.abs())
                }
                1 => Rect::EMPTY,
                2 => Rect::from_bounds(x + r.abs() + 1.0, x, y, y + r.abs()),
                _ => Rect::centered(Vec2::new(x, y), r), // inverted when r < 0
            };
            let naive: Vec<u32> = pts.iter().filter(|&&(p, _)| rect.contains(p)).map(|&(_, pl)| pl).collect();
            let mut got = Vec::new();
            scan.range(&rect, &mut got);
            prop_assert_eq!(&got, &naive, "scan sequence diverged from the in-order loop");
            let mut ascending = naive;
            ascending.sort_unstable();
            got.clear();
            grid.range(&rect, &mut got);
            prop_assert_eq!(&got, &ascending, "grid emission is not the ascending matching set");
        }
    }

    /// k-NN: the batched gather (squared distances as one lane kernel over
    /// the columns) selects exactly the scalar brute-force sequence —
    /// canonical (distance, payload) order, exclusion respected — for
    /// every index kind, including empty and singleton point sets.
    #[test]
    fn kernel_knn_batched_equals_scalar(
        seed in 0u64..10_000,
        n in 0usize..140,
        k in 1usize..10,
        qx in -50.0f64..50.0,
        qy in -50.0f64..50.0,
        exclude in 0u32..150,
    ) {
        let pts = edge_points(n, seed);
        let q = Vec2::new(qx, qy);
        let exclude = if n == 0 { None } else { Some(exclude % n as u32) };
        // Scalar reference: the exact per-point arithmetic and canonical
        // selection the batched path must reproduce.
        let mut want: Vec<(f64, u32)> = pts
            .iter()
            .filter(|&&(_, pl)| Some(pl) != exclude)
            .map(|&(p, pl)| (p.dist2(q), pl))
            .collect();
        want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        want.truncate(k);
        let want: Vec<u32> = want.into_iter().map(|(_, pl)| pl).collect();
        for (name, got) in [
            ("scan", {
                let mut out = Vec::new();
                ScanIndex::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
            ("grid", {
                let mut out = Vec::new();
                UniformGrid::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
            ("kd", {
                let mut out = Vec::new();
                KdTree::build(&pts).k_nearest_into(q, k, exclude, &mut out);
                out
            }),
        ] {
            prop_assert_eq!(&got, &want, "{} k-NN diverged from scalar reference", name);
        }
    }

    /// The register-resident effect fold: a `(field, value)` stream cut at
    /// arbitrary points into `fold_local`s and runs of plain `local` writes
    /// lands on the bits of the whole stream through `local` — for every
    /// combinator, over signed zeros, infinities, NaNs, subnormals and raw
    /// bit patterns (bitwise; all NaNs alike), from a slot earlier writes
    /// already combined into, on a visible-set table (`slot == me`) and on a
    /// shard table.
    #[test]
    fn kernel_fold_local_equals_local_writes(
        combs in (any_combinator(), any_combinator(), any_combinator()),
        before in prop::collection::vec((0u16..3, any::<u64>()), 0..6),
        stream in prop::collection::vec((0u16..3, any::<u64>(), 0u32..5), 0..64),
        slot in 0u32..3,
        visible in any::<bool>(),
    ) {
        let combs = [combs.0, combs.1, combs.2];
        let schema =
            AgentSchema::builder("F").effect("a", combs[0]).effect("b", combs[1]).effect("c", combs[2]).build().unwrap();
        let fields = [0u16, 1, 2].map(|f| (FieldId::new(f), combs[f as usize]));
        let me = if visible { slot } else { slot + 100 };
        let (mut by_local, mut by_fold) = (EffectTable::new(&schema), EffectTable::new(&schema));
        for (table, folding) in [(&mut by_local, false), (&mut by_fold, true)] {
            table.reset(3);
            let mut w = EffectWriter::with_slot(&schema, table, me, slot);
            for &(f, bits) in &before {
                w.local(FieldId::new(f), hostile_f64(bits));
            }
            // A cut (`0`) ends a run; runs alternate between one fold and
            // plain writes, so both orders of "fold, then local" occur.
            for (i, run) in stream.split(|&(_, _, cut)| cut == 0).enumerate() {
                if folding && i % 2 == 0 {
                    w.fold_local(fields, |acc| {
                        for &(f, bits, _) in run {
                            let (k, v) = (f as usize, hostile_f64(bits));
                            match combs[k] {
                                Combinator::Sum => acc.sum(k, v),
                                Combinator::Prod => acc.prod(k, v),
                                Combinator::Min => acc.min(k, v),
                                Combinator::Max => acc.max(k, v),
                                Combinator::Or => acc.or(k, v),
                                Combinator::And => acc.and(k, v),
                            }
                        }
                    });
                } else {
                    for &(f, bits, _) in run {
                        w.local(FieldId::new(f), hostile_f64(bits));
                    }
                }
            }
            prop_assert_eq!(w.nonlocal_writes(), 0);
        }
        // Bitwise, except that a NaN is any NaN: which operand's payload
        // an operation propagates is the implementation's choice (LLVM may
        // commute `a + b`), in the fold and in `local` alike.
        for r in 0..3 {
            for (x, y) in by_local.row(r).into_iter().zip(by_fold.row(r)) {
                prop_assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()), "row {}: {} vs {}", r, x, y);
            }
        }
    }

    /// The zonal models' query — candidates compressed to the visible disc
    /// in blocks of 32, then unit directions two at a time folded in
    /// registers — folds the bits of the per-candidate loop it replaced
    /// (`candidate_force`, skip beyond ρ, repulsion inside α), restated here
    /// over plain sums, into all eight accumulators: for the fish and
    /// flock-obstacles, from no candidate to past three blocks, with the
    /// querying row anywhere among them (block edges included), over the
    /// positions `zonal_point` draws. A NaN distance stays in, as it always
    /// has (`check_population` admits NaN and infinite positions).
    #[test]
    fn kernel_zonal_forces_equal_the_candidate_loop(
        n_draw in 0usize..160,
        draws in prop::collection::vec((0u8..10, any::<u64>(), any::<u64>(), any::<u64>()), 110..111),
        me_draw in (0u8..7, any::<u64>()),
        me_at in 0usize..200,
    ) {
        let fish = FishBehavior::new(FishParams::default());
        let flock = FlockObstaclesBehavior::new(FlockObstaclesParams::default());
        let zonal: [(&dyn Behavior, f64, f64); 2] = [
            (&fish, fish.params().alpha, fish.params().rho),
            (&flock, flock.params().alpha, flock.params().rho),
        ];
        let (me_kind, me_bits) = me_draw;
        let me_pos = match me_kind {
            0 => Vec2::new(0.0, 0.0),
            1 => Vec2::new(-0.0, -0.0),
            2 => Vec2::new(hostile_f64(me_bits), hostile_f64(me_bits.rotate_left(17))),
            3 => Vec2::new(1e308, -1e308),
            4 => Vec2::new(f64::NEG_INFINITY, 0.0),
            5 => Vec2::new(0.0, f64::NAN),
            _ => Vec2::new((me_bits % 1000) as f64 / 8.0 - 60.0, (me_bits >> 32) as f64 / (1u64 << 32) as f64 * 100.0),
        };
        // Rows `0..n` are the candidates — any count up to past three blocks,
        // a block edge in a third of the draws; the querying row `n` sits
        // among them at `me_at`.
        let n = if n_draw < 111 { n_draw } else { [31, 32, 33, 63, 64, 65, 96, 97][n_draw % 8] };
        let me_at = if me_at < 120 { me_at % (n + 1) } else { [0, 31, 32, 33, 63, 64, 65, 96][me_at % 8].min(n) };
        let mut cands: Vec<u32> = (0..n as u32).collect();
        cands.insert(me_at, n as u32);
        for (b, alpha, rho) in zonal {
            let schema = b.schema();
            let agents: Vec<Agent> = (0..=n)
                .map(|i| {
                    let (kind, bits, hx, hy) = draws[i % draws.len()];
                    let pos = if i < n { zonal_point(kind, bits, me_pos, alpha, rho) } else { me_pos };
                    let mut a = Agent::new(AgentId::new(i as u64), pos, schema);
                    a.state[0] = hostile_f64(hx);
                    a.state[1] = hostile_f64(hy);
                    a
                })
                .collect();
            let pool = AgentPool::from_agents(schema, &agents);
            let view = pool.view();
            let me = n as u32;
            let mut table = EffectTable::new(schema);
            table.reset(n + 1);
            let mut w = EffectWriter::new(schema, &mut table, me);
            // The candidates' positions, gathered from `agents` as the join
            // would carry them.
            let xs: Vec<f64> = cands.iter().map(|&c| agents[c as usize].pos.x).collect();
            let ys: Vec<f64> = cands.iter().map(|&c| agents[c as usize].pos.y).collect();
            let nbrs = Neighbors::new(view, &cands, &xs, &ys, me);
            b.query(view.agent(me), &nbrs, &mut w, &mut DetRng::seed_from_u64(0));
            // The per-candidate loop, accumulator `k` being effect slot `k`.
            let (alpha2, rho2) = (alpha * alpha, rho * rho);
            let mut want = [0.0f64; 8];
            for &c in cands.iter().filter(|&&c| c != me) {
                let nb = &agents[c as usize];
                let (d2, ux, uy) = candidate_force(me_pos.x, me_pos.y, nb.pos.x, nb.pos.y);
                if d2 > rho2 {
                    continue;
                }
                if d2 <= alpha2 {
                    want[0] += -ux;
                    want[1] += -uy;
                    want[6] += 1.0;
                } else {
                    want[2] += ux;
                    want[3] += uy;
                    want[4] += nb.state[0];
                    want[5] += nb.state[1];
                    want[7] += 1.0;
                }
            }
            // Bitwise, except that a NaN is any NaN (see
            // `kernel_fold_local_equals_local_writes`).
            let got = table.row(me);
            for k in 0..8 {
                prop_assert!(
                    got[k].to_bits() == want[k].to_bits() || (got[k].is_nan() && want[k].is_nan()),
                    "{} accumulator {}: {} vs {} (n {}, querying row at {})", schema.name(), k, got[k], want[k], n, me_at
                );
            }
        }
    }

    /// A join block's order: `block_order` puts distinct id ranks in
    /// ascending order and maps each to its row exactly as `sort_unstable`
    /// followed by the map does — by rank placement at 0..=40 ranks (across
    /// its 8-, 16- and 32-wide buffers and past them) and by the byte radix
    /// at 33..=700, over rank ranges that need one, two and three radix
    /// bytes, through one scatter buffer reused from call to call.
    #[test]
    fn kernel_block_order_equals_sort(
        seed in any::<u64>(),
        short in 0usize..41,
        long in 33usize..701,
        range in prop::sample::select(vec![256u32, 40_000, 200_000]),
    ) {
        let mut rng = DetRng::seed_from_u64(seed).stream(0xB10C);
        // An odd multiplier is a bijection: distinct ranks name distinct rows.
        let by_id: Vec<u32> = (0..range).map(|rank| rank.wrapping_mul(0x9E37_79B1)).collect();
        let mut spare = vec![7; 5];
        for len in [short, long.min(range as usize)] {
            let mut seen = std::collections::HashSet::new();
            let ranks: Vec<u32> = std::iter::repeat_with(|| rng.below(range as u64) as u32)
                .filter(|&rank| seen.insert(rank))
                .take(len)
                .collect();
            let mut want = ranks.clone();
            want.sort_unstable();
            want.iter_mut().for_each(|rank| *rank = by_id[*rank as usize]);
            let mut got = ranks;
            block_order(&mut got, &by_id, &mut spare);
            prop_assert_eq!(got, want, "{} ranks below {}", len, range);
        }
    }

    /// The probe order through [`TileDirectory::sort`] against the radix
    /// sort by tile offset it falls back to and against a comparison sort by
    /// `(ty, tx, id rank)`, rows fed in id-rank order: equal on both sides of
    /// the directory's budget (8 tiles per visible row plus 4 096), and the
    /// directory is built exactly when the occupied box fits it. Boxes from
    /// one tile to past the budget, exactly at it or one tile-row over it,
    /// boxes at the ends of `i64`, an outlier 10⁹ tiles out and saturated
    /// tiles; one directory and one scatter buffer reused across draws.
    #[test]
    fn kernel_tile_directory_sort_equals_radix_probe_order(
        seeds in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let (mut directory, mut spare) = (TileDirectory::default(), Vec::new());
        for world in seeds.into_iter().map(tile_world) {
            let mut got = world.cells.clone();
            directory.sort(&mut got, &mut spare);
            let mut radix = world.cells.clone();
            let (lo, hi) = (world.lo(), world.hi());
            radix_sort_by_key(&mut radix, &mut Vec::new(), |c| {
                ((c.ty.wrapping_sub(lo.0) as u64 as u128) << 64) | c.tx.wrapping_sub(lo.1) as u64 as u128
            });
            let mut compared = world.cells.clone();
            compared.sort_by_key(|c| (c.ty, c.tx, c.rank));
            prop_assert_eq!(&got, &radix);
            prop_assert_eq!(&got, &compared);
            prop_assert_eq!(directory.is_built(), world.fits(), "box {:?}..={:?} of {} rows", lo, hi, got.len());
        }
    }

    /// Every window three ways — off the directory, by the galloping seek
    /// from carried and arbitrary cursors, and by a brute-force scan of the
    /// sorted rows — the same id ranks in the same order. Windows are
    /// lopsided, wider than 3 tiles, shrunk to one tile (or inverted) and
    /// partly or wholly outside the occupied box; worlds over the budget
    /// check the seek alone.
    #[test]
    fn kernel_tile_directory_window_equals_seek_and_scan(
        seed in any::<u64>(),
        windows in prop::collection::vec((any::<u64>(), (-6i64..3, -6i64..3), (-2i64..7, -2i64..7)), 1..24),
        hints in (0usize..400, 0usize..400, 0usize..400),
    ) {
        let world = tile_world(seed);
        let (mut directory, mut cells) = (TileDirectory::default(), world.cells.clone());
        directory.sort(&mut cells, &mut Vec::new());
        let (box_lo, box_hi) = (world.lo(), world.hi());
        let mut cursors = [hints.0, hints.1, hints.2];
        for &(at, (dy0, dx0), (dy1, dx1)) in &windows {
            // Anchor on a row's tile, or anywhere within 8 tiles of the box
            // (which may saturate).
            let anchor = match at % 3 {
                0 => cells.get((at >> 2) as usize % cells.len().max(1)).map_or((0, 0), ProbeKey::tile),
                _ => {
                    let wobble = |v: u64| (v % 17) as i64 - 8;
                    let (y, x) = if at & 4 == 0 { box_lo } else { box_hi };
                    (y.saturating_add(wobble(at >> 3)), x.saturating_add(wobble(at >> 8)))
                }
            };
            let lo = (anchor.0.saturating_add(dy0), anchor.1.saturating_add(dx0));
            let hi = (anchor.0.saturating_add(dy1), anchor.1.saturating_add(dx1));
            let scanned: Vec<u32> = cells
                .iter()
                .filter(|c| (lo.0..=hi.0).contains(&c.ty) && (lo.1..=hi.1).contains(&c.tx))
                .map(|c| c.rank)
                .collect();
            let mut sought = Vec::new();
            seek_window(&cells, lo, hi, &mut cursors, &mut sought);
            prop_assert_eq!(&sought, &scanned, "seek, window {:?}..={:?}", lo, hi);
            let mut fresh = Vec::new();
            seek_window(&cells, lo, hi, &mut [at as usize % 500; 3], &mut fresh);
            prop_assert_eq!(&fresh, &scanned, "seek from hint {}, window {:?}..={:?}", at as usize % 500, lo, hi);
            if directory.is_built() {
                let mut read = vec![u32::MAX];
                directory.window(lo, hi, &mut read);
                let what = format!("directory, window {lo:?}..={hi:?} of box {box_lo:?}..={box_hi:?}");
                prop_assert_eq!(&read[1..], &scanned[..], "{}", what);
            }
        }
    }
}

/// A drawn world for the tile-directory properties: its rows in id-rank
/// order (the order the probe order is fed in), rows a bijection of ranks.
#[derive(Debug, Clone)]
struct TileWorld {
    cells: Vec<ProbeKey>,
}

impl TileWorld {
    fn lo(&self) -> (i64, i64) {
        self.cells.iter().fold((i64::MAX, i64::MAX), |lo, c| (lo.0.min(c.ty), lo.1.min(c.tx)))
    }

    fn hi(&self) -> (i64, i64) {
        self.cells.iter().fold((i64::MIN, i64::MIN), |hi, c| (hi.0.max(c.ty), hi.1.max(c.tx)))
    }

    /// Whether the occupied box holds at most 8 tiles per row plus 4 096.
    fn fits(&self) -> bool {
        let (lo, hi) = (self.lo(), self.hi());
        let span = |lo: i64, hi: i64| hi as i128 - lo as i128 + 1;
        let tiles = span(lo.0, hi.0).checked_mul(span(lo.1, hi.1));
        !self.cells.is_empty() && tiles.is_some_and(|tiles| tiles <= 8 * self.cells.len() as i128 + 4096)
    }
}

/// The world `seed` draws: 0–300 rows in a `w × h` tile box anchored near 0
/// or at either end of `i64` — boxes up to 120 × 120 tiles (both sides of
/// the budget), a box of exactly the budget or one tile-row over it — and
/// worlds with an outlier 10⁹ tiles out or a tile saturated at
/// `(i64::MIN, i64::MAX)`. Two rows sit on the box's corners, so it is the
/// occupied box; every fifth row shares its predecessor's tile.
fn tile_world(seed: u64) -> TileWorld {
    let mut rng = DetRng::seed_from_u64(seed).stream(0x7D12);
    let n = rng.below(301) as usize;
    let (w, h) = (1 + rng.below(120) as i64, 1 + rng.below(120) as i64);
    let shape = rng.below(6);
    let (w, h) = match shape {
        // Exactly at the budget, or one tile-row past it.
        3 => (w, (8 * n as i64 + 4096) / w + rng.below(2) as i64),
        _ => (w, h),
    };
    let y0 = match rng.below(3) {
        0 => rng.range(-500.0, 500.0) as i64,
        1 => i64::MIN,
        _ => i64::MAX - (h - 1),
    };
    let x0 = rng.range(-500.0, 500.0) as i64;
    let mut tiles: Vec<(i64, i64)> = Vec::with_capacity(n);
    for i in 0..n {
        let tile = match i {
            0 => (y0, x0),
            1 => (y0 + (h - 1), x0 + (w - 1)),
            _ if i % 5 == 0 => tiles[i - 1],
            _ => (y0 + rng.below(h as u64) as i64, x0 + rng.below(w as u64) as i64),
        };
        tiles.push(tile);
    }
    match (shape, tiles.last_mut()) {
        (4, Some(last)) => last.1 = last.1.saturating_add(1_000_000_000),
        (5, Some(last)) => *last = (i64::MIN, i64::MAX),
        _ => {}
    }
    // Rows: an odd multiplier is a bijection, so distinct ranks name
    // distinct rows.
    let row = |rank: usize| (rank as u32).wrapping_mul(0x9E37_79B1);
    let cells = tiles
        .iter()
        .enumerate()
        .map(|(rank, &(ty, tx))| ProbeKey { ty, tx, row: row(rank), rank: rank as u32 })
        .collect();
    TileWorld { cells }
}

/// Decode random bits into the doubles a float fold is sensitive to: one
/// draw in eight each of −0.0, ±∞, NaN, a subnormal and a raw bit pattern
/// (any NaN payload, any exponent); ordinary magnitudes otherwise.
fn hostile_f64(bits: u64) -> f64 {
    match bits % 8 {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::NAN,
        4 => f64::from_bits(bits >> 12 | bits & 1 << 63),
        5 => f64::from_bits(bits),
        _ => ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e3,
    }
}

// ---------------------------------------------------------------------------
// The sort-merge tile join: the tile-ordered query loop — blocks read off the
// probe order, no index; non-local effects through the write-log — and the
// scan ≡ one scalar containment loop per row in id order, bitwise
// (named `kernel_*` so CI's PROPTEST_CASES=256 step reruns them)
// ---------------------------------------------------------------------------

use brace_core::executor::SHARD_ROWS;
use brace_spatial::IndexKind;

/// The shard granules the probe-group properties sweep: one row per shard
/// (every tile split), a granule that cuts tiles at odd places, and the
/// production granule (one shard at these sizes).
fn any_shard_granule() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1, 7, SHARD_ROWS])
}

fn any_thread_budget() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1, 3])
}

/// An `x` just below a tile edge whose probe rect reaches **two** tiles up:
/// `fl(x + vis)` rounds onto the next edge, so `tile(x + vis) = tile(x) + 2`
/// and an agent sitting exactly there is inside `x`'s closed visibility
/// square. A join that assumed a 3×3 neighbourhood would miss it. For a few
/// visibilities in a thousand no edge below 2¹⁶·vis rounds up: `None`.
fn two_tile_reach(vis: f64) -> Option<f64> {
    let tile = |v: f64| (v / vis).floor() as i64;
    (1..1 << 16).map(|k| (k as f64 * vis).next_down()).find(|&x| tile(x + vis) == tile(x) + 2)
}

/// Re-draw `world`'s positions so the tile join meets its edge cases:
/// negative and mixed-sign coordinates, agents exactly on tile edges and
/// corners (tile side = `vis`), coincident points, a pair whose rect reaches
/// two tiles over ([`two_tile_reach`]), and one agent 10⁹ units away (the
/// probe order must not allocate per cell to get there).
fn tile_edge_geometry(world: &mut [Agent], vis: f64, spread: f64, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed).stream(0x71E5);
    let snap = |v: f64| (v / vis).round() * vis;
    for i in 0..world.len() {
        let p = Vec2::new(rng.range(-spread, spread), rng.range(-spread, spread));
        world[i].pos = match i % 7 {
            1 => Vec2::new(snap(p.x), p.y),
            2 => Vec2::new(p.x, snap(p.y)),
            3 => Vec2::new(snap(p.x), snap(p.y)),
            5 => world[i - 1].pos,
            _ => p,
        };
    }
    if let ([a, b, ..], Some(x)) = (&mut *world, two_tile_reach(vis)) {
        // Along x on even seeds, along y on odd ones.
        let place = |along: f64| {
            if seed.is_multiple_of(2) {
                Vec2::new(along, 0.25 * vis)
            } else {
                Vec2::new(0.25 * vis, along)
            }
        };
        (a.pos, b.pos) = (place(x), place(x + vis));
    }
    if let Some(far) = world.last_mut() {
        far.pos = Vec2::new(1e9, -1e9);
    }
}

/// Re-draw `world`'s positions as sparse tile-rows, where a probe group is a
/// strip of several tiles: about one agent per occupied tile (every fifth
/// shares its predecessor's), occupied tiles 1, 2 and 3 tiles apart along a
/// row (strips join across gaps of 1 and 2 and split at 3), tile `-1` always
/// occupied (`Lopsided`'s inverted band), agents on tile edges, and three
/// 1-D rows with empty tile-rows between them: a road at `y = 0`, one exactly
/// on the tile edge `y = -3·vis`, and one at `y = 4.5·vis` (`Lopsided`'s
/// wide band). Shard granules 1 and 7 cut these strips at slice boundaries.
fn sparse_strip_geometry(world: &mut [Agent], vis: f64, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed).stream(0x5791);
    let rows = [0.0, -3.0 * vis, 4.5 * vis];
    let gaps = [1, 2, 3];
    let phase = (seed % 3) as usize;
    // Three advances (one gap of each size) from -7 reach tile -1.
    let mut tile = [-7i64, -13, -7];
    let mut placed = [0usize; 3];
    for (i, agent) in world.iter_mut().enumerate() {
        let r = i % 3;
        let j = placed[r];
        placed[r] += 1;
        if j > 0 && j % 5 != 4 {
            tile[r] += gaps[(phase + j - j / 5) % 3];
        }
        let within = if j % 4 == 1 { 0.0 } else { rng.range(0.0, 1.0) };
        agent.pos = Vec2::new((tile[r] as f64 + within) * vis, rows[r]);
    }
}

/// The join's two stress geometries: sparse strips, or tile edges
/// ([`tile_edge_geometry`] at `spread`).
fn join_geometry(world: &mut [Agent], vis: f64, spread: f64, seed: u64, sparse: bool) {
    if sparse {
        sparse_strip_geometry(world, vis, seed);
    } else {
        tile_edge_geometry(world, vis, spread, seed);
    }
}

/// `ticks` ticks of the production phases — the probe-group query loop at
/// an explicit shard granule and thread budget, its replay, then the sharded
/// update — from `world`.
#[allow(clippy::too_many_arguments)]
fn grouped_ticks<B: Behavior>(
    b: &B,
    world: &[Agent],
    kind: IndexKind,
    shard_rows: usize,
    threads: usize,
    ticks: u64,
    seed: u64,
) -> Vec<Agent> {
    let mut pool = AgentPool::from_agents(b.schema(), world);
    let mut scratch = TickScratch::new();
    let mut id_gen = AgentIdGen::from(world.iter().map(|a| a.id.raw() + 1).max().unwrap_or(0));
    let mut fanout = ShardPool::new(threads);
    for tick in 0..ticks {
        let n = pool.len();
        query_phase_sharded(b, &mut pool, n, kind, tick, seed, &mut scratch, shard_rows, &mut fanout);
        replay_effects(&mut pool, &scratch, &mut []);
        sharded_update_applied(b, &mut pool, tick, seed, &mut id_gen, &mut scratch, &mut fanout);
    }
    pool.to_agents()
}

/// The same ticks through the row-oriented oracle: one scalar containment
/// loop over the visible rows per row, in id order.
fn reference_ticks<B: Behavior>(b: &B, world: &[Agent], ticks: u64, seed: u64) -> Vec<Agent> {
    let mut world = world.to_vec();
    let mut id_gen = AgentIdGen::from(world.iter().map(|a| a.id.raw() + 1).max().unwrap_or(0));
    for tick in 0..ticks {
        reference_step(b, &mut world, tick, seed, &mut id_gen);
    }
    world
}

/// Local float model whose probe rect is lopsided and position-dependent —
/// *inverted* (empty, but not `Rect::EMPTY`) for agents in the band
/// `-vis ≤ x < 0`, and *wider than the visibility square* (up to five tiles
/// across) for agents with `y ≥ 2·vis`. What the pushdown contract asks of a real model (ignore
/// what the rect excludes, never look past the visibility bound) is moot
/// here: both sides probe with the same rect.
struct Lopsided(AgentSchema);

impl Lopsided {
    fn new(vis: f64) -> Self {
        Lopsided(
            AgentSchema::builder("Lopsided")
                .state("w")
                .effect("sum", Combinator::Sum)
                .effect("near", Combinator::Min)
                .effect("n", Combinator::Sum)
                .visibility(vis)
                .reachability(vis * 0.25)
                .build()
                .unwrap(),
        )
    }
}

impl Behavior for Lopsided {
    fn schema(&self) -> &AgentSchema {
        &self.0
    }

    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        if (-vis..0.0).contains(&pos.x) {
            return Rect::new(pos + Vec2::new(1.0, 1.0), pos - Vec2::new(1.0, 1.0));
        }
        if pos.y >= 2.0 * vis {
            return Rect::from_bounds(pos.x - 2.5 * vis, pos.x + 1.5 * vis, pos.y - vis, pos.y + 2.0 * vis);
        }
        Rect::from_bounds(pos.x - 0.25 * vis, pos.x + vis, pos.y - 0.5 * vis, pos.y + 0.75 * vis)
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let me = me.pos();
        for nb in nbrs.iter() {
            let p = nb.agent.pos();
            let (dx, dy) = (p.x - me.x, p.y - me.y);
            let d2 = dx * dx + dy * dy;
            eff.local(FieldId::new(0), nb.agent.state(0) / (1.0 + d2));
            eff.local(FieldId::new(1), d2);
            eff.local(FieldId::new(2), 1.0);
        }
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let pull = me.effect(FieldId::new(0)) / me.effect(FieldId::new(2)).max(1.0);
        me.state[0] = 0.5 * me.state[0] + pull;
        me.pos += Vec2::new(ctx.rng.range(-1.0, 1.0), pull.min(1.0));
    }
}

/// Send one drawn agent ≈ 10⁹ units out in a drawn direction, shuffle
/// `world`, swap-churn the pool built from it, own the first `owned_frac` of
/// its rows, and compare the sharded query phase and its replay against the
/// serial reference on that very pool: visit counts, and every row's effects
/// bit for bit — owned rows against the replay, which walks them in id order
/// like the reference, replica rows against the writes handed out for them.
/// The outlier makes the probe order's tile keys vary in several more bytes,
/// so the radix sort takes its many-pass path. Returns the queried pool and
/// its owned-row count.
#[allow(clippy::too_many_arguments)]
fn worker_shaped_pool_equals_serial<B: Behavior>(
    b: &B,
    mut world: Vec<Agent>,
    owned_frac: f64,
    kind: IndexKind,
    shard_rows: usize,
    threads: usize,
    seed: u64,
) -> Result<(AgentPool, usize), String> {
    let n = world.len();
    let mut rng = DetRng::seed_from_u64(seed).stream(0x5A9);
    let outlier = rng.below(n as u64) as usize;
    let (dx, dy) =
        [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
            [rng.below(8) as usize];
    let far = rng.range(1e9, 2e9);
    world[outlier].pos += Vec2::new(dx * far, dy * far);
    for i in (1..n).rev() {
        world.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let churned = || {
        let mut pool = AgentPool::from_agents(b.schema(), &world);
        let mut rng = DetRng::seed_from_u64(seed).stream(0xC4);
        for _ in 0..n / 5 {
            // Swap-removal: the last row fills the hole.
            let hole = rng.below(pool.len() as u64) as u32;
            pool.copy_row_within(pool.len() as u32 - 1, hole);
            pool.pop_row();
        }
        pool
    };
    let serial_pool = churned();
    let rows = serial_pool.len();
    let n_owned = ((rows as f64 * owned_frac) as usize).max(1);
    let mut serial = EffectTable::new(b.schema());
    let s_stats = query_phase(b, &serial_pool, n_owned, &mut serial, 2, seed);
    let mut pool = churned();
    let mut scratch = TickScratch::new();
    let p_stats = query_phase_sharded(
        b,
        &mut pool,
        n_owned,
        kind,
        2,
        seed,
        &mut scratch,
        shard_rows,
        &mut ShardPool::new(threads),
    );
    if (s_stats.neighbor_visits, s_stats.nonlocal_writes) != (p_stats.neighbor_visits, p_stats.nonlocal_writes) {
        return Err(format!("counters differ: {s_stats:?} vs {p_stats:?}"));
    }
    replayed_equals_serial(&serial, &mut pool, n_owned, &scratch)?;
    Ok((pool, n_owned))
}

/// Re-draw `world`'s positions so that join blocks come both long and short:
/// every other agent inside one crowded tile (tile side `vis`), the rest
/// alone, twenty tiles apart along a tile-row of their own. Both stay clear of
/// `Lopsided`'s inverted and wide bands, so every probe rect holds its own
/// agent.
fn crowded_and_lone_geometry(world: &mut [Agent], vis: f64, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed).stream(0xC20D);
    for (i, agent) in world.iter_mut().enumerate() {
        agent.pos = if i % 2 == 0 {
            Vec2::new(rng.range(0.25, 0.75) * vis, rng.range(0.25, 0.75) * vis)
        } else {
            Vec2::new((10 * i) as f64 * vis + 0.5 * vis, -20.5 * vis)
        };
    }
}

/// Re-draw `world`'s positions into one to three crowded tiles (tile side
/// `vis`), side by side or diagonal, so that a few hundred agents make every
/// member's visible square hold a hundred or more candidates: several
/// compress blocks of the zonal fold and a lane tail. Every eleventh agent
/// sits on its predecessor, every seventh on a tile edge.
fn crowded_tiles_geometry(world: &mut [Agent], vis: f64, seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed).stream(0xC70D);
    let tiles = [(0.0, 0.0), (1.0, 0.0), (-1.0, -1.0)];
    let used = 1 + (seed % 3) as usize;
    for i in 0..world.len() {
        let (tx, ty) = tiles[i % used];
        let (u, v) = (rng.range(0.0, 1.0), rng.range(0.0, 1.0));
        world[i].pos = if i % 11 == 10 {
            world[i - 1].pos
        } else if i % 7 == 3 {
            Vec2::new(tx * vis, (ty + v) * vis)
        } else {
            Vec2::new((tx + u) * vis, (ty + v) * vis)
        };
    }
}

fn lopsided_world(b: &Lopsided, n: usize, vis: f64, seed: u64, sparse: bool) -> Vec<Agent> {
    let mut rng = DetRng::seed_from_u64(seed).stream(0x10B5);
    let mut world: Vec<Agent> = (0..n)
        .map(|i| {
            let mut a = Agent::new(AgentId::new(i as u64), Vec2::ZERO, b.schema());
            a.state[0] = rng.range(0.1, 2.0);
            a
        })
        .collect();
    join_geometry(&mut world, vis, 4.0 * vis, seed, sparse);
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fish (square rect, float sums through the register fold): the joined
    /// loop equals the row-oriented oracle bit for bit over multi-tick runs
    /// on tile-edge and sparse-strip geometry (every property below draws
    /// both) and on a few crowded tiles, where each member's candidates run
    /// to several 32-candidate compress blocks and a lane tail, for every
    /// index kind, shard granule and thread budget.
    #[test]
    fn kernel_tile_join_fish_equals_reference(
        seed in 0u64..10_000,
        n in 0usize..110,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
        geometry in 0u8..3,
    ) {
        let params = FishParams::default();
        let b = FishBehavior::new(params.clone());
        let crowded = geometry == 2;
        let mut world = b.population(if crowded { 200 + 2 * n } else { n }, seed);
        if crowded {
            crowded_tiles_geometry(&mut world, params.rho, seed);
        } else {
            join_geometry(&mut world, params.rho, 3.0 * params.rho, seed, geometry == 1);
        }
        let got = grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &reference_ticks(&b, &world, ticks, seed))?;
    }

    /// Traffic in its range form (a 1-D road: tiles are road segments, lane
    /// changes and exit/respawn churn the rows), spread along the road or
    /// jammed into a few dense tiles.
    #[test]
    fn kernel_tile_join_traffic_equals_reference(
        seed in 0u64..10_000,
        lanes in 1usize..4,
        density in 0.005f64..0.03,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
        jammed in any::<bool>(),
    ) {
        let params = TrafficParams { segment: 900.0, lanes, density, ..TrafficParams::default() };
        let b = TrafficBehavior::new(params.clone());
        let mut world = b.population(seed);
        if jammed {
            // Every car in one of three jams a few metres long; lanes kept.
            for (i, a) in world.iter_mut().enumerate() {
                a.pos.x = [100.0, 420.0, 760.0][i % 3] + (i / 3 % 8) as f64;
            }
        } else {
            // Cars exactly on tile edges (tile side = the lookahead).
            for (i, a) in world.iter_mut().enumerate().filter(|(i, _)| i % 4 == 0) {
                a.pos.x = (i % 5) as f64 * params.lookahead;
            }
        }
        let got = grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &reference_ticks(&b, &world, ticks, seed))?;
    }

    /// The BRASIL car script: visibility-predicate pushdown makes its probe
    /// rect non-square (leaders only: `[x, x + 40]`), so members of one tile
    /// ask for different, overlapping strips of the shared block. Each member
    /// runs the script's one register program over its candidate rows
    /// (`brasil_vm_equals_reference` holds that program to the tree-walking
    /// specification).
    #[test]
    fn kernel_tile_join_brasil_car_equals_reference(
        seed in 0u64..10_000,
        n in 0usize..90,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
        sparse in any::<bool>(),
    ) {
        let b = brace_models::scripts::car_following().unwrap();
        let mut rng = DetRng::seed_from_u64(seed).stream(0xCA12);
        let mut world: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::ZERO, b.schema());
                a.state[0] = rng.range(15.0, 25.0);
                a
            })
            .collect();
        join_geometry(&mut world, b.schema().visibility(), 250.0, seed, sparse);
        let got = grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &reference_ticks(&b, &world, ticks, seed))?;
    }

    /// Lopsided, empty and wider-than-visibility probe rects, with a
    /// population that moves across tile edges between ticks.
    #[test]
    fn kernel_tile_join_lopsided_empty_and_wide_rects_equal_reference(
        seed in 0u64..10_000,
        n in 0usize..130,
        vis in 0.5f64..6.0,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
        sparse in any::<bool>(),
    ) {
        let b = Lopsided::new(vis);
        let world = lopsided_world(&b, n, vis, seed, sparse);
        let got = grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &reference_ticks(&b, &world, ticks, seed))?;
    }

    /// Predator (non-local float sums, local and remote writes into the
    /// same tick): swept in tile order through the write-log and replayed
    /// once, in source-id order — row order on this id-ordered pool. At
    /// every granule — sweep slices cutting tiles included — and both thread
    /// budgets the loop equals the oracle bit for bit, with bites, deaths and
    /// spawns.
    #[test]
    fn kernel_tile_join_predator_replays_in_row_order(
        seed in 0u64..10_000,
        n in 0usize..100,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        ticks in 1u64..4,
        sparse in any::<bool>(),
    ) {
        let params = PredatorParams { nonlocal: true, ..PredatorParams::default() };
        let b = PredatorBehavior::new(params.clone());
        let mut world = b.population(n, 12.0, seed);
        join_geometry(&mut world, params.reach, 3.0 * params.reach, seed, sparse);
        let want = reference_ticks(&b, &world, ticks, seed);
        // Worlds only see `hurt` through the death threshold; the effect
        // tables show every bit of its association.
        let mut serial_table = EffectTable::new(b.schema());
        query_phase(&b, &AgentPool::from_agents(b.schema(), &world), n, &mut serial_table, 0, seed);
        for threads in [1, 3] {
            worlds_bit_identical(&grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed), &want)?;
            let mut pool = AgentPool::from_agents(b.schema(), &world);
            let mut scratch = TickScratch::new();
            query_phase_sharded(&b, &mut pool, n, kind, 0, seed, &mut scratch, shard_rows, &mut ShardPool::new(threads));
            replayed_equals_serial(&serial_table, &mut pool, n, &scratch)?;
        }
    }

    /// Epidemic (non-local integer sums: exactly associative): the same
    /// write-log path equals the oracle at *every* granule and thread budget.
    #[test]
    fn kernel_tile_join_epidemic_equals_reference(
        seed in 0u64..10_000,
        n in 0usize..120,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
        sparse in any::<bool>(),
    ) {
        let params = EpidemicParams { seeds: 40, beta: 0.6, ..EpidemicParams::default() };
        let b = EpidemicBehavior::new(params.clone());
        let mut world = b.population(n, seed);
        join_geometry(&mut world, params.radius, 3.0 * params.radius, seed, sparse);
        let got = grouped_ticks(&b, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &reference_ticks(&b, &world, ticks, seed))?;
    }

    /// A distributed worker's pool: rows in no id order (shuffled, then
    /// swap-churned) and one agent ≈ 10⁹ units out, with a replica tail that
    /// joins the probe order and every block but never queries. The id order
    /// is a radix sort, each block's ascending id ranks put it in ascending
    /// id, and tile-mates are swept in id order, not row order; the tables
    /// must equal the serial reference's bit for bit. A third of the draws
    /// are crowded: 120 more agents, half of them in one tile, so that
    /// blocks of more than 32 rows take the block order's radix arm and the
    /// lone agents' blocks of one row its 8-wide placement, on this pool.
    #[test]
    fn kernel_tile_join_on_a_worker_shaped_pool_equals_serial(
        seed in 0u64..10_000,
        n in 2usize..140,
        owned_frac in 0.3f64..1.0,
        vis in 0.5f64..6.0,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        geometry in 0u8..3,
    ) {
        let b = Lopsided::new(vis);
        let crowded = geometry == 2;
        let mut world = lopsided_world(&b, if crowded { n + 120 } else { n }, vis, seed, geometry == 1);
        if crowded {
            crowded_and_lone_geometry(&mut world, vis, seed);
        }
        let (pool, n_owned) = worker_shaped_pool_equals_serial(&b, world, owned_frac, kind, shard_rows, threads, seed)?;
        if crowded {
            // A member's block holds every row of its own tile, and a lone
            // member's no row more than two tiles away.
            let tile = |row: usize| {
                let p = pool.pos(row as u32);
                ((p.x / vis).floor() as i64, (p.y / vis).floor() as i64)
            };
            let tiles: Vec<(i64, i64)> = (0..pool.len()).map(tile).collect();
            let within = |row: usize, reach: u64| {
                let (tx, ty) = tiles[row];
                tiles.iter().filter(|&&(x, y)| x.abs_diff(tx) <= reach && y.abs_diff(ty) <= reach).count()
            };
            prop_assert!((0..n_owned).any(|row| within(row, 0) > 32), "no owned row's block exceeds 32 rows");
            prop_assert!((0..n_owned).any(|row| within(row, 2) <= 8), "no owned row's block holds 8 rows or fewer");
        }
    }

    /// The same pool under non-local schemas, where replica rows *receive*
    /// writes (what a worker ships to their owners) and the replay walks the
    /// writers in id order, not row order: exactly associative effects,
    /// float sums, and remote and local-only fields side by side, all at
    /// the drawn granule.
    #[test]
    fn kernel_tile_join_on_a_worker_shaped_pool_equals_serial_for_nonlocal_effects(
        seed in 0u64..10_000,
        n in 2usize..140,
        owned_frac in 0.3f64..1.0,
        vis in 0.5f64..6.0,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        sparse in any::<bool>(),
    ) {
        let exact = NonlocalExact::new(vis);
        let mut world = random_population(exact.schema(), n, seed);
        join_geometry(&mut world, vis, 4.0 * vis, seed, sparse);
        worker_shaped_pool_equals_serial(&exact, world, owned_frac, kind, shard_rows, threads, seed)?;
        let float = NonlocalFloat::new(vis);
        let mut world = random_population(float.schema(), n, seed);
        join_geometry(&mut world, vis, 4.0 * vis, seed, sparse);
        worker_shaped_pool_equals_serial(&float, world, owned_frac, kind, shard_rows, threads, seed)?;
        let mixed = NonlocalMixed::new(vis);
        let mut world = random_population(mixed.schema(), n, seed);
        join_geometry(&mut world, vis, 4.0 * vis, seed, sparse);
        worker_shaped_pool_equals_serial(&mixed, world, owned_frac, kind, shard_rows, threads, seed)?;
    }
}

// ---------------------------------------------------------------------------
// BRASIL: the register program ≡ the tree-walking specification, bitwise
// (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// Hand-written scripts, one per corner of the semantics the register
/// program must carry over from the tree walker (`brasil::vm` module docs).
/// Every class has the state fields `s` and `t`, so one population fits all.
const BRASIL_EDGE_SCRIPTS: [(&str, &str); 17] = [
    // A source `const` that goes NaN per candidate (0/0 for coincident
    // agents) is NIL from there on: `min`/`max`/comparisons would have
    // swallowed a NaN, and an `if` on it skips both branches.
    (
        "body const goes NaN",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a + b;
            public state float t : c;
            private effect float a : sum;
            private effect float b : max;
            private effect float c : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    const float d = (x - p.x) / abs(x - p.x);
                    a <- min(d, 0.5);
                    if (d > 0) { b <- d; } else { c <- 1; }
                    if (d > 0 || p.s > s) { c <- 2; } else { c <- 4; }
                    if (p.s > s || d > 0) { c <- 8; } else { c <- 16; }
                    if (p.s > s && d > 0) { c <- 32; } else { c <- 64; }
                    if (d > 0 && p.s > s) { c <- 128; } else { c <- 256; }
                }
            }
        }"#,
    ),
    // The same from a prelude binding (NIL for agents with s = 0), read by
    // the body, by a branch around the loop and by a loop inside a branch.
    (
        "prelude const goes NaN",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : s + a;
            public state float t : b;
            private effect float a : sum;
            private effect float b : sum;
            public void run() {
                const float r = s / s;
                foreach (A p : Extent<A>) {
                    a <- max(r, 0.25) * 0.001;
                    if (r > 0) { b <- 1; } else { b <- 100; }
                }
                if (r > 0) {
                    foreach (A q : Extent<A>) { b <- 0.5 + r; }
                } else {
                    b <- 1000;
                }
            }
        }"#,
    ),
    // `rand()` draws candidate-major: in a body, under an `if`, right of
    // `||` and `&&`, after a NIL operand, and in a binding nothing reads.
    (
        "rand in the body",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a;
            public state float t : b;
            private effect float a : sum;
            private effect float b : sum;
            public void run() {
                const float nil = (s - s) / (s - s);
                foreach (A p : Extent<A>) {
                    a <- rand() * 0.01;
                    if (p.x > x) { a <- rand(); }
                    if (p.y > y || rand() < 0.5) { b <- 1; }
                    if (p.s > s && rand() < 0.5) { b <- 10; }
                    const float unused = rand();
                    b <- nil + rand();
                    b <- clamp(p.s, nil, rand());
                    a <- rand() + (x - p.x);
                }
                a <- rand();
            }
        }"#,
    ),
    // Identity tests, both senses, and against itself.
    (
        "agent identity",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a;
            public state float t : b;
            private effect float a : sum;
            private effect float b : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    if (p == this) { a <- 1000; } else { a <- 1; }
                    if (p != this && this == this) { b <- p.x - x; }
                }
            }
        }"#,
    ),
    // An effect read back after the loop sees the local aggregate, then
    // more assignments, then a second loop and a second read.
    (
        "effect read after the loop",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : flag;
            public state float t : n;
            private effect float n : sum;
            private effect float flag : max;
            public void run() {
                foreach (A p : Extent<A>) { n <- 1; }
                if (n >= 2) { flag <- n; }
                n <- 0.5;
                foreach (A q : Extent<A>) { if (q.x > x) { n <- 0.25; } }
                if (n > 3) { flag <- n * 2; }
            }
        }"#,
    ),
    // Effects read before the loop of a query that is nothing but its
    // loop: each read is its combinator's identity (∞ for `min`, 1 for
    // `prod`), in columns as on the walk.
    (
        "effect read before the loop",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : s * 0.5 + a;
            public state float t : b + k;
            private effect float a : sum;
            private effect float b : sum;
            private effect float lo : min;
            private effect float k : prod;
            public void run() {
                const float m = min(lo, 2);
                const float q = k + s;
                foreach (A p : Extent<A>) {
                    a <- m * 0.001 + q * 0.0001;
                    lo <- p.s;
                    k <- 1.5;
                    if (m > 1) { b <- q; }
                }
            }
        }"#,
    ),
    // Remote and local effects under `if`/`else`, nested, onto one field.
    (
        "remote effects with if/else",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : s + 0.01;
            public state float t : t * 0.5 + hurt - calm;
            private effect float hurt : sum;
            private effect float calm : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    if (s > p.s + 0.3) {
                        p.hurt <- s - p.s;
                        if (p.x > x) { hurt <- 0.125; } else { p.calm <- 0.25; }
                    } else {
                        p.calm <- 1;
                        calm <- p.t;
                    }
                }
            }
        }"#,
    ),
    // Three-argument builtins: plain, bounds swapped, one and both bounds
    // NaN (`clamp(v, 0/0, 0/0)` used to panic the tick).
    (
        "three-argument builtins",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : clamp(s + a, 0 - 2, 2);
            public state float t : clamp(t + b, (s - s) / (s - s), (t - t) / (t - t));
            private effect float a : sum;
            private effect float b : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    a <- clamp(p.s - s, 0 - 0.1, 0.1);
                    a <- clamp(p.x - x, 0.1, 0 - 0.1);
                    b <- clamp(p.t, (x - p.x) / (x - p.x), 0.5);
                    b <- clamp(p.t, (x - p.x) / (x - p.x) - 1, (y - p.y) / (y - p.y));
                }
            }
        }"#,
    ),
    // State columns read off the candidate, the builtins the lane loops do
    // not open-code (`%`, `sign`, `floor`, `pow`, `atan2`, `exp`), `!`, `-`.
    (
        "gathered state and library calls",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : s * 0.9 + a * 0.01;
            public state float t : b;
            private effect float a : sum;
            private effect float b : min;
            public void run() {
                foreach (A p : Extent<A>) {
                    a <- sign(p.s - s) * floor(p.t * 4) + (p.s % 0.3) + pow(abs(p.s), 0.5);
                    a <- atan2(p.y - y, p.x - x) * exp(0 - abs(p.t)) + !(p.s > s) - -p.t;
                    b <- sqrt(p.s) + ln(p.t) + ceil(p.s) + sin(p.x) * cos(p.y);
                }
            }
        }"#,
    ),
    // Update rules: draws in rule order and only where the walker gets to
    // them, NaN results leave the field, effects read back.
    (
        "update rules",
        r#"class A {
            public state float x : x + (rand() - 0.5) * 0.1 #range[-1, 1];
            public state float y : y + n / n * 0.01 #range[-1, 1];
            public state float s : s + (n > 2 || rand() < 0.3) + (n > 1 && rand() < 0.6);
            public state float t : (s - s) / (s - s) + rand();
            private effect float n : sum;
            public void run() {
                foreach (A p : Extent<A>) { n <- 1; }
            }
        }"#,
    ),
    // Nothing to do.
    (
        "empty query",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : t;
            public state float t : s;
            public void run() {}
        }"#,
    ),
    // `-0.0` and `0.0` are two constants (once folded); the sign survives
    // a product and a `min`/`max` aggregate.
    (
        "signed zero constants",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a;
            public state float t : b;
            private effect float a : min;
            private effect float b : max;
            public void run() {
                foreach (A p : Extent<A>) {
                    a <- -0 * abs(p.s);
                    b <- 0 * abs(p.t);
                }
            }
        }"#,
    ),
    // A subexpression first met where the walker may not go — a branch not
    // taken, the right of a deciding `&&` — and met again outside it.
    (
        "repeats across skipped regions",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a + c;
            public state float t : b;
            private effect float a : sum;
            private effect float b : sum;
            private effect float c : sum;
            public void run() {
                if (s > 0.5) { a <- x * s; }
                a <- x * s;
                foreach (A p : Extent<A>) {
                    if (p.x > x) { b <- rand() + p.s * s; }
                    b <- p.s * s;
                    if (s > 0.5 && rand() < p.t * t) { c <- 1; }
                    c <- p.t * t;
                }
                if (t > 0.5 || rand() < y * t) { c <- 100; }
                c <- y * t;
            }
        }"#,
    ),
    // Every combinator as the aggregate a later read sees.
    (
        "combinators read back",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : out;
            public state float t : lo + hi;
            private effect float lo : min;
            private effect float hi : max;
            private effect float any : or;
            private effect float all : and;
            private effect float pr : prod;
            private effect float out : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    lo <- p.s; hi <- p.s; any <- p.s > s; all <- p.t > 0 - 1; pr <- 1 + p.t * 0.01;
                }
                out <- any + all * 2 + pr;
                if (lo < hi) { out <- hi - lo; }
            }
        }"#,
    ),
    // A loop some members never reach, a field written before it, by two
    // acts in it (one behind an `if`) and read back after it, and an `else`
    // branch: the column pass walks each member's agent level around it.
    (
        "loop behind an if, a field two acts fold",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a + b;
            public state float t : t * 0.5 + b;
            private effect float a : sum;
            private effect float b : max;
            public void run() {
                a <- s * 0.25;
                if (s > 0.5) {
                    foreach (A p : Extent<A>) {
                        a <- p.s * x;
                        if (p.x > x) { a <- p.t; } else { b <- p.y - y; }
                        b <- p.t;
                    }
                }
                b <- a;
            }
        }"#,
    ),
    // A guard no candidate passes: pushed down, every member's probe rect
    // is empty and it is handed no candidates.
    (
        "a probe that finds nobody",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : a;
            public state float t : t + 1;
            private effect float a : sum;
            public void run() {
                foreach (A p : Extent<A>) {
                    if (p.x > x + 0.5 && p.x < x - 0.5) { a <- p.s; }
                }
            }
        }"#,
    ),
    // Nested `if`/`else` whose inner condition can be NIL (a `const` of
    // 0/0 for `s = 0` at agent level, for coincident agents in the body),
    // drawing in every branch: a NIL condition skips both of its branches
    // and their draws, and the steps after them run.
    (
        "nested if/else on a NIL condition, drawing",
        r#"class A {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float s : s * 0.5 + a;
            public state float t : t * 0.5 + b;
            private effect float a : sum;
            private effect float b : sum;
            public void run() {
                const float r = s / s;
                if (t > 0) {
                    if (r * (t - 0.5) > 0) { a <- rand(); } else { a <- 10 + rand(); }
                    b <- 0.125;
                } else {
                    b <- rand();
                }
                foreach (A p : Extent<A>) {
                    const float d = (x - p.x) / (x - p.x);
                    if (p.s > s) {
                        if (d * (p.y - y) > 0) { b <- rand(); } else { b <- 10 + rand(); }
                        a <- 0.25;
                    } else {
                        a <- rand() * 0.01;
                    }
                }
            }
        }"#,
    ),
];

/// How many scripts [`brasil_script`] knows.
const BRASIL_SCRIPTS: usize = 4 + BRASIL_EDGE_SCRIPTS.len() + 1;

/// Script `which`, compiled and not yet optimized: the four shipped ones,
/// the edge scripts, and the predator inverted.
fn brasil_script(which: usize) -> (String, brasil::CompiledClass) {
    use brace_models::scripts;
    let compile = |src: &str| brasil::Script::compile_unoptimized(src).expect("script compiles").classes()[0].clone();
    let shipped = [
        ("figure 2 fish", scripts::FIGURE2_FISH),
        ("fish school", scripts::FISH_SCHOOL),
        ("predator", scripts::PREDATOR),
        ("car following", scripts::CAR_FOLLOWING),
    ];
    match shipped.iter().chain(&BRASIL_EDGE_SCRIPTS).nth(which) {
        Some(&(name, src)) => (name.to_string(), compile(src)),
        None => ("predator, inverted".into(), brasil::invert_effects(compile(scripts::PREDATOR)).unwrap()),
    }
}

/// `n` agents at ≈ `visits` visible neighbours each, with coincident pairs
/// (0/0 in the scripts' distance terms), zeros and negatives in the state.
fn brasil_population(schema: &AgentSchema, n: usize, visits: f64, seed: u64) -> Vec<Agent> {
    let vis = schema.visibility();
    let half = vis * (n as f64 / visits).sqrt();
    let mut rng = DetRng::seed_from_u64(seed).stream(0xB2A5);
    let mut world: Vec<Agent> = (0..n)
        .map(|i| {
            let mut a =
                Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(-half, half), rng.range(-half, half)), schema);
            for (k, s) in a.state.iter_mut().enumerate() {
                *s = match (i + k) % 5 {
                    0 => 0.0,
                    1 => rng.range(-1.5, 0.0),
                    _ => rng.range(0.0, 1.5),
                };
            }
            a
        })
        .collect();
    for i in (3..n).step_by(7) {
        world[i].pos = world[i - 1].pos;
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every script, optimized and not, at ≈ 2 and ≈ 30 visits per agent
    /// (members with no candidate, a few and many): the register program on
    /// the executor's column path, and on a 2-worker cluster, leaves the
    /// world the tree-walking specification leaves on the same backend — bit
    /// for bit. A quarter of the populations are large — many strip groups,
    /// and sweep slices of more members, or more pairs, than one column run
    /// takes (256 of either).
    #[test]
    fn brasil_vm_equals_reference(
        which in 0..BRASIL_SCRIPTS,
        optimize in any::<bool>(),
        dense in any::<bool>(),
        n in 0usize..70,
        large in 0usize..4,
        seed in 0u64..10_000,
        kind in any_index_kind(),
        shard_rows in any_shard_granule(),
        threads in any_thread_budget(),
        ticks in 1u64..4,
    ) {
        let (name, class) = brasil_script(which);
        let class = if optimize { brasil::optimize(class) } else { class };
        let vm = brasil::BrasilBehavior::new(class);
        let spec = vm.reference();
        let n = if large == 0 { 300 + 8 * n } else { n };
        let world = brasil_population(vm.schema(), n, if dense { 30.0 } else { 2.0 }, seed);
        let label = |path: &str| format!("`{name}` (optimize {optimize}, dense {dense}, {n} agents), {path}");

        let want = grouped_ticks(&spec, &world, kind, shard_rows, threads, ticks, seed);
        let got = grouped_ticks(&vm, &world, kind, shard_rows, threads, ticks, seed);
        worlds_bit_identical(&got, &want).map_err(|e| format!("{}: {e}", label("single node")))?;

        let cluster = |behavior: std::sync::Arc<dyn Behavior>| {
            let half = world.iter().map(|a| a.pos.x.abs()).fold(1.0, f64::max);
            let cfg = brace_mapreduce::ClusterConfig {
                workers: 2,
                epoch_len: ticks,
                seed,
                index: kind,
                space_x: (-half, half),
                load_balance: false,
                ..brace_mapreduce::ClusterConfig::default()
            };
            let mut sim = brace_mapreduce::ClusterSim::new(behavior, world.clone(), cfg).unwrap();
            sim.run_ticks(ticks).unwrap();
            let mut agents = sim.collect_agents().unwrap();
            agents.sort_by_key(|a| a.id);
            agents
        };
        worlds_bit_identical(&cluster(std::sync::Arc::new(vm)), &cluster(std::sync::Arc::new(spec)))
            .map_err(|e| format!("{}: {e}", label("2-worker cluster")))?;
    }

    /// For every script, optimized and not, over chunks of 0, 1, W − 1, W,
    /// W + 1, 2W − 1 and 2W + 3 rows (W = `UPDATE_LANES`) behind a chunk of
    /// 0–2 rows, with NaN, ±∞ and ±0 among the effects and states: the
    /// register program's lanes leave the pool bit for bit where one-agent
    /// passes (`Behavior::update` under the default `update_rows`) and the
    /// tree walker leave it — a field kept where its result is NaN or NIL,
    /// each lane's draws taken from its own stream in rule order, every move
    /// cropped.
    #[test]
    fn brasil_vm_update_lanes_equal_one_agent_passes(
        which in 0..BRASIL_SCRIPTS,
        optimize in any::<bool>(),
        len in 0usize..7,
        lead in 0usize..3,
        seed in 0u64..10_000,
        tick in 0u64..4,
    ) {
        let w = brasil::vm::UPDATE_LANES;
        let len = [0, 1, w - 1, w, w + 1, 2 * w - 1, 2 * w + 3][len];
        let (name, class) = brasil_script(which);
        let class = if optimize { brasil::optimize(class) } else { class };
        let vm = brasil::BrasilBehavior::new(class);
        let schema = vm.schema().clone();
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let mut rng = DetRng::seed_from_u64(seed).stream(0x1A4E);
        let value = |rng: &mut DetRng| match rng.below(3) {
            0 => special[rng.below(special.len() as u64) as usize],
            _ => rng.range(-3.0, 3.0),
        };
        let world: Vec<Agent> = (0..lead + len)
            .map(|i| {
                let xy = [0.0, -0.0, rng.range(-5.0, 5.0)];
                let pos = Vec2::new(xy[rng.below(3) as usize], xy[rng.below(3) as usize]);
                let mut a = Agent::new(AgentId::new(3 * i as u64 + 1), pos, &schema);
                a.state.iter_mut().chain(a.effects.iter_mut()).for_each(|v| *v = value(&mut rng));
                a
            })
            .collect();
        let root = DetRng::seed_from_u64(seed).stream(tick);
        let updated = |b: &dyn Behavior| {
            let mut pool = AgentPool::from_agents(&schema, &world);
            for chunk in pool.update_chunks_prefix(&[lead, len]).iter_mut() {
                let (mut spawns, mut parents) = (Vec::new(), Vec::new());
                b.update_rows(chunk, tick, &root, &mut spawns, &mut parents);
                assert!(spawns.is_empty() && parents.is_empty());
            }
            pool.to_agents()
        };
        let lanes = updated(&vm);
        let label = |path: &str| format!("`{name}` (optimize {optimize}), {len} rows after {lead}: lanes vs {path}");
        worlds_bit_identical(&lanes, &updated(&OneAgentPasses(&vm)))
            .map_err(|e| format!("{}: {e}", label("one-agent passes")))?;
        worlds_bit_identical(&lanes, &updated(&vm.reference()))
            .map_err(|e| format!("{}: {e}", label("the tree walker")))?;
    }
}

/// A behavior's per-row [`Behavior::update`] under the default
/// `update_rows`: what an override of the hook must reproduce.
struct OneAgentPasses<'a, B>(&'a B);

impl<B: Behavior> Behavior for OneAgentPasses<'_, B> {
    fn schema(&self) -> &AgentSchema {
        self.0.schema()
    }
    fn query(&self, me: AgentRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        self.0.query(me, neighbors, eff, rng)
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        self.0.update(me, ctx)
    }
}

// ---------------------------------------------------------------------------
// BRASIL front end: hostile source is an error, never a panic
// (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// `src` cut into pieces: identifier and number runs, single punctuation
/// characters, and the whitespace between them, so that `concat` gives
/// `src` back.
fn brasil_pieces(src: &str) -> Vec<String> {
    let class = |c: char| match c {
        c if c.is_whitespace() => 0,
        c if c.is_ascii_alphanumeric() || c == '_' || c == '.' => 1,
        _ => 2,
    };
    let mut pieces: Vec<String> = Vec::new();
    for c in src.chars() {
        match pieces.last_mut() {
            Some(p) if class(c) < 2 && p.chars().next().map(class) == Some(class(c)) => p.push(c),
            _ => pieces.push(c.to_string()),
        }
    }
    pieces
}

/// The source drawn for `seed`: arbitrary bytes, or a shipped script with
/// bytes flipped, cut short, tokens deleted or duplicated, or a stretch
/// wrapped in nesting up to three times [`brasil::parser::MAX_DEPTH`] deep,
/// up to four times over. Bytes are decoded lossily.
fn hostile_brasil_source(seed: u64) -> String {
    use brace_models::scripts;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pick = |n: usize| rng.below(n.max(1) as u64) as usize;
    let script = [scripts::FISH_SCHOOL, scripts::PREDATOR, scripts::CAR_FOLLOWING, scripts::FIGURE2_FISH][pick(4)];
    let mut pieces = brasil_pieces(script);
    let tokens: Vec<usize> = (0..pieces.len()).filter(|&i| !pieces[i].trim().is_empty()).collect();
    let mut bytes = script.as_bytes().to_vec();
    match pick(6) {
        0 => {
            let alphabet = b"(){}[];:,.<->=+-*/%!&|#_0123456789eEpx \n";
            bytes = (0..pick(512))
                .map(|_| if pick(2) == 0 { pick(256) as u8 } else { alphabet[pick(alphabet.len())] })
                .collect();
        }
        1 => {
            for _ in 0..1 + pick(8) {
                let at = pick(bytes.len());
                bytes[at] ^= 1 + pick(255) as u8;
            }
        }
        2 => bytes.truncate(pick(bytes.len())),
        mutation => {
            for _ in 0..1 + pick(4) {
                let at = tokens[pick(tokens.len())];
                match mutation {
                    3 => pieces[at].clear(),
                    4 => pieces[at] = format!("{0} {0}", pieces[at]),
                    _ => {
                        // A block wraps a statement of `run()` from its start
                        // to its `;`. An expression wraps a number in up to
                        // four layers, each around the last, so that a chain
                        // may have a deep left operand.
                        let block = pick(4) == 0;
                        let prev = |t: usize| pieces[..t].iter().rev().find(|p| !p.trim().is_empty());
                        let fits = |t: usize| match (block, pieces[t].as_str()) {
                            (false, p) => p.starts_with(|c: char| c.is_ascii_digit()),
                            (true, "public" | "private" | "}") => false,
                            (true, p) => !p.trim().is_empty() && matches!(prev(t).map(|s| s.as_str()), Some("{" | ";")),
                        };
                        let Some(at) = (at..pieces.len()).chain(0..at).find(|&t| fits(t)) else { continue };
                        let end = if block { (at..pieces.len()).find(|&t| pieces[t] == ";").unwrap_or(at) } else { at };
                        let wraps: &[(&str, &str)] = if block {
                            &[("if (1) { ", " }")]
                        } else {
                            &[
                                ("(", ")"),
                                ("-", ""),
                                ("!", ""),
                                ("abs(", ")"),
                                ("", " + 1"),
                                ("", " * 1"),
                                ("", " || 1"),
                            ]
                        };
                        for _ in 0..if block { 1 } else { 1 + pick(4) } {
                            let (open, close) = wraps[pick(wraps.len())];
                            let most = [40, brasil::parser::MAX_DEPTH, 3 * brasil::parser::MAX_DEPTH][pick(3)];
                            let n = pick(most);
                            pieces[at].insert_str(0, &open.repeat(n));
                            pieces[end].push_str(&close.repeat(n));
                        }
                    }
                }
            }
            bytes = pieces.concat().into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Lexing, parsing, checking, planning, both optimizer entry points and
    /// lowering return `Ok` or `Err` on hostile source: none of them panics
    /// or overflows the stack.
    #[test]
    fn brasil_front_end_never_panics(seed in any::<u64>()) {
        let src = hostile_brasil_source(seed);
        let compiled = std::panic::catch_unwind(|| {
            let Ok(script) = brasil::Script::compile(&src) else { return };
            for class in script.classes() {
                brasil::BrasilBehavior::new(class.clone());
                brasil::BrasilBehavior::new(brasil::optimize::with_inversion(class.clone()).0);
            }
        });
        prop_assert!(compiled.is_ok(), "seed {seed} panicked on {src:?}");
    }
}

// ---------------------------------------------------------------------------
// BRASIL generated programs: source round-trips, the register program ≡ the
// tree walker, the optimizer and each of its rewrites ≡ no optimizer, a
// second run of the optimizer rewrites nothing, inversion agrees to
// rounding, and an agent reference planted where only a number may stand
// is refused on its line (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// A seeded generator of small, well-typed BRASIL classes, a printer back to
/// source, and a shrinker, which the vendored proptest does not have: a
/// failing seed is reported with the smallest program the shrinker reaches
/// that still compiles and still fails.
mod generated_brasil {
    use super::*;
    use brasil::ast::{BinOp, Block, ClassDecl, Expr, FieldDecl, FieldKind, Stmt, TypeName, UnOp, Visibility};
    use brasil::optimize::{eliminate_dead_code, fold_constants, standard, with_inversion, with_probe_bounds};
    use brasil::optimize::{invert_effects, optimize, PassReport};
    use brasil::{BrasilBehavior, CompiledClass};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn num(v: f64) -> Expr {
        Expr::Number(v)
    }

    fn neg(e: Expr) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(e))
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    fn ident(name: &str) -> Expr {
        Expr::Ident(name.to_string())
    }

    fn other(field: &str) -> Expr {
        Expr::Field(Box::new(ident("p")), field.to_string())
    }

    const BUILTINS: [&str; 14] =
        ["abs", "sqrt", "sin", "cos", "exp", "ln", "floor", "ceil", "sign", "min", "max", "pow", "atan2", "clamp"];

    /// What an expression may read where it stands.
    #[derive(Clone)]
    struct Scope {
        states: usize,
        effects: usize,
        locals: Vec<String>,
        /// Inside the `foreach`: `p.…` reads, no effect reads.
        in_loop: bool,
        /// An update rule: own fields and effects only.
        update: bool,
        /// `rand()` may appear.
        draws: bool,
    }

    struct Gen {
        rng: DetRng,
        next_local: usize,
    }

    impl Gen {
        fn pick(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.pick(n) == 0
        }

        fn ty(&mut self) -> TypeName {
            [TypeName::Float, TypeName::Float, TypeName::Int, TypeName::Bool][self.pick(4)].clone()
        }

        /// NaN, ±∞, ±0, a boolean or a plain literal.
        fn constant(&mut self) -> Expr {
            match self.pick(9) {
                0 => bin(BinOp::Div, num(0.0), num(0.0)),
                1 => bin(BinOp::Div, num(1.0), num(0.0)),
                2 => bin(BinOp::Div, neg(num(1.0)), num(0.0)),
                3 => neg(num(0.0)),
                4 => num(0.0),
                5 => Expr::Bool(self.one_in(2)),
                _ => num([1.0, 2.0, 0.5, 0.25, 3.0, 1.5, 0.1][self.pick(7)]),
            }
        }

        fn leaf(&mut self, sc: &Scope) -> Expr {
            loop {
                match self.pick(8) {
                    0 | 1 => return self.constant(),
                    2 => return ident(["x", "y"][self.pick(2)]),
                    3 if sc.states > 0 => {
                        let s = format!("s{}", self.pick(sc.states));
                        if !sc.update && self.one_in(4) {
                            return Expr::Field(Box::new(Expr::This), s);
                        }
                        return Expr::Ident(s);
                    }
                    4 if sc.in_loop => {
                        return match self.pick(sc.states + 2) {
                            0 => other("x"),
                            1 => other("y"),
                            k => other(&format!("s{}", k - 2)),
                        }
                    }
                    5 if !sc.locals.is_empty() => return Expr::Ident(sc.locals[self.pick(sc.locals.len())].clone()),
                    6 if !sc.in_loop && sc.effects > 0 => return Expr::Ident(format!("e{}", self.pick(sc.effects))),
                    7 if sc.draws => return Expr::Call("rand".into(), Vec::new()),
                    _ => {}
                }
            }
        }

        fn expr(&mut self, sc: &Scope, depth: u32) -> Expr {
            use BinOp::*;
            if depth == 0 || self.one_in(3) {
                return self.leaf(sc);
            }
            let d = depth - 1;
            match self.pick(10) {
                0 | 1 => {
                    let op = [Add, Sub, Mul, Div, Rem][self.pick(5)];
                    bin(op, self.expr(sc, d), self.expr(sc, d))
                }
                // An identity-shaped operation: `e + 0`, `-0 * e`, `e % 0`, …,
                // now and then under `1 /`, which tells `-0` from `0`.
                2 | 3 => {
                    let op = [Add, Sub, Mul, Div, Rem][self.pick(5)];
                    let k = [num(0.0), neg(num(0.0)), num(1.0)][self.pick(3)].clone();
                    let e = self.expr(sc, d);
                    let e = if self.one_in(2) { bin(op, e, k) } else { bin(op, k, e) };
                    if self.one_in(3) {
                        bin(Div, num(1.0), e)
                    } else {
                        e
                    }
                }
                4 => {
                    let op = [Lt, Le, Gt, Ge, Eq, Ne][self.pick(6)];
                    bin(op, self.expr(sc, d), self.expr(sc, d))
                }
                5 => {
                    let op = [And, Or][self.pick(2)];
                    bin(op, self.expr(sc, d), self.expr(sc, d))
                }
                6 => Expr::Unary([UnOp::Neg, UnOp::Not][self.pick(2)], Box::new(self.expr(sc, d))),
                7 | 8 => {
                    let name = BUILTINS[self.pick(BUILTINS.len())];
                    let arity = brasil::plan::Builtin::parse(name).expect("a builtin").arity();
                    Expr::Call(name.into(), (0..arity).map(|_| self.expr(sc, d)).collect())
                }
                _ if sc.in_loop => {
                    let (a, b) = if self.one_in(2) { (ident("p"), Expr::This) } else { (Expr::This, ident("p")) };
                    bin([Eq, Ne][self.pick(2)], a, b)
                }
                _ => self.leaf(sc),
            }
        }

        /// `p.x` or `p.y` against the agent's own coordinate, plus or minus
        /// an offset, or against a constant.
        fn position_test(&mut self) -> Expr {
            let axis = ["x", "y"][self.pick(2)];
            let offset = |g: &mut Gen| if g.one_in(3) { g.constant() } else { num([0.0, 0.5, 1.0, 0.25][g.pick(4)]) };
            let own = match self.pick(5) {
                0 => ident(axis),
                1 => bin(BinOp::Add, ident(axis), offset(self)),
                2 => bin(BinOp::Sub, ident(axis), offset(self)),
                3 => bin(BinOp::Add, offset(self), ident(axis)),
                _ => offset(self),
            };
            let op = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge][self.pick(4)];
            if self.one_in(2) {
                bin(op, other(axis), own)
            } else {
                bin(op, own, other(axis))
            }
        }

        /// Position tests, and now and then another condition, under `&&`
        /// and `||`.
        fn guard(&mut self, sc: &Scope) -> Expr {
            let mut g = self.position_test();
            for _ in 0..self.pick(3) {
                let atom = if self.one_in(4) { self.expr(sc, 1) } else { self.position_test() };
                let op = [BinOp::And, BinOp::Or][self.pick(2)];
                g = if self.one_in(2) { bin(op, g, atom) } else { bin(op, atom, g) };
            }
            g
        }

        fn local(&mut self, sc: &mut Scope) -> Stmt {
            let name = format!("c{}", self.next_local);
            self.next_local += 1;
            let (ty, value) = (self.ty(), self.expr(sc, 3));
            sc.locals.push(name.clone());
            Stmt::Const { name, ty, value, line: 0 }
        }

        fn assign(&mut self, sc: &Scope) -> Stmt {
            let field = format!("e{}", self.pick(sc.effects));
            let target = (sc.in_loop && self.one_in(2)).then(|| ident("p"));
            Stmt::EffectAssign { target, field, value: self.expr(sc, 3), line: 0 }
        }

        /// One to `most` statements.
        fn stmts(&mut self, sc: &Scope, most: usize, depth: u32) -> Vec<Stmt> {
            let mut sc = sc.clone();
            let mut out = Vec::new();
            for _ in 0..1 + self.pick(most) {
                out.push(match self.pick(5) {
                    0 => self.local(&mut sc),
                    1 if depth > 0 => {
                        let cond = match self.pick(4) {
                            0 => self.constant(),
                            1 | 2 if sc.in_loop => self.guard(&sc),
                            _ => self.expr(&sc, 2),
                        };
                        let then_ = Block { stmts: self.stmts(&sc, 2, depth - 1) };
                        let else_ =
                            if self.one_in(2) { Some(Block { stmts: self.stmts(&sc, 2, depth - 1) }) } else { None };
                        Stmt::If { cond, then_, else_, line: 0 }
                    }
                    _ => self.assign(&sc),
                });
            }
            out
        }

        /// The one loop: a few bindings, then either the shape pushdown
        /// harvests (one guard with no else) or any statements.
        fn foreach(&mut self, sc: &Scope) -> Stmt {
            let mut inner = Scope { in_loop: true, draws: self.one_in(4), ..sc.clone() };
            let mut body = Vec::new();
            for _ in 0..self.pick(3) {
                body.push(self.local(&mut inner));
            }
            if self.one_in(2) {
                let cond = self.guard(&inner);
                let then_ = Block { stmts: self.stmts(&inner, 3, 1) };
                body.push(Stmt::If { cond, then_, else_: None, line: 0 });
            } else {
                body.extend(self.stmts(&inner, 4, 2));
            }
            Stmt::Foreach {
                class: "G".into(),
                var: "p".into(),
                extent: "G".into(),
                body: Block { stmts: body },
                line: 0,
            }
        }

        fn class(&mut self) -> ClassDecl {
            let (states, effects) = (self.pick(4), 1 + self.pick(3));
            let updates = Scope { states, effects, locals: Vec::new(), in_loop: false, update: true, draws: true };
            let v = [1.0, 2.0][self.pick(2)];
            let mut fields = Vec::new();
            let visibility = |g: &mut Gen| [Visibility::Public, Visibility::Private][g.pick(2)];
            for axis in ["x", "y"] {
                let update = self.one_in(2).then(|| bin(BinOp::Add, ident(axis), self.expr(&updates, 2)));
                let kind = FieldKind::State { update, range: Some((neg(num(v)), num(v))) };
                fields.push(FieldDecl {
                    visibility: Visibility::Public,
                    name: axis.into(),
                    ty: TypeName::Float,
                    kind,
                    line: 0,
                });
            }
            for k in 0..states {
                let update = (!self.one_in(3)).then(|| self.expr(&updates, 3));
                let (visibility, ty) = (visibility(self), self.ty());
                let kind = FieldKind::State { update, range: None };
                fields.push(FieldDecl { visibility, name: format!("s{k}"), ty, kind, line: 0 });
            }
            for k in 0..effects {
                let combinator = ["sum", "min", "max", "prod", "or", "and"][self.pick(6)].to_string();
                let (visibility, ty) = (visibility(self), self.ty());
                fields.push(FieldDecl {
                    visibility,
                    name: format!("e{k}"),
                    ty,
                    kind: FieldKind::Effect { combinator },
                    line: 0,
                });
            }
            let mut sc =
                Scope { states, effects, locals: Vec::new(), in_loop: false, update: false, draws: self.one_in(3) };
            let mut run = Vec::new();
            for _ in 0..self.pick(3) {
                run.push(self.local(&mut sc));
            }
            if self.one_in(3) {
                run.extend(self.stmts(&sc, 1, 1));
            }
            let lp = self.foreach(&sc);
            run.push(if self.one_in(8) {
                Stmt::If { cond: self.expr(&sc, 1), then_: Block { stmts: vec![lp] }, else_: None, line: 0 }
            } else {
                lp
            });
            if self.one_in(2) {
                run.extend(self.stmts(&sc, 2, 1));
            }
            ClassDecl { name: "G".into(), fields, run: Block { stmts: run } }
        }
    }

    /// The class drawn for `seed`.
    pub(super) fn generated_class(seed: u64) -> ClassDecl {
        Gen { rng: DetRng::seed_from_u64(seed).stream(0x00B2_A51C), next_local: 0 }.class()
    }

    // ---- printing ------------------------------------------------------------

    /// How tightly an expression binds: `||`, `&&`, comparisons, `+ -`,
    /// `* / %`, unary operators, then everything else.
    fn precedence(e: &Expr) -> u8 {
        use BinOp::*;
        match e {
            Expr::Binary(Or, ..) => 0,
            Expr::Binary(And, ..) => 1,
            Expr::Binary(Lt | Le | Gt | Ge | Eq | Ne, ..) => 2,
            Expr::Binary(Add | Sub, ..) => 3,
            Expr::Binary(Mul | Div | Rem, ..) => 4,
            Expr::Unary(..) => 5,
            _ => 6,
        }
    }

    /// `e` as source, parenthesized only where the grammar needs it:
    /// operators are left-associative and comparisons do not chain.
    fn print_expr(e: &Expr, at_least: u8) -> String {
        let s = match e {
            Expr::Number(n) => format!("{n}"),
            Expr::Bool(b) => b.to_string(),
            Expr::Ident(name) => name.clone(),
            Expr::This => "this".into(),
            Expr::Field(base, field) => format!("{}.{field}", print_expr(base, 6)),
            Expr::Unary(op, inner) => format!("{}{}", if *op == UnOp::Neg { "-" } else { "!" }, print_expr(inner, 5)),
            Expr::Binary(op, a, b) => {
                let p = precedence(e);
                let left = if p == 2 { p + 1 } else { p };
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                format!("{} {sym} {}", print_expr(a, left), print_expr(b, p + 1))
            }
            Expr::Call(name, args) => {
                format!("{name}({})", args.iter().map(|a| print_expr(a, 0)).collect::<Vec<_>>().join(", "))
            }
        };
        if precedence(e) < at_least {
            format!("({s})")
        } else {
            s
        }
    }

    fn print_type(ty: &TypeName) -> &str {
        match ty {
            TypeName::Float => "float",
            TypeName::Int => "int",
            TypeName::Bool => "bool",
            TypeName::Agent(name) => name,
        }
    }

    fn print_block(b: &Block, indent: usize, out: &mut String) {
        out.push_str("{\n");
        let pad = "    ".repeat(indent + 1);
        for s in &b.stmts {
            out.push_str(&pad);
            match s {
                Stmt::Const { name, ty, value, .. } => {
                    out.push_str(&format!("const {} {name} = {};\n", print_type(ty), print_expr(value, 0)))
                }
                Stmt::EffectAssign { target, field, value, .. } => {
                    let target = target.as_ref().map(|t| format!("{}.", print_expr(t, 6))).unwrap_or_default();
                    out.push_str(&format!("{target}{field} <- {};\n", print_expr(value, 0)));
                }
                Stmt::If { cond, then_, else_, .. } => {
                    out.push_str(&format!("if ({}) ", print_expr(cond, 0)));
                    print_block(then_, indent + 1, out);
                    if let Some(e) = else_ {
                        out.pop();
                        out.push_str(" else ");
                        print_block(e, indent + 1, out);
                    }
                }
                Stmt::Foreach { class, var, extent, body, .. } => {
                    out.push_str(&format!("foreach ({class} {var} : Extent<{extent}>) "));
                    print_block(body, indent + 1, out);
                }
            }
        }
        out.push_str(&"    ".repeat(indent));
        out.push_str("}\n");
    }

    /// `c` as BRASIL source.
    pub(super) fn print_class(c: &ClassDecl) -> String {
        let mut out = format!("class {} {{\n", c.name);
        for f in &c.fields {
            let vis = if f.visibility == Visibility::Public { "public" } else { "private" };
            let spec = match &f.kind {
                FieldKind::State { update, range } => {
                    let update = update.as_ref().map(|u| format!(" : {}", print_expr(u, 0))).unwrap_or_default();
                    let range = range
                        .as_ref()
                        .map(|(lo, hi)| format!(" #range[{}, {}]", print_expr(lo, 0), print_expr(hi, 0)))
                        .unwrap_or_default();
                    format!("state {} {}{update}{range}", print_type(&f.ty), f.name)
                }
                FieldKind::Effect { combinator } => format!("effect {} {} : {combinator}", print_type(&f.ty), f.name),
            };
            out.push_str(&format!("    {vis} {spec};\n"));
        }
        out.push_str("    public void run() ");
        print_block(&c.run, 1, &mut out);
        out.push_str("}\n");
        out
    }

    /// `c` with every line number 0.
    fn without_lines(c: &ClassDecl) -> ClassDecl {
        fn block(b: &Block) -> Block {
            Block { stmts: b.stmts.iter().map(stmt).collect() }
        }
        fn stmt(s: &Stmt) -> Stmt {
            match s.clone() {
                Stmt::Const { name, ty, value, .. } => Stmt::Const { name, ty, value, line: 0 },
                Stmt::EffectAssign { target, field, value, .. } => Stmt::EffectAssign { target, field, value, line: 0 },
                Stmt::If { cond, then_, else_, .. } => {
                    Stmt::If { cond, then_: block(&then_), else_: else_.as_ref().map(block), line: 0 }
                }
                Stmt::Foreach { class, var, extent, body, .. } => {
                    Stmt::Foreach { class, var, extent, body: block(&body), line: 0 }
                }
            }
        }
        let fields = c.fields.iter().map(|f| FieldDecl { line: 0, ..f.clone() }).collect();
        ClassDecl { name: c.name.clone(), fields, run: block(&c.run) }
    }

    // ---- shrinking -----------------------------------------------------------

    fn expr_shrinks(e: &Expr) -> Vec<Expr> {
        let mut out = Vec::new();
        if !matches!(e, Expr::Number(_)) {
            out.extend([num(0.0), num(1.0)]);
        }
        match e {
            Expr::Unary(op, a) => {
                out.push((**a).clone());
                out.extend(expr_shrinks(a).into_iter().map(|a| Expr::Unary(*op, Box::new(a))));
            }
            Expr::Binary(op, a, b) => {
                out.extend([(**a).clone(), (**b).clone()]);
                out.extend(expr_shrinks(a).into_iter().map(|a| bin(*op, a, (**b).clone())));
                out.extend(expr_shrinks(b).into_iter().map(|b| bin(*op, (**a).clone(), b)));
            }
            Expr::Call(name, args) => {
                out.extend(args.iter().cloned());
                for (i, arg) in args.iter().enumerate() {
                    for smaller in expr_shrinks(arg) {
                        let mut args = args.clone();
                        args[i] = smaller;
                        out.push(Expr::Call(name.clone(), args));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Smaller stand-ins for one statement, each a list to splice in its
    /// place.
    fn stmt_shrinks(s: &Stmt) -> Vec<Vec<Stmt>> {
        match s {
            Stmt::Const { name, ty, value, line } => expr_shrinks(value)
                .into_iter()
                .map(|value| vec![Stmt::Const { name: name.clone(), ty: ty.clone(), value, line: *line }])
                .collect(),
            Stmt::EffectAssign { target, field, value, line } => {
                let assign = |target: Option<Expr>, value| {
                    vec![Stmt::EffectAssign { target, field: field.clone(), value, line: *line }]
                };
                let mut out = Vec::new();
                if target.is_some() {
                    out.push(assign(None, value.clone()));
                }
                out.extend(expr_shrinks(value).into_iter().map(|v| assign(target.clone(), v)));
                out
            }
            Stmt::If { cond, then_, else_, line } => {
                let branch = |cond: &Expr, then_: &Block, else_: Option<&Block>| {
                    vec![Stmt::If { cond: cond.clone(), then_: then_.clone(), else_: else_.cloned(), line: *line }]
                };
                let mut out = vec![then_.stmts.clone()];
                if let Some(e) = else_ {
                    out.push(e.stmts.clone());
                    out.push(branch(cond, then_, None));
                }
                out.extend(expr_shrinks(cond).iter().map(|c| branch(c, then_, else_.as_ref())));
                out.extend(block_shrinks(then_).iter().map(|t| branch(cond, t, else_.as_ref())));
                if let Some(e) = else_ {
                    out.extend(block_shrinks(e).iter().map(|e| branch(cond, then_, Some(e))));
                }
                out
            }
            Stmt::Foreach { class, var, extent, body, line } => block_shrinks(body)
                .into_iter()
                .map(|body| {
                    vec![Stmt::Foreach {
                        class: class.clone(),
                        var: var.clone(),
                        extent: extent.clone(),
                        body,
                        line: *line,
                    }]
                })
                .collect(),
        }
    }

    fn block_shrinks(b: &Block) -> Vec<Block> {
        let mut out: Vec<Block> = (0..b.stmts.len())
            .map(|i| {
                let mut stmts = b.stmts.clone();
                stmts.remove(i);
                Block { stmts }
            })
            .collect();
        for (i, s) in b.stmts.iter().enumerate() {
            for stand_in in stmt_shrinks(s) {
                let mut stmts = b.stmts.clone();
                stmts.splice(i..=i, stand_in);
                out.push(Block { stmts });
            }
        }
        out
    }

    /// Every class one edit smaller: a statement, field or update rule
    /// gone, an `if` replaced by a branch, a non-local assignment made
    /// local, an expression replaced by a subexpression or a literal.
    fn class_shrinks(c: &ClassDecl) -> Vec<ClassDecl> {
        let mut out: Vec<ClassDecl> =
            block_shrinks(&c.run).into_iter().map(|run| ClassDecl { run, ..c.clone() }).collect();
        for (i, f) in c.fields.iter().enumerate() {
            let mut fields = c.fields.clone();
            fields.remove(i);
            out.push(ClassDecl { fields, ..c.clone() });
            if let FieldKind::State { update: Some(u), range } = &f.kind {
                let with = |update: Option<Expr>| {
                    let mut fields = c.fields.clone();
                    fields[i].kind = FieldKind::State { update, range: range.clone() };
                    ClassDecl { fields, ..c.clone() }
                };
                out.push(with(None));
                out.extend(expr_shrinks(u).into_iter().map(|u| with(Some(u))));
            }
        }
        out
    }

    /// `fault` on `c`, a panic included.
    fn fault_of(fault: &dyn Fn(&ClassDecl) -> Option<String>, c: &ClassDecl) -> Option<String> {
        catch_unwind(AssertUnwindSafe(|| fault(c))).unwrap_or_else(|panic| {
            let msg =
                panic.downcast_ref::<String>().cloned().or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            Some(format!("panicked: {}", msg.unwrap_or_default()))
        })
    }

    /// Greedy shrinking: move to the first one-edit-smaller class that still
    /// compiles and still fails, until none does (or the budget runs out).
    fn shrink(mut c: ClassDecl, mut why: String, fault: &dyn Fn(&ClassDecl) -> Option<String>) -> (ClassDecl, String) {
        let mut budget = 20_000;
        'smaller: while budget > 0 {
            for candidate in class_shrinks(&c) {
                budget -= 1;
                if budget == 0 {
                    break 'smaller;
                }
                if compiled(&candidate).is_err() {
                    continue;
                }
                if let Some(w) = fault_of(fault, &candidate) {
                    (c, why) = (candidate, w);
                    continue 'smaller;
                }
            }
            break;
        }
        (c, why)
    }

    /// The property `fault` (`None`: holds) on the class drawn for `seed`,
    /// reported with the shrunk program when it fails.
    fn holds(seed: u64, fault: impl Fn(&ClassDecl) -> Option<String>) -> Result<(), String> {
        let c = generated_class(seed);
        if let Err(e) = compiled(&c) {
            return Err(format!("seed {seed}: the generated program does not compile ({e}):\n{}", print_class(&c)));
        }
        let Some(why) = fault_of(&fault, &c) else { return Ok(()) };
        let (small, small_why) = shrink(c.clone(), why.clone(), &fault);
        Err(format!(
            "seed {seed}: {why}\n---- shrunk program ----\n{}---- its fault ----\n{small_why}\n---- drawn program ----\n{}",
            print_class(&small),
            print_class(&c)
        ))
    }

    // ---- running ---------------------------------------------------------------

    /// `c` printed, then parsed, checked and planned, not optimized.
    fn compiled(c: &ClassDecl) -> brace_common::Result<CompiledClass> {
        Ok(brasil::Script::compile_unoptimized(&print_class(c))?.classes()[0].clone())
    }

    /// Up to 10 agents within a few visibility widths of the origin: some on
    /// ±0, on a half-integer grid or on one spot, with NaN, ±∞, ±0 and plain
    /// numbers in the state. One world in four is large instead: 150 to 299
    /// agents spread to ≈ 12 visible neighbours each, so its strip groups
    /// are many and a sweep slice's pairs fill several column runs.
    fn drawn_world(schema: &AgentSchema, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed).stream(0x6E4);
        // A class without `#range` tags (a shrunk one) sees everything.
        let vis = if schema.visibility().is_finite() { schema.visibility() } else { 2.0 };
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        let large = DetRng::seed_from_u64(seed).stream(0x6E5).below(4) == 0;
        let (n, span) = match large {
            true => {
                let n = 150 + rng.below(150) as usize;
                (n, (n as f64 / 3.0).sqrt() / 2.0)
            }
            false => (rng.below(11) as usize, 2.0),
        };
        let mut world: Vec<Agent> = (0..n)
            .map(|i| {
                let coord = |rng: &mut DetRng| match rng.below(4) {
                    0 => [0.0, -0.0, vis, -0.5 * vis][rng.below(4) as usize],
                    1 => (rng.range(-span * vis, span * vis) * 2.0).round() / 2.0,
                    _ => rng.range(-span * vis, span * vis),
                };
                let pos = Vec2::new(coord(&mut rng), coord(&mut rng));
                let mut a = Agent::new(AgentId::new(2 * i as u64 + 1), pos, schema);
                for s in a.state.iter_mut() {
                    *s = match rng.below(3) {
                        0 => special[rng.below(5) as usize],
                        1 => rng.below(5) as f64 - 2.0,
                        _ => rng.range(-3.0, 3.0),
                    };
                }
                a
            })
            .collect();
        if n > 2 {
            world[n - 1].pos = world[0].pos;
        }
        world
    }

    /// The index kind and shard granule the run for `seed` uses.
    fn engine(seed: u64) -> (IndexKind, usize) {
        ([IndexKind::Join, IndexKind::Scan][(seed % 2) as usize], [1, 3, 64][(seed / 2 % 3) as usize])
    }

    /// The world drawn for `seed` after one query phase of `b` and the
    /// replay of its effects: every agent's aggregated effects, which the
    /// end of a tick resets.
    fn aggregated_effects(b: &impl Behavior, seed: u64) -> Vec<Agent> {
        let (kind, shard_rows) = engine(seed);
        let mut pool = AgentPool::from_agents(b.schema(), &drawn_world(b.schema(), seed));
        let mut scratch = TickScratch::new();
        let n = pool.len();
        query_phase_sharded(b, &mut pool, n, kind, 0, seed, &mut scratch, shard_rows, &mut ShardPool::new(1));
        replay_effects(&mut pool, &scratch, &mut []);
        pool.to_agents()
    }

    /// `a` and `b` leave the same aggregated effects after the first query
    /// phase and the same world after two ticks, bit for bit.
    fn same_outcome(a: &impl Behavior, b: &impl Behavior, seed: u64) -> Result<(), String> {
        worlds_bit_identical(&aggregated_effects(a, seed), &aggregated_effects(b, seed))
            .map_err(|e| format!("effects after the first query phase: {e}"))?;
        let (kind, shard_rows) = engine(seed);
        let world = drawn_world(a.schema(), seed);
        worlds_bit_identical(
            &grouped_ticks(a, &world, kind, shard_rows, 1, 2, seed),
            &grouped_ticks(b, &world, kind, shard_rows, 1, 2, seed),
        )
        .map_err(|e| format!("after two ticks: {e}"))
    }

    // ---- the properties ------------------------------------------------------

    fn round_trip_fault(c: &ClassDecl) -> Option<String> {
        let src = print_class(c);
        let first = match brasil::parse(&src) {
            Ok(p) => p,
            Err(e) => return Some(format!("the printed program does not parse: {e}")),
        };
        let again = match brasil::parse(&print_class(&first.classes[0])) {
            Ok(p) => p,
            Err(e) => return Some(format!("the reprinted program does not parse: {e}")),
        };
        let (first, again) = (without_lines(&first.classes[0]), without_lines(&again.classes[0]));
        if first != again {
            return Some(format!("parse ∘ print ∘ parse differs from parse:\n{first:?}\nvs\n{again:?}"));
        }
        (first != without_lines(c)).then(|| format!("parse ∘ print differs from the drawn class:\n{first:?}"))
    }

    fn vm_fault(c: &ClassDecl, seed: u64) -> Option<String> {
        let class = compiled(c).ok()?;
        let plans = [
            ("unoptimized", class.clone()),
            ("optimized", optimize(class.clone())),
            ("inverted", with_inversion(class).0),
        ];
        for (plan, class) in plans {
            let vm = BrasilBehavior::new(class);
            if let Err(e) = same_outcome(&vm, &vm.reference(), seed) {
                return Some(format!("{plan} plan, register program vs tree walker: {e}"));
            }
        }
        None
    }

    fn optimizer_fault(c: &ClassDecl, seed: u64) -> Option<String> {
        let class = compiled(c).ok()?;
        let want = BrasilBehavior::new(class.clone());
        let alone = [
            ("const-fold alone", fold_constants(class.clone()).0),
            ("dead-code alone", eliminate_dead_code(class.clone()).0),
            ("pushdown alone", with_probe_bounds(class.clone())),
            ("the optimizer", optimize(class.clone())),
        ];
        for (what, optimized) in alone {
            if let Err(e) = same_outcome(&BrasilBehavior::new(optimized), &want, seed) {
                return Some(format!("{what} vs unoptimized: {e}"));
            }
        }
        // With inversion too: inversion is exact.
        let (optimized, report) = with_inversion(class);
        let inverted = report.iter().any(|p| p.name == "invert" && p.rewrites > 0);
        same_outcome(&BrasilBehavior::new(optimized), &want, seed)
            .err()
            .map(|e| format!("the optimizer with inversion vs unoptimized (inverted {inverted}): {e}"))
    }

    type Entry = fn(CompiledClass) -> (CompiledClass, Vec<PassReport>);

    fn idempotence_fault(c: &ClassDecl) -> Option<String> {
        let class = compiled(c).ok()?;
        for (name, entry) in [("standard", standard as Entry), ("with inversion", with_inversion)] {
            let (once, _) = entry(class.clone());
            let (twice, again) = entry(once.clone());
            if again.iter().any(|p| p.rewrites > 0) {
                return Some(format!("{name}: a second run rewrote {again:?}"));
            }
            if (&twice.query, &twice.updates, &twice.probe_bounds) != (&once.query, &once.updates, &once.probe_bounds) {
                return Some(format!("{name}: a second run changed the plan"));
            }
        }
        None
    }

    /// Where inversion takes a class, the inverted class leaves the
    /// aggregated effects and the two-tick world of the original, bit for
    /// bit.
    fn inversion_fault(c: &ClassDecl, seed: u64) -> Option<String> {
        let class = compiled(c).ok()?;
        let inverted = invert_effects(class.clone()).ok()?;
        same_outcome(&BrasilBehavior::new(inverted), &BrasilBehavior::new(class), seed)
            .err()
            .map(|e| format!("inverted vs uninverted: {e}"))
    }

    /// The expression of every statement of `b` that has one — a `const` or
    /// effect value, an `if` condition — nested ones included, with whether
    /// it sits in the loop.
    fn statement_exprs<'a>(b: &'a mut Block, in_loop: bool, out: &mut Vec<(&'a mut Expr, bool)>) {
        for s in &mut b.stmts {
            match s {
                Stmt::Const { value, .. } | Stmt::EffectAssign { value, .. } => out.push((value, in_loop)),
                Stmt::If { cond, then_, else_, .. } => {
                    out.push((cond, in_loop));
                    statement_exprs(then_, in_loop, out);
                    if let Some(e) = else_ {
                        statement_exprs(e, in_loop, out);
                    }
                }
                Stmt::Foreach { body, .. } => statement_exprs(body, true, out),
            }
        }
    }

    /// `c` with an agent reference — `this`, or the loop variable `p` in
    /// the loop — planted where only a number may stand: the whole of a
    /// `const` or effect value, an `if` condition or an update rule, or an
    /// operand of arithmetic or an argument of a call there. Returns the
    /// class and the name planted; `None` if `c` has no statement with an
    /// expression and no update rule (a shrunk class may not).
    fn planted(c: &ClassDecl, seed: u64) -> Option<(ClassDecl, &'static str)> {
        let mut rng = DetRng::seed_from_u64(seed).stream(0xA6E7);
        let mut c = c.clone();
        let mut sites = Vec::new();
        statement_exprs(&mut c.run, false, &mut sites);
        for f in &mut c.fields {
            if let FieldKind::State { update: Some(rule), .. } = &mut f.kind {
                // An update rule may name neither.
                sites.push((rule, true));
            }
        }
        if sites.is_empty() {
            return None;
        }
        let (site, in_loop) = sites.swap_remove(rng.below(sites.len() as u64) as usize);
        let name = if in_loop && rng.below(2) == 0 { "p" } else { "this" };
        let agent = if name == "this" { Expr::This } else { ident(name) };
        let old = site.clone();
        *site = match rng.below(3) {
            0 => agent,
            1 => {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem][rng.below(5) as usize];
                if rng.below(2) == 0 {
                    bin(op, agent, old)
                } else {
                    bin(op, old, agent)
                }
            }
            _ => {
                let f = BUILTINS[rng.below(BUILTINS.len() as u64) as usize];
                let arity = brasil::plan::Builtin::parse(f).expect("a builtin").arity();
                let at = rng.below(arity as u64) as usize;
                Expr::Call(f.into(), (0..arity).map(|i| if i == at { agent.clone() } else { old.clone() }).collect())
            }
        };
        Some((c, name))
    }

    /// The class with an agent reference planted is refused, by a semantic
    /// error on a line that holds the name planted.
    fn planted_agent_fault(c: &ClassDecl, seed: u64) -> Option<String> {
        let (bad, name) = planted(c, seed)?;
        let src = print_class(&bad);
        let err = match brasil::Script::compile(&src) {
            Ok(_) => return Some(format!("`{name}` planted, and the class compiles:\n{src}")),
            Err(e) => e.to_string(),
        };
        let line = err
            .strip_prefix("semantic error: line ")
            .and_then(|rest| rest.split_once(':'))
            .and_then(|(n, _)| n.parse::<usize>().ok())
            .and_then(|n| src.lines().nth(n.wrapping_sub(1)));
        match line {
            Some(l) if l.split(|ch: char| !ch.is_alphanumeric() && ch != '_').any(|w| w == name) => None,
            _ => Some(format!("`{name}` planted, refused with `{err}`, not on a line that holds it:\n{src}")),
        }
    }

    /// A drawn class runs its query in columns, unoptimized and optimized,
    /// exactly when the query is nothing but one loop that neither draws nor
    /// reads an effect: an ordered body, statements besides the loop, no
    /// loop or several walk one member and one candidate at a time.
    #[test]
    fn brasil_gen_unordered_loops_run_in_columns() {
        let mut columns = 0;
        for seed in 0..2_000 {
            let Ok(class) = compiled(&generated_class(seed)) else { continue };
            for class in [class.clone(), optimize(class)] {
                let s = brasil::vm::lower(&class).summary();
                let loop_only = s.loops == 1 && s.agent_steps == 1 && !s.ordered_body;
                assert_eq!(s.columns, loop_only, "seed {seed}: {s:?}");
                columns += s.columns as usize;
            }
        }
        assert!(columns > 1_000, "only {columns} of 4 000 plans in columns");
    }

    /// Inversion still takes generated classes: the bit-identity property
    /// above is not vacuous, and the mixed-write refusal turns away only
    /// part of the classes with non-local effects.
    #[test]
    fn brasil_gen_inversion_takes_generated_classes() {
        let (mut taken, mut mixed) = (0, 0);
        for seed in 0..2_000 {
            let Ok(class) = compiled(&generated_class(seed)) else { continue };
            if !class.query.has_remote_effects() {
                continue;
            }
            match invert_effects(class) {
                Ok(_) => taken += 1,
                Err(e) => mixed += e.to_string().contains("both locally and non-locally") as usize,
            }
        }
        // 145 and 507 when this was written.
        assert!(
            taken > 100 && mixed > 300,
            "inversion took {taken} of 2 000 classes, refused {mixed} for a mixed field"
        );
    }

    proptest! {
        /// Printing a drawn class and parsing it gives the class back, and
        /// so does printing and parsing that, line numbers aside.
        #[test]
        fn brasil_gen_source_round_trips(seed in any::<u64>()) {
            holds(seed, round_trip_fault)?;
        }

        /// The register program leaves the world the tree walker leaves, bit
        /// for bit, for the plan unoptimized, optimized and inverted.
        #[test]
        fn brasil_gen_vm_equals_reference(seed in any::<u64>()) {
            holds(seed, |c| vm_fault(c, seed))?;
        }

        /// The optimizer, and each of its rewrites applied alone, leaves the
        /// world the unoptimized plan leaves, bit for bit; with inversion,
        /// the world the plan inverted and not optimized leaves.
        #[test]
        fn brasil_gen_optimizer_equals_unoptimized(seed in any::<u64>()) {
            holds(seed, |c| optimizer_fault(c, seed))?;
        }

        /// A second run of the optimizer, either entry point, rewrites
        /// nothing.
        #[test]
        fn brasil_gen_optimizer_is_idempotent(seed in any::<u64>()) {
            holds(seed, idempotence_fault)?;
        }

        /// Where inversion takes a class, it leaves the world the
        /// uninverted class leaves, bit for bit.
        #[test]
        fn brasil_gen_inversion_is_bit_identical(seed in any::<u64>()) {
            holds(seed, |c| inversion_fault(c, seed))?;
        }

        /// `this` or the loop variable where only a number may stand is a
        /// semantic error that names its line.
        #[test]
        fn brasil_gen_agent_in_a_numeric_position_is_refused_on_its_line(seed in any::<u64>()) {
            holds(seed, |c| planted_agent_fault(c, seed))?;
        }
    }
}

// ---------------------------------------------------------------------------
// Durable-run decoders: hostile checkpoint and manifest bytes are an error,
// never a panic or an abort (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

use brace_mapreduce::manifest::{read_manifest, EpochDoneRecord, ManifestWriter, RunHeader, MANIFEST_FILE};
use brace_mapreduce::runtime::EpochCommand;
use brace_mapreduce::{ClusterCheckpoint, ManifestRecord};
use std::path::Path;

/// A checkpoint shaped like the ones the master takes: hostile column bounds
/// and histogram range, and one real worker-snapshot encoding per worker.
fn drawn_checkpoint(rng: &mut DetRng) -> ClusterCheckpoint {
    let schema = AgentSchema::builder("S").state("v").effect("e", Combinator::Sum).build().unwrap();
    let workers = (0..rng.below(4))
        .map(|w| {
            let agents: Vec<Agent> = (0..rng.below(3))
                .map(|i| {
                    let mut a = Agent::new(AgentId::new(w * 4 + i), Vec2::new(rng.unit(), rng.unit()), &schema);
                    a.state[0] = hostile_f64(rng.next_raw());
                    a
                })
                .collect();
            let rng = rng.stream(w);
            codec::encode_snapshot(&codec::WorkerSnapshot { tick: w, next_spawn_id: 4 * w, rng, agents })
        })
        .collect();
    ClusterCheckpoint {
        epoch: rng.next_raw(),
        tick: rng.next_raw(),
        x_bounds: (0..rng.below(5)).map(|_| hostile_f64(rng.next_raw())).collect(),
        hist_range: (hostile_f64(rng.next_raw()), hostile_f64(rng.next_raw())),
        workers,
    }
}

/// One record of every [`ManifestRecord`] variant, fields drawn from `rng`
/// (strings with multi-byte characters, bounds with hostile floats).
fn drawn_manifest_records(rng: &mut DetRng) -> Vec<ManifestRecord> {
    let text = |rng: &mut DetRng| -> String {
        (0..rng.below(12)).map(|_| char::from_u32(rng.below(0x800) as u32).unwrap_or('?')).collect()
    };
    let bounds = |rng: &mut DetRng| -> Option<Vec<f64>> {
        rng.chance(0.5).then(|| (0..rng.below(5)).map(|_| hostile_f64(rng.next_raw())).collect())
    };
    vec![
        ManifestRecord::Header(RunHeader {
            run_id: text(rng),
            job: text(rng),
            workers: rng.next_raw() as u32,
            epoch_len: rng.next_raw(),
            seed: rng.next_raw(),
            index: [IndexKind::Join, IndexKind::Scan][rng.below(2) as usize],
            space_x: (hostile_f64(rng.next_raw()), hostile_f64(rng.next_raw())),
            load_balance: rng.chance(0.5),
            checkpoint_every: rng.next_raw(),
            keep_checkpoints: rng.next_raw() as u32,
            total_ticks: rng.next_raw(),
        }),
        ManifestRecord::Command(EpochCommand {
            epoch: rng.next_raw(),
            ticks: rng.next_raw(),
            new_x_bounds: bounds(rng),
            checkpoint: rng.chance(0.5),
            hist_range: (hostile_f64(rng.next_raw()), hostile_f64(rng.next_raw())),
        }),
        ManifestRecord::EpochDone(EpochDoneRecord {
            epoch: rng.next_raw(),
            checkpoint: rng.chance(0.5),
            hist_range: (hostile_f64(rng.next_raw()), hostile_f64(rng.next_raw())),
            pending_bounds: bounds(rng),
        }),
        ManifestRecord::Complete { ticks: rng.next_raw(), checksum: rng.next_raw() },
    ]
}

/// `input` through the three decoders. Each must return `Ok` or `Err`; a
/// panic is reported with the input.
fn decoders_survive(input: &[u8]) -> Result<(), String> {
    std::panic::catch_unwind(|| {
        let _ = ClusterCheckpoint::decode(input.to_vec().into());
        let _ = ManifestRecord::decode(input.to_vec().into());
        let _ = codec::decode_snapshot(input.to_vec().into());
    })
    .map_err(|_| format!("a decoder panicked on {input:02x?}"))
}

/// `survive` on hostile copies of the valid encoding `valid`: every proper
/// prefix; every 4- and 8-byte window (the width of the formats' counts and
/// lengths) overwritten with all ones and with a count a little past the
/// bytes that follow it; and four copies with up to eight bytes flipped.
fn hostile_copies_survive(
    valid: &[u8],
    rng: &mut DetRng,
    survive: fn(&[u8]) -> Result<(), String>,
) -> Result<(), String> {
    for n in 0..valid.len() {
        survive(&valid[..n])?;
    }
    let mut copy = valid.to_vec();
    for width in [4, 8] {
        for at in 0..valid.len().saturating_sub(width - 1) {
            let past_end = (valid.len() - at - width) as u64 + 1 + rng.below(64);
            for count in [u64::MAX, past_end] {
                copy[at..at + width].copy_from_slice(&count.to_le_bytes()[..width]);
                survive(&copy)?;
            }
            copy[at..at + width].copy_from_slice(&valid[at..at + width]);
        }
    }
    for _ in 0..4 {
        let mut flipped = valid.to_vec();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(flipped.len().max(1) as u64) as usize;
            if let Some(b) = flipped.get_mut(at) {
                *b ^= 1 + rng.below(255) as u8;
            }
        }
        survive(&flipped)?;
    }
    Ok(())
}

/// Write `records` (a header first) to a manifest file in `dir` through the
/// writer, then read that file and hostile copies of it back through
/// `read_manifest`: every cut at, just before and just after a frame boundary
/// and at eight drawn points; each frame's length overwritten with all ones
/// and with a length a little past the end; four copies with up to eight
/// bytes flipped; and arbitrary bytes, behind a valid preamble half of the
/// time. Each read is an `Err` or the header and a prefix of the other
/// records, compared by encoding — never a panic. A cut file reads up to its
/// last whole frame, torn exactly when the cut is not on a frame boundary.
fn manifest_files_read_to_a_clean_prefix(
    records: &[ManifestRecord],
    rng: &mut DetRng,
    dir: &Path,
) -> Result<(), String> {
    let ManifestRecord::Header(header) = &records[0] else { return Err("no header record".into()) };
    let io = |e: std::io::Error| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = ManifestWriter::create(dir, header).map_err(|e| e.to_string())?;
    for record in &records[1..] {
        writer.append(record).map_err(|e| e.to_string())?;
    }
    drop(writer);
    let path = dir.join(MANIFEST_FILE);
    let valid = std::fs::read(&path).map_err(io)?;
    let encoded: Vec<Vec<u8>> = records.iter().map(|r| r.encode().to_vec()).collect();
    let read_back = |file: &[u8]| -> Result<Option<(usize, bool)>, String> {
        std::fs::write(&path, file).map_err(io)?;
        let read = std::panic::catch_unwind(|| read_manifest(dir))
            .map_err(|_| format!("read_manifest panicked on {file:02x?}"))?;
        let Ok(m) = read else { return Ok(None) };
        let got: Vec<Vec<u8>> =
            std::iter::once(ManifestRecord::Header(m.header)).chain(m.records).map(|r| r.encode().to_vec()).collect();
        if !encoded.starts_with(&got) {
            return Err(format!("read back records that were never written from {file:02x?}"));
        }
        Ok(Some((got.len() - 1, m.truncated)))
    };
    // The preamble, then each record's `u32 length + u64 checksum + body`.
    let mut frames = vec![12];
    for body in &encoded {
        frames.push(frames[frames.len() - 1] + 12 + body.len());
    }
    let mut cuts: Vec<usize> = frames.iter().flat_map(|&f| [f - 1, f, f + 1]).collect();
    cuts.extend((0..8).map(|_| rng.below(valid.len() as u64 + 1) as usize));
    for cut in cuts.into_iter().filter(|&cut| cut <= valid.len()) {
        let whole = frames.iter().filter(|&&f| f <= cut).count();
        let want = (cut >= frames[1]).then(|| (whole - 2, !frames.contains(&cut)));
        if read_back(&valid[..cut])? != want {
            return Err(format!("a manifest cut at byte {cut} of {} does not read as {want:?}", valid.len()));
        }
    }
    for &f in &frames[..frames.len() - 1] {
        let past_end = (valid.len() - f - 12) as u32 + 1 + rng.below(64) as u32;
        for len in [u32::MAX, past_end] {
            let mut copy = valid.clone();
            copy[f..f + 4].copy_from_slice(&len.to_le_bytes());
            read_back(&copy)?;
        }
    }
    for _ in 0..4 {
        let mut flipped = valid.clone();
        for _ in 0..1 + rng.below(8) {
            let at = rng.below(flipped.len() as u64) as usize;
            flipped[at] ^= 1 + rng.below(255) as u8;
        }
        read_back(&flipped)?;
    }
    let mut arbitrary: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_raw() as u8).collect();
    if rng.chance(0.5) {
        arbitrary.splice(0..0, valid[..12].iter().copied());
    }
    read_back(&arbitrary)?;
    std::fs::remove_dir_all(dir).map_err(io)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The durable-run decoders behind `--resume`: arbitrary bytes, and the
    /// prefixes, count-inflated and byte-flipped copies of a real
    /// checkpoint's encoding, of its worker snapshots' and of every manifest
    /// record's, all go through `ClusterCheckpoint::decode`,
    /// `ManifestRecord::decode` and `codec::decode_snapshot`, which return
    /// `Ok` or `Err` — never a panic, and never an allocation sized by an
    /// unchecked count, which aborts the process. Valid encodings round-trip
    /// bit for bit. The manifest's frame reader, `read_manifest`, reads
    /// hostile files to an `Err` or a clean prefix of the records written
    /// ([`manifest_files_read_to_a_clean_prefix`]).
    #[test]
    fn checkpoint_and_manifest_decoders_never_panic(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let checkpoint = drawn_checkpoint(&mut rng);
        let encoded = checkpoint.encode();
        let back = ClusterCheckpoint::decode(encoded.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert!(back.encode() == encoded, "seed {seed}: checkpoint changed in a round trip: {checkpoint:?}");
        let mut valid = vec![encoded.to_vec()];
        for payload in &checkpoint.workers {
            let snapshot = codec::decode_snapshot(payload.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
            prop_assert!(codec::encode_snapshot(&snapshot) == *payload, "seed {seed}: snapshot changed in a round trip");
            valid.push(payload.to_vec());
        }
        let records = drawn_manifest_records(&mut rng);
        for record in &records {
            let encoded = record.encode();
            let back = ManifestRecord::decode(encoded.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
            prop_assert!(back.encode() == encoded, "seed {seed}: record changed in a round trip: {record:?}");
            valid.push(encoded.to_vec());
        }
        let mut arbitrary: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_raw() as u8).collect();
        if let Some(tag) = arbitrary.first_mut().filter(|_| rng.chance(0.5)) {
            *tag = rng.below(8) as u8; // past the manifest's tag check
        }
        decoders_survive(&arbitrary).map_err(|e| format!("seed {seed}: {e}"))?;
        for v in &valid {
            hostile_copies_survive(v, &mut rng, decoders_survive).map_err(|e| format!("seed {seed}: {e}"))?;
        }
        let dir = std::env::temp_dir().join(format!("brace-manifest-prop-{}-{seed}", std::process::id()));
        manifest_files_read_to_a_clean_prefix(&records, &mut rng, &dir).map_err(|e| format!("seed {seed}: {e}"))?;
    }
}

// ---------------------------------------------------------------------------
// A checkpoint's one copy: worker snapshots encoded straight from the pool
// (CI reruns `pool_snapshot_` with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// An agent of `schema` at a drawn place, with drawn state and effects; one
/// in ten is dead.
fn drawn_agent(schema: &AgentSchema, id: u64, rng: &mut DetRng) -> Agent {
    let state = (0..schema.num_states()).map(|_| rng.range(-1e3, 1e3)).collect();
    let mut a = Agent::with_state(AgentId::new(id), Vec2::new(rng.range(-50.0, 50.0), rng.unit()), state, schema);
    for e in &mut a.effects {
        *e = rng.range(-1.0, 1.0);
    }
    a.alive = rng.chance(0.9);
    a
}

proptest! {
    /// A worker's checkpoint and collect payload is encoded straight from
    /// its pool's owned prefix (`codec::encode_pool_snapshot`), and must be
    /// byte for byte `codec::encode_snapshot` of the owned agents' records.
    /// The pool is shaped the way a worker's is: owned rows swap-removed
    /// (the tail's last row filling the hole), transfers in and spawns at
    /// their effect identities inserted by relocating the first tail row,
    /// rows edited in place, and a replica tail after the prefix that
    /// enters and leaves and that the snapshot must leave out (there is
    /// one when it is taken). The records
    /// go through the same mutations beside the pool, so the oracle never
    /// reads the pool.
    #[test]
    fn pool_snapshot_equals_the_owned_records_encoded(
        seed in any::<u64>(),
        states in 0usize..4,
        n in 0usize..30,
        ops in 0usize..80,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut builder = AgentSchema::builder("W");
        for s in 0..states {
            builder = builder.state(format!("s{s}"));
        }
        let schema = builder.effect("sum", Combinator::Sum).effect("max", Combinator::Max).build().unwrap();
        let mut owned: Vec<Agent> = (0..n as u64).map(|id| drawn_agent(&schema, id, &mut rng)).collect();
        let mut pool = AgentPool::from_agents(&schema, &owned);
        let mut next_id = n as u64;
        let replica = |pool: &mut AgentPool, rng: &mut DetRng, next_id: &mut u64| {
            pool.push_agent(&drawn_agent(&schema, 1_000_000 + *next_id, rng));
            *next_id += 1;
        };
        for _ in 0..1 + rng.below(3) {
            replica(&mut pool, &mut rng, &mut next_id);
        }
        for _ in 0..ops {
            let n_owned = owned.len();
            let tail = pool.len() - n_owned;
            match rng.below(6) {
                0 if n_owned > 0 => {
                    let r = rng.below(n_owned as u64) as usize;
                    owned.swap_remove(r);
                    pool.copy_row_within(n_owned as u32 - 1, r as u32);
                    if tail > 0 {
                        pool.copy_row_within(pool.len() as u32 - 1, n_owned as u32 - 1);
                    }
                    pool.pop_row();
                }
                1 | 2 => {
                    let spawn = rng.chance(0.5);
                    let a = if spawn {
                        let state = (0..states).map(|_| rng.range(-1.0, 1.0)).collect();
                        Agent::with_state(AgentId::new(next_id), Vec2::new(rng.unit(), rng.unit()), state, &schema)
                    } else {
                        drawn_agent(&schema, next_id, &mut rng)
                    };
                    next_id += 1;
                    if tail > 0 {
                        pool.push_row_copy(n_owned as u32);
                        pool.overwrite_row(n_owned as u32, &a);
                    } else if spawn {
                        pool.push_spawn(a.id, a.pos, &a.state);
                    } else {
                        pool.push_agent(&a);
                    }
                    owned.push(a);
                }
                3 if n_owned > 0 => {
                    let r = rng.below(n_owned as u64) as usize;
                    owned[r].pos = Vec2::new(rng.range(-50.0, 50.0), rng.unit());
                    pool.set_pos(r as u32, owned[r].pos);
                    if states > 0 {
                        let f = rng.below(states as u64) as usize;
                        owned[r].state[f] = rng.range(-1.0, 1.0);
                        pool.set_state(r as u32, FieldId::new(f as u16), owned[r].state[f]);
                    }
                }
                4 if tail > 0 => {
                    let r = n_owned + rng.below(tail as u64) as usize;
                    pool.copy_row_within(pool.len() as u32 - 1, r as u32);
                    pool.pop_row();
                }
                _ => replica(&mut pool, &mut rng, &mut next_id),
            }
        }
        if pool.len() == owned.len() {
            replica(&mut pool, &mut rng, &mut next_id);
        }
        let worker_rng = DetRng::seed_from_u64(rng.next_raw());
        let (tick, next_spawn_id) = (rng.next_raw(), next_id);
        let records = codec::WorkerSnapshot { tick, next_spawn_id, rng: worker_rng.clone(), agents: owned.clone() };
        let from_pool = codec::encode_pool_snapshot(tick, next_spawn_id, &worker_rng, &pool, owned.len());
        prop_assert!(from_pool == codec::encode_snapshot(&records), "seed {seed}: the pool's snapshot differs");
        let back = codec::decode_snapshot(from_pool).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert_eq!(back, records);
    }
}

// ---------------------------------------------------------------------------
// Peer decoders: hostile agent-record, replica-delta, effect-write and
// spawn-run bytes are an error, never a panic or an abort (CI reruns this
// section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// A replica delta frame decoded and drained: its removals, then each
/// update's slot, mask and value bits.
type DrainedDelta = (Vec<u32>, Vec<(u32, u32, Vec<u64>)>);

fn drained_delta(input: &[u8]) -> Result<DrainedDelta, String> {
    let mut delta = codec::decode_replica_delta(input.to_vec().into()).map_err(|e| e.to_string())?;
    let (mut values, mut updates) = (Vec::new(), Vec::new());
    while let Some((slot, mask)) = delta.next_update_into(&mut values).map_err(|e| e.to_string())? {
        updates.push((slot, mask, values.iter().map(|v| v.to_bits()).collect()));
    }
    Ok((delta.removals, updates))
}

/// `input` through every decoder of a peer's payloads: the Distribute
/// round's agent records and replica delta frames (drained), the effect
/// round's writes and the spawn round's runs. Each must return `Ok` or `Err`;
/// a panic is reported with the input.
fn peer_decoders_survive(input: &[u8]) -> Result<(), String> {
    std::panic::catch_unwind(|| {
        let _ = codec::decode_agents(input.to_vec().into());
        let _ = codec::decode_agents_opt(input.to_vec().into());
        let _ = drained_delta(input);
        let _ = codec::decode_effect_writes(input.to_vec().into());
        let _ = codec::decode_spawn_runs(input.to_vec().into());
    })
    .map_err(|_| format!("a peer decoder panicked on {input:02x?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What a peer sends in a tick: drawn agent records (hostile positions
    /// and states, dead ones, 0–3 state fields), a replica delta frame over
    /// them (removals, masked updates of any field subset), effect writes
    /// (hostile values, any field, ids at both ends of their range) and spawn
    /// runs round-trip bit for bit through `codec::decode_agents`,
    /// `decode_replica_delta` + `ReplicaDelta::next_update_into`,
    /// `decode_effect_writes` and `decode_spawn_runs`; arbitrary bytes and
    /// the prefixes, count-inflated and byte-flipped copies of every
    /// encoding decode to `Ok` or `Err` — never a panic, and never an
    /// allocation sized by an unchecked count.
    #[test]
    fn peer_decoders_never_panic(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let id = |rng: &mut DetRng| AgentId::new(if rng.chance(0.2) { u64::MAX - rng.below(2) } else { rng.below(1000) });
        let states = rng.below(4) as usize;
        let mut schema = AgentSchema::builder("Peer").effect("e", Combinator::Sum);
        for s in 0..states {
            schema = schema.state(format!("s{s}"));
        }
        let schema = schema.build().unwrap();
        let agents: Vec<Agent> = (0..1 + rng.below(4))
            .map(|i| {
                let pos = Vec2::new(hostile_f64(rng.next_raw()), hostile_f64(rng.next_raw()));
                let mut a = Agent::new(AgentId::new(i), pos, &schema);
                a.id = id(&mut rng);
                a.state.iter_mut().for_each(|v| *v = hostile_f64(rng.next_raw()));
                a.alive = rng.chance(0.8);
                a
            })
            .collect();
        let encoded_agents = codec::encode_agents(&agents);
        let back = codec::decode_agents(encoded_agents.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert!(codec::encode_agents(&back) == encoded_agents, "seed {seed}: agents changed in a round trip");

        let pool = AgentPool::from_agents(&schema, &agents);
        let mut enc = codec::ReplicaDeltaEnc::new();
        let removals: Vec<u32> = (0..rng.below(4)).map(|_| rng.next_raw() as u32).collect();
        removals.iter().for_each(|&slot| enc.push_removal(slot));
        let mut updates = Vec::new();
        for _ in 0..rng.below(4) {
            let (slot, row) = (rng.next_raw() as u32, rng.below(agents.len() as u64) as u32);
            let mask = 1 + rng.below((1 << (2 + states)) - 1) as u32;
            enc.push_update(slot, mask, &pool, row);
            let a = &agents[row as usize];
            let fields = [a.pos.x, a.pos.y].into_iter().chain(a.state.iter().copied());
            let values = fields.enumerate().filter(|&(f, _)| mask >> f & 1 != 0).map(|(_, v)| v.to_bits()).collect();
            updates.push((slot, mask, values));
        }
        let encoded_delta = enc.finish();
        let back = drained_delta(&encoded_delta).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert!(back == (removals, updates), "seed {seed}: delta frame changed in a round trip");

        let writes: Vec<EffectWrite> = (0..rng.below(6))
            .map(|_| EffectWrite {
                target: id(&mut rng),
                source: id(&mut rng),
                field: FieldId::new(rng.next_raw() as u16),
                v: hostile_f64(rng.next_raw()),
            })
            .collect();
        let encoded = codec::encode_effect_writes(&writes);
        let back = codec::decode_effect_writes(encoded.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert!(
            codec::encode_effect_writes(&back) == encoded,
            "seed {seed}: writes changed in a round trip: {writes:?}"
        );
        let runs: Vec<(AgentId, u32)> = (0..rng.below(6)).map(|_| (id(&mut rng), rng.next_raw() as u32)).collect();
        let encoded_runs = codec::encode_spawn_runs(&runs);
        let back = codec::decode_spawn_runs(encoded_runs.clone()).map_err(|e| format!("seed {seed}: {e}"))?;
        prop_assert!(back == runs, "seed {seed}: spawn runs changed in a round trip: {runs:?}");
        let arbitrary: Vec<u8> = (0..rng.below(128)).map(|_| rng.next_raw() as u8).collect();
        peer_decoders_survive(&arbitrary).map_err(|e| format!("seed {seed}: {e}"))?;
        for valid in [&encoded_agents, &encoded_delta, &encoded, &encoded_runs] {
            hostile_copies_survive(valid, &mut rng, peer_decoders_survive).map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
}

// ---------------------------------------------------------------------------
// Durable decoders accept one encoding per value (CI reruns this section
// with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

/// `input` through the three durable decoders: whatever one of them accepts
/// must re-encode to exactly `input`, so no two files decode to one state —
/// but for the one value with two encodings by design, a run header whose
/// index byte is the retired grid's 1: it reads as the join, which writes 0
/// ([`manifest_reencoded`]).
fn durable_decoders_are_exact(input: &[u8]) -> Result<(), String> {
    let reencoded = [
        ("ClusterCheckpoint::decode", ClusterCheckpoint::decode(input.to_vec().into()).map(|cp| cp.encode().to_vec())),
        ("ManifestRecord::decode", manifest_reencoded(input)),
        ("decode_snapshot", codec::decode_snapshot(input.to_vec().into()).map(|s| codec::encode_snapshot(&s).to_vec())),
    ];
    match reencoded.into_iter().find(|(_, back)| back.as_ref().is_ok_and(|back| back[..] != *input)) {
        Some((decoder, back)) => Err(format!("{decoder} accepted {input:02x?}, which re-encodes to {back:02x?}")),
        None => Ok(()),
    }
}

/// `input` decoded as a manifest record and encoded again, with a run
/// header's index byte put back to 1 where `input` has the retired grid's
/// byte there and the record reads as the join. Every other byte must
/// still come back as it was.
fn manifest_reencoded(input: &[u8]) -> brace_common::Result<Vec<u8>> {
    let record = ManifestRecord::decode(input.to_vec().into())?;
    let mut back = record.encode().to_vec();
    if let ManifestRecord::Header(h) = &record {
        // The index byte follows the tag, two strings, workers, epoch_len and seed.
        let at = 1 + (4 + h.run_id.len()) + (4 + h.job.len()) + 4 + 8 + 8;
        if h.index == IndexKind::Join && input.get(at) == Some(&1) {
            back[at] = 1;
        }
    }
    Ok(back)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A durable file has one encoding per state: every hostile copy of a
    /// drawn checkpoint, of its worker snapshots and of every manifest record
    /// — prefixes, count-inflated and flipped copies, and the valid bytes
    /// with bytes appended — that `ClusterCheckpoint::decode`,
    /// `ManifestRecord::decode` or `codec::decode_snapshot` accepts
    /// re-encodes to exactly its input: no trailing bytes, and no bool or
    /// option tag but 0 or 1. Peer decoders are exempt: a trivial replica
    /// delta frame is legitimately both 0 and 8 bytes.
    #[test]
    fn durable_decoders_are_canonical(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let checkpoint = drawn_checkpoint(&mut rng);
        let mut valid = vec![checkpoint.encode().to_vec()];
        valid.extend(checkpoint.workers.iter().map(|payload| payload.to_vec()));
        valid.extend(drawn_manifest_records(&mut rng).iter().map(|record| record.encode().to_vec()));
        for v in &valid {
            for extra in 1..=1 + rng.below(8) as usize {
                let long: Vec<u8> = v.iter().copied().chain((0..extra).map(|_| rng.next_raw() as u8)).collect();
                durable_decoders_are_exact(&long).map_err(|e| format!("seed {seed}: {e}"))?;
            }
            hostile_copies_survive(v, &mut rng, durable_decoders_are_exact).map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
}

/// `input` through `codec::validate_snapshot` and `codec::decode_snapshot`:
/// the check that verifies a checkpoint file's payloads without decoding
/// them must accept exactly the bytes the decoder accepts.
fn snapshot_check_is_the_decoder(input: &[u8]) -> Result<(), String> {
    let checked = codec::validate_snapshot(input).is_ok();
    let decoded = codec::decode_snapshot(input.to_vec().into()).is_ok();
    if checked == decoded {
        Ok(())
    } else {
        Err(format!("validate_snapshot is {checked} and decode_snapshot {decoded} on {input:02x?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A checkpoint file is verified by `codec::validate_snapshot`, which
    /// walks each worker payload without decoding it, and its payloads are
    /// decoded later, by the workers they restore — so the check must be
    /// `Ok` exactly where `codec::decode_snapshot` is, on the same hostile
    /// bytes `checkpoint_and_manifest_decoders_never_panic` feeds the
    /// decoders: a drawn checkpoint's encoding, its worker snapshots and
    /// every manifest record, their prefixes, count-inflated and flipped
    /// copies and copies with bytes appended, and arbitrary bytes.
    #[test]
    fn durable_decoders_validate_exactly_the_snapshots_they_decode(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let checkpoint = drawn_checkpoint(&mut rng);
        let mut valid = vec![checkpoint.encode().to_vec()];
        valid.extend(checkpoint.workers.iter().map(|payload| payload.to_vec()));
        valid.extend(drawn_manifest_records(&mut rng).iter().map(|record| record.encode().to_vec()));
        for payload in &checkpoint.workers {
            prop_assert!(codec::validate_snapshot(payload).is_ok(), "seed {seed}: a valid snapshot was refused");
        }
        let arbitrary: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_raw() as u8).collect();
        snapshot_check_is_the_decoder(&arbitrary).map_err(|e| format!("seed {seed}: {e}"))?;
        for v in &valid {
            let long: Vec<u8> = v.iter().copied().chain((0..1 + rng.below(8)).map(|_| rng.next_raw() as u8)).collect();
            snapshot_check_is_the_decoder(&long).map_err(|e| format!("seed {seed}: {e}"))?;
            hostile_copies_survive(v, &mut rng, snapshot_check_is_the_decoder).map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
}

// ---------------------------------------------------------------------------
// Serve parsers: hostile HTTP requests, JSON bodies and job lines are an
// error, never a panic (CI reruns this section with PROPTEST_CASES=256)
// ---------------------------------------------------------------------------

use brace_scenario::JobSpec;
use brace_serve::{read_request, HttpError, Json, Request, MAX_BODY};

/// A parser run on one input: `Err` with the input if it panicked.
type Survive = fn(&[u8]) -> Result<(), String>;

/// A byte source that hands out 1–7 bytes per `read`, like a slow socket.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: DetRng,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below(7) as usize).min(buf.len()).min(self.bytes.len());
        let (head, rest) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(head);
        self.bytes = rest;
        Ok(n)
    }
}

/// `input` as one request through `read_request`, cut into reads of 1–7
/// bytes drawn from the input's own hash.
fn request_from(input: &[u8]) -> Result<Request, HttpError> {
    read_request(&mut Trickle { bytes: input, rng: DetRng::seed_from_u64(brace_common::fnv1a(input)) })
}

/// `parse` on `input`, which must return rather than panic; a panic is
/// reported with the input.
fn parser_survives(name: &str, input: &[u8], parse: impl FnOnce() + std::panic::UnwindSafe) -> Result<(), String> {
    std::panic::catch_unwind(parse).map_err(|_| format!("{name} panicked on b\"{}\"", input.escape_ascii()))
}

fn request_survives(input: &[u8]) -> Result<(), String> {
    parser_survives("read_request", input, || {
        let _ = request_from(input);
    })
}

/// `Json::parse` and `JobSpec::parse` take text: `input` decoded lossily.
fn json_survives(input: &[u8]) -> Result<(), String> {
    parser_survives("Json::parse", input, || {
        let _ = Json::parse(&String::from_utf8_lossy(input));
    })
}

fn job_line_survives(input: &[u8]) -> Result<(), String> {
    parser_survives("JobSpec::parse", input, || {
        let _ = JobSpec::parse(&String::from_utf8_lossy(input));
    })
}

/// A `POST /runs` body of the API's shape: a scenario, and drawn optional
/// fields, some of them `null`, one string with an escape in it.
fn drawn_run_body(rng: &mut DetRng) -> String {
    let scenario = ["epidemic", "fish", "predator", "brasil-car", "traffic"][rng.below(5) as usize];
    let optional = [
        ("ticks", rng.below(1000).to_string()),
        ("seed", rng.below(1 << 53).to_string()),
        ("agents", (1 + rng.below(10_000)).to_string()),
        ("conformance", rng.chance(0.5).to_string()),
        ("backend", format!("\"cluster:{}\"", 1 + rng.below(4))),
        ("index", format!("\"\\u{:04x}rid\"", 'g' as u32)),
        ("future", "[1,2.5e3,-0.0,{\"nested\":null}]".to_string()),
    ];
    let mut fields = vec![format!("\"scenario\":\"{scenario}\"")];
    for (key, value) in optional {
        if rng.chance(0.5) {
            fields.push(format!("\"{key}\":{}", if rng.chance(0.1) { "null" } else { &value }));
        }
    }
    format!("{{{}}}", fields.join(if rng.chance(0.5) { "," } else { " , " }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The control plane's parsers on bytes a client sends: valid `GET` and
    /// `POST /runs` requests round-trip their method, path and body through
    /// `read_request` at 1–7 bytes per read, and a `Content-Length` of
    /// `u64::MAX`, of `MAX_BODY + 1` or a little past the bytes sent is an
    /// `Err`. The prefixes, count-inflated and flipped copies of those
    /// requests, of drawn API JSON bodies (with `[` and `{` nesting bombs)
    /// and of `JobSpec::encode` lines go through `read_request`,
    /// `Json::parse` and `JobSpec::parse` respectively, and arbitrary bytes
    /// through all three; each returns `Ok` or `Err` — never a panic.
    #[test]
    fn serve_parsers_never_panic(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from_u64(seed);
        let body = drawn_run_body(&mut rng);
        prop_assert!(
            Json::parse(&body).is_ok_and(|doc| doc.get("scenario").and_then(Json::as_str).is_some()),
            "seed {seed}: the body {body:?} does not parse"
        );
        let length = if rng.chance(0.5) { "Content-Length" } else { "content-length" };
        let post = |len: String| format!("POST /runs HTTP/1.1\r\nHost: localhost\r\n{length}: {len}\r\n\r\n{body}");
        let get_path = format!("/runs/r{}/stream", rng.below(100));
        let get = format!("GET {get_path} HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n");
        let valid_post = post(body.len().to_string());
        for (request, method, path, want) in [(&valid_post, "POST", "/runs", body.as_str()), (&get, "GET", &get_path, "")] {
            let got = request_from(request.as_bytes()).map_err(|e| format!("seed {seed}: {request:?} -> {e:?}"))?;
            prop_assert!(
                (got.method.as_str(), got.path.as_str(), got.body.as_str()) == (method, path, want),
                "seed {seed}: {request:?} read back as {got:?}"
            );
        }
        let past_end = (body.len() as u64 + 1 + rng.below(64)).to_string();
        for len in [u64::MAX.to_string(), (MAX_BODY + 1).to_string(), past_end] {
            let request = post(len);
            prop_assert!(request_from(request.as_bytes()).is_err(), "seed {seed}: {request:?} was accepted");
        }

        let job = JobSpec {
            scenario: ["fish", "epidemic", "brasil-car"][rng.below(3) as usize].to_string(),
            size: rng.chance(0.5).then(|| rng.below(1 << 20) as usize),
            conformance: rng.chance(0.5),
        };
        let line = job.encode();
        prop_assert!(JobSpec::parse(&line).ok() == Some(job), "seed {seed}: {line:?} does not round-trip");

        let depth = 1 + rng.below(100) as usize;
        let bombs = [
            "[".repeat(depth) + &body + &"]".repeat(depth),
            "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth),
        ];
        let arbitrary: Vec<u8> = (0..rng.below(256)).map(|_| rng.next_raw() as u8).collect();
        let survivals: [(&str, Survive); 6] = [
            (&valid_post, request_survives),
            (&get, request_survives),
            (&body, json_survives),
            (&bombs[0], json_survives),
            (&bombs[1], json_survives),
            (&line, job_line_survives),
        ];
        for survive in [request_survives, json_survives, job_line_survives] {
            survive(&arbitrary).map_err(|e| format!("seed {seed}: {e}"))?;
        }
        for (valid, survive) in survivals {
            hostile_copies_survive(valid.as_bytes(), &mut rng, survive).map_err(|e| format!("seed {seed}: {e}"))?;
        }
    }
}
