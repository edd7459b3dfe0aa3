//! The tick's phase functions: query phase, effect finalization, update
//! phase — sharded for intra-worker parallelism, columnar, and index-free:
//! the query phase is a sort-merge spatial join.
//!
//! Each phase has one production entry point — [`query_phase_sharded`]
//! (reduce₁ of Table 1 of the paper), [`replay_effects`] (reduce₂, the
//! peers' shipped writes included) and [`update_phase_sharded`] (map) —
//! and one caller, `crate::superstep::Superstep::run`, the tick driver of
//! the single node and of every cluster worker, which puts a partition's
//! communication between them. The update phase changes no pool
//! membership: it reports killed rows and id-less spawns, and the driver
//! hands them to the partition (a single node compacts the pool and
//! allocates ids in emitted order; a worker swap-removes rows and sequences
//! ids with its peers). So the single node *is* the one-partition case of
//! the runtime, and the integration tests exploit that: the distributed
//! engine must produce bit-identical agents.
//!
//! # Columnar working representation
//!
//! Both phases run over an [`AgentPool`] (struct-of-arrays; see
//! `crate::agent`). The query phase reads positions and state as flat
//! column scans through a copyable [`PoolView`], and the tick's aggregated
//! effects land directly in the pool's effect columns — there is no
//! separate final table and no per-tick `write_into` copy. `Vec<Agent>`
//! survives only at the serialization boundary; [`query_phase`],
//! [`update_phase`] and [`reference_step`] keep a row-oriented executable
//! specification around for the property tests.
//!
//! # The query phase as a sort-merge tile join
//!
//! A behavioral simulation tick *is* a spatial self-join, and the paper's
//! reduce side joins by sorting. So does this one. Once per tick **every
//! visible row** (owned and replica) is put in the **id order** — ascending
//! agent id, which is row order on an id-ordered pool and one radix sort
//! over the ids' varying bytes on a worker's — and then, fed in that order
//! through a stable sort, into the **probe order**: by the tile its
//! position falls in (tile side = the schema's visibility bound: a rule, not
//! a knob), y-major, then by id. Each row of the probe order carries its
//! **id rank**, its place in the id order. That sorted order *is* the index
//! for every schema with a bounded, positive visibility: no spatial index is
//! built, synced or probed (both sorts are the join's build side and are
//! charged to `index_build_ns`). The owned rows
//! of a **strip** of neighbouring tiles — consecutive occupied tiles of one
//! tile-row, each at most two tiles right of the one before, whole tiles
//! while the strip holds at most `2 * LANES` rows; a tile that full on its
//! own is a strip by itself — are a **probe group**, answered together
//! (`crate::slice`, the one production probe loop):
//!
//! 1. the group's candidate *block* is the rows of the tiles that the union
//!    of the members' [`Behavior::probe_rect`]s spans: per tile-row, one
//!    contiguous run of the probe order. When the occupied tiles fit a dense
//!    box, the probe order is a counting sort by tile and its prefix sums are
//!    a **tile directory** (`kernels::TileDirectory`): the window is clamped
//!    into the box and each of its tile-rows is two offset loads. A box too
//!    sparse for one (an agent 10⁹ units out) falls back to a galloping
//!    search from where the same window tile-row began for the previous
//!    group — one cursor per window row (sort + batched multi-search —
//!    Goodrich, Sitchinava & Zhang's MapReduce primitive pair). Sparse tiles
//!    share one window, one block order and one gather per strip instead of
//!    paying them per tile;
//! 2. the block is put in ascending id **once**, on every engine, by
//!    `kernels::block_order` — its id ranks are distinct integers below the
//!    visible-row count, so up to 32 are placed by their counts of smaller
//!    ranks and more are radix-sorted by their bytes; no comparison sort —
//!    and mapped back to rows while its positions are gathered **once** into
//!    contiguous columns;
//! 3. each member takes *its own* candidates out of the block by running
//!    the lane kernel `kernels::filter_rect_coords` over those columns with
//!    *its own* probe rect — the kept candidates leave it with their
//!    positions, which their [`Neighbors`] carries — and its query runs
//!    over them.
//!
//! That probe loop lives in `crate::slice`: each sweep slice is a
//! [`QuerySlice`] handed to [`Behavior::query_slice`], which yields the
//! members in probe order with their candidates and owns each member's
//! writer, stream and write-log run. The hook's default runs the scalar
//! [`Behavior::query`] member by member; BRASIL's register program runs each
//! op once over a run of members' `(member, candidate)` pairs.
//!
//! The window of step 1 is computed from the union rect's own corners with
//! the same monotone function that keyed the rows (`tile_of`), never assumed
//! to be 3×3: every visible row inside a member's rect lies in a tile of the
//! window whatever float rounding did to `x + vis`, whatever a pushdown
//! shrank, however far past the visibility square a rect reaches. Step 3
//! tests closed containment and preserves block order, so each member sees
//! exactly the visible rows inside its own rect, in the canonical order:
//! effects, `neighbor_visits` and every golden are those of one containment
//! scan per agent. Both sorts are stable counting sorts and nothing is carried
//! between ticks: spawn/kill churn changes nothing. The id order is an LSD
//! radix sort, one pass per id byte that varies. The probe order keys each
//! row by its tile's offset from the lowest occupied tile, so a school that
//! swims out of its initial space costs nothing extra: when the box of
//! occupied tiles holds at most 8 tiles per visible row plus 4 096 it is one
//! counting pass over the dense tile index, whose prefix sums are the
//! directory; past that it is a radix sort over the offset's varying bytes,
//! so one agent 10⁹ units away adds a few passes and no cell array. Time is
//! O(passes · n) and memory O(n) either way.
//!
//! **Candidates are canonical**: every block is put in ascending agent-id
//! order before any behavior sees it (its id ranks, ascending), so float
//! effect aggregation is a pure function of the agent set, independent of
//! row placement.
//!
//! **Pushdown, both sides.** A member's probe rect is the *candidate-side*
//! pushdown ([`Behavior::probe_rect`]: a rect tighter than the visibility
//! square). The *probe side* is [`Behavior::reads_neighbors`]: the group's
//! first pass asks each member once, and a member whose query reads no
//! neighbour this tick keeps [`brace_common::Rect::EMPTY`] as its rect — it runs no
//! filter, widens no window, and its query runs over no candidates.
//! A strip without a reader builds no window, block order or gather; the
//! scan and the unbounded path hand a non-reader no candidates either. The
//! hook's contract (an empty neighbourhood makes the same writes and draws)
//! keeps every effect that of the full-neighbourhood oracle, which never
//! asks it. So `neighbor_visits` counts the candidates handed to queries —
//! a reader's containment scan — not every probe's.
//!
//! [`IndexKind::Scan`], the paper's *no-indexing* baseline, keeps one probe
//! per row — sharing its scans between tile-mates would make it an index —
//! through the same loop, as one-row groups in id order: each row runs
//! `kernels::filter_rect_coords` over every visible position, gathered into the id
//! order once per tick, so its candidates come out in ascending id with no
//! sort. A zero visibility takes the scan too (a tile of side 0 is no tile).
//! Unbounded visibility is one group per sweep slice whose block is the id
//! order.
//!
//! # Sharded execution model
//!
//! The state-effect pattern makes the per-partition query phase
//! embarrassingly parallel: queries read only frozen previous-tick state,
//! and effect assignments combine through associative, commutative ⊕
//! operators. The executor exploits this by cutting the **probe order** of
//! the owned rows into contiguous **sweep slices**, one per logical shard,
//! and running them through the run's [`ShardPool`] (the `parallelism`
//! knob; `0` means one thread per available core):
//!
//! * The pool cuts its items into at most `parallelism` contiguous groups.
//!   A budget of `t` is `t − 1` helper threads started once per run and
//!   parked between phases; helper `i` runs group `i` and the calling thread
//!   the last one, so a phase starts no thread and a budget of one holds
//!   none. The update phase shares it: its chunks, each zipped with a
//!   shard's spawn queues, are the items.
//! * Slices follow the probe order, not the row order: a single-node pool's
//!   rows are in id order — spatially random — so a row-range slice would
//!   cut every tile into one sliver per shard and the amortization would
//!   vanish. Strips never cross a slice boundary: a tile (or a run of
//!   neighbouring tiles) that straddles one simply builds a block on both
//!   sides.
//! * Each shard reuses its own block and column scratch, so the hot loop
//!   performs no allocation and no synchronization. All per-tick buffers
//!   live in a [`TickScratch`] that persists across ticks.
//! * A **local-only** effect field is written by its own row alone, so a
//!   shard accumulates it into its **own** [`EffectTable`] of just its slice
//!   (indexed by position in the slice) and the merge is a bitwise scatter
//!   through the order: parallel ≡ serial at the bit level, for any shard
//!   plan and thread count. A local-effect schema has no other kind of field.
//! * A **remote** field (`AgentSchema::is_remote`) may be written by any
//!   visible row, and a float `Sum` into a *target* row is pinned in
//!   **source-id order** — but the sweep visits sources in tile order. So
//!   every write to a remote field, the row's own included (applying those
//!   early would re-associate the sum), is appended to the slice's **effect
//!   write-log** (`crate::effect::EffectLog`), and a member that logged any
//!   is recorded as a writer. Then [`replay_effects`] replays every writer
//!   **once**, in the id order, with the writes peers shipped interleaved by
//!   source id, into the pool's effect columns (writes to replica rows go to
//!   their owners instead). The replay is serial.
//!
//! # Determinism argument
//!
//! One contract, for every schema, shard granule, thread count and
//! partitioning: the sharded query phase and its replay are
//! **bit-identical to [`query_phase`]**, the unsharded, unjoined serial
//! reference (one scalar containment loop over the visible rows per row, in
//! id order). A
//! local-only field is combined by its own row alone, in its query's order,
//! and the merge is a scatter. A remote field is combined in one place only
//! — the replay — in (source id, emission) order, as the reference combines
//! it; a slice or partition boundary changes where a write is logged, not
//! when it is folded, and a source that logged nothing adds nothing
//! (`tests/properties.rs` proves this across seeds, populations, granules,
//! thread budgets and both [`IndexKind`]s). The update phase
//! parallelizes with any contiguous chunking:
//! each agent's update depends only on `(seed, tick, agent)`, and per-chunk
//! spawn queues are concatenated in chunk order, preserving the serial
//! spawn-id assignment exactly.
//!
//! # Visible-set convention
//!
//! The pool passed to the query phase holds the *owned* agents first
//! (rows `0..n_owned`) followed by replicas shipped from other partitions.
//! Queries run only for owned rows; replicas join the probe order and appear
//! in blocks; a non-local write to a replica row is not folded here but
//! handed out for the replica's owner.

use crate::agent::{Agent, AgentPool, PoolView};
use crate::behavior::{Behavior, Neighbors, UpdateCtx};
use crate::effect::{EffectTable, EffectWrite, EffectWriter};
use crate::fanout::ShardPool;
use crate::metrics::TickMetrics;
use crate::schema::AgentSchema;
use crate::slice::{Probe, QuerySlice, SlicePlan, SliceScratch};
use brace_common::ids::AgentIdGen;
use brace_common::{AgentId, DetRng, Vec2};
use brace_spatial::kernels::{radix_sort_by_key, ProbeKey, TileDirectory};
use brace_spatial::IndexKind;
use brace_telemetry::{add, Counter};
use std::ops::Range;
use std::time::Instant;

/// Deterministic RNG stream for `(seed, tick, agent, phase)`. Phase 0 =
/// query, phase 1 = update. Placement- and order-independent by
/// construction.
#[inline]
pub fn agent_rng(seed: u64, tick: u64, agent: brace_common::AgentId, phase: u64) -> DetRng {
    tick_rng(seed, tick, phase).stream(agent.raw())
}

/// The root of one tick's and phase's [`agent_rng`] streams: a phase loop
/// derives it once and then takes `.stream(id)` per agent.
#[inline]
fn tick_rng(seed: u64, tick: u64, phase: u64) -> DetRng {
    DetRng::seed_from_u64(seed).stream(tick.wrapping_shl(1) | phase)
}

/// Rows per logical shard of the query phase. Small enough to give a
/// thread pool slack for balancing, large enough that per-shard overhead
/// (a table reset and a scatter, or a log) stays negligible.
pub const SHARD_ROWS: usize = 2048;

/// The logical shard plan for `n_owned` rows: a pure function of the row
/// count and the rows-per-shard granule — independent of thread count and
/// of effect locality (see the module docs).
fn shard_count(n_owned: usize, shard_rows: usize) -> usize {
    n_owned.div_ceil(shard_rows.max(1))
}

/// Row range of shard `i` of `k` over `n` rows (balanced contiguous split).
pub(crate) fn shard_range(n: usize, k: usize, i: usize) -> Range<usize> {
    (i * n / k)..((i + 1) * n / k)
}

/// True when the id column is strictly increasing — the case for every
/// single-node pool (initial populations are id-ordered, spawns append
/// increasing ids, compaction preserves order). Distributed workers mutate
/// rows in place (swap-removal, persistent replica tails), so their pools
/// lose monotonicity; candidates are still put in **agent id** order, making
/// per-agent neighbor iteration order — and therefore float effect
/// aggregation — a pure function of the agent set, independent of row
/// placement. When ids are monotone the two orders coincide and the id order
/// needs no sort.
#[inline]
fn ids_strictly_increasing(ids: &[AgentId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// The tile coordinate of `v` at tile side `side`: `(v / side).floor() as
/// i64` for every input, NaN and infinities included. Monotone in `v` (IEEE
/// division by a positive side, `floor` and the saturating `as` all are), so
/// every point of a rect lies in a tile between the tiles of the rect's own
/// corners — which is all the join needs to be exact, whatever the rounding.
/// `as` saturates, so absurdly distant agents share an outermost tile:
/// tiling decides how much each block amortizes, never what a probe finds.
#[inline]
pub(crate) fn tile_of(v: f64, side: f64) -> i64 {
    // `floor` without the libm call it is on the baseline target: truncate
    // (saturating, NaN to 0), then step down where truncation rounded up.
    let q = v / side;
    let t = q as i64;
    if (t as f64) > q {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// The tick's two orders over the visible rows, rebuilt every tick into
/// buffers kept across ticks ([`ProbeOrder::plan`]).
#[derive(Default)]
struct ProbeOrder {
    /// The id order: every visible row (owned and replica), in ascending
    /// agent id.
    by_id: Vec<u32>,
    /// The probe order: every visible row, by `(ty, tx, id)` (the join's
    /// build side).
    cells: Vec<ProbeKey>,
    /// Where each tile of `cells` begins, when the occupied box is dense.
    directory: TileDirectory,
    /// The owned rows of `cells`, in probe order (the sweep).
    members: Vec<ProbeKey>,
    /// Every visible row's position, in the id order: the scan's columns and
    /// unbounded visibility's candidates' (empty on the join).
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// The sorts' scatter buffers.
    spare_rows: Vec<u32>,
    spare_cells: Vec<ProbeKey>,
}

impl ProbeOrder {
    /// Plan the tick for `probe` at visibility `vis`. `by_id` is the
    /// identity when `rows_in_id_order`, and otherwise one radix sort over
    /// the ids' varying bytes. `cells` is fed in `by_id` order and, for the
    /// join, sorted by tile of side `vis` with [`TileDirectory::sort`] — a
    /// counting sort that leaves the directory when the occupied box is
    /// dense, a radix sort over the tile's offset from the lowest one
    /// otherwise — and both are stable, so ties keep ascending id. On the
    /// other paths every row is in tile (0, 0), and `cells` is the id order.
    /// `members` receives the owned cells, rows `0..n_owned`, in probe
    /// order. Off the join, `xs` and `ys` receive every row's position in
    /// the id order.
    fn plan(&mut self, view: PoolView<'_>, n_owned: usize, rows_in_id_order: bool, probe: Probe, vis: f64) {
        let ProbeOrder { by_id, cells, directory, members, xs, ys, spare_rows, spare_cells } = self;
        by_id.clear();
        by_id.extend(0..view.len() as u32);
        if !rows_in_id_order {
            radix_sort_by_key(by_id, spare_rows, |&row| view.ids[row as usize].raw() as u128);
        }
        let tile_side = (probe == Probe::Join).then_some(vis);
        let tile = |v: f64| tile_side.map_or(0, |side| tile_of(v, side));
        cells.clear();
        cells.extend(by_id.iter().enumerate().map(|(rank, &row)| {
            let (ty, tx) = (tile(view.ys[row as usize]), tile(view.xs[row as usize]));
            ProbeKey { ty, tx, row, rank: rank as u32 }
        }));
        if tile_side.is_some() {
            directory.sort(cells, spare_cells);
        } else {
            directory.clear();
        }
        members.clear();
        members.extend(cells.iter().filter(|c| (c.row as usize) < n_owned));
        xs.clear();
        ys.clear();
        if probe != Probe::Join {
            xs.extend(by_id.iter().map(|&row| view.xs[row as usize]));
            ys.extend(by_id.iter().map(|&row| view.ys[row as usize]));
        }
    }
}

/// Reusable per-tick working memory, threaded through the executor so the
/// hot path allocates nothing after the first tick: the tick's id and probe
/// orders with their sort buffers, one [`ShardScratch`] (effect table,
/// write-log, candidate block, spawn queue) per logical shard, and for
/// non-local schemas the replay's writer order and the writes to replicas.
/// One `TickScratch` belongs to one behavior (its tables are shaped by the
/// behavior's schema).
#[derive(Default)]
pub struct TickScratch {
    shards: Vec<ShardScratch>,
    /// The id order, the probe order and the sweep.
    probe: ProbeOrder,
    /// Non-local schemas: the shards' writers, `(sweep slice, (id rank, start,
    /// end))`, in the id order — the replay's order. Empty otherwise.
    writers: Vec<(u32, (u32, u32, u32))>,
    /// The writers' radix-sort scatter buffer.
    spare_writers: Vec<(u32, (u32, u32, u32))>,
    /// Non-local schemas: the writes to replica rows, `(target row, write)`,
    /// in ascending source id.
    outbound: Vec<(u32, EffectWrite)>,
    /// The update phase's rows per chunk.
    chunk_rows: Vec<usize>,
}

/// Working memory of one logical shard: its sweep slice's, and its update
/// chunk's spawn queue.
struct ShardScratch {
    query: SliceScratch,
    spawns: Vec<(Vec2, Vec<f64>)>,
    /// Parent agent id of each entry in `spawns`, in lockstep. Spawn ids are
    /// a pure function of `(parent id, ordinal)` so any placement of agents
    /// across shards or workers assigns the same ids.
    spawn_parents: Vec<AgentId>,
}

impl ShardScratch {
    fn new(schema: &AgentSchema) -> Self {
        ShardScratch { query: SliceScratch::new(schema), spawns: Vec::new(), spawn_parents: Vec::new() }
    }
}

impl TickScratch {
    pub fn new() -> Self {
        TickScratch::default()
    }

    /// The last query phase's writes to replica rows, `(target row, write)`,
    /// in ascending source id, each source's in the order it made them.
    pub fn outbound(&self) -> &[(u32, EffectWrite)] {
        &self.outbound
    }

    /// Grow to at least `n` shard scratches shaped by `schema`.
    fn ensure_shards(&mut self, schema: &AgentSchema, n: usize) -> &mut [ShardScratch] {
        while self.shards.len() < n {
            self.shards.push(ShardScratch::new(schema));
        }
        &mut self.shards[..n]
    }
}

/// Serial reference implementation of the query phase: one pass over rows
/// `0..n_owned` in ascending agent id (row order on an id-ordered pool) —
/// one scalar containment loop over every visible row in ascending id, and
/// one scalar [`Behavior::query`] per row, combined in place — into a single
/// full-width `table` (which is reset first). It builds no index and shares
/// no kernel with the sharded phase. This is the executable specification
/// the join, the scan and the write-log replay are tested against;
/// production (the superstep, on a single node and on a worker) calls
/// [`query_phase_sharded`] and [`replay_effects`].
///
/// After this returns, rows `0..n_owned` hold this partition's aggregated
/// effects and rows `n_owned..` its agents' writes to the replicas, folded
/// in the order [`TickScratch::outbound`] hands them out. It returns the
/// query fields of a [`TickMetrics`]: `query_ns`, `nonlocal_writes`, and
/// `neighbor_visits` counting every query's full neighbourhood, readers or
/// not.
pub fn query_phase<B: Behavior>(
    behavior: &B,
    pool: &AgentPool,
    n_owned: usize,
    table: &mut EffectTable,
    tick: u64,
    seed: u64,
) -> TickMetrics {
    let view = pool.view();
    let schema = behavior.schema();
    let vis = schema.visibility();
    let mut stats = TickMetrics::default();
    table.reset(view.len());
    let t0 = Instant::now();
    let mut by_id: Vec<u32> = (0..view.len() as u32).collect();
    by_id.sort_unstable_by_key(|&row| view.ids[row as usize]);
    let (mut candidates, mut xs, mut ys): (Vec<u32>, Vec<f64>, Vec<f64>) = Default::default();
    for &row in by_id.iter().filter(|&&row| (row as usize) < n_owned) {
        let me = view.agent(row);
        debug_assert!(me.alive(), "dead agent in query phase");
        candidates.clear();
        if vis.is_finite() {
            let rect = behavior.probe_rect(me.pos(), vis);
            candidates.extend(by_id.iter().copied().filter(|&r| rect.contains(view.pos(r))));
        } else {
            candidates.extend_from_slice(&by_id);
        }
        stats.neighbor_visits += candidates.len() as u64;
        xs.clear();
        xs.extend(candidates.iter().map(|&r| view.xs[r as usize]));
        ys.clear();
        ys.extend(candidates.iter().map(|&r| view.ys[r as usize]));
        let mut writer = EffectWriter::new(schema, table, row);
        let mut rng = agent_rng(seed, tick, me.id(), 0);
        behavior.query(me, &Neighbors::new(view, &candidates, &xs, &ys, row), &mut writer, &mut rng);
        stats.nonlocal_writes += writer.nonlocal_writes();
    }
    stats.query_ns = t0.elapsed().as_nanos() as u64;
    stats
}

/// Sharded, optionally parallel query phase: rows `0..n_owned` of the pool
/// are queried over the shard plan described in the module docs, and their
/// effects aggregated into the **pool's own effect columns** (by
/// [`replay_effects`] for a non-local schema's remote fields) —
/// bit-identically to [`query_phase`], for either `index` kind.
///
/// `shard_rows` is the rows-per-shard granule: production passes
/// [`SHARD_ROWS`], property tests pass tiny granules to cut small worlds
/// into many sweep slices. `fanout` holds the physical thread budget (a
/// budget of one runs shards inline). Neither affects results, only wall
/// time.
///
/// Returns the query fields of a [`TickMetrics`] (`index_build_ns`,
/// `query_ns`, `merge_ns`, `neighbor_visits`, `nonlocal_writes`), and
/// records the work counters into the thread's telemetry scope: a single
/// node and a cluster worker count alike.
#[allow(clippy::too_many_arguments)]
pub fn query_phase_sharded<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    n_owned: usize,
    index: IndexKind,
    tick: u64,
    seed: u64,
    scratch: &mut TickScratch,
    shard_rows: usize,
    fanout: &mut ShardPool,
) -> TickMetrics {
    let schema = behavior.schema();
    let vis = schema.visibility();
    let mut stats = TickMetrics::default();
    let (view, table) = pool.split_query();
    let nonlocal = schema.has_nonlocal_effects();
    let k = shard_count(n_owned, shard_rows);
    scratch.ensure_shards(schema, k);
    let TickScratch { shards, probe: orders, writers, spare_writers, outbound, .. } = scratch;
    let shards = &mut shards[..k];
    writers.clear();
    outbound.clear();

    // Range probes are shared between tile-mates — except by the scan: it is
    // the paper's *no-indexing* baseline (Figures 3 and 4), and sorting
    // agents into tiles to share its scans would be an index. Under a
    // bounded visibility the shared probe is the sort-merge tile join, whose
    // build side is these sorts: the probe order *is* the index.
    let t0 = Instant::now();
    let probe = if !vis.is_finite() {
        Probe::Everyone
    } else if index == IndexKind::Join && vis > 0.0 {
        Probe::Join
    } else {
        Probe::Scan
    };
    // Once per tick, early-out on the first inversion.
    let rows_in_id_order = ids_strictly_increasing(view.ids);
    orders.plan(view, n_owned, rows_in_id_order, probe, vis);
    let ProbeOrder { by_id, cells, directory, members: order, xs, ys, .. } = &*orders;
    let directory = directory.is_built().then_some(directory);
    stats.index_build_ns = t0.elapsed().as_nanos() as u64;

    table.reset(view.len());
    if k == 0 {
        return stats;
    }

    let t1 = Instant::now();
    let rng = tick_rng(seed, tick, 0);
    let owned = n_owned as u32;
    let plan = SlicePlan { schema, view, owned, cells, directory, by_id, xs, ys, probe, nonlocal, rng };
    // A shard accumulates into a table of the rows it sweeps (a non-local
    // one logs its remote fields' writes besides).
    for (i, shard) in shards.iter_mut().enumerate() {
        shard.query.table.reset(shard_range(n_owned, k, i).len());
    }
    fanout.for_each(shards, |i, shard| {
        QuerySlice::run(behavior, &plan, &order[shard_range(n_owned, k, i)], &mut shard.query)
    });

    // Deterministic merge, directly into the pool's effect columns.
    let t2 = Instant::now();
    // Shards own disjoint slices of the probe order: a bitwise scatter
    // through it.
    for (i, shard) in shards.iter().enumerate() {
        table.scatter_rows_from(&shard.query.table, order[shard_range(n_owned, k, i)].iter().map(|key| key.row));
    }
    if nonlocal {
        // The remote fields' writes wait for `replay_effects` to fold them in
        // the id order: the writers, radix-sorted by id rank. The writes to
        // replica rows leave for their owners in source-id order too (the
        // sort is stable).
        for (s, shard) in shards.iter().enumerate() {
            writers.extend(shard.query.log.writers().iter().map(|&writer| (s as u32, writer)));
            outbound.extend_from_slice(&shard.query.outbound);
        }
        radix_sort_by_key(writers, spare_writers, |&(_, (rank, ..))| rank as u128);
        outbound.sort_by_key(|(_, write)| write.source);
    }
    stats.merge_ns = t2.elapsed().as_nanos() as u64;
    stats.query_ns = t1.elapsed().as_nanos() as u64;
    let (mut groups, mut block_rows, mut logged) = (0u64, 0u64, 0u64);
    for SliceScratch { visits, nonlocal, groups: g, block_rows: b, log, .. } in shards.iter().map(|s| &s.query) {
        stats.neighbor_visits += visits;
        stats.nonlocal_writes += nonlocal;
        groups += g;
        block_rows += b;
        logged += log.len() as u64;
    }
    add(Counter::ExecutorNeighborVisits, stats.neighbor_visits);
    add(Counter::ExecutorNonlocalWrites, stats.nonlocal_writes);
    add(Counter::ExecutorProbeGroups, groups);
    add(Counter::ExecutorBlockCandidates, block_rows);
    add(Counter::ExecutorEffectLogEntries, logged);
    add(Counter::ExecutorTileDirectoryTicks, directory.is_some() as u64);
    stats
}

/// The second reduce pass, and the only place any engine combines a write
/// to a remote field: fold the writes the last [`query_phase_sharded`] over
/// `pool` logged for owned agents, and `inbound` — the writes peers made to
/// them, as `(target row, write)` — into the pool's effect columns, once, in
/// ascending source id. Only the members that logged a write are walked. A
/// source's writes keep the order it made them (they are one ordered run of
/// `inbound`, and the sort is stable). A single node has no inbound
/// writes.
pub fn replay_effects(pool: &mut AgentPool, scratch: &TickScratch, inbound: &mut [(u32, EffectWrite)]) {
    inbound.sort_by_key(|(_, write)| write.source);
    let (view, table) = pool.split_query();
    let owned = scratch.probe.members.len() as u32;
    let mut peers = inbound.iter().peekable();
    for &(s, writer) in &scratch.writers {
        let source = view.ids[scratch.probe.by_id[writer.0 as usize] as usize];
        while let Some((target, write)) = peers.next_if(|(_, write)| write.source < source) {
            table.combine(*target, write.field, write.v);
        }
        table.replay(&scratch.shards[s as usize].query.log, writer, owned);
    }
    for (target, write) in peers {
        table.combine(*target, write.field, write.v);
    }
}

/// Serial reference implementation of the update phase over row records
/// (owned agents with final effects already written into `agent.effects`):
/// run updates, crop movement to the reachable region, remove killed
/// agents, materialize spawns with ids from `id_gen`, and reset effect
/// slots for the next tick. Production paths call
/// [`update_phase_sharded`] and apply its report; this is the `Vec<Agent>`
/// half of the executable specification (see [`reference_step`]). Returns
/// the `spawned` and `killed` fields of a [`TickMetrics`].
pub fn update_phase<B: Behavior>(
    behavior: &B,
    agents: &mut Vec<Agent>,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
) -> TickMetrics {
    let schema = behavior.schema();
    let mut spawns: Vec<(Vec2, Vec<f64>)> = Vec::new();
    update_rows(behavior, schema, agents, tick, seed, &mut spawns);
    let before = agents.len();
    agents.retain(|a| a.alive);
    let killed = before - agents.len();
    let spawned = spawns.len();
    for (pos, state) in spawns {
        let id = id_gen.alloc().expect("agent id space exhausted");
        agents.push(Agent::with_state(id, pos, state, schema));
    }
    TickMetrics { spawned, killed, ..TickMetrics::default() }
}

/// Update one contiguous run of row records, queueing spawns locally
/// (reference path).
fn update_rows<B: Behavior>(
    behavior: &B,
    schema: &AgentSchema,
    agents: &mut [Agent],
    tick: u64,
    seed: u64,
    spawns: &mut Vec<(Vec2, Vec<f64>)>,
) {
    let reach = schema.reachability();
    for agent in agents.iter_mut() {
        let from = agent.pos;
        let rng = agent_rng(seed, tick, agent.id, 1);
        let mut ctx = UpdateCtx::new(tick, rng, spawns);
        behavior.update(agent, &mut ctx);
        agent.pos = Agent::clamp_move(from, agent.pos, reach);
        debug_assert!(!agent.pos.is_nan(), "model produced NaN position for {}", agent.id);
        agent.reset_effects(schema);
    }
}

/// A spawn requested during the update phase, before any agent id has been
/// assigned. Emitted by [`update_phase_sharded`] in the canonical order —
/// chunk-concatenation order, which within any one parent is that parent's
/// spawn-call order — tagged with the parent that requested it. A single
/// node allocates ids in that order; the distributed runtime assigns final
/// ids by the **global** ascending `(parent id, ordinal)` order across all
/// workers — the same order — so id assignment is a pure function of the
/// previous tick's world, independent of partition placement or worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSpawn {
    /// The agent whose update requested this spawn.
    pub parent: AgentId,
    /// Spawn position (already clamped by the model's own logic, not by
    /// the parent's reachability — spawns are placements, not moves).
    pub pos: Vec2,
    /// Initial state vector (schema-width).
    pub state: Vec<f64>,
}

/// Sharded, optionally parallel update phase over rows `0..n_owned` of the
/// pool — the map side of the tick: one [`Behavior::update_rows`] call per
/// contiguous chunk, one chunk per thread of the budget, through the query
/// phase's [`ShardPool`]. The hook's default gathers one row at
/// a time into a scratch record for [`Behavior::update`]; BRASIL's register
/// program reads the chunk's columns a lane of agents per pass. Rows past
/// `n_owned` (a worker's persistent replica tail) are left alone.
///
/// Pool membership is left to the caller, so a single node and a worker share
/// this one entry point: killed rows are reported in `killed` (ascending row
/// order) and spawns id-less in `spawned`, in chunk order. Per-chunk spawn
/// queues are concatenated in chunk order, which reproduces the serial spawn
/// ordering exactly, and each agent's update is a pure function of
/// `(seed, tick, agent)` — so applied in order (compact the killed rows,
/// allocate ids in emitted order, reset the effect columns) the result is
/// bit-identical to [`update_phase`] for every chunking and thread count.
/// The spawns and kills are counted into the thread's telemetry scope.
#[allow(clippy::too_many_arguments)]
pub fn update_phase_sharded<B: Behavior>(
    behavior: &B,
    pool: &mut AgentPool,
    n_owned: usize,
    tick: u64,
    seed: u64,
    scratch: &mut TickScratch,
    fanout: &mut ShardPool,
    killed: &mut Vec<u32>,
    spawned: &mut Vec<PendingSpawn>,
) {
    let schema = behavior.schema();
    let threads = fanout.budget().min(n_owned).max(1);
    scratch.ensure_shards(schema, threads);
    let TickScratch { shards, chunk_rows, .. } = scratch;
    let shards = &mut shards[..threads];
    chunk_rows.clear();
    chunk_rows.extend((0..threads).map(|t| shard_range(n_owned, threads, t).len()));
    // The chunks and their pairing with the shards borrow the pool and the
    // shards for this phase only, so they are the phase's to allocate.
    let mut work: Vec<_> = pool.update_chunks_prefix(chunk_rows).into_iter().zip(shards.iter_mut()).collect();
    let root = tick_rng(seed, tick, 1);
    fanout.for_each(&mut work, |_, (chunk, shard)| {
        let ShardScratch { spawns, spawn_parents, .. } = shard;
        spawns.clear();
        spawn_parents.clear();
        behavior.update_rows(chunk, tick, &root, spawns, spawn_parents);
    });
    drop(work);
    killed.clear();
    killed.extend((0..n_owned as u32).filter(|&r| !pool.alive(r)));
    spawned.clear();
    for shard in shards.iter_mut() {
        for ((pos, state), parent) in shard.spawns.drain(..).zip(shard.spawn_parents.drain(..)) {
            spawned.push(PendingSpawn { parent, pos, state });
        }
    }
    add(Counter::ExecutorSpawned, spawned.len() as u64);
    add(Counter::ExecutorKilled, killed.len() as u64);
}

/// One full tick over a `Vec<Agent>` world: convert to a fresh pool at the
/// boundary, run the unsharded reference query phase, copy effects back into
/// the records, run the serial reference update phase. This is the row-oriented executable specification the
/// pool-backed `Simulation` is property-tested against (bit-identical
/// worlds).
pub fn reference_step<B: Behavior>(
    behavior: &B,
    agents: &mut Vec<Agent>,
    tick: u64,
    seed: u64,
    id_gen: &mut AgentIdGen,
) {
    let schema = behavior.schema();
    let pool = AgentPool::from_agents(schema, agents);
    let mut table = EffectTable::new(schema);
    query_phase(behavior, &pool, agents.len(), &mut table, tick, seed);
    table.write_into(agents);
    update_phase(behavior, agents, tick, seed, id_gen);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentRef;
    use crate::combinator::Combinator;
    use crate::engine::Simulation;
    use crate::schema::AgentSchema;
    use crate::slice::STRIP_MEMBERS;
    use brace_common::{AgentId, FieldId, Rect, Vec2};
    use brace_spatial::kernels::seek_window;

    fn build_sim<B: Behavior>(b: B, agents: Vec<Agent>, kind: IndexKind, seed: u64, threads: usize) -> Simulation<B> {
        Simulation::builder(b).agents(agents).index(kind).seed(seed).parallelism(threads).build().unwrap()
    }

    /// Test model: each agent counts neighbors within distance 1 (L∞) into
    /// effect `n`, then moves right by 0.1 * n (cropped by reachability).
    struct CountAndDrift {
        schema: AgentSchema,
    }

    impl CountAndDrift {
        fn new() -> Self {
            let schema = AgentSchema::builder("CountAndDrift")
                .effect("n", Combinator::Sum)
                .visibility(1.0)
                .reachability(0.5)
                .build()
                .unwrap();
            CountAndDrift { schema }
        }
    }

    impl Behavior for CountAndDrift {
        fn schema(&self) -> &AgentSchema {
            &self.schema
        }

        fn query(&self, _me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }

        fn update(&self, me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {
            let n = me.effect(FieldId::new(0));
            me.pos.x += 0.1 * n;
        }
    }

    fn line_of_agents(schema: &AgentSchema, n: usize, gap: f64) -> Vec<Agent> {
        (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64 * gap, 0.0), schema)).collect()
    }

    #[test]
    fn neighbor_counts_are_correct() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 5, 0.9); // each sees adjacent only
        let mut sim = build_sim(b, agents, IndexKind::Join, 1, 1);
        let tm = sim.step();
        assert_eq!(tm.n_agents, 5);
        // After the tick, agents moved: ends saw 1 neighbor (moved 0.1),
        // middles saw 2 (moved 0.2).
        let xs: Vec<f64> = sim.agents().iter().map(|a| a.pos.x).collect();
        assert!((xs[0] - 0.1).abs() < 1e-12);
        assert!((xs[1] - (0.9 + 0.2)).abs() < 1e-12);
        assert!((xs[4] - (3.6 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn all_index_kinds_agree() {
        let run = |kind: IndexKind| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 40, 0.3);
            let mut e = build_sim(b, agents, kind, 7, 1);
            e.run(5);
            e.agents().iter().map(|a| a.pos).collect::<Vec<_>>()
        };
        assert_eq!(run(IndexKind::Join), run(IndexKind::Scan));
    }

    #[test]
    fn movement_cropped_to_reachability() {
        // One dense cluster: counts are large, drift would exceed 0.5.
        let b = CountAndDrift::new();
        let agents: Vec<Agent> = (0..20).map(|i| Agent::new(AgentId::new(i), Vec2::ZERO, b.schema())).collect();
        let mut sim = build_sim(b, agents, IndexKind::Join, 1, 1);
        sim.step();
        for a in sim.agents() {
            assert!((a.pos.x - 0.5).abs() < 1e-12, "movement not cropped: {}", a.pos.x);
        }
    }

    #[test]
    fn effects_reset_between_ticks() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 3, 0.5);
        let mut sim = build_sim(b, agents, IndexKind::Join, 1, 1);
        sim.step();
        for a in sim.agents() {
            assert_eq!(a.effects, vec![0.0], "effects must be identity after tick");
        }
    }

    /// Model that spawns one child per tick per agent at tick 0 and kills
    /// agents with odd ids at tick 1. Exercises spawn/kill handling.
    struct SpawnKill {
        schema: AgentSchema,
    }

    impl Behavior for SpawnKill {
        fn schema(&self) -> &AgentSchema {
            &self.schema
        }
        fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            if ctx.tick == 0 {
                ctx.spawn(me.pos + Vec2::new(0.1, 0.0), vec![]);
            }
            if ctx.tick == 1 && me.id.raw() % 2 == 1 {
                me.alive = false;
            }
        }
    }

    #[test]
    fn spawn_and_kill_lifecycle() {
        let schema = AgentSchema::builder("SpawnKill").visibility(1.0).build().unwrap();
        let b = SpawnKill { schema };
        let agents: Vec<Agent> =
            (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), b.schema())).collect();
        let mut sim = build_sim(b, agents, IndexKind::Join, 1, 1);
        let tm0 = sim.step();
        assert_eq!(tm0.spawned, 4);
        assert_eq!(sim.agents().len(), 8);
        // Spawned ids continue above the original max.
        assert!(sim.agents().iter().any(|a| a.id.raw() >= 4));
        let tm1 = sim.step();
        assert!(tm1.killed > 0);
        assert!(sim.agents().iter().all(|a| a.alive));
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = |seed| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 30, 0.4);
            let mut e = build_sim(b, agents, IndexKind::Join, seed, 1);
            e.run(10);
            e.agents().iter().map(|a| (a.id, a.pos)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn step_reports_each_tick() {
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 10, 0.4);
        let mut sim = build_sim(b, agents, IndexKind::Join, 1, 1);
        let ticks: Vec<_> = (0..4).map(|_| sim.step()).collect();
        assert_eq!(ticks.iter().map(|tm| tm.tick).collect::<Vec<_>>(), [0, 1, 2, 3]);
        assert_eq!(ticks.iter().map(|tm| tm.n_agents).sum::<usize>(), 40);
        assert_eq!(sim.tick(), 4);
    }

    #[test]
    fn parallel_executor_matches_serial_executor() {
        // Same world stepped with 1 and 4 threads: bit-identical states.
        let run = |threads: usize| {
            let b = CountAndDrift::new();
            let agents = line_of_agents(b.schema(), 500, 0.2);
            let mut e = build_sim(b, agents, IndexKind::Join, 9, threads);
            e.run(8);
            e.agents()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_executor_matches_reference_step() {
        let b = CountAndDrift::new();
        let mut world = line_of_agents(b.schema(), 120, 0.3);
        let mut sim = build_sim(CountAndDrift::new(), world.clone(), IndexKind::Join, 13, 1);
        let mut id_gen = AgentIdGen::from(world.iter().map(|a| a.id.raw()).max().unwrap() + 1);
        for tick in 0..6 {
            sim.step();
            reference_step(&b, &mut world, tick, 13, &mut id_gen);
        }
        assert_eq!(sim.agents(), world);
    }

    #[test]
    fn sharded_phases_match_serial_reference() {
        // Direct phase-level comparison against the unsharded reference:
        // 5000 owned rows put the deterministic plan at 3 shards, and a
        // local-effect schema merges by copy, so the tables must agree
        // bit for bit, on the join and on the scan.
        let b = CountAndDrift::new();
        let agents = line_of_agents(b.schema(), 5000, 0.2);
        let pool = AgentPool::from_agents(b.schema(), &agents);
        let mut ref_table = EffectTable::new(b.schema());
        let ref_stats = query_phase(&b, &pool, pool.len(), &mut ref_table, 0, 3);
        for kind in [IndexKind::Join, IndexKind::Scan] {
            let mut sh_pool = AgentPool::from_agents(b.schema(), &agents);
            let n = sh_pool.len();
            let mut scratch = TickScratch::new();
            let sh_stats =
                query_phase_sharded(&b, &mut sh_pool, n, kind, 0, 3, &mut scratch, SHARD_ROWS, &mut ShardPool::new(2));
            assert_eq!(ref_stats.neighbor_visits, sh_stats.neighbor_visits, "{kind:?}");
            for r in 0..n as u32 {
                assert_eq!(ref_table.row(r), sh_pool.effects().row(r), "{kind:?} row {r}");
            }
        }
    }

    /// Reads its neighbourhood only while its `reader` state is positive:
    /// then it counts its neighbours into a local field and pushes a unit
    /// onto each through a remote one. Every agent draws once and writes the
    /// draw first, reader or not — the writes and draws a non-reader makes
    /// over any neighbourhood.
    struct Guarded {
        schema: AgentSchema,
    }

    impl Guarded {
        fn new(vis: f64) -> Self {
            let schema = AgentSchema::builder("Guarded")
                .state("reader")
                .effect("draw", Combinator::Sum)
                .effect("seen", Combinator::Sum)
                .remote_effect("pushed", Combinator::Sum)
                .visibility(vis)
                .reachability(0.5)
                .build()
                .unwrap();
            Guarded { schema }
        }
    }

    impl Behavior for Guarded {
        fn schema(&self) -> &AgentSchema {
            &self.schema
        }

        fn reads_neighbors(&self, me: AgentRef<'_>) -> bool {
            me.state(0) > 0.0
        }

        fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
            eff.local(FieldId::new(0), rng.unit());
            if me.state(0) <= 0.0 {
                return;
            }
            for nb in nbrs.iter() {
                eff.local(FieldId::new(1), 1.0);
                eff.remote(nb.row, FieldId::new(2), 1.0);
            }
        }

        fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
    }

    /// Probe-side pushdown: a member whose `reads_neighbors` is false gets
    /// no candidates and adds none to any block — on the join, on the scan
    /// and under unbounded visibility — while its query still runs, and the
    /// effects stay bit-equal to the oracle's, which hands every query its
    /// full neighbourhood. With no reader at all nothing is visited; with
    /// every third agent a reader, only the readers' candidates are.
    #[test]
    fn non_readers_are_handed_no_candidates_and_change_no_effect() {
        let mut rng = DetRng::seed_from_u64(17);
        let points: Vec<Vec2> = (0..300).map(|_| Vec2::new(rng.range(0.0, 12.0), rng.range(0.0, 12.0))).collect();
        for vis in [1.0, f64::INFINITY] {
            for kind in [IndexKind::Join, IndexKind::Scan] {
                for readers in [0usize, 3] {
                    let b = Guarded::new(vis);
                    let agents: Vec<Agent> = points
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| {
                            let reader = readers > 0 && i % readers == 0;
                            Agent::with_state(AgentId::new(i as u64), p, vec![reader as u8 as f64], b.schema())
                        })
                        .collect();
                    let case = format!("visibility {vis}, {kind:?}, readers 1 in {readers}");
                    let pool = AgentPool::from_agents(b.schema(), &agents);
                    let n = pool.len();
                    let mut oracle = EffectTable::new(b.schema());
                    let full = query_phase(&b, &pool, n, &mut oracle, 4, 9);
                    // The readers' share of the oracle's visits.
                    let read: u64 = (0..n as u32)
                        .filter(|&r| b.reads_neighbors(pool.view().agent(r)))
                        .map(|r| {
                            let rect = b.probe_rect(pool.pos(r), vis);
                            (0..n as u32).filter(|&c| !vis.is_finite() || rect.contains(pool.pos(c))).count() as u64
                        })
                        .sum();
                    let mut sharded = AgentPool::from_agents(b.schema(), &agents);
                    let mut scratch = TickScratch::new();
                    let stats =
                        query_phase_sharded(&b, &mut sharded, n, kind, 4, 9, &mut scratch, 64, &mut ShardPool::new(2));
                    replay_effects(&mut sharded, &scratch, &mut []);
                    let shards = &scratch.shards[..shard_count(n, 64)];
                    let blocks: u64 = shards.iter().map(|s| s.query.block_rows).sum();
                    let groups: u64 = shards.iter().map(|s| s.query.groups).sum();
                    assert_eq!(stats.neighbor_visits, read, "{case}");
                    assert!(full.neighbor_visits > read, "{case}: the oracle reads every neighbourhood");
                    if readers == 0 {
                        assert_eq!((stats.neighbor_visits, blocks, groups), (0, 0, 0), "{case}");
                    } else {
                        assert!(groups > 0, "{case}: a reader's group builds its block");
                    }
                    assert_eq!(stats.nonlocal_writes, full.nonlocal_writes, "{case}");
                    for r in 0..n as u32 {
                        assert_eq!(oracle.row(r), sharded.effects().row(r), "{case}: row {r}");
                    }
                }
            }
        }
    }

    /// Checks, in every query, that its neighbourhood carries each
    /// candidate's position bit for bit as the view holds it, in columns
    /// parallel to the rows, and that iteration skips the member itself;
    /// counts the neighbours it saw.
    struct Carried(AgentSchema);

    impl Behavior for Carried {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }

        fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
            let (view, (rows, xs, ys)) = (nbrs.view(), nbrs.columns());
            assert_eq!(nbrs.me(), me.row);
            assert_eq!((xs.len(), ys.len()), (rows.len(), rows.len()));
            for ((&row, &x), &y) in rows.iter().zip(xs).zip(ys) {
                assert_eq!(
                    (x.to_bits(), y.to_bits()),
                    (view.xs[row as usize].to_bits(), view.ys[row as usize].to_bits())
                );
            }
            let mut seen = 0;
            for nb in nbrs.iter() {
                assert_ne!(nb.row, me.row, "iteration must skip the member");
                assert_eq!(
                    (nb.pos.x.to_bits(), nb.pos.y.to_bits()),
                    (nb.agent.pos().x.to_bits(), nb.agent.pos().y.to_bits())
                );
                seen += 1;
            }
            assert_eq!(seen, rows.iter().filter(|&&r| r != me.row).count());
            eff.local(FieldId::new(0), seen as f64);
        }

        fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
    }

    /// The slice invariant: on every path — the join with and without a tile
    /// directory, the scan, unbounded visibility and the serial oracle — each
    /// carried position is `view.pos(row)` bit for bit and `Neighbors::iter`
    /// skips the member, over signed zeros, coincident points and tile
    /// edges. Every path sees the oracle's neighbour counts.
    #[test]
    fn neighbors_carry_each_candidates_position_on_every_path() {
        let mut rng = DetRng::seed_from_u64(23);
        let mut points: Vec<Vec2> = (0..260).map(|_| Vec2::new(rng.range(-6.0, 6.0), rng.range(-6.0, 6.0))).collect();
        for (i, p) in points.iter_mut().enumerate().skip(1) {
            match i % 9 {
                1 => *p = Vec2::new(-0.0, p.y),
                2 => *p = Vec2::new(p.x, 0.0),
                4 => *p = Vec2::new(p.x.round(), p.y.round()),
                _ => {}
            }
        }
        points[7] = points[6];
        for (vis, kind, outlier) in [
            (1.0, IndexKind::Join, false),
            (1.0, IndexKind::Join, true),
            (1.0, IndexKind::Scan, false),
            (f64::INFINITY, IndexKind::Join, false),
        ] {
            let b = Carried(
                AgentSchema::builder("Carried").effect("seen", Combinator::Sum).visibility(vis).build().unwrap(),
            );
            let mut world = points.clone();
            if outlier {
                // A box too sparse for a tile directory.
                world.push(Vec2::new(1e9, -1e9));
            }
            let agents: Vec<Agent> =
                world.iter().enumerate().map(|(i, &p)| Agent::new(AgentId::new(i as u64), p, b.schema())).collect();
            let case = format!("visibility {vis}, {kind:?}, outlier {outlier}");
            let pool = AgentPool::from_agents(b.schema(), &agents);
            let n = pool.len();
            let mut oracle = EffectTable::new(b.schema());
            query_phase(&b, &pool, n, &mut oracle, 1, 3);
            let mut sharded = AgentPool::from_agents(b.schema(), &agents);
            let mut scratch = TickScratch::new();
            let stats = query_phase_sharded(&b, &mut sharded, n, kind, 1, 3, &mut scratch, 32, &mut ShardPool::new(1));
            let directory = kind == IndexKind::Join && vis.is_finite() && !outlier;
            assert_eq!(scratch.probe.directory.is_built(), directory, "{case}");
            assert!(stats.neighbor_visits > n as u64, "{case}: members see their neighbours");
            for r in 0..n as u32 {
                assert_eq!(oracle.row(r), sharded.effects().row(r), "{case}: row {r}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_transparent_across_population_changes() {
        // Spawning grows the population across SHARD_ROWS boundaries while
        // the scratch persists; results must stay deterministic.
        let schema = AgentSchema::builder("Spawner").visibility(1.0).build().unwrap();
        struct Spawner(AgentSchema);
        impl Behavior for Spawner {
            fn schema(&self) -> &AgentSchema {
                &self.0
            }
            fn query(&self, _m: AgentRef<'_>, _n: &Neighbors<'_>, _e: &mut EffectWriter<'_>, _rng: &mut DetRng) {}
            fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
                if me.id.raw().is_multiple_of(3) {
                    ctx.spawn(me.pos + Vec2::new(0.01, 0.0), vec![]);
                }
            }
        }
        let run = |threads: usize| {
            let b = Spawner(schema.clone());
            let agents: Vec<Agent> =
                (0..1500).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64 * 0.1, 0.0), &schema)).collect();
            let mut e = build_sim(b, agents, IndexKind::Join, 2, threads);
            e.run(3); // population: 1500 -> 2000 -> ~2667 -> crosses 2048
            e.agents().iter().map(|a| (a.id, a.pos)).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(3));
    }

    /// A pool of agents at `points` with ids `ids`, the first `n_owned` of
    /// them owned, planned for `probe` at visibility `vis` into `orders`.
    fn plan_points(
        orders: &mut ProbeOrder,
        points: &[(f64, f64)],
        ids: &[u64],
        n_owned: usize,
        probe: Probe,
        vis: f64,
    ) {
        let schema = CountAndDrift::new().schema;
        let agents: Vec<Agent> = points
            .iter()
            .zip(ids)
            .map(|(&(x, y), &id)| Agent::new(AgentId::new(id), Vec2::new(x, y), &schema))
            .collect();
        let pool = AgentPool::from_agents(&schema, &agents);
        orders.plan(pool.view(), n_owned, ids_strictly_increasing(pool.view().ids), probe, vis);
    }

    /// Every position, with ids in row order, in the probe order at tile
    /// side 1.
    fn probe_order(points: &[(f64, f64)]) -> Vec<ProbeKey> {
        let mut orders = ProbeOrder::default();
        let ids: Vec<u64> = (0..points.len() as u64).collect();
        plan_points(&mut orders, points, &ids, points.len(), Probe::Join, 1.0);
        orders.cells
    }

    /// Run [`seek_window`] over the tiles of `rect`'s corners from `cursors`
    /// and check it against its specification: the block is the rank of every
    /// row whose tile lies in the rect's window, in probe order — what a walk
    /// that seeks every row from index 0 finds — and afterwards each cursor
    /// holds exactly where its window tile-row begins.
    fn window_checked(cells: &[ProbeKey], rect: &Rect, cursors: &mut [usize; 3]) -> Vec<u32> {
        let mut block = Vec::new();
        let (tx0, tx1) = (tile_of(rect.lo.x, 1.0), tile_of(rect.hi.x, 1.0));
        let (ty0, ty1) = (tile_of(rect.lo.y, 1.0), tile_of(rect.hi.y, 1.0));
        seek_window(cells, (ty0, tx0), (ty1, tx1), cursors, &mut block);
        let from_zero: Vec<u32> = cells
            .iter()
            .filter(|c| (ty0..=ty1).contains(&c.ty) && (tx0..=tx1).contains(&c.tx))
            .map(|c| c.rank)
            .collect();
        assert_eq!(block, from_zero, "window of {rect:?}");
        for (d, &cursor) in cursors.iter().enumerate() {
            if let Some(ty) = ty0.checked_add(d as i64).filter(|&ty| ty <= ty1) {
                assert_eq!(cursor, cells.partition_point(|c| c.tile() < (ty, tx0)), "cursor {d} of {rect:?}");
            }
        }
        block
    }

    #[test]
    fn seek_window_keys_its_cursors_by_tile_row_in_a_one_dimensional_world() {
        // Every window has an empty tile-row above and below the road; the
        // cursors carry from one agent's window to the next, as in a sweep.
        let points: Vec<(f64, f64)> = (0..60).map(|i| (i as f64 * 0.7, 0.0)).collect();
        let cells = probe_order(&points);
        let mut cursors = [0; 3];
        for &(x, y) in &points {
            let block = window_checked(&cells, &Rect::centered(Vec2::new(x, y), 1.0), &mut cursors);
            assert!(!block.is_empty());
        }
    }

    #[test]
    fn seek_window_is_exact_from_hints_behind_ahead_and_past_the_end() {
        let points: Vec<(f64, f64)> =
            (0..200).map(|i| ((i * 37 % 23) as f64 * 0.9 - 4.0, (i * 11 % 17) as f64 * 0.8 - 3.0)).collect();
        let cells = probe_order(&points);
        let n = cells.len();
        for &(x, y) in points.iter().step_by(7) {
            let rect = Rect::centered(Vec2::new(x, y), 1.3);
            let want = window_checked(&cells, &rect, &mut [0; 3]);
            for mut hints in [[n - 1; 3], [n / 2, 0, n - 1], [n; 3], [n + 5, usize::MAX, n * 3]] {
                assert_eq!(window_checked(&cells, &rect, &mut hints), want);
            }
        }
    }

    #[test]
    fn seek_window_spans_five_tile_rows_with_an_empty_middle_row() {
        // Tile-rows 0, 1, 3 and 4 are occupied, row 2 is empty, and each
        // occupied row also holds a tile left and right of the window.
        let mut points = Vec::new();
        for ty in [0, 1, 3, 4] {
            for tx in -2..6 {
                points.push((tx as f64 + 0.5, ty as f64 + 0.25));
            }
        }
        let cells = probe_order(&points);
        let rect = Rect::from_bounds(0.1, 3.9, 0.0, 4.5);
        for mut hints in [[0; 3], [cells.len(); 3], [40, 3, 17]] {
            let block = window_checked(&cells, &rect, &mut hints);
            assert_eq!(block.len(), 4 * 4, "four occupied rows × tiles 0..=3");
        }
    }

    #[test]
    fn seek_window_handles_tiles_saturated_at_the_ends_of_i64() {
        let points = [(-1e300, -1e300), (-1e300, 1e300), (0.5, 0.5), (1e300, -1e300), (1e300, 1e300), (2.0, 1e300)];
        let cells = probe_order(&points);
        assert_eq!(cells[0].tile(), (i64::MIN, i64::MIN));
        assert_eq!(cells[cells.len() - 1].tile(), (i64::MAX, i64::MAX));
        let mut cursors = [0; 3];
        for &(x, y) in &points {
            let block = window_checked(&cells, &Rect::centered(Vec2::new(x, y), 1.0), &mut cursors);
            assert!(block.contains(&(points.iter().position(|&p| p == (x, y)).unwrap() as u32)));
        }
        let everything = Rect::from_bounds(-1e300, 1e300, -1e300, 1e300);
        assert_eq!(window_checked(&cells, &everything, &mut cursors).len(), points.len());
    }

    /// The values where truncating and stepping down could part from libm's
    /// `floor`: signed zeros, infinities, NaN, subnormals, halves, the
    /// largest doubles, and the neighbours of ±2⁶³ (where `as` saturates)
    /// and of ±2⁵² and ±2⁵³ (where doubles stop having fractions: 2⁵² − ½
    /// is the last with one, and 2⁵² + ½ falls between 2⁵² and 2⁵² + 1).
    #[test]
    fn tile_of_is_the_libm_floor_at_special_values() {
        let mut values = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MAX, f64::MIN];
        values.extend([f64::from_bits(1), f64::MIN_POSITIVE, 0.5, 1.0, 1.5, 1e300, 2.5e-300]);
        for base in [2f64.powi(63), 2f64.powi(52), 2f64.powi(53)] {
            values.extend([base.next_down(), base, base.next_up()]);
        }
        values.extend(values.clone().iter().map(|v| -v));
        for v in values {
            for side in [1.0, 0.37, 3.0, 1e-300, 1e300] {
                assert_eq!(tile_of(v, side), (v / side).floor() as i64, "tile_of({v:e}, {side:e})");
            }
        }
    }

    /// The probe groups one query phase of `CountAndDrift` (visibility 1, so
    /// tile side 1) builds over agents at `points`, summed over its shards.
    fn probe_groups(points: &[(f64, f64)], shard_rows: usize) -> u64 {
        let b = CountAndDrift::new();
        let agents: Vec<Agent> = (0..points.len())
            .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(points[i].0, points[i].1), b.schema()))
            .collect();
        let mut pool = AgentPool::from_agents(b.schema(), &agents);
        let mut scratch = TickScratch::new();
        query_phase_sharded(
            &b,
            &mut pool,
            agents.len(),
            IndexKind::Join,
            0,
            1,
            &mut scratch,
            shard_rows,
            &mut ShardPool::new(1),
        );
        let k = shard_count(agents.len(), shard_rows);
        scratch.shards[..k].iter().map(|shard| shard.query.groups).sum()
    }

    /// `members[i]` agents in tile `(ty, tx[i])`, at its centre.
    fn tiles(ty: i64, tx: &[i64], members: &[usize]) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        for (&tx, &m) in tx.iter().zip(members) {
            points.extend(std::iter::repeat_n((tx as f64 + 0.5, ty as f64 + 0.5), m));
        }
        points
    }

    #[test]
    fn strips_join_tiles_two_apart_and_split_at_three() {
        assert_eq!(probe_groups(&tiles(0, &[0, 1], &[1, 1]), SHARD_ROWS), 1, "adjacent tiles share a strip");
        assert_eq!(probe_groups(&tiles(0, &[0, 2], &[1, 1]), SHARD_ROWS), 1, "gap 2 joins");
        assert_eq!(probe_groups(&tiles(0, &[0, 3], &[1, 1]), SHARD_ROWS), 2, "gap 3 splits");
        assert_eq!(probe_groups(&tiles(0, &[0, 2, 4, 7, 9], &[1; 5]), SHARD_ROWS), 2);
    }

    #[test]
    fn strips_hold_at_most_the_cap_and_a_full_tile_stays_alone() {
        let ones = [1; 9];
        assert_eq!(STRIP_MEMBERS, 8);
        assert_eq!(probe_groups(&tiles(0, &[0, 1, 2, 3, 4, 5, 6, 7, 8], &ones), SHARD_ROWS), 2, "8 + 1");
        assert_eq!(probe_groups(&tiles(0, &[0, 1, 2], &[3, 3, 3]), SHARD_ROWS), 2, "3 + 3, then 3");
        assert_eq!(probe_groups(&tiles(0, &[0, 1, 2], &[4, 4, 1]), SHARD_ROWS), 2, "4 + 4 fills the cap");
        assert_eq!(probe_groups(&tiles(0, &[0, 1, 2], &[1, 9, 1]), SHARD_ROWS), 3, "a tile over the cap stays alone");
        assert_eq!(probe_groups(&tiles(0, &[0, 1, 2], &[1, 8, 1]), SHARD_ROWS), 3, "so does one at the cap");
        assert_eq!(probe_groups(&tiles(0, &[0, 1], &[8, 1]), SHARD_ROWS), 2);
    }

    #[test]
    fn strips_stay_in_their_tile_row_and_sweep_slice() {
        let mut two_rows = tiles(0, &[5], &[1]);
        two_rows.extend(tiles(1, &[0, 5], &[1, 1]));
        assert_eq!(probe_groups(&two_rows, SHARD_ROWS), 3, "(0, 5) → (1, 0) → (1, 5): two tile-rows, gap 5");
        let mut stacked = tiles(0, &[0], &[1]);
        stacked.extend(tiles(1, &[0], &[1]));
        assert_eq!(probe_groups(&stacked, SHARD_ROWS), 2, "the same column in two tile-rows");
        let row = tiles(0, &[0, 1, 2, 3, 4, 5], &[1; 6]);
        assert_eq!(probe_groups(&row, SHARD_ROWS), 1);
        assert_eq!(probe_groups(&row, 2), 3, "three slices of two rows each");
        assert_eq!(probe_groups(&row, 1), 6, "one row per slice");
    }

    /// The strip rule restated over whole tiles: the strips a slice of the
    /// probe order (owned rows, sorted) breaks into.
    fn strips_of(slice: &[ProbeKey]) -> u64 {
        let mut strips = 0;
        let mut open: Option<((i64, i64), usize)> = None;
        for tile in slice.chunk_by(|a, b| a.tile() == b.tile()) {
            let (ty, tx) = tile[0].tile();
            open = match open {
                Some(((last_ty, last_tx), held))
                    if ty == last_ty && tx - last_tx <= 2 && held + tile.len() <= STRIP_MEMBERS =>
                {
                    Some(((ty, tx), held + tile.len()))
                }
                _ => {
                    strips += 1;
                    Some(((ty, tx), tile.len()))
                }
            };
        }
        strips
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tick_rng_streams_equal_agent_rng(
            seed in any::<u64>(),
            tick in any::<u64>(),
            id in any::<u64>(),
            phase in 0u64..2,
        ) {
            // The phase loops derive the root once and a stream per agent;
            // each must be the per-agent derivation, draw for draw.
            let mut hoisted = tick_rng(seed, tick, phase).stream(id);
            let mut spelled = DetRng::seed_from_u64(seed).stream(tick.wrapping_shl(1) | phase).stream(id);
            let mut per_agent = agent_rng(seed, tick, AgentId::new(id), phase);
            for _ in 0..4 {
                let draw = per_agent.next_raw();
                prop_assert_eq!(hoisted.next_raw(), draw);
                prop_assert_eq!(spelled.next_raw(), draw);
            }
        }

        /// The tick's orders against comparison sorts: the id order is the
        /// rows sorted by id, and the probe order is the rows sorted by
        /// `(ty, tx, id)`, each carrying its place in the id order, with the
        /// owned ones its sweep — whether the counting sort built the tile
        /// directory (a dense box) or the radix sort ran (tiles 10⁹ apart,
        /// ±1e300: saturated tiles), which happens exactly by the budget.
        /// Id-ordered and shuffled pools, whichever id bytes vary (low ones,
        /// high ones, all eight); coordinates that straddle 0; down to one
        /// row and none; one `ProbeOrder` reused across every probe path and
        /// tile side.
        #[test]
        fn radix_orders_equal_comparison_sorts(
            points in prop::collection::vec((0usize..4, -9i32..9, -9i32..9), 0..200),
            raw in prop::collection::vec(any::<u64>(), 200..201),
            mask in prop::sample::select(vec![0xFFFFu64, 0xFF00_0000_0000_0000, u64::MAX]),
            shuffled in any::<bool>(),
            owned in 0usize..201,
            far in any::<bool>(),
        ) {
            let mut seen = std::collections::HashSet::new();
            let mut ids: Vec<u64> = raw.iter().map(|&id| id & mask).filter(|&id| seen.insert(id)).collect();
            ids.truncate(points.len());
            if !shuffled {
                ids.sort_unstable();
            }
            // Without `far`, every world is one dense box.
            let scale = |s: usize| if far { [0.37, 1e9, 1e300, 1.0][s] } else { [0.37, 1.0][s % 2] };
            let points: Vec<(f64, f64)> =
                points.iter().take(ids.len()).map(|&(s, x, y)| (x as f64 * scale(s), y as f64 * scale(s))).collect();
            let (n, n_owned) = (points.len(), owned.min(points.len()));
            let mut probe = ProbeOrder::default();
            let paths = [(Probe::Everyone, f64::INFINITY), (Probe::Scan, 1.0), (Probe::Join, 1.0), (Probe::Join, 2.5)];
            for (path, vis) in paths {
                plan_points(&mut probe, &points, &ids, n_owned, path, vis);
                let side = (path == Probe::Join).then_some(vis);
                let mut by_id: Vec<u32> = (0..n as u32).collect();
                by_id.sort_by_key(|&row| ids[row as usize]);
                prop_assert_eq!(&probe.by_id, &by_id);
                let tile = |row: u32| {
                    let (x, y) = points[row as usize];
                    side.map_or((0, 0), |side| (tile_of(y, side), tile_of(x, side)))
                };
                let mut cells: Vec<u32> = (0..n as u32).collect();
                cells.sort_by_key(|&row| (tile(row), ids[row as usize]));
                prop_assert_eq!(probe.cells.iter().map(|c| c.row).collect::<Vec<_>>(), cells);
                for c in &probe.cells {
                    prop_assert_eq!((c.ty, c.tx), tile(c.row));
                    prop_assert_eq!(by_id[c.rank as usize], c.row);
                }
                let members: Vec<ProbeKey> = probe.cells.iter().filter(|c| (c.row as usize) < n_owned).copied().collect();
                prop_assert_eq!(&probe.members, &members);
                // Off the join, every position, gathered in the id order.
                let (xs, ys): (Vec<f64>, Vec<f64>) =
                    by_id.iter().filter(|_| path != Probe::Join).map(|&row| points[row as usize]).unzip();
                prop_assert_eq!((&probe.xs, &probe.ys), (&xs, &ys));
                let span = |axis: fn(&ProbeKey) -> i64| {
                    let lo = probe.cells.iter().map(axis).min().unwrap_or(0);
                    let hi = probe.cells.iter().map(axis).max().unwrap_or(0);
                    hi as i128 - lo as i128 + 1
                };
                let tiles = span(|c| c.ty).checked_mul(span(|c| c.tx));
                let dense = tiles.is_some_and(|tiles| tiles <= 8 * n as i128 + 4096);
                prop_assert_eq!(probe.directory.is_built(), side.is_some() && n > 0 && dense);
            }
        }

        /// `tile_of` against `floor() as i64`: every bit pattern (NaN,
        /// infinities and subnormals among them) and finite doubles with
        /// fractions, at tile sides from tiny to huge.
        #[test]
        fn tile_of_equals_floor_as_i64(
            bits in prop::collection::vec(any::<u64>(), 64..65),
            finite in prop::collection::vec(any::<f64>(), 64..65),
            side in prop::sample::select(vec![1.0, 0.37, 2.5, 4e-3, 1e-300, 7e300]),
        ) {
            for v in bits.iter().map(|&b| f64::from_bits(b)).chain(finite) {
                prop_assert_eq!(tile_of(v, side), (v / side).floor() as i64, "tile_of({:e}, {:e})", v, side);
            }
        }

        /// A sweep of windows over a sparse world with empty tile-rows and
        /// columns, from arbitrary starting hints: every block is the window
        /// a seek from index 0 reads, and every cursor ends where its window
        /// tile-row begins.
        #[test]
        fn seek_window_equals_a_seek_from_zero_and_keys_cursors_by_row(
            points in prop::collection::vec((-6i32..6, -6i32..6, 0u8..4), 0..60),
            rects in prop::collection::vec((-8i32..8, -8i32..8, 0u8..5, 0u8..5), 1..12),
            hints in (0usize..80, 0usize..80, 0usize..80),
        ) {
            // Whole tiles 0, 1 and 3 of every coordinate, so rows and
            // columns 2 mod 4 stay empty; the third value salts in points
            // on tile edges.
            let coord = |v: i32| (v.div_euclid(3) * 4 + v.rem_euclid(3)) as f64;
            let points: Vec<(f64, f64)> = points
                .iter()
                .map(|&(x, y, edge)| (coord(x) + 0.5 * (edge & 1) as f64, coord(y) + 0.5 * (edge >> 1) as f64))
                .collect();
            let cells = probe_order(&points);
            let mut cursors = [hints.0, hints.1, hints.2];
            for &(x, y, w, h) in &rects {
                let rect = Rect::from_bounds(x as f64 - 0.5, x as f64 + w as f64, y as f64 - 0.25, y as f64 + h as f64);
                window_checked(&cells, &rect, &mut cursors);
            }
        }

        /// Sparse worlds at every shard granule: the query phase builds
        /// exactly the strips the rule names, slice by slice.
        #[test]
        fn probe_groups_are_the_strips_of_each_sweep_slice(
            points in prop::collection::vec((-12i32..12, -3i32..3), 0..70),
            shard_rows in prop::sample::select(vec![1usize, 3, 7, SHARD_ROWS]),
        ) {
            let points: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x as f64 * 0.9, y as f64 * 1.3)).collect();
            let order = probe_order(&points);
            let k = shard_count(points.len(), shard_rows);
            let want: u64 = (0..k).map(|i| strips_of(&order[shard_range(points.len(), k, i)])).sum();
            prop_assert_eq!(probe_groups(&points, shard_rows), want);
        }
    }
}
