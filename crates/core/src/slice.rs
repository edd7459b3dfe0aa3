//! One sweep slice of the query phase, as a behavior sees it.
//!
//! The executor cuts the owned rows' probe order into sweep slices (see
//! `crate::executor`) and hands each to [`Behavior::query_slice`] as a
//! [`QuerySlice`]. The slice owns the per-member protocol, so every
//! behavior runs the same join and the same writes whatever it overrides:
//!
//! * [`QuerySlice::next_member`] yields the slice's members in probe order,
//!   each with its candidates: its probe group's block, filtered by its own
//!   probe rect (below), or none for a member whose query reads no
//!   neighbour;
//! * [`QuerySlice::emit`] runs the oldest member yielded and not yet
//!   emitted against its [`EffectWriter`], then closes its run of the
//!   write-log and hands its writes to replica rows out for their owners.
//!
//! A behavior may yield many members before it emits any — BRASIL's
//! register program evaluates a run of members' `(member, candidate)` pairs
//! column by column before it writes their effects — because emission needs
//! nothing but the member: the writes still land member by member, in probe
//! order, each member's in the order it makes them. The default hook,
//! [`QuerySlice::query_each`], interleaves the two: filter, query, close,
//! for each member, and hands each member its query stream
//! (`plan.rng.stream(id)`) too; a query that draws runs there. Either way
//! the slice counts the same visits, probe groups and block rows.
//!
//! # The probe loop
//!
//! The slice is answered one **probe group** at a time (`group_len`). When
//! the first member of a group is asked for, one pass over the group calls
//! [`Behavior::reads_neighbors`] and, for a reader, [`Behavior::probe_rect`]
//! once per member, and keeps the rect for the member's filter.
//!
//! On the join path (`Probe::Join`) a group — a strip of the slice's
//! neighbouring tiles in one tile-row — is answered by **no index at all**:
//! its candidate *block* is the rows of the tiles that the union of its
//! members' rects spans, one contiguous run of the probe order per window
//! tile-row — read off the tile directory ([`TileDirectory::window`]) when
//! the tick built one, found by a galloping seek ([`seek_window`])
//! otherwise. The block's id ranks are put in ascending order once
//! ([`block_order`]: ascending id, by rank placement or a byte radix), mapped
//! back to rows, and its positions gathered once, and each member then takes
//! its own candidates out of it by running the lane kernel
//! [`filter_rect_coords`] over the block's contiguous columns with *its
//! own* probe rect. The filter emits each kept candidate's x and y beside
//! its row, so the member's [`Neighbors`] carries its candidates' positions
//! as columns parallel to the rows, and a query that reads them (the zonal
//! fold's lane compress, the epidemic's distance, a walked BRASIL loop's
//! `p.x`) gathers nothing by row. Every
//! visible row inside the member's rect lies in a tile of the window (the
//! tile function is monotone and the member's rect lies inside the union),
//! and the filter tests closed containment, so the member gets precisely the
//! visible rows inside its rect; the filter selects in block order, so they
//! come out in ascending id. Effects and goldens are those of one
//! containment scan per row, and visit counts those of one per reader: a
//! member whose [`Behavior::reads_neighbors`] is false keeps an empty rect
//! and is handed no candidates on any path.
//!
//! The scan (`Probe::Scan`) runs the same filter once per row over the
//! tick's id-ordered columns instead; under unbounded visibility every
//! reader's candidates are the id order and its columns, for everyone. On
//! every path each carried position is `view.pos(row)` bit for bit: the
//! filter copies the bits it compared, and the columns it reads are
//! gathered from the view.

use crate::agent::{AgentRef, PoolView};
use crate::behavior::{Behavior, Neighbors};
use crate::effect::{EffectLog, EffectTable, EffectWrite, EffectWriter};
use crate::executor::tile_of;
use crate::schema::AgentSchema;
use brace_common::{AgentId, DetRng, Rect, Vec2};
use brace_spatial::kernels::{block_order, filter_rect_coords, seek_window, ProbeKey, TileDirectory, LANES};

/// How one tick's probe groups find their candidates.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The sort-merge tile join: a group is a strip of tiles, its block the
    /// rows of the tiles its members' rects span (`IndexKind::Join` under a
    /// bounded, positive visibility).
    Join,
    /// One row per group, whose block is [`filter_rect_coords`] over every
    /// visible row in the id order (`IndexKind::Scan`, or a zero visibility).
    Scan,
    /// Unbounded visibility: one group per sweep slice, whose block is the
    /// id order.
    Everyone,
}

/// What every sweep slice of one query phase shares.
pub(crate) struct SlicePlan<'a> {
    pub schema: &'a AgentSchema,
    pub view: PoolView<'a>,
    /// How many rows the partition owns: the rows of a slice's members, and
    /// the replay's bound (rows at or past it are replicas).
    pub owned: u32,
    /// Every visible row in probe order: what the join probes, through its
    /// tile directory when the tick built one.
    pub cells: &'a [ProbeKey],
    pub directory: Option<&'a TileDirectory>,
    /// Every visible row in the id order: what an id rank names.
    pub by_id: &'a [u32],
    /// Every visible row's position, in the id order: the scan's columns,
    /// and under unbounded visibility every reader's candidates' (empty on
    /// the join).
    pub xs: &'a [f64],
    pub ys: &'a [f64],
    pub probe: Probe,
    /// Writes to remote fields go to the slice's write-log; all others to
    /// its table, indexed by position in the slice.
    pub nonlocal: bool,
    /// The tick's query-phase RNG root.
    pub rng: DetRng,
}

/// The most members a strip of several tiles may hold: two
/// `filter_rect_coords` lane-widths. Whole tiles join a strip while it stays
/// within this, so a tile this full on its own (fish's dense tiles) keeps a
/// block to itself.
/// Measured with `query` and `update` stubbed out (query ns per agent-tick,
/// 2-vCPU Xeon): a cap of `LANES` costs 8–40 % more than this one on
/// the sparse scenarios (epidemic 4k: 149–162 against 108–121; predator
/// 20k: 153–158 against 123–129), while `4 * LANES` saves at most another
/// 7 % there, inside the noise once the real behaviours run, and makes
/// every member filter a block up to twice as long.
pub(crate) const STRIP_MEMBERS: usize = 2 * LANES;

/// How many tiles apart two neighbouring tiles of one strip may be: their
/// 3-tile-wide windows still overlap, so the strip's block re-reads none of
/// the tiles it shares.
const STRIP_GAP: u64 = 2;

/// The length of the probe group at the head of `slice` (the rest of a
/// sweep slice, in probe order). A scan probe is one row; under unbounded
/// visibility every row is in one tile, so the group is the slice. On the
/// join path a group is a **strip**: the next occupied tiles of the same
/// tile-row, each at most [`STRIP_GAP`] tiles right of the one before, added
/// whole while the strip holds at most [`STRIP_MEMBERS`] rows. A strip never
/// leaves its slice, so the plan stays a function of the probe order and the
/// shard granule.
pub(crate) fn group_len(slice: &[ProbeKey], probe: Probe) -> usize {
    if probe == Probe::Scan {
        return 1;
    }
    let head = slice[0].tile();
    let mut len = slice.iter().take_while(|key| key.tile() == head).count();
    while probe == Probe::Join && len < STRIP_MEMBERS {
        let (last, Some(next)) = (slice[len - 1], slice.get(len)) else { break };
        if next.ty != last.ty || next.tx.abs_diff(last.tx) > STRIP_GAP {
            break;
        }
        let room = STRIP_MEMBERS - len;
        let tile = slice[len..].iter().take(room + 1).take_while(|key| key.tile() == next.tile()).count();
        if tile > room {
            break;
        }
        len += tile;
    }
    len
}

/// Candidate rows and their positions, three parallel columns.
#[derive(Default)]
struct Columns {
    rows: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Columns {
    fn clear(&mut self) {
        self.rows.clear();
        self.xs.clear();
        self.ys.clear();
    }

    /// Append the rows of `(xs, ys, payloads)` inside `rect`, with their
    /// positions, in input order.
    #[inline(always)]
    fn filter(&mut self, xs: &[f64], ys: &[f64], payloads: &[u32], rect: &Rect) {
        filter_rect_coords(xs, ys, payloads, rect, &mut self.rows, &mut self.xs, &mut self.ys);
    }
}

/// Working memory of one sweep slice, kept across ticks.
pub(crate) struct SliceScratch {
    /// This slice's effects, indexed by position in the slice (for a
    /// non-local schema, its local-only fields').
    pub table: EffectTable,
    /// Non-local schemas: this slice's remote-field writes and writers, and
    /// the writes to replica rows, `(target row, write)`, in order.
    pub log: EffectLog,
    pub outbound: Vec<(u32, EffectWrite)>,
    /// Candidates of the current probe group with their positions, in
    /// canonical order: on the join path the block (its rows are id ranks
    /// until it is ordered, and its positions are gathered after that); on
    /// the scan the member's own, filtered.
    block: Columns,
    /// The join block's radix scatter buffer ([`block_order`]).
    spare_block: Vec<u32>,
    /// Where each tile-row of the last group's window began in the probe
    /// order, by offset from the window's first row ([`seek_window`]).
    cursors: [usize; 3],
    /// Each member's probe rect, in group order: [`Rect::EMPTY`] for a
    /// member whose query reads no neighbour.
    rects: Vec<Rect>,
    /// One member's candidates and their positions, filtered out of the
    /// join block.
    hits: Columns,
    pub visits: u64,
    pub nonlocal: u64,
    pub groups: u64,
    pub block_rows: u64,
}

impl SliceScratch {
    pub fn new(schema: &AgentSchema) -> Self {
        SliceScratch {
            table: EffectTable::new(schema),
            log: EffectLog::default(),
            outbound: Vec::new(),
            block: Columns::default(),
            spare_block: Vec::new(),
            cursors: [0; 3],
            rects: Vec::new(),
            hits: Columns::default(),
            visits: 0,
            nonlocal: 0,
            groups: 0,
            block_rows: 0,
        }
    }
}

/// One sweep slice of the query phase: its members in probe order, their
/// candidates, writers and query streams (module docs).
pub struct QuerySlice<'s, 'a> {
    plan: &'s SlicePlan<'a>,
    /// The slice's members, in probe order.
    keys: &'s [ProbeKey],
    scratch: &'s mut SliceScratch,
    /// `keys[..next]` have been yielded, `keys[..emitted]` emitted.
    next: usize,
    emitted: usize,
    /// The behavior's rect hooks, a group at a time.
    rects: &'s dyn GroupRects,
    /// The current probe group is `keys[group..group_end]`; `scratch.rects`
    /// holds its rects.
    group: usize,
    group_end: usize,
}

/// A behavior's probe rects for one probe group: one dynamic call per group,
/// the hooks called statically within it.
trait GroupRects {
    fn rects(&self, view: PoolView<'_>, group: &[ProbeKey], out: &mut Vec<Rect>);
}

struct RectsOf<'b, B> {
    behavior: &'b B,
    probe: Probe,
}

impl<B: Behavior> GroupRects for RectsOf<'_, B> {
    /// Probe-side pushdown: a member whose query reads no neighbour keeps an
    /// empty rect, so it filters nothing and widens no window.
    /// Candidate-side pushdown is the behaviour's own: a derived visibility
    /// predicate shrinks the probe rect, whose default is the full
    /// visibility square (everything, when that is unbounded).
    fn rects(&self, view: PoolView<'_>, group: &[ProbeKey], out: &mut Vec<Rect>) {
        let vis = self.behavior.schema().visibility();
        out.clear();
        out.extend(group.iter().map(|key| {
            let me = view.agent(key.row);
            match (self.behavior.reads_neighbors(me), self.probe) {
                (false, _) => Rect::EMPTY,
                (true, Probe::Everyone) => Rect::EVERYTHING,
                (true, _) => self.behavior.probe_rect(me.pos(), vis),
            }
        }));
    }
}

impl<'s, 'a> QuerySlice<'s, 'a> {
    /// Run `behavior`'s hook over the members `keys`, resetting `scratch`'s
    /// log and counters first. Panics if the hook leaves a member unemitted.
    pub(crate) fn run<B: Behavior>(
        behavior: &B,
        plan: &'s SlicePlan<'a>,
        keys: &'s [ProbeKey],
        scratch: &'s mut SliceScratch,
    ) {
        scratch.log.clear();
        scratch.outbound.clear();
        (scratch.visits, scratch.nonlocal, scratch.groups, scratch.block_rows) = (0, 0, 0, 0);
        let rects = &RectsOf { behavior, probe: plan.probe };
        let mut slice = QuerySlice { plan, keys, scratch, next: 0, emitted: 0, rects, group: 0, group_end: 0 };
        behavior.query_slice(&mut slice);
        assert_eq!(slice.emitted, keys.len(), "`query_slice` returned before emitting every member");
    }

    /// The partition's visible rows: what every member and candidate row
    /// indexes.
    pub fn view(&self) -> PoolView<'a> {
        self.plan.view
    }

    /// The next member in probe order and its candidates (the member's own
    /// row, if among them, is skipped by [`Neighbors::iter`]), or `None`
    /// once every member has been yielded.
    pub fn next_member(&mut self) -> Option<(AgentRef<'a>, Neighbors<'_>)> {
        let key = *self.keys.get(self.next)?;
        if self.next == self.group_end {
            self.open_group();
        }
        let (plan, view, rect) = (self.plan, self.plan.view, self.next - self.group);
        self.next += 1;
        let SliceScratch { block, rects, hits, visits, .. } = &mut *self.scratch;
        let (rows, xs, ys) = candidates(&rects[rect], plan, block, hits);
        *visits += rows.len() as u64;
        Some((view.agent(key.row), Neighbors::new(view, rows, xs, ys, key.row)))
    }

    /// Emit the oldest member yielded and not yet emitted: `f` makes its
    /// writes through its writer; then the member's run of the write-log is
    /// closed. No query stream is handed out: a behavior whose query draws
    /// runs [`query_each`](Self::query_each).
    pub fn emit(&mut self, f: impl FnOnce(&mut EffectWriter<'_>)) {
        assert!(self.emitted < self.next, "`emit` called for a member not yet yielded");
        let (key, slot) = (self.keys[self.emitted], self.emitted as u32);
        let SliceScratch { table, log, outbound, nonlocal, .. } = &mut *self.scratch;
        emit_member(self.plan, key, slot, table, log, outbound, nonlocal, |eff, _| f(eff));
        self.emitted += 1;
    }

    /// Every member not yet yielded, the way [`Behavior::query`] runs them
    /// (the default hook): a member's candidates, then `f` with its writer
    /// and stream, then its log closed, one member after the other.
    pub fn query_each(&mut self, mut f: impl FnMut(AgentRef<'a>, &Neighbors<'_>, &mut EffectWriter<'_>, &mut DetRng)) {
        assert_eq!(self.emitted, self.next, "`query_each` with a member yielded and not emitted");
        let (plan, view) = (self.plan, self.plan.view);
        while self.next < self.keys.len() {
            if self.next == self.group_end {
                self.open_group();
            }
            let SliceScratch { table, log, outbound, nonlocal, block, rects, hits, visits, .. } = &mut *self.scratch;
            for slot in self.next..self.group_end {
                let key = self.keys[slot];
                let (rows, xs, ys) = candidates(&rects[slot - self.group], plan, block, hits);
                *visits += rows.len() as u64;
                let neighbors = Neighbors::new(view, rows, xs, ys, key.row);
                emit_member(plan, key, slot as u32, table, log, outbound, nonlocal, |eff, id| {
                    f(view.agent(key.row), &neighbors, eff, &mut plan.rng.stream(id.raw()))
                });
            }
            (self.next, self.emitted) = (self.group_end, self.group_end);
        }
    }

    /// Open the probe group at `keys[next..]`: its block, from its members'
    /// rects (see the module docs).
    fn open_group(&mut self) {
        let (plan, view, vis) = (self.plan, self.plan.view, self.plan.schema.visibility());
        self.group = self.next;
        self.group_end = self.next + group_len(&self.keys[self.next..], plan.probe);
        let SliceScratch { block, spare_block, cursors, rects, groups, block_rows, .. } = &mut *self.scratch;
        self.rects.rects(view, &self.keys[self.group..self.group_end], rects);
        block.clear();
        // A group counts in `groups` only when its block is built, and
        // `block_rows` counts its candidates.
        let built = match plan.probe {
            Probe::Join => {
                let union =
                    rects.iter().filter(|rect| !rect.is_empty()).fold(Rect::EMPTY, |union, rect| union.union(rect));
                // A strip with no reader builds no window, order or gather.
                if !union.is_empty() {
                    // The window: the tiles of the union's own corners.
                    let tiles = |p: Vec2| (tile_of(p.y, vis), tile_of(p.x, vis));
                    let (lo, hi) = (tiles(union.lo), tiles(union.hi));
                    let rows = &mut block.rows;
                    match plan.directory {
                        Some(directory) => directory.window(lo, hi, rows),
                        None => seek_window(plan.cells, lo, hi, cursors, rows),
                    }
                    // Ascending id ranks are ascending ids; then rows again.
                    block_order(rows, plan.by_id, spare_block);
                    block.xs.extend(block.rows.iter().map(|&r| view.xs[r as usize]));
                    block.ys.extend(block.rows.iter().map(|&r| view.ys[r as usize]));
                }
                (!union.is_empty()).then_some(block.rows.len())
            }
            Probe::Scan => {
                let reader = !rects[0].is_empty();
                if reader {
                    block.filter(plan.xs, plan.ys, plan.by_id, &rects[0]);
                }
                reader.then_some(block.rows.len())
            }
            // Every reader's candidates are the id order itself.
            Probe::Everyone => rects.iter().any(|rect| !rect.is_empty()).then_some(plan.by_id.len()),
        };
        *groups += built.is_some() as u64;
        *block_rows += built.unwrap_or(0) as u64;
    }
}

/// A member's candidates under its probe `rect`, rows and positions: none
/// for an empty rect, filtered out of the join block into `hits`, the
/// scan's filtered block, or under unbounded visibility the id order.
#[inline(always)]
fn candidates<'c>(
    rect: &Rect,
    plan: &'c SlicePlan<'_>,
    block: &'c Columns,
    hits: &'c mut Columns,
) -> (&'c [u32], &'c [f64], &'c [f64]) {
    if rect.is_empty() {
        return (&[], &[], &[]);
    }
    let columns = match plan.probe {
        Probe::Join => {
            hits.clear();
            hits.filter(&block.xs, &block.ys, &block.rows, rect);
            &*hits
        }
        Probe::Scan => block,
        Probe::Everyone => return (plan.by_id, plan.xs, plan.ys),
    };
    (&columns.rows, &columns.xs, &columns.ys)
}

/// Run member `key`, the slice's `slot`-th, against its writer (`f` is
/// handed its id), then close its run of the write-log and hand its writes
/// to replica rows out while they are hot.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn emit_member(
    plan: &SlicePlan<'_>,
    key: ProbeKey,
    slot: u32,
    table: &mut EffectTable,
    log: &mut EffectLog,
    outbound: &mut Vec<(u32, EffectWrite)>,
    nonlocal: &mut u64,
    f: impl FnOnce(&mut EffectWriter<'_>, AgentId),
) {
    let (view, schema, row) = (plan.view, plan.schema, key.row);
    debug_assert!(view.alive(row), "dead agent in query phase");
    let id = view.id(row);
    let start = log.len();
    let mut writer = if plan.nonlocal {
        EffectWriter::split(schema, table, log, row, slot)
    } else {
        EffectWriter::with_slot(schema, table, row, slot)
    };
    f(&mut writer, id);
    let remote = writer.nonlocal_writes();
    *nonlocal += remote;
    if plan.nonlocal {
        let past = log.close(key.rank, start, plan.owned);
        if remote > 0 && plan.owned < view.len() as u32 {
            outbound.extend(past.map(|(target, field, v)| {
                (target, EffectWrite { target: view.ids[target as usize], source: id, field, v })
            }));
        }
    }
}
