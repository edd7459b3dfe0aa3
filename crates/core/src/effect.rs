//! Staged effect aggregation.
//!
//! During the query phase agents assign effect values; the state-effect
//! pattern requires those assignments to be aggregated by each field's
//! combinator. [`EffectTable`] is the dense accumulator for one partition's
//! visible agent set; [`EffectWriter`] is the capability handed to a
//! behavior's query phase — it can *only* combine into effect slots, which
//! is how the executor enforces "state variables are read-only during the
//! query phase and effect variables are write-only" at the API level.
//!
//! The table is **column-major**: one flat `Vec<f64>` per effect field,
//! matching the [`AgentPool`](crate::agent::AgentPool)'s struct-of-arrays
//! layout — the pool's per-tick accumulator *is* an `EffectTable`, so the
//! shard scatter or write-log replay lands directly in the pool's effect
//! columns and the update phase reads them with no copy-back step. Column
//! layout also makes [`EffectTable::reset`] schema-aware and trivially fast: one
//! `slice::fill` with the field's identity per column, instead of writing
//! row-interleaved identity patterns.
//!
//! # Folding into the agent's own fields
//!
//! [`EffectWriter::local`] resolves sink → column → slot → combinator and
//! goes through memory on every call. A behavior whose query makes many
//! assignments to its *own* effect fields (the fish fold: a few hundred per
//! agent, eight `Sum`s) should open an [`EffectWriter::fold_local`] over
//! those fields instead: the slot values are loaded once into a by-value
//! `[f64; N]`, each combine names its combinator at the call site
//! ([`LocalFold::sum`], …) so it compiles to a bare `acc[k] ⊕= v`, and the
//! values are stored back once when the fold closes. Writes whose field
//! depends on the data (an interpreter, a per-neighbor `remote`) stay on
//! `local` / `remote`.
//!
//! *Why the fold is bit-identical to the `local` sequence.* The fold seeds
//! its accumulators from the slot and writes them back — it never restarts
//! from the identity — so each field sees the very combines `local` would
//! have made, in the same order, on the same starting value; fields are
//! independent, so interleaving across fields is immaterial. Nothing else
//! can combine into the slot meanwhile: the fold holds the writer's
//! `&mut self`, a local-effect shard table is addressed only at the writer's
//! own slot, the serial reference has one writer at a time, and
//! `remote(me, …)` is `local`. (Bit-identical up to NaN payloads: which
//! operand's payload `a + b` propagates is the implementation's choice and
//! LLVM may commute the operands — in `local` as much as in the fold.)
//!
//! *The log sink logs every combine.* For a schema with non-local effects a
//! field may also receive other rows' `remote` writes in the same tick, and
//! a folded partial would re-associate a float `Sum` against them — the
//! reason the write-log records local writes at all (see `EffectLog`). So
//! on the log sink each `acc.sum(k, v)` appends `(slot, field, v)` exactly
//! as `local` would; the fold buys nothing there and costs nothing extra.
//! The sink is resolved once per fold, not once per combine.

use crate::agent::Agent;
use crate::combinator::Combinator;
use crate::schema::AgentSchema;
use brace_common::{AgentId, FieldId};

/// Dense per-tick effect accumulator: one column of `rows` slots per
/// effect field, initialized to combinator identities.
#[derive(Debug, Clone)]
pub struct EffectTable {
    identities: Vec<f64>,
    combs: Vec<Combinator>,
    cols: Vec<Vec<f64>>,
    rows: usize,
}

impl EffectTable {
    /// An empty table shaped by `schema`.
    pub fn new(schema: &AgentSchema) -> Self {
        let identities = schema.effect_identities();
        let combs = schema.effect_defs().iter().map(|d| d.combinator).collect();
        let cols = vec![Vec::new(); identities.len()];
        EffectTable { identities, combs, cols, rows: 0 }
    }

    /// Number of effect fields per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.identities.len()
    }

    /// Number of rows currently allocated.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Resize for `rows` agents and reset every slot to its identity.
    /// Reuses the allocations across ticks (hot path: called every tick by
    /// every shard): exactly one `resize` + `fill` per effect column.
    pub fn reset(&mut self, rows: usize) {
        self.rows = rows;
        for (col, &id) in self.cols.iter_mut().zip(&self.identities) {
            col.resize(rows, id);
            col.fill(id);
        }
    }

    /// Append one row holding the given values (pool construction path).
    pub fn push_row(&mut self, values: &[f64]) {
        debug_assert_eq!(values.len(), self.width(), "effect row shape mismatch");
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Append one identity row (spawn path).
    pub fn push_identity_row(&mut self) {
        for (col, &id) in self.cols.iter_mut().zip(&self.identities) {
            col.push(id);
        }
        self.rows += 1;
    }

    /// Overwrite row `dst` with row `src` (same table). One of the
    /// stable-row mutation primitives backing the distributed runtime's
    /// persistent pool (swap-removal copies the last row into the hole).
    #[inline]
    pub fn copy_row_within(&mut self, src: u32, dst: u32) {
        for col in &mut self.cols {
            col[dst as usize] = col[src as usize];
        }
    }

    /// Append a copy of row `src` at the end.
    pub fn push_row_copy(&mut self, src: u32) {
        for col in &mut self.cols {
            let v = col[src as usize];
            col.push(v);
        }
        self.rows += 1;
    }

    /// Overwrite row `r` with the given values.
    pub fn set_row(&mut self, r: u32, values: &[f64]) {
        debug_assert_eq!(values.len(), self.width(), "effect row shape mismatch");
        for (col, &v) in self.cols.iter_mut().zip(values) {
            col[r as usize] = v;
        }
    }

    /// Remove the last row.
    pub fn pop_row(&mut self) {
        debug_assert!(self.rows > 0, "pop from empty effect table");
        for col in &mut self.cols {
            col.pop();
        }
        self.rows -= 1;
    }

    /// Combine `v` into `(row, field)` using the field's combinator (the
    /// table carries its schema's combinator vector, so the hot path needs
    /// no schema lookup).
    #[inline]
    pub fn combine(&mut self, row: u32, field: FieldId, v: f64) {
        let slot = &mut self.cols[field.index()][row as usize];
        *slot = self.combs[field.index()].combine(*slot, v);
    }

    /// Read one aggregated slot.
    #[inline]
    pub fn get(&self, row: u32, field: FieldId) -> f64 {
        self.cols[field.index()][row as usize]
    }

    /// One whole column (cache-linear reads for analytics / SIMD passes).
    #[inline]
    pub fn col(&self, field: FieldId) -> &[f64] {
        &self.cols[field.index()]
    }

    /// The aggregated row for one agent, gathered from the columns.
    /// Allocates — row extraction is a boundary operation (tests); hot paths
    /// read columns or single slots.
    pub fn row(&self, row: u32) -> Vec<f64> {
        self.cols.iter().map(|col| col[row as usize]).collect()
    }

    /// Overwrite row `dst_rows[i]` of this table with row `i` of `src`, for
    /// every row of `src`. Used by the sharded executor to merge a
    /// local-effect shard back into the tick's table: the shard's table is
    /// indexed by position in its slice of the probe order, each row was
    /// written only by its own agent, and the slices partition the owned
    /// rows — so the merge is a bitwise scatter of exactly the values the
    /// serial path would have produced.
    pub fn scatter_rows_from(&mut self, src: &EffectTable, dst_rows: impl Iterator<Item = u32> + Clone) {
        debug_assert_eq!(src.width(), self.width(), "schema mismatch in scatter_rows_from");
        for (dst, s) in self.cols.iter_mut().zip(&src.cols) {
            for (&v, r) in s.iter().zip(dst_rows.clone()) {
                dst[r as usize] = v;
            }
        }
    }

    /// Apply the writes of segment `segment` of `log` — one agent's effect
    /// writes — that target one of the first `owned` rows, in the order they
    /// were made; writes to later rows (replicas) are their owners' to fold.
    /// Replaying every owned row's segment in ascending source-id order
    /// performs exactly the combines, in exactly the order, of writers run
    /// over those rows in id order.
    pub(crate) fn replay(&mut self, log: &EffectLog, segment: u32, owned: u32) {
        for e in log.segment(segment).iter().filter(|e| e.row < owned) {
            self.combine(e.row, e.field, e.v);
        }
    }

    /// Copy each agent's final aggregated row into `agent.effects`, making
    /// the effects readable for the update phase. Used by the `Vec<Agent>`
    /// reference path; the pool path reads the columns in place.
    pub fn write_into(&self, agents: &mut [Agent]) {
        debug_assert!(agents.len() <= self.rows);
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.effects.clear();
            agent.effects.extend(self.cols.iter().map(|col| col[i]));
        }
    }
}

/// One logged effect write: `table[row][field] ⊕= v`.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    row: u32,
    field: FieldId,
    v: f64,
}

/// One non-local effect write, `target.field ⊕= v` made by agent `source`,
/// as a worker ships it to the target's owner, whose replay folds it at the
/// source's place in id order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectWrite {
    pub target: AgentId,
    pub source: AgentId,
    pub field: FieldId,
    pub v: f64,
}

/// The effect **write-log** of one sweep slice of the query phase, for
/// schemas with non-local effects.
///
/// A float `Sum` into a *target* row is pinned in source-id order, but the
/// tile-ordered sweep visits source rows in probe order. So a non-local
/// schema's writers do not combine in place: each appends its writes —
/// local *and* remote, since one field may receive both in a tick and
/// applying the locals early would re-associate the sum — to a segment of
/// this log. After the sweep the executor [replays](EffectTable::replay)
/// every owned row's segment once, in ascending source id, straight into
/// the pool's effect columns, so the fold is the id-order pass's at every
/// shard granule and on every engine. Segments are numbered in the order
/// their writers were opened ([`EffectWriter::logged`]).
#[derive(Debug, Default)]
pub(crate) struct EffectLog {
    entries: Vec<LogEntry>,
    /// `starts[j]`: index in `entries` of segment `j`'s first write.
    starts: Vec<u32>,
}

impl EffectLog {
    /// Forget every segment (allocations are kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.starts.clear();
    }

    /// Total writes logged since the last [`clear`](EffectLog::clear).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn segment(&self, j: u32) -> &[LogEntry] {
        let j = j as usize;
        let end = self.starts.get(j + 1).map_or(self.entries.len(), |&e| e as usize);
        &self.entries[self.starts[j] as usize..end]
    }

    /// The writes of segment `j` to rows at or past `owned` (replicas), in
    /// the order they were made: `(target row, field, value)`.
    pub(crate) fn writes_past(&self, j: u32, owned: u32) -> impl Iterator<Item = (u32, FieldId, f64)> + '_ {
        self.segment(j).iter().filter(move |e| e.row >= owned).map(|e| (e.row, e.field, e.v))
    }
}

/// Append one write to a log. Out of line and marked cold on purpose: a
/// behavior's query calls [`EffectWriter::local`] or a [`LocalFold`] combine
/// from many call sites inside its candidate loop, and a vector's growth
/// path inlined at every one of them costs the in-place sink the registers
/// it keeps its loop state in (measured with eight `local` sites in the fish
/// loop: 3–8 % of the dense tick). The log sink pays a call per write
/// instead (≈180k per predator tick, well under a millisecond).
#[cold]
#[inline(never)]
fn log_write(entries: &mut Vec<LogEntry>, entry: LogEntry) {
    entries.push(entry);
}

/// Where an [`EffectWriter`]'s writes go — chosen once per tick, by schema.
enum Sink<'a> {
    /// Combine in place (local-effect schemas, and the serial reference).
    Table(&'a mut EffectTable),
    /// Append to a write-log segment (non-local schemas).
    Log(&'a mut Vec<LogEntry>),
}

/// Write capability for one agent's query phase.
///
/// `me` addresses the querying agent's own row (local assignments, the
/// BRASIL `f <- v`); neighbor rows are addressed by their index in the
/// visible set (non-local assignments, `other.f <- v`). Three ways in:
/// [`local`](Self::local) and [`remote`](Self::remote) for one assignment to
/// any field, and [`fold_local`](Self::fold_local) for a query that makes
/// many assignments to a fixed set of its own fields (module docs).
pub struct EffectWriter<'a> {
    schema: &'a AgentSchema,
    sink: Sink<'a>,
    me: u32,
    /// Row that holds `me`'s effects: `me` itself where rows are visible-set
    /// rows (the serial path and the write-log); the agent's position in its
    /// shard's slice of the probe order for a local-effect shard table,
    /// where no other row is addressable.
    slot: u32,
    nonlocal_writes: u64,
}

impl<'a> EffectWriter<'a> {
    /// Writer over a table spanning the visible set (row `r` is visible row `r`).
    pub fn new(schema: &'a AgentSchema, table: &'a mut EffectTable, me: u32) -> Self {
        Self::with_slot(schema, table, me, me)
    }

    /// Writer over a local-effect shard table, in which `me`'s effects live
    /// in row `slot`. `me` stays a visible-set row index.
    pub fn with_slot(schema: &'a AgentSchema, table: &'a mut EffectTable, me: u32, slot: u32) -> Self {
        EffectWriter { schema, sink: Sink::Table(table), me, slot, nonlocal_writes: 0 }
    }

    /// Writer that opens the next segment of `log` and appends every write
    /// of visible row `me` to it, in order, combining nothing.
    pub(crate) fn logged(schema: &'a AgentSchema, log: &'a mut EffectLog, me: u32) -> Self {
        log.starts.push(u32::try_from(log.entries.len()).expect("effect log outgrew u32 offsets"));
        EffectWriter { schema, sink: Sink::Log(&mut log.entries), me, slot: me, nonlocal_writes: 0 }
    }

    #[inline]
    fn write(&mut self, row: u32, field: FieldId, v: f64) {
        match &mut self.sink {
            Sink::Table(table) => table.combine(row, field, v),
            Sink::Log(entries) => log_write(entries, LogEntry { row, field, v }),
        }
    }

    /// `field <- v` on the querying agent itself.
    #[inline]
    pub fn local(&mut self, field: FieldId, v: f64) {
        self.write(self.slot, field, v);
    }

    /// `target.field <- v` on another visible agent. Models whose schema
    /// does not declare [`nonlocal_effects`](crate::schema::SchemaBuilder::nonlocal_effects)
    /// must not call this for any row but their own: the runtime would drop
    /// the effect at partition boundaries, and a local-effect shard table
    /// has no row for it — so the violation fails loudly, naming the schema.
    #[inline]
    pub fn remote(&mut self, target_row: u32, field: FieldId, v: f64) {
        if target_row == self.me {
            return self.local(field, v);
        }
        assert!(
            self.schema.has_nonlocal_effects(),
            "schema `{}` declares local effects only but wrote to another agent (row {target_row})",
            self.schema.name()
        );
        self.nonlocal_writes += 1;
        self.write(target_row, field, v);
    }

    /// Fold into `N` of the querying agent's own effect fields at register
    /// speed: `f` receives the fields' accumulators and combines into
    /// accumulator `k` — field `fields[k].0` — with the combinator named at
    /// each call site ([`LocalFold::sum`], [`LocalFold::min`], …). Equivalent,
    /// bit for bit, to the same `local(fields[k].0, v)` sequence (module docs).
    ///
    /// `fields[k].1` declares the combinator the call sites use on
    /// accumulator `k`. Combining a field by anything but its schema
    /// combinator is a behavior bug, so a disagreement panics here, once,
    /// naming schema and field — not per write. Fields must be distinct.
    #[inline]
    pub fn fold_local<const N: usize>(
        &mut self,
        fields: [(FieldId, Combinator); N],
        f: impl FnOnce(&mut LocalFold<'_, N>),
    ) {
        for (k, &(field, comb)) in fields.iter().enumerate() {
            let def = &self.schema.effect_defs()[field.index()];
            assert!(
                def.combinator == comb,
                "schema `{}` declares effect `{}` as {} but a fold combines it by {comb}",
                self.schema.name(),
                def.name,
                def.combinator
            );
            assert!(fields[..k].iter().all(|&(earlier, _)| earlier != field), "effect `{}` folded twice", def.name);
        }
        let slot = self.slot;
        match &mut self.sink {
            Sink::Table(table) => {
                let row = slot as usize;
                let mut acc = LocalFold { vals: [0.0; N], fields, slot, log: None };
                for (val, (field, _)) in acc.vals.iter_mut().zip(fields) {
                    *val = table.cols[field.index()][row];
                }
                f(&mut acc);
                for (val, (field, _)) in acc.vals.into_iter().zip(fields) {
                    table.cols[field.index()][row] = val;
                }
            }
            Sink::Log(entries) => fold_logged(entries, slot, fields, f),
        }
    }

    /// Number of genuinely non-local writes performed through this writer
    /// (statistics for the optimizer's inversion payoff accounting).
    pub fn nonlocal_writes(&self) -> u64 {
        self.nonlocal_writes
    }
}

/// [`EffectWriter::fold_local`] on the log sink. `f` is called from two
/// places, each with the sink a constant, so the accumulators' sink test
/// folds away in both once `f` is inlined; this one is kept out of line so
/// that the table-sink caller holds nothing but the register fold (with both
/// calls in one function the fish fold closure was inlined into neither, its
/// accumulators were stored every iteration, and `fish-uniform` read 1.77×
/// its parent instead of 1.86–1.94×).
#[cold]
#[inline(never)]
fn fold_logged<const N: usize>(
    entries: &mut Vec<LogEntry>,
    slot: u32,
    fields: [(FieldId, Combinator); N],
    f: impl FnOnce(&mut LocalFold<'_, N>),
) {
    f(&mut LocalFold { vals: [0.0; N], fields, slot, log: Some(entries) });
}

/// The accumulators of one [`EffectWriter::fold_local`]: write-only, like the
/// writer itself. On the table sink they are the fields' slot values held by
/// value (in registers, once the fold is inlined) between the load at open
/// and the store at close; on the log sink every combine is appended to the
/// write-log, in call order, exactly as [`EffectWriter::local`] appends it.
pub struct LocalFold<'w, const N: usize> {
    vals: [f64; N],
    fields: [(FieldId, Combinator); N],
    slot: u32,
    log: Option<&'w mut Vec<LogEntry>>,
}

impl<const N: usize> LocalFold<'_, N> {
    /// `comb` is a constant at every call site, so `Combinator::combine`'s
    /// `match` is resolved at compile time: the table-sink path is a bare
    /// `vals[k] ⊕= v`.
    #[inline(always)]
    fn combine(&mut self, comb: Combinator, k: usize, v: f64) {
        debug_assert_eq!(self.fields[k].1, comb, "accumulator {k} was declared with another combinator");
        match &mut self.log {
            None => self.vals[k] = comb.combine(self.vals[k], v),
            Some(entries) => log_write(entries, LogEntry { row: self.slot, field: self.fields[k].0, v }),
        }
    }

    /// `fields[k] <- v` under [`Combinator::Sum`].
    #[inline(always)]
    pub fn sum(&mut self, k: usize, v: f64) {
        self.combine(Combinator::Sum, k, v);
    }

    /// `fields[k] <- v` under [`Combinator::Prod`].
    #[inline(always)]
    pub fn prod(&mut self, k: usize, v: f64) {
        self.combine(Combinator::Prod, k, v);
    }

    /// `fields[k] <- v` under [`Combinator::Min`].
    #[inline(always)]
    pub fn min(&mut self, k: usize, v: f64) {
        self.combine(Combinator::Min, k, v);
    }

    /// `fields[k] <- v` under [`Combinator::Max`].
    #[inline(always)]
    pub fn max(&mut self, k: usize, v: f64) {
        self.combine(Combinator::Max, k, v);
    }

    /// `fields[k] <- v` under [`Combinator::Or`].
    #[inline(always)]
    pub fn or(&mut self, k: usize, v: f64) {
        self.combine(Combinator::Or, k, v);
    }

    /// `fields[k] <- v` under [`Combinator::And`].
    #[inline(always)]
    pub fn and(&mut self, k: usize, v: f64) {
        self.combine(Combinator::And, k, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinator::Combinator;
    use brace_common::{AgentId, Vec2};

    fn schema() -> AgentSchema {
        AgentSchema::builder("T")
            .effect("total", Combinator::Sum)
            .effect("closest", Combinator::Min)
            .nonlocal_effects(true)
            .build()
            .unwrap()
    }

    #[test]
    fn reset_fills_identities() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.reset(3);
        assert_eq!(t.rows(), 3);
        for r in 0..3 {
            assert_eq!(t.row(r), &[0.0, f64::INFINITY]);
        }
        // Columns are identity-filled per field, not row-interleaved.
        assert_eq!(t.col(FieldId::new(0)), &[0.0; 3]);
        assert_eq!(t.col(FieldId::new(1)), &[f64::INFINITY; 3]);
    }

    #[test]
    fn combine_aggregates_in_order_independent_way() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.reset(1);
        let total = s.effect_field("total").unwrap();
        let closest = s.effect_field("closest").unwrap();
        t.combine(0, total, 2.0);
        t.combine(0, total, 3.0);
        t.combine(0, closest, 7.0);
        t.combine(0, closest, 4.0);
        assert_eq!(t.row(0), &[5.0, 4.0]);
    }

    #[test]
    fn write_into_copies_rows() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.reset(2);
        t.combine(1, FieldId::new(0), 8.0);
        let mut agents = vec![Agent::new(AgentId::new(0), Vec2::ZERO, &s), Agent::new(AgentId::new(1), Vec2::ZERO, &s)];
        t.write_into(&mut agents);
        assert_eq!(agents[0].effects, vec![0.0, f64::INFINITY]);
        assert_eq!(agents[1].effects, vec![8.0, f64::INFINITY]);
    }

    #[test]
    fn push_and_pop_rows() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.push_row(&[1.0, 2.0]);
        t.push_identity_row();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[0.0, f64::INFINITY]);
        t.pop_row();
        assert_eq!(t.rows(), 1);
        assert_eq!(t.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn writer_local_and_remote() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.reset(2);
        let mut w = EffectWriter::new(&s, &mut t, 0);
        w.local(FieldId::new(0), 1.0);
        w.remote(1, FieldId::new(0), 2.0);
        w.remote(0, FieldId::new(0), 3.0); // remote to self counts as local
        assert_eq!(w.nonlocal_writes(), 1);
        assert_eq!(t.get(0, FieldId::new(0)), 4.0);
        assert_eq!(t.get(1, FieldId::new(0)), 2.0);
    }

    /// One source row's writes: `(target row, field, value)`, in order.
    type Writes = Vec<(u32, u16, f64)>;

    /// How a test drives one row's writes through its writer.
    type Apply = fn(&mut EffectWriter<'_>, u32, &[(u32, u16, f64)]);

    fn apply(w: &mut EffectWriter<'_>, me: u32, writes: &[(u32, u16, f64)]) {
        for &(target, field, v) in writes {
            if target == me {
                w.local(FieldId::new(field), v);
            } else {
                w.remote(target, FieldId::new(field), v);
            }
        }
    }

    /// The serial reference: every row's writes combined in place, in row order.
    fn serial_table(s: &AgentSchema, rows: &[Writes], apply: Apply) -> (EffectTable, u64) {
        let mut t = EffectTable::new(s);
        t.reset(rows.len());
        let mut nonlocal = 0;
        for (me, writes) in rows.iter().enumerate() {
            let mut w = EffectWriter::new(s, &mut t, me as u32);
            apply(&mut w, me as u32, writes);
            nonlocal += w.nonlocal_writes();
        }
        (t, nonlocal)
    }

    /// The write-log path: rows swept in `sweep` order, cut into two log
    /// slices at `cut`, then replayed in ascending source-row order.
    fn replayed_table(s: &AgentSchema, rows: &[Writes], sweep: &[u32], cut: usize, apply: Apply) -> (EffectTable, u64) {
        let mut logs = [EffectLog::default(), EffectLog::default()];
        let mut segments = vec![(0usize, 0u32); rows.len()];
        let mut nonlocal = 0;
        for (slice, members) in [&sweep[..cut], &sweep[cut..]].into_iter().enumerate() {
            for (j, &me) in members.iter().enumerate() {
                let mut w = EffectWriter::logged(s, &mut logs[slice], me);
                apply(&mut w, me, &rows[me as usize]);
                nonlocal += w.nonlocal_writes();
                segments[me as usize] = (slice, j as u32);
            }
        }
        let mut t = EffectTable::new(s);
        t.reset(rows.len());
        for &(slice, j) in &segments {
            t.replay(&logs[slice], j, rows.len() as u32);
        }
        (t, nonlocal)
    }

    fn assert_bit_identical(a: &EffectTable, b: &EffectTable) {
        for r in 0..a.rows() as u32 {
            let (ra, rb) = (a.row(r), b.row(r));
            // A NaN is any NaN: which operand's payload an operation keeps is
            // the implementation's choice (LLVM may commute `a + b`).
            let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(ra.iter().zip(&rb).all(same), "row {r}: {ra:?} vs {rb:?}");
        }
    }

    /// One float `Sum` field that receives a row's own local writes *and*
    /// other rows' remote writes in the same tick, with magnitudes that make
    /// every re-association visible. Replay reproduces the serial table bit
    /// for bit in any sweep order — which "apply locals in place, log only
    /// the remotes" cannot: the locals would reach the cell before the
    /// remotes of lower rows.
    #[test]
    fn replay_of_mixed_local_and_remote_float_sums_equals_serial_in_any_sweep_order() {
        let s = AgentSchema::builder("W").effect("w", Combinator::Sum).nonlocal_effects(true).build().unwrap();
        let rows: Vec<Writes> = vec![
            vec![(0, 0, 0.1), (2, 0, 1e16), (1, 0, 0.3)],
            vec![(1, 0, 1e-3), (2, 0, 1.0), (0, 0, -1e16)],
            vec![(2, 0, -1e16), (2, 0, 0.7), (0, 0, 1e16), (1, 0, 3.0)],
            vec![(2, 0, 1.0), (0, 0, 0.2), (3, 0, 5.5)],
        ];
        let (serial, serial_nonlocal) = serial_table(&s, &rows, apply);
        for sweep in [[0u32, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]] {
            for cut in 0..=4 {
                let (replayed, nonlocal) = replayed_table(&s, &rows, &sweep, cut, apply);
                assert_bit_identical(&serial, &replayed);
                assert_eq!(nonlocal, serial_nonlocal, "logging must not change the non-local write count");
            }
        }
        // The oracle has teeth: combining in sweep order lands elsewhere.
        let mut swept = EffectTable::new(&s);
        swept.reset(rows.len());
        for me in [3u32, 2, 1, 0] {
            apply(&mut EffectWriter::new(&s, &mut swept, me), me, &rows[me as usize]);
        }
        assert_ne!(swept.row(2)[0].to_bits(), serial.row(2)[0].to_bits());
    }

    #[test]
    fn replay_covers_lattice_and_integer_fields_and_silent_agents() {
        let s = AgentSchema::builder("M")
            .effect("lo", Combinator::Min)
            .effect("hi", Combinator::Max)
            .effect("n", Combinator::Sum)
            .nonlocal_effects(true)
            .build()
            .unwrap();
        let rows: Vec<Writes> = vec![
            vec![(1, 0, 4.0), (1, 1, 4.0), (1, 2, 1.0), (0, 2, 1.0)],
            vec![], // an agent with zero writes: an empty segment
            vec![(1, 0, -2.5), (0, 1, 9.0), (1, 2, 1.0), (2, 0, 0.5)],
            vec![],
        ];
        let (serial, serial_nonlocal) = serial_table(&s, &rows, apply);
        let (replayed, nonlocal) = replayed_table(&s, &rows, &[3, 1, 2, 0], 2, apply);
        assert_bit_identical(&serial, &replayed);
        assert_eq!(nonlocal, serial_nonlocal);
        assert_eq!(replayed.row(1), &[-2.5, 4.0, 2.0]);
        assert_eq!(replayed.row(3), s.effect_identities(), "a silent, untargeted agent stays at identity");
    }

    /// Rows at or past `owned` are replicas: the replay folds none of their
    /// writes, and `writes_past` hands out exactly those, in write order.
    #[test]
    fn replay_folds_owned_targets_and_hands_out_the_rest_in_order() {
        let s = AgentSchema::builder("W").effect("w", Combinator::Sum).nonlocal_effects(true).build().unwrap();
        let writes: Writes = vec![(2, 0, 1.0), (0, 0, 0.5), (3, 0, -2.0), (1, 0, 4.0), (2, 0, 3.0)];
        let mut log = EffectLog::default();
        apply(&mut EffectWriter::logged(&s, &mut log, 0), 0, &writes);
        let mut t = EffectTable::new(&s);
        t.reset(4);
        t.replay(&log, 0, 2);
        assert_eq!(t.col(FieldId::new(0)), &[0.5, 4.0, 0.0, 0.0]);
        let past: Vec<(u32, FieldId, f64)> = log.writes_past(0, 2).collect();
        let field = FieldId::new(0);
        assert_eq!(past, [(2, field, 1.0), (3, field, -2.0), (2, field, 3.0)]);
    }

    /// One effect field per combinator, in [`Combinator::ALL`] order.
    fn every_combinator(nonlocal: bool) -> AgentSchema {
        let builder = Combinator::ALL.iter().fold(AgentSchema::builder("C"), |b, &c| b.effect(c.to_string(), c));
        builder.nonlocal_effects(nonlocal).build().unwrap()
    }

    const EVERY_FIELD: [(FieldId, Combinator); 6] = [
        (FieldId::new(0), Combinator::Sum),
        (FieldId::new(1), Combinator::Prod),
        (FieldId::new(2), Combinator::Min),
        (FieldId::new(3), Combinator::Max),
        (FieldId::new(4), Combinator::Or),
        (FieldId::new(5), Combinator::And),
    ];

    /// `writes` through the writer with every maximal run of own-row writes
    /// as one [`EffectWriter::fold_local`] over [`EVERY_FIELD`]; writes to
    /// other rows go through `remote`, between the folds.
    fn apply_folded(w: &mut EffectWriter<'_>, me: u32, writes: &[(u32, u16, f64)]) {
        for run in writes.chunk_by(|a, b| (a.0 == me) == (b.0 == me)) {
            if run[0].0 != me {
                apply(w, me, run);
                continue;
            }
            w.fold_local(EVERY_FIELD, |acc| {
                for &(_, field, v) in run {
                    let k = field as usize;
                    match EVERY_FIELD[k].1 {
                        Combinator::Sum => acc.sum(k, v),
                        Combinator::Prod => acc.prod(k, v),
                        Combinator::Min => acc.min(k, v),
                        Combinator::Max => acc.max(k, v),
                        Combinator::Or => acc.or(k, v),
                        Combinator::And => acc.and(k, v),
                    }
                }
            });
        }
    }

    /// `n` writes by row `me` of `rows`, two thirds of them to itself, over
    /// every field, drawn from the values float folds are sensitive to:
    /// signed zeros, infinities, NaN, subnormals and magnitudes that make a
    /// re-associated `Sum` or `Prod` visible.
    fn hostile_writes(me: u32, rows: u32, n: usize, seed: u64) -> Writes {
        let sub = f64::from_bits(3);
        let values =
            [0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e16, -1e16, 1e-3, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, sub, -sub];
        let mut rng = brace_common::DetRng::seed_from_u64(seed).stream(me as u64);
        (0..n)
            .map(|_| {
                let target = if rng.below(3) < 2 { me } else { rng.below(rows as u64) as u32 };
                (target, rng.below(6) as u16, values[rng.below(values.len() as u64) as usize])
            })
            .collect()
    }

    /// In-place sinks: on a visible-set table every row also receives the
    /// other rows' remote writes into the same fields, before and after its
    /// own folds — so a fold opens on a slot that is not at its identity and
    /// must load it, not re-seed it. The non-local write count is the
    /// writer's, untouched by folding.
    #[test]
    fn fold_local_equals_the_same_local_writes_in_place() {
        let s = every_combinator(true);
        for seed in 0..32 {
            let rows: Vec<Writes> = (0..4).map(|me| hostile_writes(me, 4, 48, seed)).collect();
            let (by_local, nonlocal) = serial_table(&s, &rows, apply);
            let (by_fold, nonlocal_folded) = serial_table(&s, &rows, apply_folded);
            assert_bit_identical(&by_local, &by_fold);
            assert_eq!(nonlocal_folded, nonlocal);
            assert!(nonlocal > 0, "the case must mix remote writes in");
        }
    }

    /// A local-effect shard table: the fold addresses `slot`, not `me`, and
    /// `local` before and after it on the same fields continues the sequence.
    #[test]
    fn fold_local_addresses_the_shard_slot_between_local_writes() {
        let s = every_combinator(false);
        for seed in 0..32 {
            let writes: Writes =
                hostile_writes(9, 1, 60, seed).into_iter().map(|(_, field, v)| (9, field, v)).collect();
            let (head, rest) = writes.split_at(7);
            let (mid, tail) = rest.split_at(40);
            let (mut by_local, mut by_fold) = (EffectTable::new(&s), EffectTable::new(&s));
            for (t, middle) in [(&mut by_local, apply as Apply), (&mut by_fold, apply_folded)] {
                t.reset(2);
                let mut w = EffectWriter::with_slot(&s, t, 9, 1);
                apply(&mut w, 9, head);
                middle(&mut w, 9, mid);
                apply(&mut w, 9, tail);
                assert_eq!(w.nonlocal_writes(), 0);
            }
            assert_bit_identical(&by_local, &by_fold);
            assert_eq!(by_fold.row(0), s.effect_identities(), "only the slot row is addressed");
        }
    }

    /// The log sink logs every combine of a fold, in order: replayed in
    /// source-row order among the other rows' remote writes into the same
    /// fields, the table is the serial one, in any sweep order — which a
    /// fold that logged one partial per field could not be (the partial
    /// would re-associate the `Sum` against the remotes).
    #[test]
    fn fold_local_on_the_log_sink_logs_every_combine_in_order() {
        let s = every_combinator(true);
        for seed in 0..16 {
            let rows: Vec<Writes> = (0..4).map(|me| hostile_writes(me, 4, 40, seed)).collect();
            let (serial, serial_nonlocal) = serial_table(&s, &rows, apply);
            for sweep in [[0u32, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
                let (replayed, nonlocal) = replayed_table(&s, &rows, &sweep, 2, apply_folded);
                assert_bit_identical(&serial, &replayed);
                assert_eq!(nonlocal, serial_nonlocal);
            }
        }
        let mut log = EffectLog::default();
        apply_folded(&mut EffectWriter::logged(&s, &mut log, 1), 1, &[(1, 0, 2.0), (1, 0, 3.0), (1, 2, -1.0)]);
        assert_eq!(log.len(), 3, "one entry per combine, not one per field");
    }

    #[test]
    #[should_panic(expected = "schema `C` declares effect `sum` as sum but a fold combines it by min")]
    fn fold_local_rejects_a_combinator_the_schema_does_not_declare() {
        let s = every_combinator(false);
        let mut t = EffectTable::new(&s);
        t.reset(1);
        EffectWriter::new(&s, &mut t, 0).fold_local([(FieldId::new(0), Combinator::Min)], |acc| acc.min(0, 1.0));
    }

    #[test]
    #[should_panic(expected = "effect `max` folded twice")]
    fn fold_local_rejects_a_field_listed_twice() {
        let s = every_combinator(false);
        let mut t = EffectTable::new(&s);
        t.reset(1);
        let max = (FieldId::new(3), Combinator::Max);
        EffectWriter::new(&s, &mut t, 0).fold_local([max, max], |_| {});
    }

    #[test]
    fn scatter_places_shard_rows_through_a_permutation() {
        let s = schema();
        let mut shard = EffectTable::new(&s);
        shard.reset(3);
        for (slot, v) in [(0, 1.5), (1, -2.0), (2, 7.0)] {
            shard.combine(slot, FieldId::new(0), v);
            shard.combine(slot, FieldId::new(1), v);
        }
        let mut t = EffectTable::new(&s);
        t.reset(5);
        t.scatter_rows_from(&shard, [4u32, 0, 2].into_iter());
        assert_eq!(t.col(FieldId::new(0)), &[-2.0, 0.0, 7.0, 0.0, 1.5]);
        assert_eq!(t.col(FieldId::new(1)), &[-2.0, f64::INFINITY, 7.0, f64::INFINITY, 1.5]);
    }

    #[test]
    fn slot_writer_addresses_its_own_row_only() {
        let s = AgentSchema::builder("L").effect("e", Combinator::Sum).build().unwrap();
        let mut t = EffectTable::new(&s);
        t.reset(2);
        // Visible row 9 lives in slot 1 of this shard's table.
        let mut w = EffectWriter::with_slot(&s, &mut t, 9, 1);
        w.local(FieldId::new(0), 2.0);
        w.remote(9, FieldId::new(0), 3.0); // remote to self is local
        assert_eq!(w.nonlocal_writes(), 0);
        assert_eq!(t.col(FieldId::new(0)), &[0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "local effects only")]
    fn writer_rejects_undeclared_nonlocal() {
        let s = AgentSchema::builder("L").effect("e", Combinator::Sum).build().unwrap();
        let mut t = EffectTable::new(&s);
        t.reset(2);
        let mut w = EffectWriter::new(&s, &mut t, 0);
        w.remote(1, FieldId::new(0), 1.0);
    }
}
