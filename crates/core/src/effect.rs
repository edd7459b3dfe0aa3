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
//! `&mut self`, a shard table is addressed only at the writer's own slot,
//! the serial reference has one writer at a time, and `remote(me, …)` is
//! `local`. (Bit-identical up to NaN payloads: which operand's payload
//! `a + b` propagates is the implementation's choice and LLVM may commute
//! the operands — in `local` as much as in the fold.)
//!
//! # Remote fields and the write-log
//!
//! A schema declares, per field, whether other agents may write it
//! ([`SchemaBuilder::remote_effect`](crate::schema::SchemaBuilder::remote_effect)).
//! A *local-only* field has one writer, its own agent, so its fold order is
//! fixed by that agent's query alone. A *remote* field may receive other
//! rows' writes in the same tick, and a float `Sum` into it is pinned in
//! source-id order — which the tile-ordered sweep does not visit in. So a
//! non-local schema's writer has a **split sink**: a write to a local-only
//! field folds in place into the shard's table, exactly as a local-effect
//! schema's does; a write to a remote field, whoever makes it, is appended
//! to the write-log (`EffectLog`) for the ordered replay. A fold over
//! local-only fields alone is the register fold above. A fold that names a
//! remote field routes each accumulator by its field: a remote field's
//! combines are logged one by one, in call order, as `local` would log them
//! (a folded partial would re-associate the `Sum` against the other rows'
//! writes), and the local-only ones fold in registers and are stored at
//! close. The sink is resolved once per fold, not once per combine.

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

    /// Apply the writes `writer` (one member's `(id rank, start, end)` in
    /// `log`) made to one of the first `owned` rows, in the order they were
    /// made; writes to later rows (replicas) are their owners' to fold.
    /// Replaying every writer in ascending source-id order performs exactly
    /// the combines into remote fields, in exactly the order, of writers run
    /// over those rows in id order.
    pub(crate) fn replay(&mut self, log: &EffectLog, writer: (u32, u32, u32), owned: u32) {
        let (_, start, end) = writer;
        for e in log.entries[start as usize..end as usize].iter().filter(|e| e.row < owned) {
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
/// schemas with non-local effects: every write to a **remote** field, by its
/// own agent or another, in the order it was made (module docs).
///
/// A float `Sum` into a remote field is pinned in source-id order, but the
/// tile-ordered sweep visits source rows in probe order. So those writes do
/// not combine in place: each member appends them here, and one that logged
/// any records itself as a **writer**, `(id rank, start, end)` of its run of
/// entries. After the sweep the executor [replays](EffectTable::replay)
/// every writer once, in ascending source id, straight into the pool's
/// effect columns, so the fold is the id-order pass's at every shard granule
/// and on every engine. A member that wrote no remote field adds nothing to
/// that fold and is not a writer.
#[derive(Debug, Default)]
pub(crate) struct EffectLog {
    entries: Vec<LogEntry>,
    /// `(id rank, start, end)` of every member that logged a write, in sweep
    /// order: its writes are `entries[start..end]`.
    writers: Vec<(u32, u32, u32)>,
}

impl EffectLog {
    /// Forget every write (allocations are kept).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.writers.clear();
    }

    /// Total writes logged since the last [`clear`](EffectLog::clear).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The writers, in the order they were swept.
    pub(crate) fn writers(&self) -> &[(u32, u32, u32)] {
        &self.writers
    }

    /// Close the member with id rank `rank`, whose writes start at entry
    /// `start`: a writer if it logged any. Returns its writes to rows at or
    /// past `owned` (replicas), in the order they were made:
    /// `(target row, field, value)`.
    pub(crate) fn close(
        &mut self,
        rank: u32,
        start: usize,
        owned: u32,
    ) -> impl Iterator<Item = (u32, FieldId, f64)> + '_ {
        let end = self.entries.len();
        if end > start {
            let offset = |i: usize| u32::try_from(i).expect("effect log outgrew u32 offsets");
            self.writers.push((rank, offset(start), offset(end)));
        }
        self.entries[start..].iter().filter(move |e| e.row >= owned).map(|e| (e.row, e.field, e.v))
    }
}

/// Append one write to a log. Out of line and marked cold on purpose: a
/// behavior's query calls [`EffectWriter::local`] or a [`LocalFold`] combine
/// from many call sites inside its candidate loop, and a vector's growth
/// path inlined at every one of them costs the in-place sink the registers
/// it keeps its loop state in (measured with eight `local` sites in the fish
/// loop: 3–8 % of the dense tick). A remote-field write pays a call
/// instead (the predator's bites; its crowd count folds in place).
#[cold]
#[inline(never)]
fn log_write(entries: &mut Vec<LogEntry>, entry: LogEntry) {
    entries.push(entry);
}

/// Where an [`EffectWriter`]'s writes go — chosen once per tick, by schema.
enum Sink<'a> {
    /// Combine in place (local-effect schemas, and the serial reference).
    Table(&'a mut EffectTable),
    /// Non-local schemas: local-only fields combine in place into the shard
    /// table, remote fields append to the write-log (module docs).
    Split(&'a mut EffectTable, &'a mut Vec<LogEntry>),
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
    /// Row of the writer's table that holds `me`'s effects: `me` itself on
    /// a table spanning the visible set (the serial path); the agent's
    /// position in its shard's slice of the probe order on a shard table,
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

    /// Writer for a non-local schema's shard: writes to local-only fields
    /// combine into row `slot` of the shard `table`, and every write to a
    /// remote field is appended to `log`, in order, addressed by visible row.
    pub(crate) fn split(
        schema: &'a AgentSchema,
        table: &'a mut EffectTable,
        log: &'a mut EffectLog,
        me: u32,
        slot: u32,
    ) -> Self {
        EffectWriter { schema, sink: Sink::Split(table, &mut log.entries), me, slot, nonlocal_writes: 0 }
    }

    /// `field <- v` on the querying agent itself.
    #[inline]
    pub fn local(&mut self, field: FieldId, v: f64) {
        match &mut self.sink {
            Sink::Table(table) => table.combine(self.slot, field, v),
            Sink::Split(_, entries) if self.schema.is_remote(field) => {
                log_write(entries, LogEntry { row: self.me, field, v })
            }
            Sink::Split(table, _) => table.combine(self.slot, field, v),
        }
    }

    /// `target.field <- v` on another visible agent. Only a field the schema
    /// declares [remote](crate::schema::SchemaBuilder::remote_effect) may be
    /// written on any row but the writer's own: the runtime would drop the
    /// effect at partition boundaries, and a shard table has no row for it —
    /// so the violation fails loudly, naming the schema and the field.
    #[inline]
    pub fn remote(&mut self, target_row: u32, field: FieldId, v: f64) {
        if target_row == self.me {
            return self.local(field, v);
        }
        assert!(
            self.schema.is_remote(field),
            "schema `{}` declares effect `{}` local-only but wrote it on another agent (row {target_row}); \
             declare it with `remote_effect`",
            self.schema.name(),
            self.schema.effect_defs()[field.index()].name
        );
        self.nonlocal_writes += 1;
        match &mut self.sink {
            Sink::Table(table) => table.combine(target_row, field, v),
            Sink::Split(_, entries) => log_write(entries, LogEntry { row: target_row, field, v }),
        }
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
        let schema = self.schema;
        for (k, &(field, comb)) in fields.iter().enumerate() {
            let def = &schema.effect_defs()[field.index()];
            assert!(
                def.combinator == comb,
                "schema `{}` declares effect `{}` as {} but a fold combines it by {comb}",
                schema.name(),
                def.name,
                def.combinator
            );
            assert!(fields[..k].iter().all(|&(earlier, _)| earlier != field), "effect `{}` folded twice", def.name);
        }
        let (me, slot) = (self.me, self.slot);
        // The table arm: every field the fold names combines in place.
        let table = match &mut self.sink {
            Sink::Table(table) => &mut **table,
            Sink::Split(table, entries) => {
                let remote = fields.map(|(field, _)| schema.is_remote(field));
                if remote.contains(&true) {
                    return fold_logged(table, entries, me, slot, fields, remote, f);
                }
                &mut **table
            }
        };
        let mut acc = LocalFold::open(table, slot, fields, me, None);
        f(&mut acc);
        acc.close(table, slot);
    }

    /// Number of genuinely non-local writes performed through this writer
    /// (statistics for the optimizer's inversion payoff accounting).
    pub fn nonlocal_writes(&self) -> u64 {
        self.nonlocal_writes
    }
}

/// [`EffectWriter::fold_local`] on a split sink whose fold names a remote
/// field: accumulator `k` is logged when `remote[k]`, folded in registers
/// and stored at close otherwise. `f` is called from two places only: the
/// table arm, where nothing is logged and the accumulators' routing test
/// folds away once `f` is inlined, and this one, kept out of line so that
/// the table arm holds nothing but the register fold (with both calls in one
/// function the fish fold closure was inlined into neither, its accumulators
/// were stored every iteration, and `fish-uniform` read 1.77× its parent
/// instead of 1.86–1.94×).
#[cold]
#[inline(never)]
fn fold_logged<const N: usize>(
    table: &mut EffectTable,
    entries: &mut Vec<LogEntry>,
    me: u32,
    slot: u32,
    fields: [(FieldId, Combinator); N],
    remote: [bool; N],
    f: impl FnOnce(&mut LocalFold<'_, N>),
) {
    let mut acc = LocalFold::open(table, slot, fields, me, Some((entries, remote)));
    f(&mut acc);
    acc.close(table, slot);
}

/// The accumulators of one [`EffectWriter::fold_local`]: write-only, like the
/// writer itself. A local-only field's accumulator is its slot value held by
/// value (in registers, once the fold is inlined) between the load at open
/// and the store at close; a remote field's combines on a split sink are
/// appended to the write-log, in call order, exactly as
/// [`EffectWriter::local`] appends them.
pub struct LocalFold<'w, const N: usize> {
    vals: [f64; N],
    fields: [(FieldId, Combinator); N],
    /// The visible row the log entries address.
    me: u32,
    /// Split sink with a remote field among `fields`: the log, and which
    /// accumulators go to it.
    log: Option<(&'w mut Vec<LogEntry>, [bool; N])>,
}

impl<'w, const N: usize> LocalFold<'w, N> {
    /// Load the fields' values at row `slot` of `table`.
    #[inline(always)]
    fn open(
        table: &EffectTable,
        slot: u32,
        fields: [(FieldId, Combinator); N],
        me: u32,
        log: Option<(&'w mut Vec<LogEntry>, [bool; N])>,
    ) -> Self {
        let vals = fields.map(|(field, _)| table.cols[field.index()][slot as usize]);
        LocalFold { vals, fields, me, log }
    }

    /// Store the accumulators back at row `slot`. A logged accumulator was
    /// never combined into, so it stores the value it loaded.
    #[inline(always)]
    fn close(self, table: &mut EffectTable, slot: u32) {
        for (val, (field, _)) in self.vals.into_iter().zip(self.fields) {
            table.cols[field.index()][slot as usize] = val;
        }
    }

    /// `comb` is a constant at every call site, so `Combinator::combine`'s
    /// `match` is resolved at compile time: an in-register accumulator is a
    /// bare `vals[k] ⊕= v`.
    #[inline(always)]
    fn combine(&mut self, comb: Combinator, k: usize, v: f64) {
        debug_assert_eq!(self.fields[k].1, comb, "accumulator {k} was declared with another combinator");
        match &mut self.log {
            Some((entries, remote)) if remote[k] => {
                log_write(entries, LogEntry { row: self.me, field: self.fields[k].0, v })
            }
            _ => self.vals[k] = comb.combine(self.vals[k], v),
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
            .remote_effect("total", Combinator::Sum)
            .effect("closest", Combinator::Min)
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
        w.remote(0, FieldId::new(1), -1.0); // ... so it may name a local-only field
        assert_eq!(w.nonlocal_writes(), 1);
        assert_eq!(t.row(0), &[4.0, -1.0]);
        assert_eq!(t.row(1), &[2.0, f64::INFINITY]);
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

    /// The executor's path: rows swept in `sweep` order and cut into two
    /// shards at `cut`, each with a table of its slice and a log; then the
    /// tables scattered and the writers replayed in ascending source row
    /// (the rows' id order).
    fn replayed_table(s: &AgentSchema, rows: &[Writes], sweep: &[u32], cut: usize, apply: Apply) -> (EffectTable, u64) {
        let owned = rows.len() as u32;
        let slices = [&sweep[..cut], &sweep[cut..]];
        let mut shards = slices.map(|_| (EffectTable::new(s), EffectLog::default()));
        let mut writers = Vec::new();
        let mut nonlocal = 0;
        for (i, ((table, log), members)) in shards.iter_mut().zip(slices).enumerate() {
            table.reset(members.len());
            for (slot, &me) in members.iter().enumerate() {
                let start = log.len();
                let mut w = EffectWriter::split(s, table, log, me, slot as u32);
                apply(&mut w, me, &rows[me as usize]);
                nonlocal += w.nonlocal_writes();
                assert_eq!(log.close(me, start, owned).count(), 0, "every row is owned");
            }
            writers.extend(log.writers().iter().map(|&writer| (i, writer)));
        }
        writers.sort_by_key(|&(_, (rank, ..))| rank);
        let mut t = EffectTable::new(s);
        t.reset(rows.len());
        for ((table, _), members) in shards.iter().zip(slices) {
            t.scatter_rows_from(table, members.iter().copied());
        }
        for (i, writer) in writers {
            t.replay(&shards[i].1, writer, owned);
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

    /// One remote float `Sum` field that receives a row's own local writes
    /// *and* other rows' remote writes in the same tick, with magnitudes
    /// that make every re-association visible. Replay reproduces the serial
    /// table bit for bit in any sweep order — which routing by target
    /// ("apply my own writes in place, log only those to others") cannot:
    /// the own writes would reach the cell before the remotes of lower rows.
    #[test]
    fn replay_of_mixed_local_and_remote_float_sums_equals_serial_in_any_sweep_order() {
        let s = AgentSchema::builder("W").remote_effect("w", Combinator::Sum).build().unwrap();
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
            .remote_effect("lo", Combinator::Min)
            .remote_effect("hi", Combinator::Max)
            .remote_effect("n", Combinator::Sum)
            .build()
            .unwrap();
        let rows: Vec<Writes> = vec![
            vec![(1, 0, 4.0), (1, 1, 4.0), (1, 2, 1.0), (0, 2, 1.0)],
            vec![], // an agent with zero writes: not a writer
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
    /// writes, and closing the writer hands out exactly those, in write
    /// order. Local-only fields never reach the log.
    #[test]
    fn replay_folds_owned_targets_and_hands_out_the_rest_in_order() {
        let s = AgentSchema::builder("W")
            .remote_effect("w", Combinator::Sum)
            .effect("own", Combinator::Sum)
            .build()
            .unwrap();
        let writes: Writes =
            vec![(2, 0, 1.0), (0, 0, 0.5), (0, 1, 7.0), (3, 0, -2.0), (1, 0, 4.0), (0, 1, 1.0), (2, 0, 3.0)];
        let (mut shard, mut log) = (EffectTable::new(&s), EffectLog::default());
        shard.reset(1);
        apply(&mut EffectWriter::split(&s, &mut shard, &mut log, 0, 0), 0, &writes);
        assert_eq!(log.len(), 5, "the two `own` writes combine in place");
        assert_eq!(shard.row(0), &[0.0, 8.0]);
        let past: Vec<(u32, FieldId, f64)> = log.close(6, 0, 2).collect();
        let field = FieldId::new(0);
        assert_eq!(past, [(2, field, 1.0), (3, field, -2.0), (2, field, 3.0)]);
        assert_eq!(log.writers(), &[(6, 0, 5)]);
        let mut t = EffectTable::new(&s);
        t.reset(4);
        t.replay(&log, log.writers()[0], 2);
        assert_eq!(t.col(FieldId::new(0)), &[0.5, 4.0, 0.0, 0.0]);
        assert_eq!(t.col(FieldId::new(1)), &[0.0; 4], "the replay folds remote fields only");
        // A member that logs nothing is no writer.
        let start = log.len();
        apply(&mut EffectWriter::split(&s, &mut shard, &mut log, 1, 0), 1, &[(1, 1, 2.0)]);
        assert_eq!(log.close(7, start, 2).count(), 0);
        assert_eq!(log.writers().len(), 1);
    }

    /// One effect field per combinator, in [`Combinator::ALL`] order, remote
    /// where `remote` says so.
    fn every_combinator(remote: [bool; 6]) -> AgentSchema {
        let builder = Combinator::ALL.iter().zip(remote).fold(AgentSchema::builder("C"), |b, (&c, remote)| {
            if remote {
                b.remote_effect(c.to_string(), c)
            } else {
                b.effect(c.to_string(), c)
            }
        });
        builder.build().unwrap()
    }

    const ALL_REMOTE: [bool; 6] = [true; 6];
    const ALL_LOCAL: [bool; 6] = [false; 6];
    /// `sum`, `max` and `and` remote; `prod`, `min` and `or` local-only.
    const MIXED: [bool; 6] = [true, false, false, true, false, true];

    const EVERY_FIELD: [(FieldId, Combinator); 6] = [
        (FieldId::new(0), Combinator::Sum),
        (FieldId::new(1), Combinator::Prod),
        (FieldId::new(2), Combinator::Min),
        (FieldId::new(3), Combinator::Max),
        (FieldId::new(4), Combinator::Or),
        (FieldId::new(5), Combinator::And),
    ];

    /// The local-only fields of [`MIXED`].
    const MIXED_LOCAL_FIELDS: [(FieldId, Combinator); 3] = [EVERY_FIELD[1], EVERY_FIELD[2], EVERY_FIELD[4]];

    /// `writes` through the writer with every maximal run of own-row writes
    /// to `fields` as one [`EffectWriter::fold_local`] over `fields`; other
    /// writes go through `local` / `remote`, between the folds.
    fn fold_runs<const N: usize>(
        w: &mut EffectWriter<'_>,
        me: u32,
        writes: &[(u32, u16, f64)],
        fields: [(FieldId, Combinator); N],
    ) {
        let slot = |field: u16| fields.iter().position(|&(f, _)| f == FieldId::new(field));
        let folded = |&(target, field, _): &(u32, u16, f64)| target == me && slot(field).is_some();
        for run in writes.chunk_by(|a, b| folded(a) == folded(b)) {
            if !folded(&run[0]) {
                apply(w, me, run);
                continue;
            }
            w.fold_local(fields, |acc| {
                for &(_, field, v) in run {
                    let k = slot(field).unwrap();
                    match fields[k].1 {
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

    /// Folds over [`EVERY_FIELD`].
    fn apply_folded(w: &mut EffectWriter<'_>, me: u32, writes: &[(u32, u16, f64)]) {
        fold_runs(w, me, writes, EVERY_FIELD);
    }

    /// Folds over [`MIXED_LOCAL_FIELDS`] only.
    fn apply_folded_local(w: &mut EffectWriter<'_>, me: u32, writes: &[(u32, u16, f64)]) {
        fold_runs(w, me, writes, MIXED_LOCAL_FIELDS);
    }

    /// `n` writes by row `me` of `rows`, two thirds of them to itself, over
    /// every field (those to other rows over the `remote` ones only), drawn
    /// from the values float folds are sensitive to: signed zeros,
    /// infinities, NaN, subnormals and magnitudes that make a re-associated
    /// `Sum` or `Prod` visible.
    fn hostile_writes(me: u32, rows: u32, n: usize, seed: u64, remote: [bool; 6]) -> Writes {
        let sub = f64::from_bits(3);
        let values =
            [0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e16, -1e16, 1e-3, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, sub, -sub];
        let mut rng = brace_common::DetRng::seed_from_u64(seed).stream(me as u64);
        (0..n)
            .map(|_| {
                let target = if rng.below(3) < 2 { me } else { rng.below(rows as u64) as u32 };
                let field = rng.below(6) as u16;
                let target = if remote[field as usize] { target } else { me };
                (target, field, values[rng.below(values.len() as u64) as usize])
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
        let s = every_combinator(ALL_REMOTE);
        for seed in 0..32 {
            let rows: Vec<Writes> = (0..4).map(|me| hostile_writes(me, 4, 48, seed, ALL_REMOTE)).collect();
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
        let s = every_combinator(ALL_LOCAL);
        for seed in 0..32 {
            let writes = hostile_writes(9, 1, 60, seed, ALL_LOCAL);
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

    /// A fold over remote fields logs every combine, in order: replayed in
    /// source-row order among the other rows' remote writes into the same
    /// fields, the table is the serial one, in any sweep order — which a
    /// fold that logged one partial per field could not be (the partial
    /// would re-associate the `Sum` against the remotes).
    #[test]
    fn fold_local_over_remote_fields_logs_every_combine_in_order() {
        let s = every_combinator(ALL_REMOTE);
        for seed in 0..16 {
            let rows: Vec<Writes> = (0..4).map(|me| hostile_writes(me, 4, 40, seed, ALL_REMOTE)).collect();
            let (serial, serial_nonlocal) = serial_table(&s, &rows, apply);
            for sweep in [[0u32, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
                let (replayed, nonlocal) = replayed_table(&s, &rows, &sweep, 2, apply_folded);
                assert_bit_identical(&serial, &replayed);
                assert_eq!(nonlocal, serial_nonlocal);
            }
        }
        let (mut shard, mut log) = (EffectTable::new(&s), EffectLog::default());
        shard.reset(1);
        let mut w = EffectWriter::split(&s, &mut shard, &mut log, 1, 0);
        apply_folded(&mut w, 1, &[(1, 0, 2.0), (1, 0, 3.0), (1, 2, -1.0)]);
        assert_eq!(log.len(), 3, "one entry per combine, not one per field");
    }

    /// The split sink of a schema with remote and local-only fields: one
    /// row's writes through folds — over every field (remote accumulators
    /// logged, local-only ones in registers) and over the local-only fields
    /// alone (the register fold) — leave the bits of the same `local`
    /// sequence in the shard table *and* in the log, and no local-only field
    /// reaches the log. Across rows, the replay equals the serial table.
    #[test]
    fn fold_local_on_a_split_sink_routes_each_accumulator_by_its_field() {
        let s = every_combinator(MIXED);
        for seed in 0..32 {
            let rows: Vec<Writes> = (0..4).map(|me| hostile_writes(me, 4, 48, seed, MIXED)).collect();
            for me in 0..4u32 {
                let run = |apply: Apply| {
                    let (mut shard, mut log) = (EffectTable::new(&s), EffectLog::default());
                    shard.reset(1);
                    let mut w = EffectWriter::split(&s, &mut shard, &mut log, me, 0);
                    apply(&mut w, me, &rows[me as usize]);
                    let nonlocal = w.nonlocal_writes();
                    let logged: Vec<(u32, FieldId, u64)> =
                        log.entries.iter().map(|e| (e.row, e.field, e.v.to_bits())).collect();
                    (shard, logged, nonlocal)
                };
                let (by_local, local_log, nonlocal) = run(apply);
                assert!(local_log.iter().all(|&(_, field, _)| s.is_remote(field)), "a local-only field was logged");
                assert!(local_log.iter().any(|&(row, ..)| row == me), "the case must log own remote-field writes");
                for folding in [apply_folded as Apply, apply_folded_local] {
                    let (by_fold, fold_log, nonlocal_folded) = run(folding);
                    assert_bit_identical(&by_local, &by_fold);
                    assert_eq!(fold_log, local_log);
                    assert_eq!(nonlocal_folded, nonlocal);
                }
            }
            let (serial, _) = serial_table(&s, &rows, apply);
            for sweep in [[0u32, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
                for folding in [apply_folded as Apply, apply_folded_local] {
                    assert_bit_identical(&serial, &replayed_table(&s, &rows, &sweep, 2, folding).0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "schema `C` declares effect `sum` as sum but a fold combines it by min")]
    fn fold_local_rejects_a_combinator_the_schema_does_not_declare() {
        let s = every_combinator(ALL_LOCAL);
        let mut t = EffectTable::new(&s);
        t.reset(1);
        EffectWriter::new(&s, &mut t, 0).fold_local([(FieldId::new(0), Combinator::Min)], |acc| acc.min(0, 1.0));
    }

    #[test]
    #[should_panic(expected = "effect `max` folded twice")]
    fn fold_local_rejects_a_field_listed_twice() {
        let s = every_combinator(ALL_LOCAL);
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

    /// On the split sink `remote(me, …)` routes by field exactly as `local`
    /// does: a remote field to the log, a local-only one into the slot.
    #[test]
    fn split_writer_routes_remote_to_self_by_field() {
        let s = schema();
        let (mut shard, mut log) = (EffectTable::new(&s), EffectLog::default());
        shard.reset(2);
        let mut w = EffectWriter::split(&s, &mut shard, &mut log, 9, 1);
        w.remote(9, FieldId::new(0), 3.0);
        w.remote(9, FieldId::new(1), -4.0);
        assert_eq!(w.nonlocal_writes(), 0);
        assert_eq!(shard.row(1), &[0.0, -4.0]);
        let logged: Vec<(u32, FieldId, f64)> = log.close(0, 0, u32::MAX).collect();
        assert!(logged.is_empty(), "row 9 is owned");
        assert_eq!((log.entries[0].row, log.entries[0].field, log.entries[0].v), (9, FieldId::new(0), 3.0));
        assert_eq!(log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "schema `L` declares effect `e` local-only but wrote it on another agent (row 1)")]
    fn writer_rejects_an_undeclared_remote_write() {
        let s = AgentSchema::builder("L").effect("e", Combinator::Sum).build().unwrap();
        let mut t = EffectTable::new(&s);
        t.reset(2);
        let mut w = EffectWriter::new(&s, &mut t, 0);
        w.remote(1, FieldId::new(0), 1.0);
    }

    /// A non-local schema does not license writes to another row's
    /// local-only field: the check is per field.
    #[test]
    #[should_panic(expected = "schema `T` declares effect `closest` local-only but wrote it on another agent (row 4)")]
    fn split_writer_rejects_a_remote_write_to_a_local_only_field() {
        let s = schema();
        let (mut shard, mut log) = (EffectTable::new(&s), EffectLog::default());
        shard.reset(1);
        let mut w = EffectWriter::split(&s, &mut shard, &mut log, 0, 0);
        w.remote(4, FieldId::new(0), 1.0);
        w.remote(4, FieldId::new(1), 1.0);
    }
}
