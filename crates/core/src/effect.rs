//! Staged effect aggregation.
//!
//! During the query phase agents assign effect values; the state-effect
//! pattern requires those assignments to be aggregated by each field's
//! combinator, in any order, possibly partially on one node and finally on
//! another. [`EffectTable`] is the dense accumulator for one partition's
//! visible agent set; [`EffectWriter`] is the capability handed to a
//! behavior's query phase — it can *only* combine into effect slots, which
//! is how the executor enforces "state variables are read-only during the
//! query phase and effect variables are write-only" at the API level.
//!
//! The table is **column-major**: one flat `Vec<f64>` per effect field,
//! matching the [`AgentPool`](crate::agent::AgentPool)'s struct-of-arrays
//! layout — the pool's per-tick accumulator *is* an `EffectTable`, so the
//! final shard merge lands directly in the pool's effect columns and the
//! update phase reads them with no copy-back step. Column layout also
//! makes [`EffectTable::reset`] schema-aware and trivially fast: one
//! `slice::fill` with the field's identity per column, instead of writing
//! row-interleaved identity patterns.

use crate::agent::Agent;
use crate::combinator::Combinator;
use crate::schema::AgentSchema;
use brace_common::FieldId;

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

    /// Drop rows `n..` (replica rows after the query phase).
    pub fn truncate_rows(&mut self, n: usize) {
        if n >= self.rows {
            return;
        }
        for col in &mut self.cols {
            col.truncate(n);
        }
        self.rows = n;
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
    /// Allocates — row extraction is a boundary operation (tests, shipping
    /// partial aggregates); hot paths read columns or single slots.
    pub fn row(&self, row: u32) -> Vec<f64> {
        self.cols.iter().map(|col| col[row as usize]).collect()
    }

    /// Gather the aggregated row for one agent into a reused buffer.
    pub fn copy_row_into(&self, row: u32, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.cols.iter().map(|col| col[row as usize]));
    }

    /// True if the row still holds only identities — such rows carry no
    /// information and the runtime skips shipping them (the paper's
    /// "∀i s.t. fᵗᵢ ≠ θ" filter).
    pub fn row_is_identity(&self, row: u32) -> bool {
        self.cols.iter().zip(&self.identities).all(|(col, id)| col[row as usize].to_bits() == id.to_bits())
    }

    /// ⊕-merge a partial aggregate row (shipped from another partition)
    /// into `row`. This is the second reduce pass's `⊕ⱼfᵗⱼ`.
    pub fn merge_row(&mut self, row: u32, partial: &[f64]) {
        debug_assert_eq!(partial.len(), self.width());
        for ((col, &p), &comb) in self.cols.iter_mut().zip(partial).zip(&self.combs) {
            let slot = &mut col[row as usize];
            *slot = comb.combine(*slot, p);
        }
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

    /// ⊕-merge every row of `src` into this table (row `i` into row `i`).
    /// This is the shard-merge step for schemas with non-local effects,
    /// where any shard may have written to any visible row; callers must
    /// merge shards in a deterministic order (the executor uses ascending
    /// shard index) so float aggregation is reproducible run to run. The
    /// column layout turns this into one tight combine loop per field.
    pub fn merge_table(&mut self, src: &EffectTable) {
        debug_assert_eq!(src.width(), self.width(), "schema mismatch in merge_table");
        debug_assert!(src.rows() <= self.rows, "shard merge out of range");
        for ((dst, s), &comb) in self.cols.iter_mut().zip(&src.cols).zip(&self.combs) {
            for (d, &p) in dst.iter_mut().zip(s.iter()) {
                *d = comb.combine(*d, p);
            }
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

/// Write capability for one agent's query phase.
///
/// `me` addresses the querying agent's own row (local assignments, the
/// BRASIL `f <- v`); neighbor rows are addressed by their index in the
/// visible set (non-local assignments, `other.f <- v`).
pub struct EffectWriter<'a> {
    schema: &'a AgentSchema,
    table: &'a mut EffectTable,
    me: u32,
    /// Row of `table` that holds `me`'s effects: `me` itself for a table
    /// spanning the visible set (the serial path and non-local shards); the
    /// agent's position in its shard's slice of the probe order for a
    /// local-effect shard table, where no other row is addressable.
    slot: u32,
    nonlocal_writes: u64,
}

impl<'a> EffectWriter<'a> {
    /// Writer over a table spanning the visible set (row `r` is visible row `r`).
    pub fn new(schema: &'a AgentSchema, table: &'a mut EffectTable, me: u32) -> Self {
        EffectWriter { schema, table, me, slot: me, nonlocal_writes: 0 }
    }

    /// Writer over a local-effect shard table, in which `me`'s effects live
    /// in row `slot`. `me` stays a visible-set row index.
    pub fn with_slot(schema: &'a AgentSchema, table: &'a mut EffectTable, me: u32, slot: u32) -> Self {
        EffectWriter { schema, table, me, slot, nonlocal_writes: 0 }
    }

    /// `field <- v` on the querying agent itself.
    #[inline]
    pub fn local(&mut self, field: FieldId, v: f64) {
        self.table.combine(self.slot, field, v);
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
        self.table.combine(target_row, field, v);
    }

    /// Number of genuinely non-local writes performed through this writer
    /// (statistics for the optimizer's inversion payoff accounting).
    pub fn nonlocal_writes(&self) -> u64 {
        self.nonlocal_writes
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
            assert!(t.row_is_identity(r));
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
        assert!(!t.row_is_identity(0));
    }

    #[test]
    fn merge_row_is_second_reduce_pass() {
        let s = schema();
        // Partition A aggregates partially…
        let mut a = EffectTable::new(&s);
        a.reset(1);
        a.combine(0, FieldId::new(0), 1.0);
        a.combine(0, FieldId::new(1), 9.0);
        // …partition B owns the agent and merges A's partial row.
        let mut b = EffectTable::new(&s);
        b.reset(1);
        b.combine(0, FieldId::new(0), 2.0);
        b.combine(0, FieldId::new(1), 5.0);
        b.merge_row(0, &a.row(0));
        assert_eq!(b.row(0), &[3.0, 5.0]);
    }

    #[test]
    fn merge_of_identity_row_is_noop() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.reset(1);
        t.combine(0, FieldId::new(0), 4.0);
        let before = t.row(0);
        let identities = s.effect_identities();
        t.merge_row(0, &identities);
        assert_eq!(t.row(0), before);
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
    fn push_and_truncate_rows() {
        let s = schema();
        let mut t = EffectTable::new(&s);
        t.push_row(&[1.0, 2.0]);
        t.push_identity_row();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert!(t.row_is_identity(1));
        t.truncate_rows(1);
        assert_eq!(t.rows(), 1);
        let mut buf = vec![9.0];
        t.copy_row_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
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
        assert!(t.row_is_identity(1) && t.row_is_identity(3));
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
