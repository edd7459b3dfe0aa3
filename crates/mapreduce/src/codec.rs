//! Wire format for worker-to-worker and checkpoint payloads.
//!
//! Messages cross the (simulated) network as opaque byte buffers, exactly as
//! they would over MPI: agents are *serialized* out of the sending worker's
//! memory and *deserialized* into the receiver's. This keeps the
//! shared-nothing claim honest — a worker cannot observe another worker's
//! agents except through these buffers — and gives the network counters
//! ([`net::record`](crate::net::record)) true byte counts.
//!
//! The format is a straightforward little-endian layout (no self-description;
//! both ends share the schema). Checkpoints reuse the same primitives.
//!
//! Every byte a peer or a file hands this crate is read through one
//! [`Reader`]: the decoders here, in [`manifest`](crate::manifest) and in
//! [`checkpoint`](crate::checkpoint) index nothing and check no length
//! themselves. A read past the end is `None`, a count is proven against
//! the bytes left before anything is sized from it, and bytes left over
//! are malformed — so bad bytes are an `Err`, never a panic or an abort.

use brace_common::{AgentId, BraceError, DetRng, FieldId, Result, Vec2};
use brace_core::{Agent, AgentPool, EffectWrite};
use bytes::{BufMut, Bytes, BytesMut};

/// A bounded little-endian cursor over bytes this process did not write.
/// Each read returns `None`, and consumes nothing, if the bytes left are
/// too few.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::at(bytes, 0)
    }

    /// A reader that resumes `pos` bytes into `bytes`, where an earlier
    /// reader's [`Reader::pos`] left off.
    pub fn at(bytes: &'a [u8], pos: usize) -> Self {
        Reader { bytes, pos }
    }

    /// Read all of `bytes` with `read`: `None` if it fails or leaves bytes
    /// unread.
    pub fn read_all<T>(bytes: &'a [u8], read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let mut r = Self::new(bytes);
        let value = read(&mut r)?;
        r.finish().map(|()| value)
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// `Some` only if every byte has been read: trailing bytes are malformed.
    pub fn finish(self) -> Option<()> {
        self.rest().is_empty().then_some(())
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let head = *self.rest().first_chunk::<N>()?;
        self.pos += N;
        Some(head)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take().map(u8::from_le_bytes)
    }

    pub fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Option<f64> {
        self.take().map(f64::from_le_bytes)
    }

    /// A byte that is 0 or 1: any other value is malformed, so each value
    /// has exactly one encoding.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Option<&'a [u8]> {
        let head = self.rest().get(..len)?;
        self.pos += len;
        Some(head)
    }

    /// A `u32` count of records at least `record_bytes` long, returned only
    /// if that many fit in the bytes left — so a caller may size a `Vec`
    /// from it.
    pub fn count(&mut self, record_bytes: usize) -> Option<usize> {
        let n = self.u32()?;
        let fits = u64::from(n).checked_mul(record_bytes as u64)? <= self.rest().len() as u64;
        fits.then_some(n as usize)
    }

    /// A [`Reader::count`], then that many records through `read`.
    pub fn records<T>(&mut self, record_bytes: usize, mut read: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.count(record_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Some(out)
    }
}

/// Wire size of an agent with no state or effect fields: id, position,
/// liveness and the two field counts.
const AGENT_MIN_BYTES: usize = 8 + 16 + 1 + 2 + 2;

/// Append one agent to `buf`.
pub fn put_agent(buf: &mut BytesMut, a: &Agent) {
    buf.put_u64_le(a.id.raw());
    buf.put_f64_le(a.pos.x);
    buf.put_f64_le(a.pos.y);
    buf.put_u8(a.alive as u8);
    buf.put_u16_le(a.state.len() as u16);
    for &s in &a.state {
        buf.put_f64_le(s);
    }
    buf.put_u16_le(a.effects.len() as u16);
    for &e in &a.effects {
        buf.put_f64_le(e);
    }
}

/// Decode one agent, or `None` if the bytes end inside the record. A field
/// list grows only as its values are read, so a lying `u16` count
/// allocates nothing past the bytes there are.
pub fn get_agent(r: &mut Reader) -> Option<Agent> {
    let (id, pos, alive) = (AgentId::new(r.u64()?), Vec2::new(r.f64()?, r.f64()?), r.bool()?);
    let mut fields = || (0..r.u16()?).map(|_| r.f64()).collect::<Option<Vec<f64>>>();
    let (state, effects) = (fields()?, fields()?);
    Some(Agent { id, pos, state, effects, alive })
}

/// Encoded size of one agent in bytes (for pre-reservation and analysis).
pub fn agent_wire_size(a: &Agent) -> usize {
    AGENT_MIN_BYTES + 8 * (a.state.len() + a.effects.len())
}

/// Serialize a batch of agents.
pub fn encode_agents<'a>(agents: impl IntoIterator<Item = &'a Agent>) -> Bytes {
    let agents: Vec<&Agent> = agents.into_iter().collect();
    let mut buf = BytesMut::with_capacity(4 + agents.iter().map(|a| agent_wire_size(a)).sum::<usize>());
    buf.put_u32_le(agents.len() as u32);
    for a in agents {
        put_agent(&mut buf, a);
    }
    buf.freeze()
}

/// Deserialize a batch of agents. The bytes come from a peer, so they must be
/// exactly a count and that many records: a record that runs past the end,
/// or bytes left over, is an `Err`.
pub fn decode_agents(bytes: Bytes) -> Result<Vec<Agent>> {
    Reader::read_all(&bytes, |r| r.records(AGENT_MIN_BYTES, get_agent))
        .ok_or_else(|| BraceError::Unrecoverable("agent records: not a count and that many records".into()))
}

/// Append one agent to `buf` straight from a pool row — same wire format
/// as [`put_agent`], gathered from the columns with no intermediate
/// [`Agent`] record. This is the pool-resident worker's full-record ship
/// path (ownership transfers and replica-band entrants).
pub fn put_pool_row(buf: &mut BytesMut, pool: &AgentPool, row: u32) {
    buf.put_u64_le(pool.id(row).raw());
    let pos = pool.pos(row);
    buf.put_f64_le(pos.x);
    buf.put_f64_le(pos.y);
    buf.put_u8(pool.alive(row) as u8);
    let ns = pool.num_states();
    buf.put_u16_le(ns as u16);
    for f in 0..ns {
        buf.put_f64_le(pool.state(row, FieldId::new(f as u16)));
    }
    let ne = pool.effects().width();
    buf.put_u16_le(ne as u16);
    for f in 0..ne {
        buf.put_f64_le(pool.effects().get(row, FieldId::new(f as u16)));
    }
}

/// Wire size of one row of `pool`: every row of a pool has the schema's
/// fields, so every record [`put_pool_row`] writes from it is this long.
fn pool_row_wire_size(pool: &AgentPool) -> usize {
    AGENT_MIN_BYTES + 8 * (pool.num_states() + pool.effects().width())
}

/// Serialize a batch of pool rows as full agent records (wire-compatible
/// with [`encode_agents`] / [`decode_agents`]). Returns an empty buffer for
/// an empty row list so callers can skip recording it as traffic.
pub fn encode_pool_rows(pool: &AgentPool, rows: &[u32]) -> Bytes {
    if rows.is_empty() {
        return Bytes::new();
    }
    let mut buf = BytesMut::with_capacity(4 + rows.len() * pool_row_wire_size(pool));
    buf.put_u32_le(rows.len() as u32);
    for &r in rows {
        put_pool_row(&mut buf, pool, r);
    }
    buf.freeze()
}

/// Decode a batch produced by [`encode_pool_rows`] / [`encode_agents`],
/// tolerating the zero-length empty encoding.
pub fn decode_agents_opt(bytes: Bytes) -> Result<Vec<Agent>> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    decode_agents(bytes)
}

/// Field bit positions of a replica delta mask: bit 0 = x, bit 1 = y,
/// bit `2 + s` = state slot `s`. A `u32` mask bounds schemas at 30 state
/// fields — far above any model here; the worker asserts the bound.
pub const DELTA_MASK_X: u32 = 1;
pub const DELTA_MASK_Y: u32 = 1 << 1;

/// Maximum number of state fields a delta mask can address.
pub const DELTA_MAX_STATES: usize = 30;

/// Builder for one **replica delta frame** — the compact per-peer payload
/// for replicas that persist in the receiver's visible band across ticks.
/// Both ends maintain a slot registry per (sender, receiver) pair that
/// grows in full-record ship order and shrinks by identical swap-removals,
/// so replicas are addressed by dense `u32` slots instead of ids.
///
/// Wire layout (little-endian):
///
/// ```text
/// u32 n_removals           then n_removals × u32 slot
/// u32 n_updates            then per update:
///     u32 slot | u32 mask | popcount(mask) × f64   (field order: x, y, states)
/// ```
///
/// A frame with no removals or updates encodes to **zero bytes** —
/// a stationary boundary population costs nothing per tick.
#[derive(Debug, Default)]
pub struct ReplicaDeltaEnc {
    removals: Vec<u32>,
    updates: BytesMut,
    n_updates: u32,
}

impl ReplicaDeltaEnc {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh frame, reusing the buffers.
    pub fn clear(&mut self) {
        self.removals.clear();
        self.updates.clear();
        self.n_updates = 0;
    }

    /// Record the removal of `slot`. Order is significant: the receiver
    /// replays removals in frame order with swap-removal semantics, so the
    /// sender must emit them in the order it applied them to its own
    /// session (descending slot).
    pub fn push_removal(&mut self, slot: u32) {
        self.removals.push(slot);
    }

    /// Record a masked field update for `slot`, pulling the new values from
    /// pool row `row` in field order (x, y, then state slots).
    pub fn push_update(&mut self, slot: u32, mask: u32, pool: &AgentPool, row: u32) {
        debug_assert_ne!(mask, 0, "empty update shipped");
        self.updates.put_u32_le(slot);
        self.updates.put_u32_le(mask);
        let pos = pool.pos(row);
        if mask & DELTA_MASK_X != 0 {
            self.updates.put_f64_le(pos.x);
        }
        if mask & DELTA_MASK_Y != 0 {
            self.updates.put_f64_le(pos.y);
        }
        let mut bits = mask >> 2;
        let mut s = 0u16;
        while bits != 0 {
            if bits & 1 != 0 {
                self.updates.put_f64_le(pool.state(row, FieldId::new(s)));
            }
            bits >>= 1;
            s += 1;
        }
        self.n_updates += 1;
    }

    /// True if the frame carries no information (and will encode to zero
    /// bytes).
    pub fn is_trivial(&self) -> bool {
        self.removals.is_empty() && self.n_updates == 0
    }

    /// Assemble the frame.
    pub fn finish(&self) -> Bytes {
        if self.is_trivial() {
            return Bytes::new();
        }
        let mut buf = BytesMut::with_capacity(8 + self.removals.len() * 4 + self.updates.len());
        buf.put_u32_le(self.removals.len() as u32);
        for &s in &self.removals {
            buf.put_u32_le(s);
        }
        buf.put_u32_le(self.n_updates);
        buf.extend_from_slice(&self.updates);
        buf.freeze()
    }
}

/// A decoded replica delta frame. The header (removals) is
/// materialized; the updates stay undecoded in the frame, past `pos`, and
/// are drained through [`ReplicaDelta::next_update_into`] into a
/// caller-reused value buffer — the per-peer per-tick receive path
/// allocates nothing per update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaDelta {
    pub removals: Vec<u32>,
    n_updates: u32,
    frame: Bytes,
    pos: usize,
}

impl ReplicaDelta {
    /// Decode the next masked update: returns `(slot, mask)` and fills
    /// `values` (cleared first) with the changed field values in field
    /// order (x, y, states). `None` once the frame is drained. An update
    /// that runs past the frame, or bytes left after the last one, is an
    /// `Err`; whether the slot and the mask's fields exist is the
    /// receiver's to check.
    pub fn next_update_into(&mut self, values: &mut Vec<f64>) -> Result<Option<(u32, u32)>> {
        let malformed = |what: &str| BraceError::Unrecoverable(format!("replica delta: {what}"));
        let mut r = Reader::at(&self.frame, self.pos);
        if self.n_updates == 0 {
            return r.finish().map(|()| None).ok_or_else(|| malformed("bytes past the last update"));
        }
        values.clear();
        let mut update = || {
            let (slot, mask) = (r.u32()?, r.u32()?);
            for _ in 0..mask.count_ones() {
                values.push(r.f64()?);
            }
            Some((slot, mask))
        };
        let update = update().ok_or_else(|| malformed("truncated update"))?;
        self.n_updates -= 1;
        self.pos = r.pos();
        Ok(Some(update))
    }
}

/// Decode a frame produced by [`ReplicaDeltaEnc::finish`]. Zero-length
/// input is the trivial frame. The removals and the update count must fit
/// in the bytes (an update takes at least 8); the updates are checked as
/// they are drained.
pub fn decode_replica_delta(bytes: Bytes) -> Result<ReplicaDelta> {
    if bytes.is_empty() {
        return Ok(ReplicaDelta::default());
    }
    let mut r = Reader::new(&bytes);
    let (removals, n_updates) = (|| Some((r.records(4, Reader::u32)?, r.count(8)? as u32)))()
        .ok_or_else(|| BraceError::Unrecoverable("replica delta: truncated frame".into()))?;
    let pos = r.pos();
    Ok(ReplicaDelta { removals, n_updates, frame: bytes, pos })
}

/// Wire size of one [`EffectWrite`]: target id, source id, field, value.
const EFFECT_WRITE_BYTES: usize = 8 + 8 + 2 + 8;

/// Serialize non-local effect writes — the payload of the second reduce
/// pass: `u32 count`, then per write `u64 target | u64 source | u16 field |
/// f64 value`, in the order given, which is the order the receiver folds
/// them in. An empty list encodes to **zero bytes**.
pub fn encode_effect_writes(writes: &[EffectWrite]) -> Bytes {
    if writes.is_empty() {
        return Bytes::new();
    }
    let mut buf = BytesMut::with_capacity(4 + writes.len() * EFFECT_WRITE_BYTES);
    buf.put_u32_le(writes.len() as u32);
    for w in writes {
        buf.put_u64_le(w.target.raw());
        buf.put_u64_le(w.source.raw());
        buf.put_u16_le(w.field.raw());
        buf.put_f64_le(w.v);
    }
    buf.freeze()
}

/// Decode a payload produced by [`encode_effect_writes`]; see
/// [`peer_records`]. Whether the targets and fields exist is the
/// receiver's to check.
pub fn decode_effect_writes(bytes: Bytes) -> Result<Vec<EffectWrite>> {
    peer_records(&bytes, EFFECT_WRITE_BYTES, "effect writes", read_effect_write)
}

/// [`decode_effect_writes`] straight onto the end of `out`, each write
/// through `place` (the receiver's check of its target and field). The
/// first error — the payload's, worded as [`decode_effect_writes`] words
/// it, which is found before any write is placed, or `place`'s — leaves
/// `out` as it was.
pub fn decode_effect_writes_into<T>(
    bytes: &[u8],
    out: &mut Vec<T>,
    mut place: impl FnMut(EffectWrite) -> std::result::Result<T, String>,
) -> std::result::Result<(), String> {
    let mut r = Reader::new(bytes);
    let n = match bytes.is_empty() {
        true => 0,
        false => r
            .count(EFFECT_WRITE_BYTES)
            .filter(|&n| r.rest().len() == n * EFFECT_WRITE_BYTES)
            .ok_or_else(|| malformed("effect writes", EFFECT_WRITE_BYTES).to_string())?,
    };
    let start = out.len();
    out.reserve(n);
    for _ in 0..n {
        match place(read_effect_write(&mut r).expect("a record the count was checked against")) {
            Ok(placed) => out.push(placed),
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    Ok(())
}

fn read_effect_write(r: &mut Reader) -> Option<EffectWrite> {
    let (target, source) = (AgentId::new(r.u64()?), AgentId::new(r.u64()?));
    Some(EffectWrite { target, source, field: FieldId::new(r.u16()?), v: r.f64()? })
}

/// Serialize per-parent spawn-count runs — the payload of the spawn
/// sequencing round. `runs` must be ascending by parent id (the worker's
/// pending spawns sorted by parent; parents are globally unique, so the
/// receiver merges every peer's runs into one total order). An empty run
/// list encodes to **zero bytes** — non-spawning ticks cost nothing.
pub fn encode_spawn_runs(runs: &[(AgentId, u32)]) -> Bytes {
    if runs.is_empty() {
        return Bytes::new();
    }
    let mut buf = BytesMut::with_capacity(4 + runs.len() * 12);
    buf.put_u32_le(runs.len() as u32);
    for &(parent, count) in runs {
        buf.put_u64_le(parent.raw());
        buf.put_u32_le(count);
    }
    buf.freeze()
}

/// Decode a payload produced by [`encode_spawn_runs`]; see
/// [`peer_records`].
pub fn decode_spawn_runs(bytes: Bytes) -> Result<Vec<(AgentId, u32)>> {
    peer_records(&bytes, 12, "spawn runs", |r| Some((AgentId::new(r.u64()?), r.u32()?)))
}

/// A peer payload of zero bytes (no records), or of a count and exactly
/// that many `record_bytes`-byte records, each through `read`.
fn peer_records<T>(
    bytes: &[u8],
    record_bytes: usize,
    what: &str,
    read: impl FnMut(&mut Reader) -> Option<T>,
) -> Result<Vec<T>> {
    if bytes.is_empty() {
        return Ok(Vec::new());
    }
    Reader::read_all(bytes, |r| r.records(record_bytes, read)).ok_or_else(|| malformed(what, record_bytes))
}

/// The error of a peer payload that is not a count and that many records.
fn malformed(what: &str, record_bytes: usize) -> BraceError {
    BraceError::Unrecoverable(format!("{what}: not a count and that many {record_bytes}-byte records"))
}

/// A worker's checkpointable state: its simulation clock, its RNG (models
/// never consume it outside agent streams, but serialize it for
/// completeness) and its owned agents.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    pub tick: u64,
    pub next_spawn_id: u64,
    pub rng: DetRng,
    pub agents: Vec<Agent>,
}

/// Wire size of a worker snapshot's head: clock, spawn cursor, RNG and the
/// agent count.
const SNAPSHOT_HEAD_BYTES: usize = 8 + 8 + 16 + 4;

fn put_snapshot_head(buf: &mut BytesMut, tick: u64, next_spawn_id: u64, rng: &DetRng, agents: usize) {
    buf.put_u64_le(tick);
    buf.put_u64_le(next_spawn_id);
    let (state, counter) = rng.to_parts();
    buf.put_u64_le(state);
    buf.put_u64_le(counter);
    buf.put_u32_le(agents as u32);
}

/// Serialize a worker snapshot (checkpoint payload).
pub fn encode_snapshot(s: &WorkerSnapshot) -> Bytes {
    let size = SNAPSHOT_HEAD_BYTES + s.agents.iter().map(agent_wire_size).sum::<usize>();
    let mut buf = BytesMut::with_capacity(size);
    put_snapshot_head(&mut buf, s.tick, s.next_spawn_id, &s.rng, s.agents.len());
    for a in &s.agents {
        put_agent(&mut buf, a);
    }
    buf.freeze()
}

/// Serialize a worker snapshot straight from a pool: its clock, spawn
/// cursor and RNG, then rows `0..n_owned` — a worker's owned prefix; the
/// replica tail past it belongs to other workers. Wire-identical to
/// [`encode_snapshot`] over those rows' records, but gathered from the
/// columns by [`put_pool_row`] into one buffer of exactly its size, with
/// no intermediate [`Agent`]: the checkpoint and collect path's one copy
/// of a worker's agents.
pub fn encode_pool_snapshot(tick: u64, next_spawn_id: u64, rng: &DetRng, pool: &AgentPool, n_owned: usize) -> Bytes {
    assert!(n_owned <= pool.len(), "owned prefix of {n_owned} rows past a pool of {}", pool.len());
    let mut buf = BytesMut::with_capacity(SNAPSHOT_HEAD_BYTES + n_owned * pool_row_wire_size(pool));
    put_snapshot_head(&mut buf, tick, next_spawn_id, rng, n_owned);
    for r in 0..n_owned as u32 {
        put_pool_row(&mut buf, pool, r);
    }
    debug_assert_eq!(buf.len(), buf.capacity(), "a snapshot buffer is sized exactly");
    buf.freeze()
}

/// Deserialize a worker snapshot. Snapshots are checkpoint payloads, and a
/// checkpoint file may be damaged or forged, so bytes that are not exactly
/// one snapshot are an `Err`.
pub fn decode_snapshot(bytes: Bytes) -> Result<WorkerSnapshot> {
    Reader::read_all(&bytes, |r| {
        let (tick, next_spawn_id, rng) = (r.u64()?, r.u64()?, DetRng::from_parts(r.u64()?, r.u64()?));
        Some(WorkerSnapshot { tick, next_spawn_id, rng, agents: r.records(AGENT_MIN_BYTES, get_agent)? })
    })
    .ok_or_else(|| BraceError::Checkpoint("not a worker snapshot".into()))
}

/// Check that `bytes` are exactly one worker snapshot — `Ok` exactly where
/// [`decode_snapshot`] is — without decoding it: the same head, count and
/// record-length checks, walking each agent record's fields by their counts
/// and allocating nothing. A checkpoint file is verified this way when it
/// is loaded; its payloads are decoded once, by the workers they restore.
pub fn validate_snapshot(bytes: &[u8]) -> Result<()> {
    Reader::read_all(bytes, |r| {
        // Clock, spawn cursor and RNG, then the agent count.
        r.bytes(SNAPSHOT_HEAD_BYTES - 4)?;
        for _ in 0..r.count(AGENT_MIN_BYTES)? {
            skip_agent(r)?;
        }
        Some(())
    })
    .ok_or_else(|| BraceError::Checkpoint("not a worker snapshot".into()))
}

/// Read past one agent record: `Some` exactly where [`get_agent`] is.
fn skip_agent(r: &mut Reader) -> Option<()> {
    // Id and position, then a strict liveness byte.
    r.bytes(8 + 16)?;
    r.bool()?;
    // The state fields, then the effect fields: a count, then that many f64s.
    for _ in 0..2 {
        let n = r.u16()?;
        r.bytes(8 * n as usize)?;
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_core::{AgentSchema, Combinator};

    fn schema() -> AgentSchema {
        AgentSchema::builder("T").state("v").effect("e", Combinator::Sum).build().unwrap()
    }

    fn agent(id: u64) -> Agent {
        let s = schema();
        let mut a = Agent::new(AgentId::new(id), Vec2::new(id as f64, -1.5), &s);
        a.state[0] = id as f64 * 0.25;
        a.effects[0] = 7.5;
        a
    }

    #[test]
    fn agent_round_trip() {
        let a = agent(42);
        let mut buf = BytesMut::new();
        put_agent(&mut buf, &a);
        assert_eq!(buf.len(), agent_wire_size(&a));
        assert_eq!(Reader::read_all(&buf, get_agent), Some(a));
    }

    #[test]
    fn reader_reads_only_what_is_there() {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_f64_le(-1.5);
        let mut r = Reader::new(&buf);
        assert_eq!(
            (r.bool(), r.u16(), r.u32(), r.u64(), r.f64()),
            (Some(true), Some(300), Some(70_000), Some(1 << 40), Some(-1.5))
        );
        assert!(r.rest().is_empty() && r.u8().is_none() && r.bytes(1).is_none());
        assert_eq!(r.bytes(0), Some(&[][..]));
        // A short read consumes nothing; a bool is 0 or 1 and nothing else.
        let mut r = Reader::new(&[2, 0, 0]);
        assert_eq!((r.u32(), r.pos()), (None, 0));
        assert_eq!(r.bool(), None);
        assert_eq!((r.u16(), r.clone().finish()), (Some(0), Some(())));
        assert_eq!(Reader::read_all(&[0, 0], Reader::u8), None, "a trailing byte");
        // A count is returned only if that many records fit.
        let four: Vec<u8> = [2u32.to_le_bytes(), [0; 4], [0; 4]].concat();
        assert_eq!(Reader::new(&four).count(4), Some(2));
        assert_eq!(Reader::new(&four).count(5), None);
        assert_eq!(Reader::new(&u32::MAX.to_le_bytes()).count(usize::MAX), None, "count × size past u64");
        assert_eq!(Reader::at(&four, 99).u8(), None);
    }

    #[test]
    fn batch_round_trip() {
        let batch: Vec<Agent> = (0..10).map(agent).collect();
        let encoded = encode_agents(&batch);
        let decoded = decode_agents(encoded).unwrap();
        assert_eq!(batch, decoded);
    }

    #[test]
    fn empty_batch() {
        let encoded = encode_agents(&[]);
        assert_eq!(decode_agents(encoded).unwrap(), Vec::<Agent>::new());
    }

    #[test]
    fn pool_rows_encode_identically_to_agent_records() {
        let s = schema();
        let batch: Vec<Agent> = (0..6).map(agent).collect();
        let pool = AgentPool::from_agents(&s, &batch);
        let rows: Vec<u32> = [4u32, 0, 2].to_vec();
        let from_pool = encode_pool_rows(&pool, &rows);
        let picked: Vec<Agent> = rows.iter().map(|&r| batch[r as usize].clone()).collect();
        let from_records = encode_agents(&picked);
        assert_eq!(from_pool, from_records, "pool gather must be wire-identical");
        assert_eq!(decode_agents_opt(from_pool).unwrap(), picked);
        // Empty row list → zero bytes, decoded as empty.
        assert_eq!(encode_pool_rows(&pool, &[]), Bytes::new());
        assert!(decode_agents_opt(Bytes::new()).unwrap().is_empty());
    }

    #[test]
    fn replica_delta_round_trip() {
        let s = schema();
        let batch: Vec<Agent> = (0..3).map(agent).collect();
        let pool = AgentPool::from_agents(&s, &batch);
        let mut enc = ReplicaDeltaEnc::new();
        enc.push_removal(5);
        enc.push_removal(1);
        enc.push_update(0, DELTA_MASK_X | (1 << 2), &pool, 2); // x + state 0
        enc.push_update(3, DELTA_MASK_Y, &pool, 1);
        let mut frame = decode_replica_delta(enc.finish()).unwrap();
        assert_eq!(frame.removals, vec![5, 1]);
        assert_eq!(frame.n_updates, 2);
        let mut values = Vec::new();
        assert_eq!(frame.next_update_into(&mut values).unwrap(), Some((0, DELTA_MASK_X | (1 << 2))));
        assert_eq!(values, vec![2.0, 0.5]);
        assert_eq!(frame.next_update_into(&mut values).unwrap(), Some((3, DELTA_MASK_Y)));
        assert_eq!(values, vec![-1.5]);
        assert_eq!(frame.next_update_into(&mut values).unwrap(), None);
    }

    #[test]
    fn trivial_delta_frame_is_zero_bytes() {
        let mut enc = ReplicaDeltaEnc::new();
        assert!(enc.is_trivial());
        assert_eq!(enc.finish(), Bytes::new());
        assert_eq!(decode_replica_delta(Bytes::new()).unwrap(), ReplicaDelta::default());
        enc.push_removal(0);
        assert!(!enc.is_trivial());
        let frame = decode_replica_delta(enc.finish()).unwrap();
        assert!(frame.removals == [0] && frame.n_updates == 0);
        enc.clear();
        assert!(enc.is_trivial());
    }

    #[test]
    fn effect_writes_round_trip() {
        let write = |target: u64, source: u64, field: u16, v: f64| EffectWrite {
            target: AgentId::new(target),
            source: AgentId::new(source),
            field: FieldId::new(field),
            v,
        };
        let writes = vec![write(9, 1, 0, -0.5), write(4, 1, 1, f64::NEG_INFINITY), write(9, 7, 0, 1e-300)];
        let encoded = encode_effect_writes(&writes);
        assert_eq!(encoded.len(), 4 + writes.len() * EFFECT_WRITE_BYTES);
        assert_eq!(decode_effect_writes(encoded.clone()).unwrap(), writes);
        // Empty write list → zero bytes, decoded as empty.
        assert_eq!(encode_effect_writes(&[]), Bytes::new());
        assert!(decode_effect_writes(Bytes::new()).unwrap().is_empty());

        // Straight onto the end of a vector: what the decoder gives, placed;
        // an error, the payload's or the placement's, leaves it as it was.
        let mut out = vec![(0, write(1, 1, 1, 1.0))];
        decode_effect_writes_into(&encoded, &mut out, |w| Ok((w.target.raw(), w))).unwrap();
        assert_eq!(out[1..], writes.iter().map(|&w| (w.target.raw(), w)).collect::<Vec<_>>()[..]);
        decode_effect_writes_into(&[], &mut out, |w| Ok((0, w))).unwrap();
        let refuse_source_7 = |w: EffectWrite| if w.source.raw() == 7 { Err("seven".to_string()) } else { Ok((0, w)) };
        assert_eq!(decode_effect_writes_into(&encoded, &mut out, refuse_source_7), Err("seven".into()));
        let cut = &encoded[..encoded.len() - 1];
        let malformed = decode_effect_writes(Bytes::from(cut.to_vec())).unwrap_err().to_string();
        assert_eq!(decode_effect_writes_into(cut, &mut out, |w| Ok((0, w))), Err(malformed));
        assert_eq!(out.len(), 1 + writes.len());
    }

    #[test]
    fn spawn_runs_round_trip() {
        let runs = vec![(AgentId::new(3), 2u32), (AgentId::new(17), 1), (AgentId::new(40), 3)];
        let encoded = encode_spawn_runs(&runs);
        assert_eq!(decode_spawn_runs(encoded).unwrap(), runs);
        // Empty run list → zero bytes, decoded as empty.
        assert_eq!(encode_spawn_runs(&[]), Bytes::new());
        assert!(decode_spawn_runs(Bytes::new()).unwrap().is_empty());
    }

    #[test]
    fn hostile_peer_payloads_are_an_error_not_a_panic() {
        let runs = encode_spawn_runs(&[(AgentId::new(3), 2), (AgentId::new(17), 1)]);
        assert!(decode_spawn_runs(runs.slice(0..runs.len() - 1)).is_err(), "truncated");
        assert!(decode_spawn_runs(runs.slice(0..3)).is_err(), "no whole count");
        let mut long = BytesMut::new();
        long.extend_from_slice(&runs);
        long.put_u8(0);
        assert!(decode_spawn_runs(long.freeze()).is_err(), "trailing bytes");
        // A count of u32::MAX records over an empty body.
        let mut forged = BytesMut::new();
        forged.put_u32_le(u32::MAX);
        assert!(decode_spawn_runs(forged.clone().freeze()).is_err());
        assert!(decode_effect_writes(forged.clone().freeze()).is_err());
        assert!(decode_agents(forged.clone().freeze()).is_err());
        assert!(decode_replica_delta(forged.freeze()).is_err(), "u32::MAX removals");

        let agents = encode_agents(&[agent(1), agent(2)]);
        assert!(decode_agents_opt(agents.slice(0..agents.len() - 1)).is_err(), "truncated");
        assert!(decode_agents(agents.slice(0..2)).is_err(), "no whole count");
        let mut long = agents.to_vec();
        long.push(0);
        assert!(decode_agents(long.into()).is_err(), "trailing bytes");
        let mut inflated = agents.to_vec();
        inflated[4 + 8 + 16 + 1..][..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_agents(inflated.into()).is_err(), "more state fields than bytes");

        let pool = AgentPool::from_agents(&schema(), &[agent(0)]);
        let mut enc = ReplicaDeltaEnc::new();
        enc.push_removal(4);
        enc.push_update(0, DELTA_MASK_X | DELTA_MASK_Y, &pool, 0);
        let frame = enc.finish();
        let mut values = Vec::new();
        let mut drained = |bytes: Bytes| -> Result<usize> {
            let mut delta = decode_replica_delta(bytes)?;
            std::iter::from_fn(|| delta.next_update_into(&mut values).transpose())
                .collect::<Result<Vec<_>>>()
                .map(|u| u.len())
        };
        assert_eq!(drained(frame.clone()).unwrap(), 1);
        assert!(drained(frame.slice(0..frame.len() - 1)).is_err(), "truncated value");
        assert!(drained(frame.slice(0..6)).is_err(), "truncated removals");
        let mut long = frame.to_vec();
        long.push(0);
        assert!(drained(long.into()).is_err(), "trailing bytes");
        let mut more = frame.to_vec();
        more[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert!(drained(more.into()).is_err(), "two updates announced, one sent");
        let mut wide = frame.to_vec();
        wide[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(drained(wide.into()).is_err(), "a mask of 32 fields over two values");
    }

    #[test]
    fn snapshot_round_trip_preserves_rng_position() {
        let mut rng = DetRng::seed_from_u64(5);
        rng.next_raw();
        rng.next_raw();
        let snap =
            WorkerSnapshot { tick: 99, next_spawn_id: 1234, rng: rng.clone(), agents: (0..3).map(agent).collect() };
        let restored = decode_snapshot(encode_snapshot(&snap)).unwrap();
        assert_eq!(snap, restored);
        // RNG continues identically after restore.
        let mut a = snap.rng.clone();
        let mut b = restored.rng.clone();
        assert_eq!(a.next_raw(), b.next_raw());
    }

    #[test]
    fn pool_snapshot_is_the_owned_prefix_encoded_as_records() {
        let s = schema();
        let owned: Vec<Agent> = (0..4).map(agent).collect();
        let mut pool = AgentPool::from_agents(&s, &owned);
        pool.push_agent(&agent(99)); // a replica in the tail
        let rng = DetRng::seed_from_u64(3);
        let snap = WorkerSnapshot { tick: 7, next_spawn_id: 100, rng: rng.clone(), agents: owned };
        assert_eq!(encode_pool_snapshot(7, 100, &rng, &pool, 4), encode_snapshot(&snap));
        let empty = WorkerSnapshot { agents: Vec::new(), ..snap };
        assert_eq!(encode_pool_snapshot(7, 100, &rng, &pool, 0), encode_snapshot(&empty));
    }

    #[test]
    fn hostile_snapshot_bytes_are_an_error_not_an_abort() {
        // Clock, spawn cursor and RNG all zero, then u32::MAX agents and
        // nothing after them.
        let mut forged = BytesMut::new();
        forged.extend_from_slice(&[0; 32]);
        forged.put_u32_le(u32::MAX);
        assert!(decode_snapshot(forged.freeze()).is_err());
        let snap = WorkerSnapshot {
            tick: 3,
            next_spawn_id: 9,
            rng: DetRng::seed_from_u64(1),
            agents: vec![agent(4), agent(5)],
        };
        let valid = encode_snapshot(&snap);
        assert!(decode_snapshot(valid.slice(0..valid.len() - 1)).is_err(), "truncated");
        let mut long = BytesMut::new();
        long.extend_from_slice(&valid);
        long.put_u8(0);
        assert!(decode_snapshot(long.freeze()).is_err(), "trailing bytes");
        // An agent claiming more state fields than the payload holds.
        let mut inflated = valid.to_vec();
        inflated[36 + 8 + 16 + 1..][..2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_snapshot(inflated.into()).is_err());
    }

    #[test]
    fn dead_agent_round_trip() {
        let s = schema();
        let mut a = Agent::new(AgentId::new(1), Vec2::ZERO, &s);
        a.alive = false;
        let decoded = decode_agents(encode_agents(&[a.clone()])).unwrap();
        assert!(!decoded[0].alive);
    }
}
