//! Wire format for worker-to-worker and checkpoint payloads.
//!
//! Messages cross the (simulated) network as opaque byte buffers, exactly as
//! they would over MPI: agents are *serialized* out of the sending worker's
//! memory and *deserialized* into the receiver's. This keeps the
//! shared-nothing claim honest — a worker cannot observe another worker's
//! agents except through these buffers — and gives the
//! [`NetLedger`](crate::net::NetLedger) true byte counts.
//!
//! The format is a straightforward little-endian layout (no self-description;
//! both ends share the schema). Checkpoints reuse the same primitives.

use brace_common::{AgentId, BraceError, DetRng, FieldId, Result, Vec2};
use brace_core::{Agent, AgentPool, EffectWrite};
use bytes::{Buf, BufMut, Bytes, BytesMut};

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

/// Decode one agent from `buf`, or `None` if `buf` ends inside the record:
/// each field count is checked against the bytes left before anything is
/// read or allocated for it.
pub fn get_agent(buf: &mut impl Buf) -> Option<Agent> {
    if buf.remaining() < 8 + 16 + 1 + 2 {
        return None;
    }
    let id = AgentId::new(buf.get_u64_le());
    let pos = Vec2::new(buf.get_f64_le(), buf.get_f64_le());
    let alive = buf.get_u8() != 0;
    let state = get_f64s(buf)?;
    let effects = get_f64s(buf)?;
    Some(Agent { id, pos, state, effects, alive })
}

/// A `u16` count, then that many `f64`s; `None` if the bytes run out.
fn get_f64s(buf: &mut impl Buf) -> Option<Vec<f64>> {
    let n = (buf.remaining() >= 2).then(|| buf.get_u16_le() as usize)?;
    (buf.remaining() >= 8 * n).then(|| (0..n).map(|_| buf.get_f64_le()).collect())
}

/// Encoded size of one agent in bytes (for pre-reservation and analysis).
pub fn agent_wire_size(a: &Agent) -> usize {
    8 + 16 + 1 + 2 + 8 * a.state.len() + 2 + 8 * a.effects.len()
}

/// Serialize a batch of agents.
pub fn encode_agents<'a>(agents: impl IntoIterator<Item = &'a Agent>) -> Bytes {
    let mut buf = BytesMut::new();
    let mut count = 0u32;
    let mut body = BytesMut::new();
    for a in agents {
        put_agent(&mut body, a);
        count += 1;
    }
    buf.put_u32_le(count);
    buf.extend_from_slice(&body);
    buf.freeze()
}

/// Deserialize a batch of agents. The bytes come from a peer, so they must be
/// exactly a count and that many records: a record that runs past the end,
/// or bytes left over, is an `Err`, and nothing is allocated from the count.
pub fn decode_agents(mut bytes: Bytes) -> Result<Vec<Agent>> {
    let malformed = || BraceError::Unrecoverable("agent records: not a count and that many records".into());
    let count = (bytes.remaining() >= 4).then(|| bytes.get_u32_le()).ok_or_else(malformed)?;
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(get_agent(&mut bytes).ok_or_else(malformed)?);
    }
    if bytes.has_remaining() {
        return Err(malformed());
    }
    Ok(out)
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

/// Serialize a batch of pool rows as full agent records (wire-compatible
/// with [`encode_agents`] / [`decode_agents`]). Returns an empty buffer for
/// an empty row list so callers can skip charging the ledger.
pub fn encode_pool_rows(pool: &AgentPool, rows: &[u32]) -> Bytes {
    if rows.is_empty() {
        return Bytes::new();
    }
    let mut buf = BytesMut::new();
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
/// materialized; the updates stay as an undecoded byte cursor drained
/// through [`ReplicaDelta::next_update_into`] into a caller-reused value
/// buffer — the per-peer per-tick receive path allocates nothing per
/// update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaDelta {
    pub removals: Vec<u32>,
    n_updates: u32,
    updates: Bytes,
}

impl ReplicaDelta {
    /// Masked updates carried by this frame (before any draining).
    pub fn updates_len(&self) -> u32 {
        self.n_updates
    }

    /// Decode the next masked update: returns `(slot, mask)` and fills
    /// `values` (cleared first) with the changed field values in field
    /// order (x, y, states). `None` once the frame is drained. An update
    /// that runs past the frame, or bytes left after the last one, is an
    /// `Err`; whether the slot and the mask's fields exist is the
    /// receiver's to check.
    pub fn next_update_into(&mut self, values: &mut Vec<f64>) -> Result<Option<(u32, u32)>> {
        let malformed = |what: &str| Err(BraceError::Unrecoverable(format!("replica delta: {what}")));
        if self.n_updates == 0 {
            return if self.updates.has_remaining() { malformed("bytes past the last update") } else { Ok(None) };
        }
        if self.updates.remaining() < 8 {
            return malformed("truncated update");
        }
        self.n_updates -= 1;
        let slot = self.updates.get_u32_le();
        let mask = self.updates.get_u32_le();
        let n = mask.count_ones() as usize;
        if self.updates.remaining() < 8 * n {
            return malformed("truncated update");
        }
        values.clear();
        values.extend((0..n).map(|_| self.updates.get_f64_le()));
        Ok(Some((slot, mask)))
    }
}

/// Decode a frame produced by [`ReplicaDeltaEnc::finish`]. Zero-length
/// input is the trivial frame. The removals and the update count must fit
/// in the bytes (an update takes at least 8), so nothing is allocated from
/// an unchecked count; the updates are checked as they are drained.
pub fn decode_replica_delta(mut bytes: Bytes) -> Result<ReplicaDelta> {
    if bytes.is_empty() {
        return Ok(ReplicaDelta::default());
    }
    let truncated = || BraceError::Unrecoverable("replica delta: truncated frame".into());
    let nr = (bytes.remaining() >= 4).then(|| bytes.get_u32_le() as u64).ok_or_else(truncated)?;
    if (nr + 1) * 4 > bytes.remaining() as u64 {
        return Err(truncated());
    }
    let removals = (0..nr).map(|_| bytes.get_u32_le()).collect();
    let n_updates = bytes.get_u32_le();
    if n_updates as u64 * 8 > bytes.remaining() as u64 {
        return Err(truncated());
    }
    Ok(ReplicaDelta { removals, n_updates, updates: bytes })
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
/// [`counted_records`]. Whether the targets and fields exist is the
/// receiver's to check.
pub fn decode_effect_writes(mut bytes: Bytes) -> Result<Vec<EffectWrite>> {
    counted_records(&mut bytes, EFFECT_WRITE_BYTES, "effect writes")?;
    let mut out = Vec::with_capacity(bytes.remaining() / EFFECT_WRITE_BYTES);
    while bytes.has_remaining() {
        let (target, source) = (AgentId::new(bytes.get_u64_le()), AgentId::new(bytes.get_u64_le()));
        out.push(EffectWrite { target, source, field: FieldId::new(bytes.get_u16_le()), v: bytes.get_f64_le() });
    }
    Ok(out)
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
/// [`counted_records`].
pub fn decode_spawn_runs(mut bytes: Bytes) -> Result<Vec<(AgentId, u32)>> {
    counted_records(&mut bytes, 12, "spawn runs")?;
    let mut out = Vec::with_capacity(bytes.remaining() / 12);
    while bytes.has_remaining() {
        out.push((AgentId::new(bytes.get_u64_le()), bytes.get_u32_le()));
    }
    Ok(out)
}

/// Check a peer payload of `u32 count` then `count` records of `record`
/// bytes (zero bytes: no records) and leave `bytes` at the first record.
/// The count must account for exactly the bytes after it, so no record runs
/// past the end or leaves bytes over; callers size output from the bytes.
fn counted_records(bytes: &mut Bytes, record: usize, what: &str) -> Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    let count = (bytes.remaining() >= 4).then(|| bytes.get_u32_le() as u64);
    if count.map(|count| count * record as u64) != Some(bytes.remaining() as u64) {
        return Err(BraceError::Unrecoverable(format!("{what}: not a count and that many {record}-byte records")));
    }
    Ok(())
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

/// Serialize a worker snapshot (checkpoint payload).
pub fn encode_snapshot(s: &WorkerSnapshot) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u64_le(s.tick);
    buf.put_u64_le(s.next_spawn_id);
    let (state, counter) = s.rng.to_parts();
    buf.put_u64_le(state);
    buf.put_u64_le(counter);
    buf.put_u32_le(s.agents.len() as u32);
    for a in &s.agents {
        put_agent(&mut buf, a);
    }
    buf.freeze()
}

/// Deserialize a worker snapshot. Snapshots are checkpoint payloads, and a
/// checkpoint file may be damaged or forged, so every count and length is
/// checked against the bytes left before it is trusted, nothing is
/// allocated from a count, and bytes that are not exactly one snapshot are
/// an `Err`.
pub fn decode_snapshot(mut bytes: Bytes) -> Result<WorkerSnapshot> {
    let truncated = || BraceError::Checkpoint("truncated worker snapshot".into());
    if bytes.remaining() < 36 {
        return Err(truncated());
    }
    let tick = bytes.get_u64_le();
    let next_spawn_id = bytes.get_u64_le();
    let state = bytes.get_u64_le();
    let counter = bytes.get_u64_le();
    let rng = DetRng::from_parts(state, counter);
    let count = bytes.get_u32_le();
    let mut agents = Vec::new();
    for _ in 0..count {
        agents.push(get_agent(&mut bytes).ok_or_else(truncated)?);
    }
    if bytes.has_remaining() {
        return Err(BraceError::Checkpoint(format!("{} bytes past the worker snapshot", bytes.remaining())));
    }
    Ok(WorkerSnapshot { tick, next_spawn_id, rng, agents })
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
        let mut bytes = buf.freeze();
        let b = get_agent(&mut bytes).unwrap();
        assert_eq!(a, b);
        assert!(!bytes.has_remaining());
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
        assert_eq!(frame.updates_len(), 2);
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
        assert!(frame.removals == [0] && frame.updates_len() == 0);
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
        assert_eq!(decode_effect_writes(encoded).unwrap(), writes);
        // Empty write list → zero bytes, decoded as empty.
        assert_eq!(encode_effect_writes(&[]), Bytes::new());
        assert!(decode_effect_writes(Bytes::new()).unwrap().is_empty());
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
