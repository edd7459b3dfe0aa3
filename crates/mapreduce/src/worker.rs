//! A worker node of the simulated cluster — **pool-resident** state,
//! delta-based communication.
//!
//! Each worker is one OS thread owning one spatial partition (the paper
//! assigns "each grid cell to a separate slave node"). Per tick it runs the
//! collocated task chain of Figure 1: its **distribute** (map) ships
//! ownership transfers and band *entrants* as full records and replicas that
//! *persist* in a peer's band as columnar delta frames, then one
//! [`Superstep`] — the tick driver a single node runs too — runs the phases
//! over its owned rows and replica tail. The worker is the driver's
//! [`Partition`]: its seams ship replica writes to their owners and rank
//! spawns with its peers, applying kills and spawns through the pool's
//! stable-row mutation ops.
//!
//! # The persistent pool
//!
//! This is the paper's main-memory argument made structural: worker state
//! is **resident across ticks**. The [`AgentPool`] holds the owned rows
//! first (`0..n_owned`, mutated only by swap-removal and insertion, with a
//! persistent id ↔ row map) followed by a persistent **replica tail**
//! updated in place by incoming delta frames. In the steady state a tick
//! performs *zero* pool rebuilds and *zero* full-population `Vec<Agent>`
//! round-trips (`WorkerEpochStats::{pool_rebuilds, vec_roundtrips}` pin
//! this in tests), no tick builds a spatial index (the query phase's probe
//! order is the index), and a stationary boundary population costs zero replica bytes per tick (empty
//! delta frames are never sent).
//!
//! `Vec<Agent>` materialization survives only at the real serialization
//! boundaries into the pool: restore and the initial population hand-off —
//! never inside a tick. Checkpoint and collect snapshots go the other way
//! with none: `codec::encode_pool_snapshot` writes the owned prefix
//! straight from the columns into one exactly sized buffer, the only copy
//! of a worker's agents a checkpoint makes. `vec_roundtrips` counts the
//! restores.
//!
//! # Replica sessions and registries
//!
//! For every destination the sender keeps a `ReplicaSession`: the set of
//! agents currently replicated there plus the last-shipped value of every
//! field, in columnar slots. Each tick it diffs the current band against
//! the session: entrants ship full, leavers ship removals, persisting
//! replicas ship a field mask with only the changed values (bit-compared,
//! so a stationary agent ships nothing). The receiver keeps a **registry**
//! per sender mapping slots to pool rows; both sides apply identical
//! swap-removal sequences, so slots stay in lockstep without ever shipping
//! ids for persisting replicas. A worker is its own destination too: an
//! agent transferred away that remains inside this worker's visible band
//! becomes a replica in its own tail through the same session machinery.
//! Sessions are the one replica transport: nothing ever re-ships a
//! persisting replica as a full record.
//!
//! All peer communication is serialized bytes over one channel per ordered
//! worker pair, each message counted by [`net::record`] into the run's
//! registry, the worker thread's scope for its life. A link carries its
//! sender's rounds in tick order, so a round is one `recv` per peer, in
//! sender order. The worker speaks to the master only between epochs.
//!
//! # Failure
//!
//! An epoch that cannot finish — a peer payload that does not decode or
//! apply, a send or receive on a closed link, a panic in the behaviour —
//! takes one path: the worker reports [`Report::Failed`] and stops. The
//! links it drops fail every peer that waits on them, so a failure ends the
//! epoch on every worker and never blocks one.

use crate::codec::{self, ReplicaDeltaEnc, WorkerSnapshot, DELTA_MASK_X, DELTA_MASK_Y};
use crate::net::{self, Traffic};
use crate::runtime::{Command, EpochCommand, PeerMsg, Report, WorkerEpochStats};
use brace_common::{panic_message, AgentId, DetRng, FieldId, WorkerId};
use brace_core::{Agent, AgentPool, Behavior, EffectWrite, Partition, PendingSpawn, Superstep, TickMetrics};
use brace_spatial::{GridPartitioning, IndexKind};
use brace_telemetry::Metrics;
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Bins in the per-worker x-position histogram reported to the master.
pub const HIST_BINS: usize = 64;

/// `row_meta` sentinel for owned rows (no replica source/slot).
const NO_META: (u32, u32) = (u32::MAX, u32::MAX);

/// Static configuration for one worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    pub id: WorkerId,
    pub num_workers: usize,
    pub index: IndexKind,
    /// Master seed; agent RNG streams derive from it exactly as on a single
    /// node, so placement does not perturb the simulation.
    pub seed: u64,
    /// Intra-worker thread budget for the query/update phases (`1` =
    /// serial, `0` = all cores), held as `budget − 1` parked helper threads
    /// for the worker's life (none at 1). Multiplies with the worker count,
    /// so clusters saturating the machine with workers should leave it at
    /// one. Never affects results (the executor's shard plan is thread-count
    /// independent).
    pub parallelism: usize,
}

/// Communication endpoints for one worker.
pub struct WorkerLinks {
    /// One link per ordered worker pair: `peers[j]` sends to worker `j`,
    /// `inboxes[j]` receives from it. A worker's own entries are unused.
    pub peers: Vec<Sender<PeerMsg>>,
    pub inboxes: Vec<Receiver<PeerMsg>>,
    pub commands: Receiver<Command>,
    pub reports: Sender<Report>,
    /// The run's telemetry registry: this worker thread's scope.
    pub metrics: Arc<Metrics>,
}

/// Sender-side replica state for one destination: which agents are
/// currently replicated there (dense slots, id-indexed) and the
/// last-shipped value of every field, stored columnar for the bitwise
/// delta compare. See the module docs for the slot-lockstep protocol.
struct ReplicaSession {
    ids: Vec<AgentId>,
    id_to_slot: HashMap<AgentId, u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// One column per state field, slot-indexed.
    states: Vec<Vec<f64>>,
    // Per-tick scratch.
    seen: Vec<bool>,
    entrants: Vec<u32>,
    enc: ReplicaDeltaEnc,
}

impl ReplicaSession {
    fn new(num_states: usize) -> Self {
        ReplicaSession {
            ids: Vec::new(),
            id_to_slot: HashMap::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            states: vec![Vec::new(); num_states],
            seen: Vec::new(),
            entrants: Vec::new(),
            enc: ReplicaDeltaEnc::new(),
        }
    }

    /// Forget everything (restore path; receivers drop their registries in
    /// the same stroke, so no reset needs to cross the network).
    fn reset(&mut self) {
        self.ids.clear();
        self.id_to_slot.clear();
        self.xs.clear();
        self.ys.clear();
        for col in &mut self.states {
            col.clear();
        }
    }

    fn store(&mut self, slot: usize, pool: &AgentPool, row: u32) {
        let pos = pool.pos(row);
        self.xs[slot] = pos.x;
        self.ys[slot] = pos.y;
        for (f, col) in self.states.iter_mut().enumerate() {
            col[slot] = pool.state(row, FieldId::new(f as u16));
        }
    }

    fn append(&mut self, pool: &AgentPool, row: u32) {
        let slot = self.ids.len();
        self.ids.push(pool.id(row));
        self.id_to_slot.insert(pool.id(row), slot as u32);
        let pos = pool.pos(row);
        self.xs.push(pos.x);
        self.ys.push(pos.y);
        for (f, col) in self.states.iter_mut().enumerate() {
            col.push(pool.state(row, FieldId::new(f as u16)));
        }
    }

    /// Swap-remove `slot`, exactly mirroring the receiver's registry op.
    fn swap_remove_slot(&mut self, slot: usize) {
        self.id_to_slot.remove(&self.ids[slot]);
        self.ids.swap_remove(slot);
        self.xs.swap_remove(slot);
        self.ys.swap_remove(slot);
        for col in &mut self.states {
            col.swap_remove(slot);
        }
        self.seen.swap_remove(slot);
        if slot < self.ids.len() {
            self.id_to_slot.insert(self.ids[slot], slot as u32);
        }
    }

    /// Bit-compare pool row `row` against the last-shipped values in
    /// `slot`: a set bit means the field changed and must ship.
    fn delta_mask(&self, pool: &AgentPool, row: u32, slot: usize) -> u32 {
        let pos = pool.pos(row);
        let mut mask = 0u32;
        if pos.x.to_bits() != self.xs[slot].to_bits() {
            mask |= DELTA_MASK_X;
        }
        if pos.y.to_bits() != self.ys[slot].to_bits() {
            mask |= DELTA_MASK_Y;
        }
        for (f, col) in self.states.iter().enumerate() {
            if pool.state(row, FieldId::new(f as u16)).to_bits() != col[slot].to_bits() {
                mask |= 1 << (2 + f);
            }
        }
        mask
    }

    /// Diff the current tick's replica band `rows` against the session and
    /// encode this tick's payloads: `(full records for entrants, delta
    /// frame for removals + changed persisting replicas)`. Both are empty
    /// (`Bytes::new()`) when there is nothing to say.
    fn encode_tick(&mut self, pool: &AgentPool, rows: &[u32]) -> (Bytes, Bytes) {
        self.enc.clear();
        self.entrants.clear();
        self.seen.clear();
        self.seen.resize(self.ids.len(), false);
        for &r in rows {
            match self.id_to_slot.get(&pool.id(r)) {
                Some(&s) => self.seen[s as usize] = true,
                None => self.entrants.push(r),
            }
        }
        // Leavers, descending slot order: every slot above the current
        // one is already resolved, so the row swapped in is always a
        // kept one and the receiver can replay the list verbatim.
        for slot in (0..self.ids.len()).rev() {
            if !self.seen[slot] {
                self.enc.push_removal(slot as u32);
                self.swap_remove_slot(slot);
            }
        }
        // Persisting replicas: masked updates for changed fields only.
        for &r in rows {
            if let Some(&slot) = self.id_to_slot.get(&pool.id(r)) {
                let mask = self.delta_mask(pool, r, slot as usize);
                if mask != 0 {
                    self.enc.push_update(slot, mask, pool, r);
                    self.store(slot as usize, pool, r);
                }
            }
        }
        let fulls = codec::encode_pool_rows(pool, &self.entrants);
        let entrants = std::mem::take(&mut self.entrants);
        for &r in &entrants {
            self.append(pool, r);
        }
        self.entrants = entrants;
        (fulls, self.enc.finish())
    }
}

/// Apply one masked field update to pool row `row` (field order: x, y, then
/// state slots; `values` holds one value per set bit).
fn apply_update(pool: &mut AgentPool, row: u32, mask: u32, values: &[f64]) {
    let mut vi = 0;
    let mut pos = pool.pos(row);
    if mask & DELTA_MASK_X != 0 {
        pos.x = values[vi];
        vi += 1;
    }
    if mask & DELTA_MASK_Y != 0 {
        pos.y = values[vi];
        vi += 1;
    }
    pool.set_pos(row, pos);
    let mut bits = mask >> 2;
    let mut s = 0u16;
    while bits != 0 {
        if bits & 1 != 0 {
            pool.set_state(row, FieldId::new(s), values[vi]);
            vi += 1;
        }
        bits >>= 1;
        s += 1;
    }
    debug_assert_eq!(vi, values.len(), "mask/value shape mismatch");
}

/// Every worker index of `0..n` but `me`, ascending: the peers of a round,
/// in the order their messages are read.
fn others(n: usize, me: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&j| j != me)
}

fn worker_id(j: usize) -> WorkerId {
    WorkerId::new(j as u32)
}

/// A message of another round on the link from worker `j`.
fn out_of_order(j: usize, expected: &str) -> String {
    format!("{} sent another round's message where its {expected} belong", worker_id(j))
}

/// One worker node. Owns its agents exclusively; everything in and out is
/// a message.
pub struct Worker {
    behavior: Arc<dyn Behavior>,
    cfg: WorkerConfig,
    links: WorkerLinks,
    part: GridPartitioning,
    /// The persistent columnar world: rows `0..n_owned` are this worker's
    /// agents, rows `n_owned..` the replica tail. Lives across ticks;
    /// rebuilt from row records only at restore (counted).
    pool: AgentPool,
    n_owned: usize,
    /// Persistent owner-side id ↔ row map, updated by every stable-row
    /// mutation; the effects round resolves the targets of shipped writes
    /// through it with no per-tick rebuild.
    id_to_row: HashMap<AgentId, u32>,
    /// Sender-side replica sessions, one per destination (self included:
    /// agents transferred away that stay visible here).
    sessions: Vec<ReplicaSession>,
    /// Receiver-side registries, one per source: slot → pool row.
    registries: Vec<Vec<u32>>,
    /// Reverse map, indexed by pool row: `(source, slot)` of the replica
    /// occupying that row, [`NO_META`] for owned rows. Row-indexed so
    /// every stable-row mutation updates it in O(1) — only the one row
    /// that physically moved needs its entry touched.
    row_meta: Vec<(u32, u32)>,
    /// The tick driver: the tick counter and the phases' buffers.
    superstep: Superstep,
    /// Next spawn id of the **global** cross-worker counter. Every worker
    /// advances it identically each tick (the spawn sequencing round ships
    /// per-parent counts), so spawn ids are a pure function of the world —
    /// `(parent id, ordinal)` order — and any worker's snapshot carries the
    /// authoritative cursor.
    next_id: u64,
    /// Worker-level RNG (reserved for runtime-level randomness; agent
    /// streams come from the seed directly). Checkpointed for completeness.
    rng: DetRng,
    /// Lifetime counters behind `WorkerEpochStats::{pool_rebuilds,
    /// vec_roundtrips}` — the tripwires pinning the pool-resident claim.
    pool_rebuilds: u64,
    vec_roundtrips: u64,
    // Reusable per-tick scratch.
    owners: Vec<u32>,
    dest_transfers: Vec<Vec<u32>>,
    dest_replicas: Vec<Vec<u32>>,
    /// The effect round's outgoing writes, by owner.
    dest_writes: Vec<Vec<EffectWrite>>,
    removals: Vec<u32>,
    /// The spawn round's per-parent counts: ours, then the peers'.
    spawn_runs: Vec<(AgentId, u32)>,
    delta_values: Vec<f64>,
}

impl Worker {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        behavior: Arc<dyn Behavior>,
        cfg: WorkerConfig,
        links: WorkerLinks,
        part: GridPartitioning,
        owned: Vec<Agent>,
        next_spawn_id: u64,
    ) -> Self {
        let schema = behavior.schema();
        // The facade (`ClusterSim::new`) rejects over-wide schemas with a
        // proper configuration error before any worker exists. For direct
        // embedders bypassing the facade this must stay a hard assert: a
        // 31st state field would wrap the delta mask's shift onto the
        // x-position bit and corrupt replicas silently.
        assert!(
            schema.num_states() <= codec::DELTA_MAX_STATES,
            "schema `{}` exceeds the delta mask's {} state fields",
            schema.name(),
            codec::DELTA_MAX_STATES
        );
        let pool = AgentPool::new(schema);
        let rng = DetRng::seed_from_u64(cfg.seed).stream(0x5EED_0000 + cfg.id.raw() as u64);
        let n = cfg.num_workers;
        let num_states = schema.num_states();
        let superstep = Superstep::new(cfg.index, cfg.seed, cfg.parallelism);
        let mut worker = Worker {
            behavior,
            cfg,
            links,
            part,
            pool,
            n_owned: 0,
            id_to_row: HashMap::new(),
            sessions: (0..n).map(|_| ReplicaSession::new(num_states)).collect(),
            registries: (0..n).map(|_| Vec::new()).collect(),
            row_meta: Vec::new(),
            superstep,
            next_id: next_spawn_id,
            rng,
            pool_rebuilds: 0,
            vec_roundtrips: 0,
            owners: Vec::new(),
            dest_transfers: (0..n).map(|_| Vec::new()).collect(),
            dest_replicas: (0..n).map(|_| Vec::new()).collect(),
            dest_writes: (0..n).map(|_| Vec::new()).collect(),
            removals: Vec::new(),
            spawn_runs: Vec::new(),
            delta_values: Vec::new(),
        };
        worker.rebuild_pool(&owned);
        worker
    }

    fn me(&self) -> usize {
        self.cfg.id.index()
    }

    /// Rebuild the resident pool from row records — the serialization
    /// boundary in (construction, restore). Drops the replica tail and
    /// every session/registry; peers do the same in the same stroke
    /// (coordinated restore), so the next tick re-ships bands as entrants.
    fn rebuild_pool(&mut self, owned: &[Agent]) {
        self.pool.clear();
        self.pool.extend_from_agents(owned);
        self.n_owned = owned.len();
        self.id_to_row.clear();
        self.id_to_row.extend(owned.iter().enumerate().map(|(r, a)| (a.id, r as u32)));
        for s in &mut self.sessions {
            s.reset();
        }
        for r in &mut self.registries {
            r.clear();
        }
        self.row_meta.clear();
        self.row_meta.resize(owned.len(), NO_META);
        self.pool_rebuilds += 1;
    }

    /// Thread entry point: serve master commands until `Stop`, recording
    /// into the run's registry throughout. Every failure takes one path: the
    /// worker reports `Failed` and stops, dropping its links.
    pub fn run_loop(mut self) {
        let _scope = brace_telemetry::enter(&self.links.metrics);
        // A closed command channel means the master dropped: shut down.
        while let Ok(command) = self.links.commands.recv() {
            let reason = match command {
                Command::Stop => break,
                Command::Collect => {
                    let snapshot = self.snapshot();
                    net::record(Traffic::Control, snapshot.len());
                    let _ = self.links.reports.send(Report::Collected { worker: self.cfg.id, snapshot });
                    continue;
                }
                Command::Restore { snapshot, x_bounds } => match codec::decode_snapshot(snapshot) {
                    Ok(snap) => {
                        self.restore(snap, x_bounds);
                        continue;
                    }
                    Err(e) => format!("restore: {e}"),
                },
                Command::RunEpoch(cmd) => match panic::catch_unwind(AssertUnwindSafe(|| self.run_epoch(&cmd))) {
                    Ok(Ok((stats, snapshot))) => {
                        net::record(Traffic::Control, 64 + stats.x_hist.len() * 8);
                        let _ = self.links.reports.send(Report::EpochDone { worker: self.cfg.id, stats, snapshot });
                        continue;
                    }
                    Ok(Err(reason)) => reason,
                    Err(payload) => format!("panicked: {}", panic_message(payload.as_ref())),
                },
            };
            // No state worth continuing from.
            let _ = self.links.reports.send(Report::Failed { worker: self.cfg.id, reason });
            break;
        }
    }

    /// This worker's snapshot (checkpoint and collect payload), encoded
    /// straight from the owned prefix of the pool.
    fn snapshot(&self) -> Bytes {
        codec::encode_pool_snapshot(self.superstep.tick, self.next_id, &self.rng, &self.pool, self.n_owned)
    }

    fn restore(&mut self, snap: WorkerSnapshot, x_bounds: Vec<f64>) {
        // The one owned-population `Vec<Agent>` left: a restore decodes
        // the snapshot's records before it rebuilds the pool from them.
        // Counted, so epoch stats can prove ticks never materialize one.
        self.vec_roundtrips += 1;
        self.superstep.tick = snap.tick;
        self.next_id = snap.next_spawn_id;
        self.rng = snap.rng;
        self.part.set_x_bounds(x_bounds);
        self.rebuild_pool(&snap.agents);
    }

    /// Execute one epoch: optional repartition switch, then `cmd.ticks`
    /// ticks, then statistics (and a checkpoint snapshot if asked).
    fn run_epoch(&mut self, cmd: &EpochCommand) -> Result<(WorkerEpochStats, Option<Bytes>), String> {
        if let Some(bounds) = &cmd.new_x_bounds {
            self.part.set_x_bounds(bounds.clone());
        }
        let wall = Instant::now();
        let mut stats = WorkerEpochStats {
            comm_rounds_per_tick: if self.behavior.schema().has_nonlocal_effects() { 2 } else { 1 },
            x_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            ..Default::default()
        };
        let (rebuilds0, roundtrips0) = (self.pool_rebuilds, self.vec_roundtrips);
        for _ in 0..cmd.ticks {
            stats.agent_ticks += self.run_tick()?.n_agents as u64;
        }
        stats.pool_rebuilds = self.pool_rebuilds - rebuilds0;
        stats.vec_roundtrips = self.vec_roundtrips - roundtrips0;
        stats.wall_ns = wall.elapsed().as_nanos() as u64;
        stats.owned_agents = self.n_owned;
        // One pass over the owned x positions: their histogram over the
        // command's range, and their extent.
        let (lo, hi) = cmd.hist_range;
        let w = (hi - lo).max(1e-12) / HIST_BINS as f64;
        stats.x_hist = vec![0u64; HIST_BINS];
        for &x in &self.pool.xs()[..self.n_owned] {
            let bin = (((x - lo) / w).floor().max(0.0) as usize).min(HIST_BINS - 1);
            stats.x_hist[bin] += 1;
            stats.x_min = stats.x_min.min(x);
            stats.x_max = stats.x_max.max(x);
        }
        let snapshot = cmd.checkpoint.then(|| self.snapshot());
        Ok((stats, snapshot))
    }

    // ---- stable-row pool mutations (all O(1) in pool size) ------------

    /// Remove owned row `r`: the last owned row swaps into the hole, the
    /// last tail row swaps down to close the owned/tail seam, and the
    /// id ↔ row map plus the moved replica's registry entry follow.
    fn remove_owned_row(&mut self, r: u32) {
        debug_assert!((r as usize) < self.n_owned);
        let last_owned = (self.n_owned - 1) as u32;
        self.id_to_row.remove(&self.pool.id(r));
        if r != last_owned {
            self.pool.copy_row_within(last_owned, r);
            self.id_to_row.insert(self.pool.id(r), r);
        }
        let last = (self.pool.len() - 1) as u32;
        if last > last_owned {
            // Non-empty tail: its last row relocates to the freed seam slot.
            self.pool.copy_row_within(last, last_owned);
            let meta = self.row_meta[last as usize];
            self.registries[meta.0 as usize][meta.1 as usize] = last_owned;
            self.row_meta[last_owned as usize] = meta;
        }
        self.row_meta.pop();
        self.pool.pop_row();
        self.n_owned -= 1;
    }

    /// Insert a new owned row: the replica occupying the seam slot (if
    /// any) relocates to the pool end, and the new agent takes the seam.
    fn insert_owned(&mut self, a: &Agent) {
        let seam = self.n_owned as u32;
        if self.pool.len() > self.n_owned {
            self.pool.push_row_copy(seam);
            let meta = self.row_meta[seam as usize];
            self.registries[meta.0 as usize][meta.1 as usize] = (self.pool.len() - 1) as u32;
            self.row_meta.push(meta);
            self.row_meta[seam as usize] = NO_META;
            self.pool.overwrite_row(seam, a);
        } else {
            self.pool.push_agent(a);
            self.row_meta.push(NO_META);
        }
        self.id_to_row.insert(a.id, seam);
        self.n_owned += 1;
    }

    /// Remove the tail replica at `(src, slot)`, replaying the sender's
    /// swap-removal on the registry so slots stay in lockstep.
    fn remove_tail_row(&mut self, src: usize, slot: usize) {
        let row = self.registries[src][slot];
        let last = (self.pool.len() - 1) as u32;
        if row != last {
            self.pool.copy_row_within(last, row);
            let moved = self.row_meta[last as usize];
            self.registries[moved.0 as usize][moved.1 as usize] = row;
            self.row_meta[row as usize] = moved;
        }
        self.row_meta.pop();
        self.pool.pop_row();
        self.registries[src].swap_remove(slot);
        if slot < self.registries[src].len() {
            let moved_row = self.registries[src][slot];
            self.row_meta[moved_row as usize] = (src as u32, slot as u32);
        }
    }

    /// Append a full replica record from `src` at the tail end.
    fn push_tail_row(&mut self, src: usize, a: &Agent) {
        self.pool.push_agent(a);
        let row = (self.pool.len() - 1) as u32;
        self.registries[src].push(row);
        self.row_meta.push((src as u32, (self.registries[src].len() - 1) as u32));
    }

    /// Decode and apply one sender's Distribute-round payloads: replica
    /// removals, masked updates and entrant appends — in exactly the order
    /// the sender's session performed them — then its ownership transfers.
    /// Updates drain the frame's byte cursor through one reused value buffer.
    ///
    /// Peer bytes are not trusted: a payload that does not decode, a slot
    /// past the sender's registry, a mask naming a field past the schema, a
    /// record that is dead or of another shape, or a transfer of an agent
    /// this worker already owns is an `Err`. What was applied before it stays;
    /// the pool's structure is intact, and the epoch fails.
    fn apply_batch(&mut self, src: usize, full: Bytes, delta: Bytes, transfers: Bytes) -> Result<(), String> {
        let decoded = codec::decode_agents_opt(full)
            .and_then(|fulls| Ok((fulls, codec::decode_replica_delta(delta)?, codec::decode_agents_opt(transfers)?)));
        let (fulls, mut delta, transfers) = decoded.map_err(|e| e.to_string())?;
        let schema = self.behavior.schema();
        let (states, effects) = (schema.num_states(), schema.num_effects());
        if let Some(a) =
            fulls.iter().chain(&transfers).find(|a| !a.alive || a.state.len() != states || a.effects.len() != effects)
        {
            return Err(format!("{} is not a live agent of schema `{}`", a.id, schema.name()));
        }
        let slot_of = |registry: &Vec<u32>, slot: u32| {
            registry.get(slot as usize).copied().ok_or_else(|| format!("replica slot {slot} of {}", registry.len()))
        };
        for &slot in &delta.removals {
            slot_of(&self.registries[src], slot)?;
            self.remove_tail_row(src, slot as usize);
        }
        let Worker { pool, registries, delta_values: values, .. } = self;
        while let Some((slot, mask)) = delta.next_update_into(values).map_err(|e| e.to_string())? {
            let row = slot_of(&registries[src], slot)?;
            if (mask >> 2) >> states != 0 {
                return Err(format!("replica update mask {mask:#x} past {states} state fields"));
            }
            apply_update(pool, row, mask, values);
        }
        for a in &fulls {
            self.push_tail_row(src, a);
        }
        for a in &transfers {
            if self.id_to_row.contains_key(&a.id) {
                return Err(format!("transfer of {}, which this worker already owns", a.id));
            }
            self.insert_owned(a);
        }
        Ok(())
    }

    /// One tick of the map–reduce(–reduce) pipeline: this worker's
    /// distribute, then the superstep over its partition. Public within the
    /// crate so tests can drive a worker directly. An `Err` leaves the
    /// worker's state unfit to continue from.
    pub(crate) fn run_tick(&mut self) -> Result<TickMetrics, String> {
        self.distribute()?;
        let behavior = Arc::clone(&self.behavior);
        // The driver is lent out for the call: the worker is its partition.
        let mut superstep = std::mem::take(&mut self.superstep);
        let n_owned = self.n_owned;
        let tick = superstep.run(&behavior, self, n_owned);
        self.superstep = superstep;
        tick
    }

    /// The map side's distribute — a column scan over the position columns:
    /// ship ownership transfers and replica bands, then apply this worker's
    /// own and every peer's, in sender order.
    fn distribute(&mut self) -> Result<(), String> {
        let n = self.cfg.num_workers;
        let me = self.me();
        let vis = self.behavior.schema().visibility();
        self.part.owners_into(&self.pool.xs()[..self.n_owned], &self.pool.ys()[..self.n_owned], &mut self.owners);
        for d in &mut self.dest_transfers {
            d.clear();
        }
        for d in &mut self.dest_replicas {
            d.clear();
        }
        for r in 0..self.n_owned as u32 {
            let owner = self.owners[r as usize] as usize;
            // The replica band is a contiguous column range around the owner.
            let (c0, c1) = self.part.replica_col_range(self.pool.xs()[r as usize], vis);
            for t in c0..=c1 {
                if t as usize != owner {
                    self.dest_replicas[t as usize].push(r);
                }
            }
            if owner != me {
                self.dest_transfers[owner].push(r);
            }
        }
        // Encode and send every peer's payloads before any pool mutation
        // (the collected rows stay valid). Empty payloads are never sent as
        // traffic — a stationary band is literally free.
        for j in others(n, me) {
            let transfers = codec::encode_pool_rows(&self.pool, &self.dest_transfers[j]);
            let rows = std::mem::take(&mut self.dest_replicas[j]);
            let (full, delta) = self.sessions[j].encode_tick(&self.pool, &rows);
            self.dest_replicas[j] = rows;
            if !transfers.is_empty() {
                net::record(Traffic::Transfer, transfers.len());
            }
            if !full.is_empty() {
                net::record(Traffic::ReplicaFull, full.len());
            }
            if !delta.is_empty() {
                net::record(Traffic::ReplicaDelta, delta.len());
            }
            self.send(j, PeerMsg::Batch { transfers, replica_full: full, replica_delta: delta })?;
        }
        // Self-destined replicas: agents transferring away that remain in
        // this worker's own visible band go through the same session, so
        // the tail treats "me" as just another source.
        let rows = std::mem::take(&mut self.dest_replicas[me]);
        let (self_full, self_delta) = self.sessions[me].encode_tick(&self.pool, &rows);
        self.dest_replicas[me] = rows;

        // ---- apply outbound ownership transfers (rows leave the pool) ----
        self.removals.clear();
        for j in others(n, me) {
            self.removals.extend_from_slice(&self.dest_transfers[j]);
        }
        self.removals.sort_unstable_by(|a, b| b.cmp(a));
        let removals = std::mem::take(&mut self.removals);
        for &r in &removals {
            self.remove_owned_row(r);
        }
        self.removals = removals;

        // ---- apply self replicas, then each peer's payloads in sender
        // order, so the result is deterministic; a payload this worker
        // cannot apply fails the epoch ----
        self.apply_batch(me, self_full, self_delta, Bytes::new()).map_err(|e| format!("own replicas: {e}"))?;
        for j in others(n, me) {
            let PeerMsg::Batch { transfers, replica_full, replica_delta } = self.recv(j)? else {
                return Err(out_of_order(j, "replicas and transfers"));
            };
            self.apply_batch(j, replica_full, replica_delta, transfers)
                .map_err(|e| format!("replicas and transfers from {}: {e}", worker_id(j)))?;
        }
        Ok(())
    }

    /// Send `msg` on the link to worker `j`.
    fn send(&self, j: usize, msg: PeerMsg) -> Result<(), String> {
        self.links.peers[j].send(msg).map_err(|_| format!("link to {} closed", worker_id(j)))
    }

    /// The next message on the link from worker `j`: the current round's,
    /// because each link carries its sender's rounds in tick order.
    fn recv(&self, j: usize) -> Result<PeerMsg, String> {
        self.links.inboxes[j].recv().map_err(|_| format!("link from {} closed", worker_id(j)))
    }
}

impl Partition for Worker {
    type Error = String;

    fn pool(&mut self) -> &mut AgentPool {
        &mut self.pool
    }

    /// Reduce 2's round: ship the writes this worker's agents made to replicas
    /// to their owners, uncombined, and resolve the ones peers shipped here to
    /// owned rows. A write this worker cannot take fails the epoch.
    fn exchange_effects(
        &mut self,
        outbound: &[(u32, EffectWrite)],
        inbound: &mut Vec<(u32, EffectWrite)>,
    ) -> Result<(), String> {
        let (n, me) = (self.cfg.num_workers, self.me());
        for d in &mut self.dest_writes {
            d.clear();
        }
        for &(row, write) in outbound {
            let owner = self.part.column_of(self.pool.xs()[row as usize]);
            debug_assert_ne!(owner, me, "replica owned by its replica holder");
            self.dest_writes[owner].push(write);
        }
        for j in others(n, me) {
            let bytes = codec::encode_effect_writes(&self.dest_writes[j]);
            net::record(Traffic::Effects, bytes.len());
            self.send(j, PeerMsg::Effects { writes: bytes })?;
        }
        let schema = self.behavior.schema();
        let width = schema.num_effects();
        for j in others(n, me) {
            let PeerMsg::Effects { writes } = self.recv(j)? else { return Err(out_of_order(j, "effect writes")) };
            let target = |w: EffectWrite| match self.id_to_row.get(&w.target) {
                Some(_) if w.field.index() >= width => Err(format!("effect field {} of {width}", w.field.index())),
                Some(_) if !schema.is_remote(w.field) => {
                    Err(format!("local-only effect `{}`", schema.effect_defs()[w.field.index()].name))
                }
                Some(&row) => Ok((row, w)),
                None => Err(format!("{}, which this worker does not own", w.target)),
            };
            codec::decode_effect_writes_into(&writes, inbound, target)
                .map_err(|e| format!("effect writes from {}: {e}", worker_id(j)))?;
        }
        Ok(())
    }

    /// The spawn-sequencing round: global `(parent id, ordinal)` ids.
    /// Pending spawns sort by parent (stable, so each parent's spawn-call
    /// order survives; worker pool rows are swap-churned, unlike the
    /// id-ordered single-node pool). Parents are globally unique, so merging
    /// every worker's ascending per-parent count runs yields one total order
    /// — the same order a single node produces — and each worker ranks its
    /// own spawns inside it. All workers advance the shared `next_id` cursor
    /// by the tick's global spawn total.
    fn apply_membership(&mut self, killed: &[u32], spawned: &mut Vec<PendingSpawn>) -> Result<(), String> {
        let (n, me) = (self.cfg.num_workers, self.me());
        spawned.sort_by_key(|s| s.parent);
        self.spawn_runs.clear();
        let runs = spawned.chunk_by(|a, b| a.parent == b.parent).map(|run| (run[0].parent, run.len() as u32));
        self.spawn_runs.extend(runs);
        let runs = codec::encode_spawn_runs(&self.spawn_runs);
        for j in others(n, me) {
            if !runs.is_empty() {
                net::record(Traffic::Spawns, runs.len());
            }
            self.send(j, PeerMsg::Spawns { runs: runs.clone() })?;
        }

        // Kills, descending so pending rows stay valid (before inserts, as
        // on a single node: retain_alive precedes spawn appends).
        for &r in killed.iter().rev() {
            self.remove_owned_row(r);
        }

        // Insert our spawns at their global ranks: each id follows every
        // spawn of a smaller parent, ours or a peer's (the peers' runs,
        // merged by parent, replace ours in the buffer).
        self.spawn_runs.clear();
        for j in others(n, me) {
            let PeerMsg::Spawns { runs } = self.recv(j)? else { return Err(out_of_order(j, "spawn runs")) };
            let runs = codec::decode_spawn_runs(runs).map_err(|e| format!("spawn runs from {}: {e}", worker_id(j)))?;
            self.spawn_runs.extend(runs);
        }
        self.spawn_runs.sort_unstable_by_key(|&(parent, _)| parent);
        let mut k = 0;
        for s in spawned.drain(..) {
            while let Some(&(_, count)) = self.spawn_runs.get(k).filter(|&&(parent, _)| parent < s.parent) {
                self.next_id += count as u64;
                k += 1;
            }
            let a = Agent::with_state(AgentId::new(self.next_id), s.pos, s.state, self.behavior.schema());
            self.insert_owned(&a);
            self.next_id += 1;
        }
        self.next_id += self.spawn_runs[k..].iter().map(|&(_, count)| count as u64).sum::<u64>();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EpochCommand;
    use brace_common::{FieldId, Vec2};
    use brace_core::behavior::{Neighbors, UpdateCtx};
    use brace_core::effect::EffectWriter;
    use brace_core::{AgentSchema, Combinator, Simulation};
    use crossbeam::channel::unbounded;

    /// Test support: drive and inspect a worker directly.
    impl Worker {
        /// Current tick (tests).
        pub(crate) fn current_tick(&self) -> u64 {
            self.superstep.tick
        }

        /// Materialized owned agents (tests only — production reads columns).
        pub(crate) fn owned_agents(&self) -> Vec<Agent> {
            let mut out = Vec::new();
            self.pool.write_agents_prefix_into(self.n_owned, &mut out);
            out
        }

        /// Structural invariants of the persistent pool (test support): the
        /// id map covers exactly the owned prefix, registries and row_meta
        /// describe the same bijection onto the tail rows.
        pub(crate) fn check_invariants(&self) {
            assert_eq!(self.id_to_row.len(), self.n_owned, "id map covers the owned prefix");
            for r in 0..self.n_owned as u32 {
                assert_eq!(self.id_to_row.get(&self.pool.id(r)), Some(&r), "id map row {r}");
            }
            assert_eq!(self.row_meta.len(), self.pool.len(), "row_meta covers the pool");
            for r in 0..self.n_owned {
                assert_eq!(self.row_meta[r], NO_META, "owned row {r} must carry no replica meta");
            }
            for r in self.n_owned..self.pool.len() {
                let (src, slot) = self.row_meta[r];
                assert_eq!(
                    self.registries[src as usize][slot as usize], r as u32,
                    "registry/meta bijection at row {r}"
                );
            }
            let registry_total: usize = self.registries.iter().map(|r| r.len()).sum();
            assert_eq!(registry_total, self.pool.len() - self.n_owned, "registries cover the tail");
        }
    }

    /// Count visible neighbors; drift right by 0.1 * count.
    struct Drift(AgentSchema);

    impl Drift {
        fn new() -> Self {
            Drift(
                AgentSchema::builder("Drift")
                    .effect("n", Combinator::Sum)
                    .visibility(1.5)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Drift {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }
        fn update(&self, me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {
            me.pos.x += 0.1 * me.effect(FieldId::new(0));
        }
    }

    fn single_worker_with(agents: Vec<Agent>, index: IndexKind) -> Worker {
        let (peer, inbox) = unbounded();
        let (_cmd_tx, commands) = unbounded::<Command>();
        let (reports, _report_rx) = unbounded();
        let links = WorkerLinks { peers: vec![peer], inboxes: vec![inbox], commands, reports, metrics: Arc::default() };
        let cfg = WorkerConfig { id: WorkerId::new(0), num_workers: 1, index, seed: 11, parallelism: 2 };
        let part = GridPartitioning::columns(0.0, 100.0, 1);
        Worker::new(Arc::new(Drift::new()), cfg, links, part, agents, 1 << 32)
    }

    fn single_worker(agents: Vec<Agent>) -> Worker {
        single_worker_with(agents, IndexKind::Join)
    }

    fn line(n: usize, gap: f64) -> Vec<Agent> {
        let b = Drift::new();
        (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64 * gap, 0.0), b.schema())).collect()
    }

    #[test]
    fn single_worker_tick_matches_single_node_executor() {
        let agents = line(25, 0.7);
        let mut worker = single_worker(agents.clone());
        let mut sim = Simulation::builder(Drift::new())
            .agents(agents)
            .index(IndexKind::Join)
            .seed(11)
            .parallelism(2)
            .build()
            .unwrap();
        for _ in 0..6 {
            worker.run_tick().unwrap();
            sim.step();
        }
        let mut a: Vec<_> = worker.owned_agents();
        let mut b: Vec<_> = sim.agents();
        a.sort_by_key(|x| x.id);
        b.sort_by_key(|x| x.id);
        assert_eq!(a, b, "1-worker cluster must equal the single-node engine");
        assert_eq!(worker.current_tick(), 6);
        worker.check_invariants();
    }

    #[test]
    fn steady_ticks_never_rebuild_the_pool() {
        // On the join and on the scan alike.
        for index in [IndexKind::Join, IndexKind::Scan] {
            let mut worker = single_worker_with(line(40, 0.6), index);
            let rebuilds0 = worker.pool_rebuilds;
            let roundtrips0 = worker.vec_roundtrips;
            for _ in 0..8 {
                worker.run_tick().unwrap();
            }
            assert_eq!(worker.pool_rebuilds, rebuilds0, "{index:?}: ticks must not rebuild the pool");
            assert_eq!(worker.vec_roundtrips, roundtrips0, "{index:?}: ticks must not materialize Vec<Agent>");
            worker.check_invariants();
        }
    }

    #[test]
    fn histogram_counts_owned_agents() {
        let mut worker = single_worker(line(10, 1.0)); // x = 0..9
        let cmd = EpochCommand { epoch: 0, ticks: 0, new_x_bounds: None, checkpoint: false, hist_range: (0.0, 10.0) };
        let (stats, _) = worker.run_epoch(&cmd).unwrap();
        assert_eq!(stats.x_hist.iter().sum::<u64>(), 10);
        assert_eq!(stats.x_hist[0], 1, "x = 0 falls in the first of {HIST_BINS} bins");
        assert_eq!((stats.x_min, stats.x_max), (0.0, 9.0));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut worker = single_worker(line(5, 1.0));
        worker.run_tick().unwrap();
        let roundtrips0 = worker.vec_roundtrips;
        let snap = codec::decode_snapshot(worker.snapshot()).unwrap();
        assert_eq!(worker.vec_roundtrips, roundtrips0, "a snapshot is encoded from the pool");
        let before: Vec<_> = worker.owned_agents();
        assert_eq!(snap.agents, before);
        // Run further, then roll back.
        worker.run_tick().unwrap();
        worker.run_tick().unwrap();
        worker.restore(snap, vec![0.0, 100.0]);
        assert_eq!(worker.vec_roundtrips, roundtrips0 + 1, "a restore decodes the records");
        assert_eq!(worker.owned_agents(), before);
        assert_eq!(worker.current_tick(), 1);
        // Replay is deterministic.
        worker.run_tick().unwrap();
        let replayed: Vec<_> = worker.owned_agents();
        let snap = codec::decode_snapshot(worker.snapshot()).unwrap();
        worker.restore(snap, vec![0.0, 100.0]);
        assert_eq!(worker.owned_agents(), replayed);
        worker.check_invariants();
    }

    /// Every agent pushes a ping onto each neighbour: non-local effects, so
    /// a tick has an effects round.
    struct Ping(AgentSchema);

    impl Behavior for Ping {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for nb in nbrs.iter() {
                eff.remote(nb.row, FieldId::new(0), 1.0);
            }
        }
        fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
    }

    /// Worker 0 of two runs an epoch of `ticks` ticks while the test plays
    /// worker 1: it sends `script` on its link to worker 0, then drops that
    /// link. The worker must report why its epoch failed and stop — never
    /// panic, never hang.
    fn failed_epoch_reason(ticks: u64, script: Vec<PeerMsg>) -> String {
        let agents = (0..5).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &ping_schema())).collect();
        let (to_me, from_peer) = unbounded();
        let (to_peer, _peer_inbox) = unbounded();
        let (own_tx, own_rx) = unbounded();
        let (cmd_tx, commands) = unbounded();
        let (reports, report_rx) = unbounded();
        let links = WorkerLinks {
            peers: vec![own_tx, to_peer],
            inboxes: vec![own_rx, from_peer],
            commands,
            reports,
            metrics: Arc::default(),
        };
        let cfg =
            WorkerConfig { id: WorkerId::new(0), num_workers: 2, index: IndexKind::Join, seed: 11, parallelism: 1 };
        let part = GridPartitioning::columns(0.0, 100.0, 2);
        let worker = Worker::new(Arc::new(Ping(ping_schema())), cfg, links, part, agents, 1 << 32);
        for msg in script {
            to_me.send(msg).unwrap();
        }
        drop(to_me);
        let epoch = EpochCommand { epoch: 0, ticks, new_x_bounds: None, checkpoint: false, hist_range: (0.0, 100.0) };
        cmd_tx.send(Command::RunEpoch(epoch)).unwrap();
        worker.run_loop(); // returns: the worker stops after a failed epoch
        match report_rx.try_recv() {
            Ok(Report::Failed { worker, reason }) => {
                assert_eq!(worker, WorkerId::new(0));
                reason
            }
            other => panic!("expected a failed epoch, got {other:?}"),
        }
    }

    /// Worker 1's messages for one tick: its Distribute round carries
    /// `[transfers, replica_full, replica_delta]`, its effects round `writes`.
    fn tick_script([transfers, replica_full, replica_delta]: [Bytes; 3], writes: Bytes) -> [PeerMsg; 3] {
        [
            PeerMsg::Batch { transfers, replica_full, replica_delta },
            PeerMsg::Effects { writes },
            PeerMsg::Spawns { runs: Bytes::new() },
        ]
    }

    fn ping_schema() -> AgentSchema {
        AgentSchema::builder("Ping")
            .remote_effect("pings", Combinator::Sum)
            .effect("seen", Combinator::Sum)
            .visibility(1.5)
            .build()
            .unwrap()
    }

    #[test]
    fn peer_writes_the_worker_cannot_apply_fail_the_epoch_without_a_panic() {
        let write = |target: u64, field: u16| EffectWrite {
            target: AgentId::new(target),
            source: AgentId::new(70),
            field: FieldId::new(field),
            v: 1.0,
        };
        let reason = |writes| failed_epoch_reason(1, tick_script(Default::default(), writes).into());
        let r = reason(codec::encode_effect_writes(&[write(3, 0), write(999, 0)]));
        assert!(r.contains("a999, which this worker does not own"), "{r}");
        let r = reason(codec::encode_effect_writes(&[write(3, 1)]));
        assert!(r.contains("local-only effect `seen`"), "{r}");
        let r = reason(codec::encode_effect_writes(&[write(3, 2)]));
        assert!(r.contains("effect field 2 of 2"), "{r}");
        let r = reason(Bytes::from(vec![1, 0, 0, 0, 7]));
        assert!(r.contains("effect writes from"), "{r}");
    }

    #[test]
    fn peer_replicas_and_transfers_the_worker_cannot_apply_fail_the_epoch_without_a_panic() {
        let schema = ping_schema();
        // In worker 1's column, so a ping to it would ship to worker 1.
        let agent = |id: u64| Agent::new(AgentId::new(id), Vec2::new(60.0, 0.0), &schema);
        let one = |batch: [Bytes; 3]| failed_epoch_reason(1, tick_script(batch, Bytes::new()).into());
        let agents = codec::encode_agents(&[agent(70), agent(71)]);
        let r = one([agents.slice(0..agents.len() - 1), Bytes::new(), Bytes::new()]);
        assert!(r.contains("replicas and transfers from w1") && r.contains("agent records"), "{r}");
        let r = one([codec::encode_agents(&[agent(3)]), Bytes::new(), Bytes::new()]);
        assert!(r.contains("transfer of a3, which this worker already owns"), "{r}");
        let mut wide = agent(72);
        wide.state.push(1.0);
        let r = one([Bytes::new(), codec::encode_agents(&[wide]), Bytes::new()]);
        assert!(r.contains("a72 is not a live agent of schema `Ping`"), "{r}");
        let mut dead = agent(73);
        dead.alive = false;
        let r = one([codec::encode_agents(&[dead]), Bytes::new(), Bytes::new()]);
        assert!(r.contains("a73 is not a live agent"), "{r}");
        let mut removal = ReplicaDeltaEnc::new();
        removal.push_removal(3);
        let r = one([Bytes::new(), Bytes::new(), removal.finish()]);
        assert!(r.contains("replica slot 3 of 0"), "{r}");
        // `[n_removals, n_updates, slot, mask, value]`: an update to slot 0.
        let update = |mask: u32| {
            let words = [0u32.to_le_bytes(), 1u32.to_le_bytes(), 0u32.to_le_bytes(), mask.to_le_bytes()].concat();
            Bytes::from([words, 1.5f64.to_le_bytes().to_vec()].concat())
        };
        let r = one([Bytes::new(), Bytes::new(), update(DELTA_MASK_X)]);
        assert!(r.contains("replica slot 0 of 0"), "{r}");
        // Tick 0 registers a replica in slot 0; tick 1 updates a state field
        // the schema does not have.
        let r = failed_epoch_reason(
            2,
            [
                tick_script([Bytes::new(), codec::encode_agents(&[agent(74)]), Bytes::new()], Bytes::new()),
                tick_script([Bytes::new(), Bytes::new(), update(1 << 2)], Bytes::new()),
            ]
            .concat(),
        );
        assert!(r.contains("replica update mask 0x4 past 0 state fields"), "{r}");
        let r = one([Bytes::new(), Bytes::new(), update(DELTA_MASK_X).slice(0..19)]);
        assert!(r.contains("replica delta"), "{r}");
    }

    /// Worker 1 sends its Batch, then its link closes: worker 0 fails the
    /// epoch at the effects round instead of waiting on the link forever.
    #[test]
    fn a_closed_peer_link_fails_the_epoch() {
        let batch = PeerMsg::Batch { transfers: Bytes::new(), replica_full: Bytes::new(), replica_delta: Bytes::new() };
        let r = failed_epoch_reason(1, vec![batch]);
        assert_eq!(r, "link from w1 closed");
        // A link is read in round order: a spawn run where the Batch belongs
        // fails the epoch too.
        let r = failed_epoch_reason(1, vec![PeerMsg::Spawns { runs: Bytes::new() }]);
        assert_eq!(r, "w1 sent another round's message where its replicas and transfers belong");
    }

    #[test]
    fn stable_row_ops_keep_invariants_under_churn() {
        let b = Drift::new();
        let mut worker = single_worker(line(6, 1.0));
        // Fake a two-source tail, then churn the owned region around it.
        worker.registries.push(Vec::new()); // pretend source 1 exists
        worker.sessions.push(ReplicaSession::new(0));
        for i in 0..4u64 {
            let a = Agent::new(AgentId::new(100 + i), Vec2::new(50.0 + i as f64, 0.0), b.schema());
            worker.push_tail_row((i % 2) as usize, &a);
        }
        worker.check_invariants();
        // Owned insertion relocates the first tail row.
        let newcomer = Agent::new(AgentId::new(50), Vec2::new(3.3, 0.0), b.schema());
        worker.insert_owned(&newcomer);
        worker.check_invariants();
        assert_eq!(worker.n_owned, 7);
        assert_eq!(worker.pool.len(), 11);
        // Owned removal (middle row) closes the seam from the tail end.
        worker.remove_owned_row(2);
        worker.check_invariants();
        assert_eq!(worker.n_owned, 6);
        // Tail removals in both registries.
        worker.remove_tail_row(0, 0);
        worker.check_invariants();
        worker.remove_tail_row(1, 1);
        worker.check_invariants();
        assert_eq!(worker.pool.len() - worker.n_owned, 2);
    }
}
