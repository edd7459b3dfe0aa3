//! Coordinated checkpoints.
//!
//! "We employ epoch synchronization with the master to trigger coordinated
//! checkpoints of the main memory of the workers. As the master determines a
//! pre-defined tick boundary for checkpointing, the workers can write their
//! checkpoints independently without global synchronization" (§3.3). Because
//! every tick is deterministic given the checkpointed state, recovery is
//! re-execution of all epochs since the last checkpoint — the store keeps
//! the master's command log for exactly that replay.
//!
//! A checkpoint file and its payload are read only through the codec's
//! [`Reader`]: a file is a header and exactly one checkpoint, and each worker
//! payload must be exactly one worker snapshot, or the file is refused. The
//! payloads are checked without being decoded (`codec::validate_snapshot`):
//! the workers they restore decode them, once.
//!
//! A checkpoint is one copy of the workers' agents. Each worker encodes its
//! snapshot straight from its pool's columns into a buffer of exactly its
//! size (`codec::encode_pool_snapshot`), which moves to the master without
//! another copy. [`write_checkpoint_file`] hashes the checkpoint's parts
//! where they lie and then writes them where they lie, with no whole-file
//! buffer, and a durable [`CheckpointStore`] then drops the payloads: the
//! file is the only copy it keeps, and in-process recovery reads it back.
//! An ephemeral store keeps its payloads in memory instead.

use crate::codec::{validate_snapshot, Reader};
use crate::runtime::EpochCommand;
use brace_common::{fnv1a, BraceError, Fnv1a, Result};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic tag opening every on-disk checkpoint file ("BRACECP\0").
const FILE_MAGIC: u64 = 0x4252_4143_4543_5000;
/// On-disk checkpoint format version.
const FILE_VERSION: u32 = 1;
/// A file's head: magic, version, and the FNV-1a of the checkpoint after it.
const FILE_HEAD_BYTES: usize = 8 + 4 + 8;

/// A complete, consistent cluster state at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterCheckpoint {
    /// Epoch after which the snapshot was taken.
    pub epoch: u64,
    /// Global tick at the snapshot.
    pub tick: u64,
    /// Column boundaries in force at the snapshot.
    pub x_bounds: Vec<f64>,
    /// Histogram range in force (so replayed commands match originals).
    pub hist_range: (f64, f64),
    /// One serialized `WorkerSnapshot` per worker, by worker index.
    pub workers: Vec<Bytes>,
}

impl ClusterCheckpoint {
    /// Serialize to a single buffer of exactly its size: the bytes
    /// [`ClusterCheckpoint::write_parts`] writes.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_parts(&mut buf).expect("a Vec takes every write");
        debug_assert_eq!(buf.len(), buf.capacity(), "a checkpoint buffer is sized exactly");
        buf.into()
    }

    /// Write the checkpoint to `out` in parts, each from where it lies: the
    /// head (epoch, tick, column bounds, histogram range, worker count),
    /// then each worker's length and payload. The file writer hashes the
    /// parts and then writes them, so no worker payload is ever copied into
    /// a buffer holding the whole checkpoint.
    fn write_parts(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut head = BytesMut::with_capacity(self.head_len());
        head.put_u64_le(self.epoch);
        head.put_u64_le(self.tick);
        head.put_u32_le(self.x_bounds.len() as u32);
        for &b in &self.x_bounds {
            head.put_f64_le(b);
        }
        head.put_f64_le(self.hist_range.0);
        head.put_f64_le(self.hist_range.1);
        head.put_u32_le(self.workers.len() as u32);
        out.write_all(&head)?;
        for w in &self.workers {
            out.write_all(&(w.len() as u64).to_le_bytes())?;
            out.write_all(w)?;
        }
        Ok(())
    }

    fn head_len(&self) -> usize {
        8 + 8 + 4 + 8 * self.x_bounds.len() + 16 + 4
    }

    fn encoded_len(&self) -> usize {
        self.head_len() + self.workers.iter().map(|w| 8 + w.len()).sum::<usize>()
    }

    /// Inverse of [`ClusterCheckpoint::encode`]. The bytes may come from a
    /// damaged or forged file, so they must be exactly one checkpoint. The
    /// worker payloads are views into `bytes`, not copies.
    pub fn decode(bytes: Bytes) -> Result<Self> {
        Reader::read_all(&bytes, |r| Self::read(&bytes, r))
            .ok_or_else(|| BraceError::Checkpoint("not a checkpoint".into()))
    }

    fn read(bytes: &Bytes, r: &mut Reader) -> Option<Self> {
        Some(ClusterCheckpoint {
            epoch: r.u64()?,
            tick: r.u64()?,
            x_bounds: r.records(8, Reader::f64)?,
            hist_range: (r.f64()?, r.f64()?),
            workers: r.records(8, |r| {
                let len = usize::try_from(r.u64()?).ok()?;
                let start = r.pos();
                r.bytes(len)?;
                Some(bytes.slice(start..start + len))
            })?,
        })
    }
}

/// Bytes written to it are hashed, not stored: the first of the file
/// writer's two passes over a checkpoint's parts.
struct Hashing(Fnv1a);

impl Write for Hashing {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.write(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A checkpoint the store keeps.
#[derive(Debug)]
enum Kept {
    /// An ephemeral run's checkpoint, payloads and all.
    Memory(ClusterCheckpoint),
    /// A durable run's, by epoch: its payloads are only in its file.
    File(u64),
}

impl Kept {
    fn epoch(&self) -> u64 {
        match self {
            Kept::Memory(cp) => cp.epoch,
            Kept::File(epoch) => *epoch,
        }
    }
}

/// The recent checkpoints plus the command log needed to replay past any
/// kept one. An ephemeral store keeps them in memory; a durable one (with
/// a directory) writes each to disk and keeps only its epoch, so a
/// checkpoint's payloads exist once, in its file.
#[derive(Debug)]
pub struct CheckpointStore {
    keep: usize,
    /// Oldest first; never more than `keep`.
    kept: VecDeque<Kept>,
    /// Every live command executed, trimmed below the oldest kept
    /// checkpoint. `cp.epoch` counts *completed* epochs, so resuming from a
    /// checkpoint means replaying commands with `cmd.epoch >= cp.epoch`.
    log: Vec<EpochCommand>,
    dir: Option<PathBuf>,
}

impl CheckpointStore {
    /// Keep the `keep` most recent checkpoints (≥ 1).
    pub fn new(keep: usize) -> Self {
        CheckpointStore { keep: keep.max(1), kept: VecDeque::new(), log: Vec::new(), dir: None }
    }

    /// Write each checkpoint to `dir` as `checkpoint-<epoch>.brace` and keep
    /// it there only.
    pub fn with_dir(mut self, dir: PathBuf) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Record a new checkpoint and trim the log below the oldest kept one.
    /// The oldest kept checkpoint is dropped first if the store is full, so
    /// it never holds more than `keep`. On-disk checkpoints are durable
    /// (fsynced, checksummed, written via a temp-file rename) and pruned to
    /// the `keep` newest epochs.
    pub fn push(&mut self, cp: ClusterCheckpoint) -> Result<()> {
        let kept = match &self.dir {
            Some(dir) => {
                write_checkpoint_file(dir, &cp)?;
                prune_checkpoint_files(dir, self.keep);
                Kept::File(cp.epoch)
            }
            None => Kept::Memory(cp),
        };
        self.hold(kept);
        Ok(())
    }

    /// Record `cp`, which a durable store's directory already holds — the
    /// checkpoint a resumed run was loaded from — as the newest kept one,
    /// with [`CheckpointStore::push`]'s trim and log floor, but without
    /// writing its file again or pruning any. An ephemeral store keeps a
    /// copy, as `push` would.
    pub fn adopt(&mut self, cp: &ClusterCheckpoint) {
        let kept = match self.dir {
            Some(_) => Kept::File(cp.epoch),
            None => Kept::Memory(cp.clone()),
        };
        self.hold(kept);
    }

    /// Keep `kept` as the newest checkpoint, dropping the oldest first if
    /// the store is full, and trim the log below the oldest kept one.
    fn hold(&mut self, kept: Kept) {
        while self.kept.len() >= self.keep {
            self.kept.pop_front();
        }
        self.kept.push_back(kept);
        let floor = self.kept.front().map_or(0, Kept::epoch);
        self.log.retain(|c| c.epoch >= floor);
    }

    /// Append an executed live command to the replay log.
    pub fn log_command(&mut self, cmd: EpochCommand) {
        self.log.push(cmd);
    }

    /// The newest kept checkpoint that loads, for in-process recovery; the
    /// kept ones newer than it are dropped, so replay takes them again. A
    /// durable store reads and verifies its kept files newest first, as
    /// [`CheckpointStore::load_latest_from`] does for a fresh process: a
    /// file that fails verification falls back to the older kept one.
    pub fn restore_point(&mut self) -> Result<ClusterCheckpoint> {
        let mut refused = Vec::new();
        while let Some(newest) = self.kept.back() {
            match newest {
                Kept::Memory(cp) => return Ok(cp.clone()),
                Kept::File(epoch) => {
                    let dir = self.dir.as_deref().expect("a store keeps files only with a directory");
                    match load_checkpoint_file(dir, *epoch) {
                        Ok(cp) => return Ok(cp),
                        Err(e) => refused.push(e.to_string()),
                    }
                }
            }
            self.kept.pop_back();
        }
        Err(BraceError::Unrecoverable(if refused.is_empty() {
            "no checkpoint to recover from".into()
        } else {
            format!("no kept checkpoint loads: {}", refused.join("; "))
        }))
    }

    /// Discard checkpoints taken after `epoch` completed epochs — a failure
    /// during epoch `e` destroys any snapshot written at its end
    /// (`cp.epoch == e + 1`).
    pub fn discard_after(&mut self, epoch: u64) {
        while self.kept.back().is_some_and(|k| k.epoch() > epoch) {
            self.kept.pop_back();
        }
    }

    /// Commands to replay when resuming from `epoch` completed epochs.
    pub fn replay_since(&self, epoch: u64) -> Vec<EpochCommand> {
        self.log.iter().filter(|c| c.epoch >= epoch).cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.kept.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Load the newest *valid* on-disk checkpoint from `dir` (for cold
    /// restart). Files that do not verify ([`load_checkpoint_file`]) are
    /// skipped — a torn write or a forged payload falls back to the
    /// next-newest intact checkpoint rather than being trusted.
    pub fn load_latest_from(dir: &Path) -> Result<Option<ClusterCheckpoint>> {
        let mut epochs = list_checkpoint_epochs(dir);
        epochs.reverse();
        for epoch in epochs {
            if let Ok(cp) = load_checkpoint_file(dir, epoch) {
                return Ok(Some(cp));
            }
        }
        Ok(None)
    }
}

/// Epochs of all on-disk checkpoint files in `dir`, ascending. Missing or
/// unreadable directories yield an empty list.
pub fn list_checkpoint_epochs(dir: &Path) -> Vec<u64> {
    let mut epochs = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return epochs };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name.strip_prefix("checkpoint-").and_then(|s| s.strip_suffix(".brace")) {
            if let Ok(epoch) = num.parse::<u64>() {
                epochs.push(epoch);
            }
        }
    }
    epochs.sort_unstable();
    epochs
}

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("checkpoint-{epoch}.brace"))
}

/// Durably write `cp` to `dir`: checksummed header, temp file, fsync,
/// atomic rename. A crash mid-write leaves either the old file or a temp
/// file that no loader will ever pick up — never a half-written checkpoint
/// under the real name.
///
/// The file is `FILE_MAGIC ‖ FILE_VERSION ‖ fnv1a(cp.encode()) ‖
/// cp.encode()`, but no such buffer is built: the checkpoint's parts are
/// hashed where they lie, then written where they lie, after the head.
pub fn write_checkpoint_file(dir: &Path, cp: &ClusterCheckpoint) -> Result<()> {
    let io = |e: std::io::Error| BraceError::Checkpoint(format!("writing checkpoint: {e}"));
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut sum = Hashing(Fnv1a::new());
    cp.write_parts(&mut sum).map_err(io)?;
    let mut head = BytesMut::with_capacity(FILE_HEAD_BYTES);
    head.put_u64_le(FILE_MAGIC);
    head.put_u32_le(FILE_VERSION);
    head.put_u64_le(sum.0.finish());
    let tmp = dir.join(format!(".checkpoint-{}.tmp", cp.epoch));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io)?;
        f.write_all(&head).map_err(io)?;
        cp.write_parts(&mut f).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    std::fs::rename(&tmp, checkpoint_path(dir, cp.epoch)).map_err(io)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all(); // persist the rename itself
    }
    Ok(())
}

/// Load and *verify* the checkpoint for `epoch` from `dir`. Refuses (with
/// an error, not a guess) any file whose magic, version, or checksum does
/// not match, or whose worker payloads are not worker snapshots — a forged
/// file can carry a valid checksum. The payloads are checked by
/// [`validate_snapshot`], which decodes nothing, and are views into the
/// file's bytes.
pub fn load_checkpoint_file(dir: &Path, epoch: u64) -> Result<ClusterCheckpoint> {
    let path = checkpoint_path(dir, epoch);
    let data = std::fs::read(&path).map_err(|e| BraceError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    let data = Bytes::from(data);
    let mut r = Reader::new(&data);
    let (Some(magic), Some(version), Some(sum)) = (r.u64(), r.u32(), r.u64()) else {
        return Err(BraceError::Checkpoint(format!("{}: truncated header", path.display())));
    };
    if magic != FILE_MAGIC {
        return Err(BraceError::Checkpoint(format!("{}: not a checkpoint file", path.display())));
    }
    if version != FILE_VERSION {
        return Err(BraceError::Checkpoint(format!("{}: unsupported version {version}", path.display())));
    }
    if fnv1a(r.rest()) != sum {
        return Err(BraceError::Checkpoint(format!("{}: checksum mismatch (torn write?)", path.display())));
    }
    let cp = ClusterCheckpoint::decode(data.slice(r.pos()..data.len()))
        .map_err(|_| BraceError::Checkpoint(format!("{}: not a checkpoint", path.display())))?;
    for (w, payload) in cp.workers.iter().enumerate() {
        validate_snapshot(payload)
            .map_err(|e| BraceError::Checkpoint(format!("{}: worker {w}: {e}", path.display())))?;
    }
    Ok(cp)
}

/// Remove all but the `keep` newest checkpoint files in `dir`. Best-effort:
/// retention pruning never fails the checkpoint that triggered it.
pub fn prune_checkpoint_files(dir: &Path, keep: usize) {
    let epochs = list_checkpoint_epochs(dir);
    if epochs.len() <= keep {
        return;
    }
    for &epoch in &epochs[..epochs.len() - keep] {
        let _ = std::fs::remove_file(checkpoint_path(dir, epoch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_snapshot, WorkerSnapshot};
    use brace_common::{AgentId, DetRng, Vec2};
    use brace_core::{Agent, AgentSchema, Combinator};

    /// Worker `w` of two holds `w + 1` agents.
    fn cp(epoch: u64) -> ClusterCheckpoint {
        let schema = AgentSchema::builder("T").state("v").effect("e", Combinator::Sum).build().unwrap();
        let snapshot = |w: u64| {
            let agents = (0..=w)
                .map(|i| Agent::with_state(AgentId::new(10 * w + i), Vec2::new(i as f64, -0.5), vec![1.5], &schema))
                .collect();
            encode_snapshot(&WorkerSnapshot {
                tick: epoch * 10,
                next_spawn_id: 7,
                rng: DetRng::seed_from_u64(w),
                agents,
            })
        };
        ClusterCheckpoint {
            epoch,
            tick: epoch * 10,
            x_bounds: vec![0.0, 50.0, 100.0],
            hist_range: (0.0, 100.0),
            workers: vec![snapshot(0), snapshot(1)],
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("brace-cp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Flip the last byte of the checkpoint file for `epoch`.
    fn corrupt(dir: &Path, epoch: u64) {
        let path = checkpoint_path(dir, epoch);
        let mut data = std::fs::read(&path).unwrap();
        *data.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, data).unwrap();
    }

    fn cmd(epoch: u64) -> EpochCommand {
        EpochCommand { epoch, ticks: 10, new_x_bounds: None, checkpoint: false, hist_range: (0.0, 100.0) }
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = cp(3);
        let d = ClusterCheckpoint::decode(c.encode()).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn encode_is_sized_exactly_and_decode_views_the_bytes() {
        let bytes = cp(3).encode();
        assert_eq!(bytes.len(), cp(3).encoded_len());
        let back = ClusterCheckpoint::decode(bytes.clone()).unwrap();
        let first = bytes.len() - back.workers.iter().map(|w| 8 + w.len()).sum::<usize>() + 8;
        assert_eq!(back.workers[0].as_ptr(), bytes[first..].as_ptr(), "a worker payload was copied");
    }

    /// The file is written in parts with no whole-file buffer, and is byte
    /// for byte `FILE_MAGIC ‖ FILE_VERSION ‖ fnv1a(cp.encode()) ‖
    /// cp.encode()`.
    #[test]
    fn streamed_file_is_the_head_then_the_encoded_checkpoint() {
        let dir = temp_dir("streamed");
        let c = ClusterCheckpoint { x_bounds: vec![-3.0, 0.5, 2.25, 40.0], ..cp(5) };
        write_checkpoint_file(&dir, &c).unwrap();
        let payload = c.encode();
        let head = [&FILE_MAGIC.to_le_bytes()[..], &FILE_VERSION.to_le_bytes(), &fnv1a(&payload).to_le_bytes()];
        let want = [&head.concat()[..], &payload].concat();
        assert_eq!(std::fs::read(checkpoint_path(&dir, 5)).unwrap(), want);
        assert_eq!(load_checkpoint_file(&dir, 5).unwrap(), c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = cp(3).encode();
        let cut = c.slice(0..c.len() - 3);
        assert!(ClusterCheckpoint::decode(cut).is_err());
        let mut long = c.to_vec();
        long.push(0);
        assert!(ClusterCheckpoint::decode(long.into()).is_err(), "a trailing byte");
    }

    #[test]
    fn hostile_worker_count_is_an_error_not_an_abort() {
        // epoch, tick, no bounds, a histogram range, then a worker count of
        // u32::MAX with no payload after it: 40 bytes.
        let mut body = BytesMut::new();
        body.put_u64_le(1);
        body.put_u64_le(10);
        body.put_u32_le(0);
        body.put_f64_le(0.0);
        body.put_f64_le(100.0);
        body.put_u32_le(u32::MAX);
        let body = body.freeze();
        assert_eq!(body.len(), 40);
        assert!(ClusterCheckpoint::decode(body.clone()).is_err());
        // The same body behind a valid header and checksum: a 60-byte file.
        let dir = std::env::temp_dir().join(format!("brace-cp-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = BytesMut::new();
        file.put_u64_le(FILE_MAGIC);
        file.put_u32_le(FILE_VERSION);
        file.put_u64_le(fnv1a(&body));
        file.extend_from_slice(&body);
        assert_eq!(file.len(), 60);
        std::fs::write(checkpoint_path(&dir, 1), &file[..]).unwrap();
        assert!(load_checkpoint_file(&dir, 1).is_err());
        assert!(CheckpointStore::load_latest_from(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_worker_payload_behind_a_valid_checksum_is_refused() {
        let dir = std::env::temp_dir().join(format!("brace-cp-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_checkpoint_file(&dir, &cp(1)).unwrap();
        // Clock, spawn cursor and RNG all zero, then a count of u32::MAX
        // agents with none after it.
        let mut forged = BytesMut::new();
        forged.extend_from_slice(&[0; 32]);
        forged.put_u32_le(u32::MAX);
        let mut newest = cp(2);
        newest.workers[1] = forged.freeze();
        write_checkpoint_file(&dir, &newest).unwrap();
        assert!(load_checkpoint_file(&dir, 2).is_err());
        assert_eq!(CheckpointStore::load_latest_from(&dir).unwrap().unwrap(), cp(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_keeps_only_latest_k() {
        let mut s = CheckpointStore::new(2);
        for e in 0..5 {
            s.push(cp(e)).unwrap();
            assert!(s.len() <= 2);
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.restore_point().unwrap().epoch, 4);
    }

    #[test]
    fn replay_since_selects_commands_at_or_after_checkpoint() {
        let mut s = CheckpointStore::new(1);
        s.push(cp(0)).unwrap();
        s.log_command(cmd(0));
        s.log_command(cmd(1));
        s.log_command(cmd(2));
        let replay = s.replay_since(1);
        assert_eq!(replay.iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn push_trims_log_below_oldest_checkpoint() {
        let mut s = CheckpointStore::new(1);
        s.push(cp(0)).unwrap();
        s.log_command(cmd(0));
        s.log_command(cmd(1));
        // New checkpoint after epoch 2: keep=1 drops cp(0); log trims to >= 2.
        s.push(cp(2)).unwrap();
        s.log_command(cmd(2));
        assert_eq!(s.replay_since(0).iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn discard_after_drops_fault_epoch_snapshot() {
        let mut s = CheckpointStore::new(3);
        s.push(cp(0)).unwrap();
        s.push(cp(2)).unwrap();
        s.push(cp(4)).unwrap();
        // Fault during epoch 3: snapshots with epoch > 3 are lost.
        s.discard_after(3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.restore_point().unwrap().epoch, 2);
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("brace-cp-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = CheckpointStore::new(1).with_dir(dir.clone());
        s.push(cp(1)).unwrap();
        s.push(cp(7)).unwrap();
        let loaded = CheckpointStore::load_latest_from(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 7);
        assert_eq!(loaded, cp(7));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A durable store keeps epochs, not payloads: recovery reads its kept
    /// files newest first, drops one that fails verification, and is an
    /// `Err` once none is left.
    #[test]
    fn durable_store_recovers_from_its_newest_valid_file() {
        let dir = temp_dir("durable-store");
        let mut s = CheckpointStore::new(2).with_dir(dir.clone());
        for e in 0..3 {
            s.push(cp(e)).unwrap();
        }
        assert!(s.kept.iter().all(|k| matches!(k, Kept::File(_))), "a durable store keeps no payload");
        assert_eq!(s.restore_point().unwrap(), cp(2));
        corrupt(&dir, 2);
        assert_eq!(s.restore_point().unwrap(), cp(1), "falls back to the older kept file");
        assert_eq!(s.len(), 1, "the newer kept file that failed is dropped");
        corrupt(&dir, 1);
        let err = s.restore_point().unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(s.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Adopting a file already on disk is `push`'s bookkeeping with no I/O:
    /// the file is neither rewritten nor pruned, the log is trimmed below it,
    /// and recovery reads it back.
    #[test]
    fn adopt_keeps_a_file_on_disk_without_writing_or_pruning() {
        let dir = temp_dir("adopt");
        for e in [1, 2, 3] {
            write_checkpoint_file(&dir, &cp(e)).unwrap();
        }
        let before = std::fs::read(checkpoint_path(&dir, 2)).unwrap();
        let mut s = CheckpointStore::new(1).with_dir(dir.clone());
        s.log_command(cmd(1));
        s.log_command(cmd(2));
        s.adopt(&cp(2));
        assert!(matches!(s.kept.back(), Some(Kept::File(2))));
        assert_eq!(list_checkpoint_epochs(&dir), vec![1, 2, 3], "adopt pruned a file");
        assert_eq!(s.replay_since(0).iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![2]);
        assert_eq!(std::fs::read(checkpoint_path(&dir, 2)).unwrap(), before);
        assert_eq!(s.restore_point().unwrap(), cp(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_from_missing_dir_is_none() {
        let got = CheckpointStore::load_latest_from(std::path::Path::new("/definitely/not/here")).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn push_prunes_disk_files_to_keep() {
        let dir = std::env::temp_dir().join(format!("brace-cp-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = CheckpointStore::new(2).with_dir(dir.clone());
        for e in 0..5 {
            s.push(cp(e)).unwrap();
        }
        assert_eq!(list_checkpoint_epochs(&dir), vec![3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_refused_and_latest_falls_back() {
        let dir = std::env::temp_dir().join(format!("brace-cp-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_checkpoint_file(&dir, &cp(1)).unwrap();
        write_checkpoint_file(&dir, &cp(2)).unwrap();
        // Flip a payload byte in the newest file: a torn write must be
        // detected, not trusted.
        let path = dir.join("checkpoint-2.brace");
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff;
        std::fs::write(&path, data).unwrap();
        assert!(load_checkpoint_file(&dir, 2).is_err());
        let latest = CheckpointStore::load_latest_from(&dir).unwrap().unwrap();
        assert_eq!(latest, cp(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
