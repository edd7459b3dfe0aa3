//! Crash-safe run manifests — the write-ahead log that makes a run a
//! durable *job*.
//!
//! A durable run directory holds `manifest.brace` (this module) next to the
//! `checkpoint-<epoch>.brace` files of [`checkpoint`](crate::checkpoint).
//! The manifest is append-only: a header describing the job (scenario key,
//! seed, cluster shape, cadence) followed by one [`ManifestRecord`] per
//! durable event. Every epoch writes two records around its execution:
//!
//! * [`ManifestRecord::Command`] **before** the epoch command is broadcast
//!   (write-ahead — the intent survives a crash mid-epoch), and
//! * [`ManifestRecord::EpochDone`] **after** the epoch — and its
//!   coordinated checkpoint, if any — are durable. It carries the master's
//!   post-decide state (histogram range, pending repartition bounds) so a
//!   resume lands in *exactly* the state an uninterrupted run would be in,
//!   even when the replay window is empty.
//!
//! A [`ManifestRecord::Complete`] closes a finished run; nothing else is
//! journaled. The header's worker count holds for the whole run.
//!
//! Each record is framed as `u32 length + u64 FNV-1a checksum + body` and
//! fsynced on append. The reader stops at the first record that fails its
//! checksum or is short — a torn tail from a crash mid-append is *detected
//! and dropped*, never trusted; everything before it is intact by
//! construction. Resume therefore only believes epochs with a matching
//! `EpochDone`, and re-runs the rest from the last verified checkpoint.
//!
//! The file and its records are read only through the codec's [`Reader`]:
//! a record must be exactly its bytes, a bool or option tag is 0 or 1, and
//! a string is UTF-8, so one record has one encoding.

use crate::codec::Reader;
use crate::runtime::EpochCommand;
use brace_common::{fnv1a, BraceError, Result};
use brace_spatial::IndexKind;
use bytes::{BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// File name of the manifest inside a run directory.
pub const MANIFEST_FILE: &str = "manifest.brace";

/// Magic tag opening every manifest file ("BRACERUN").
const FILE_MAGIC: u64 = 0x4252_4143_4552_554e;
/// Manifest format version.
const FILE_VERSION: u32 = 1;

/// Immutable description of the job, written once at run creation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunHeader {
    /// Identifier of this run (the run directory's name).
    pub run_id: String,
    /// Opaque scenario-layer job description (scenario key and overrides);
    /// the runtime never interprets it.
    pub job: String,
    /// Workers for the whole run; every checkpoint it writes has this many
    /// worker payloads.
    pub workers: u32,
    pub epoch_len: u64,
    pub seed: u64,
    /// How each reducer's query phase answers range probes.
    pub index: IndexKind,
    pub space_x: (f64, f64),
    pub load_balance: bool,
    /// Coordinated checkpoint cadence in epochs; 0 = initial only.
    pub checkpoint_every: u64,
    pub keep_checkpoints: u32,
    /// Total ticks the job should run — resume picks up the remainder.
    pub total_ticks: u64,
}

/// Post-epoch durable state. `epoch` counts *completed* epochs after this
/// one (i.e. `cmd.epoch + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochDoneRecord {
    pub epoch: u64,
    /// Whether this epoch wrote a coordinated checkpoint.
    pub checkpoint: bool,
    /// Master histogram range after `decide` — needed to rebuild the next
    /// command identically on resume.
    pub hist_range: (f64, f64),
    /// Repartition bounds pending for the next epoch, if `decide` chose to
    /// rebalance.
    pub pending_bounds: Option<Vec<f64>>,
}

/// One durable event in a run's life. Tags 4 and 5 are unassigned: a frame
/// carrying one is not a record, so the reader stops there as at a torn tail.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestRecord {
    Header(RunHeader),
    /// Write-ahead intent: this epoch command is about to run.
    Command(EpochCommand),
    /// The epoch (and its checkpoint, if any) is durable.
    EpochDone(EpochDoneRecord),
    /// The run finished and produced `checksum` over the final world.
    Complete {
        ticks: u64,
        checksum: u64,
    },
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader) -> Option<String> {
    let len = r.u32()? as usize;
    std::str::from_utf8(r.bytes(len)?).ok().map(str::to_owned)
}

/// The header's index byte. Runs written while the engine still named a
/// KD-tree (0) and a grid (1) wrote bytes the join now answers identically,
/// so both read as [`IndexKind::Join`], which writes 0: such a run resumes,
/// and its header is the one value with two encodings.
fn index_byte(index: IndexKind) -> u8 {
    match index {
        IndexKind::Join => 0,
        IndexKind::Scan => 2,
    }
}

fn get_index(r: &mut Reader) -> Option<IndexKind> {
    match r.u8()? {
        0 | 1 => Some(IndexKind::Join),
        2 => Some(IndexKind::Scan),
        _ => None,
    }
}

fn put_opt_bounds(buf: &mut BytesMut, bounds: &Option<Vec<f64>>) {
    match bounds {
        None => buf.put_u8(0),
        Some(b) => {
            buf.put_u8(1);
            buf.put_u32_le(b.len() as u32);
            for &x in b {
                buf.put_f64_le(x);
            }
        }
    }
}

fn get_opt_bounds(r: &mut Reader) -> Option<Option<Vec<f64>>> {
    Some(if r.bool()? { Some(r.records(8, Reader::f64)?) } else { None })
}

impl ManifestRecord {
    /// Serialize the record body (tag + payload), excluding the frame.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            ManifestRecord::Header(h) => {
                buf.put_u8(1);
                put_str(&mut buf, &h.run_id);
                put_str(&mut buf, &h.job);
                buf.put_u32_le(h.workers);
                buf.put_u64_le(h.epoch_len);
                buf.put_u64_le(h.seed);
                buf.put_u8(index_byte(h.index));
                buf.put_f64_le(h.space_x.0);
                buf.put_f64_le(h.space_x.1);
                buf.put_u8(h.load_balance as u8);
                buf.put_u64_le(h.checkpoint_every);
                buf.put_u32_le(h.keep_checkpoints);
                buf.put_u64_le(h.total_ticks);
            }
            ManifestRecord::Command(c) => {
                buf.put_u8(2);
                buf.put_u64_le(c.epoch);
                buf.put_u64_le(c.ticks);
                put_opt_bounds(&mut buf, &c.new_x_bounds);
                buf.put_u8(c.checkpoint as u8);
                buf.put_f64_le(c.hist_range.0);
                buf.put_f64_le(c.hist_range.1);
            }
            ManifestRecord::EpochDone(d) => {
                buf.put_u8(3);
                buf.put_u64_le(d.epoch);
                buf.put_u8(d.checkpoint as u8);
                buf.put_f64_le(d.hist_range.0);
                buf.put_f64_le(d.hist_range.1);
                put_opt_bounds(&mut buf, &d.pending_bounds);
            }
            ManifestRecord::Complete { ticks, checksum } => {
                buf.put_u8(6);
                buf.put_u64_le(*ticks);
                buf.put_u64_le(*checksum);
            }
        }
        buf.freeze()
    }

    /// Inverse of [`ManifestRecord::encode`]: the bytes must be exactly one
    /// record.
    pub fn decode(bytes: Bytes) -> Result<Self> {
        Reader::read_all(&bytes, Self::read).ok_or_else(|| BraceError::Checkpoint("manifest: not a record".into()))
    }

    fn read(r: &mut Reader) -> Option<Self> {
        Some(match r.u8()? {
            1 => ManifestRecord::Header(RunHeader {
                run_id: get_str(r)?,
                job: get_str(r)?,
                workers: r.u32()?,
                epoch_len: r.u64()?,
                seed: r.u64()?,
                index: get_index(r)?,
                space_x: (r.f64()?, r.f64()?),
                load_balance: r.bool()?,
                checkpoint_every: r.u64()?,
                keep_checkpoints: r.u32()?,
                total_ticks: r.u64()?,
            }),
            2 => ManifestRecord::Command(EpochCommand {
                epoch: r.u64()?,
                ticks: r.u64()?,
                new_x_bounds: get_opt_bounds(r)?,
                checkpoint: r.bool()?,
                hist_range: (r.f64()?, r.f64()?),
            }),
            3 => ManifestRecord::EpochDone(EpochDoneRecord {
                epoch: r.u64()?,
                checkpoint: r.bool()?,
                hist_range: (r.f64()?, r.f64()?),
                pending_bounds: get_opt_bounds(r)?,
            }),
            6 => ManifestRecord::Complete { ticks: r.u64()?, checksum: r.u64()? },
            _ => return None,
        })
    }
}

/// Append handle on a run's manifest. Every append is framed, checksummed
/// and fsynced before returning — when a record is on disk, it is durable.
#[derive(Debug)]
pub struct ManifestWriter {
    file: File,
}

impl ManifestWriter {
    /// Create `dir/manifest.brace`, writing the file header and the
    /// [`RunHeader`] record. Fails if a manifest already exists (a run id
    /// is never reused).
    pub fn create(dir: &Path, header: &RunHeader) -> Result<Self> {
        let io = |e: std::io::Error| BraceError::Checkpoint(format!("creating manifest: {e}"));
        std::fs::create_dir_all(dir).map_err(io)?;
        let path = dir.join(MANIFEST_FILE);
        let file = OpenOptions::new().write(true).create_new(true).open(&path).map_err(io)?;
        let mut w = ManifestWriter { file };
        let mut preamble = BytesMut::with_capacity(12);
        preamble.put_u64_le(FILE_MAGIC);
        preamble.put_u32_le(FILE_VERSION);
        w.file.write_all(&preamble).map_err(io)?;
        w.append(&ManifestRecord::Header(header.clone()))?;
        Ok(w)
    }

    /// Open an existing manifest for append (resume).
    pub fn open_append(dir: &Path) -> Result<Self> {
        let path = dir.join(MANIFEST_FILE);
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| BraceError::Checkpoint(format!("opening manifest {}: {e}", path.display())))?;
        Ok(ManifestWriter { file })
    }

    /// Append one record: `u32 len + u64 fnv1a(body) + body`, then fsync.
    pub fn append(&mut self, rec: &ManifestRecord) -> Result<()> {
        let io = |e: std::io::Error| BraceError::Checkpoint(format!("appending to manifest: {e}"));
        let body = rec.encode();
        let mut frame = BytesMut::with_capacity(12 + body.len());
        frame.put_u32_le(body.len() as u32);
        frame.put_u64_le(fnv1a(&body));
        frame.extend_from_slice(&body);
        self.file.write_all(&frame).map_err(io)?;
        self.file.sync_data().map_err(io)?;
        Ok(())
    }
}

/// A fully parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub header: RunHeader,
    /// All records after the header, in append order, up to the first
    /// corrupt/short frame.
    pub records: Vec<ManifestRecord>,
    /// True when a torn tail was detected and dropped.
    pub truncated: bool,
}

impl Manifest {
    /// Completed epochs: the highest `EpochDone.epoch` on record.
    pub fn completed_epochs(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                ManifestRecord::EpochDone(d) => Some(d.epoch),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The most recent [`EpochDoneRecord`], if any epoch completed.
    pub fn last_epoch_done(&self) -> Option<&EpochDoneRecord> {
        self.records.iter().rev().find_map(|r| match r {
            ManifestRecord::EpochDone(d) => Some(d),
            _ => None,
        })
    }

    /// Commands for epochs `[from, to)` in epoch order, keeping the *last*
    /// write for an epoch (a crash re-appends the interrupted epoch's
    /// command on resume; write-ahead duplicates are expected and benign —
    /// resume state is deterministic, so duplicates are identical).
    pub fn commands_in(&self, from: u64, to: u64) -> Vec<EpochCommand> {
        let mut by_epoch: Vec<EpochCommand> = Vec::new();
        for r in &self.records {
            if let ManifestRecord::Command(c) = r {
                if c.epoch >= from && c.epoch < to {
                    if let Some(slot) = by_epoch.iter_mut().find(|e| e.epoch == c.epoch) {
                        *slot = c.clone();
                    } else {
                        by_epoch.push(c.clone());
                    }
                }
            }
        }
        by_epoch.sort_by_key(|c| c.epoch);
        by_epoch
    }

    /// The final [`ManifestRecord::Complete`] record, if the run finished.
    pub fn complete(&self) -> Option<(u64, u64)> {
        self.records.iter().rev().find_map(|r| match r {
            ManifestRecord::Complete { ticks, checksum } => Some((*ticks, *checksum)),
            _ => None,
        })
    }
}

/// Read and verify `dir/manifest.brace`. Stops (setting `truncated`) at the
/// first frame that is short, fails its checksum or is not exactly one
/// record — the crash-torn tail is dropped, never trusted.
pub fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = dir.join(MANIFEST_FILE);
    let data = std::fs::read(&path).map_err(|e| BraceError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    let mut r = Reader::new(&data);
    let (Some(magic), Some(version)) = (r.u64(), r.u32()) else {
        return Err(BraceError::Checkpoint(format!("{}: truncated preamble", path.display())));
    };
    if magic != FILE_MAGIC {
        return Err(BraceError::Checkpoint(format!("{}: not a manifest", path.display())));
    }
    if version != FILE_VERSION {
        return Err(BraceError::Checkpoint(format!("{}: unsupported version {version}", path.display())));
    }
    let mut records = Vec::new();
    let mut truncated = false;
    while !r.rest().is_empty() {
        let frame = (|| {
            let (len, sum) = (r.u32()? as usize, r.u64()?);
            Reader::read_all(r.bytes(len).filter(|body| fnv1a(body) == sum)?, ManifestRecord::read)
        })();
        let Some(record) = frame else {
            truncated = true;
            break;
        };
        records.push(record);
    }
    let Some(ManifestRecord::Header(header)) = records.first().cloned() else {
        return Err(BraceError::Checkpoint(format!("{}: missing run header", path.display())));
    };
    records.remove(0);
    Ok(Manifest { header, records, truncated })
}

/// Run ids of all durable runs under `root` (directories containing a
/// manifest), sorted by name.
pub fn list_runs(root: &Path) -> Vec<String> {
    let mut runs = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else { return runs };
    for entry in entries.flatten() {
        if entry.path().join(MANIFEST_FILE).is_file() {
            runs.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    runs.sort();
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RunHeader {
        RunHeader {
            run_id: "run-42".into(),
            job: "scenario=fish agents=300".into(),
            workers: 4,
            epoch_len: 5,
            seed: 42,
            index: IndexKind::Join,
            space_x: (0.0, 100.0),
            load_balance: true,
            checkpoint_every: 4,
            keep_checkpoints: 2,
            total_ticks: 50,
        }
    }

    fn cmd(epoch: u64) -> EpochCommand {
        EpochCommand {
            epoch,
            ticks: 5,
            new_x_bounds: if epoch == 2 { Some(vec![0.0, 40.0, 100.0]) } else { None },
            checkpoint: epoch % 2 == 1,
            hist_range: (0.0, 100.0),
        }
    }

    fn done(epoch: u64) -> EpochDoneRecord {
        EpochDoneRecord {
            epoch,
            checkpoint: (epoch + 1).is_multiple_of(2),
            hist_range: (-1.0, 101.0),
            pending_bounds: if epoch == 3 { Some(vec![0.0, 60.0, 100.0]) } else { None },
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("brace-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            ManifestRecord::Header(header()),
            ManifestRecord::Command(cmd(2)),
            ManifestRecord::EpochDone(done(3)),
            ManifestRecord::Complete { ticks: 50, checksum: 0xdead_beef },
        ];
        for r in records {
            assert_eq!(ManifestRecord::decode(r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn a_record_has_one_encoding() {
        let mut long = ManifestRecord::Complete { ticks: 1, checksum: 2 }.encode().to_vec();
        long.push(0);
        assert!(ManifestRecord::decode(long.into()).is_err(), "a trailing byte");
        let mut two = ManifestRecord::EpochDone(done(1)).encode().to_vec();
        two[1 + 8] = 2; // the checkpoint flag, after the tag and the epoch
        assert!(ManifestRecord::decode(two.into()).is_err(), "a bool of 2");
        let mut tag = ManifestRecord::Command(cmd(0)).encode().to_vec();
        tag[1 + 16] = 7; // the bounds' option tag, after the tag, epoch and ticks
        assert!(ManifestRecord::decode(tag.into()).is_err(), "an option tag of 7");
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("rw");
        let mut w = ManifestWriter::create(&dir, &header()).unwrap();
        w.append(&ManifestRecord::Command(cmd(0))).unwrap();
        w.append(&ManifestRecord::EpochDone(done(1))).unwrap();
        drop(w);
        let mut w = ManifestWriter::open_append(&dir).unwrap();
        w.append(&ManifestRecord::Command(cmd(1))).unwrap();
        drop(w);
        let m = read_manifest(&dir).unwrap();
        assert_eq!(m.header, header());
        assert_eq!(m.records.len(), 3);
        assert!(!m.truncated);
        assert_eq!(m.completed_epochs(), 1);
        assert_eq!(m.last_epoch_done().unwrap(), &done(1));
        assert_eq!(m.commands_in(0, 10).iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_trusted() {
        let dir = tmp_dir("torn");
        let mut w = ManifestWriter::create(&dir, &header()).unwrap();
        w.append(&ManifestRecord::Command(cmd(0))).unwrap();
        w.append(&ManifestRecord::EpochDone(done(1))).unwrap();
        drop(w);
        // Simulate a crash mid-append: chop bytes off the tail.
        let path = dir.join(MANIFEST_FILE);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let m = read_manifest(&dir).unwrap();
        assert!(m.truncated);
        assert_eq!(m.records.len(), 1); // EpochDone frame was torn
        assert_eq!(m.completed_epochs(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_the_reader() {
        let dir = tmp_dir("corrupt");
        let mut w = ManifestWriter::create(&dir, &header()).unwrap();
        w.append(&ManifestRecord::Command(cmd(0))).unwrap();
        drop(w);
        let path = dir.join(MANIFEST_FILE);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff;
        std::fs::write(&path, data).unwrap();
        let m = read_manifest(&dir).unwrap();
        assert!(m.truncated);
        assert!(m.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_commands_keep_last_write() {
        let dir = tmp_dir("dup");
        let mut w = ManifestWriter::create(&dir, &header()).unwrap();
        w.append(&ManifestRecord::Command(cmd(0))).unwrap();
        w.append(&ManifestRecord::EpochDone(done(1))).unwrap();
        // Crash + resume re-appends epoch 1's command.
        w.append(&ManifestRecord::Command(cmd(1))).unwrap();
        w.append(&ManifestRecord::Command(cmd(1))).unwrap();
        drop(w);
        let m = read_manifest(&dir).unwrap();
        assert_eq!(m.commands_in(0, 10).iter().map(|c| c.epoch).collect::<Vec<_>>(), vec![0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_header_names_a_known_index() {
        for index in [IndexKind::Join, IndexKind::Scan] {
            let rec = ManifestRecord::Header(RunHeader { index, ..header() });
            assert_eq!(ManifestRecord::decode(rec.encode()).unwrap(), rec);
        }
        let mut bytes = ManifestRecord::Header(header()).encode().to_vec();
        // The index byte follows the tag, two strings, workers, epoch_len and seed.
        let at = 1 + (4 + header().run_id.len()) + (4 + header().job.len()) + 4 + 8 + 8;
        assert_eq!(bytes[at], 0);
        // The bytes of the retired KD-tree and grid runs read as the join.
        for (byte, index) in [(0, IndexKind::Join), (1, IndexKind::Join), (2, IndexKind::Scan)] {
            bytes[at] = byte;
            let decoded = ManifestRecord::decode(bytes.clone().into()).unwrap();
            assert_eq!(decoded, ManifestRecord::Header(RunHeader { index, ..header() }), "index byte {byte}");
        }
        bytes[at] = 3;
        assert!(ManifestRecord::decode(bytes.into()).is_err(), "an index byte of 3");
    }

    #[test]
    fn unassigned_tags_read_as_the_torn_tail() {
        for tag in [4u8, 5] {
            let dir = tmp_dir(&format!("tag{tag}"));
            let mut w = ManifestWriter::create(&dir, &header()).unwrap();
            w.append(&ManifestRecord::Command(cmd(0))).unwrap();
            drop(w);
            // A well-framed record with a retired tag, then a valid record.
            let body = [tag, 0, 0, 0, 0, 0, 0, 0, 0];
            let mut file = std::fs::OpenOptions::new().append(true).open(dir.join(MANIFEST_FILE)).unwrap();
            file.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            file.write_all(&fnv1a(&body).to_le_bytes()).unwrap();
            file.write_all(&body).unwrap();
            drop(file);
            ManifestWriter::open_append(&dir).unwrap().append(&ManifestRecord::EpochDone(done(1))).unwrap();
            let m = read_manifest(&dir).unwrap();
            assert!(m.truncated, "tag {tag}");
            assert_eq!(m.records, vec![ManifestRecord::Command(cmd(0))], "tag {tag}: nothing past it is read");
            assert_eq!(m.completed_epochs(), 0, "tag {tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn create_refuses_existing_manifest() {
        let dir = tmp_dir("exists");
        let _w = ManifestWriter::create(&dir, &header()).unwrap();
        assert!(ManifestWriter::create(&dir, &header()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_runs_finds_manifest_dirs() {
        let root = tmp_dir("list");
        let _a = ManifestWriter::create(&root.join("run-a"), &header()).unwrap();
        let _b = ManifestWriter::create(&root.join("run-b"), &header()).unwrap();
        std::fs::create_dir_all(root.join("not-a-run")).unwrap();
        assert_eq!(list_runs(&root), vec!["run-a".to_string(), "run-b".to_string()]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
