//! The master node: epoch-granularity coordination.
//!
//! "BRACE's master node only interacts with worker nodes every epoch … so we
//! wish to amortize the overheads related to fault tolerance and load
//! balancing" (§3.3). The master:
//!
//! * broadcasts one [`EpochCommand`] per epoch and waits for every worker's
//!   report;
//! * merges worker statistics and (when enabled) asks the
//!   `LoadBalancer` whether to install new
//!   column boundaries at the next epoch boundary;
//! * triggers coordinated checkpoints on a fixed epoch cadence and keeps the
//!   command log needed to replay forward from the newest one;
//! * recovers from a lost epoch (a [`FaultPlan`](crate::FaultPlan) fault)
//!   by restoring every worker from the newest checkpoint and re-executing
//!   the logged epochs — exact, because ticks are deterministic. `--resume`
//!   in a fresh process goes through the same restore-and-replay. A real
//!   epoch failure (a worker's `Report::Failed`: a bad payload, a closed
//!   link, a panic) ends the run with the first reason read, the failing
//!   worker's own; a durable run then resumes from its newest valid
//!   checkpoint;
//! * when attached to a durable run directory, maintains the write-ahead
//!   [`manifest`](crate::manifest): each epoch's command is journaled
//!   before broadcast and its completion after the checkpoint is durable,
//!   so `--resume` in a *fresh process* lands bit-identically on the
//!   uninterrupted trajectory.

use crate::balance::{BalanceDecision, LoadBalancer};
use crate::checkpoint::{CheckpointStore, ClusterCheckpoint};
use crate::codec;
use crate::manifest::{EpochDoneRecord, ManifestRecord, ManifestWriter};
use crate::net::NetStats;
use crate::runtime::{Command, EpochCommand, Report, WorkerEpochStats};
use brace_common::{BraceError, Result};
use brace_core::Agent;
use brace_telemetry::{Counter as TelCounter, HistId};
use crossbeam::channel::{Receiver, Sender};

/// Run-level statistics kept by the master (see also `NetStats`, which the
/// facade reads in off the run's telemetry registry).
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Live (non-replay) epochs completed.
    pub epochs: u64,
    /// Ticks of simulated time completed (replay does not double-count).
    pub ticks: u64,
    /// Agent-ticks executed in live epochs.
    pub agent_ticks: u64,
    /// Wall time of live epochs (max across workers, summed over epochs).
    pub wall_ns: u64,
    /// Per-epoch wall time (for the Fig. 8 series).
    pub epoch_wall_ns: Vec<u64>,
    /// Per-epoch owned-agent counts per worker (imbalance over time).
    pub agents_per_worker: Vec<Vec<usize>>,
    pub repartitions: u64,
    pub checkpoints: u64,
    pub recoveries: u64,
    pub replayed_epochs: u64,
    /// Worker pool rebuilds during live epochs (pinned to zero by the
    /// pool-resident protocol; restores are the only sanctioned path).
    pub pool_rebuilds: u64,
    /// Full-population `Vec<Agent>` materializations inside live ticks
    /// (also pinned to zero). Only a restore makes one, between epochs;
    /// snapshots are encoded from the pool.
    pub vec_roundtrips: u64,
    /// Always 0: no engine builds a spatial index (the query phase's probe
    /// order is the index). Kept because `perfbench` reports it as
    /// `mapreduce.index_rebuilds`.
    pub index_rebuilds: u64,
    /// 1 for local-effects models, 2 for map-reduce-reduce (Table 1).
    pub comm_rounds_per_tick: u32,
    /// Network totals, read off the run's registry by
    /// [`ClusterSim::stats`](crate::ClusterSim::stats).
    pub net: NetStats,
}

impl ClusterStats {
    /// Agent-ticks per second of wall time — the unit of Figures 5–7.
    pub fn throughput(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.agent_ticks as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Max/mean owned-agent imbalance of the last completed epoch.
    pub fn last_imbalance(&self) -> f64 {
        let Some(last) = self.agents_per_worker.last() else { return 1.0 };
        let total: usize = last.iter().sum();
        if total == 0 || last.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / last.len() as f64;
        *last.iter().max().unwrap() as f64 / mean
    }
}

/// The master half of the runtime. Owns the command/report channels; the
/// facade ([`ClusterSim`](crate::cluster::ClusterSim)) owns the threads.
pub struct Master {
    num_workers: usize,
    epoch_len: u64,
    lb_enabled: bool,
    balancer: LoadBalancer,
    checkpoint_every: Option<u64>,
    cmd_tx: Vec<Sender<Command>>,
    report_rx: Receiver<Report>,
    x_bounds: Vec<f64>,
    hist_range: (f64, f64),
    epoch: u64,
    tick: u64,
    pending_bounds: Option<Vec<f64>>,
    store: CheckpointStore,
    stats: ClusterStats,
    /// Write-ahead run manifest; `None` for ephemeral (non-durable) runs.
    manifest: Option<ManifestWriter>,
}

impl Master {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        num_workers: usize,
        epoch_len: u64,
        lb_enabled: bool,
        balancer: LoadBalancer,
        checkpoint_every: Option<u64>,
        store: CheckpointStore,
        cmd_tx: Vec<Sender<Command>>,
        report_rx: Receiver<Report>,
        x_bounds: Vec<f64>,
    ) -> Self {
        let hist_range = (x_bounds[0], *x_bounds.last().unwrap());
        Master {
            num_workers,
            epoch_len,
            lb_enabled,
            balancer,
            checkpoint_every,
            cmd_tx,
            report_rx,
            x_bounds,
            hist_range,
            epoch: 0,
            tick: 0,
            pending_bounds: None,
            store,
            stats: ClusterStats::default(),
            manifest: None,
        }
    }

    /// Attach the write-ahead run manifest (durable runs only).
    pub fn set_manifest(&mut self, w: ManifestWriter) {
        self.manifest = Some(w);
    }

    /// Append a record to the run manifest, if one is attached.
    pub fn append_manifest(&mut self, rec: &ManifestRecord) -> Result<()> {
        if let Some(m) = &mut self.manifest {
            m.append(rec)?;
        }
        Ok(())
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    pub fn tick(&self) -> u64 {
        self.tick
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn x_bounds(&self) -> &[f64] {
        &self.x_bounds
    }

    /// Take the initial coordinated checkpoint (state before any tick), so
    /// that every failure is recoverable.
    pub fn initial_checkpoint(&mut self) -> Result<()> {
        let workers = self.collect_snapshots()?;
        self.push_checkpoint(0, self.hist_range, workers)
    }

    /// Execute one live epoch: journal the intent, broadcast and gather,
    /// checkpoint, commit, account, decide, journal completion.
    pub fn run_epoch(&mut self) -> Result<()> {
        let checkpoint = self.checkpoint_every.map(|k| (self.epoch + 1).is_multiple_of(k)).unwrap_or(false);
        let cmd = EpochCommand {
            epoch: self.epoch,
            ticks: self.epoch_len,
            new_x_bounds: self.pending_bounds.take(),
            checkpoint,
            hist_range: self.hist_range,
        };
        // Write-ahead: the intent is durable before any worker sees it, so
        // a crash mid-epoch leaves a command with no matching EpochDone —
        // resume re-runs it.
        self.append_manifest(&ManifestRecord::Command(cmd.clone()))?;
        let (reports, snapshots) = self.execute(&cmd)?;
        if cmd.checkpoint {
            let timer = brace_telemetry::timer(HistId::CheckpointWrite);
            self.push_checkpoint(cmd.epoch + 1, cmd.hist_range, snapshots)?;
            timer.stop();
            self.stats.checkpoints += 1;
            brace_telemetry::incr(TelCounter::ClusterCheckpoints);
        }
        self.store.log_command(cmd.clone());
        self.epoch += 1;
        self.tick += cmd.ticks;
        self.stats.ticks += cmd.ticks;
        self.account(&reports);
        self.decide(&reports, cmd.hist_range);
        // Completion carries the post-decide state (histogram range,
        // pending repartition) so resume rebuilds the next command exactly.
        self.append_manifest(&ManifestRecord::EpochDone(EpochDoneRecord {
            epoch: self.epoch,
            checkpoint: cmd.checkpoint,
            hist_range: self.hist_range,
            pending_bounds: self.pending_bounds.clone(),
        }))?;
        Ok(())
    }

    /// Store the coordinated checkpoint taken after `epoch` completed epochs.
    fn push_checkpoint(&mut self, epoch: u64, hist_range: (f64, f64), workers: Vec<bytes::Bytes>) -> Result<()> {
        self.store.push(ClusterCheckpoint {
            epoch,
            tick: epoch * self.epoch_len,
            x_bounds: self.x_bounds.clone(),
            hist_range,
            workers,
        })
    }

    /// Restore every worker from `cp`, then re-execute `commands` verbatim.
    /// Ticks are deterministic, so this reproduces the lost state exactly.
    /// Checkpoint commands re-push their snapshot, so a recovered store
    /// converges to the failure-free store; clocks and the log are
    /// untouched. Returns the last command's reports (empty if none ran).
    fn replay_from(&mut self, cp: &ClusterCheckpoint, commands: &[EpochCommand]) -> Result<Vec<WorkerEpochStats>> {
        if cp.workers.len() != self.num_workers {
            return Err(BraceError::Unrecoverable(format!(
                "checkpoint has {} workers, cluster has {}",
                cp.workers.len(),
                self.num_workers
            )));
        }
        for (i, tx) in self.cmd_tx.iter().enumerate() {
            tx.send(Command::Restore { snapshot: cp.workers[i].clone(), x_bounds: cp.x_bounds.clone() })
                .map_err(|_| BraceError::Unrecoverable("worker channel closed".into()))?;
        }
        self.x_bounds = cp.x_bounds.clone();
        let mut last = Vec::new();
        for cmd in commands {
            let (reports, snapshots) = self.execute(cmd)?;
            if cmd.checkpoint {
                self.push_checkpoint(cmd.epoch + 1, cmd.hist_range, snapshots)?;
            }
            self.stats.replayed_epochs += 1;
            last = reports;
        }
        Ok(last)
    }

    /// Broadcast `cmd` and gather one report per worker (ordered by worker
    /// index). Returns the per-worker stats and checkpoint snapshots.
    fn execute(&mut self, cmd: &EpochCommand) -> Result<(Vec<WorkerEpochStats>, Vec<bytes::Bytes>)> {
        if let Some(b) = &cmd.new_x_bounds {
            self.x_bounds = b.clone();
        }
        for tx in &self.cmd_tx {
            tx.send(Command::RunEpoch(cmd.clone()))
                .map_err(|_| BraceError::Unrecoverable("worker channel closed".into()))?;
        }
        let mut stats: Vec<Option<WorkerEpochStats>> = (0..self.num_workers).map(|_| None).collect();
        let mut snaps: Vec<Option<bytes::Bytes>> = (0..self.num_workers).map(|_| None).collect();
        for _ in 0..self.num_workers {
            match self.report_rx.recv() {
                Ok(Report::EpochDone { worker, stats: s, snapshot }) => {
                    snaps[worker.index()] = snapshot;
                    stats[worker.index()] = Some(s);
                }
                Ok(Report::Failed { worker, reason }) => {
                    return Err(BraceError::Unrecoverable(format!("{worker} failed epoch {}: {reason}", cmd.epoch)))
                }
                Ok(other) => {
                    return Err(BraceError::Unrecoverable(format!("unexpected report {other:?} during epoch")))
                }
                Err(_) => return Err(BraceError::Unrecoverable("a worker died without checkpoint protocol".into())),
            }
        }
        let snapshots = if cmd.checkpoint { from_every_worker(snaps, "checkpoint snapshot")? } else { Vec::new() };
        Ok((from_every_worker(stats, "epoch report")?, snapshots))
    }

    /// Merge an epoch's worker reports into run statistics.
    fn account(&mut self, reports: &[WorkerEpochStats]) {
        self.stats.epochs += 1;
        let wall = reports.iter().map(|r| r.wall_ns).max().unwrap_or(0);
        // Barrier wait per worker: how long each worker idled at the epoch
        // barrier while the straggler (max wall) finished.
        brace_telemetry::incr(TelCounter::ClusterEpochs);
        for r in reports {
            brace_telemetry::observe(HistId::EpochBarrierWait, wall.saturating_sub(r.wall_ns));
        }
        self.stats.wall_ns += wall;
        self.stats.epoch_wall_ns.push(wall);
        self.stats.agent_ticks += reports.iter().map(|r| r.agent_ticks).sum::<u64>();
        self.stats.agents_per_worker.push(reports.iter().map(|r| r.owned_agents).collect());
        self.stats.pool_rebuilds += reports.iter().map(|r| r.pool_rebuilds).sum::<u64>();
        self.stats.vec_roundtrips += reports.iter().map(|r| r.vec_roundtrips).sum::<u64>();
        self.stats.comm_rounds_per_tick = reports.iter().map(|r| r.comm_rounds_per_tick).max().unwrap_or(1);
    }

    /// Update the histogram range and ask the balancer about the next epoch.
    /// `used_range` is the range the workers computed `reports`' histograms
    /// over — the executed command's `hist_range`.
    fn decide(&mut self, reports: &[WorkerEpochStats], used_range: (f64, f64)) {
        // Widen/track the histogram range from observed extents (fish swim
        // out of the initial space; the range must follow them).
        let xmin = reports.iter().map(|r| r.x_min).fold(f64::INFINITY, f64::min);
        let xmax = reports.iter().map(|r| r.x_max).fold(f64::NEG_INFINITY, f64::max);
        if xmin.is_finite() && xmax.is_finite() && xmax > xmin {
            let margin = (xmax - xmin) * 0.05 + 1e-6;
            self.hist_range = (xmin - margin, xmax + margin);
        }
        if !self.lb_enabled {
            return;
        }
        // Merge per-worker histograms (all over the same command range).
        let bins = reports.first().map(|r| r.x_hist.len()).unwrap_or(0);
        let mut hist = vec![0u64; bins];
        for r in reports {
            for (h, &v) in hist.iter_mut().zip(&r.x_hist) {
                *h += v;
            }
        }
        let counts: Vec<u64> = reports.iter().map(|r| r.owned_agents as u64).collect();
        match self.balancer.decide(&self.x_bounds, &counts, &hist, used_range, self.epoch_len) {
            BalanceDecision::Keep => {}
            BalanceDecision::Repartition { x_bounds, .. } => {
                self.pending_bounds = Some(x_bounds);
                self.stats.repartitions += 1;
            }
        }
    }

    /// Recover from the loss of all live worker state during epoch
    /// `failed_epoch` (0-based; that epoch's results — including any
    /// checkpoint it would have written — are gone): restore every worker
    /// from the newest surviving checkpoint that loads (a durable run reads
    /// it from its file) and replay the logged epochs.
    pub fn recover(&mut self, failed_epoch: u64) -> Result<()> {
        self.store.discard_after(failed_epoch);
        let cp = self.store.restore_point()?;
        self.stats.recoveries += 1;
        let log = self.store.replay_since(cp.epoch);
        let reports = self.replay_from(&cp, &log)?;
        // Re-derive the pending decision from the final replayed epoch so
        // the post-recovery trajectory matches a failure-free run exactly.
        if let Some(last) = log.last() {
            self.pending_bounds = None;
            self.decide(&reports, last.hist_range);
        }
        Ok(())
    }

    /// Reconstruct run state in a **fresh process**: seed the store (it
    /// adopts `cp`, whose file it neither rewrites nor prunes, and the
    /// replay log), restore every worker from `cp`,
    /// re-execute the `completed` epochs past it, and land the clocks and
    /// post-decide state exactly where the interrupted run's manifest says
    /// they were. Bit-identical to never having crashed, because replayed
    /// ticks are deterministic.
    pub fn resume_from(
        &mut self,
        cp: &ClusterCheckpoint,
        completed: &[EpochCommand],
        hist_range: (f64, f64),
        pending_bounds: Option<Vec<f64>>,
    ) -> Result<()> {
        self.store.adopt(cp);
        for cmd in completed {
            self.store.log_command(cmd.clone());
        }
        self.replay_from(cp, completed)?;
        self.epoch = cp.epoch + completed.len() as u64;
        self.tick = self.epoch * self.epoch_len;
        self.hist_range = hist_range;
        self.pending_bounds = pending_bounds;
        Ok(())
    }

    /// Gather every worker's current agents (sorted by id).
    pub fn collect_agents(&mut self) -> Result<Vec<Agent>> {
        let snaps = self.collect_snapshots()?;
        let mut agents: Vec<Agent> = Vec::new();
        for snap in snaps {
            agents.extend(codec::decode_snapshot(snap)?.agents);
        }
        agents.sort_by_key(|a| a.id);
        Ok(agents)
    }

    /// Snapshot every worker (serialized `WorkerSnapshot`s by index).
    pub fn collect_snapshots(&mut self) -> Result<Vec<bytes::Bytes>> {
        for tx in &self.cmd_tx {
            tx.send(Command::Collect).map_err(|_| BraceError::Unrecoverable("worker channel closed".into()))?;
        }
        let mut snaps: Vec<Option<bytes::Bytes>> = (0..self.num_workers).map(|_| None).collect();
        for _ in 0..self.num_workers {
            match self.report_rx.recv() {
                Ok(Report::Collected { worker, snapshot }) => snaps[worker.index()] = Some(snapshot),
                Ok(other) => {
                    return Err(BraceError::Unrecoverable(format!("unexpected report {other:?} during collect")))
                }
                Err(_) => return Err(BraceError::Unrecoverable("worker died during collect".into())),
            }
        }
        from_every_worker(snaps, "snapshot to collect")
    }

    /// Ask all workers to stop (the facade joins the threads).
    pub fn stop(&mut self) {
        for tx in &self.cmd_tx {
            let _ = tx.send(Command::Stop);
        }
    }
}

/// One entry per worker, by index, or `Err` if a worker sent no `what`.
fn from_every_worker<T>(slots: Vec<Option<T>>, what: &str) -> Result<Vec<T>> {
    slots
        .into_iter()
        .collect::<Option<_>>()
        .ok_or_else(|| BraceError::Unrecoverable(format!("a worker sent no {what}")))
}
