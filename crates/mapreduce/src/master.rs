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
//! * recovers from a (simulated) worker failure by restoring every worker
//!   from the last checkpoint and re-executing the logged epochs — exact,
//!   because ticks are deterministic;
//! * retries a failing epoch with bounded backoff, and when one worker's
//!   partition keeps failing past the [`RetryPolicy`] budget, **dead-letters**
//!   it: the run continues degraded (the partition's agents are dropped and
//!   reported in the manifest) instead of aborting;
//! * when attached to a durable run directory, maintains the write-ahead
//!   [`manifest`](crate::manifest): each epoch's command is journaled
//!   before broadcast and its completion after the checkpoint is durable,
//!   so `--resume` in a *fresh process* lands bit-identically on the
//!   uninterrupted trajectory.

use crate::balance::{BalanceDecision, LoadBalancer};
use crate::checkpoint::{CheckpointStore, ClusterCheckpoint};
use crate::codec;
use crate::manifest::{DeadLetterRecord, EpochDoneRecord, ManifestRecord, ManifestWriter};
use crate::net::NetStats;
use crate::runtime::{Command, EpochCommand, Report, WorkerEpochStats};
use brace_common::{BraceError, Result, WorkerId};
use brace_core::Agent;
use brace_telemetry::{Counter as TelCounter, HistId, Telemetry};
use crossbeam::channel::{Receiver, Sender};
use std::time::{Duration, Instant};

/// Bounded-backoff retry budget for a failing epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per epoch before the failing partition is dead-lettered.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Ceiling on any single delay.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_base_ms: 5, backoff_cap_ms: 100 }
    }
}

impl RetryPolicy {
    /// Delay before retrying after `attempt` failed attempts (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let ms = self.backoff_base_ms.saturating_mul(1u64 << shift);
        Duration::from_millis(ms.min(self.backoff_cap_ms))
    }
}

/// An injected worker failure (fault plan for tests/benchmarks): worker
/// `worker` fails `failures` consecutive attempts of epoch `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    pub worker: u32,
    /// Epoch (0-based) whose attempts fail.
    pub epoch: u64,
    /// Consecutive attempts that fail before the worker heals. Set this at
    /// or above the retry budget to force a dead-letter.
    pub failures: u32,
}

#[derive(Debug, Clone, Copy)]
struct FaultState {
    fault: WorkerFault,
    attempts_done: u32,
    resolved: bool,
}

/// Run-level statistics kept by the master (see also
/// `NetStats` (merged in by the facade).
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
    /// Epoch attempts retried after an injected worker failure.
    pub retries: u64,
    /// Partitions abandoned after exhausting the retry budget.
    pub dead_letters: u64,
    /// Agents dropped with dead-lettered partitions.
    pub agents_lost: u64,
    /// Full replica records received across workers (band entrants).
    pub replicas_in: u64,
    /// Replica delta updates received across workers (persisting replicas
    /// refreshed in place — the delta-distribution steady state).
    pub replica_deltas_in: u64,
    /// Ownership transfers received across workers.
    pub transfers_in: u64,
    /// Worker pool rebuilds during live epochs (pinned to zero by the
    /// pool-resident protocol; restores are the only sanctioned path).
    pub pool_rebuilds: u64,
    /// Full-population `Vec<Agent>` materializations inside live ticks
    /// (also pinned to zero — snapshots at epoch boundaries don't count).
    pub vec_roundtrips: u64,
    /// Full spatial-index rebuilds across workers during live epochs.
    pub index_rebuilds: u64,
    /// 1 for local-effects models, 2 for map-reduce-reduce (Table 1).
    pub comm_rounds_per_tick: u32,
    /// Network totals, snapshotted by the facade.
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
    retry: RetryPolicy,
    worker_faults: Vec<FaultState>,
    /// Telemetry handle captured at construction (no-op when disabled).
    tel: Telemetry,
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
            retry: RetryPolicy::default(),
            worker_faults: Vec::new(),
            tel: Telemetry::current(),
        }
    }

    /// Attach the write-ahead run manifest (durable runs only).
    pub fn set_manifest(&mut self, w: ManifestWriter) {
        self.manifest = Some(w);
    }

    pub fn set_retry_policy(&mut self, p: RetryPolicy) {
        self.retry = p;
    }

    /// Install the injected worker-failure plan.
    pub fn set_worker_faults(&mut self, faults: Vec<WorkerFault>) {
        self.worker_faults =
            faults.into_iter().map(|fault| FaultState { fault, attempts_done: 0, resolved: false }).collect();
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
        self.store.push(ClusterCheckpoint {
            epoch: 0,
            tick: 0,
            x_bounds: self.x_bounds.clone(),
            hist_range: self.hist_range,
            workers,
        })?;
        Ok(())
    }

    /// Execute one live epoch: journal the intent, broadcast, gather
    /// (retrying failed attempts within the [`RetryPolicy`] budget),
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
        let mut attempt = 0u32;
        let reports = loop {
            attempt += 1;
            let (reports, snapshots) = self.execute(&cmd)?;
            if let Some(worker) = self.injected_failure(cmd.epoch) {
                if attempt >= self.retry.max_attempts {
                    self.dead_letter(worker, cmd.epoch, attempt)?;
                } else {
                    self.stats.retries += 1;
                    std::thread::sleep(self.retry.backoff(attempt));
                    self.restore_and_replay()?;
                }
                continue;
            }
            if cmd.checkpoint {
                let timer = self.tel.timer(HistId::CheckpointWrite);
                self.store.push(ClusterCheckpoint {
                    epoch: cmd.epoch + 1,
                    tick: (cmd.epoch + 1) * self.epoch_len,
                    x_bounds: self.x_bounds.clone(),
                    hist_range: cmd.hist_range,
                    workers: snapshots,
                })?;
                timer.stop();
                self.stats.checkpoints += 1;
                self.tel.incr(TelCounter::ClusterCheckpoints);
            }
            break reports;
        };
        self.store.log_command(cmd.clone());
        self.epoch += 1;
        self.tick += cmd.ticks;
        self.account(&reports);
        self.decide(&reports);
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

    /// Re-execute one logged command during recovery/resume. Checkpoint
    /// commands re-push their snapshot, so a recovered store converges to
    /// the failure-free store. Clocks and the log are untouched.
    fn replay_command(&mut self, cmd: &EpochCommand) -> Result<Vec<WorkerEpochStats>> {
        let (reports, snapshots) = self.execute(cmd)?;
        if cmd.checkpoint {
            self.store.push(ClusterCheckpoint {
                epoch: cmd.epoch + 1,
                tick: (cmd.epoch + 1) * self.epoch_len,
                x_bounds: self.x_bounds.clone(),
                hist_range: cmd.hist_range,
                workers: snapshots,
            })?;
        }
        self.stats.replayed_epochs += 1;
        Ok(reports)
    }

    /// Next injected failure matching `epoch`, consuming one scheduled
    /// attempt.
    fn injected_failure(&mut self, epoch: u64) -> Option<u32> {
        for f in &mut self.worker_faults {
            if !f.resolved && f.fault.epoch == epoch && f.attempts_done < f.fault.failures {
                f.attempts_done += 1;
                return Some(f.fault.worker);
            }
        }
        None
    }

    /// Restore every worker from the newest checkpoint and replay the
    /// logged epochs (mid-epoch retry: the interrupted epoch was never
    /// committed, so clocks and log are already correct).
    fn restore_and_replay(&mut self) -> Result<()> {
        let cp = self
            .store
            .latest()
            .cloned()
            .ok_or_else(|| BraceError::Unrecoverable("no checkpoint to recover from".into()))?;
        self.restore_workers(&cp)?;
        self.stats.recoveries += 1;
        for cmd in &self.store.replay_since(cp.epoch) {
            self.replay_command(cmd)?;
        }
        Ok(())
    }

    /// Abandon `worker`'s partition: restore from the newest checkpoint
    /// with that worker's snapshot emptied, replay forward, and record the
    /// loss in the manifest. The run continues degraded — reported, not
    /// aborted.
    fn dead_letter(&mut self, worker: u32, epoch: u64, attempts: u32) -> Result<()> {
        let mut cp = self
            .store
            .latest()
            .cloned()
            .ok_or_else(|| BraceError::Unrecoverable("no checkpoint to dead-letter against".into()))?;
        let mut snap = codec::decode_snapshot(cp.workers[worker as usize].clone())?;
        let agents_lost = snap.agents.len() as u64;
        snap.agents.clear();
        cp.workers[worker as usize] = codec::encode_snapshot(&snap);
        self.restore_workers(&cp)?;
        self.stats.recoveries += 1;
        for cmd in &self.store.replay_since(cp.epoch) {
            self.replay_command(cmd)?;
        }
        for f in &mut self.worker_faults {
            if f.fault.worker == worker && f.fault.epoch == epoch {
                f.resolved = true;
            }
        }
        self.stats.dead_letters += 1;
        self.stats.agents_lost += agents_lost;
        self.append_manifest(&ManifestRecord::DeadLetter(DeadLetterRecord {
            worker,
            epoch,
            attempts,
            agents_lost,
            reason: "retry budget exhausted".into(),
        }))?;
        Ok(())
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
        let stats: Vec<WorkerEpochStats> = stats.into_iter().map(|s| s.expect("worker reported")).collect();
        let snapshots: Vec<bytes::Bytes> = if cmd.checkpoint {
            snaps.into_iter().map(|s| s.expect("checkpoint snapshot")).collect()
        } else {
            Vec::new()
        };
        Ok((stats, snapshots))
    }

    /// Merge an epoch's worker reports into run statistics.
    fn account(&mut self, reports: &[WorkerEpochStats]) {
        self.stats.epochs += 1;
        let wall = reports.iter().map(|r| r.wall_ns).max().unwrap_or(0);
        // Barrier wait per worker: how long each worker idled at the epoch
        // barrier while the straggler (max wall) finished.
        self.tel.incr(TelCounter::ClusterEpochs);
        for r in reports {
            self.tel.observe(HistId::EpochBarrierWait, wall.saturating_sub(r.wall_ns));
        }
        self.stats.wall_ns += wall;
        self.stats.epoch_wall_ns.push(wall);
        self.stats.agent_ticks += reports.iter().map(|r| r.agent_ticks).sum::<u64>();
        self.stats.agents_per_worker.push(reports.iter().map(|r| r.owned_agents).collect());
        self.stats.replicas_in += reports.iter().map(|r| r.replicas_in).sum::<u64>();
        self.stats.replica_deltas_in += reports.iter().map(|r| r.replica_deltas_in).sum::<u64>();
        self.stats.transfers_in += reports.iter().map(|r| r.transfers_in).sum::<u64>();
        self.stats.pool_rebuilds += reports.iter().map(|r| r.pool_rebuilds).sum::<u64>();
        self.stats.vec_roundtrips += reports.iter().map(|r| r.vec_roundtrips).sum::<u64>();
        self.stats.index_rebuilds += reports.iter().map(|r| r.index_rebuilds).sum::<u64>();
        self.stats.comm_rounds_per_tick = reports.iter().map(|r| r.comm_rounds_per_tick).max().unwrap_or(1);
    }

    /// Update the histogram range and ask the balancer about the next epoch.
    fn decide(&mut self, reports: &[WorkerEpochStats]) {
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
        // Histograms were computed over the *command's* range, which at this
        // point is still `self.hist_range` from before the update above only
        // if no drift happened; to stay exact we recompute decisions against
        // the range the workers actually used — which the balancer receives.
        let used_range =
            reports.iter().map(|_| ()).next().map(|_| self.last_command_range()).unwrap_or(self.hist_range);
        match self.balancer.decide(&self.x_bounds, &counts, &hist, used_range) {
            BalanceDecision::Keep => {}
            BalanceDecision::Repartition { x_bounds, .. } => {
                self.pending_bounds = Some(x_bounds);
                self.stats.repartitions += 1;
            }
        }
    }

    /// Range the previous epoch's histograms were computed over: the
    /// current log/commands carry it; fall back to the live value.
    fn last_command_range(&self) -> (f64, f64) {
        self.store.replay_log().last().map(|c| c.hist_range).unwrap_or(self.hist_range)
    }

    /// Recover from the loss of all live worker state during epoch
    /// `failed_epoch` (0-based; that epoch's results — including any
    /// checkpoint it would have written — are gone). Restores every worker
    /// from the newest surviving checkpoint and replays the logged epochs.
    pub fn recover(&mut self, failed_epoch: u64) -> Result<()> {
        self.store.discard_after(failed_epoch);
        let cp = self
            .store
            .latest()
            .cloned()
            .ok_or_else(|| BraceError::Unrecoverable("no checkpoint to recover from".into()))?;
        self.restore_workers(&cp)?;
        self.stats.recoveries += 1;
        // Re-execute every epoch since the snapshot, verbatim. Ticks are
        // deterministic, so this reproduces the lost state exactly.
        let log = self.store.replay_since(cp.epoch);
        let mut last_reports: Option<Vec<WorkerEpochStats>> = None;
        for cmd in &log {
            let reports = self.replay_command(cmd)?;
            last_reports = Some(reports);
        }
        // Re-derive the pending decision from the final replayed epoch so
        // the post-recovery trajectory matches a failure-free run exactly.
        if let Some(reports) = &last_reports {
            self.pending_bounds = None;
            self.decide(reports);
        }
        Ok(())
    }

    /// Send every worker its snapshot from `cp` and install the
    /// checkpoint's column bounds.
    fn restore_workers(&mut self, cp: &ClusterCheckpoint) -> Result<()> {
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
        Ok(())
    }

    /// Reconstruct run state in a **fresh process**: restore every worker
    /// from `cp`, seed the in-memory store (checkpoint + replay log),
    /// re-execute the `completed` epochs past the checkpoint, and land the
    /// clocks and post-decide state exactly where the interrupted run's
    /// manifest says they were. Bit-identical to never having crashed,
    /// because replayed ticks are deterministic.
    pub fn resume_from(
        &mut self,
        cp: &ClusterCheckpoint,
        completed: &[EpochCommand],
        hist_range: (f64, f64),
        pending_bounds: Option<Vec<f64>>,
    ) -> Result<()> {
        self.restore_workers(cp)?;
        self.store.push(cp.clone())?;
        for cmd in completed {
            self.replay_command(cmd)?;
            self.store.log_command(cmd.clone());
        }
        self.epoch = cp.epoch + completed.len() as u64;
        self.tick = self.epoch * self.epoch_len;
        self.hist_range = hist_range;
        self.pending_bounds = pending_bounds;
        Ok(())
    }

    /// Swap the worker fabric (elastic membership). History cannot span a
    /// membership change, so retained checkpoints and the replay log are
    /// dropped — the caller must follow up with restores into the new
    /// fabric and a [`Master::force_checkpoint`].
    pub fn replace_fabric(
        &mut self,
        num_workers: usize,
        cmd_tx: Vec<Sender<Command>>,
        report_rx: Receiver<Report>,
        x_bounds: Vec<f64>,
    ) {
        self.num_workers = num_workers;
        self.cmd_tx = cmd_tx;
        self.report_rx = report_rx;
        self.x_bounds = x_bounds;
        self.pending_bounds = None;
        self.store.reset();
    }

    /// Push one worker's state into the fabric (membership migration).
    pub fn restore_worker(&mut self, worker: usize, snapshot: bytes::Bytes) -> Result<()> {
        self.cmd_tx[worker]
            .send(Command::Restore { snapshot, x_bounds: self.x_bounds.clone() })
            .map_err(|_| BraceError::Unrecoverable("worker channel closed".into()))
    }

    /// Take a coordinated checkpoint at the current clocks (outside the
    /// regular cadence — e.g. right after a membership change).
    pub fn force_checkpoint(&mut self) -> Result<()> {
        let workers = self.collect_snapshots()?;
        self.store.push(ClusterCheckpoint {
            epoch: self.epoch,
            tick: self.tick,
            x_bounds: self.x_bounds.clone(),
            hist_range: self.hist_range,
            workers,
        })?;
        self.stats.checkpoints += 1;
        self.tel.incr(TelCounter::ClusterCheckpoints);
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
        Ok(snaps.into_iter().map(|s| s.expect("collected")).collect())
    }

    /// Ask all workers to stop (the facade joins the threads).
    pub fn stop(&mut self) {
        for tx in &self.cmd_tx {
            let _ = tx.send(Command::Stop);
        }
    }

    /// Wall-clock instrumentation hook used by the facade.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_nanos() as u64)
    }

    /// Workers addressed by this master (test/diagnostic).
    pub fn worker_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..self.num_workers as u32).map(WorkerId::new)
    }
}
