//! Durable runs: crash-safe jobs under one root directory.
//!
//! A durable run is an ordinary [`Runner`](crate::Runner) run on a cluster
//! backend whose `ClusterConfig::run_dir` is set: every coordinated
//! checkpoint appends to the write-ahead manifest in that directory
//! (`manifest.brace`, fsynced, checksummed per record — see
//! `brace_mapreduce::manifest`), and [`Runner::run`](crate::Runner::run)
//! records the job line and tick horizon in its header and a `Complete`
//! record at the end. If the process dies — crash, SIGKILL, power loss —
//! [`DurableRunner::resume`] reads the manifest back in a *fresh* process,
//! rebuilds the behavior from the recorded job line, restores the workers
//! from the newest valid on-disk checkpoint, replays the logged epoch
//! commands, and finishes the run the way `Runner::run` does,
//! **bit-identically** to the uninterrupted execution
//! (`tests/durable_resume.rs` proves this across a real `SIGKILL`).
//! [`DurableRunner::list`] summarizes what is on disk.
//!
//! The job line in the manifest header (`scenario=… size=… conformance=…`)
//! plus the recorded seed fully identify the behavior, because scenario
//! builds are pure functions of `(size, seed)` — that is the
//! [`Scenario`](crate::Scenario) determinism contract doing durability
//! work.

use crate::jobline::JobSpec;
use crate::runner::{finish, Observer, RunReport, SimHandle, Throttle};
use crate::{conformance_setup, Registry};
use brace_common::{BraceError, Result};
use brace_mapreduce::{manifest, ClusterConfig, ClusterSim};
use std::path::PathBuf;
use std::time::Duration;

/// One row of [`DurableRunner::list`].
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Run directory name.
    pub run_id: String,
    /// The recorded job line (`scenario=… size=… conformance=…`).
    pub job: String,
    /// Worker count recorded in the manifest header.
    pub workers: u32,
    /// Ticks durably completed (epochs with an `EpochDone` record).
    pub completed_ticks: u64,
    /// The job's horizon from the header.
    pub total_ticks: u64,
    /// `Some((ticks, checksum))` once a `Complete` record is on disk.
    pub complete: Option<(u64, u64)>,
    /// The manifest tail was torn (crash mid-append); everything up to the
    /// tear is still trusted and resumable.
    pub truncated: bool,
}

/// Resume / list crash-safe runs under one root directory (a run starts
/// through [`Runner`](crate::Runner)).
pub struct DurableRunner<'r> {
    registry: &'r Registry,
    root: PathBuf,
    observers: Vec<Box<dyn Observer>>,
}

impl<'r> DurableRunner<'r> {
    pub fn new(registry: &'r Registry, root: impl Into<PathBuf>) -> Self {
        DurableRunner { registry, root: root.into(), observers: Vec::new() }
    }

    /// Attach an observer to the resumed run (any number may be attached).
    pub fn observe(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Resume `root/<run-id>/` in this process: read the manifest, rebuild
    /// the behavior from the recorded job line and seed, restore from the
    /// newest valid checkpoint, replay the logged epoch commands, and run
    /// the remaining ticks, sleeping `epoch_sleep_ms` after each epoch
    /// ([`Throttle`]) and driving the attached observers. Bit-identical to
    /// never having crashed.
    pub fn resume(self, run_id: &str, epoch_sleep_ms: u64) -> Result<RunReport> {
        let dir = self.root.join(run_id);
        let m = manifest::read_manifest(&dir)?;
        if let Some((ticks, checksum)) = m.complete() {
            return Err(BraceError::Config(format!(
                "run `{run_id}` already completed {ticks} ticks (checksum {checksum:#018x}); nothing to resume"
            )));
        }
        let job = JobSpec::parse(&m.header.job)?;
        let scenario = self.registry.get_or_err(&job.scenario)?;
        let seed = m.header.seed;
        let setup =
            if job.conformance { conformance_setup(scenario, seed)? } else { scenario.build(job.size, seed)? };
        let cfg = ClusterConfig {
            workers: m.header.workers as usize,
            epoch_len: m.header.epoch_len,
            index: m.header.index,
            seed,
            space_x: m.header.space_x,
            load_balance: m.header.load_balance,
            checkpoint_every: (m.header.checkpoint_every > 0).then_some(m.header.checkpoint_every),
            keep_checkpoints: (m.header.keep_checkpoints as usize).max(1),
            run_dir: Some(dir),
            job: m.header.job.clone(),
            total_ticks: m.header.total_ticks,
            ..ClusterConfig::default()
        };
        let (sim, _) = ClusterSim::resume(setup.behavior, cfg)?;
        let resumed_from = sim.tick();
        let mut observers: Vec<Box<dyn Observer>> = vec![Box::new(Throttle(Duration::from_millis(epoch_sleep_ms)))];
        observers.extend(self.observers);
        let remaining = m.header.total_ticks.saturating_sub(resumed_from);
        finish(scenario, SimHandle::resumed(sim, observers), remaining, resumed_from)
    }

    /// Summaries of every run under the root, sorted by run id. Unreadable
    /// manifests are skipped (a run directory is only as good as its
    /// manifest).
    pub fn list(&self) -> Vec<RunSummary> {
        manifest::list_runs(&self.root)
            .into_iter()
            .filter_map(|run_id| {
                let m = manifest::read_manifest(&self.root.join(&run_id)).ok()?;
                Some(RunSummary {
                    run_id,
                    job: m.header.job.clone(),
                    workers: m.header.workers,
                    completed_ticks: m.completed_epochs() * m.header.epoch_len,
                    total_ticks: m.header.total_ticks,
                    complete: m.complete(),
                    truncated: m.truncated,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Runner};
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("brace-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A durable `cluster:2` under `root/<run_id>`, a checkpoint every epoch.
    fn durable(root: &Path, run_id: &str, total_ticks: u64) -> Backend {
        let run_dir = Some(root.join(run_id));
        Backend::Cluster(ClusterConfig {
            workers: 2,
            checkpoint_every: Some(1),
            run_dir,
            total_ticks,
            ..Default::default()
        })
    }

    #[test]
    fn job_line_round_trips() {
        // The shared jobline module owns the format; this pins that durable
        // manifests keep round-tripping through it.
        for (size, conformance) in [(None, true), (Some(123), false), (None, false)] {
            let job = JobSpec { scenario: "fish".into(), size, conformance };
            assert_eq!(JobSpec::parse(&job.encode()).unwrap(), job);
        }
        assert!(JobSpec::parse("size=3").is_err(), "a job line without a scenario must be rejected");
        assert!(JobSpec::parse("scenario=fish size=many").is_err());
        // Unknown keys from a newer writer are skipped, not fatal.
        assert!(JobSpec::parse("scenario=fish shiny=new").is_ok());
    }

    /// `Runner::run` into a run directory is a complete durable job: the
    /// manifest names the runner's own job and records completion, resuming
    /// it is an explicit error, and a second run into it is refused.
    #[test]
    fn run_completes_and_lists_and_refuses_double_start() {
        let root = temp_root("run");
        let registry = Registry::builtin();
        let (epidemic, fish) = (registry.get("epidemic").unwrap(), registry.get("fish").unwrap());
        let report = Runner::new(epidemic).conformance().backend(durable(&root, "epidemic-42", 0)).run(20).unwrap();
        assert_eq!((report.ticks, report.resumed_from), (20, 0));
        let sized = Runner::new(fish).population(60).backend(durable(&root, "fish-60", 0)).run(4).unwrap();

        let runner = DurableRunner::new(&registry, &root);
        let runs = runner.list();
        assert_eq!(runs.len(), 2);
        let jobs = [("epidemic", None, true, &report), ("fish", Some(60), false, &sized)];
        for (run, (scenario, size, conformance, report)) in runs.iter().zip(jobs) {
            assert_eq!(run.complete, Some((report.ticks, report.checksum)), "{}: no Complete record", run.run_id);
            assert_eq!((run.completed_ticks, run.total_ticks), (report.ticks, report.ticks));
            assert!(!run.truncated);
            let job = JobSpec { scenario: scenario.into(), size, conformance };
            assert_eq!(JobSpec::parse(&run.job).unwrap(), job, "the header names another job");
        }

        // Same run directory again: the manifest already exists — identity, not scratch.
        let again = Runner::new(epidemic).conformance().backend(durable(&root, "epidemic-42", 0)).run(20);
        let err = again.unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        // And resuming a complete run is an explicit error, not a silent no-op.
        let err = runner.resume("epidemic-42", 0).unwrap_err();
        assert!(err.to_string().contains("already completed"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A durable run without a horizon could never be resumed to its end:
    /// `Runner::run` refuses it before creating the run directory.
    #[test]
    fn a_durable_run_needs_a_positive_horizon() {
        let root = temp_root("zero");
        let registry = Registry::builtin();
        let runner = Runner::new(registry.get("epidemic").unwrap()).conformance();
        let err = runner.backend(durable(&root, "zero", 0)).run(0).unwrap_err();
        assert!(err.to_string().contains("a durable run needs a positive tick horizon"), "{err}");
        assert!(!root.join("zero").exists(), "the refused run created its directory");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The tentpole contract, in-process: abandon a run mid-flight (the
    /// simulated crash — the fabric is dropped without any shutdown
    /// courtesy), resume it from disk with a freshly rebuilt behavior, and
    /// land on the same bits as a never-interrupted run.
    #[test]
    fn abandoned_run_resumes_bit_identically() {
        let root = temp_root("abandoned");
        let registry = Registry::builtin();
        let epidemic = registry.get("epidemic").unwrap();
        let clean = Runner::new(epidemic).conformance().backend(durable(&root, "clean", 0)).run(20).unwrap();

        let mut handle = Runner::new(epidemic).conformance().backend(durable(&root, "crash", 20)).launch().unwrap();
        handle.run(10).unwrap();
        drop(handle); // the "crash": no Complete record, no graceful anything

        let runner = DurableRunner::new(&registry, &root);
        let crashed = runner.list().into_iter().find(|r| r.run_id == "crash").unwrap();
        assert!(crashed.complete.is_none());
        // Two epochs of length 5 ran before the crash; both must have
        // durable EpochDone records.
        assert_eq!((crashed.completed_ticks, crashed.total_ticks), (10, 20));

        let resumed = runner.resume("crash", 0).unwrap();
        assert!(resumed.resumed_from > 0, "resume must restore mid-run, not restart");
        assert_eq!(resumed.ticks, clean.ticks);
        assert_eq!(resumed.checksum, clean.checksum, "resumed run diverged from the uninterrupted run");
        assert_eq!(resumed.agents, clean.agents);
        let _ = std::fs::remove_dir_all(&root);
    }
}
