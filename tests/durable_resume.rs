//! Process-restart durability, the honest way: spawn the real `brace`
//! binary on a durable run, **SIGKILL it mid-epoch** (no flushes, no
//! destructors, no courtesy of any kind), then finish the run with
//! `brace run --resume <run-id>` in a second, freshly-started process —
//! and require the final world checksum to be **bit-identical** to an
//! uninterrupted run.
//!
//! This is the end of the golden-checksum suite's chain of custody: the
//! in-process suites prove cluster ≡ single-node and replay ≡ no-fault;
//! this one proves that the write-ahead manifest plus the fsynced
//! checkpoints carry those same bits across an actual process boundary.
//!
//! The child runs with `--epoch-sleep-ms`, a results-neutral per-epoch
//! throttle, so the parent can reliably observe "some epochs durable, run
//! not finished" before pulling the trigger.

mod common;

use brace::mapreduce::manifest;
use brace::scenario::Registry;
use common::{engines_agree, Case, GOLDEN_EPIDEMIC};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BRACE: &str = env!("CARGO_BIN_EXE_brace");
const TICKS: u64 = 20;
const WORKERS: usize = 3;
/// Generous per-epoch throttle: 4 epochs ⇒ ≥ 1 s of runway on any machine.
const EPOCH_SLEEP_MS: u64 = 250;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("brace-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The expected bits: the same conformance run, uninterrupted and
/// in-process, as every engine leg agrees on it.
fn uninterrupted_checksum(scenario: &str) -> u64 {
    engines_agree(Registry::builtin, scenario, &Case::conformance(TICKS))
}

/// Start a durable run in a child process, SIGKILL it once at least two
/// epochs are durable (and well before completion), resume it in a second
/// process, and return the completed run's recorded checksum.
fn kill_and_resume(scenario: &str) -> u64 {
    let root = temp_root(scenario);
    let run_id = format!("{scenario}-kill");
    let dir = root.join(&run_id);

    let mut child = Command::new(BRACE)
        .args([
            "run",
            "--scenario",
            scenario,
            "--conformance",
            "--backend",
            &format!("cluster:{WORKERS}"),
            "--ticks",
            &TICKS.to_string(),
            "--run-dir",
            root.to_str().unwrap(),
            "--run-id",
            &run_id,
            "--checkpoint-every",
            "1",
            "--epoch-sleep-ms",
            &EPOCH_SLEEP_MS.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn brace run");

    // Wait for ≥ 2 durable epochs, then kill. The child sleeps 250 ms per
    // epoch and has 4 to run, so observing epoch 2 leaves ≥ 500 ms of
    // runway — the kill lands mid-run, not post-completion.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(m) = manifest::read_manifest(&dir) {
            assert!(m.complete().is_none(), "child finished before the kill; raise EPOCH_SLEEP_MS");
            if m.completed_epochs() >= 2 {
                break;
            }
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early ({status}) — it was supposed to be killed");
        }
        assert!(Instant::now() < deadline, "no durable epochs after 60 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the child"); // SIGKILL on unix: nothing runs after this
    child.wait().unwrap();

    let m = manifest::read_manifest(&dir).expect("manifest survives the kill");
    assert!(m.complete().is_none(), "a killed run must not be complete");
    let durable_before = m.completed_epochs();
    assert!(durable_before >= 2);

    // A fresh process finishes the job.
    let out = Command::new(BRACE)
        .args(["run", "--run-dir", root.to_str().unwrap(), "--resume", &run_id])
        .output()
        .expect("spawn brace run --resume");
    assert!(
        out.status.success(),
        "resume failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed@"), "resume restarted from scratch instead of restoring: {stdout}");

    let m = manifest::read_manifest(&dir).expect("manifest after resume");
    let (ticks, checksum) = m.complete().expect("resumed run records completion");
    assert_eq!(ticks, TICKS);
    cleanup(&root);
    checksum
}

fn cleanup(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn sigkill_and_resume_is_bit_identical_for_fish() {
    assert_eq!(kill_and_resume("fish"), uninterrupted_checksum("fish"));
}

#[test]
fn sigkill_and_resume_is_bit_identical_for_epidemic() {
    let checksum = kill_and_resume("epidemic");
    assert_eq!(checksum, uninterrupted_checksum("epidemic"));
    // And the absolute bits: the same golden the conformance suite pins.
    assert_eq!(checksum, GOLDEN_EPIDEMIC, "resumed epidemic drifted from the pinned conformance golden");
}

/// A durable run drives no observer and takes its index from the job, so
/// `--trace`, `--index` and `--progress` are refused, not silently dropped:
/// the command fails, names the flag, and creates no run directory.
#[test]
fn durable_runs_refuse_the_flags_they_would_ignore() {
    let root = temp_root("refused");
    let runs = root.join("runs");
    let trace = root.join("trace.ndjson");
    let start =
        ["run", "--scenario", "fish", "--backend", "cluster:2", "--ticks", "5", "--run-dir", runs.to_str().unwrap()];
    let resume = ["run", "--run-dir", runs.to_str().unwrap(), "--resume", "fish-42"];
    for base in [&start[..], &resume[..]] {
        for extra in [&["--trace", trace.to_str().unwrap()][..], &["--index", "grid"], &["--progress"]] {
            let out = Command::new(BRACE).args(base).args(extra).output().expect("spawn brace run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "`{}` succeeded", extra[0]);
            let refusal = format!("{} is not supported on durable runs", extra[0]);
            assert!(stderr.contains(&refusal), "`{}` is not refused by name: {stderr}", extra[0]);
            assert!(!runs.exists(), "`{}` created a run directory", extra[0]);
            assert!(!trace.exists(), "`{}` wrote a trace", extra[0]);
        }
    }
    cleanup(&root);
}
