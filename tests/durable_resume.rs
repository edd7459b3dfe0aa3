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

use brace::mapreduce::{manifest, ClusterConfig};
use brace::scenario::{Backend, Registry, Runner};
use brace::spatial::IndexKind;
use common::{engines_agree, Case, GOLDEN_EPIDEMIC};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
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

fn brace(args: &[&str]) -> Output {
    Command::new(BRACE).args(args).output().expect("spawn brace")
}

/// A fresh durable run is a `Runner` run like any other, so `--trace`,
/// `--progress` and `--index` work on it. A resumed run takes `--trace` and
/// `--progress` too: its trace lines cover the epochs it runs, and its
/// summary line reads the resumed run's own registry. Its manifest decides
/// its index, so `--resume` refuses `--index` by name before it writes
/// anything.
#[test]
fn durable_runs_take_trace_and_progress_and_resume_refuses_only_index() {
    let root = temp_root("flags");
    let (runs, trace) = (root.join("runs"), root.join("trace.ndjson"));
    let (runs_arg, trace_arg) = (runs.to_str().unwrap(), trace.to_str().unwrap());
    let epidemic = ["run", "--scenario", "epidemic", "--conformance", "--backend", "cluster:2", "--ticks", "20"];
    let out = brace(&[&epidemic[..], &["--run-dir", runs_arg, "--trace", trace_arg, "--progress"]].concat());
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "durable epidemic failed: {stdout}{stderr}");
    assert!(stdout.contains(&format!("checksum {GOLDEN_EPIDEMIC:#018X}")), "{stdout}");
    // 20 ticks are four epochs of 5: one trace and one progress line each,
    // then the trace's summary line.
    let lines: Vec<String> = std::fs::read_to_string(&trace).unwrap().lines().map(String::from).collect();
    assert_eq!(lines.len(), 5, "not one trace line per epoch plus the summary: {lines:?}");
    for (line, tick) in lines.iter().zip([5, 10, 15, 20]) {
        assert!(line.contains(&format!(r#""tick":{tick},"#)), "not the epoch ending at tick {tick}: {line}");
    }
    assert!(lines[4].contains("probe_groups"), "no summary line: {lines:?}");
    assert_eq!(stderr.lines().filter(|l| l.trim_start().starts_with("tick")).count(), 4, "{stderr}");
    let m = manifest::read_manifest(&runs.join("epidemic-42")).expect("the durable run's manifest");
    assert_eq!(m.complete(), Some((TICKS, GOLDEN_EPIDEMIC)));

    let fish = ["run", "--scenario", "fish", "--agents", "200", "--backend", "cluster:2", "--ticks", "5"];
    let out = brace(&[&fish[..], &["--run-dir", runs_arg, "--index", "scan"]].concat());
    assert!(out.status.success(), "--index on a durable start: {}", String::from_utf8_lossy(&out.stderr));
    let m = manifest::read_manifest(&runs.join("fish-42")).expect("the indexed run's manifest");
    assert_eq!(m.header.index, IndexKind::Scan);
    assert!(m.complete().is_some());

    // Abandon the same job halfway: two of its four epochs are durable.
    let backend = Backend::Cluster(ClusterConfig {
        workers: 2,
        checkpoint_every: Some(1),
        run_dir: Some(runs.join("abandoned")),
        total_ticks: TICKS,
        ..ClusterConfig::default()
    });
    let registry = Registry::builtin();
    let mut handle = Runner::new(registry.get("epidemic").unwrap()).conformance().backend(backend).launch().unwrap();
    handle.run(TICKS / 2).unwrap();
    drop(handle);

    std::fs::remove_file(&trace).unwrap();
    let resume = ["run", "--run-dir", runs_arg, "--resume", "abandoned"];
    let out = brace(&[&resume[..], &["--index", "scan", "--trace", trace_arg]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`--index` on --resume succeeded");
    assert!(stderr.contains("--index is not supported on --resume"), "`--index` is not refused by name: {stderr}");
    assert!(!trace.exists(), "the refused resume wrote a trace");

    let out = brace(&[&resume[..], &["--trace", trace_arg, "--progress"]].concat());
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "resume with --trace and --progress failed: {stdout}{stderr}");
    assert!(stdout.contains("resumed@10") && stdout.contains(&format!("{GOLDEN_EPIDEMIC:#018X}")), "{stdout}");
    let lines: Vec<String> = std::fs::read_to_string(&trace).unwrap().lines().map(String::from).collect();
    assert_eq!(lines.len(), 3, "not one trace line per resumed epoch plus the summary: {lines:?}");
    for (line, tick) in lines.iter().zip([15, 20]) {
        let labels = r#""scenario":"epidemic","backend":"cluster:2""#;
        assert!(line.contains(labels) && line.contains(&format!(r#""tick":{tick},"#)), "epoch to {tick}: {line}");
    }
    assert!(lines[2].contains("probe_groups"), "no summary line: {lines:?}");
    assert_eq!(stderr.lines().filter(|l| l.trim_start().starts_with("tick")).count(), 2, "{stderr}");
    cleanup(&root);
}

/// The conformance form's population is part of what it certifies, so a
/// durable conformance run refuses `--agents` as every run does, before it
/// creates a run directory.
#[test]
fn durable_conformance_runs_refuse_a_population_override() {
    let root = temp_root("override");
    let runs = root.join("runs");
    let conformance = ["run", "--scenario", "fish", "--conformance", "--agents", "50", "--backend", "cluster:2"];
    let out = brace(&[&conformance[..], &["--ticks", "5", "--run-dir", runs.to_str().unwrap()]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "--conformance --agents ran: {}", String::from_utf8_lossy(&out.stdout));
    assert!(stderr.contains("population override"), "{stderr}");
    assert!(!runs.exists(), "the refused run created a run directory");
    cleanup(&root);
}
