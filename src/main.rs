//! `brace` — the scenario-registry CLI.
//!
//! ```text
//! brace list
//! brace compile <scenario|all> [--no-opt]
//! brace run --scenario <name|all> [--backend single|cluster[:N]|both]
//!           [--ticks T] [--agents N] [--seed S] [--index join|scan]
//!           [--conformance] [--progress] [--trace PATH]
//! brace run --scenario <name> --backend cluster[:N] --run-dir DIR [--run-id ID]
//!           [--checkpoint-every E] [--keep-checkpoints K] [--epoch-sleep-ms MS] ...
//! brace run --run-dir DIR --resume <run-id> [--progress] [--trace PATH] [--epoch-sleep-ms MS]
//! brace list-runs --run-dir DIR
//! brace serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//! ```
//!
//! `compile` is the optimizer inspector for the BRASIL-scripted scenarios:
//! it prints the compiled plan before and after the optimizer
//! ([`brasil::optimize::standard`], or [`brasil::optimize::with_inversion`]
//! for a scenario that inverts), with each rewrite's count in the order
//! they ran, derived probe bounds, and the size of the register program
//! each plan lowers to.
//! `--no-opt` stops after the unoptimized plan.
//!
//! `run` drives every named scenario through the backend-erased
//! [`Runner`](brace_scenario::Runner): same behavior, same population, same
//! seed on the single-node engine or an N-worker cluster, with the
//! scenario's own post-run sanity checks enforced. CI runs
//! `run --scenario all --ticks 5 --backend both` so a scenario that only
//! works on one backend can never merge. Checksums printed here are
//! [`brace_scenario::world_checksum`] values — directly comparable with the
//! golden-tick and conformance suites.
//!
//! `--index join` (the default) answers range probes with the sort-merge
//! tile join, whose per-tick probe order is the index; `--index scan` is the
//! paper's no-index baseline: every probe scans every agent. Both give the
//! same bits. The retired names `kd`, `kdtree` and `grid` mean `join`.
//!
//! `--trace PATH` writes an NDJSON per-tick phase trace: one line per
//! completed tick with the executor's phase timings (`index_maintain_ns`,
//! `query_ns`, `effect_merge_ns`, `update_ns`) plus work counters. Cluster
//! runs trace at epoch grain with `tick`/`agents` only (per-worker phase
//! accounting is aggregated, not per tick). Each run that succeeds then adds
//! one summary line with its query-phase amortisation, read off the run's
//! own telemetry registry ([`RunReport::metrics`]), so nothing else the
//! process records can leak into it: `probe_groups` (candidate blocks built;
//! a group whose members all read no neighbour builds none),
//! `block_candidates` (rows in those blocks) — reading agent-ticks ÷ groups
//! is the readers one block served — and `effect_log_entries` (writes to
//! remote effect fields, logged for ordered replay; 0 for local-effect
//! schemas) and `tile_directory_ticks` (query phases whose join windows were
//! read off the probe order's tile directory — one per tick per worker when
//! the occupied tiles are dense). Tracing observes the same metrics the
//! executor already measures — it never changes results.
//!
//! With `--run-dir`, `run` becomes a **durable job**: the same `Runner` run
//! on a cluster backend whose run lives in `DIR/<run-id>/` (default run id
//! `<scenario>-<seed>`) behind a crash-safe write-ahead manifest and fsynced
//! checkpoints, so `--trace`, `--progress` and `--index` work as on any run.
//! `--resume <run-id>` finishes an interrupted run in a fresh process,
//! bit-identically to never having crashed, through [`DurableRunner`], which
//! takes `--trace` and `--progress` as a fresh run does. Its manifest decides
//! its configuration, so it refuses `--index` (exit 2) rather than ignore it.
//! `--epoch-sleep-ms` sleeps after every epoch ([`Throttle`]). `list-runs`
//! summarizes what a run directory holds.
//!
//! `serve` puts the registry on a socket: a [`brace_serve::Server`] with a
//! bounded simulation worker pool, explicit admission backpressure, and a
//! content-addressed result cache keyed on the canonical job line — see
//! the `brace-serve` crate docs and README for the endpoint reference.

use brace_core::metrics::TickMetrics;
use brace_mapreduce::manifest;
use brace_scenario::runner::DEFAULT_SEED;
use brace_scenario::{
    index_by_name, Backend, DurableRunner, JobSpec, Observer, Progress, Registry, RunReport, Runner, Throttle,
};
use brace_spatial::IndexKind;
use brace_telemetry::Counter;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The file every run of one invocation appends its `--trace` lines to.
type TraceOut = Arc<Mutex<BufWriter<std::fs::File>>>;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: brace list\n\
         \x20      brace compile <scenario|all> [--no-opt]\n\
         \x20      brace run --scenario <name|all> [--backend single|cluster[:N]|both] [--ticks T]\n\
         \x20            [--agents N] [--seed S] [--index join|scan] [--conformance] [--progress]\n\
         \x20            [--trace PATH]\n\
         \x20            [--run-dir DIR [--run-id ID] [--checkpoint-every E] [--keep-checkpoints K]]\n\
         \x20            [--epoch-sleep-ms MS]\n\
         \x20      brace run --run-dir DIR --resume <run-id> [--progress] [--trace PATH] [--epoch-sleep-ms MS]\n\
         \x20      brace list-runs --run-dir DIR\n\
         \x20      brace serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
         \n\
         --index join (default) is the sort-merge tile join; --index scan is the no-index\n\
         baseline. Both give the same bits; kd, kdtree and grid mean join."
    );
    std::process::exit(2);
}

struct RunOpts {
    scenario: String,
    backends: Vec<Backend>,
    ticks: u64,
    agents: Option<usize>,
    seed: Option<u64>,
    index: Option<IndexKind>,
    conformance: bool,
    progress: bool,
    trace: Option<PathBuf>,
    run_dir: Option<PathBuf>,
    resume: Option<String>,
    epoch_sleep_ms: u64,
}

fn parse_run_opts(args: &[String]) -> RunOpts {
    let mut opts = RunOpts {
        scenario: String::new(),
        backends: vec![Backend::single()],
        ticks: 50,
        agents: None,
        seed: None,
        index: None,
        conformance: false,
        progress: false,
        trace: None,
        run_dir: None,
        resume: None,
        epoch_sleep_ms: 0,
    };
    let (mut run_id, mut checkpoint_every, mut keep_checkpoints) = (None, 1u64, 4usize);
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, what: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| die(&format!("{what} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => opts.scenario = take(args, &mut i, "--scenario"),
            "--backend" => {
                let spec = take(args, &mut i, "--backend");
                opts.backends = if spec == "both" {
                    vec![Backend::single(), Backend::cluster(2)]
                } else {
                    vec![Backend::parse(&spec).unwrap_or_else(|e| die(&e.to_string()))]
                };
            }
            "--ticks" => {
                opts.ticks = take(args, &mut i, "--ticks").parse().unwrap_or_else(|e| die(&format!("--ticks: {e}")))
            }
            "--agents" => {
                opts.agents =
                    Some(take(args, &mut i, "--agents").parse().unwrap_or_else(|e| die(&format!("--agents: {e}"))))
            }
            "--seed" => {
                opts.seed = Some(take(args, &mut i, "--seed").parse().unwrap_or_else(|e| die(&format!("--seed: {e}"))))
            }
            "--index" => {
                let s = take(args, &mut i, "--index");
                opts.index = Some(index_by_name(&s).unwrap_or_else(|| die(&format!("unknown index `{s}`"))));
            }
            "--conformance" => opts.conformance = true,
            "--progress" => opts.progress = true,
            "--trace" => opts.trace = Some(PathBuf::from(take(args, &mut i, "--trace"))),
            "--run-dir" => opts.run_dir = Some(PathBuf::from(take(args, &mut i, "--run-dir"))),
            "--run-id" => run_id = Some(take(args, &mut i, "--run-id")),
            "--resume" => opts.resume = Some(take(args, &mut i, "--resume")),
            "--checkpoint-every" => {
                checkpoint_every = take(args, &mut i, "--checkpoint-every")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--checkpoint-every: {e}")))
            }
            "--keep-checkpoints" => {
                keep_checkpoints = take(args, &mut i, "--keep-checkpoints")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--keep-checkpoints: {e}")))
            }
            "--epoch-sleep-ms" => {
                opts.epoch_sleep_ms = take(args, &mut i, "--epoch-sleep-ms")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--epoch-sleep-ms: {e}")))
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if opts.resume.is_some() {
        if opts.run_dir.is_none() {
            die("--resume needs --run-dir (the root the run lives under)");
        }
        // The manifest decides a resumed run's configuration: refuse what it
        // would ignore, before touching the disk.
        if opts.index.is_some() {
            die("--index is not supported on --resume (the run's manifest decides); drop it");
        }
    } else if opts.scenario.is_empty() {
        die("--scenario is required (or `brace list` to see what exists)");
    } else if let Some(root) = &opts.run_dir {
        // A durable run is the one cluster backend with a run directory.
        if opts.scenario == "all" {
            die("durable runs take one scenario per run id, not `all`");
        }
        let [Backend::Cluster(cfg)] = opts.backends.as_mut_slice() else {
            die("durable runs execute on the cluster backend; pass --backend cluster[:N]")
        };
        let run_id = run_id.unwrap_or_else(|| format!("{}-{}", opts.scenario, opts.seed.unwrap_or(DEFAULT_SEED)));
        cfg.run_dir = Some(root.join(run_id));
        cfg.checkpoint_every = Some(checkpoint_every.max(1));
        cfg.keep_checkpoints = keep_checkpoints.max(1);
    }
    opts
}

/// Progress printer attached when `--progress` is given.
struct ProgressPrinter;

impl Observer for ProgressPrinter {
    fn on_tick(&mut self, p: &Progress) {
        eprintln!("  tick {:>6} | {} agents", p.tick, p.agents);
    }
}

/// NDJSON phase-trace sink attached when `--trace PATH` is given. All runs
/// of one invocation (`--scenario all`, `--backend both`) append to the
/// same file; each line carries its scenario and backend so the stream
/// stays self-describing. Single-node lines add the executor's per-phase
/// timings (delivered via [`Observer::on_tick_metrics`] just before the
/// matching `on_tick`) and work counters — `neighbor_visits` is the
/// candidates handed to queries, none to an agent whose query reads no
/// neighbour that tick; cluster lines are epoch-grain `tick`/`agents`.
struct TraceWriter {
    out: TraceOut,
    scenario: String,
    backend: String,
    pending: Option<TickMetrics>,
}

impl Observer for TraceWriter {
    fn on_tick_metrics(&mut self, tm: &TickMetrics) {
        self.pending = Some(tm.clone());
    }

    fn on_tick(&mut self, p: &Progress) {
        let line = match self.pending.take() {
            Some(tm) => format!(
                "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"tick\":{},\"agents\":{},\
                 \"index_maintain_ns\":{},\"query_ns\":{},\"effect_merge_ns\":{},\"update_ns\":{},\
                 \"neighbor_visits\":{},\"nonlocal_writes\":{},\"spawned\":{},\"killed\":{}}}\n",
                self.scenario,
                self.backend,
                p.tick,
                p.agents,
                tm.index_build_ns,
                tm.query_ns,
                tm.merge_ns,
                tm.update_ns,
                tm.neighbor_visits,
                tm.nonlocal_writes,
                tm.spawned,
                tm.killed
            ),
            None => format!(
                "{{\"scenario\":\"{}\",\"backend\":\"{}\",\"tick\":{},\"agents\":{}}}\n",
                self.scenario, self.backend, p.tick, p.agents
            ),
        };
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// The observers `--progress` and `--trace` attach to one run of
/// `scenario` on `backend`.
fn observers(opts: &RunOpts, trace: Option<&TraceOut>, scenario: &str, backend: &str) -> Vec<Box<dyn Observer>> {
    let mut observers: Vec<Box<dyn Observer>> = Vec::new();
    if opts.progress {
        observers.push(Box::new(ProgressPrinter));
    }
    if let Some(out) = trace {
        let (scenario, backend) = (scenario.to_string(), backend.to_string());
        observers.push(Box::new(TraceWriter { out: Arc::clone(out), scenario, backend, pending: None }));
    }
    observers
}

/// One result line; `how` is the backend, or where a resumed run restarted.
/// With `--trace`, the run's summary line too: the query-phase amortisation
/// counters its own registry holds.
fn print_report(report: &RunReport, how: &str, trace: Option<&TraceOut>) {
    println!(
        "{:<16} {:<12} {:>6} ticks  {:>7} agents  checksum {:#018X}  {:>12.0} agent-ticks/s",
        report.scenario, how, report.ticks, report.agents, report.checksum, report.agents_per_sec
    );
    let Some(out) = trace else { return };
    let fields = [
        ("probe_groups", Counter::ExecutorProbeGroups),
        ("block_candidates", Counter::ExecutorBlockCandidates),
        ("effect_log_entries", Counter::ExecutorEffectLogEntries),
        ("tile_directory_ticks", Counter::ExecutorTileDirectoryTicks),
    ]
    .map(|(key, c)| format!(",\"{key}\":{}", report.metrics.counter(c)));
    let mut out = out.lock().unwrap();
    let _ =
        writeln!(out, "{{\"scenario\":\"{}\",\"backend\":\"{}\"{}}}", report.scenario, report.backend, fields.concat());
    let _ = out.flush();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            let registry = Registry::builtin();
            println!("{} registered scenarios:", registry.len());
            for s in registry.iter() {
                println!("  {:<16} {:>6} agents  {}", s.name(), s.default_population(), s.description());
            }
        }
        Some("compile") => compile_cmd(&args[1..]),
        Some("run") => {
            let opts = parse_run_opts(&args[1..]);
            let trace = opts.trace.as_ref().map(|path| {
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| die(&format!("--trace: cannot create {}: {e}", path.display())));
                Arc::new(Mutex::new(BufWriter::new(file)))
            });
            match (&opts.run_dir, &opts.resume) {
                (Some(root), Some(run_id)) => resume(&opts, trace.as_ref(), root, run_id),
                _ => run(&opts, trace.as_ref()),
            }
        }
        Some("list-runs") => list_runs(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("-h") | Some("--help") | None => die("expected a subcommand"),
        Some(other) => die(&format!("unknown subcommand `{other}`")),
    }
}

/// `brace compile <scenario|all> [--no-opt]` — pretty-print a BRASIL
/// scenario's plan before and after the optimizer.
fn compile_cmd(args: &[String]) {
    let mut target: Option<String> = None;
    let mut no_opt = false;
    for a in args {
        match a.as_str() {
            "--no-opt" => no_opt = true,
            other if target.is_none() && !other.starts_with('-') => target = Some(other.to_string()),
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let target = target.unwrap_or_else(|| die("compile needs a scenario name (or `all`)"));
    let names: Vec<&str> =
        if target == "all" { vec!["brasil-fish", "brasil-predator", "brasil-car"] } else { vec![target.as_str()] };
    for name in names {
        let Some((source, invert)) = brace_models::scripts::scenario_script(name) else {
            die(&format!("`{name}` is not a BRASIL-scripted scenario (try brasil-fish, brasil-predator, brasil-car)"))
        };
        let script = brasil::Script::compile_unoptimized(source)
            .unwrap_or_else(|e| die(&format!("`{name}` failed to compile: {e}")));
        let class = script.classes()[0].clone();
        println!("==== {name} — unoptimized plan ====");
        print!("{}", brasil::pretty::class(&class));
        if no_opt {
            continue;
        }
        let (optimized, report) =
            if invert { brasil::optimize::with_inversion(class) } else { brasil::optimize::standard(class) };
        println!("---- {name} — pass pipeline ----");
        print!("{}", brasil::pretty::report(&report));
        println!("---- {name} — optimized plan ----");
        print!("{}", brasil::pretty::class(&optimized));
        println!();
    }
}

fn run(opts: &RunOpts, trace: Option<&TraceOut>) {
    let registry = Registry::builtin();
    let names: Vec<String> = if opts.scenario == "all" {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else {
        vec![opts.scenario.clone()]
    };
    let mut failures = 0usize;
    for name in &names {
        let scenario = match registry.get_or_err(name) {
            Ok(s) => s,
            Err(e) => die(&e.to_string()),
        };
        for backend in &opts.backends {
            let throttle = Throttle(Duration::from_millis(opts.epoch_sleep_ms));
            let mut runner = Runner::new(scenario).backend(backend.clone()).observe(Box::new(throttle));
            if let Some(n) = opts.agents {
                runner = runner.population(n);
            }
            if let Some(seed) = opts.seed {
                runner = runner.seed(seed);
            }
            if let Some(kind) = opts.index {
                runner = runner.index(kind);
            }
            if opts.conformance {
                runner = runner.conformance();
            }
            for observer in observers(opts, trace, name, &backend.label()) {
                runner = runner.observe(observer);
            }
            match runner.run(opts.ticks) {
                Ok(report) => print_report(&report, &report.backend, trace),
                Err(e) => {
                    eprintln!("{name:<16} {:<10} FAILED: {e}", backend.label());
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed");
        std::process::exit(1);
    }
}

/// `--resume`: finish an interrupted durable run in this process.
fn resume(opts: &RunOpts, trace: Option<&TraceOut>, root: &Path, run_id: &str) {
    let registry = Registry::builtin();
    // Trace lines name the scenario and backend the manifest records.
    let (name, backend) = match manifest::read_manifest(&root.join(run_id)) {
        Ok(m) => (JobSpec::parse(&m.header.job).map_or(run_id.into(), |job| job.scenario), m.header.workers),
        Err(_) => (run_id.to_string(), 0),
    };
    let mut runner = DurableRunner::new(&registry, root);
    for observer in observers(opts, trace, &name, &format!("cluster:{backend}")) {
        runner = runner.observe(observer);
    }
    match runner.resume(run_id, opts.epoch_sleep_ms) {
        Ok(report) => {
            // A run with no durable epoch restarts from its initial checkpoint.
            let how = if report.resumed_from > 0 { format!("resumed@{}", report.resumed_from) } else { "run".into() };
            print_report(&report, &how, trace)
        }
        Err(e) => {
            eprintln!("resume of `{run_id}` FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// `brace serve` — the simulation-as-a-service control plane. Binds,
/// prints the resolved address, and serves until killed.
fn serve(args: &[String]) {
    let mut cfg = brace_serve::ServeConfig { addr: "127.0.0.1:8747".into(), ..Default::default() };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, what: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| die(&format!("{what} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => cfg.addr = take(args, &mut i, "--addr"),
            "--workers" => {
                cfg.workers =
                    take(args, &mut i, "--workers").parse().unwrap_or_else(|e| die(&format!("--workers: {e}")))
            }
            "--queue" => {
                cfg.queue_cap = take(args, &mut i, "--queue").parse().unwrap_or_else(|e| die(&format!("--queue: {e}")))
            }
            "--cache" => {
                cfg.cache_cap = take(args, &mut i, "--cache").parse().unwrap_or_else(|e| die(&format!("--cache: {e}")))
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let workers = cfg.workers;
    let server = match brace_serve::Server::start(Registry::builtin(), cfg) {
        Ok(s) => s,
        Err(e) => die(&e.to_string()),
    };
    println!(
        "brace-serve listening on http://{} ({} workers, {} run threads each)",
        server.addr(),
        workers,
        server.run_threads()
    );
    // Serve until the process is killed; the Server's threads do the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn list_runs(args: &[String]) {
    let mut root = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--run-dir" => {
                i += 1;
                root = args.get(i).map(PathBuf::from);
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    let root = root.unwrap_or_else(|| die("list-runs needs --run-dir DIR"));
    let registry = Registry::builtin();
    let runs = DurableRunner::new(&registry, &root).list();
    if runs.is_empty() {
        println!("no runs under {}", root.display());
        return;
    }
    println!("{} run(s) under {}:", runs.len(), root.display());
    for r in runs {
        let status = match r.complete {
            Some((ticks, checksum)) => format!("complete @ {ticks} ticks, checksum {checksum:#018X}"),
            None => format!("in progress ({}/{} ticks durable)", r.completed_ticks, r.total_ticks),
        };
        let marks = if r.truncated { "  [torn tail]" } else { "" };
        println!("  {:<24} {:>2} workers  {}{}  ({})", r.run_id, r.workers, status, marks, r.job);
    }
}
