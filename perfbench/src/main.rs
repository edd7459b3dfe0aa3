//! `perfbench` — the repo's gating benchmark.
//!
//! It fixes **work, not time**: a run of a workload is [`PASSES`] passes of
//! one deterministic op sequence from the same seed state. Op `k` does
//! bit-identical work in every pass, so its timings across passes are
//! samples of one quantity and the benchmark takes their median `m_k`;
//! throughput is agent-ticks ÷ Σ `m_k`, latency the median of the `m_k`.
//! Layers are measured strictly from outside, in a separate traced run.
//! See `README.md` for the commands, the metric glossary and the noise
//! facts that shaped the design.

mod host;
mod layers;
mod manifest;
mod metrics;
mod report;
mod serve;
mod sim;
mod speed;
mod stats;
mod trace;
mod workloads;

use metrics::{Values, END_TO_END, PER_LAYER};
use sim::PassResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{Kind, Workload, GOLDEN_SEED, PASSES, WORKLOADS};

/// The checkout root: the working directory when it holds the manifest (how
/// the pipeline runs the benchmark), else the directory this package was
/// built in.
fn root_dir() -> PathBuf {
    match std::env::current_dir() {
        Ok(cwd) if cwd.join("BENCHMARK.json").is_file() => cwd,
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo").to_path_buf(),
    }
}

fn results_dir() -> PathBuf {
    root_dir().join("perfbench").join("results")
}

/// A scratch directory under `perfbench/results/`, removed on drop — so on
/// every exit path that unwinds, and `main` never calls `process::exit`.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = results_dir().join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create a scratch directory under perfbench/results");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- goldens ---------------------------------------------------------------

fn goldens_path() -> PathBuf {
    root_dir().join("perfbench").join("goldens.json")
}

fn hex(sums: &[u64]) -> String {
    sums.iter().map(|s| format!("\"{s:#018x}\"")).collect::<Vec<_>>().join(", ")
}

/// The seed-42 checksums pinned for `workload`, if `goldens.json` has them.
fn golden(workload: &str) -> Option<Vec<u64>> {
    let doc = brace_serve::Json::parse(&std::fs::read_to_string(goldens_path()).ok()?).ok()?;
    match doc.get("checksums")?.get(workload)? {
        brace_serve::Json::Arr(items) => {
            items.iter().map(|s| u64::from_str_radix(s.as_str()?.trim_start_matches("0x"), 16).ok()).collect()
        }
        _ => None,
    }
}

// ---- runs ------------------------------------------------------------------

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

impl Outcome {
    fn line(&self, defs: &[metrics::MetricDef]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics::to_json(defs, &self.values)
        )
    }
}

fn pass(w: &Workload, seed: u64, reference: &speed::Reference) -> PassResult {
    match w.kind {
        Kind::Sim { .. } => sim::run_pass(w, seed, reference, None),
        Kind::Serve { .. } => serve::run_pass(w, seed, reference, None),
    }
}

/// Checks shared by both run kinds: every pass sane, all passes agree, and
/// at the golden seed the bits are the pinned ones.
fn verify(w: &Workload, seed: u64, passes: &[PassResult]) -> bool {
    let mut ok = true;
    let mut complain = |msg: String| {
        eprintln!("perfbench: {}: INCORRECT: {msg}", w.name);
        ok = false;
    };
    for (i, p) in passes.iter().enumerate() {
        for e in &p.errors {
            eprintln!("perfbench: {}: pass {i}: {e}", w.name);
        }
        if !p.check_ok {
            complain(format!("pass {i} failed its checks"));
        }
        if p.op_ms.len() != w.ops || p.slow.len() != w.ops {
            complain(format!("pass {i} ran {} of its {} measured ops", p.op_ms.len(), w.ops));
        }
        if p.checksums != passes[0].checksums || p.agent_ticks != passes[0].agent_ticks {
            complain(format!("pass {i} diverged from pass 0 (checksums or agent-ticks differ)"));
        }
    }
    if seed == GOLDEN_SEED {
        match golden(w.name) {
            Some(want) if want == passes[0].checksums => {}
            Some(_) => complain(format!("checksums differ from goldens.json: got [{}]", hex(&passes[0].checksums))),
            None => complain("goldens.json has no entry for this workload".into()),
        }
    }
    if let Kind::Serve { agents, ticks } = w.kind {
        // One miss per served scenario, again through `Runner` in-process.
        let registry = brace::scenario::Registry::builtin();
        let jobs = serve::plan(w, seed);
        let measured = &jobs[w.warmup..];
        for scenario in serve::SCENARIOS {
            let Some(k) = measured.iter().position(|j| j.scenario == scenario && !j.hit) else { continue };
            match serve::direct_checksum(&registry, &measured[k], agents, ticks) {
                Ok(sum) if passes[0].checksums.get(k) == Some(&sum) => {}
                Ok(_) => complain(format!("{scenario}: streamed checksum differs from a direct Runner run")),
                Err(e) => complain(format!("{scenario}: direct run failed: {e}")),
            }
        }
    }
    ok
}

fn run_untraced(w: &Workload, seed: u64) -> Outcome {
    let steal = host::StealMeter::start();
    let reference = speed::Reference::new(w.computes_off_thread());
    let passes: Vec<PassResult> = (0..PASSES).map(|_| pass(w, seed, &reference)).collect();
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "perfbench: {}: pass {i}: set-up {:.3} s, ops {:.3} s as measured; machine ran {:.2}× nominal time",
            w.name,
            p.setup_s(),
            p.op_ms.iter().sum::<f64>() / 1e3,
            if p.slow.is_empty() { f64::NAN } else { stats::median(&p.slow) }
        );
    }
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let correct = verify(w, seed, &passes);

    let mut values = Values::new();
    if passes.iter().all(|p| p.op_ms.len() == w.ops && p.slow.len() == w.ops) {
        let m = stats::op_aligned_medians(&passes.iter().map(PassResult::norm_op_ms).collect::<Vec<_>>());
        values.insert("agent_ticks_per_s", passes[0].agent_ticks as f64 / (m.iter().sum::<f64>() / 1e3));
        values.insert("op_ms_p50", stats::median(&m));
    }
    values.insert("setup_s", stats::median(&passes.iter().map(|p| p.norm_setup_ms / 1e3).collect::<Vec<_>>()));
    values.insert("peak_rss_mb", host::peak_rss_mb());
    let pct = steal.pct();
    if pct > 15.0 {
        eprintln!("perfbench: WARNING hypervisor steal was {pct:.1} % during this run");
    }
    Outcome { correct, attempted: w.attempted(), failed, values }
}

fn throughput(p: &PassResult) -> f64 {
    p.agent_ticks as f64 / (p.norm_op_ms().iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE)
}

/// One untraced reference pass, one traced pass, then the per-layer probes.
fn run_traced(w: &Workload, seed: u64) -> Outcome {
    let steal = host::StealMeter::start();
    let speed = speed::Reference::new(w.computes_off_thread());
    let reference = pass(w, seed, &speed);
    let mut tracer = trace::Tracer::new();
    let mut values = Values::new();
    let mut probes_ok = true;
    let traced = match w.kind {
        Kind::Sim { .. } => {
            let mut st = sim::SimTrace::default();
            let traced = sim::run_pass(w, seed, &speed, Some((&mut tracer, &mut st)));
            layers::sim_layers(w, seed, &traced, &st, &mut tracer, &mut values);
            values.insert("scenario.build_ms_p50", stats::median(&[reference.build_ms, traced.build_ms]));
            values.insert("scenario.launch_ms_p50", stats::median(&[reference.launch_ms, traced.launch_ms]));
            values.insert("scenario.collect_ms", traced.collect_ms);
            traced
        }
        Kind::Serve { .. } => {
            let mut st = serve::ServeTrace::default();
            let traced = serve::run_pass(w, seed, &speed, Some((&mut tracer, &mut st)));
            if let Err(e) = layers::serve_mix_layers(w, seed, &st, &mut tracer, &mut values) {
                eprintln!("perfbench: {}: INCORRECT: {e}", w.name);
                probes_ok = false;
            }
            traced
        }
    };
    values.insert("scenario.warmup_ms", traced.warmup_ms);
    let pooled: Vec<f64> = [reference.norm_op_ms(), traced.norm_op_ms()].concat();
    if !pooled.is_empty() {
        values.insert("core.op_ms_p90", stats::percentile(&pooled, 90.0));
        values.insert("core.op_ms_p95", stats::percentile(&pooled, 95.0));
        eprintln!("perfbench: core.op_ms_p90/p95 pooled over {} ops of two passes", pooled.len());
    }
    values.insert("host.nproc", host::nproc() as f64);
    values.insert("host.steal_pct", steal.pct());
    if !traced.slow.is_empty() {
        values.insert("host.slowdown_p50", stats::median(&traced.slow));
    }
    values.insert("trace.overhead_pct", 100.0 * (1.0 - throughput(&traced) / throughput(&reference)));
    values.insert("trace.spans", tracer.spans.len() as f64);

    let by_name = tracer.self_by_name();
    let covered: u64 = by_name.iter().map(|(_, ns, _)| ns).sum();
    eprintln!("perfbench: self time by span (traced run, {} spans):", tracer.spans.len());
    for (name, ns, n) in by_name.into_iter().take(16) {
        eprintln!(
            "  {name:<32} {:>10.2} ms {:>5.1} %  ×{n}",
            ns as f64 / 1e6,
            100.0 * ns as f64 / covered.max(1) as f64
        );
    }
    let path = results_dir().join(format!("{}.trace.json", w.name));
    if let Err(e) = std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    let passes = [reference, traced];
    let correct = verify(w, seed, &passes) && probes_ok;
    let failed = passes.iter().map(|p| p.failed).sum();
    Outcome { correct, attempted: 2 * w.ops as u64, failed, values }
}

// ---- commands --------------------------------------------------------------

fn write_goldens() -> Result<(), String> {
    let mut body = format!("{{\n  \"seed\": {GOLDEN_SEED},\n  \"checksums\": {{");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let p = pass(w, GOLDEN_SEED, &speed::Reference::new(w.computes_off_thread()));
        if !p.check_ok || p.failed > 0 {
            return Err(format!("{}: the pass did not complete cleanly: {:?}", w.name, p.errors));
        }
        body.push_str(&format!("{}\n    \"{}\": [{}]", if i == 0 { "" } else { "," }, w.name, hex(&p.checksums)));
    }
    body.push_str("\n  }\n}\n");
    std::fs::write(goldens_path(), body).map_err(|e| e.to_string())
}

/// Manifest ↔ binary cross-check, then one untraced and one traced run of
/// every workload with every correctness gate on. The result line prints the
/// metric catalogue and nothing else, so holding the manifest to the catalogue
/// (`manifest::check`) is holding it to what the binary prints; and a run is
/// `correct` only if every pass ran exactly `N` measured ops, which with the
/// constant `R` is `attempted = R·N`.
fn check(seed: u64) -> Result<(), String> {
    let manifest_text =
        std::fs::read_to_string(root_dir().join("BENCHMARK.json")).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut errs = manifest::check(&manifest_text);
    for w in &WORKLOADS {
        for traced in [false, true] {
            let outcome = if traced { run_traced(w, seed) } else { run_untraced(w, seed) };
            let what = format!("{} (--trace {})", w.name, traced as u8);
            if !outcome.correct {
                errs.push(format!("{what}: outputs are not correct"));
            }
            if outcome.failed > 0 {
                errs.push(format!("{what}: {} of {} ops failed", outcome.failed, outcome.attempted));
            }
            eprintln!("perfbench: check {what}: correct={} failed={}", outcome.correct, outcome.failed);
        }
    }
    if errs.is_empty() {
        println!("perfbench --check: OK (seed {seed}, {} workloads, manifest consistent)", WORKLOADS.len());
        Ok(())
    } else {
        Err(errs.join("\n"))
    }
}

const USAGE: &str = "usage:
  perfbench --workload <name> [--seed N] [--trace 0|1] [--seconds S]   one run, result line last on stdout
  perfbench --all [--runs K] [--seed N] [--out FILE]                   K runs of every workload, summary JSON
  perfbench --compare A.json B.json                                    verdict per workload × metric
  perfbench --check [--seed N]                                         manifest cross-check + correctness gates
  perfbench --write-goldens                                            re-pin goldens.json at seed 42
Work is fixed (sizes live in src/workloads.rs); --seconds is accepted and does not change it.";

fn run(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1));
    let number = |name: &str, default: u64| match value(name) {
        None => Ok(default),
        Some(v) => v.parse::<u64>().map_err(|_| format!("{name} takes a whole number, got `{v}`")),
    };
    let seed = number("--seed", GOLDEN_SEED)?;
    // Fixed work: the flag is part of the pipeline's command line, not a size.
    number("--seconds", 0)?;

    if flag("--check") {
        check(seed)
    } else if flag("--write-goldens") {
        write_goldens()
    } else if flag("--all") {
        let summary = report::all(number("--runs", 6)? as usize, seed)?;
        match value("--out") {
            Some(path) => std::fs::write(path, &summary).map_err(|e| format!("{path}: {e}")),
            None => {
                print!("{summary}");
                Ok(())
            }
        }
    } else if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else { return Err(USAGE.into()) };
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let bounds = std::fs::read_to_string(root_dir().join("BENCHMARK.json"))
            .ok()
            .and_then(|t| brace_serve::Json::parse(&t).ok())
            .map(|doc| manifest::bounds(&doc))
            .unwrap_or_default();
        print!("{}", report::compare(&read(a)?, &read(b)?, &bounds)?);
        Ok(())
    } else if let Some(name) = value("--workload") {
        let w = workloads::find(name)
            .ok_or_else(|| format!("unknown workload `{name}` (have: {})", WORKLOADS.map(|w| w.name).join(", ")))?;
        let traced = match number("--trace", 0)? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace takes 0 or 1, got {n}")),
        };
        let outcome = if traced { run_traced(w, seed) } else { run_untraced(w, seed) };
        println!("{}", outcome.line(if traced { PER_LAYER } else { &END_TO_END }));
        Ok(())
    } else {
        Err(USAGE.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
