//! One pass of a simulation workload (`fish-uniform`, `fish-hotspot`,
//! `predator-cluster2`): build → launch → `W` warm-up ops → `N` measured
//! ops, each timed with `Instant` around `SimHandle::run`.

use crate::host;
use crate::speed::{Pacer, Reference};
use crate::trace::{self, Tracer};
use crate::workloads::{ClusterSpec, HotspotFish, Kind, Workload};
use crate::TempDir;
use brace::core::{Agent, Behavior, TickMetrics};
use brace::mapreduce::{ClusterConfig, ClusterStats};
use brace::scenario::{world_checksum, Backend, JobSpec, Observer, Registry, Runner, Scenario};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What every pass reports, traced or not.
#[derive(Debug, Default, Clone)]
pub struct PassResult {
    pub build_ms: f64,
    pub launch_ms: f64,
    pub warmup_ms: f64,
    pub op_ms: Vec<f64>,
    /// Agent-ticks executed (or, for `serve-mix`, delivered) by the measured ops.
    pub agent_ticks: u64,
    pub failed: u64,
    pub collect_ms: f64,
    /// Final-world checksum (`serve-mix`: one streamed checksum per op).
    pub checksums: Vec<u64>,
    /// `Scenario::check` passed and every cross-check inside the pass held.
    pub check_ok: bool,
    pub errors: Vec<String>,
    /// How slow the machine ran during each measured op (see [`crate::speed`]).
    pub slow: Vec<f64>,
    /// Set-up time with each of its segments (build + launch, every warm-up
    /// op) rescaled to the nominal machine speed.
    pub norm_setup_ms: f64,
}

impl PassResult {
    /// Set-up wall time, as measured.
    pub fn setup_s(&self) -> f64 {
        (self.build_ms + self.launch_ms + self.warmup_ms) / 1e3
    }

    /// Op times rescaled to the nominal machine speed.
    pub fn norm_op_ms(&self) -> Vec<f64> {
        self.op_ms.iter().zip(&self.slow).map(|(ms, slow)| ms / slow).collect()
    }

    /// A pass that could not even start: every op it would have run failed.
    pub fn fail(mut self, error: String, ops: usize) -> PassResult {
        self.failed = ops as u64;
        self.check_ok = false;
        self.errors.push(error);
        self
    }
}

/// One measured cluster epoch as the runtime itself reports it.
#[derive(Debug, Clone)]
pub struct ClusterOp {
    pub stats: ClusterStats,
    /// On-CPU ns of each worker thread at the end of the op.
    pub worker_cpu_ns: Vec<u64>,
}

/// Extra state the traced pass keeps for the per-layer probes.
#[derive(Default)]
pub struct SimTrace {
    pub behavior: Option<Arc<dyn Behavior>>,
    pub ticks: Vec<TickMetrics>,
    /// Cluster stats before the first measured op, then after each op.
    pub cluster_base: Option<ClusterOp>,
    pub cluster_ops: Vec<ClusterOp>,
    /// Worlds one op apart (after measured ops 0 and 1) and the final world.
    pub world_first: Vec<Agent>,
    pub world_next: Vec<Agent>,
    pub world_last: Vec<Agent>,
    pub space_x: (f64, f64),
    /// The durable run directory, kept until the probes have read it.
    pub run_dir: Option<TempDir>,
}

/// Keeps the executor's per-tick split as `Observer::on_tick_metrics` delivers it.
pub struct TickSink(pub Arc<Mutex<Vec<TickMetrics>>>);

impl Observer for TickSink {
    fn on_tick_metrics(&mut self, tm: &TickMetrics) {
        self.0.lock().expect("tick sink").push(tm.clone());
    }
}

/// The workload's backend; a cluster keeps its durable run under `run_dir`.
pub fn backend(
    cluster: Option<ClusterSpec>,
    scenario: &str,
    agents: usize,
    ticks: u64,
    run_dir: Option<PathBuf>,
) -> Backend {
    match cluster {
        None => Backend::SingleNode { parallelism: 1 },
        Some(c) => Backend::Cluster(ClusterConfig {
            workers: c.workers,
            load_balance: true,
            checkpoint_every: Some(c.checkpoint_every),
            run_dir,
            job: JobSpec { scenario: scenario.to_string(), size: Some(agents), conformance: false }.encode(),
            total_ticks: ticks,
            ..ClusterConfig::default()
        }),
    }
}

fn cluster_op(stats: Option<ClusterStats>) -> Option<ClusterOp> {
    stats.map(|stats| ClusterOp { stats, worker_cpu_ns: host::thread_cpu_ns("brace-worker") })
}

/// Run one pass. With `trace` set, the same calls are additionally wrapped
/// in spans and the splits they return are kept.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    reference: &Reference,
    mut trace: Option<(&mut Tracer, &mut SimTrace)>,
) -> PassResult {
    let Kind::Sim { scenario: scenario_name, agents, hotspot, cluster } = w.kind else {
        unreachable!("run_pass takes simulation workloads")
    };
    let (registry, hotspot_fish) = (Registry::builtin(), HotspotFish::new());
    let scenario: &dyn Scenario = if hotspot {
        &hotspot_fish
    } else {
        registry.get(scenario_name).expect("workload names a registered scenario")
    };
    let ticks_per_op = cluster.map_or(1, |c| c.epoch_len);
    let total_ticks = (w.warmup + w.ops) as u64 * ticks_per_op;
    let mut out = PassResult { check_ok: true, ..PassResult::default() };
    let run_dir = cluster.map(|_| TempDir::new(w.name));

    // ---- set-up: build + launch + warm-up ---------------------------------
    let pass_span = trace::begin(&mut trace, "pass", None, None);
    let mut pacer = Pacer::start(reference);
    let span = trace::begin(&mut trace, "scenario.build", pass_span, None);
    let t0 = Instant::now();
    let mut setup = match scenario.build(Some(agents), seed) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("build: {e}"), w.ops),
    };
    out.build_ms = t0.elapsed().as_secs_f64() * 1e3;
    trace::end(&mut trace, span);
    let sink = Arc::new(Mutex::new(Vec::new()));
    if let Some((_, st)) = trace.as_mut() {
        st.behavior = Some(setup.behavior.clone());
        st.space_x = setup.space_x;
    }

    let span = trace::begin(&mut trace, "scenario.launch", pass_span, None);
    let t0 = Instant::now();
    let mut runner = Runner::new(scenario)
        .backend(backend(cluster, scenario_name, agents, total_ticks, run_dir.as_ref().map(|d| d.path().join("run"))))
        .seed(seed);
    if trace.is_some() {
        runner = runner.observe(Box::new(TickSink(sink.clone())));
    }
    // A prebuilt setup carries its own epoch length (one op = one epoch).
    if let Some(c) = cluster {
        setup.epoch_len = c.epoch_len;
    }
    let mut handle = match runner.launch_with(setup) {
        Ok(h) => h,
        Err(e) => return out.fail(format!("launch: {e}"), w.ops),
    };
    out.launch_ms = t0.elapsed().as_secs_f64() * 1e3;
    trace::end(&mut trace, span);
    out.norm_setup_ms = (out.build_ms + out.launch_ms) / pacer.close();

    let span = trace::begin(&mut trace, "scenario.warmup", pass_span, None);
    for _ in 0..w.warmup {
        let t0 = Instant::now();
        if let Err(e) = handle.run(ticks_per_op) {
            return out.fail(format!("warm-up: {e}"), w.ops);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.warmup_ms += ms;
        out.norm_setup_ms += ms / pacer.close();
    }
    trace::end(&mut trace, span);
    if let Some((_, st)) = trace.as_mut() {
        sink.lock().expect("tick sink").clear();
        st.cluster_base = cluster_op(handle.cluster_stats());
    }

    // ---- measured ops -----------------------------------------------------
    let ticks_before = handle.agent_ticks();
    for k in 0..w.ops {
        let span = trace::begin(&mut trace, "SimHandle::run", pass_span, Some(k as u32));
        let t0 = Instant::now();
        let r = handle.run(ticks_per_op);
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = r {
            out.failed += 1;
            out.errors.push(format!("op {k}: {e}"));
        }
        out.slow.push(pacer.close());
        if let Some((t, st)) = trace.as_mut() {
            let span = span.expect("span opened");
            t.end(span);
            // The split the call itself returned, as child spans.
            let mut sink = sink.lock().expect("tick sink");
            for tm in sink.drain(..) {
                t.add_split(
                    span,
                    &[
                        ("core.index_maintain", tm.index_build_ns),
                        ("core.query", tm.query_ns),
                        ("core.update", tm.update_ns),
                    ],
                );
                st.ticks.push(tm);
            }
            if let Some(op) = cluster_op(handle.cluster_stats()) {
                let epoch_wall = op.stats.epoch_wall_ns.last().copied().unwrap_or(0);
                t.add_split(span, &[("mapreduce.workers_epoch_wall", epoch_wall)]);
                st.cluster_ops.push(op);
            }
            if k < 2 {
                match handle.world() {
                    Ok(world) if k == 0 => st.world_first = world,
                    Ok(world) => st.world_next = world,
                    Err(e) => out.errors.push(format!("snapshot after op {k}: {e}")),
                }
            }
        }
    }
    out.agent_ticks = handle.agent_ticks() - ticks_before;

    // ---- collect + check --------------------------------------------------
    let span = trace::begin(&mut trace, "scenario.collect", pass_span, None);
    let t0 = Instant::now();
    match handle.world() {
        Ok(world) => {
            out.checksums.push(world_checksum(&world));
            out.collect_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = scenario.check(&world) {
                out.check_ok = false;
                out.errors.push(format!("Scenario::check: {e}"));
            }
            if let Some((_, st)) = trace.as_mut() {
                st.world_last = world;
            }
        }
        Err(e) => {
            out.check_ok = false;
            out.errors.push(format!("collect: {e}"));
        }
    }
    drop(handle);
    trace::end(&mut trace, span);
    trace::end(&mut trace, pass_span);
    if let Some((_, st)) = trace.as_mut() {
        st.run_dir = run_dir;
    }
    out
}
