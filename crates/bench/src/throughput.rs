//! The tick-throughput baseline: agents/second of the single-node engine,
//! serial vs parallel, per model / population / index kind.
//!
//! `cargo run -p brace-bench --release -- tick-throughput` runs the matrix
//! and writes `BENCH_tick_throughput.json`, the perf trajectory future PRs
//! regress against (see ROADMAP "Open items"). `--quick` runs a miniature
//! matrix as a CI smoke test (panics, shape mismatches and gross
//! regressions on the perf path surface on every PR). The paper's figures
//! report relative shapes; this baseline pins absolute per-phase numbers
//! on the machine that produced it.

use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim};
use brace_models::{FishBehavior, FishParams, TrafficBehavior, TrafficParams};
use brace_scenario::{brasil_unoptimized, Registry, Runner};
use brace_spatial::IndexKind;
use std::sync::Arc;

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    pub model: &'static str,
    /// Requested population size (actual sizes differ slightly for traffic,
    /// whose population derives from segment length × density).
    pub agents: usize,
    pub actual_agents: usize,
    pub index: IndexKind,
    /// `"serial"` (parallelism 1) or `"parallel"` (the run's thread budget).
    pub mode: &'static str,
    /// Thread budget the engine ran with (serial rows report 1).
    pub parallelism: usize,
    /// `true` for heavy-tailed hotspot populations (Zipf-weighted cluster
    /// seeding packs most agents into a few dense index buckets — the
    /// adversarial case for the bucket filter kernels and the merge);
    /// `false` for the uniform-ish model-default populations.
    pub hotspot: bool,
    pub ticks: u64,
    pub index_build_ns: u64,
    pub query_ns: u64,
    pub update_ns: u64,
    /// Index builds over the measured ticks: 0 where the tile join answers
    /// every probe, one per tick otherwise.
    pub index_rebuilds: u64,
    /// Agent-ticks per second of query-phase time — the number the sharded
    /// executor exists to improve.
    pub query_agents_per_sec: f64,
    /// Agent-ticks per second of whole-tick time (index + query + update).
    pub tick_agents_per_sec: f64,
}

/// Configuration for [`tick_throughput`].
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Population sizes to measure (default 10k and 100k).
    pub agent_counts: Vec<usize>,
    /// Measured ticks per configuration (after warm-up).
    pub ticks: u64,
    pub warmup: u64,
    /// Thread budget for the parallel rows (`0` = all cores).
    pub parallelism: usize,
    /// Populations above this size skip [`IndexKind::Scan`] (quadratic: a
    /// single 100k-agent scan tick is ~1e10 distance checks). Skips are
    /// recorded in [`ThroughputReport::skipped`] rather than silently
    /// dropped.
    pub scan_cap: usize,
    /// Population size for the cluster-throughput section (`0` skips the
    /// section entirely).
    pub cluster_agents: usize,
    /// Worker counts for the cluster-throughput section (empty skips it).
    pub cluster_workers: Vec<usize>,
    /// Population size for the per-scenario registry section (`0` skips
    /// it). Smaller than the main matrix: the section's job is one
    /// comparable row per registered scenario — including the interpreted
    /// BRASIL workloads — not a deep sweep.
    pub scenario_agents: usize,
    /// Population size for the BRASIL optimizer A/B section (`0` skips
    /// it): every `brasil-*` scenario, optimized pipeline vs its
    /// unoptimized twin, same population and seed.
    pub opt_agents: usize,
    /// Population size for the hotspot section (`0` skips it): fish +
    /// traffic reseeded into Zipf-weighted clusters, KD-tree + grid,
    /// serial — the heavy-tailed density case the uniform matrix never
    /// exercises.
    pub hotspot_agents: usize,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            agent_counts: vec![10_000, 100_000],
            ticks: 3,
            warmup: 1,
            parallelism: 0,
            scan_cap: 20_000,
            cluster_agents: 20_000,
            cluster_workers: vec![1, 2, 4],
            scenario_agents: 5_000,
            opt_agents: 100_000,
            hotspot_agents: 100_000,
        }
    }
}

impl ThroughputConfig {
    /// The `--quick` CI smoke preset: one small population, two ticks —
    /// enough to drive every mode of the perf path end to end in seconds.
    pub fn quick() -> Self {
        ThroughputConfig {
            agent_counts: vec![2_000],
            ticks: 2,
            warmup: 1,
            parallelism: 2,
            scan_cap: 2_500,
            cluster_agents: 2_000,
            cluster_workers: vec![1, 2, 4],
            scenario_agents: 500,
            opt_agents: 500,
            hotspot_agents: 2_000,
        }
    }
}

/// Derived per-configuration comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    pub model: String,
    pub agents: usize,
    pub index: IndexKind,
    /// Parallel over serial, query-phase throughput.
    pub query_speedup: f64,
    /// Parallel over serial, whole-tick throughput.
    pub tick_speedup: f64,
    /// True when the matrix ran on a single visible core: both columns are
    /// parallel over serial, so the whole row is then pure timing noise —
    /// threads time-slice one core — and must not be compared or regressed
    /// against.
    pub unreliable: bool,
}

/// One cluster-throughput configuration: the distributed runtime under
/// delta distribution, with per-tick network bytes split by traffic class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRow {
    pub model: &'static str,
    pub workers: usize,
    pub actual_agents: usize,
    /// Measured (post-warmup) ticks.
    pub ticks: u64,
    /// Agent-ticks per second of wall time across the measured epochs.
    pub agents_per_sec: f64,
    /// Per-tick network bytes by traffic class (measured epochs only).
    pub transfer_bytes_per_tick: f64,
    pub replica_full_bytes_per_tick: f64,
    pub replica_delta_bytes_per_tick: f64,
    pub effects_bytes_per_tick: f64,
    /// True when the matrix ran on a single visible core: worker threads
    /// then time-slice one core, so `agents_per_sec` scaling across worker
    /// counts is timing noise. The byte columns are counted, not timed, and
    /// stay exact.
    pub unreliable: bool,
}

/// One registry-scenario configuration: the scenario's default setup
/// driven through the backend-erased `Runner`, serial single node. Rows are
/// keyed by registry name, so a scenario lands in the baseline the moment
/// it is registered.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Registry name.
    pub scenario: String,
    /// Spatial index the scenario defaults to.
    pub index: IndexKind,
    pub actual_agents: usize,
    /// Measured (post-warmup) ticks.
    pub ticks: u64,
    /// Agent-ticks per second of query-phase time.
    pub query_agents_per_sec: f64,
    /// Agent-ticks per second of whole-tick time.
    pub tick_agents_per_sec: f64,
}

/// One BRASIL optimizer A/B configuration: the registered (optimized)
/// scenario against its [`brasil_unoptimized`] twin — same population,
/// seed, index and horizon, serial single node. The two
/// runs are bit-identical by contract (`tests/opt_equivalence.rs`), so
/// every delta here is pure optimizer effect: the probe-rect pushdown
/// shows up as `candidate_reduction`, it and the folded plan together as
/// `opt_speedup`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptRow {
    /// Registry name (`brasil-*`).
    pub scenario: String,
    pub index: IndexKind,
    pub actual_agents: usize,
    /// Measured (post-warmup) ticks.
    pub ticks: u64,
    pub opt_query_agents_per_sec: f64,
    pub opt_tick_agents_per_sec: f64,
    pub unopt_query_agents_per_sec: f64,
    pub unopt_tick_agents_per_sec: f64,
    /// Candidates the query phase visited over the measured ticks.
    pub opt_neighbor_visits: u64,
    pub unopt_neighbor_visits: u64,
    /// Optimized over unoptimized, query-phase throughput (the phase the
    /// optimizer changes).
    pub opt_speedup: f64,
    /// Optimized over unoptimized, whole-tick throughput.
    pub opt_tick_speedup: f64,
    /// Unoptimized over optimized neighbor visits: > 1 when
    /// visibility-predicate pushdown shrinks the probe rect, 1.0 when the
    /// scenario has no pushable predicate.
    pub candidate_reduction: f64,
}

/// The telemetry-overhead ablation: the headline row (fish at the largest
/// configured population, serial, KD-tree) timed twice —
/// once with the process-global telemetry flag off, once with it on. The
/// paired runs are bit-identical by contract
/// (`tests/telemetry_equivalence.rs`), so the delta is the full cost of
/// recording: four phase-timer clock reads plus a handful of relaxed
/// atomic adds per tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRow {
    pub model: &'static str,
    pub agents: usize,
    pub actual_agents: usize,
    pub index: IndexKind,
    /// Measured (post-warmup) ticks per side.
    pub ticks: u64,
    pub off_tick_agents_per_sec: f64,
    pub on_tick_agents_per_sec: f64,
    /// `(off − on) / off` as a percentage of whole-tick throughput.
    /// Negative values are timing noise in the enabled run's favor.
    pub overhead_pct: f64,
    /// True when the matrix ran on a single visible core. The comparison
    /// is serial-vs-serial so it stays directionally meaningful, but the
    /// noise floor on a time-sliced core can exceed the effect being
    /// measured — regression tooling must not hard-fail flagged rows.
    pub unreliable: bool,
}

/// The full measurement matrix plus derived speedups.
#[derive(Debug, Clone, Default)]
pub struct ThroughputReport {
    pub rows: Vec<ThroughputRow>,
    pub speedups: Vec<SpeedupRow>,
    /// The cluster-throughput section (distributed runtime).
    pub cluster: Vec<ClusterRow>,
    /// The per-scenario registry section (one row per registered scenario).
    pub scenarios: Vec<ScenarioRow>,
    /// The BRASIL optimizer A/B section (one row per `brasil-*` scenario).
    pub opt: Vec<OptRow>,
    /// The telemetry-overhead ablation (one headline row, off vs on).
    pub telemetry: Vec<TelemetryRow>,
    /// Configurations skipped with the reason (e.g. scan at 100k).
    pub skipped: Vec<String>,
    /// Cores visible to the process when the matrix ran.
    pub cores: usize,
}

fn fish_world(n: usize) -> (FishBehavior, Vec<Agent>) {
    // Constant density (as in Figure 4): the school radius grows with the
    // population so per-probe neighborhood size stays scale-independent.
    let params = FishParams { school_radius: (n as f64 / std::f64::consts::PI / 0.5).sqrt(), ..FishParams::default() };
    let behavior = FishBehavior::new(params);
    let pop = behavior.population(n, 42);
    (behavior, pop)
}

fn traffic_world(n: usize) -> (TrafficBehavior, Vec<Agent>) {
    let defaults = TrafficParams::default();
    // population = floor(segment × density) × lanes ⇒ pick segment for ≈ n.
    let segment = n as f64 / (defaults.density * defaults.lanes as f64);
    let params = TrafficParams { segment, ..defaults };
    let behavior = TrafficBehavior::new(params);
    let pop = behavior.population(42);
    (behavior, pop)
}

/// Reseed a population's positions into a heavy-tailed hotspot layout:
/// `HOTSPOT_CLUSTERS` cluster centers spread over the original bounding
/// box, each agent assigned by Zipf weight (cluster `k` draws ∝ 1/(k+1),
/// so the top cluster holds ~27% of the population) and offset from its
/// center by a normal perturbation of ~1/64 of the box extent. The result
/// packs most agents into a few dense index buckets — the adversarial case
/// for the bucket filter kernels and the k-way merge. Everything is a pure
/// function of `(seed, agent index)`, so rows are reproducible.
///
/// `cluster_y` keeps the y coordinate untouched when `false`: traffic
/// agents must stay on their lane line, so its hotspots are congestion
/// bands along the road, not 2-D blobs.
fn hotspotize(pop: &mut [Agent], seed: u64, cluster_y: bool) {
    const HOTSPOT_CLUSTERS: usize = 12;
    if pop.is_empty() {
        return;
    }
    let (mut lox, mut hix, mut loy, mut hiy) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for a in pop.iter() {
        lox = lox.min(a.pos.x);
        hix = hix.max(a.pos.x);
        loy = loy.min(a.pos.y);
        hiy = hiy.max(a.pos.y);
    }
    let (ex, ey) = ((hix - lox).max(f64::MIN_POSITIVE), (hiy - loy).max(f64::MIN_POSITIVE));
    let root = brace_common::DetRng::seed_from_u64(seed);
    let mut centers = root.stream(0xC3);
    let centers: Vec<(f64, f64)> =
        (0..HOTSPOT_CLUSTERS).map(|_| (centers.range(lox, hix), centers.range(loy, hiy))).collect();
    // Zipf CDF over cluster ranks: weight(k) ∝ 1/(k+1).
    let total: f64 = (0..HOTSPOT_CLUSTERS).map(|k| 1.0 / (k + 1) as f64).sum();
    let mut cdf = Vec::with_capacity(HOTSPOT_CLUSTERS);
    let mut acc = 0.0;
    for k in 0..HOTSPOT_CLUSTERS {
        acc += 1.0 / (k + 1) as f64 / total;
        cdf.push(acc);
    }
    for (i, a) in pop.iter_mut().enumerate() {
        let mut r = root.stream(i as u64 + 1);
        let u = r.unit();
        let k = cdf.iter().position(|&c| u < c).unwrap_or(HOTSPOT_CLUSTERS - 1);
        let (cx, cy) = centers[k];
        a.pos.x = (cx + r.normal() * ex / 64.0).clamp(lox, hix);
        if cluster_y {
            a.pos.y = (cy + r.normal() * ey / 64.0).clamp(loy, hiy);
        }
    }
}

fn fish_hotspot_world(n: usize) -> (FishBehavior, Vec<Agent>) {
    let (behavior, mut pop) = fish_world(n);
    hotspotize(&mut pop, 0xB07, true);
    (behavior, pop)
}

fn traffic_hotspot_world(n: usize) -> (TrafficBehavior, Vec<Agent>) {
    let (behavior, mut pop) = traffic_world(n);
    hotspotize(&mut pop, 0xB07, false);
    (behavior, pop)
}

struct MeasureCtx {
    model: &'static str,
    agents: usize,
    kind: IndexKind,
    mode: &'static str,
    parallelism: usize,
    hotspot: bool,
    warmup: u64,
    ticks: u64,
}

fn measure_exec<B: Behavior>(ctx: &MeasureCtx, behavior: B, pop: Vec<Agent>) -> ThroughputRow {
    let actual = pop.len();
    let mut sim = Simulation::builder(behavior)
        .agents(pop)
        .index(ctx.kind)
        .seed(42)
        .parallelism(ctx.parallelism)
        .build()
        .unwrap();
    sim.run(ctx.warmup);
    sim.reset_metrics();
    let rebuilds_before = sim.index_rebuilds();
    sim.run(ctx.ticks);
    let m = sim.metrics();
    let per_sec = |ns: u64| if ns == 0 { 0.0 } else { m.agent_ticks as f64 / (ns as f64 / 1e9) };
    ThroughputRow {
        model: ctx.model,
        agents: ctx.agents,
        actual_agents: actual,
        index: ctx.kind,
        mode: ctx.mode,
        parallelism: ctx.parallelism,
        hotspot: ctx.hotspot,
        ticks: m.ticks,
        index_build_ns: m.index_build_ns,
        query_ns: m.query_ns,
        update_ns: m.update_ns,
        index_rebuilds: sim.index_rebuilds() - rebuilds_before,
        query_agents_per_sec: per_sec(m.query_ns),
        tick_agents_per_sec: per_sec(m.total_ns),
    }
}

/// Measure one cluster configuration: one warmup epoch, then two measured
/// epochs with the network ledger reset in between.
fn measure_cluster(model: &'static str, workers: usize, n: usize) -> ClusterRow {
    const EPOCH_LEN: u64 = 5;
    const MEASURED_EPOCHS: u64 = 2;
    let (behavior, pop, space_x): (Arc<dyn Behavior>, Vec<Agent>, (f64, f64)) = if model == "fish" {
        let (b, pop) = fish_world(n);
        let r = b.params().school_radius;
        (Arc::new(b), pop, (-r, r))
    } else {
        let (b, pop) = traffic_world(n);
        let seg = b.params().segment;
        (Arc::new(b), pop, (0.0, seg))
    };
    let actual = pop.len();
    let cfg = ClusterConfig {
        workers,
        epoch_len: EPOCH_LEN,
        seed: 42,
        space_x,
        load_balance: false,
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(behavior, pop, cfg).expect("cluster config is valid");
    sim.run_epochs(1).expect("warmup epoch");
    sim.reset_net();
    let before = sim.stats();
    sim.run_epochs(MEASURED_EPOCHS).expect("measured epochs");
    let after = sim.stats();
    let ticks = MEASURED_EPOCHS * EPOCH_LEN;
    let wall_ns = after.wall_ns - before.wall_ns;
    let agent_ticks = after.agent_ticks - before.agent_ticks;
    let net = after.net; // reset before measurement, so this is measured-only
    let per_tick = |b: u64| b as f64 / ticks as f64;
    ClusterRow {
        model,
        workers,
        actual_agents: actual,
        ticks,
        agents_per_sec: if wall_ns == 0 { 0.0 } else { agent_ticks as f64 / (wall_ns as f64 / 1e9) },
        transfer_bytes_per_tick: per_tick(net.transfer.bytes),
        replica_full_bytes_per_tick: per_tick(net.replica_full.bytes),
        replica_delta_bytes_per_tick: per_tick(net.replica_delta.bytes),
        effects_bytes_per_tick: per_tick(net.effects.bytes),
        unreliable: false, // marked by `tick_throughput` when cores == 1
    }
}

/// The cluster-throughput section: fish + traffic at the configured
/// population over 1/2/4 workers.
pub fn cluster_throughput(cfg: &ThroughputConfig) -> Vec<ClusterRow> {
    let mut rows = Vec::new();
    if cfg.cluster_agents == 0 || cfg.cluster_workers.is_empty() {
        return rows;
    }
    for model in ["fish", "traffic"] {
        for &workers in &cfg.cluster_workers {
            rows.push(measure_cluster(model, workers, cfg.cluster_agents));
        }
    }
    rows
}

/// The per-scenario registry section: every registered scenario at the
/// configured population, built and driven through the backend-erased
/// `Runner` facade (serial single node, the scenario's default index), one
/// row per registry name.
pub fn scenario_throughput(cfg: &ThroughputConfig) -> Vec<ScenarioRow> {
    let mut rows = Vec::new();
    if cfg.scenario_agents == 0 {
        return rows;
    }
    let registry = Registry::builtin();
    for scenario in registry.iter() {
        // One build serves both the row's metadata (index, actual size)
        // and the launch — BRASIL scenarios compile their script per
        // build, so `launch_with` avoids paying that twice. The explicit
        // seed keeps the inspected setup and the measured run coupled.
        let setup = scenario
            .build(Some(cfg.scenario_agents), brace_scenario::runner::DEFAULT_SEED)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to build: {e}", scenario.name()));
        let index = setup.index;
        let actual_agents = setup.population.len();
        let mut handle = Runner::new(scenario)
            .launch_with(setup)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to launch: {e}", scenario.name()));
        handle.run(cfg.warmup).expect("single-node warmup");
        handle.reset_metrics();
        handle.run(cfg.ticks).expect("single-node measurement");
        let m = handle.metrics().expect("single-node backend has metrics").clone();
        let per_sec = |ns: u64| if ns == 0 { 0.0 } else { m.agent_ticks as f64 / (ns as f64 / 1e9) };
        rows.push(ScenarioRow {
            scenario: scenario.name().to_string(),
            index,
            actual_agents,
            ticks: m.ticks,
            query_agents_per_sec: per_sec(m.query_ns),
            tick_agents_per_sec: per_sec(m.total_ns),
        });
    }
    rows
}

/// The BRASIL optimizer A/B section: every registered `brasil-*` scenario
/// at the configured population, optimized vs its unoptimized twin, on the
/// scenario's default index — serial, same seed, so the
/// only difference between the paired runs is the pass pipeline.
pub fn opt_throughput(cfg: &ThroughputConfig) -> Vec<OptRow> {
    let mut rows = Vec::new();
    if cfg.opt_agents == 0 {
        return rows;
    }
    let registry = Registry::builtin();
    for name in registry.names().into_iter().filter(|n| n.starts_with("brasil-")) {
        let measure = |scenario: &dyn brace_scenario::Scenario| -> (f64, f64, u64) {
            let setup = scenario
                .build(Some(cfg.opt_agents), 42)
                .unwrap_or_else(|e| panic!("scenario `{name}` failed to build: {e}"));
            let mut sim = Simulation::builder(setup.behavior)
                .agents(setup.population)
                .index(setup.index)
                .seed(42)
                .parallelism(1)
                .build()
                .unwrap();
            sim.run(cfg.warmup);
            sim.reset_metrics();
            sim.run(cfg.ticks);
            let m = sim.metrics();
            let per_sec = |ns: u64| if ns == 0 { 0.0 } else { m.agent_ticks as f64 / (ns as f64 / 1e9) };
            (per_sec(m.query_ns), per_sec(m.total_ns), m.neighbor_visits)
        };
        let optimized = registry.get(name).expect("registered scenario");
        let twin = brasil_unoptimized(name).expect("every brasil-* scenario has an unoptimized twin");
        let setup = optimized.build(Some(cfg.opt_agents), 42).expect("setup for row metadata");
        let (opt_q, opt_t, opt_visits) = measure(optimized);
        let (unopt_q, unopt_t, unopt_visits) = measure(twin.as_ref());
        rows.push(OptRow {
            scenario: name.to_string(),
            index: setup.index,
            actual_agents: setup.population.len(),
            ticks: cfg.ticks,
            opt_query_agents_per_sec: opt_q,
            opt_tick_agents_per_sec: opt_t,
            unopt_query_agents_per_sec: unopt_q,
            unopt_tick_agents_per_sec: unopt_t,
            opt_neighbor_visits: opt_visits,
            unopt_neighbor_visits: unopt_visits,
            opt_speedup: opt_q / unopt_q.max(1e-9),
            opt_tick_speedup: opt_t / unopt_t.max(1e-9),
            candidate_reduction: unopt_visits as f64 / (opt_visits as f64).max(1.0),
        });
    }
    rows
}

/// The telemetry-overhead ablation: time the headline fish configuration
/// (largest configured population, serial, KD-tree) with
/// the global telemetry flag off, then on. The engine captures the flag
/// at construction, so each side builds its own engine; the prior flag
/// state is restored afterwards. A few extra measured ticks push the
/// per-tick cost above the clock's noise floor on quick runs.
pub fn telemetry_overhead(cfg: &ThroughputConfig) -> Vec<TelemetryRow> {
    let Some(&n) = cfg.agent_counts.iter().max() else {
        return Vec::new();
    };
    let ticks = cfg.ticks.max(8);
    let was = brace_telemetry::enabled();
    let measure = |enabled: bool| -> ThroughputRow {
        brace_telemetry::set_enabled(enabled);
        let ctx = MeasureCtx {
            model: "fish",
            agents: n,
            kind: IndexKind::KdTree,
            mode: if enabled { "telemetry-on" } else { "telemetry-off" },
            parallelism: 1,
            hotspot: false,
            warmup: cfg.warmup,
            ticks,
        };
        let (behavior, pop) = fish_world(n);
        measure_exec(&ctx, behavior, pop)
    };
    let off = measure(false);
    let on = measure(true);
    brace_telemetry::set_enabled(was);
    vec![TelemetryRow {
        model: "fish",
        agents: n,
        actual_agents: off.actual_agents,
        index: IndexKind::KdTree,
        ticks,
        off_tick_agents_per_sec: off.tick_agents_per_sec,
        on_tick_agents_per_sec: on.tick_agents_per_sec,
        overhead_pct: (1.0 - on.tick_agents_per_sec / off.tick_agents_per_sec.max(1e-9)) * 100.0,
        unreliable: false, // marked by `tick_throughput` when cores == 1
    }]
}

/// Run the measurement matrix over fish + traffic, every population size
/// and every index kind (scan capped per the config): serial and parallel.
pub fn tick_throughput(cfg: &ThroughputConfig) -> ThroughputReport {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel_threads = if cfg.parallelism == 0 { cores } else { cfg.parallelism };
    let mut report = ThroughputReport { cores, ..Default::default() };
    let kinds = [IndexKind::KdTree, IndexKind::Grid, IndexKind::Scan];
    for &n in &cfg.agent_counts {
        for kind in kinds {
            if kind == IndexKind::Scan && n > cfg.scan_cap {
                report.skipped.push(format!("scan index at {n} agents (quadratic; cap {})", cfg.scan_cap));
                continue;
            }
            for model in ["fish", "traffic"] {
                let run = |mode: &'static str, threads: usize| -> ThroughputRow {
                    let ctx = MeasureCtx {
                        model,
                        agents: n,
                        kind,
                        mode,
                        parallelism: threads,
                        hotspot: false,
                        warmup: cfg.warmup,
                        ticks: cfg.ticks,
                    };
                    if model == "fish" {
                        let (b, pop) = fish_world(n);
                        measure_exec(&ctx, b, pop)
                    } else {
                        let (b, pop) = traffic_world(n);
                        measure_exec(&ctx, b, pop)
                    }
                };
                let serial = run("serial", 1);
                let parallel = run("parallel", parallel_threads);
                report.speedups.push(SpeedupRow {
                    model: model.to_string(),
                    agents: n,
                    index: kind,
                    query_speedup: parallel.query_agents_per_sec / serial.query_agents_per_sec.max(1e-9),
                    tick_speedup: parallel.tick_agents_per_sec / serial.tick_agents_per_sec.max(1e-9),
                    unreliable: false, // marked below when cores == 1
                });
                report.rows.push(serial);
                report.rows.push(parallel);
            }
        }
    }
    // The hotspot section: fish + traffic reseeded into Zipf-weighted
    // clusters ([`hotspotize`]), KD-tree + grid, serial. Dense buckets are
    // the adversarial case for the join's blocks and the grid's k-way merge.
    if cfg.hotspot_agents > 0 {
        let n = cfg.hotspot_agents;
        for kind in [IndexKind::KdTree, IndexKind::Grid] {
            for model in ["fish", "traffic"] {
                let ctx = MeasureCtx {
                    model,
                    agents: n,
                    kind,
                    mode: "serial",
                    parallelism: 1,
                    hotspot: true,
                    warmup: cfg.warmup,
                    ticks: cfg.ticks,
                };
                report.rows.push(if model == "fish" {
                    let (b, pop) = fish_hotspot_world(n);
                    measure_exec(&ctx, b, pop)
                } else {
                    let (b, pop) = traffic_hotspot_world(n);
                    measure_exec(&ctx, b, pop)
                });
            }
        }
    }
    report.cluster = cluster_throughput(cfg);
    // Bench honesty: with one visible core there is no parallelism to
    // measure — every thread-parallel comparison is scheduler noise.
    // Mark those rows so the quick smoke and regression tooling skip
    // them instead of chasing phantom speedups (ROADMAP: "speedup rows
    // are noise" on 1-core containers).
    report.scenarios = scenario_throughput(cfg);
    report.opt = opt_throughput(cfg);
    report.telemetry = telemetry_overhead(cfg);
    if cores == 1 {
        for s in &mut report.speedups {
            s.unreliable = true;
        }
        for c in &mut report.cluster {
            c.unreliable = true;
        }
        for t in &mut report.telemetry {
            t.unreliable = true;
        }
    }
    report
}

fn index_name(kind: IndexKind) -> &'static str {
    match kind {
        IndexKind::Scan => "scan",
        IndexKind::KdTree => "kdtree",
        IndexKind::Grid => "grid",
    }
}

/// Render the report as the `BENCH_tick_throughput.json` document. Written
/// by hand (the offline build has no serde_json); the format is stable:
/// bump `schema_version` on layout changes. Version 2 added the `rebuild`
/// and SoA-vs-AoS ablation rows, the per-row `index_rebuilds` column and
/// their two ablation-ratio columns (gone since versions 11 and 12). Version 3 added
/// the `scalar-kernel` ablation rows and the `kernel_speedup` column
/// (batched lane kernels over the scalar probe loop; both gone since
/// version 10). Version 4 added the
/// `cluster` section: distributed-runtime throughput with per-tick bytes
/// split by traffic class and a delta-over-full replica-byte ratio (gone
/// since version 13).
/// Version 5 added the `scenarios` section: one row per scenario-registry
/// entry, keyed by registry name (`rows`/`speedups` stay keyed by the same
/// names for fish and traffic, so v4 comparisons carry over unchanged).
/// Version 6 added the `opt` section: the BRASIL optimizer A/B — every
/// `brasil-*` scenario, optimized pipeline vs its unoptimized twin, with
/// the `opt_speedup` / `opt_tick_speedup` ratios and the
/// `candidate_reduction` from visibility-predicate pushdown. Version 7
/// added the `unreliable` flag on `speedups` and `cluster` rows: `true`
/// when the matrix ran on one visible core, where thread-parallel
/// comparisons are timing noise — regression tooling must skip comparing
/// flagged rows. Version 8 added the `hotspot` population field on `rows`
/// and `speedups`: `true` for the heavy-tailed Zipf-clustered populations
/// (serial rows only). Tooling must compare uniform rows against uniform
/// and hotspot against hotspot. Version 9 added the `telemetry` section:
/// the telemetry-overhead ablation — the headline fish row timed with the
/// global recording flag off vs on, with `overhead_pct` and the 1-core
/// `unreliable` marking (the paired runs are bit-identical by contract, so
/// the delta is pure recording cost). Version 10 dropped the batched query
/// kernels: no `scalar-kernel` rows, no `kernel_speedup` column and no
/// hotspot `speedups` rows (their one measured column was that ratio), and
/// `speedups` rows lost the `hotspot` field (they are all uniform). Version
/// 11 dropped the `rebuild` rows and the incremental-maintenance ratio:
/// every index is build-only, so there is no maintenance to ablate. Version
/// 12 dropped the SoA-vs-AoS rows and ratio: the `Vec<Agent>` reference path
/// is a test oracle, not a mode, so `speedups` rows are parallel over serial
/// only. Version 13 dropped the cluster rows' replica-byte ratio against full
/// redistribution: delta frames are the one replica transport.
pub fn to_json(report: &ThroughputReport, cfg: &ThroughputConfig) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 13,\n");
    out.push_str(&format!("  \"cores\": {},\n", report.cores));
    out.push_str(&format!("  \"measured_ticks\": {},\n", cfg.ticks));
    out.push_str(&format!("  \"warmup_ticks\": {},\n", cfg.warmup));
    out.push_str("  \"rows\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"agents\": {}, \"actual_agents\": {}, \"index\": \"{}\", \
             \"mode\": \"{}\", \"parallelism\": {}, \"hotspot\": {}, \"ticks\": {}, \"index_build_ns\": {}, \
             \"query_ns\": {}, \"update_ns\": {}, \"index_rebuilds\": {}, \
             \"query_agents_per_sec\": {:.1}, \"tick_agents_per_sec\": {:.1}}}{}\n",
            r.model,
            r.agents,
            r.actual_agents,
            index_name(r.index),
            r.mode,
            r.parallelism,
            r.hotspot,
            r.ticks,
            r.index_build_ns,
            r.query_ns,
            r.update_ns,
            r.index_rebuilds,
            r.query_agents_per_sec,
            r.tick_agents_per_sec,
            if i + 1 == report.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups\": [\n");
    for (i, s) in report.speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"agents\": {}, \"index\": \"{}\", \
             \"query_speedup\": {:.3}, \"tick_speedup\": {:.3}, \"unreliable\": {}}}{}\n",
            s.model,
            s.agents,
            index_name(s.index),
            s.query_speedup,
            s.tick_speedup,
            s.unreliable,
            if i + 1 == report.speedups.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cluster\": [\n");
    for (i, c) in report.cluster.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"workers\": {}, \"actual_agents\": {}, \"ticks\": {}, \
             \"agents_per_sec\": {:.1}, \"transfer_bytes_per_tick\": {:.1}, \
             \"replica_full_bytes_per_tick\": {:.1}, \"replica_delta_bytes_per_tick\": {:.1}, \
             \"effects_bytes_per_tick\": {:.1}, \"unreliable\": {}}}{}\n",
            c.model,
            c.workers,
            c.actual_agents,
            c.ticks,
            c.agents_per_sec,
            c.transfer_bytes_per_tick,
            c.replica_full_bytes_per_tick,
            c.replica_delta_bytes_per_tick,
            c.effects_bytes_per_tick,
            c.unreliable,
            if i + 1 == report.cluster.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in report.scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"index\": \"{}\", \"actual_agents\": {}, \"ticks\": {}, \
             \"query_agents_per_sec\": {:.1}, \"tick_agents_per_sec\": {:.1}}}{}\n",
            s.scenario,
            index_name(s.index),
            s.actual_agents,
            s.ticks,
            s.query_agents_per_sec,
            s.tick_agents_per_sec,
            if i + 1 == report.scenarios.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"opt\": [\n");
    for (i, o) in report.opt.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"index\": \"{}\", \"actual_agents\": {}, \"ticks\": {}, \
             \"opt_query_agents_per_sec\": {:.1}, \"opt_tick_agents_per_sec\": {:.1}, \
             \"unopt_query_agents_per_sec\": {:.1}, \"unopt_tick_agents_per_sec\": {:.1}, \
             \"opt_neighbor_visits\": {}, \"unopt_neighbor_visits\": {}, \
             \"opt_speedup\": {:.3}, \"opt_tick_speedup\": {:.3}, \"candidate_reduction\": {:.3}}}{}\n",
            o.scenario,
            index_name(o.index),
            o.actual_agents,
            o.ticks,
            o.opt_query_agents_per_sec,
            o.opt_tick_agents_per_sec,
            o.unopt_query_agents_per_sec,
            o.unopt_tick_agents_per_sec,
            o.opt_neighbor_visits,
            o.unopt_neighbor_visits,
            o.opt_speedup,
            o.opt_tick_speedup,
            o.candidate_reduction,
            if i + 1 == report.opt.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"telemetry\": [\n");
    for (i, t) in report.telemetry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"model\": \"{}\", \"agents\": {}, \"actual_agents\": {}, \"index\": \"{}\", \
             \"ticks\": {}, \"off_tick_agents_per_sec\": {:.1}, \"on_tick_agents_per_sec\": {:.1}, \
             \"overhead_pct\": {:.3}, \"unreliable\": {}}}{}\n",
            t.model,
            t.agents,
            t.actual_agents,
            index_name(t.index),
            t.ticks,
            t.off_tick_agents_per_sec,
            t.on_tick_agents_per_sec,
            t.overhead_pct,
            t.unreliable,
            if i + 1 == report.telemetry.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"skipped\": [\n");
    for (i, s) in report.skipped.iter().enumerate() {
        out.push_str(&format!("    \"{}\"{}\n", s, if i + 1 == report.skipped.len() { "" } else { "," }));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_matrix_runs_and_serializes() {
        let cfg = ThroughputConfig {
            agent_counts: vec![300],
            ticks: 1,
            warmup: 0,
            parallelism: 2,
            scan_cap: 1_000,
            cluster_agents: 300,
            cluster_workers: vec![1, 2],
            scenario_agents: 150,
            opt_agents: 150,
            hotspot_agents: 300,
        };
        let report = tick_throughput(&cfg);
        // 1 size × 3 kinds × 2 models × 2 modes (uniform matrix), plus the
        // hotspot section: 2 kinds × 2 models, serial.
        assert_eq!(report.rows.len(), 16);
        assert_eq!(report.speedups.len(), 6);
        assert!(report.skipped.is_empty());
        for mode in ["serial", "parallel"] {
            assert!(report.rows.iter().any(|r| r.mode == mode), "missing mode {mode}");
        }
        for model in ["fish", "traffic"] {
            for kind in [IndexKind::KdTree, IndexKind::Grid] {
                let row = report
                    .rows
                    .iter()
                    .find(|r| r.hotspot && r.model == model && r.index == kind && r.mode == "serial")
                    .unwrap_or_else(|| panic!("missing hotspot row {model}/{kind:?}"));
                assert!(row.tick_agents_per_sec > 0.0, "hotspot row {row:?} measured nothing");
            }
        }
        assert!(report.speedups.iter().all(|s| s.tick_speedup > 0.0), "{:?}", report.speedups);
        assert!(report.rows.iter().filter(|r| !r.hotspot).count() == 12, "uniform matrix shrank");
        // Cluster section: 2 models × 2 worker counts.
        assert_eq!(report.cluster.len(), 4);
        for c in &report.cluster {
            assert!(c.agents_per_sec > 0.0, "cluster row {c:?} measured nothing");
        }
        // Scenario section: one row per registry entry, keyed by name.
        let registry = Registry::builtin();
        assert_eq!(report.scenarios.len(), registry.len());
        for name in registry.names() {
            let row = report
                .scenarios
                .iter()
                .find(|s| s.scenario == name)
                .unwrap_or_else(|| panic!("missing scenario row `{name}`"));
            assert!(row.tick_agents_per_sec > 0.0, "scenario row {row:?} measured nothing");
        }
        // Optimizer A/B section: one row per brasil-* scenario, with the
        // pushdown visible as a real candidate reduction on the car script
        // (its guard bounds the probe rect to leaders only).
        assert_eq!(report.opt.len(), 3, "one opt row per brasil-* scenario: {:?}", report.opt);
        for o in &report.opt {
            assert!(o.scenario.starts_with("brasil-"), "{o:?}");
            assert!(o.opt_tick_agents_per_sec > 0.0 && o.unopt_tick_agents_per_sec > 0.0, "{o:?}");
            assert!(o.opt_neighbor_visits > 0 && o.unopt_neighbor_visits > 0, "{o:?}");
        }
        let car = report.opt.iter().find(|o| o.scenario == "brasil-car").expect("car opt row");
        assert!(car.candidate_reduction > 1.2, "pushdown must shrink the car probe rect: {car:?}");
        // Telemetry-overhead ablation: one headline row, both sides timed,
        // flag restored. The overhead magnitude is asserted by the quick
        // smoke (where populations are big enough to time), not here.
        assert_eq!(report.telemetry.len(), 1, "{:?}", report.telemetry);
        let t = &report.telemetry[0];
        assert_eq!((t.model, t.agents), ("fish", 300));
        assert!(t.off_tick_agents_per_sec > 0.0 && t.on_tick_agents_per_sec > 0.0, "{t:?}");
        assert!(t.overhead_pct.is_finite(), "{t:?}");
        assert_eq!(t.unreliable, report.cores == 1);
        assert!(!brace_telemetry::enabled(), "ablation must restore the global flag");
        let json = to_json(&report, &cfg);
        assert!(json.contains("\"schema_version\": 13"));
        assert!(json.contains("\"overhead_pct\""));
        assert!(json.contains("\"off_tick_agents_per_sec\""));
        assert!(json.contains("\"hotspot\": true") && json.contains("\"hotspot\": false"));
        // The 1-core honesty marking: flags must be present, and set (on
        // every speedups/cluster row) exactly when one core was visible.
        let single_core = report.cores == 1;
        assert!(json.contains("\"unreliable\":"));
        assert!(report.speedups.iter().all(|s| s.unreliable == single_core), "{:?}", report.speedups);
        assert!(report.cluster.iter().all(|c| c.unreliable == single_core), "{:?}", report.cluster);
        assert!(json.contains("\"opt_speedup\""));
        assert!(json.contains("\"candidate_reduction\""));
        assert!(json.contains("\"scenario\": \"brasil-car\""));
        assert!(json.contains("\"scenario\": \"flock-obstacles\""));
        assert!(json.contains("\"model\": \"traffic\""));
        assert!(json.contains("\"replica_delta_bytes_per_tick\""));
        assert!(json.ends_with("}\n"));
        // Crude balance check so the hand-rolled JSON stays well-formed.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn hotspot_seeding_is_heavy_tailed_deterministic_and_lane_preserving() {
        let (_, a) = fish_hotspot_world(2_000);
        let (_, b) = fish_hotspot_world(2_000);
        assert_eq!(a, b, "hotspot seeding must be a pure function of (seed, index)");
        // Heavy tail: bucket positions into a coarse 16×16 histogram over
        // the bounding box; the densest cell must hold far more than the
        // uniform share (1/256 ≈ 8 agents here — Zipf clustering puts
        // hundreds into the top cluster's cell).
        let (mut lox, mut hix, mut loy, mut hiy) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for ag in &a {
            lox = lox.min(ag.pos.x);
            hix = hix.max(ag.pos.x);
            loy = loy.min(ag.pos.y);
            hiy = hiy.max(ag.pos.y);
        }
        let mut hist = std::collections::HashMap::new();
        for ag in &a {
            let cx = (((ag.pos.x - lox) / (hix - lox) * 16.0) as i64).min(15);
            let cy = (((ag.pos.y - loy) / (hiy - loy) * 16.0) as i64).min(15);
            *hist.entry((cx, cy)).or_insert(0usize) += 1;
        }
        let top = hist.values().copied().max().unwrap();
        assert!(top > 10 * a.len() / 256, "densest cell holds {top}/{} — not heavy-tailed", a.len());
        // Traffic hotspots are congestion bands along the road: every
        // vehicle keeps its exact lane line (y untouched).
        let n = 1_000;
        let (_, uniform) = traffic_world(n);
        let (_, hot) = traffic_hotspot_world(n);
        assert_eq!(uniform.len(), hot.len());
        for (u, h) in uniform.iter().zip(&hot) {
            assert_eq!(u.id, h.id);
            assert_eq!(u.pos.y.to_bits(), h.pos.y.to_bits(), "lane line moved for {:?}", u.id);
        }
    }

    #[test]
    fn quick_preset_is_small() {
        let q = ThroughputConfig::quick();
        assert!(q.agent_counts.iter().all(|&n| n <= 5_000));
        assert!(q.ticks <= 2);
    }
}
