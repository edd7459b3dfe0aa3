//! The backend-erased driver: one [`Runner`] facade over the single-node
//! engine and the distributed cluster, with per-tick [`Observer`] hooks.
//!
//! The two engines differ in shape: `brace_core::Simulation` is
//! monomorphized and tick-grained (`step`, `agents()`), while
//! `brace_mapreduce::ClusterSim` is dyn-based and epoch-grained
//! (`run_epochs`, `collect_agents()`). A [`Runner`] erases the difference:
//! pick a [`Backend`], launch a [`SimHandle`], run ticks, collect the world.
//! Metric sinks hang off [`Observer`]s, and the run's own telemetry registry
//! is [`SimHandle::metrics`] (and [`RunReport::metrics`]). Both engines admit a population through the
//! same `brace_core::check_population`, so a launch fails or succeeds alike
//! on every backend.
//!
//! Determinism contract: for a fixed scenario, seed and population, every
//! backend — any `parallelism`, any worker count — produces the same world,
//! **bit for bit**: spawn ids are globally ordered, and every non-local
//! effect is folded once, in source-id order, on every engine.
//! `tests/scenario_conformance.rs` enforces this for every registry entry's
//! [`conformance_setup`](crate::conformance_setup).

use crate::jobline::JobSpec;
use crate::{conformance_setup, Scenario, ScenarioSetup};
use brace_common::{BraceError, Result};
use brace_core::metrics::{Metrics, TickMetrics};
use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, ClusterStats};
use brace_spatial::IndexKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default master seed for runner-driven runs (the repo's golden seed).
pub const DEFAULT_SEED: u64 = 42;

/// Where a scenario executes. The variants carry only *placement* knobs;
/// simulation semantics (behavior, population, seed, bounds, index, epoch
/// length) come from the scenario and the [`Runner`], so switching backend
/// can never silently switch workloads.
#[derive(Debug, Clone)]
// A handful of these exist per process (they are launch configuration, not
// bulk data), so the size gap between the variants is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// The in-process single-node engine (`brace_core::Simulation`).
    SingleNode {
        /// Thread budget (`1` = serial, `0` = all cores). Never affects
        /// results. [`Backend::parse`] gives `single` a budget of one;
        /// `brace-serve` runs a served `single` job at its own budget of
        /// `max(1, cores ÷ pool workers)` under the same label.
        parallelism: usize,
    },
    /// The simulated shared-nothing cluster. The embedded
    /// [`ClusterConfig`]'s placement fields (`workers`, `load_balance`,
    /// `balancer`, `checkpoint_*`, `parallelism`, `fault`) are honored;
    /// its `seed`, `index`, `space_x` and `epoch_len` are overwritten from
    /// the scenario setup and the runner at launch. With `run_dir` set the
    /// run is durable ([`crate::durable`]): [`Runner::launch`] and
    /// [`Runner::run`] write its `job` line, and [`Runner::run`] its
    /// `total_ticks`.
    Cluster(ClusterConfig),
}

impl Backend {
    /// The most workers a `cluster:N` spec may name. A cluster of N workers
    /// runs N threads joined by N² links, so [`Backend::parse`], which reads
    /// both the CLI's `--backend` and a served run's `"backend"`, refuses
    /// more (and refuses 0).
    pub const MAX_WORKERS: usize = 64;

    /// Serial single-node backend.
    pub fn single() -> Backend {
        Backend::SingleNode { parallelism: 1 }
    }

    /// Default cluster backend with `workers` workers.
    pub fn cluster(workers: usize) -> Backend {
        Backend::Cluster(ClusterConfig { workers, ..ClusterConfig::default() })
    }

    /// Parse a CLI backend spec: `single`, `cluster` (4 workers) or
    /// `cluster:N`, N from 1 to [`Backend::MAX_WORKERS`].
    pub fn parse(s: &str) -> Result<Backend> {
        match s {
            "single" => Ok(Backend::single()),
            "cluster" => Ok(Backend::cluster(4)),
            _ => match s.strip_prefix("cluster:") {
                Some(n) => {
                    let workers: usize =
                        n.parse().map_err(|e| BraceError::Config(format!("backend `{s}`: bad worker count: {e}")))?;
                    if workers == 0 || workers > Self::MAX_WORKERS {
                        return Err(BraceError::Config(format!(
                            "backend `{s}`: the worker count must be between 1 and {}",
                            Self::MAX_WORKERS
                        )));
                    }
                    Ok(Backend::cluster(workers))
                }
                None => Err(BraceError::Config(format!(
                    "unknown backend `{s}` (expected `single`, `cluster` or `cluster:N`)"
                ))),
            },
        }
    }

    /// Short display form (`single`, `cluster:4`).
    pub fn label(&self) -> String {
        match self {
            Backend::SingleNode { .. } => "single".to_string(),
            Backend::Cluster(cfg) => format!("cluster:{}", cfg.workers),
        }
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::single()
    }
}

/// Per-tick progress delivered to [`Observer::on_tick`]. Single-node runs
/// report every tick; cluster runs report at epoch boundaries (the
/// master's coordination grain), with `tick` the total completed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Ticks completed so far.
    pub tick: u64,
    /// Live agents at this point.
    pub agents: usize,
}

/// Hooks driven by [`SimHandle::run`]: metric sinks, progress bars. All
/// methods default to no-ops.
pub trait Observer: Send {
    /// Called after each completed tick (single node) or epoch (cluster).
    fn on_tick(&mut self, progress: &Progress) {
        let _ = progress;
    }

    /// Called with the executor's per-tick phase metrics, right before the
    /// matching [`Observer::on_tick`]. Single-node backend only: the
    /// cluster's per-worker phase accounting is aggregated in
    /// [`SimHandle::cluster_stats`], so cluster runs never call this.
    fn on_tick_metrics(&mut self, tm: &TickMetrics) {
        let _ = tm;
    }
}

/// A results-neutral throttle: sleeps after every tick (single node) or
/// epoch (cluster); a zero duration sleeps not at all. Only the wall clock
/// sees it; it lets restart tests and demos catch a durable run mid-flight.
pub struct Throttle(pub Duration);

impl Observer for Throttle {
    fn on_tick(&mut self, _: &Progress) {
        std::thread::sleep(self.0);
    }
}

/// Builder for a backend-erased run of one scenario.
pub struct Runner<'s> {
    scenario: &'s dyn Scenario,
    backend: Backend,
    seed: u64,
    size: Option<usize>,
    index: Option<IndexKind>,
    epoch_len: Option<u64>,
    conformance: bool,
    observers: Vec<Box<dyn Observer>>,
}

impl<'s> Runner<'s> {
    pub fn new(scenario: &'s dyn Scenario) -> Runner<'s> {
        Runner {
            scenario,
            backend: Backend::default(),
            seed: DEFAULT_SEED,
            size: None,
            index: None,
            epoch_len: None,
            conformance: false,
            observers: Vec::new(),
        }
    }

    /// Where to run (default: serial single node).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Master seed (default [`DEFAULT_SEED`]); drives the population
    /// generator and every per-agent RNG stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Requested population size (default: the scenario's).
    pub fn population(mut self, size: usize) -> Self {
        self.size = Some(size);
        self
    }

    /// How the query phase answers range probes (default: the join). Never
    /// changes a bit of the result.
    pub fn index(mut self, kind: IndexKind) -> Self {
        self.index = Some(kind);
        self
    }

    /// Override the scenario's default epoch length (cluster coordination
    /// cadence; never affects results).
    pub fn epoch_len(mut self, ticks: u64) -> Self {
        self.epoch_len = Some(ticks);
        self
    }

    /// Use the scenario's reduced [`conformance_setup`] instead of
    /// [`build`](Scenario::build).
    pub fn conformance(mut self) -> Self {
        self.conformance = true;
        self
    }

    /// Attach an observer (any number may be attached).
    pub fn observe(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    fn setup(&self) -> Result<ScenarioSetup> {
        let mut setup = if self.conformance {
            // The conformance population is a fixed point: it is what the
            // conformance suite certifies, so overriding it would run
            // something else under its name. Reject instead. An index
            // override is fine: both kinds give the same bits.
            if self.size.is_some() {
                return Err(BraceError::Config(
                    "population override conflicts with the conformance configuration \
                     (its size is part of the exactly-distributable contract); drop one"
                        .into(),
                ));
            }
            conformance_setup(self.scenario, self.seed)?
        } else {
            self.scenario.build(self.size, self.seed)?
        };
        if let Some(e) = self.epoch_len {
            setup.epoch_len = e.max(1);
        }
        Ok(setup)
    }

    /// On a durable cluster (`ClusterConfig::run_dir` set), record the job
    /// line that rebuilds this run in a fresh process — the runner's own
    /// scenario, size and conformance — and, given one, the tick horizon a
    /// resume finishes.
    fn record_job(&mut self, horizon: Option<u64>) -> Result<()> {
        let Backend::Cluster(cfg @ ClusterConfig { run_dir: Some(_), .. }) = &mut self.backend else { return Ok(()) };
        let (scenario, size, conformance) = (self.scenario.name().to_string(), self.size, self.conformance);
        cfg.job = JobSpec { scenario, size, conformance }.encode();
        if let Some(ticks) = horizon {
            if ticks == 0 {
                return Err(BraceError::Config("a durable run needs a positive tick horizon".into()));
            }
            cfg.total_ticks = ticks;
        }
        Ok(())
    }

    /// Launch the scenario on the configured backend. A durable cluster's
    /// `total_ticks` stays as the caller set it.
    pub fn launch(mut self) -> Result<SimHandle> {
        let setup = self.setup()?;
        self.record_job(None)?;
        self.launch_with(setup)
    }

    /// Launch a **prebuilt** setup on the configured backend, skipping the
    /// scenario's build. For callers that also
    /// inspect the setup (e.g. the bench harness reads the behavior and
    /// population size it is about to measure) and must not pay a second
    /// build — BRASIL scenarios compile their script per build. The setup
    /// should come from this runner's scenario and seed, or the eventual
    /// report's provenance is a lie; `size`/`conformance` set on the runner
    /// are ignored, and a durable cluster's `job` and `total_ticks` stay as
    /// the caller set them.
    pub fn launch_with(self, setup: ScenarioSetup) -> Result<SimHandle> {
        let index = self.index.unwrap_or_default();
        let inner = match self.backend {
            Backend::SingleNode { parallelism } => {
                let sim = Simulation::builder(setup.behavior)
                    .agents(setup.population)
                    .index(index)
                    .seed(self.seed)
                    .parallelism(parallelism)
                    .build()?;
                Inner::Single(Box::new(sim))
            }
            Backend::Cluster(mut cfg) => {
                cfg.seed = self.seed;
                cfg.index = index;
                cfg.space_x = setup.space_x;
                cfg.epoch_len = setup.epoch_len;
                Inner::Cluster(Box::new(ClusterSim::new(setup.behavior, setup.population, cfg)?))
            }
        };
        Ok(SimHandle { inner, observers: self.observers, single_agent_ticks: 0 })
    }

    /// One-shot convenience: launch, run `ticks`, collect, run the
    /// scenario's sanity [`check`](Scenario::check), and report. For
    /// cluster backends the epoch length is first fitted to `ticks` (the
    /// largest value ≤ the configured epoch length dividing `ticks` — the
    /// coordination cadence never affects results), so any tick count
    /// works on any backend. A durable cluster records `ticks` as its
    /// horizon and, once the check passes, a `Complete` record.
    pub fn run(mut self, ticks: u64) -> Result<RunReport> {
        let mut setup = self.setup()?;
        self.record_job(Some(ticks))?;
        if matches!(self.backend, Backend::Cluster(_)) && ticks > 0 {
            setup.epoch_len = fit_epoch(setup.epoch_len, ticks);
        }
        let scenario = self.scenario;
        finish(scenario, self.launch_with(setup)?, ticks, 0)
    }
}

/// Run `ticks` more ticks, collect, run the scenario's check, and report; a
/// durable cluster then appends its `Complete` record (an ephemeral one has
/// no manifest to append to). [`Runner::run`] and
/// [`DurableRunner::resume`](crate::DurableRunner::resume) both end here.
pub(crate) fn finish(scenario: &dyn Scenario, mut handle: SimHandle, ticks: u64, from: u64) -> Result<RunReport> {
    let t0 = Instant::now();
    handle.run(ticks)?;
    let wall_secs = t0.elapsed().as_secs_f64();
    let world = handle.world()?;
    scenario.check(&world)?;
    let checksum = crate::world_checksum(&world);
    let tick = handle.tick();
    if let Inner::Cluster(sim) = &mut handle.inner {
        sim.record_complete(tick, checksum)?;
    }
    let agent_ticks = handle.agent_ticks();
    Ok(RunReport {
        scenario: scenario.name().to_string(),
        backend: handle.backend_label(),
        ticks: tick,
        resumed_from: from,
        agents: world.len(),
        checksum,
        wall_secs,
        agents_per_sec: if wall_secs > 0.0 { agent_ticks as f64 / wall_secs } else { 0.0 },
        world,
        metrics: Arc::clone(handle.metrics()),
    })
}

/// Largest epoch length ≤ `preferred` dividing `ticks` (the coordination
/// cadence never affects results, so fitting is free).
pub fn fit_epoch(preferred: u64, ticks: u64) -> u64 {
    (1..=preferred.max(1)).rev().find(|&e| ticks.is_multiple_of(e)).unwrap_or(1)
}

/// Outcome of [`Runner::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Backend label (`single`, `cluster:4`).
    pub backend: String,
    /// The tick at completion (a resumed run counts the ticks it ran
    /// before the restart too).
    pub ticks: u64,
    /// The tick a resumed run was restored at (`0` for a fresh run).
    pub resumed_from: u64,
    /// Final live population.
    pub agents: usize,
    /// [`crate::world_checksum`] of the final world (sorted by id).
    pub checksum: u64,
    /// Wall time of the ticks this process ran.
    pub wall_secs: f64,
    /// Agent-ticks per second of wall time.
    pub agents_per_sec: f64,
    /// The final world, sorted by agent id.
    pub world: Vec<Agent>,
    /// What the run recorded in this process: its own telemetry registry.
    pub metrics: Arc<Metrics>,
}

enum Inner {
    Single(Box<Simulation<Arc<dyn Behavior>>>),
    Cluster(Box<ClusterSim>),
}

/// A launched simulation with the backend erased.
pub struct SimHandle {
    inner: Inner,
    observers: Vec<Box<dyn Observer>>,
    /// Agent-ticks the single node has stepped, summed from each tick's
    /// `TickMetrics` (a cluster counts its own).
    single_agent_ticks: u64,
}

impl SimHandle {
    /// A cluster restored from its run directory (`ClusterSim::resume`).
    pub(crate) fn resumed(sim: ClusterSim, observers: Vec<Box<dyn Observer>>) -> SimHandle {
        SimHandle { inner: Inner::Cluster(Box::new(sim)), observers, single_agent_ticks: 0 }
    }

    /// Execute `ticks` ticks, driving observers as they complete. On the
    /// cluster backend `ticks` must be a multiple of the epoch length
    /// (use [`Runner::run`], which fits the epoch length automatically, or
    /// [`Runner::epoch_len`]).
    pub fn run(&mut self, ticks: u64) -> Result<()> {
        if let Inner::Cluster(sim) = &self.inner {
            let epoch_len = sim.epoch_len();
            if !ticks.is_multiple_of(epoch_len) {
                return Err(BraceError::Config(format!(
                    "{ticks} ticks is not a multiple of the cluster epoch length {epoch_len}; \
                     use Runner::run (auto-fits) or Runner::epoch_len"
                )));
            }
        }
        let mut done = 0u64;
        while done < ticks {
            let progress = match &mut self.inner {
                Inner::Single(sim) => {
                    let tm = sim.step();
                    done += 1;
                    self.single_agent_ticks += tm.n_agents as u64;
                    for o in &mut self.observers {
                        o.on_tick_metrics(&tm);
                    }
                    Progress { tick: sim.tick(), agents: sim.pool().len() }
                }
                Inner::Cluster(sim) => {
                    sim.run_epochs(1)?;
                    done += sim.epoch_len();
                    Progress { tick: sim.tick(), agents: sim.agents() }
                }
            };
            for o in &mut self.observers {
                o.on_tick(&progress);
            }
        }
        Ok(())
    }

    /// Completed simulation ticks.
    pub fn tick(&self) -> u64 {
        match &self.inner {
            Inner::Single(sim) => sim.tick(),
            Inner::Cluster(sim) => sim.tick(),
        }
    }

    /// The current world, sorted by agent id (cluster: a master-coordinated
    /// collection at the current epoch boundary).
    pub fn world(&mut self) -> Result<Vec<Agent>> {
        match &mut self.inner {
            Inner::Single(sim) => {
                let mut world = sim.agents();
                world.sort_by_key(|a| a.id);
                Ok(world)
            }
            Inner::Cluster(sim) => sim.collect_agents(),
        }
    }

    /// [`crate::world_checksum`] of [`SimHandle::world`].
    pub fn checksum(&mut self) -> Result<u64> {
        Ok(crate::world_checksum(&self.world()?))
    }

    /// Agent-ticks executed so far.
    pub fn agent_ticks(&self) -> u64 {
        match &self.inner {
            Inner::Single(_) => self.single_agent_ticks,
            Inner::Cluster(sim) => sim.agent_ticks(),
        }
    }

    /// The run's telemetry registry: what it recorded, and nothing else.
    pub fn metrics(&self) -> &Arc<Metrics> {
        match &self.inner {
            Inner::Single(sim) => sim.metrics(),
            Inner::Cluster(sim) => sim.metrics(),
        }
    }

    /// Cluster statistics (`None` on the single-node backend).
    pub fn cluster_stats(&self) -> Option<ClusterStats> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Cluster(sim) => Some(sim.stats()),
        }
    }

    /// Current cluster partition boundaries (`None` on single node).
    pub fn x_bounds(&self) -> Option<&[f64]> {
        match &self.inner {
            Inner::Single(_) => None,
            Inner::Cluster(sim) => Some(sim.x_bounds()),
        }
    }

    /// Backend label (`single`, `cluster:N`).
    pub fn backend_label(&self) -> String {
        match &self.inner {
            Inner::Single(_) => "single".to_string(),
            Inner::Cluster(sim) => format!("cluster:{}", sim.x_bounds().len().saturating_sub(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fit_epoch_prefers_large_divisors() {
        assert_eq!(fit_epoch(5, 20), 5);
        assert_eq!(fit_epoch(5, 7), 1);
        assert_eq!(fit_epoch(5, 12), 4);
        assert_eq!(fit_epoch(0, 9), 1);
    }

    #[test]
    fn backend_parses_cli_specs() {
        assert!(matches!(Backend::parse("single").unwrap(), Backend::SingleNode { .. }));
        match Backend::parse("cluster:3").unwrap() {
            Backend::Cluster(cfg) => assert_eq!(cfg.workers, 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(Backend::parse("cluster").unwrap().label(), "cluster:4");
        assert!(Backend::parse("gpu").is_err());
        assert!(Backend::parse("cluster:x").is_err());
        let max = Backend::MAX_WORKERS;
        assert_eq!(Backend::parse(&format!("cluster:{max}")).unwrap().label(), format!("cluster:{max}"));
        for spec in ["cluster:0".to_string(), format!("cluster:{}", max + 1), "cluster:1000000".into()] {
            let err = Backend::parse(&spec).expect_err("must refuse").to_string();
            assert!(err.contains(&format!("between 1 and {max}")), "{spec}: {err}");
        }
    }

    #[test]
    fn both_backends_run_through_one_facade() {
        let registry = Registry::builtin();
        let scenario = registry.get("flock-obstacles").unwrap();
        let single = Runner::new(scenario).conformance().run(10).unwrap();
        let cluster = Runner::new(scenario).conformance().backend(Backend::cluster(2)).run(10).unwrap();
        assert_eq!(single.ticks, 10);
        assert_eq!(cluster.ticks, 10);
        assert_eq!(single.checksum, cluster.checksum, "exactly-distributable scenario must bit-match");
        assert_eq!(single.agents, cluster.agents);
    }

    #[test]
    fn epoch_fitting_makes_any_tick_count_run_on_cluster() {
        let registry = Registry::builtin();
        let scenario = registry.get("epidemic").unwrap();
        // 7 is coprime with the default epoch length; Runner::run must fit.
        let report = Runner::new(scenario).conformance().backend(Backend::cluster(2)).run(7).unwrap();
        assert_eq!(report.ticks, 7);
    }

    #[test]
    fn conformance_rejects_a_population_override() {
        // The conformance setup's size is part of its bit-exact contract;
        // silently ignoring an override would let a CLI user believe they
        // ran something they didn't. Its index may be overridden: the scan
        // gives the join's bits.
        let registry = Registry::builtin();
        let scenario = registry.get("fish").unwrap();
        let err = Runner::new(scenario).conformance().population(50).run(2).expect_err("must conflict");
        assert!(err.to_string().contains("population override"), "{err}");
        let join = Runner::new(scenario).conformance().run(2).unwrap();
        let scan = Runner::new(scenario).conformance().index(IndexKind::Scan).run(2).unwrap();
        assert_eq!(scan.checksum, join.checksum, "the scan diverged from the join");
    }

    #[test]
    fn handle_rejects_unaligned_cluster_ticks() {
        let registry = Registry::builtin();
        let scenario = registry.get("epidemic").unwrap();
        let mut handle = Runner::new(scenario).conformance().backend(Backend::cluster(2)).launch().unwrap();
        let err = handle.run(7).expect_err("7 ticks over a 5-tick epoch must be rejected");
        assert!(err.to_string().contains("multiple"), "{err}");
    }

    struct CountingObserver {
        ticks: Arc<AtomicUsize>,
    }

    impl Observer for CountingObserver {
        fn on_tick(&mut self, progress: &Progress) {
            assert!(progress.agents > 0);
            self.ticks.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn observers_fire_per_tick() {
        let registry = Registry::builtin();
        let scenario = registry.get("fish").unwrap();
        let ticks = Arc::new(AtomicUsize::new(0));
        Runner::new(scenario)
            .population(60)
            .observe(Box::new(CountingObserver { ticks: ticks.clone() }))
            .run(10)
            .unwrap();
        assert_eq!(ticks.load(Ordering::Relaxed), 10, "single node observes every tick");
    }

    #[test]
    fn cluster_observers_fire_per_epoch() {
        let registry = Registry::builtin();
        let scenario = registry.get("fish").unwrap();
        let ticks = Arc::new(AtomicUsize::new(0));
        Runner::new(scenario)
            .population(60)
            .backend(Backend::cluster(2))
            .epoch_len(5)
            .observe(Box::new(CountingObserver { ticks: ticks.clone() }))
            .run(20)
            .unwrap();
        assert_eq!(ticks.load(Ordering::Relaxed), 4, "cluster observes at epoch grain");
    }

    /// Records each tick's neighbour visits.
    struct VisitLog(Arc<std::sync::Mutex<Vec<u64>>>);

    impl Observer for VisitLog {
        fn on_tick_metrics(&mut self, tm: &TickMetrics) {
            self.0.lock().unwrap().push(tm.neighbor_visits);
        }
    }

    /// Counts the update path a run takes: calls that reach this
    /// `update_rows` override, and per-row `update` calls, which only the
    /// hook's default makes.
    /// Counts which path each phase took: `chunks` and `slices` the
    /// overrides, `rows` and `members` the defaults' per-agent calls.
    struct UpdatePaths {
        inner: Arc<dyn Behavior>,
        chunks: Arc<AtomicUsize>,
        rows: Arc<AtomicUsize>,
        slices: Arc<AtomicUsize>,
        members: Arc<AtomicUsize>,
    }

    impl Behavior for UpdatePaths {
        fn schema(&self) -> &brace_core::AgentSchema {
            self.inner.schema()
        }
        fn probe_rect(&self, pos: brace_common::Vec2, vis: f64) -> brace_common::Rect {
            self.inner.probe_rect(pos, vis)
        }
        fn reads_neighbors(&self, me: brace_core::AgentRef<'_>) -> bool {
            self.inner.reads_neighbors(me)
        }
        fn query(
            &self,
            me: brace_core::AgentRef<'_>,
            neighbors: &brace_core::Neighbors<'_>,
            eff: &mut brace_core::EffectWriter<'_>,
            rng: &mut brace_common::DetRng,
        ) {
            self.members.fetch_add(1, Ordering::Relaxed);
            self.inner.query(me, neighbors, eff, rng)
        }
        fn query_slice(&self, slice: &mut brace_core::QuerySlice<'_, '_>) {
            self.slices.fetch_add(1, Ordering::Relaxed);
            self.inner.query_slice(slice)
        }
        fn update(&self, me: &mut Agent, ctx: &mut brace_core::UpdateCtx<'_>) {
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.inner.update(me, ctx)
        }
        fn update_rows(
            &self,
            chunk: &mut brace_core::UpdateChunk<'_>,
            tick: u64,
            root: &brace_common::DetRng,
            spawns: &mut Vec<(brace_common::Vec2, Vec<f64>)>,
            parents: &mut Vec<brace_common::AgentId>,
        ) {
            self.chunks.fetch_add(1, Ordering::Relaxed);
            self.inner.update_rows(chunk, tick, root, spawns, parents)
        }
    }

    /// The registry's epidemic is an `Arc<dyn Behavior>`, so its probe-side
    /// hook reaches the engine only through the forwarding impl: the
    /// Runner's run must visit, tick by tick, what the concrete behaviour's
    /// `Simulation` visits — only the infectious agents' neighbourhoods. So
    /// must an `update_rows` override (BRASIL's lanes) and a `query_slice`
    /// override (BRASIL's columns): wrapped in an `Arc` or a `Box`, on one
    /// node and on two workers, every chunk and every sweep slice reaches
    /// them, no row or member takes the defaults' per-agent paths, and the
    /// world is the plain run's.
    #[test]
    fn the_runner_path_forwards_the_probe_side_hook() {
        use brace_models::{EpidemicBehavior, EpidemicParams};
        let registry = Registry::builtin();
        let (n, seed, ticks) = (1_500, 7, 12);
        let visits = Arc::new(std::sync::Mutex::new(Vec::new()));
        Runner::new(registry.get("epidemic").unwrap())
            .population(n)
            .seed(seed)
            .observe(Box::new(VisitLog(visits.clone())))
            .run(ticks)
            .unwrap();
        let behavior = EpidemicBehavior::new(EpidemicParams::default());
        let population = behavior.population(n, seed);
        let mut sim = Simulation::builder(behavior).agents(population).seed(seed).build().unwrap();
        let want: Vec<u64> = (0..ticks).map(|_| sim.step().neighbor_visits).collect();
        assert_eq!(*visits.lock().unwrap(), want);
        assert!(want.iter().all(|&v| v < n as u64), "non-infectious agents visited neighbours: {want:?}");

        let scenario = registry.get("brasil-car").unwrap();
        let (n, ticks) = (200, 4);
        let plain = Runner::new(scenario).population(n).seed(seed).run(ticks).unwrap().checksum;
        for boxed in [false, true] {
            for backend in [Backend::single(), Backend::cluster(2)] {
                let [chunks, rows, slices, members] = [(); 4].map(|_| Arc::new(AtomicUsize::new(0)));
                let mut setup = scenario.build(Some(n), seed).unwrap();
                let paths = UpdatePaths {
                    inner: setup.behavior,
                    chunks: chunks.clone(),
                    rows: rows.clone(),
                    slices: slices.clone(),
                    members: members.clone(),
                };
                setup.behavior = if boxed { Arc::new(Box::new(paths)) } else { Arc::new(paths) };
                setup.epoch_len = ticks;
                let label = format!("boxed {boxed}, {}", backend.label());
                let mut handle = Runner::new(scenario).seed(seed).backend(backend).launch_with(setup).unwrap();
                handle.run(ticks).unwrap();
                assert_eq!(handle.checksum().unwrap(), plain, "{label}");
                assert!(chunks.load(Ordering::Relaxed) as u64 >= ticks, "{label}: the override was not reached");
                assert_eq!(rows.load(Ordering::Relaxed), 0, "{label}: rows took the per-row path");
                assert!(slices.load(Ordering::Relaxed) as u64 >= ticks, "{label}: the query override was not reached");
                assert_eq!(members.load(Ordering::Relaxed), 0, "{label}: members took the per-member path");
            }
        }
    }

    #[test]
    fn index_override_reaches_the_executor() {
        // Same scenario, the join and the scan: results identical (the index
        // is never semantics), so the override is observable only through
        // the run succeeding — plus the checksum equality doubling as a
        // join-equivalence spot check, on one node and on two workers.
        let registry = Registry::builtin();
        let scenario = registry.get("epidemic").unwrap();
        let join = Runner::new(scenario).population(80).index(IndexKind::Join).run(6).unwrap();
        for backend in [Backend::default(), Backend::cluster(2)] {
            let scan = Runner::new(scenario).population(80).index(IndexKind::Scan).backend(backend).run(6).unwrap();
            assert_eq!(join.checksum, scan.checksum);
        }
    }
}
