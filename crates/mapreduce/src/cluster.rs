//! [`ClusterSim`] — the user-facing distributed engine.
//!
//! Mirrors `brace_core::Simulation` over a simulated shared-nothing cluster:
//! give it a behavior, an initial population and a [`ClusterConfig`]; run
//! epochs; collect agents and statistics. One worker thread per "node", one
//! spatial partition per worker, a master coordinating at epoch boundaries.
//! A population is admitted by the same `brace_core::check_population` the
//! single node runs, so both backends accept and refuse the same inputs and
//! start spawn ids at the same place.
//!
//! Each cluster owns its run's telemetry registry ([`ClusterSim::metrics`]):
//! workers record into it for their threads' lives, the master while
//! [`ClusterSim::run_epochs`] drives it.
//!
//! The worker count is fixed for a run's life. A scheduled [`FaultPlan`]
//! fault and [`ClusterSim::resume`] recover the same way: restore every
//! worker from a checkpoint, then replay the logged epochs. Any other epoch
//! failure — a peer payload a worker cannot apply, a closed link, a panic in
//! the behaviour — ends the run with `Err` naming the worker and the cause.

use crate::balance::LoadBalancer;
use crate::checkpoint::{self, CheckpointStore};
use crate::codec;
use crate::manifest::{self, Manifest, ManifestRecord, ManifestWriter, RunHeader};
use crate::master::{ClusterStats, Master};
use crate::net::NetStats;
use crate::runtime::{Command, PeerMsg, Report};
use crate::worker::{Worker, WorkerConfig, WorkerLinks};
use brace_common::{BraceError, DetRng, Result, WorkerId};
use brace_core::{check_population, Agent, Behavior};
use brace_spatial::{GridPartitioning, IndexKind};
use brace_telemetry::Metrics;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduled whole-cluster failures: at each listed epoch the cluster
/// loses all live worker state "during" that epoch (its results are
/// discarded) and must recover from the last coordinated checkpoint by
/// replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Epochs (0-based) whose execution is lost, ascending and deduped.
    pub at_epochs: Vec<u64>,
}

impl FaultPlan {
    /// Fail exactly once, during `epoch`.
    pub fn once(epoch: u64) -> Self {
        FaultPlan { at_epochs: vec![epoch] }
    }

    /// Fail during each listed epoch.
    pub fn at(epochs: impl IntoIterator<Item = u64>) -> Self {
        let mut at_epochs: Vec<u64> = epochs.into_iter().collect();
        at_epochs.sort_unstable();
        at_epochs.dedup();
        FaultPlan { at_epochs }
    }

    /// Up to `n` faults at seeded-random epochs in `0..max_epoch`
    /// (deduped, so possibly fewer). Drives the randomized recovery
    /// proptests.
    pub fn random(seed: u64, n: usize, max_epoch: u64) -> Self {
        if max_epoch == 0 {
            return FaultPlan::default();
        }
        let mut rng = DetRng::seed_from_u64(seed).stream(0xFA_17);
        FaultPlan::at((0..n).map(|_| (rng.range(0.0, max_epoch as f64) as u64).min(max_epoch - 1)))
    }

    pub fn is_empty(&self) -> bool {
        self.at_epochs.is_empty()
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker nodes (= spatial partitions). ≥ 1.
    pub workers: usize,
    /// Ticks per epoch (master coordination cadence).
    pub epoch_len: u64,
    /// How each reducer's query phase answers range probes.
    pub index: IndexKind,
    /// Master seed; identical seeds give bit-identical simulations
    /// regardless of worker count.
    pub seed: u64,
    /// Initial x-extent for the 1-D column partitioning.
    pub space_x: (f64, f64),
    /// Enable the 1-D load balancer.
    pub load_balance: bool,
    /// Balancer tuning (threshold, migration cost model).
    pub balancer: LoadBalancer,
    /// Coordinated checkpoint cadence in epochs (`None` = only the initial
    /// checkpoint).
    pub checkpoint_every: Option<u64>,
    /// Keep this many recent checkpoints: in memory, or, with `run_dir`
    /// set, only as files in it.
    pub keep_checkpoints: usize,
    /// Intra-worker thread budget for the query/update phases (`1` =
    /// serial, `0` = all cores, `n` = up to `n` threads **per worker**).
    /// Each worker holds it as `budget − 1` parked helper threads for the
    /// run's life, so `1` starts none. Never affects results — the
    /// executor's shard plan is thread-count independent.
    pub parallelism: usize,
    /// Scheduled whole-cluster failures, if any.
    pub fault: Option<FaultPlan>,
    /// Durable-run directory: holds the write-ahead manifest and the
    /// checkpoint files. A run with `run_dir` set survives a process crash —
    /// see [`ClusterSim::resume`].
    pub run_dir: Option<PathBuf>,
    /// Opaque scenario-layer job description recorded in the manifest
    /// header (durable runs only).
    pub job: String,
    /// Total ticks the job should run (recorded in the manifest header so
    /// resume knows the remainder); 0 = unknown/ephemeral.
    pub total_ticks: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 4,
            epoch_len: 10,
            index: IndexKind::Join,
            seed: 0,
            space_x: (0.0, 100.0),
            load_balance: true,
            balancer: LoadBalancer::default(),
            checkpoint_every: None,
            keep_checkpoints: 2,
            parallelism: 1,
            fault: None,
            run_dir: None,
            job: String::new(),
            total_ticks: 0,
        }
    }
}

/// The distributed BRACE engine.
pub struct ClusterSim {
    master: Master,
    handles: Vec<JoinHandle<()>>,
    metrics: Arc<Metrics>,
    epoch_len: u64,
    /// Scheduled whole-cluster fault epochs not yet fired, ascending.
    fault_epochs: Vec<u64>,
}

impl ClusterSim {
    fn validate(behavior: &Arc<dyn Behavior>, cfg: &ClusterConfig) -> Result<()> {
        if cfg.workers == 0 {
            return Err(BraceError::Config("need at least one worker".into()));
        }
        if cfg.epoch_len == 0 {
            return Err(BraceError::Config("epoch length must be at least one tick".into()));
        }
        if cfg.space_x.0 >= cfg.space_x.1 {
            return Err(BraceError::Config("space_x must be a non-empty interval".into()));
        }
        let schema = behavior.schema();
        if schema.num_states() > codec::DELTA_MAX_STATES {
            return Err(BraceError::Config(format!(
                "schema `{}` has {} state fields; the replica delta mask addresses at most {}",
                schema.name(),
                schema.num_states(),
                codec::DELTA_MAX_STATES
            )));
        }
        Ok(())
    }

    /// Spawn one worker thread per entry of `initial` over `part`'s
    /// columns, wired to a fresh channel fabric, and the master that drives
    /// them from `x_bounds`. `next_spawn_id` seeds the global spawn-id
    /// cursor (every worker advances it identically through the per-tick
    /// spawn round).
    fn spawn(
        behavior: &Arc<dyn Behavior>,
        cfg: &ClusterConfig,
        part: &GridPartitioning,
        initial: Vec<Vec<Agent>>,
        next_spawn_id: u64,
        x_bounds: Vec<f64>,
    ) -> Result<Self> {
        let n = initial.len();
        let metrics = Arc::<Metrics>::default();
        let (report_tx, report_rx) = unbounded::<Report>();
        // One link per ordered worker pair: worker `i` sends to `j` on
        // `peers[i][j]`, and `j` receives it on `inboxes[j][i]`.
        let mut peers: Vec<Vec<Sender<PeerMsg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut inboxes: Vec<Vec<Receiver<PeerMsg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for senders in &mut peers {
            for receivers in &mut inboxes {
                let (tx, rx) = unbounded();
                senders.push(tx);
                receivers.push(rx);
            }
        }
        let mut cmd_tx: Vec<Sender<Command>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (w, ((peers, inboxes), owned)) in peers.into_iter().zip(inboxes).zip(initial).enumerate() {
            let (ctx, crx) = unbounded::<Command>();
            cmd_tx.push(ctx);
            let links = WorkerLinks {
                peers,
                inboxes,
                commands: crx,
                reports: report_tx.clone(),
                metrics: Arc::clone(&metrics),
            };
            let wcfg = WorkerConfig {
                id: WorkerId::new(w as u32),
                num_workers: n,
                index: cfg.index,
                seed: cfg.seed,
                parallelism: cfg.parallelism,
            };
            let worker = Worker::new(behavior.clone(), wcfg, links, part.clone(), owned, next_spawn_id);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("brace-worker-{w}"))
                    .spawn(move || worker.run_loop())
                    .map_err(|e| BraceError::Config(format!("spawning worker thread: {e}")))?,
            );
        }
        let mut store = CheckpointStore::new(cfg.keep_checkpoints);
        if let Some(dir) = cfg.run_dir.clone() {
            store = store.with_dir(dir);
        }
        let master = Master::new(
            n,
            cfg.epoch_len,
            cfg.load_balance,
            cfg.balancer.clone(),
            cfg.checkpoint_every,
            store,
            cmd_tx,
            report_rx,
            x_bounds,
        );
        let fault_epochs = FaultPlan::at(cfg.fault.iter().flat_map(|p| p.at_epochs.iter().copied())).at_epochs;
        Ok(ClusterSim { master, handles, metrics, epoch_len: cfg.epoch_len, fault_epochs })
    }

    /// Manifest header describing the job, for durable runs.
    fn run_header(cfg: &ClusterConfig, run_id: String) -> RunHeader {
        RunHeader {
            run_id,
            job: cfg.job.clone(),
            workers: cfg.workers as u32,
            epoch_len: cfg.epoch_len,
            seed: cfg.seed,
            index: cfg.index,
            space_x: cfg.space_x,
            load_balance: cfg.load_balance,
            checkpoint_every: cfg.checkpoint_every.unwrap_or(0),
            keep_checkpoints: cfg.keep_checkpoints as u32,
            total_ticks: cfg.total_ticks,
        }
    }

    /// Build the cluster: partition `agents` over `cfg.workers` column
    /// partitions, spawn the worker threads, take the initial checkpoint.
    /// With `run_dir` set this *creates* a durable run (write-ahead
    /// manifest + on-disk checkpoints); a directory that already holds a
    /// manifest is refused — resume it with [`ClusterSim::resume`] instead.
    pub fn new(behavior: Arc<dyn Behavior>, agents: Vec<Agent>, cfg: ClusterConfig) -> Result<Self> {
        Self::validate(&behavior, &cfg)?;
        // Spawn ids start past the largest initial id, as on a single node
        // (one global cursor, all workers in lockstep — see the worker's
        // spawn-sequencing round).
        let first_spawn_id = check_population(behavior.schema(), &agents)?;
        let n = cfg.workers;
        let part = GridPartitioning::columns(cfg.space_x.0, cfg.space_x.1, n);

        // Distribute the initial population to owners.
        let mut initial: Vec<Vec<Agent>> = (0..n).map(|_| Vec::new()).collect();
        for a in agents {
            initial[part.column_of(a.pos.x)].push(a);
        }

        let mut sim = Self::spawn(&behavior, &cfg, &part, initial, first_spawn_id, part.x_bounds().to_vec())?;
        if let Some(dir) = cfg.run_dir.clone() {
            let run_id = dir.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
            sim.master.set_manifest(ManifestWriter::create(&dir, &Self::run_header(&cfg, run_id))?);
        }
        sim.master.initial_checkpoint()?;
        Ok(sim)
    }

    /// Reconstruct a durable run from `cfg.run_dir` **in a fresh process**:
    /// read the manifest, pick the newest checkpoint that verifies and has
    /// `cfg.workers` worker payloads (torn, corrupt or mis-shaped files fall
    /// back to older ones), replay the completed epochs past it, and land
    /// exactly where the interrupted run was. Returns the parsed manifest
    /// alongside the cluster so the caller can see total ticks and
    /// completion state.
    pub fn resume(behavior: Arc<dyn Behavior>, cfg: ClusterConfig) -> Result<(Self, Manifest)> {
        Self::validate(&behavior, &cfg)?;
        let dir = cfg.run_dir.clone().ok_or_else(|| BraceError::Config("resume requires run_dir".into()))?;
        let m = manifest::read_manifest(&dir)?;
        if m.complete().is_some() {
            return Err(BraceError::Config(format!("run `{}` already completed", m.header.run_id)));
        }
        let completed = m.completed_epochs();
        // Newest on-disk checkpoint that verifies, covers only completed
        // epochs and matches the run's worker count.
        let cp = checkpoint::list_checkpoint_epochs(&dir)
            .into_iter()
            .rev()
            .filter(|&epoch| epoch <= completed)
            .filter_map(|epoch| checkpoint::load_checkpoint_file(&dir, epoch).ok())
            .find(|cp| cp.workers.len() == cfg.workers)
            .ok_or_else(|| BraceError::Unrecoverable(format!("run `{}`: no valid checkpoint", m.header.run_id)))?;

        let n = cfg.workers;
        let part = GridPartitioning::columns(cfg.space_x.0, cfg.space_x.1, n);
        // Workers start empty; Restore from the checkpoint fills them.
        let mut sim = Self::spawn(&behavior, &cfg, &part, vec![Vec::new(); n], 0, cp.x_bounds.clone())?;
        sim.master.set_manifest(ManifestWriter::open_append(&dir)?);
        let commands = m.commands_in(cp.epoch, completed);
        let (hist_range, pending_bounds) = match m.last_epoch_done() {
            Some(d) => (d.hist_range, d.pending_bounds.clone()),
            None => (cp.hist_range, None),
        };
        sim.master.resume_from(&cp, &commands, hist_range, pending_bounds)?;
        Ok((sim, m))
    }

    /// Run `n` epochs, firing scheduled faults (recovery + replay) as their
    /// epochs complete.
    pub fn run_epochs(&mut self, n: u64) -> Result<()> {
        let _scope = brace_telemetry::enter(&self.metrics);
        for _ in 0..n {
            self.master.run_epoch()?;
            while self.fault_epochs.first().is_some_and(|&e| self.master.epoch() == e + 1) {
                // That epoch just ran but its results are lost.
                let failed = self.fault_epochs.remove(0);
                self.master.recover(failed)?;
            }
        }
        Ok(())
    }

    /// Record run completion (final tick count + world checksum) in the
    /// manifest. No-op for ephemeral runs.
    pub fn record_complete(&mut self, ticks: u64, checksum: u64) -> Result<()> {
        self.master.append_manifest(&ManifestRecord::Complete { ticks, checksum })
    }

    /// Run `ticks` ticks; must be a multiple of the epoch length.
    pub fn run_ticks(&mut self, ticks: u64) -> Result<()> {
        if !ticks.is_multiple_of(self.epoch_len) {
            return Err(BraceError::Config(format!(
                "{ticks} ticks is not a multiple of the epoch length {}",
                self.epoch_len
            )));
        }
        self.run_epochs(ticks / self.epoch_len)
    }

    /// Gather all agents, sorted by id.
    pub fn collect_agents(&mut self) -> Result<Vec<Agent>> {
        self.master.collect_agents()
    }

    /// Completed simulation ticks.
    pub fn tick(&self) -> u64 {
        self.master.tick()
    }

    /// Ticks per epoch (the master's coordination cadence).
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Current column boundaries (moves when the load balancer acts).
    pub fn x_bounds(&self) -> &[f64] {
        self.master.x_bounds()
    }

    /// Run statistics, network totals read off the run's registry.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats { net: NetStats::of(&self.metrics), ..self.master.stats().clone() }
    }

    /// Agent-ticks executed in live epochs, read without copying the stats.
    pub fn agent_ticks(&self) -> u64 {
        self.master.stats().agent_ticks
    }

    /// Owned agents across workers at the end of the last live epoch.
    pub fn agents(&self) -> usize {
        self.master.stats().agents_per_worker.last().map_or(0, |w| w.iter().sum())
    }

    /// This run's telemetry registry: what it recorded, and nothing else.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }
}

impl Drop for ClusterSim {
    fn drop(&mut self) {
        self.master.stop();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{AgentId, DetRng, FieldId, Vec2};
    use brace_core::behavior::{Neighbors, UpdateCtx};
    use brace_core::effect::EffectWriter;
    use brace_core::{AgentSchema, Combinator, Simulation};

    /// Local-effects model with exactly-associative aggregation (integer
    /// counts): cluster results must equal single-node results bit for bit.
    struct Flock(AgentSchema);

    impl Flock {
        fn new() -> Self {
            Flock(
                AgentSchema::builder("Flock")
                    .state("heading")
                    .effect("n", Combinator::Sum)
                    .effect("closest", Combinator::Min)
                    .visibility(3.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Flock {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for nb in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
                eff.local(FieldId::new(1), me.pos().dist_linf(nb.agent.pos()));
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let n = me.effect(FieldId::new(0));
            let closest = me.effect(FieldId::new(1));
            // Drift right, faster when crowded; jitter deterministically.
            let jitter = ctx.rng.range(-0.05, 0.05);
            let step = if closest.is_finite() { 0.2 + 0.01 * n } else { 0.3 };
            me.pos.x += step + jitter;
            me.pos.y += jitter;
            me.set(FieldId::new(0), n);
        }
    }

    /// Non-local model: every agent pushes a "ping" effect to each neighbor;
    /// agents then record how many pings they received. Integer sums ⇒
    /// exact distributed equivalence.
    struct Ping(AgentSchema);

    impl Ping {
        fn new() -> Self {
            Ping(
                AgentSchema::builder("Ping")
                    .state("received")
                    .remote_effect("pings", Combinator::Sum)
                    .visibility(2.5)
                    .reachability(0.5)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Ping {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for nb in nbrs.iter() {
                eff.remote(nb.row, FieldId::new(0), 1.0);
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let pings = me.effect(FieldId::new(0));
            me.set(FieldId::new(0), me.get(FieldId::new(0)) + pings);
            me.pos.x += ctx.rng.range(-0.4, 0.4);
            me.pos.y += ctx.rng.range(-0.4, 0.4);
        }
    }

    fn population(schema: &AgentSchema, n: usize, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 100.0), rng.range(0.0, 20.0)), schema))
            .collect()
    }

    fn run_single_node<B: Behavior>(behavior: B, agents: Vec<Agent>, ticks: u64, seed: u64) -> Vec<Agent> {
        let mut sim = Simulation::builder(behavior).agents(agents).seed(seed).build().unwrap();
        sim.run(ticks);
        let mut out = sim.agents().to_vec();
        out.sort_by_key(|a| a.id);
        out
    }

    fn run_cluster(behavior: Arc<dyn Behavior>, agents: Vec<Agent>, ticks: u64, cfg: ClusterConfig) -> Vec<Agent> {
        let mut sim = ClusterSim::new(behavior, agents, cfg).unwrap();
        sim.run_ticks(ticks).unwrap();
        sim.collect_agents().unwrap()
    }

    #[test]
    fn cluster_equals_single_node_local_effects() {
        let agents = population(Flock::new().schema(), 120, 1);
        let single = run_single_node(Flock::new(), agents.clone(), 20, 42);
        for workers in [1, 2, 4] {
            let cfg =
                ClusterConfig { workers, epoch_len: 5, seed: 42, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Flock::new()), agents.clone(), 20, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn cluster_equals_single_node_nonlocal_effects() {
        let agents = population(Ping::new().schema(), 80, 3);
        let single = run_single_node(Ping::new(), agents.clone(), 12, 7);
        for workers in [2, 3] {
            let cfg = ClusterConfig { workers, epoch_len: 4, seed: 7, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Ping::new()), agents.clone(), 12, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn table1_comm_rounds_match_effect_locality() {
        let agents = population(Flock::new().schema(), 40, 5);
        let cfg = ClusterConfig { workers: 2, epoch_len: 2, seed: 1, load_balance: false, ..Default::default() };
        let mut local = ClusterSim::new(Arc::new(Flock::new()), agents, cfg.clone()).unwrap();
        local.run_epochs(1).unwrap();
        assert_eq!(local.stats().comm_rounds_per_tick, 1, "local effects: single reduce pass");
        assert_eq!(local.stats().net.effects.messages, 0, "no effect traffic for local model");

        let agents = population(Ping::new().schema(), 40, 5);
        let mut nonlocal = ClusterSim::new(Arc::new(Ping::new()), agents, cfg).unwrap();
        nonlocal.run_epochs(1).unwrap();
        assert_eq!(nonlocal.stats().comm_rounds_per_tick, 2, "non-local effects: map-reduce-reduce");
        assert!(nonlocal.stats().net.effects.messages > 0, "effect rows must cross the network");
    }

    #[test]
    fn fault_recovery_reproduces_failure_free_run() {
        let agents = population(Flock::new().schema(), 100, 9);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 13,
            load_balance: false,
            checkpoint_every: Some(2),
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 40, base.clone());
        let faulty_cfg = ClusterConfig { fault: Some(FaultPlan::once(5)), ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, faulty_cfg).unwrap();
        sim.run_ticks(40).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.replayed_epochs > 0);
        let recovered = sim.collect_agents().unwrap();
        assert_eq!(clean, recovered, "recovery must reproduce the failure-free run");
    }

    #[test]
    fn multi_fault_plan_reproduces_failure_free_run() {
        let agents = population(Flock::new().schema(), 90, 11);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 17,
            load_balance: false,
            checkpoint_every: Some(2),
            ..Default::default()
        };
        let clean = run_cluster(Arc::new(Flock::new()), agents.clone(), 40, base.clone());
        let faulty_cfg = ClusterConfig { fault: Some(FaultPlan::at([2, 5, 6])), ..base };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, faulty_cfg).unwrap();
        sim.run_ticks(40).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.recoveries, 3, "every scheduled fault must recover");
        let recovered = sim.collect_agents().unwrap();
        assert_eq!(clean, recovered, "multi-fault recovery must reproduce the failure-free run");
    }

    /// Spawning model with deterministic per-agent reproduction: children
    /// get ids from the global `(parent id, ordinal)` sequence, so an
    /// N-worker cluster must be bit-identical to the single-node engine
    /// *including* the spawned agents' identities and rng streams.
    struct Breeder(AgentSchema);

    impl Breeder {
        fn new() -> Self {
            Breeder(
                AgentSchema::builder("Breeder")
                    .state("generation")
                    .effect("n", Combinator::Sum)
                    .visibility(3.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Breeder {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _me: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }
        fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
            let gen = me.get(FieldId::new(0));
            me.pos.x += ctx.rng.range(-0.3, 0.5);
            me.pos.y += ctx.rng.range(-0.3, 0.3);
            // Reproduce occasionally; children inherit generation + 1 and
            // later act (and spawn) themselves.
            if gen < 3.0 && ctx.rng.chance(0.08) {
                let pos = me.pos;
                ctx.spawn(pos, vec![gen + 1.0]);
            }
        }
    }

    #[test]
    fn spawning_cluster_equals_single_node() {
        let agents = population(Breeder::new().schema(), 100, 6);
        let single = run_single_node(Breeder::new(), agents.clone(), 20, 33);
        assert!(single.len() > 100, "the model must actually spawn");
        for workers in [1, 2, 4] {
            let cfg =
                ClusterConfig { workers, epoch_len: 5, seed: 33, load_balance: false, ..ClusterConfig::default() };
            let distributed = run_cluster(Arc::new(Breeder::new()), agents.clone(), 20, cfg);
            assert_eq!(single, distributed, "workers={workers}");
        }
    }

    #[test]
    fn spawning_survives_fault_recovery() {
        let agents = population(Breeder::new().schema(), 100, 6);
        let base = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 33,
            load_balance: false,
            checkpoint_every: Some(2),
            ..ClusterConfig::default()
        };
        let clean = run_cluster(Arc::new(Breeder::new()), agents.clone(), 30, base.clone());
        let cfg = ClusterConfig { fault: Some(FaultPlan::once(3)), ..base };
        let mut sim = ClusterSim::new(Arc::new(Breeder::new()), agents, cfg).unwrap();
        sim.run_ticks(30).unwrap();
        assert_eq!(clean, sim.collect_agents().unwrap(), "spawn ids must survive recovery");
    }

    #[test]
    fn load_balancer_moves_boundaries_under_skew() {
        // All agents packed into the leftmost 10% of space.
        let schema = Flock::new();
        let mut rng = DetRng::seed_from_u64(2);
        let agents: Vec<Agent> = (0..300)
            .map(|i| {
                Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 10.0), rng.range(0.0, 10.0)), schema.schema())
            })
            .collect();
        let cfg = ClusterConfig {
            workers: 4,
            epoch_len: 3,
            seed: 21,
            load_balance: true,
            balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 0.5 },
            ..Default::default()
        };
        let before = GridPartitioning::columns(0.0, 100.0, 4).x_bounds().to_vec();
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        sim.run_epochs(4).unwrap();
        let stats = sim.stats();
        assert!(stats.repartitions >= 1, "skew must trigger repartitioning");
        assert_ne!(sim.x_bounds(), &before[..], "boundaries must move");
        // Imbalance after balancing must be better than the initial 4x.
        assert!(stats.last_imbalance() < 2.5, "imbalance {} not improved", stats.last_imbalance());
    }

    #[test]
    fn resume_falls_back_past_a_forged_worker_payload() {
        use bytes::{BufMut, BytesMut};
        let dir = std::env::temp_dir().join(format!("brace-resume-forged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let agents = population(Flock::new().schema(), 60, 21);
        let cfg = ClusterConfig {
            workers: 2,
            epoch_len: 2,
            seed: 5,
            load_balance: false,
            checkpoint_every: Some(2),
            run_dir: Some(dir.clone()),
            ..Default::default()
        };
        let clean =
            run_cluster(Arc::new(Flock::new()), agents.clone(), 12, ClusterConfig { run_dir: None, ..cfg.clone() });
        // Four epochs, then the process "dies": no completion record.
        ClusterSim::new(Arc::new(Flock::new()), agents, cfg.clone()).unwrap().run_epochs(4).unwrap();
        // Rewrite the newest checkpoint with a valid header and checksum
        // around one payload that claims u32::MAX agents.
        let newest = *checkpoint::list_checkpoint_epochs(&dir).last().unwrap();
        let mut cp = checkpoint::load_checkpoint_file(&dir, newest).unwrap();
        let mut forged = BytesMut::new();
        forged.extend_from_slice(&[0; 32]);
        forged.put_u32_le(u32::MAX);
        cp.workers[0] = forged.freeze();
        checkpoint::write_checkpoint_file(&dir, &cp).unwrap();
        let (mut sim, _) = ClusterSim::resume(Arc::new(Flock::new()), cfg).expect("an older checkpoint verifies");
        assert_eq!(sim.tick(), 8);
        sim.run_ticks(4).unwrap();
        assert_eq!(sim.collect_agents().unwrap(), clean, "resumed past the forged file, the run is the clean one");
        drop(sim);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `--resume` reads the checkpoint it restores from and leaves the file
    /// alone: same inode (no temp-file rename) and same bytes.
    #[test]
    fn resume_leaves_the_checkpoint_it_loaded_in_place() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!("brace-resume-in-place-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let agents = population(Flock::new().schema(), 60, 21);
        let cfg = ClusterConfig {
            workers: 2,
            epoch_len: 2,
            seed: 5,
            load_balance: false,
            checkpoint_every: Some(2),
            run_dir: Some(dir.clone()),
            ..Default::default()
        };
        let clean =
            run_cluster(Arc::new(Flock::new()), agents.clone(), 12, ClusterConfig { run_dir: None, ..cfg.clone() });
        // Five epochs, then the process "dies": the newest checkpoint is
        // one epoch behind, so resume replays past it.
        ClusterSim::new(Arc::new(Flock::new()), agents, cfg.clone()).unwrap().run_epochs(5).unwrap();
        let newest = *checkpoint::list_checkpoint_epochs(&dir).last().unwrap();
        let path = dir.join(format!("checkpoint-{newest}.brace"));
        let (inode, bytes) = (std::fs::metadata(&path).unwrap().ino(), std::fs::read(&path).unwrap());
        let (mut sim, _) = ClusterSim::resume(Arc::new(Flock::new()), cfg).unwrap();
        assert_eq!(sim.tick(), 10);
        assert_eq!(std::fs::metadata(&path).unwrap().ino(), inode, "resume rewrote the checkpoint it loaded");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        sim.run_ticks(2).unwrap();
        assert_eq!(sim.collect_agents().unwrap(), clean);
        drop(sim);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_falls_back_past_a_checkpoint_with_another_worker_count() {
        let dir = std::env::temp_dir().join(format!("brace-resume-workers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let agents = population(Flock::new().schema(), 60, 21);
        let cfg = ClusterConfig {
            workers: 2,
            epoch_len: 2,
            seed: 5,
            load_balance: false,
            checkpoint_every: Some(2),
            run_dir: Some(dir.clone()),
            ..Default::default()
        };
        let clean =
            run_cluster(Arc::new(Flock::new()), agents.clone(), 12, ClusterConfig { run_dir: None, ..cfg.clone() });
        // Four epochs, then the process "dies": no completion record.
        ClusterSim::new(Arc::new(Flock::new()), agents, cfg.clone()).unwrap().run_epochs(4).unwrap();
        // Rewrite the newest checkpoint with a third worker payload: the
        // file verifies (valid checksum, every payload decodes), but this
        // 2-worker run never wrote it.
        let newest = *checkpoint::list_checkpoint_epochs(&dir).last().unwrap();
        let mut cp = checkpoint::load_checkpoint_file(&dir, newest).unwrap();
        cp.workers.push(cp.workers[0].clone());
        checkpoint::write_checkpoint_file(&dir, &cp).unwrap();
        assert!(checkpoint::load_checkpoint_file(&dir, newest).is_ok(), "the file itself verifies");
        let (mut sim, _) = ClusterSim::resume(Arc::new(Flock::new()), cfg).expect("an older checkpoint fits");
        assert_eq!(sim.tick(), 8);
        sim.run_ticks(4).unwrap();
        assert_eq!(sim.collect_agents().unwrap(), clean, "resumed past the 3-worker file, the run is the clean one");
        drop(sim);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_ticks_requires_epoch_multiple() {
        let agents = population(Flock::new().schema(), 10, 1);
        let cfg = ClusterConfig { workers: 2, epoch_len: 4, ..Default::default() };
        let mut sim = ClusterSim::new(Arc::new(Flock::new()), agents, cfg).unwrap();
        assert!(sim.run_ticks(6).is_err());
        assert!(sim.run_ticks(8).is_ok());
        assert_eq!(sim.tick(), 8);
    }

    #[test]
    fn over_wide_schema_rejected_as_config_error() {
        // The replica delta mask addresses ≤ 30 state fields; a wider
        // schema must fail construction with a config error, not panic in
        // a worker thread.
        struct Wide(AgentSchema);
        impl Behavior for Wide {
            fn schema(&self) -> &AgentSchema {
                &self.0
            }
            fn query(
                &self,
                _m: brace_core::AgentRef<'_>,
                _n: &Neighbors<'_>,
                _e: &mut EffectWriter<'_>,
                _r: &mut DetRng,
            ) {
            }
            fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
        }
        let mut b = AgentSchema::builder("Wide").visibility(1.0);
        let names: Vec<String> = (0..31).map(|i| format!("s{i}")).collect();
        for name in &names {
            b = b.state(name);
        }
        let schema = b.build().unwrap();
        let err = ClusterSim::new(Arc::new(Wide(schema)), vec![], ClusterConfig::default())
            .err()
            .expect("31 state fields must be rejected");
        assert!(err.to_string().contains("delta mask"), "unexpected error: {err}");
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = ClusterConfig { workers: 0, ..Default::default() };
        let err = ClusterSim::new(Arc::new(Flock::new()), vec![], cfg).err().expect("must reject");
        assert!(err.to_string().contains("at least one worker"));
    }

    /// A model whose agents never move nor change state: the acceptance
    /// bar for delta distribution — its boundary replicas must cost zero
    /// bytes per steady-state tick.
    struct Frozen(AgentSchema);

    impl Frozen {
        fn new() -> Self {
            Frozen(
                AgentSchema::builder("Frozen")
                    .state("s")
                    .effect("n", Combinator::Sum)
                    .visibility(5.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Frozen {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            nbrs: &Neighbors<'_>,
            eff: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
            for _ in nbrs.iter() {
                eff.local(FieldId::new(0), 1.0);
            }
        }
        fn update(&self, _me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {}
    }

    /// Like [`Frozen`] but agents oscillate slightly in y (staying in
    /// their partition and visibility band): persisting replicas must ship
    /// as delta frames only, never as full records. The schema carries
    /// several constant state fields (as real models do — fish has three
    /// states and eight effects), so the masked delta ships a fraction of
    /// the record.
    struct Wiggle(AgentSchema);

    impl Wiggle {
        fn new() -> Self {
            Wiggle(
                AgentSchema::builder("Wiggle")
                    .state("phase")
                    .state("c0")
                    .state("c1")
                    .state("c2")
                    .state("c3")
                    .state("c4")
                    .effect("n", Combinator::Sum)
                    .visibility(5.0)
                    .reachability(1.0)
                    .build()
                    .unwrap(),
            )
        }
    }

    impl Behavior for Wiggle {
        fn schema(&self) -> &AgentSchema {
            &self.0
        }
        fn query(
            &self,
            _m: brace_core::AgentRef<'_>,
            _n: &Neighbors<'_>,
            _e: &mut EffectWriter<'_>,
            _rng: &mut DetRng,
        ) {
        }
        fn update(&self, me: &mut Agent, _ctx: &mut UpdateCtx<'_>) {
            let phase = me.get(FieldId::new(0));
            me.pos.y += if phase == 0.0 { 0.25 } else { -0.25 };
            me.set(FieldId::new(0), 1.0 - phase);
        }
    }

    #[test]
    fn stationary_boundary_population_costs_zero_replica_bytes() {
        // Agents straddle the x = 50 boundary well inside visibility, so
        // both workers hold replicas. Epoch 1 ships them as full records;
        // every steady-state tick after that must ship *nothing*: the pool
        // is resident and empty delta frames are never sent. On the join
        // and on the scan alike.
        for index in [IndexKind::Join, IndexKind::Scan] {
            let schema = Frozen::new();
            let agents: Vec<Agent> = (0..40)
                .map(|i| Agent::new(AgentId::new(i), Vec2::new(48.0 + (i % 5) as f64, i as f64), schema.schema()))
                .collect();
            let cfg =
                ClusterConfig { workers: 2, epoch_len: 4, seed: 3, load_balance: false, index, ..Default::default() };
            let mut sim = ClusterSim::new(Arc::new(schema), agents, cfg).unwrap();
            sim.run_epochs(1).unwrap();
            let warm = sim.stats();
            assert!(warm.net.replica_full.bytes > 0, "boundary population must replicate at all");
            assert!(warm.net.replica_full.messages > 0, "replicas must arrive");
            sim.run_epochs(2).unwrap();
            let steady = sim.stats();
            assert_eq!(steady.net.replica_full, warm.net.replica_full, "steady state must ship no full replicas");
            assert_eq!(
                steady.net.replica_delta, warm.net.replica_delta,
                "stationary agents must ship no deltas either"
            );
            assert_eq!(steady.net.transfer.bytes, 0, "no ownership changes");
            // The pool-resident counters: live ticks never rebuilt a pool,
            // materialized Vec<Agent> or built an index.
            assert_eq!(steady.pool_rebuilds, 0, "steady-state ticks must not rebuild pools");
            assert_eq!(steady.vec_roundtrips, 0, "steady-state ticks must not round-trip Vec<Agent>");
            assert_eq!(steady.index_rebuilds, 0, "no engine builds an index");
        }
    }

    #[test]
    fn persisting_replicas_ship_delta_frames_only() {
        let schema = Wiggle::new();
        let agents: Vec<Agent> = (0..40)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(48.0 + (i % 5) as f64, i as f64), schema.schema()))
            .collect();
        let cfg = ClusterConfig { workers: 2, epoch_len: 4, seed: 3, load_balance: false, ..Default::default() };
        let mut sim = ClusterSim::new(Arc::new(Wiggle::new()), agents.clone(), cfg).unwrap();
        sim.run_epochs(1).unwrap();
        let warm = sim.stats().net;
        sim.run_epochs(2).unwrap();
        let steady = sim.stats();
        let delta_bytes = steady.net.replica_delta.bytes - warm.replica_delta.bytes;
        assert_eq!(steady.net.replica_full, warm.replica_full, "persisting replicas must never re-ship full records");
        assert!(delta_bytes > 0, "moving replicas must ship deltas");
        assert!(steady.net.replica_delta.messages > warm.replica_delta.messages, "delta updates must arrive");
        // Agents only move in y, so the replicated band (every agent within
        // visibility of the x = 50 boundary) is the same each tick. Deltas
        // (y + phase per agent per tick) must be far smaller than re-shipping
        // that band as full records every tick.
        let vis = schema.schema().visibility();
        let band: Vec<&Agent> = agents.iter().filter(|a| (a.pos.x - 50.0).abs() <= vis).collect();
        assert_eq!(band.len(), agents.len(), "the whole population straddles the boundary");
        let measured_ticks = 2 * 4; // 2 epochs × epoch_len 4
        let full_bytes = codec::encode_agents(band).len() as u64 * measured_ticks;
        assert!(
            delta_bytes * 2 < full_bytes,
            "delta traffic ({delta_bytes}) must be well under full records for the same band ({full_bytes})"
        );
    }
}
