//! Fault tolerance end-to-end: coordinated checkpoints, failure injection
//! (single, scheduled, and seeded-random schedules), recovery by replay —
//! on the paper's real models. Recovery and process-restart resume share
//! one restore-and-replay; the latter is covered by
//! `tests/durable_resume.rs`. That a recovered run lands on the
//! failure-free bits for every scenario — spawning and non-local ones
//! included — is the engine matrix's fault leg (`tests/common`), which one
//! test below calls on a spawning model; the rest pin the protocol: how far
//! recovery rolls back and what it replays.

mod common;

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::{Agent, AgentRef, AgentSchema, Behavior, EffectWriter, Neighbors, UpdateCtx};
use brace_mapreduce::checkpoint::list_checkpoint_epochs;
use brace_mapreduce::{CheckpointStore, ClusterConfig, ClusterSim, FaultPlan};
use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams};
use common::{custom_setup, registry_of, spawned, Case, Custom};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn fish() -> FishBehavior {
    FishBehavior::new(FishParams { school_radius: 12.0, ..FishParams::default() })
}

/// A fish cluster of `workers` without the load balancer, checkpointing
/// every `checkpoint_every` epochs of 5 ticks.
fn config(workers: usize, seed: u64, checkpoint_every: Option<u64>) -> ClusterConfig {
    let space_x = (-12.0, 12.0);
    ClusterConfig {
        workers,
        epoch_len: 5,
        seed,
        space_x,
        load_balance: false,
        checkpoint_every,
        ..ClusterConfig::default()
    }
}

#[test]
fn recovery_reproduces_failure_free_fish_run() {
    let pop = fish().population(150, 17);
    let base = config(3, 17, Some(2));
    let mut clean = ClusterSim::new(Arc::new(fish()), pop.clone(), base.clone()).unwrap();
    clean.run_epochs(8).unwrap();
    let clean_world = clean.collect_agents().unwrap();

    // Fault in an epoch that did NOT write a checkpoint (epoch 4 writes at
    // (4+1)%2!=0 → no; epochs 1,3,5,7 write). Epoch 4 loses one epoch.
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(4)), ..base.clone() };
    let mut faulty = ClusterSim::new(Arc::new(fish()), pop.clone(), cfg).unwrap();
    faulty.run_epochs(8).unwrap();
    assert_eq!(faulty.stats().recoveries, 1);
    assert_eq!(faulty.collect_agents().unwrap(), clean_world, "recovery must be exact");

    // Fault in an epoch that DID write a checkpoint: that snapshot is lost
    // too, recovery rolls back further and replays more.
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(5)), ..base };
    let mut faulty2 = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
    faulty2.run_epochs(8).unwrap();
    assert_eq!(faulty2.stats().recoveries, 1);
    assert!(faulty2.stats().replayed_epochs >= 2, "lost checkpoint forces a longer replay");
    assert_eq!(faulty2.collect_agents().unwrap(), clean_world);
}

/// Spawn ids are assigned in global `(parent id, ordinal)` order and the
/// snapshot carries the global next-id cursor, so replayed spawns get
/// identical ids: the non-local predator on a 16-wide field, through the
/// matrix's fault leg (6 epochs, a fault at the third).
#[test]
fn recovery_with_spawning_model_is_exact() {
    let registry = || {
        registry_of([Custom {
            name: "predator-nonlocal",
            agents: 120,
            build: |n, seed| {
                let b = PredatorBehavior::new(PredatorParams { nonlocal: true, ..Default::default() });
                let pop = b.population(n, 16.0, seed);
                custom_setup(b, pop, (0.0, 16.0))
            },
        }])
    };
    assert!(spawned(registry, "predator-nonlocal", &Case::sized(120, 30).seed(23)), "the predators spawned nothing");
}

#[test]
fn fault_before_any_periodic_checkpoint_uses_initial_snapshot() {
    // The constructor takes an initial checkpoint, so even an immediate
    // fault is recoverable (replaying from tick 0).
    let pop = fish().population(80, 29);
    // Only the initial checkpoint exists.
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(1)), ..config(2, 29, None) };
    let mut sim = ClusterSim::new(Arc::new(fish()), pop.clone(), cfg).unwrap();
    sim.run_epochs(3).unwrap();
    assert_eq!(sim.stats().recoveries, 1);
    assert_eq!(sim.stats().replayed_epochs, 2, "epochs 0 and 1 replay from tick 0");

    let mut clean = ClusterSim::new(Arc::new(fish()), pop, config(2, 29, None)).unwrap();
    clean.run_epochs(3).unwrap();
    assert_eq!(sim.collect_agents().unwrap(), clean.collect_agents().unwrap());
}

/// A fresh directory for one durable run of this process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("brace-ft-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flip the last byte of a checkpoint file: it no longer verifies.
fn corrupt(dir: &Path, epoch: u64) {
    let path = dir.join(format!("checkpoint-{epoch}.brace"));
    let mut data = std::fs::read(&path).unwrap();
    *data.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, data).unwrap();
}

/// A durable run recovers from its checkpoint files, not from memory: with
/// the newest kept file corrupted before a fault, recovery falls back to
/// the older kept file and still lands on the failure-free bits. With no
/// kept file that verifies, the run is an `Err` — no panic, no world.
#[test]
fn durable_recovery_falls_back_past_a_corrupt_checkpoint_file() {
    let pop = fish().population(120, 43);
    // Checkpoints after epochs 1 and 3 are files 2 and 4; epoch 4 writes
    // none, so a fault there rolls back to file 4.
    let base = config(2, 43, Some(2));
    let mut clean = ClusterSim::new(Arc::new(fish()), pop.clone(), base.clone()).unwrap();
    clean.run_epochs(8).unwrap();
    let clean_world = clean.collect_agents().unwrap();

    let dir = temp_dir("fallback");
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(4)), run_dir: Some(dir.clone()), ..base.clone() };
    let mut sim = ClusterSim::new(Arc::new(fish()), pop.clone(), cfg).unwrap();
    sim.run_epochs(4).unwrap();
    assert_eq!(list_checkpoint_epochs(&dir), vec![2, 4]);
    corrupt(&dir, 4);
    sim.run_epochs(4).unwrap();
    let s = sim.stats();
    assert_eq!(s.recoveries, 1);
    assert_eq!(s.replayed_epochs, 3, "epochs 2 to 4 replay from file 2");
    assert_eq!(sim.collect_agents().unwrap(), clean_world, "recovery from the older file must be exact");
    drop(sim);
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = temp_dir("no-valid-file");
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(4)), run_dir: Some(dir.clone()), ..base };
    let mut sim = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
    sim.run_epochs(4).unwrap();
    corrupt(&dir, 2);
    corrupt(&dir, 4);
    let err = sim.run_epochs(4).expect_err("no kept checkpoint verifies");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    drop(sim);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoints_persist_to_disk_and_reload() {
    let dir = temp_dir("reload");
    let pop = fish().population(60, 31);
    let cfg = ClusterConfig { run_dir: Some(dir.clone()), ..config(2, 31, Some(1)) };
    let mut sim = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
    sim.run_epochs(3).unwrap();
    drop(sim);
    let loaded = CheckpointStore::load_latest_from(&dir).unwrap().expect("checkpoint on disk");
    assert_eq!(loaded.epoch, 3);
    assert_eq!(loaded.tick, 15);
    assert_eq!(loaded.workers.len(), 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

mod random_fault_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Seeded random fault schedules: any number of whole-cluster
        /// failures at arbitrary (seeded) epochs — before, on, or after
        /// checkpoint boundaries, including back-to-back — recover to the
        /// bits of the failure-free run, with one recovery per fault. Half
        /// the draws are durable runs, which recover from their files.
        #[test]
        fn seeded_random_fault_schedule_recovers_exactly(
            fault_seed in 0u64..1_000,
            n_faults in 1usize..4,
            durable in any::<bool>(),
        ) {
            let pop = fish().population(90, 41);
            let base = config(3, 41, Some(2));
            let mut clean = ClusterSim::new(Arc::new(fish()), pop.clone(), base.clone()).unwrap();
            clean.run_epochs(8).unwrap();
            let clean_world = clean.collect_agents().unwrap();

            let plan = FaultPlan::random(fault_seed, n_faults, 8);
            let scheduled = plan.at_epochs.len() as u64; // deduped, so ≤ n_faults
            prop_assert!(scheduled >= 1);
            let dir = durable.then(|| temp_dir(&format!("random-{fault_seed}-{n_faults}")));
            let cfg = ClusterConfig { fault: Some(plan), run_dir: dir.clone(), ..base };
            let mut faulty = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
            faulty.run_epochs(8).unwrap();
            prop_assert_eq!(faulty.stats().recoveries, scheduled);
            prop_assert_eq!(faulty.collect_agents().unwrap(), clean_world);
            if let Some(dir) = dir {
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }
}

#[test]
fn recovery_cost_is_bounded_by_checkpoint_cadence() {
    // With checkpoints every k epochs, a replay never exceeds k epochs.
    for (every, at_epoch, max_replay) in [(1u64, 5u64, 1u64), (3, 7, 3)] {
        let pop = fish().population(60, 37);
        let cfg = ClusterConfig { fault: Some(FaultPlan::once(at_epoch)), ..config(2, 37, Some(every)) };
        let mut sim = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
        sim.run_epochs(9).unwrap();
        let s = sim.stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.replayed_epochs <= max_replay, "cadence {every}: replayed {} > {max_replay}", s.replayed_epochs);
    }
}

const PANIC_MESSAGE: &str = "behaviour gave up at tick 3";

/// Where [`PanicsOnce`] panics.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Query,
    Update,
}

/// One agent's query or update panics at tick 3 (its `age`); every other
/// agent just ages.
struct PanicsOnce {
    schema: AgentSchema,
    culprit: AgentId,
    phase: Phase,
}

impl Behavior for PanicsOnce {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, me: AgentRef<'_>, _nbrs: &Neighbors<'_>, _eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        if matches!(self.phase, Phase::Query) && me.id() == self.culprit && me.get(FieldId::new(0)) == 3.0 {
            panic!("{PANIC_MESSAGE}");
        }
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        if matches!(self.phase, Phase::Update) && me.id == self.culprit && ctx.tick == 3 {
            panic!("{PANIC_MESSAGE}");
        }
        me.set(FieldId::new(0), me.get(FieldId::new(0)) + 1.0);
    }
}

/// A behaviour that panics on one agent of the last worker fails the epoch:
/// `run_epochs` returns an `Err` naming that worker and the panic's message
/// (its peers, waiting on its links, fail with it), and dropping the sim
/// joins every worker thread. Each worker owns three executor shards, so at
/// two threads per worker the panic can come from a shard thread. A hang is
/// caught by the watchdog.
#[test]
fn a_panicking_behaviour_fails_the_epoch_on_every_worker_count() {
    const PER_WORKER: usize = 4_500;
    for workers in 1..=3 {
        for parallelism in [1, 2] {
            for phase in [Phase::Query, Phase::Update] {
                let n = PER_WORKER * workers;
                let schema = AgentSchema::builder("PanicsOnce").state("age").visibility(1.0).build().unwrap();
                let pop: Vec<Agent> =
                    (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64, 0.0), &schema)).collect();
                // Early in the last worker's column.
                let culprit = AgentId::new((PER_WORKER * (workers - 1) + 1) as u64);
                let behavior = PanicsOnce { schema, culprit, phase };
                let cfg = ClusterConfig {
                    workers,
                    epoch_len: 5,
                    space_x: (0.0, n as f64),
                    load_balance: false,
                    parallelism,
                    ..ClusterConfig::default()
                };
                let case = format!("{workers} worker(s), {parallelism} thread(s), panic in {phase:?}");
                let (done_tx, done_rx) = std::sync::mpsc::channel();
                let watched = std::thread::spawn(move || {
                    let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
                    let run = sim.run_epochs(2).map(|_| ()).map_err(|e| e.to_string());
                    drop(sim);
                    let _ = done_tx.send(run);
                });
                let run = done_rx.recv_timeout(Duration::from_secs(60)).unwrap_or_else(|e| panic!("{case}: {e}"));
                watched.join().unwrap();
                let err = run.expect_err(&case);
                let worker = format!("w{} failed epoch 0", workers - 1);
                assert!(err.contains(&worker) && err.contains(PANIC_MESSAGE), "{case}: {err}");
            }
        }
    }
}
