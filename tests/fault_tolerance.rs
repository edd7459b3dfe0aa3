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

use brace_mapreduce::{CheckpointStore, ClusterConfig, ClusterSim, FaultPlan};
use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams};
use common::{custom_setup, registry_of, spawned, Case, Custom};
use std::sync::Arc;

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

#[test]
fn checkpoints_persist_to_disk_and_reload() {
    let dir = std::env::temp_dir().join(format!("brace-ft-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
        /// bits of the failure-free run, with one recovery per fault.
        #[test]
        fn seeded_random_fault_schedule_recovers_exactly(fault_seed in 0u64..1_000, n_faults in 1usize..4) {
            let pop = fish().population(90, 41);
            let base = config(3, 41, Some(2));
            let mut clean = ClusterSim::new(Arc::new(fish()), pop.clone(), base.clone()).unwrap();
            clean.run_epochs(8).unwrap();
            let clean_world = clean.collect_agents().unwrap();

            let plan = FaultPlan::random(fault_seed, n_faults, 8);
            let scheduled = plan.at_epochs.len() as u64; // deduped, so ≤ n_faults
            prop_assert!(scheduled >= 1);
            let cfg = ClusterConfig { fault: Some(plan), ..base };
            let mut faulty = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
            faulty.run_epochs(8).unwrap();
            prop_assert_eq!(faulty.stats().recoveries, scheduled);
            prop_assert_eq!(faulty.collect_agents().unwrap(), clean_world);
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
