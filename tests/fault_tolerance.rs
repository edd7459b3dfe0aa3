//! Fault tolerance end-to-end: coordinated checkpoints, failure injection
//! (single, scheduled, and seeded-random schedules), recovery by replay —
//! on the paper's real models. Recovery and process-restart resume share
//! one restore-and-replay; the latter is covered by
//! `tests/durable_resume.rs`.

use brace_mapreduce::{CheckpointStore, ClusterConfig, ClusterSim, FaultPlan};
use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams};
use std::sync::Arc;

fn fish() -> FishBehavior {
    FishBehavior::new(FishParams { school_radius: 12.0, ..FishParams::default() })
}

#[test]
fn recovery_reproduces_failure_free_fish_run() {
    let pop = fish().population(150, 17);
    let base = ClusterConfig {
        workers: 3,
        epoch_len: 5,
        seed: 17,
        space_x: (-12.0, 12.0),
        load_balance: false,
        checkpoint_every: Some(2),
        ..ClusterConfig::default()
    };
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

#[test]
fn recovery_with_spawning_model_is_exact() {
    // Spawn ids are assigned in global `(parent id, ordinal)` order; the
    // snapshot carries the global next-id cursor, so replayed spawns get
    // identical ids.
    let params = PredatorParams { nonlocal: true, ..Default::default() };
    let make = || PredatorBehavior::new(params.clone());
    let pop = make().population(120, 16.0, 23);
    let base = ClusterConfig {
        workers: 2,
        epoch_len: 4,
        seed: 23,
        space_x: (0.0, 16.0),
        load_balance: false,
        checkpoint_every: Some(2),
        ..ClusterConfig::default()
    };
    let mut clean = ClusterSim::new(Arc::new(make()), pop.clone(), base.clone()).unwrap();
    clean.run_epochs(6).unwrap();
    let clean_world = clean.collect_agents().unwrap();

    let cfg = ClusterConfig { fault: Some(FaultPlan::once(4)), ..base };
    let mut faulty = ClusterSim::new(Arc::new(make()), pop, cfg).unwrap();
    faulty.run_epochs(6).unwrap();
    assert_eq!(faulty.collect_agents().unwrap(), clean_world);
}

#[test]
fn fault_before_any_periodic_checkpoint_uses_initial_snapshot() {
    // The constructor takes an initial checkpoint, so even an immediate
    // fault is recoverable (replaying from tick 0).
    let pop = fish().population(80, 29);
    let cfg = ClusterConfig {
        workers: 2,
        epoch_len: 5,
        seed: 29,
        space_x: (-12.0, 12.0),
        load_balance: false,
        checkpoint_every: None, // only the initial checkpoint exists
        fault: Some(FaultPlan::once(1)),
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(Arc::new(fish()), pop.clone(), cfg).unwrap();
    sim.run_epochs(3).unwrap();
    assert_eq!(sim.stats().recoveries, 1);
    assert_eq!(sim.stats().replayed_epochs, 2, "epochs 0 and 1 replay from tick 0");

    let clean_cfg = ClusterConfig {
        workers: 2,
        epoch_len: 5,
        seed: 29,
        space_x: (-12.0, 12.0),
        load_balance: false,
        ..ClusterConfig::default()
    };
    let mut clean = ClusterSim::new(Arc::new(fish()), pop, clean_cfg).unwrap();
    clean.run_epochs(3).unwrap();
    assert_eq!(sim.collect_agents().unwrap(), clean.collect_agents().unwrap());
}

#[test]
fn checkpoints_persist_to_disk_and_reload() {
    let dir = std::env::temp_dir().join(format!("brace-ft-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pop = fish().population(60, 31);
    let cfg = ClusterConfig {
        workers: 2,
        epoch_len: 5,
        seed: 31,
        space_x: (-12.0, 12.0),
        load_balance: false,
        checkpoint_every: Some(1),
        run_dir: Some(dir.clone()),
        ..ClusterConfig::default()
    };
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
            let base = ClusterConfig {
                workers: 3,
                epoch_len: 5,
                seed: 41,
                space_x: (-12.0, 12.0),
                load_balance: false,
                checkpoint_every: Some(2),
                ..ClusterConfig::default()
            };
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
        let cfg = ClusterConfig {
            workers: 2,
            epoch_len: 5,
            seed: 37,
            space_x: (-12.0, 12.0),
            load_balance: false,
            checkpoint_every: Some(every),
            fault: Some(FaultPlan::once(at_epoch)),
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(fish()), pop, cfg).unwrap();
        sim.run_epochs(9).unwrap();
        let s = sim.stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.replayed_epochs <= max_replay, "cadence {every}: replayed {} > {max_replay}", s.replayed_epochs);
    }
}
