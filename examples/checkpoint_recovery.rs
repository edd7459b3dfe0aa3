//! Coordinated checkpoints and recovery by replay.
//!
//! ```sh
//! cargo run --release --example checkpoint_recovery
//! ```
//!
//! Runs the fish school on 3 workers with a checkpoint every 2 epochs,
//! kills the cluster's live state in epoch 5 (taking that epoch's results
//! — and any checkpoint it wrote — with it), recovers from the newest
//! surviving snapshot, replays, and proves the final world is identical to
//! a failure-free run. Each run is a durable run: its checkpoints are also
//! written to disk, under a run directory of its own, and reloaded.

use brace::mapreduce::{CheckpointStore, ClusterConfig, ClusterSim, FaultPlan};
use brace::models::{FishBehavior, FishParams};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join("brace-checkpoint-demo");
    let _ = std::fs::remove_dir_all(&dir);

    let make = || FishBehavior::new(FishParams { school_radius: 15.0, ..FishParams::default() });
    let pop = make().population(500, 17);
    let base = ClusterConfig {
        workers: 3,
        epoch_len: 5,
        seed: 17,
        space_x: (-15.0, 15.0),
        load_balance: false,
        checkpoint_every: Some(2),
        ..ClusterConfig::default()
    };

    println!("failure-free reference run: 10 epochs of 5 ticks…");
    // A run directory holds one run: each cluster gets its own.
    let clean_cfg = ClusterConfig { run_dir: Some(dir.join("clean")), ..base.clone() };
    let mut clean = ClusterSim::new(Arc::new(make()), pop.clone(), clean_cfg).expect("cluster");
    clean.run_epochs(10).expect("runs");
    let clean_world = clean.collect_agents().expect("collect");
    println!("  done: {} fish, {} checkpoints taken", clean_world.len(), clean.stats().checkpoints);

    println!("\nfaulty run: identical, but all live worker state is lost during epoch 5…");
    let faulty_dir = dir.join("faulty");
    let cfg = ClusterConfig { fault: Some(FaultPlan::once(5)), run_dir: Some(faulty_dir.clone()), ..base };
    let mut faulty = ClusterSim::new(Arc::new(make()), pop, cfg).expect("cluster");
    faulty.run_epochs(10).expect("runs (with recovery)");
    let stats = faulty.stats();
    println!(
        "  recovered: {} recovery, {} epochs replayed from the last coordinated checkpoint",
        stats.recoveries, stats.replayed_epochs
    );

    let recovered_world = faulty.collect_agents().expect("collect");
    assert_eq!(clean_world, recovered_world, "recovery must reproduce the failure-free world");
    println!("  final world is IDENTICAL to the failure-free run ({} agents)", recovered_world.len());

    let loaded = CheckpointStore::load_latest_from(&faulty_dir).expect("readable").expect("exists");
    println!(
        "\non-disk checkpoint: epoch {}, tick {}, {} worker snapshots, {} column bounds",
        loaded.epoch,
        loaded.tick,
        loaded.workers.len(),
        loaded.x_bounds.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
