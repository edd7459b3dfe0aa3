//! Golden-tick regression: fixed-seed, fixed-model, 100-tick runs whose
//! final world checksums are committed below.
//!
//! Bit-reproducibility is this repo's core invariant: the same seed must
//! produce the same world on every machine, thread count, index kind and
//! kernel path. The property suite proves those equivalences *within* a
//! build; this test pins the absolute bits *across* builds — if any future
//! change to the kernels, the executor, the indexes or the models perturbs
//! a single bit of any of these three trajectories, the checksum moves and
//! this test fails.
//!
//! That is sometimes the intent (a deliberate model-definition change, like
//! the squared-distance cutoff that landed with the batched kernels). In
//! that case — and only after confirming the kernel conformance properties
//! in `tests/properties.rs` still pass, so batched ≡ scalar still holds —
//! regenerate the constants with:
//!
//! ```text
//! cargo test --test golden_tick -- --nocapture   # failing output prints actuals
//! ```
//!
//! and say so in the PR. An *unexplained* checksum change is a determinism
//! bug; do not update the constants to paper over one.

use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, FaultPlan, LoadBalancer};
use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams};
use brace_spatial::IndexKind;
// The canonical world fingerprint (FNV-1a over every bit: ids, positions,
// states, effects, liveness — `to_bits`, so even a `-0.0` vs `0.0` flip
// moves the sum). Shared with the registry conformance suite and the CLI,
// so all three report directly comparable numbers.
use brace_scenario::world_checksum;
use std::sync::Arc;

const TICKS: u64 = 100;
const SEED: u64 = 42;

fn run_checksum<B: brace_core::Behavior>(behavior: B, pop: Vec<Agent>, kind: IndexKind) -> u64 {
    let mut sim = Simulation::builder(behavior).agents(pop).index(kind).seed(SEED).parallelism(1).build().unwrap();
    sim.run(TICKS);
    world_checksum(&sim.agents())
}

#[test]
fn golden_fish_100_ticks() {
    let b = FishBehavior::new(FishParams::default());
    let pop = b.population(300, SEED);
    let got = run_checksum(b, pop, IndexKind::KdTree);
    assert_eq!(
        got, 0x7FCC_939F_AE16_A057,
        "fish golden world drifted (got {got:#06X}); see the module docs before touching this constant"
    );
}

#[test]
fn golden_traffic_100_ticks() {
    let b =
        TrafficBehavior::new(TrafficParams { segment: 1_000.0, lanes: 3, density: 0.03, ..TrafficParams::default() });
    let pop = b.population(SEED);
    let got = run_checksum(b, pop, IndexKind::Grid);
    assert_eq!(
        got, 0xA23D_BFEE_B720_92E2,
        "traffic golden world drifted (got {got:#06X}); see the module docs before touching this constant"
    );
}

#[test]
fn golden_predator_100_ticks() {
    let b = PredatorBehavior::new(PredatorParams::default());
    let pop = b.population(200, 30.0, SEED);
    let got = run_checksum(b, pop, IndexKind::Scan);
    assert_eq!(
        got, 0x4009_9BD6_5F84_5536,
        "predator golden world drifted (got {got:#06X}); see the module docs before touching this constant"
    );
}

// ---- golden *cluster* checksums ------------------------------------------
//
// The distributed claims, pinned at the same strength as the single-node
// ones: a 4-worker cluster — load balancer ON, partition boundaries moving
// mid-run, delta distribution shipping replicas as masked frames — produces
// **the same bits** as the single-node engine. The fish test reuses the
// single-node constant above verbatim; traffic pins a fresh constant for a
// wrap-free configuration (it predates globally-ordered spawn ids and
// stays pinned as a second trajectory; the *wrapping* respawn path is now
// exactly distributable too, which `tests/scenario_conformance.rs` proves
// on traffic's default form). The fault-recovery test replays through a
// checkpoint restore and must land on the identical checksum.

/// Run a 4-worker, load-balanced, delta-distributed cluster and checksum
/// the collected world (sorted by id — which is also the single-node
/// executor's row order for these non-spawning runs).
fn cluster_checksum<B: Behavior + 'static>(
    behavior: B,
    pop: Vec<Agent>,
    space_x: (f64, f64),
    fault: Option<FaultPlan>,
) -> u64 {
    let cfg = ClusterConfig {
        workers: 4,
        epoch_len: 5,
        seed: SEED,
        space_x,
        load_balance: true,
        balancer: LoadBalancer { imbalance_threshold: 1.1, migration_cost_ticks: 0.5, epoch_len: 5 },
        checkpoint_every: Some(4),
        fault,
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
    sim.run_ticks(TICKS).unwrap();
    world_checksum(&sim.collect_agents().unwrap())
}

#[test]
fn golden_fish_cluster_100_ticks_matches_single_node_constant() {
    let b = FishBehavior::new(FishParams::default());
    let pop = b.population(300, SEED);
    let got = cluster_checksum(b, pop, (-20.0, 20.0), None);
    assert_eq!(
        got, 0x7FCC_939F_AE16_A057,
        "4-worker fish cluster drifted from the single-node golden world (got {got:#06X})"
    );
}

#[test]
fn golden_fish_cluster_fault_recovery_matches_single_node_constant() {
    // Lose all live worker state during epoch 10 (its checkpoint included),
    // recover from the last surviving coordinated checkpoint, replay — and
    // still land on the single-node constant.
    let b = FishBehavior::new(FishParams::default());
    let pop = b.population(300, SEED);
    let got = cluster_checksum(b, pop, (-20.0, 20.0), Some(FaultPlan::once(10)));
    assert_eq!(
        got, 0x7FCC_939F_AE16_A057,
        "fault-recovery fish cluster drifted from the single-node golden world (got {got:#06X})"
    );
}

/// Traffic config whose vehicles cannot reach the segment end within the
/// horizon (max_speed × dt × TICKS = 3600 < 10000 − 6000) — a spawn-free
/// trajectory, kept pinned alongside the spawning conformance coverage.
fn wrap_free_traffic() -> (TrafficBehavior, Vec<Agent>) {
    let b =
        TrafficBehavior::new(TrafficParams { segment: 10_000.0, lanes: 3, density: 0.01, ..TrafficParams::default() });
    let pop: Vec<Agent> = b.population(SEED).into_iter().filter(|a| a.pos.x < 6_000.0).collect();
    (b, pop)
}

#[test]
fn golden_traffic_cluster_100_ticks_matches_single_node() {
    let (b, pop) = wrap_free_traffic();
    let single = run_checksum(b, pop.clone(), IndexKind::Grid);
    assert_eq!(
        single, 0x431B_E404_82D3_8EAC,
        "wrap-free traffic single-node world drifted (got {single:#06X}); see the module docs"
    );
    let (b, _) = wrap_free_traffic();
    let cluster = cluster_checksum(b, pop, (0.0, 10_000.0), None);
    assert_eq!(cluster, single, "4-worker traffic cluster must equal the single-node bits (got {cluster:#06X})");
}
