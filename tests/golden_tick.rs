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

mod common;

use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams};
use brace_scenario::{Registry, ScenarioSetup};
use brace_spatial::IndexKind;
use common::{custom_setup, engines_agree, registry_of, Case, Custom};

/// The three trajectories, as test-local scenarios: each model with the
/// index it is pinned on. The checksum every one is compared by is the
/// canonical world fingerprint (`brace_scenario::world_checksum`: FNV-1a
/// over every bit — ids, positions, states, effects, liveness — through
/// `to_bits`, so even a `-0.0` vs `0.0` flip moves the sum), the same number
/// the CLI and the conformance suite report.
fn registry() -> Registry {
    registry_of([
        Custom {
            name: "golden-fish",
            agents: 300,
            build: |n, seed| {
                let b = FishBehavior::new(FishParams::default());
                let pop = b.population(n, seed);
                custom_setup(b, pop, IndexKind::KdTree, (-20.0, 20.0))
            },
        },
        Custom {
            name: "golden-traffic",
            agents: 90,
            build: |_, seed| {
                traffic(TrafficParams { segment: 1_000.0, density: 0.03, ..TrafficParams::default() }, seed)
            },
        },
        Custom {
            name: "golden-predator",
            agents: 200,
            build: |n, seed| {
                let b = PredatorBehavior::new(PredatorParams::default());
                let pop = b.population(n, 30.0, seed);
                custom_setup(b, pop, IndexKind::Scan, (0.0, 30.0))
            },
        },
        Custom {
            // Vehicles that cannot reach the segment end within the horizon
            // (max_speed × dt × TICKS = 3600 < 10000 − 6000): a spawn-free
            // trajectory, kept pinned beside the spawning conformance
            // coverage.
            name: "golden-traffic-wrap-free",
            agents: 180,
            build: |_, seed| {
                let mut setup =
                    traffic(TrafficParams { segment: 10_000.0, density: 0.01, ..TrafficParams::default() }, seed);
                setup.population.retain(|a| a.pos.x < 6_000.0);
                setup
            },
        },
    ])
}

/// Three-lane traffic on the grid over a segment of its own.
fn traffic(params: TrafficParams, seed: u64) -> ScenarioSetup {
    let (segment, b) = (params.segment, TrafficBehavior::new(TrafficParams { lanes: 3, ..params }));
    let pop = b.population(seed);
    custom_setup(b, pop, IndexKind::Grid, (0.0, segment))
}

/// 100 ticks at seed 42, on every leg of the engine matrix: one constant
/// pins the single node at every thread budget, clusters of 1 to 4 workers
/// (the balancer off, and moving boundaries mid-run on 4; delta
/// distribution shipping replicas as masked frames), a fault recovered by
/// checkpoint restore and replay on 3, the durable and resumed runs, and
/// the served run.
fn golden(name: &str, want: u64) {
    let agents = registry().get(name).unwrap().default_population();
    let got = engines_agree(registry, name, &Case::sized(agents, 100));
    assert_eq!(got, want, "`{name}` drifted (got {got:#06X}); see the module docs before touching this constant");
}

const GOLDEN_FISH: u64 = 0x7FCC_939F_AE16_A057;

#[test]
fn golden_fish_100_ticks() {
    golden("golden-fish", GOLDEN_FISH);
}

/// The matrix's load-balanced `cluster:4` leg reaches the single-node
/// constant (the same call as above: the matrix runs once).
#[test]
fn golden_fish_cluster_100_ticks_matches_single_node_constant() {
    golden("golden-fish", GOLDEN_FISH);
}

/// The matrix's fault leg — all live worker state lost at epoch 10 of 20,
/// recovered by checkpoint restore and replay — reaches it too.
#[test]
fn golden_fish_cluster_fault_recovery_matches_single_node_constant() {
    golden("golden-fish", GOLDEN_FISH);
}

#[test]
fn golden_traffic_100_ticks() {
    golden("golden-traffic", 0xA23D_BFEE_B720_92E2);
}

#[test]
fn golden_predator_100_ticks() {
    golden("golden-predator", 0x4009_9BD6_5F84_5536);
}

#[test]
fn golden_traffic_cluster_100_ticks_matches_single_node() {
    golden("golden-traffic-wrap-free", 0x431B_E404_82D3_8EAC);
}
