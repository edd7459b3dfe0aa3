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

/// The three trajectories, as test-local scenarios. The checksum every one is compared by is the
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
                custom_setup(b, pop, (-20.0, 20.0))
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
                custom_setup(b, pop, (0.0, 30.0))
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

/// Three-lane traffic over a segment of its own.
fn traffic(params: TrafficParams, seed: u64) -> ScenarioSetup {
    let (segment, b) = (params.segment, TrafficBehavior::new(TrafficParams { lanes: 3, ..params }));
    let pop = b.population(seed);
    custom_setup(b, pop, (0.0, segment))
}

/// `name`'s default population for 100 ticks at seed 42.
fn hundred_ticks(name: &str) -> Case {
    Case::sized(registry().get(name).unwrap().default_population(), 100)
}

/// `want` must hold on the baseline and on every leg `case` names.
fn assert_golden(name: &str, case: &Case, want: u64) {
    let got = engines_agree(registry, name, case);
    assert_eq!(got, want, "`{name}` drifted (got {got:#06X}); see the module docs before touching this constant");
}

/// 100 ticks at seed 42 on every leg of the engine matrix: one constant
/// pins the single node at every thread budget, clusters of 1 to 4 workers
/// (the balancer off, and moving boundaries mid-run on 4; delta
/// distribution shipping replicas as masked frames), a fault recovered by
/// checkpoint restore and replay on 3, the durable and resumed runs, and
/// the served run.
fn golden(name: &str, want: u64) {
    assert_golden(name, &hundred_ticks(name), want);
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

/// The one non-local trajectory (float sums folded in source-id order),
/// pinned on the scan on every leg.
#[test]
fn golden_predator_100_ticks() {
    assert_golden("golden-predator", &hundred_ticks("golden-predator").index(IndexKind::Scan), GOLDEN_PREDATOR);
}

const GOLDEN_PREDATOR: u64 = 0x4009_9BD6_5F84_5536;

/// The scan and the join reach the same constants on one node and on
/// `cluster:2`, each on the trajectory the other pins on every leg: the
/// predator on the join, and the fish school (float forces over every
/// neighbour) on the scan, whose candidates must come out in ascending id
/// on a worker's unordered pool as on one node.
#[test]
fn golden_fish_on_the_scan_and_predator_on_the_join() {
    const LEGS: &[&str] = &["cluster:2, balancer off"];
    assert_golden("golden-fish", &hundred_ticks("golden-fish").index(IndexKind::Scan).on(LEGS), GOLDEN_FISH);
    assert_golden("golden-predator", &hundred_ticks("golden-predator").on(LEGS), GOLDEN_PREDATOR);
}

#[test]
fn golden_traffic_cluster_100_ticks_matches_single_node() {
    golden("golden-traffic-wrap-free", 0x431B_E404_82D3_8EAC);
}

/// The goldens' libm half of the host contract: glibc's libm is assumed,
/// and checked here. Each function's digest (FNV-1a over the output bits)
/// covers 4 096 `DetRng`-drawn inputs in the ranges the models (headings,
/// a random walk: `sin`, `cos`) and BRASIL's builtins (`plan.rs`: `sin`,
/// `cos`, `exp`, `ln`, `atan2`, `powf`) feed it. A libm that rounds one of
/// them differently moves the goldens above for no engine reason; this test
/// fails first and names the function.
#[test]
fn libm_output_bits_match_the_pinned_host() {
    use brace_common::DetRng;
    let digest = |seed: u64, f: &dyn Fn(&mut DetRng) -> f64| {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..4096).fold(0xCBF2_9CE4_8422_2325_u64, |h, _| {
            f(&mut rng).to_bits().to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
        })
    };
    // `ln`'s inputs span 2⁻⁴⁰..2⁴⁰: a mantissa scaled by an exact power of two.
    let got = [
        ("sin", digest(1, &|r| r.range(-64.0, 64.0).sin())),
        ("cos", digest(2, &|r| r.range(-64.0, 64.0).cos())),
        ("exp", digest(3, &|r| r.range(-40.0, 40.0).exp())),
        ("ln", digest(4, &|r| (r.range(1.0, 2.0) * 2f64.powi(r.range(-40.0, 40.0) as i32)).ln())),
        ("atan2", digest(5, &|r| r.range(-100.0, 100.0).atan2(r.range(-100.0, 100.0)))),
        ("powf", digest(6, &|r| r.range(0.0, 10.0).powf(r.range(-4.0, 4.0)))),
    ];
    let want = [
        0x172F_3A85_00FD_3B4D,
        0x45BC_A254_B939_AAA8,
        0x03D1_B057_5B99_C794,
        0xA412_0548_2B4D_C107,
        0x61C2_AB1C_E762_110A,
        0xD8DC_DB0A_6F08_95E1,
    ];
    let drifted: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != w)
        .map(|((name, g), _)| format!("{name} (got {g:#018X})"))
        .collect();
    assert!(drifted.is_empty(), "this host's libm differs from the pinned one in: {}", drifted.join(", "));
}
