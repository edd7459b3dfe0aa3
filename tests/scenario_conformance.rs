//! The registry-driven conformance suite: **every** registered scenario
//! runs through the one `Runner` facade on both backends, and the cluster
//! must reproduce the single-node world bit for bit.
//!
//! This is the test that makes future scenario PRs cheap: register a
//! scenario and it is automatically driven through the single-node
//! executor and a 2-worker cluster on its
//! [`conformance_setup`](brace::scenario::conformance_setup)
//! configuration, checksummed, equality-asserted, and run through its own
//! post-run sanity checks ([`Runner::run`] applies them). Nothing here
//! names an individual scenario except the committed golden constants for
//! the two registry-era workloads.
//!
//! Golden constants: regenerate with
//! `cargo test --test scenario_conformance -- --nocapture` after a
//! deliberate model change (the failing assert prints actuals), and say so
//! in the PR — the same protocol as `tests/golden_tick.rs`.

use brace::core::executor::SHARD_ROWS;
use brace::scenario::{conformance_setup, Backend, Registry, Runner};

/// Conformance horizon: enough ticks for real boundary traffic (every
/// builtin's population spans both partitions within visibility of the
/// split) while keeping registry × backends CI-cheap.
const TICKS: u64 = 20;
const SEED: u64 = 42;

fn run(scenario: &dyn brace::scenario::Scenario, backend: Backend) -> brace::scenario::RunReport {
    Runner::new(scenario)
        .seed(SEED)
        .conformance()
        .backend(backend)
        .run(TICKS)
        .unwrap_or_else(|e| panic!("scenario `{}` failed: {e}", scenario.name()))
}

/// The tentpole invariant: cluster ≡ single node, bitwise, for every
/// registered scenario's conformance configuration.
#[test]
fn every_scenario_cluster_matches_single_node_bitwise() {
    let registry = Registry::builtin();
    assert!(registry.len() >= 8, "catalogue shrank: {:?}", registry.names());
    for scenario in registry.iter() {
        let single = run(scenario, Backend::single());
        let cluster = run(scenario, Backend::cluster(2));
        assert_eq!(
            single.checksum,
            cluster.checksum,
            "scenario `{}`: 2-worker cluster diverged from single node \
             (single {:#018X}, cluster {:#018X})",
            scenario.name(),
            single.checksum,
            cluster.checksum
        );
        assert_eq!(single.agents, cluster.agents, "scenario `{}` population diverged", scenario.name());
        assert!(single.agents > 0, "scenario `{}` conformance world is empty", scenario.name());
    }
}

/// Worker count is unobservable too: 3 workers reproduce the same bits
/// (spot-checked on the two registry-era scenarios, whose goldens are
/// pinned below).
#[test]
fn worker_count_is_unobservable_for_new_scenarios() {
    let registry = Registry::builtin();
    for name in ["epidemic", "flock-obstacles"] {
        let scenario = registry.get(name).unwrap();
        let single = run(scenario, Backend::single());
        let cluster = run(scenario, Backend::cluster(3));
        assert_eq!(single.checksum, cluster.checksum, "scenario `{name}` diverged at 3 workers");
    }
}

/// The spawn machinery is under the bit-identity contract too: the two
/// scenarios that create agents mid-run — traffic's wrapping respawns and
/// the predator's births — run their **default forms** in conformance
/// (spawn ids are assigned in global `(parent id, ordinal)` order on every
/// backend; the predator's bites are non-local float sums, folded once in
/// source-id order by the target's owner), and the runs must genuinely
/// exercise mid-run spawning: a world with no id above the initial
/// population would be vacuous proof.
#[test]
fn spawning_scenarios_conform_with_their_default_forms() {
    let registry = Registry::builtin();
    for name in ["traffic", "predator"] {
        let scenario = registry.get(name).unwrap();
        let initial_max =
            conformance_setup(scenario, SEED).unwrap().population.iter().map(|a| a.id.raw()).max().unwrap();
        let single = run(scenario, Backend::single());
        assert!(
            single.world.iter().any(|a| a.id.raw() > initial_max),
            "scenario `{name}` conformance run spawned nothing — the spawn path is untested"
        );
        for workers in [2, 3] {
            let cluster = run(scenario, Backend::cluster(workers));
            assert_eq!(
                single.checksum, cluster.checksum,
                "scenario `{name}`: {workers}-worker cluster diverged from single node on the spawning default form"
            );
        }
    }
}

/// The thread budget is unobservable past one shard. The conformance
/// population sits below `SHARD_ROWS`, so here every scenario runs at
/// ≈ 4 500 agents — three shards of the query phase's sweep — and must
/// reproduce its serial bits at 2 and 3 threads: the multi-shard fan-out
/// and the chunked update phase, end to end.
#[test]
fn every_scenario_is_parallelism_invariant_past_one_shard() {
    let registry = Registry::builtin();
    for scenario in registry.iter() {
        let run = |parallelism| {
            Runner::new(scenario)
                .seed(SEED)
                .population(4_500)
                .backend(Backend::SingleNode { parallelism })
                .run(3)
                .unwrap_or_else(|e| panic!("scenario `{}` failed at {parallelism} threads: {e}", scenario.name()))
        };
        let serial = run(1);
        assert!(serial.agents > SHARD_ROWS, "scenario `{}` fits one shard ({} agents)", scenario.name(), serial.agents);
        for parallelism in [2, 3] {
            assert_eq!(
                run(parallelism).checksum,
                serial.checksum,
                "scenario `{}` diverged from serial at {parallelism} threads",
                scenario.name()
            );
        }
    }
}

// ---- golden conformance checksums for the registry-era scenarios ---------
//
// The absolute bits of the two new workloads, pinned across builds at the
// same strength as tests/golden_tick.rs pins the paper's three: if any
// future change perturbs a single bit of either trajectory, these move.

const GOLDEN_EPIDEMIC: u64 = 0xEFDF_A3ED_B826_E4CE;
const GOLDEN_FLOCK_OBSTACLES: u64 = 0x8207_542D_825E_ECCA;

#[test]
fn golden_epidemic_conformance_20_ticks() {
    let registry = Registry::builtin();
    let scenario = registry.get("epidemic").unwrap();
    for backend in [Backend::single(), Backend::cluster(2)] {
        let got = run(scenario, backend.clone()).checksum;
        assert_eq!(
            got,
            GOLDEN_EPIDEMIC,
            "epidemic golden world drifted on {} (got {got:#018X}); see the module docs before touching this constant",
            backend.label()
        );
    }
}

#[test]
fn golden_flock_obstacles_conformance_20_ticks() {
    let registry = Registry::builtin();
    let scenario = registry.get("flock-obstacles").unwrap();
    for backend in [Backend::single(), Backend::cluster(2)] {
        let got = run(scenario, backend.clone()).checksum;
        assert_eq!(
            got,
            GOLDEN_FLOCK_OBSTACLES,
            "flock-obstacles golden world drifted on {} (got {got:#018X}); \
             see the module docs before touching this constant",
            backend.label()
        );
    }
}
