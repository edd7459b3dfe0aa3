//! The registry-driven conformance suite: **every** registered scenario
//! runs through every leg of the engine matrix (`tests/common`) — thread
//! budgets, clusters of 1 to 4 workers, a recovered fault, a durable run
//! and a resumed one, a served run — on its
//! [`conformance_setup`](brace::scenario::conformance_setup) configuration,
//! and through its threaded legs at ≈ 4 500 agents; every leg must
//! reproduce the serial single-node world bit for bit and pass the
//! scenario's own post-run checks; and the no-index scan must reproduce the
//! join's world on one node and on two workers. Register a scenario and it
//! is covered; nothing here names one except the goldens and the two that
//! spawn.
//!
//! Golden constants: regenerate with
//! `cargo test --test scenario_conformance -- --nocapture` after a
//! deliberate model change (the failing assert prints actuals), and say so
//! in the PR — the same protocol as `tests/golden_tick.rs`.

mod common;

use brace::scenario::Registry;
use brace::spatial::IndexKind;
use common::{assert_ran_past_one_shard, engines_agree, spawned, Case, GOLDEN_EPIDEMIC, THREADED};

/// Conformance horizon: enough ticks for real boundary traffic (every
/// builtin's population spans both partitions within visibility of the
/// split) and four epochs, so the fault and resume legs restore mid-run.
const TICKS: u64 = 20;

fn conformance() -> Case {
    Case::conformance(TICKS)
}

/// The tentpole invariant: every engine leg ≡ the serial single node,
/// bitwise, for every registered scenario's conformance configuration —
/// worker counts 1 to 4, the balancer off and moving boundaries, a
/// recovered fault, durable and resumed runs, and a served one. The same
/// conformance form on the scan, on one node and on `cluster:2`, whose
/// pools are not in id order: the scan's candidates must come out in
/// ascending id there too.
#[test]
fn every_scenario_cluster_matches_single_node_bitwise() {
    let registry = Registry::builtin();
    assert!(registry.len() >= 8, "catalogue shrank: {:?}", registry.names());
    let scan = conformance().index(IndexKind::Scan).on(&["cluster:2, balancer off"]);
    for name in registry.names() {
        let join = engines_agree(Registry::builtin, name, &conformance());
        let got = engines_agree(Registry::builtin, name, &scan);
        assert_eq!(got, join, "`{name}`: the scan diverged from the join: {got:#018X} vs {join:#018X}");
    }
}

/// The thread budget is unobservable past one shard. The conformance
/// population sits below `SHARD_ROWS`, so here every scenario runs at
/// ≈ 4 500 agents — three shards of the query phase's sweep, and more than
/// one per worker on `cluster:2` — through the threaded legs: the
/// multi-shard fan-out and the chunked update phase at 2 and 3 threads,
/// and at 2 threads per worker, end to end.
#[test]
fn every_scenario_is_parallelism_invariant_past_one_shard() {
    let registry = Registry::builtin();
    for name in registry.names() {
        engines_agree(Registry::builtin, name, &Case::sized(4_500, 3).on(THREADED));
    }
    assert_ran_past_one_shard(registry.names());
}

/// Worker count is unobservable for the two registry-era scenarios whose
/// goldens are pinned below: the matrix's 1-, 2-, 3- and 4-worker legs.
#[test]
fn worker_count_is_unobservable_for_new_scenarios() {
    for name in ["epidemic", "flock-obstacles"] {
        engines_agree(Registry::builtin, name, &conformance());
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
    for name in ["traffic", "predator"] {
        let spawned = spawned(Registry::builtin, name, &conformance());
        assert!(spawned, "scenario `{name}` conformance run spawned nothing — the spawn path is untested");
    }
}

// ---- golden conformance checksums for the registry-era scenarios ---------
//
// The absolute bits of the two new workloads, pinned across builds at the
// same strength as tests/golden_tick.rs pins the paper's three: if any
// future change perturbs a single bit of either trajectory, on any engine
// leg, these move.

const GOLDEN_FLOCK_OBSTACLES: u64 = 0x8207_542D_825E_ECCA;

#[test]
fn golden_epidemic_conformance_20_ticks() {
    let got = engines_agree(Registry::builtin, "epidemic", &conformance());
    assert_eq!(
        got, GOLDEN_EPIDEMIC,
        "epidemic golden world drifted (got {got:#018X}); see the module docs before touching this constant"
    );
}

#[test]
fn golden_flock_obstacles_conformance_20_ticks() {
    let got = engines_agree(Registry::builtin, "flock-obstacles", &conformance());
    assert_eq!(
        got, GOLDEN_FLOCK_OBSTACLES,
        "flock-obstacles golden world drifted (got {got:#018X}); see the module docs before touching this constant"
    );
}
