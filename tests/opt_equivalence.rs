//! Optimizer equivalence suite: for every registered BRASIL scenario the
//! optimized plan must be **bit-identical** to the unoptimized one — the
//! conformance bar of the optimizer (`brasil::optimize`). Three angles:
//!
//! * Proptests (named `opt_*` so CI can select them) drive each
//!   `brasil-*` scenario against its [`brasil_unoptimized`] twin through
//!   `brace_core::Simulation` over random populations, seeds, index
//!   kinds and tick counts. This pins the whole pipeline — const-fold,
//!   dead-code and visibility-predicate pushdown (the shrunken probe rect
//!   must not drop a contributing candidate) — and that the optimized and
//!   the unoptimized plan lower to register programs that agree.
//! * The register program against the tree-walking specification, on the
//!   optimized car and inverted predator scripts (the root property
//!   `brasil_vm_equals_reference` in `tests/properties.rs` draws every
//!   shipped script, optimized or not, and the hand-written edge scripts).
//! * A backend sweep: the optimized and the unoptimized plan each through
//!   every leg of the engine matrix (`tests/common`) on the registry
//!   conformance configurations — every checksum must agree (the optimizer
//!   must be unobservable to the distributed runtime too).
//!
//! The predator twin is the non-local script as written and the
//! registered form its inverted plan, so Figure 5's No-Opt and Opt programs
//! are held to the same bit-identical bar: effect inversion is exact.

mod common;

use brace::core::{Agent, Behavior, Simulation};
use brace::scenario::{brasil_unoptimized, Registry};
use brace::spatial::IndexKind;
use brace_common::{AgentId, DetRng, Vec2};
use common::{any_index_kind, engines_agree, worlds_bit_identical, Case};
use proptest::prelude::*;
use std::sync::Arc;

/// Every registered BRASIL scenario (asserted against the registry so a
/// new `brasil-*` workload cannot silently dodge this suite).
const BRASIL_SCENARIOS: [&str; 3] = ["brasil-fish", "brasil-predator", "brasil-car"];

fn any_brasil_scenario() -> impl Strategy<Value = &'static str> {
    prop::sample::select(BRASIL_SCENARIOS.to_vec())
}

/// The unoptimized twins under their registered names.
fn unoptimized() -> Registry {
    let mut registry = Registry::empty();
    for name in BRASIL_SCENARIOS {
        registry.register(brasil_unoptimized(name).unwrap()).unwrap();
    }
    registry
}

/// Build `name` from `registry` (the builtin one, optimized, or the
/// unoptimized twins), run it on the single-node engine, and return the
/// final world and the neighbours the query phase visited.
fn run_world(
    registry: fn() -> Registry,
    name: &str,
    n: usize,
    seed: u64,
    kind: IndexKind,
    ticks: u64,
) -> (Vec<Agent>, u64) {
    let setup = registry().get(name).expect("registered scenario").build(Some(n), seed).unwrap();
    let mut sim = Simulation::builder(setup.behavior)
        .agents(setup.population)
        .index(kind)
        .seed(seed)
        .parallelism(1)
        .build()
        .unwrap();
    let visits = (0..ticks).map(|_| sim.step().neighbor_visits).sum();
    (sim.agents(), visits)
}

#[test]
fn opt_suite_covers_every_registered_brasil_scenario() {
    let registry = Registry::builtin();
    let brasil: Vec<&str> = registry.names().into_iter().filter(|n| n.starts_with("brasil-")).collect();
    assert_eq!(brasil, BRASIL_SCENARIOS.to_vec(), "update BRASIL_SCENARIOS to match the registry");
    for name in BRASIL_SCENARIOS {
        assert!(brasil_unoptimized(name).is_some(), "`{name}` has no unoptimized twin");
        // Twins share the registered name so populations/configs line up.
        assert_eq!(brasil_unoptimized(name).unwrap().name(), name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole conformance bar: for every BRASIL scenario, random
    /// population size / seed / index kind / horizon, the optimized plan
    /// equals the unoptimized one bit for bit (probe-rect pushdown live).
    /// Pushdown never widens a probe rect, and the car script's guard
    /// (leaders only) narrows it.
    #[test]
    fn opt_pipeline_is_bit_identical_to_unoptimized(
        name in any_brasil_scenario(),
        n in 20usize..120,
        seed in 0u64..10_000,
        kind in any_index_kind(),
        ticks in 1u64..4,
    ) {
        let run = |registry| run_world(registry, name, n, seed, kind, ticks);
        let ((opt, opt_visits), (unopt, unopt_visits)) = (run(Registry::builtin), run(unoptimized));
        worlds_bit_identical(&opt, &unopt).map_err(|e| format!("{name} opt vs no-opt: {e}"))?;
        prop_assert!(opt_visits <= unopt_visits, "{name}: {opt_visits} visits optimized, {unopt_visits} not");
        if name == "brasil-car" {
            prop_assert!(opt_visits < unopt_visits, "car pushdown removed no candidates: {opt_visits} visits");
        }
    }

    /// The car and the (inverted) predator script — a pushed-down probe
    /// rect, an `if` in the body, state columns read off the candidate —
    /// through the register program against the tree-walking specification:
    /// bit-identical worlds.
    #[test]
    fn opt_vm_matches_reference_interpreter(
        which in prop::sample::select(vec!["car", "predator"]),
        n in 10usize..80,
        seed in 0u64..10_000,
        kind in any_index_kind(),
        ticks in 1u64..4,
    ) {
        let behavior = match which {
            "car" => brace::models::scripts::car_following_opt(true).unwrap(),
            _ => brace::models::scripts::predator(true).unwrap(),
        };
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let pos = Vec2::new(rng.range(-10.0, 10.0), rng.range(-10.0, 10.0));
                let mut a = Agent::new(AgentId::new(i as u64), pos, behavior.schema());
                a.state[0] = rng.range(0.5, 1.5);
                a
            })
            .collect();
        let run = |b: Arc<dyn Behavior>| {
            let mut sim = Simulation::builder(b).agents(agents.clone()).index(kind).seed(seed).parallelism(1).build().unwrap();
            sim.run(ticks);
            sim.agents()
        };
        let (spec, vm) = (run(Arc::new(behavior.reference())), run(Arc::new(behavior)));
        worlds_bit_identical(&vm, &spec).map_err(|e| format!("{which} register program vs reference: {e}"))?;
    }
}

/// The optimizer is unobservable to every engine: on each BRASIL
/// scenario's conformance configuration, the optimized and the
/// unoptimized plan agree on every leg of the engine matrix, and the two
/// agree with each other.
#[test]
fn opt_pipeline_is_unobservable_across_backends() {
    let case = Case::conformance(12);
    for name in BRASIL_SCENARIOS {
        let optimized = engines_agree(Registry::builtin, name, &case);
        let unoptimized = engines_agree(unoptimized, name, &case);
        assert_eq!(
            optimized, unoptimized,
            "scenario `{name}`: the unoptimized plan diverged from the optimized one \
             ({optimized:#018X} vs {unoptimized:#018X})"
        );
    }
}
