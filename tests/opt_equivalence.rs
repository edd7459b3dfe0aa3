//! Optimizer equivalence suite: for every registered BRASIL scenario the
//! optimized plan must be **bit-identical** to the unoptimized one — the
//! conformance bar of the pass pipeline (`brasil::optimize`). Three angles:
//!
//! * Proptests (named `opt_*` so CI can select them) drive each
//!   `brasil-*` scenario against its [`brasil_unoptimized`] twin through
//!   `brace_core::Simulation` over random populations, seeds, index
//!   kinds and tick counts. This pins the whole pipeline — const-fold,
//!   dead-code and visibility-predicate pushdown (the shrunken probe rect
//!   must not drop a contributing candidate) — and that the optimized and
//!   the unoptimized plan lower to register programs that agree.
//! * A specification test runs the car and the (inverted) predator script
//!   through the register program and through the tree-walking reference
//!   (`BrasilBehavior::reference`) — the evaluator is one, so what used to
//!   be "lane kernel ≡ interpreter under forced engagement" is now
//!   "evaluator ≡ specification"; the root property
//!   `brasil_vm_equals_reference` (`tests/properties.rs`) widens it to every
//!   shipped script and the hand-written edge scripts.
//! * A backend sweep: single node vs a 2-worker cluster × optimized vs
//!   unoptimized on the registry conformance configurations — all four
//!   checksums must agree (the optimizer must be unobservable to the
//!   distributed runtime too).
//!
//! The predator twin shares effect inversion with the registered form
//! (inversion is only ~1e-9-equivalent, so both sides of the A/B carry
//! it); everything else the pipeline does is bit-exact by construction.

use brace::core::{Agent, Behavior, Simulation};
use brace::scenario::{brasil_unoptimized, Backend, Registry, Runner, Scenario};
use brace_common::{AgentId, DetRng, Vec2};
use proptest::prelude::*;

/// Every registered BRASIL scenario (asserted against the registry so a
/// new `brasil-*` workload cannot silently dodge this suite).
const BRASIL_SCENARIOS: [&str; 3] = ["brasil-fish", "brasil-predator", "brasil-car"];

fn any_index_kind() -> impl Strategy<Value = brace::spatial::IndexKind> {
    prop::sample::select(vec![
        brace::spatial::IndexKind::Scan,
        brace::spatial::IndexKind::KdTree,
        brace::spatial::IndexKind::Grid,
    ])
}

fn any_brasil_scenario() -> impl Strategy<Value = &'static str> {
    prop::sample::select(BRASIL_SCENARIOS.to_vec())
}

/// Bitwise world equality — stricter than `Agent == Agent` (which treats
/// `0.0 == -0.0`), because the optimizer contract is bit-identity.
fn worlds_bit_identical(label: &str, a: &[Agent], b: &[Agent]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: world sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.id == y.id
            && x.alive == y.alive
            && x.pos.x.to_bits() == y.pos.x.to_bits()
            && x.pos.y.to_bits() == y.pos.y.to_bits()
            && x.state.len() == y.state.len()
            && x.state.iter().zip(&y.state).all(|(u, v)| u.to_bits() == v.to_bits())
            && x.effects.len() == y.effects.len()
            && x.effects.iter().zip(&y.effects).all(|(u, v)| u.to_bits() == v.to_bits());
        if !same {
            return Err(format!("{label}: agent {} diverged:\n  a: {:?}\n  b: {:?}", x.id, x, y));
        }
    }
    Ok(())
}

/// Build `name` (optimized from the registry, or its unoptimized twin),
/// run it on the single-node engine, and return the final world and the
/// neighbours the query phase visited.
fn run_world(
    name: &str,
    optimize: bool,
    n: usize,
    seed: u64,
    kind: brace::spatial::IndexKind,
    ticks: u64,
) -> (Vec<Agent>, u64) {
    let setup = if optimize {
        Registry::builtin().get(name).expect("registered scenario").build(Some(n), seed).unwrap()
    } else {
        brasil_unoptimized(name).expect("unoptimized twin").build(Some(n), seed).unwrap()
    };
    let mut sim = Simulation::builder(setup.behavior)
        .agents(setup.population)
        .index(kind)
        .seed(seed)
        .parallelism(1)
        .build()
        .unwrap();
    sim.run(ticks);
    (sim.agents(), sim.metrics().neighbor_visits)
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
        let run = |optimize| run_world(name, optimize, n, seed, kind, ticks);
        let ((opt, opt_visits), (unopt, unopt_visits)) = (run(true), run(false));
        worlds_bit_identical(&format!("{name} opt vs no-opt"), &opt, &unopt)?;
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
            _ => brace::models::scripts::predator_opt(true, true).unwrap(),
        };
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(
                    AgentId::new(i as u64),
                    Vec2::new(rng.range(-10.0, 10.0), rng.range(-10.0, 10.0)),
                    &schema,
                );
                a.state[0] = rng.range(0.5, 1.5);
                a
            })
            .collect();
        let mut spec = Simulation::builder(behavior.reference())
            .agents(agents.clone())
            .index(kind)
            .seed(seed)
            .parallelism(1)
            .build()
            .unwrap();
        spec.run(ticks);
        let spec = spec.agents();
        let mut sim = Simulation::builder(behavior).agents(agents).index(kind).seed(seed).parallelism(1).build().unwrap();
        sim.run(ticks);
        worlds_bit_identical(&format!("{which} register program vs reference"), &sim.agents(), &spec)?;
    }
}

/// The optimizer is unobservable to the distributed runtime: on each
/// BRASIL scenario's conformance configuration, single node vs a 2-worker
/// cluster × optimized vs unoptimized — all four checksums identical.
#[test]
fn opt_pipeline_is_unobservable_across_backends() {
    const TICKS: u64 = 12;
    const SEED: u64 = 42;
    let registry = Registry::builtin();
    for name in BRASIL_SCENARIOS {
        let optimized = registry.get(name).unwrap();
        let unoptimized = brasil_unoptimized(name).unwrap();
        let run = |scenario: &dyn Scenario, backend: Backend| {
            Runner::new(scenario)
                .seed(SEED)
                .conformance()
                .backend(backend)
                .run(TICKS)
                .unwrap_or_else(|e| panic!("scenario `{name}` failed: {e}"))
                .checksum
        };
        let base = run(optimized, Backend::single());
        for (label, sum) in [
            ("optimized cluster", run(optimized, Backend::cluster(2))),
            ("unoptimized single", run(unoptimized.as_ref(), Backend::single())),
            ("unoptimized cluster", run(unoptimized.as_ref(), Backend::cluster(2))),
        ] {
            assert_eq!(
                base, sum,
                "scenario `{name}`: {label} diverged from optimized single node \
                 ({base:#018X} vs {sum:#018X})"
            );
        }
    }
}
