//! The load-bearing correctness claim of the whole system: running a
//! behavioral simulation on the distributed MapReduce runtime produces the
//! same world as running it on a single node — for any worker count, for
//! local-effect and non-local-effect models, with and without the load
//! balancer moving partition boundaries mid-run. Every pin below is a call
//! into the engine matrix (`tests/common`), so each runs on every leg (the
//! drawn property on one drawn leg a draw).

mod common;

use brace_common::{AgentId, DetRng, FieldId, Rect, Vec2};
use brace_core::behavior::{Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentSchema, Behavior, Combinator};
use brace_models::scripts;
use brace_models::{FishBehavior, FishParams};
use brace_scenario::Registry;
use common::{any_leg, custom_setup, engines_agree, rebalanced, registry_of, spawned, Case, Custom};
use proptest::prelude::*;

/// The setups the builtin registry does not ship, as test-local scenarios.
fn registry() -> Registry {
    registry_of([
        Custom {
            // Compiled BRASIL, not inverted: its non-local effects are float
            // sums, which every engine folds once, in source-id order, at the
            // target's owner.
            name: "brasil-predator-nonlocal",
            agents: 150,
            build: |n, seed| {
                let b = scripts::predator(false).unwrap();
                let mut rng = DetRng::seed_from_u64(seed);
                let pop = (0..n)
                    .map(|i| {
                        let pos = Vec2::new(rng.range(0.0, 18.0), rng.range(0.0, 18.0));
                        let mut a = Agent::new(AgentId::new(i as u64), pos, b.schema());
                        a.state[0] = rng.range(0.5, 1.5);
                        a
                    })
                    .collect();
                custom_setup(b, pop, (0.0, 18.0))
            },
        },
        Custom {
            // Every fish informed and heading one way: the school drifts, so
            // the load balancer has boundaries to move.
            name: "fish-drifting",
            agents: 150,
            build: |n, seed| {
                let mut params = FishParams { school_radius: 12.0, ..FishParams::default() };
                (params.informed_a, params.informed_b, params.omega) = (1.0, 0.0, 2.0);
                let b = FishBehavior::new(params);
                let pop = b.population(n, seed);
                custom_setup(b, pop, (-12.0, 12.0))
            },
        },
        Custom { name: "churn-storm", agents: 60, build: |n, seed| ChurnStorm::new(false, false).setup(n, seed) },
        Custom { name: "churn-storm-churn", agents: 60, build: |n, seed| ChurnStorm::new(true, false).setup(n, seed) },
        Custom {
            name: "churn-storm-nonlocal",
            agents: 60,
            build: |n, seed| ChurnStorm::new(false, true).setup(n, seed),
        },
        Custom { name: "churn-storm-both", agents: 60, build: |n, seed| ChurnStorm::new(true, true).setup(n, seed) },
        Custom { name: "replica-edge", agents: 2, build: |_, _| ChurnStorm::new(false, false).edge_pair(EDGE) },
    ])
}

/// A column boundary where `(EDGE − 4) + 4` rounds below `EDGE` (4 is the
/// ChurnStorm visibility): `EDGE − 4` is a few ulps short of the band that
/// sees `EDGE`, whose edge `Rect::centered` searches for.
const EDGE: f64 = -62.23366320288317;
const _: () = assert!((EDGE - 4.0) + 4.0 < EDGE);

#[test]
fn fish_school_cluster_equals_single_node() {
    engines_agree(Registry::builtin, "fish", &Case::sized(200, 15).seed(77));
}

#[test]
fn traffic_cluster_equals_single_node() {
    engines_agree(Registry::builtin, "traffic", &Case::sized(240, 20).seed(13));
}

/// The map-reduce-reduce path: non-local bites cross partitions.
#[test]
fn predator_nonlocal_cluster_equals_single_node() {
    engines_agree(Registry::builtin, "predator", &Case::sized(150, 10).seed(5));
}

#[test]
fn brasil_script_cluster_equals_single_node() {
    engines_agree(registry, "brasil-predator-nonlocal", &Case::sized(150, 10).seed(55));
}

/// Moving partition boundaries mid-run must be invisible to the agents:
/// the matrix's load-balanced `cluster:4` leg against every other leg,
/// the balancer-off `cluster:2` leg among them — and that leg did move them.
#[test]
fn load_balancing_does_not_change_results() {
    assert!(rebalanced(registry, "fish-drifting", &Case::sized(150, 30).seed(9)), "the balancer never repartitioned");
}

/// A neighbour at exactly the visibility left of a column boundary `b`, the
/// lowest x an agent on `b` sees, where that is not `b − vis`: the two see
/// each other, so the column right of `b` must get its replica.
#[test]
fn a_neighbour_at_exactly_the_visibility_is_replicated() {
    engines_agree(registry, "replica-edge", &Case::sized(2, 5));
}

/// Spawn ids are sequenced globally by `(parent id, ordinal)`, and an
/// agent's RNG stream is keyed by its id, so spawning children behave
/// exactly as on the single node — and this run does spawn.
#[test]
fn predator_spawning_cluster_equals_single_node() {
    assert!(spawned(Registry::builtin, "predator", &Case::sized(200, 10).seed(15)), "no spawns happened");
}

// ---- delta-distributed cluster ≡ single node -------------------------------
//
// Workers ship persisting replicas as masked delta frames and the writes
// their agents make to replicas as effect writes to the owners. Every leg
// must match the single node bit for bit under the nastiest dynamics we can
// generate: order-sensitive float sums, local and non-local, migration,
// spawn/kill churn and mid-run repartitioning.

/// Float-effect model with deterministic churn: agents drift (migration),
/// spawn children on a sparse id×tick schedule and die on another, and
/// aggregate order-sensitive float sums plus a Min — any divergence in
/// replica content, membership or ordering flips bits immediately. The
/// non-local form also pushes a float into each neighbour's `acc` (a
/// `remote` write, folded by the neighbour's owner) on top of its own.
#[derive(Clone)]
struct ChurnStorm {
    schema: AgentSchema,
    churn: bool,
    nonlocal: bool,
}

impl ChurnStorm {
    fn new(churn: bool, nonlocal: bool) -> Self {
        // The non-local form writes `acc` across the pair, so `acc` is
        // remote; `near` stays local-only either way.
        let builder = AgentSchema::builder("ChurnStorm").state("w").state("drift");
        let builder = if nonlocal {
            builder.remote_effect("acc", Combinator::Sum)
        } else {
            builder.effect("acc", Combinator::Sum)
        };
        let schema = builder.effect("near", Combinator::Min).visibility(4.0).reachability(1.5).build().unwrap();
        ChurnStorm { schema, churn, nonlocal }
    }

    /// `n` agents drawn from `seed` over a 60 × 12 strip.
    fn setup(self, n: usize, seed: u64) -> brace_scenario::ScenarioSetup {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x3C3C);
        let pop = (0..n)
            .map(|i| {
                let pos = Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 12.0));
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[0] = rng.range(0.5, 2.0);
                a.state[1] = rng.range(-1.0, 1.0);
                a
            })
            .collect();
        custom_setup(self, pop, (0.0, 60.0))
    }

    /// One agent on the boundary `b` the 2- and 4-worker clusters start
    /// with, and one on the lower edge of what the first sees.
    fn edge_pair(self, b: f64) -> brace_scenario::ScenarioSetup {
        let edge = Rect::centered(Vec2::new(b, 0.0), self.schema.visibility()).lo.x;
        assert_ne!(edge, b - self.schema.visibility(), "the edge is off `b − vis`");
        let pop = [b, edge]
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(x, 0.0), &self.schema);
                a.state[0] = 1.0 + i as f64;
                a
            })
            .collect();
        custom_setup(self, pop, (2.0 * b, 0.0))
    }
}

impl Behavior for ChurnStorm {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }
    fn query(&self, me: brace_core::AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            let d = my_pos.dist_linf(nb.agent.pos());
            // Order-sensitive float sum: weights differ per neighbor.
            eff.local(FieldId::new(0), nb.agent.state(0) / (1.0 + d));
            eff.local(FieldId::new(1), d);
            if self.nonlocal {
                // Into the same field as the local write above, from the
                // other side of the pair: partitions meet in this sum.
                eff.remote(nb.row, FieldId::new(0), me.state(1) * 0.37 / (0.5 + d));
            }
        }
    }
    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let acc = me.effect(FieldId::new(0));
        let near = me.effect(FieldId::new(1));
        // Drift across partitions, modulated by the float aggregates.
        me.pos.x += me.get(FieldId::new(1)) + 0.1 * acc.tanh();
        me.pos.y += ctx.rng.range(-0.3, 0.3);
        if near.is_finite() {
            me.set(FieldId::new(0), me.get(FieldId::new(0)) + near * 1e-3);
        }
        if self.churn {
            let id = me.id.raw();
            if (id.wrapping_mul(31).wrapping_add(ctx.tick)).is_multiple_of(23) {
                ctx.spawn(me.pos + Vec2::new(0.3, -0.2), vec![me.get(FieldId::new(0)) * 0.5, -me.get(FieldId::new(1))]);
            }
            if (id.wrapping_mul(17).wrapping_add(ctx.tick * 7)).is_multiple_of(41) {
                me.alive = false;
            }
        }
    }
}

const CHURN_STORMS: [&str; 4] = ["churn-storm", "churn-storm-churn", "churn-storm-nonlocal", "churn-storm-both"];

/// Each ChurnStorm form at its default draw, on every leg of the matrix.
#[test]
fn churn_storms_agree_on_every_leg() {
    for name in CHURN_STORMS {
        engines_agree(registry, name, &Case::sized(60, 15));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The delta-distributed cluster is bit-identical to the single-node
    /// engine — under churn (spawn/kill), migration and repartitioning,
    /// with local float sums or with non-local ones crossing partitions.
    /// This is the placement-independence guarantee of id-canonical
    /// neighbor order, globally ordered spawn ids and one fold of every
    /// non-local write in source-id order. Each draw runs the baseline and
    /// one drawn leg of the matrix (1 to 4 workers, the balancer off or
    /// moving boundaries, a fault, a resume, …), so the draws spread over
    /// every leg. A failure names the draw and the leg that differs.
    #[test]
    fn delta_cluster_equals_single_node_bitwise(
        seed in 0u64..1_000,
        n in 30usize..90,
        epochs in 2u64..4,
        form in 0usize..4,
        leg in any_leg(),
    ) {
        engines_agree(registry, CHURN_STORMS[form], &Case::sized(n, epochs * 5).seed(seed).on(leg));
    }
}
