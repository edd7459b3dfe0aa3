//! The load-bearing correctness claim of the whole system: running a
//! behavioral simulation on the distributed MapReduce runtime produces the
//! same world as running it on a single node — for any worker count, for
//! local-effect and non-local-effect models, with and without the load
//! balancer moving partition boundaries mid-run.
//!
//! (The mapreduce crate asserts this for synthetic behaviors; here it is
//! asserted end-to-end for the paper's real models and compiled BRASIL
//! scripts.)

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentSchema, Behavior, Combinator, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, LoadBalancer};
use brace_models::scripts;
use brace_models::{FishBehavior, FishParams, PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams};
use proptest::prelude::*;
use std::sync::Arc;

fn single_node<B: Behavior>(behavior: B, agents: Vec<Agent>, ticks: u64, seed: u64) -> Vec<Agent> {
    let mut sim = Simulation::builder(behavior).agents(agents).seed(seed).build().unwrap();
    sim.run(ticks);
    let mut out = sim.agents().to_vec();
    out.sort_by_key(|a| a.id);
    out
}

/// The first agent whose record differs between two id-sorted worlds.
fn first_difference(a: &[Agent], b: &[Agent]) -> String {
    match a.iter().zip(b).find(|(x, y)| x != y) {
        Some((x, y)) => format!("first differing agent {}: {x:?} vs {y:?}", x.id),
        None => format!("populations of {} and {} agents", a.len(), b.len()),
    }
}

fn cluster(
    behavior: Arc<dyn Behavior>,
    agents: Vec<Agent>,
    ticks: u64,
    seed: u64,
    workers: usize,
    space_x: (f64, f64),
    lb: bool,
) -> Vec<Agent> {
    let cfg = ClusterConfig {
        workers,
        epoch_len: 5,
        seed,
        space_x,
        load_balance: lb,
        balancer: LoadBalancer { imbalance_threshold: 1.1, migration_cost_ticks: 0.5, epoch_len: 5 },
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(behavior, agents, cfg).unwrap();
    sim.run_ticks(ticks).unwrap();
    sim.collect_agents().unwrap()
}

#[test]
fn fish_school_cluster_equals_single_node() {
    let params = FishParams { school_radius: 15.0, ..FishParams::default() };
    let make = || FishBehavior::new(params.clone());
    let pop = make().population(200, 31);
    let reference = single_node(make(), pop.clone(), 15, 77);
    for workers in [1, 2, 3, 4] {
        let got = cluster(Arc::new(make()), pop.clone(), 15, 77, workers, (-15.0, 15.0), false);
        assert_eq!(reference, got, "fish x{workers}");
    }
}

#[test]
fn traffic_cluster_equals_single_node() {
    let params = TrafficParams { segment: 4000.0, density: 0.02, ..TrafficParams::default() };
    let make = || TrafficBehavior::new(params.clone());
    let pop: Vec<Agent> = make().population(5).into_iter().filter(|a| a.pos.x < 2000.0).collect();
    let reference = single_node(make(), pop.clone(), 20, 13);
    for workers in [1, 2, 4] {
        let got = cluster(Arc::new(make()), pop.clone(), 20, 13, workers, (0.0, 4000.0), false);
        assert_eq!(reference, got, "traffic x{workers}");
    }
}

#[test]
fn predator_nonlocal_cluster_equals_single_node() {
    // The map-reduce-reduce path: non-local hurt effects cross partitions.
    let params = PredatorParams { spawn_probability: 0.0, nonlocal: true, ..Default::default() };
    let make = || PredatorBehavior::new(params.clone());
    let pop = make().population(150, 20.0, 3);
    let reference = single_node(make(), pop.clone(), 10, 5);
    for workers in [2, 3] {
        let got = cluster(Arc::new(make()), pop.clone(), 10, 5, workers, (0.0, 20.0), false);
        assert_eq!(reference, got, "predator x{workers}");
    }
}

#[test]
fn brasil_script_cluster_equals_single_node() {
    // Compiled BRASIL runs through both engines. This script is not
    // inverted: its non-local effects are float sums, which every engine
    // folds once, in source-id order, at the target's owner.
    let make = || scripts::predator(false).unwrap();
    let schema = make().schema().clone();
    let mut rng = DetRng::seed_from_u64(21);
    let pop: Vec<Agent> = (0..150)
        .map(|i| {
            let mut a = Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 18.0), rng.range(0.0, 18.0)), &schema);
            a.state[0] = rng.range(0.5, 1.5);
            a
        })
        .collect();
    let reference = single_node(make(), pop.clone(), 10, 55);
    for workers in [2, 3, 4] {
        let got = cluster(Arc::new(make()), pop.clone(), 10, 55, workers, (0.0, 18.0), false);
        assert_eq!(reference, got, "brasil predator x{workers}");
    }
}

#[test]
fn load_balancing_does_not_change_results() {
    // Moving partition boundaries mid-run must be invisible to the agents.
    let params =
        FishParams { informed_a: 1.0, informed_b: 0.0, omega: 2.0, school_radius: 12.0, ..FishParams::default() };
    let make = || FishBehavior::new(params.clone());
    let pop = make().population(150, 41);
    let without = cluster(Arc::new(make()), pop.clone(), 30, 9, 3, (-12.0, 12.0), false);
    let with = cluster(Arc::new(make()), pop, 30, 9, 3, (-12.0, 12.0), true);
    assert_eq!(without, with, "fish LB vs no-LB");
}

// ---- delta-distributed cluster ≡ single node -------------------------------
//
// The pool-resident worker ships persisting replicas as masked delta
// frames against per-peer sessions, and the writes its agents make to
// replicas as effect writes to their owners. The cluster must be
// **bit-identical** to the single-node engine in every observable way,
// under the nastiest dynamics we can generate: float-valued effect sums
// (order-sensitive in the last bit, so any replica staleness or ordering
// slip shows) — local ones, and non-local ones that a field also receives
// locally —, agents migrating across partition boundaries, spawn/kill
// churn, and the load balancer repartitioning mid-run. 1–4 workers.

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

    fn population(&self, n: usize, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let mut a = Agent::new(
                    AgentId::new(i as u64),
                    Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 12.0)),
                    &self.schema,
                );
                a.state[0] = rng.range(0.5, 2.0);
                a.state[1] = rng.range(-1.0, 1.0);
                a
            })
            .collect()
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

fn run_mode(storm: &ChurnStorm, pop: &[Agent], seed: u64, workers: usize, epochs: u64, lb: bool) -> Vec<Agent> {
    let cfg = ClusterConfig {
        workers,
        epoch_len: 5,
        seed,
        space_x: (0.0, 60.0),
        load_balance: lb,
        balancer: LoadBalancer { imbalance_threshold: 1.1, migration_cost_ticks: 0.5, epoch_len: 5 },
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(Arc::new(storm.clone()), pop.to_vec(), cfg).unwrap();
    sim.run_epochs(epochs).unwrap();
    sim.collect_agents().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The delta-distributed cluster is bit-identical to the single-node
    /// engine — under churn (spawn/kill), migration, repartitioning (load
    /// balancer on/off) and 1–4 workers, with local float sums or with
    /// non-local ones crossing partitions. This is the placement-independence
    /// guarantee of id-canonical neighbor order, globally ordered spawn ids
    /// and one fold of every non-local write in source-id order. Full
    /// `Agent` records — positions, states and effects must agree to the
    /// last bit; a failure names the draw and the first differing agent.
    #[test]
    fn delta_cluster_equals_single_node_bitwise(
        seed in 0u64..1_000,
        workers in 1usize..5,
        n in 30usize..90,
        epochs in 2u64..4,
        lb in any::<bool>(),
        churn in any::<bool>(),
        nonlocal in any::<bool>(),
    ) {
        let storm = ChurnStorm::new(churn, nonlocal);
        let pop = storm.population(n, seed ^ 0x3C3C);
        let single = single_node(storm.clone(), pop.clone(), epochs * 5, seed);
        let cluster = run_mode(&storm, &pop, seed, workers, epochs, lb);
        prop_assert!(
            single == cluster,
            "seed {seed}, {workers} workers, n {n}, {epochs} epochs, lb {lb}, churn {churn}, nonlocal {nonlocal}: {}",
            first_difference(&single, &cluster)
        );
    }
}

#[test]
fn predator_spawning_cluster_equals_single_node() {
    // Spawn ids are sequenced globally by `(parent id, ordinal)`, and an
    // agent's RNG stream is keyed by its id, so spawning children behave
    // exactly as on the single node: the worlds agree bit for bit.
    let params = PredatorParams { nonlocal: true, ..Default::default() };
    let make = || PredatorBehavior::new(params.clone());
    let pop = make().population(200, 22.0, 8);
    let reference = single_node(make(), pop.clone(), 10, 15);
    let got = cluster(Arc::new(make()), pop, 10, 15, 3, (0.0, 22.0), false);
    assert!(got.iter().any(|a| a.id.raw() >= 200), "spawns happened");
    assert_eq!(reference, got, "spawning predator x3");
}
