//! Effect inversion, end to end: compile the non-local predator script,
//! invert it automatically (Theorems 2/3), and show that the inverted
//! program computes the same simulation with one fewer communication round.
//!
//! ```sh
//! cargo run --release --example predator_inversion
//! ```
//!
//! Both forms run on a 4-worker cluster through the backend-erased
//! [`Runner`] — the compiled class is just a [`Scenario`] like any other,
//! so the comparison reads the communication schedule off
//! [`SimHandle::cluster_stats`] instead of hand-wiring `ClusterSim`.

use brace::common::{AgentId, DetRng, Result, Vec2};
use brace::core::{Agent, Behavior};
use brace::prelude::*;
use brace::scenario::ScenarioSetup;
use brasil::{invert_effects, CompiledClass, Script};
use std::sync::Arc;

/// A compiled BRASIL class as a scenario (sized square, random sizes).
struct CompiledPredator {
    name: &'static str,
    class: CompiledClass,
}

impl Scenario for CompiledPredator {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        "compiled Figure 5 predator script"
    }
    fn default_population(&self) -> usize {
        1_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = brasil::BrasilBehavior::new(self.class.clone());
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(seed);
        let population: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a =
                    Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 60.0), rng.range(0.0, 60.0)), &schema);
                a.state[0] = rng.range(0.5, 1.5); // size
                a
            })
            .collect();
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: 5, space_x: (0.0, 60.0) })
    }
}

fn main() {
    let source = brace::models::scripts::PREDATOR;
    println!("--- the script (biting pushes `hurt` onto the victim: NON-LOCAL) ---");
    println!("{}", source.trim());

    let script = Script::compile(source).expect("compiles");
    let class = script.classes()[0].clone();
    println!("\nschema says non-local effects: {}", class.schema().has_nonlocal_effects());

    let inverted = brasil::optimize(invert_effects(class.clone()).expect("invertible"));
    println!("after inversion, non-local effects: {}", inverted.schema().has_nonlocal_effects());
    println!("\n--- compiled plan, before inversion ---\n{}", brasil::pretty::class(&class));
    println!(
        "--- compiled plan, after inversion (roles of `self` and `p` swapped) ---\n{}",
        brasil::pretty::class(&inverted)
    );

    // Run both forms on the cluster through the one facade and compare.
    let run = |scenario: &CompiledPredator| -> Vec<Agent> {
        let mut sim = Runner::new(scenario).seed(5).backend(Backend::cluster(4)).launch().expect("cluster");
        sim.run(20).expect("runs");
        let stats = sim.cluster_stats().expect("cluster backend");
        println!(
            "{:<10} communication rounds/tick: {}   effect bytes: {:>8}   replica bytes: {:>9}",
            scenario.name(),
            stats.comm_rounds_per_tick,
            stats.net.effects.bytes,
            stats.net.replica_bytes()
        );
        sim.world().expect("collect")
    };

    println!("\n--- distributed execution, 4 workers, 20 ticks ---");
    let world_nl = run(&CompiledPredator { name: "non-local", class });
    let world_inv = run(&CompiledPredator { name: "inverted", class: inverted });

    let mut max_rel = 0.0f64;
    for (a, b) in world_nl.iter().zip(&world_inv) {
        assert_eq!(a.id, b.id);
        for (x, y) in a.state.iter().zip(&b.state) {
            let scale = x.abs().max(y.abs()).max(1.0);
            max_rel = max_rel.max((x - y).abs() / scale);
        }
    }
    println!(
        "\nworlds agree: {} agents, max relative state difference {max_rel:.2e} \
         (float aggregation order only)",
        world_nl.len()
    );
}
