//! End-to-end BRASIL pipeline tests: the paper's own script (Figure 2)
//! through lexer → parser → checker → compiler → optimizer → distributed
//! execution, plus the theorems' observable consequences.

use brace_common::{AgentId, DetRng, Vec2};
use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim};
use brace_models::scripts;
use brasil::{invert_effects, Script};
use std::sync::Arc;

#[test]
fn figure2_full_pipeline_to_cluster() {
    // The paper's Figure 2, compiled and executed on the distributed
    // runtime. The raw script divides by zero for coincident fish (NIL
    // semantics skip those assignments), so it runs as written.
    let script = Script::compile(scripts::FIGURE2_FISH).expect("Figure 2 compiles");
    let class = script.classes()[0].clone();
    assert!(class.schema().has_nonlocal_effects(), "Figure 2 assigns effects to p");
    assert_eq!(class.schema().visibility(), 1.0, "#range[-1,1] becomes the visibility bound");

    let behavior = brasil::BrasilBehavior::new(class);
    let schema = behavior.schema().clone();
    let mut rng = DetRng::seed_from_u64(2);
    let agents: Vec<Agent> = (0..120)
        .map(|i| {
            let mut a = Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 10.0), rng.range(0.0, 10.0)), &schema);
            // Start with small random velocities.
            a.state[0] = rng.range(-0.2, 0.2);
            a.state[1] = rng.range(-0.2, 0.2);
            a
        })
        .collect();
    let cfg = ClusterConfig {
        workers: 3,
        epoch_len: 5,
        seed: 2,
        space_x: (0.0, 10.0),
        load_balance: false,
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(Arc::new(behavior), agents, cfg).unwrap();
    sim.run_ticks(10).unwrap();
    let world = sim.collect_agents().unwrap();
    assert_eq!(world.len(), 120);
    for a in &world {
        assert!(!a.pos.is_nan(), "Figure 2 must not NaN the world");
    }
    // Non-local effects crossed the network: the second reduce pass ran.
    assert_eq!(sim.stats().comm_rounds_per_tick, 2);
}

#[test]
fn theorem2_inverted_figure2_is_equivalent_and_single_pass() {
    // Effect inversion on Figure 2 (the paper's §4.2 example): identical
    // simulation, one reduce pass instead of two.
    let compile = |invert: bool| {
        let script = Script::compile(scripts::FIGURE2_FISH).unwrap();
        let class = script.classes()[0].clone();
        let class = if invert { invert_effects(class).unwrap() } else { class };
        brasil::BrasilBehavior::new(class)
    };
    let run = |behavior: brasil::BrasilBehavior| {
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(4);
        let agents: Vec<Agent> = (0..60)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 6.0), rng.range(0.0, 6.0)), &schema))
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(6).build().unwrap();
        sim.step();
        // Bit for bit, even where 1/|x - p.x| sums are huge near coincidence.
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        sim.agents().iter().map(|a| (a.id, bits(&[a.pos.x, a.pos.y]), bits(&a.state))).collect::<Vec<_>>()
    };
    let (original, inverted) = (compile(false), compile(true));
    assert!(original.schema().has_nonlocal_effects() && !inverted.schema().has_nonlocal_effects());
    assert_eq!(run(original), run(inverted));
}

#[test]
fn state_effect_violations_are_compile_errors() {
    // A round-up of programs the checker must reject — each is a way to
    // break the state-effect pattern that would corrupt a parallel run.
    let cases: &[(&str, &str)] = &[
        (
            // Writing a state field in the query phase.
            r#"class A { public state float v : v; public void run() { v <- 1; } }"#,
            "not an effect field",
        ),
        (
            // Reading an effect mid-aggregation.
            r#"class A { private effect float n : sum;
               public void run() { foreach (A p : Extent<A>) { n <- n; } } }"#,
            "inside a foreach",
        ),
        (
            // Peeking at another agent's unaggregated effects.
            r#"class A { private effect float n : sum; private effect float m : sum;
               public void run() { foreach (A p : Extent<A>) { m <- p.n; } } }"#,
            "another agent",
        ),
        (
            // Update rule reaching into the world.
            r#"class A { public state float v : q.v; public void run() {} }"#,
            "cannot access other agents",
        ),
        (
            // Arbitrary looping is not in the language at all.
            r#"class A { public void run() { while (true) {} } }"#,
            "", // parse error, message shape differs
        ),
    ];
    for (src, needle) in cases {
        let err = Script::compile(src).err().unwrap_or_else(|| panic!("must reject: {src}"));
        if !needle.is_empty() {
            assert!(err.to_string().contains(needle), "error for `{src}` was `{err}`, expected to mention `{needle}`");
        }
    }
}

#[test]
fn range_tag_drives_replication_volume() {
    // Doubling the visibility bound must increase replica traffic — the
    // paper's Theorem 3 trade-off (more replicas per round when visibility
    // grows) made measurable.
    let script_with_range = |r: f64| {
        format!(
            r#"class A {{
                public state float x : x + 0.1 #range[-{r}, {r}];
                public state float y : y #range[-{r}, {r}];
                public state float c : n;
                private effect float n : sum;
                public void run() {{ foreach (A p : Extent<A>) {{ n <- 1; }} }}
            }}"#
        )
    };
    let replicas_for = |r: f64| {
        let script = Script::compile(&script_with_range(r)).unwrap();
        let behavior = script.behavior("A").unwrap();
        let schema = behavior.schema().clone();
        assert_eq!(schema.visibility(), r);
        let mut rng = DetRng::seed_from_u64(8);
        let agents: Vec<Agent> = (0..200)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 40.0), rng.range(0.0, 10.0)), &schema))
            .collect();
        let cfg = ClusterConfig {
            workers: 4,
            epoch_len: 5,
            seed: 8,
            space_x: (0.0, 40.0),
            load_balance: false,
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), agents, cfg).unwrap();
        sim.run_ticks(5).unwrap();
        sim.stats().net.replica_bytes()
    };
    let small = replicas_for(1.0);
    let large = replicas_for(4.0);
    assert!(large > small, "4x visibility must ship more replica bytes ({large} <= {small})");
}

#[test]
fn optimizer_output_runs_identically_to_unoptimized() {
    // Safe passes must be semantics-preserving end to end.
    let src = r#"
        class O {
            public state float x : x + vx #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float vx : vx * 0.5 + pull / max(n, 1);
            private effect float pull : sum;
            private effect float n : sum;
            public void run() {
                const float gain = 2 * 3 - 5;
                const float unused = 99;
                foreach (O p : Extent<O>) {
                    if (true) { pull <- (p.x - x) * gain; }
                    if (false) { pull <- 1000; }
                    n <- 1;
                }
            }
        }
    "#;
    let run = |script: Script| {
        let behavior = script.behavior("O").unwrap();
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(9);
        let agents: Vec<Agent> =
            (0..50).map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 5.0), 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(10).build().unwrap();
        sim.run(5);
        sim.agents().iter().map(|a| (a.id, a.pos, a.state.clone())).collect::<Vec<_>>()
    };
    let optimized = run(Script::compile(src).unwrap());
    let unoptimized = run(Script::compile_unoptimized(src).unwrap());
    assert_eq!(optimized, unoptimized);
}
