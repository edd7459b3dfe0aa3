//! The evaluation models written in BRASIL.
//!
//! [`FIGURE2_FISH`] is the paper's Figure 2 verbatim (modulo surface-syntax
//! normalization); it parses, type-checks and inverts, demonstrating the
//! compiler pipeline on the paper's own example. [`FISH_SCHOOL`] is a
//! numerically hardened variant actually used in simulations (the original
//! divides by zero for coincident fish — NIL semantics skip those
//! assignments, but a directional force makes better physics).
//! [`PREDATOR`] is the Figure 5 workload: biting as a **non-local** effect
//! assignment, which `brasil::invert_effects` rewrites into the local form
//! automatically — the optimization whose payoff Figure 5 measures.

use brace_common::Result;
use brasil::{BrasilBehavior, Script};

/// The paper's Figure 2, normalized to this implementation's surface
/// syntax (update rule and `#range` tag in one declaration; explicit
/// divide-by-zero guard is *not* added — NIL semantics handle it).
pub const FIGURE2_FISH: &str = r#"
class Fish {
    // The fish location
    public state float x : x + vx #range[-1, 1];
    public state float y : y + vy #range[-1, 1];
    // The latest fish velocity
    public state float vx : vx + rand() + avoidx / count * vx;
    public state float vy : vy + rand() + avoidy / count * vy;
    // Used to update our velocity
    private effect float avoidx : sum;
    private effect float avoidy : sum;
    private effect int count : sum;
    /** The query-phase for this fish. */
    public void run() {
        // Use "forces" to repel fish too close
        foreach (Fish p : Extent<Fish>) {
            p.avoidx <- 1 / abs(x - p.x);
            p.avoidy <- 1 / abs(y - p.y);
            p.count <- 1;
        }
    }
}
"#;

/// Runnable fish-school script: directional repulsion, bounded speed,
/// local effects only.
pub const FISH_SCHOOL: &str = r#"
class Fish {
    public state float x : x + vx #range[-1, 1];
    public state float y : y + vy #range[-1, 1];
    public state float vx : clamp(vx * 0.9 + (rand() - 0.5) * 0.1 + avoidx / max(count, 1), 0 - 1, 1);
    public state float vy : clamp(vy * 0.9 + (rand() - 0.5) * 0.1 + avoidy / max(count, 1), 0 - 1, 1);
    private effect float avoidx : sum;
    private effect float avoidy : sum;
    private effect int count : sum;
    public void run() {
        foreach (Fish p : Extent<Fish>) {
            avoidx <- (x - p.x) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
            avoidy <- (y - p.y) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
            count <- 1;
        }
    }
}
"#;

/// The predator workload of Figure 5: biting pushes a `hurt` effect onto
/// the victim — a non-local assignment forcing the two-reduce-pass
/// schedule until effect inversion eliminates it.
pub const PREDATOR: &str = r#"
class Fish {
    public state float x : x + (rand() - 0.5) #range[-2, 2];
    public state float y : y + (rand() - 0.5) #range[-2, 2];
    public state float size : size + 0.01;
    public state float pain : pain * 0.5 + hurt;
    private effect float hurt : sum;
    private effect float crowd : sum;
    public void run() {
        foreach (Fish p : Extent<Fish>) {
            crowd <- 1;
            if (size > p.size + 0.3) {
                p.hurt <- size - p.size;
            }
        }
    }
}
"#;

/// A simplified car-following-only traffic script (the full MITSIM lane
/// model needs argmin-style neighbor selection, outside the BRASIL
/// aggregate subset — see DESIGN.md); used by the quickstart example.
pub const CAR_FOLLOWING: &str = r#"
class Car {
    public state float x : x + vel #range[-40, 40];
    public state float vel : clamp(vel + 0.25 * (28 - vel) - press / max(ahead, 1), 0, 36);
    private effect float press : sum;
    private effect float ahead : sum;
    public void run() {
        foreach (Car p : Extent<Car>) {
            if (p.x > x) {
                // Pressure from each leader, strongest when close.
                press <- clamp(40 - (p.x - x), 0, 40) * 0.2;
                ahead <- 1;
            }
        }
    }
}
"#;

/// Compile the runnable fish-school behavior.
pub fn fish_school() -> Result<BrasilBehavior> {
    fish_school_opt(true)
}

/// Fish school with the optimizer pipeline on or off (A/B measurement).
pub fn fish_school_opt(optimize: bool) -> Result<BrasilBehavior> {
    let script = if optimize { Script::compile(FISH_SCHOOL)? } else { Script::compile_unoptimized(FISH_SCHOOL)? };
    Ok(script.behavior("Fish").expect("class Fish exists"))
}

/// Compile the predator behavior: `inverted`, the registered plan (the
/// optimizer with effect inversion, Theorem 2/3, turning the non-local
/// script into a local one); otherwise the script as written, non-local
/// and unoptimized. The two leave the same world bit for bit.
pub fn predator(inverted: bool) -> Result<BrasilBehavior> {
    let class = Script::compile_unoptimized(PREDATOR)?.classes()[0].clone();
    Ok(BrasilBehavior::new(if inverted { brasil::optimize::with_inversion(class).0 } else { class }))
}

/// Compile the car-following example.
pub fn car_following() -> Result<BrasilBehavior> {
    car_following_opt(true)
}

/// Car following with the optimizer pipeline on or off (A/B measurement).
pub fn car_following_opt(optimize: bool) -> Result<BrasilBehavior> {
    let script = if optimize { Script::compile(CAR_FOLLOWING)? } else { Script::compile_unoptimized(CAR_FOLLOWING)? };
    Ok(script.behavior("Car").expect("class Car exists"))
}

/// Source and inversion setting for a registry scenario name — the lookup
/// `brace compile` uses to pretty-print a scenario's plan.
pub fn scenario_script(name: &str) -> Option<(&'static str, bool)> {
    match name {
        "brasil-fish" => Some((FISH_SCHOOL, false)),
        "brasil-predator" => Some((PREDATOR, true)),
        "brasil-car" => Some((CAR_FOLLOWING, false)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_common::{AgentId, DetRng, Vec2};
    use brace_core::{Agent, AgentSchema, Behavior, Simulation};
    use brasil::invert_effects;

    /// The effect fields a schema declares remote, in slot order.
    fn remote_fields(schema: &AgentSchema) -> Vec<&str> {
        schema.effect_defs().iter().filter(|e| e.remote).map(|e| e.name.as_str()).collect()
    }

    #[test]
    fn figure2_parses_checks_and_inverts() {
        let script = Script::compile(FIGURE2_FISH).unwrap();
        let class = script.classes()[0].clone();
        assert_eq!(remote_fields(class.schema()), ["avoidx", "avoidy", "count"]);
        assert_eq!(class.schema().visibility(), 1.0);
        let inverted = invert_effects(class).unwrap();
        assert!(!inverted.schema().has_nonlocal_effects());
    }

    #[test]
    fn fish_school_script_runs() {
        let behavior = fish_school().unwrap();
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(1);
        let agents: Vec<Agent> = (0..80)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 8.0), rng.range(0.0, 8.0)), &schema))
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(2).build().unwrap();
        sim.run(20);
        assert_eq!(sim.agents().len(), 80);
        for a in sim.agents() {
            assert!(!a.pos.is_nan());
            assert!(a.state[0].abs() <= 1.0 + 1e-9, "vx bounded");
        }
        // Repulsion must spread the school.
        let spread: f64 = sim.agents().iter().map(|a| a.pos.norm()).fold(0.0, f64::max);
        assert!(spread > 6.0);
    }

    #[test]
    fn predator_nonlocal_and_inverted_agree() {
        let run = |inverted: bool| {
            let behavior = predator(inverted).unwrap();
            let schema = behavior.schema().clone();
            let mut rng = DetRng::seed_from_u64(7);
            let agents: Vec<Agent> = (0..120)
                .map(|i| {
                    let mut a =
                        Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 12.0), rng.range(0.0, 12.0)), &schema);
                    a.state[0] = rng.range(0.5, 1.5); // size
                    a
                })
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(11).build().unwrap();
            sim.run(8);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            sim.agents().iter().map(|a| (a.id, bits(&[a.pos.x, a.pos.y]), bits(&a.state))).collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn predator_declares_exactly_hurt_remote() {
        assert_eq!(remote_fields(predator(false).unwrap().schema()), ["hurt"]);
        assert!(remote_fields(predator(true).unwrap().schema()).is_empty(), "the inverted form writes nobody else");
    }

    /// The production plans' register programs, by op count (agent level,
    /// of which hoisted, per chunk, update) and by agents per update pass: a
    /// pass edit that makes one of them bigger, or that puts a guard in front
    /// of an update's draw (one agent per pass), fails here.
    #[test]
    fn production_register_programs_keep_their_op_counts() {
        let ops = |behavior: BrasilBehavior| {
            let s = brasil::vm::lower(behavior.class()).summary();
            (s.agent_ops, s.hoisted_ops, s.candidate_ops, s.update_ops, s.update_lanes)
        };
        let lanes = brasil::vm::UPDATE_LANES;
        assert!(lanes > 1);
        assert_eq!(ops(fish_school().unwrap()), (2, 2, 8, 26, lanes));
        assert_eq!(ops(car_following().unwrap()), (1, 1, 5, 12, lanes));
        assert_eq!(ops(predator(true).unwrap()), (2, 2, 2, 14, lanes));
    }

    /// The shipped scenarios' production plans run their queries in
    /// columns, the agent level included: a lowering change that sends one
    /// back to the member-by-member walk fails here.
    #[test]
    fn production_queries_run_in_columns() {
        for (name, behavior) in
            [("brasil-fish", fish_school()), ("brasil-car", car_following()), ("brasil-predator", predator(true))]
        {
            let s = brasil::vm::lower(behavior.unwrap().class()).summary();
            assert!(s.columns, "{name}: {s:?}");
        }
    }

    #[test]
    fn car_following_keeps_order_and_speed() {
        let behavior = car_following().unwrap();
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> = (0..30)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64 * 30.0, 0.0), &schema);
                a.state[0] = 20.0;
                a
            })
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(3).build().unwrap();
        sim.run(40);
        for a in sim.agents() {
            let v = a.state[0];
            assert!((0.0..=36.0).contains(&v), "vel {v}");
        }
    }
}
