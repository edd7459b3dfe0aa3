//! The in-tree scenario catalogue.
//!
//! Every workload this repo ships, behind one trait: the paper's evaluation
//! suite (fish / traffic / predator, hand-coded), the three BRASIL scripts
//! (compiled through the `brasil` pipeline — the predator one through
//! automatic effect inversion), and the two registry-era scenarios proving
//! the surface generalizes (an SIR epidemic with a non-local ⊕-effect, and
//! flocking through a static obstacle field).
//!
//! Every scenario's conformance form is the same reduction of its default
//! build ([`conformance_setup`](crate::conformance_setup)), and every one is
//! exactly distributable as built: spawns (traffic's wrapping respawns, the
//! predator's births) take their ids in global `(parent id, ordinal)`
//! order, and non-local float sums (the predator's bites) are folded once,
//! in source-id order, by the target's owner. Every builtin is a
//! bounded-range schema: the executor answers its probes with the sort-merge
//! tile join over the tick's probe order, or, on a run that asks for
//! `IndexKind::Scan`, with the paper's no-index scan — the same bits either
//! way. A setup names no index: that is the run's choice.

use crate::{Scenario, ScenarioSetup};
use brace_common::{AgentId, DetRng, Result, Vec2};
use brace_core::{Agent, AgentSchema, Behavior};
use brace_models::{epidemic, flock_obstacles, predator, scripts};
use brace_models::{
    EpidemicBehavior, EpidemicParams, FishBehavior, FishParams, FlockObstaclesBehavior, FlockObstaclesParams,
    PredatorBehavior, PredatorParams, TrafficBehavior, TrafficParams,
};
use std::sync::Arc;

/// Default ticks-per-epoch for every builtin (divides the conformance
/// horizon and the CI smoke horizon).
const EPOCH_LEN: u64 = 5;

/// All builtin scenarios, in catalogue order.
pub fn all() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(Fish),
        Box::new(Traffic),
        Box::new(Predator),
        Box::new(BrasilFish { optimize: true }),
        Box::new(BrasilPredator { optimize: true }),
        Box::new(BrasilCar { optimize: true }),
        Box::new(Epidemic),
        Box::new(FlockObstacles),
    ]
}

/// An *unregistered* twin of a registered BRASIL scenario with the
/// optimizer pipeline disabled — same name, same population, same index —
/// for A/B conformance (optimized ≡ unoptimized must be bit-identical) and
/// bench speedup rows. The predator twin still inverts (inversion changes
/// float ⊕ order, so both sides of any comparison must share it); only the
/// always-safe passes differ.
pub fn brasil_unoptimized(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        "brasil-fish" => Some(Box::new(BrasilFish { optimize: false })),
        "brasil-predator" => Some(Box::new(BrasilPredator { optimize: false })),
        "brasil-car" => Some(Box::new(BrasilCar { optimize: false })),
        _ => None,
    }
}

fn no_nan(world: &[Agent]) -> Result<()> {
    for a in world {
        if a.pos.is_nan() || a.state.iter().any(|s| s.is_nan()) {
            return Err(brace_common::BraceError::Config(format!("agent {} has NaN state", a.id)));
        }
    }
    Ok(())
}

fn unique_ids(world: &[Agent]) -> Result<()> {
    let mut ids: Vec<u64> = world.iter().map(|a| a.id.raw()).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    if ids.len() != before {
        return Err(brace_common::BraceError::Config("duplicate agent ids".into()));
    }
    Ok(())
}

// ---- the paper's evaluation suite ----------------------------------------

/// Couzin fish school (hand-coded), constant density at every scale.
struct Fish;

impl Fish {
    fn params(n: usize) -> FishParams {
        // Constant density (as in Figure 4): the school radius grows with
        // the population so per-probe neighborhood size stays
        // scale-independent.
        FishParams { school_radius: (n as f64 / std::f64::consts::PI / 0.5).sqrt(), ..FishParams::default() }
    }
}

impl Scenario for Fish {
    fn name(&self) -> &'static str {
        "fish"
    }
    fn description(&self) -> &'static str {
        "Couzin fish school: repulsion/attraction/alignment with informed leaders (local effects)"
    }
    fn default_population(&self) -> usize {
        2_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = FishBehavior::new(Self::params(n));
        let r = behavior.params().school_radius;
        let population = behavior.population(n, seed);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (-r, r) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        for a in world {
            let h = Vec2::new(a.state[0], a.state[1]);
            if (h.norm() - 1.0).abs() > 1e-6 {
                return Err(brace_common::BraceError::Config(format!(
                    "fish {} heading norm {} is not unit",
                    a.id,
                    h.norm()
                )));
            }
        }
        Ok(())
    }
}

/// MITSIM-style traffic (hand-coded), segment length scaled to population.
struct Traffic;

impl Scenario for Traffic {
    fn name(&self) -> &'static str {
        "traffic"
    }
    fn description(&self) -> &'static str {
        "MITSIM-style highway: lane selection, gap acceptance, car following (local effects)"
    }
    fn default_population(&self) -> usize {
        2_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let defaults = TrafficParams::default();
        let n = size.unwrap_or(self.default_population());
        // population = floor(segment × density) × lanes ⇒ pick segment ≈ n.
        let segment = (n as f64 / (defaults.density * defaults.lanes as f64)).max(100.0);
        let behavior = TrafficBehavior::new(TrafficParams { segment, ..defaults });
        let population = behavior.population(seed);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, segment) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        let max = TrafficParams::default().max_speed;
        for a in world {
            let v = a.state[0];
            if !(0.0..=max).contains(&v) {
                return Err(brace_common::BraceError::Config(format!("vehicle {} speed {v} out of [0, {max}]", a.id)));
            }
        }
        Ok(())
    }
}

/// Artificial-society predator simulation (hand-coded, non-local bites).
struct Predator;

impl Predator {
    fn side(n: usize) -> f64 {
        // The paper's 200-fish world is a 30 × 30 square; keep that density.
        (n as f64 / (200.0 / 900.0)).sqrt()
    }
}

impl Scenario for Predator {
    fn name(&self) -> &'static str {
        "predator"
    }
    fn description(&self) -> &'static str {
        "Predator fish: non-local bite effects, spawn/death equilibrium (Figure 5 workload)"
    }
    fn default_population(&self) -> usize {
        1_500
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let side = Self::side(n);
        let behavior = PredatorBehavior::new(PredatorParams::default());
        let population = behavior.population(n, side, seed);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, side) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        unique_ids(world)?;
        for a in world {
            if a.state[predator::state::SIZE as usize] <= 0.0 {
                return Err(brace_common::BraceError::Config(format!("predator {} has non-positive size", a.id)));
            }
        }
        Ok(())
    }
}

// ---- the BRASIL scripts ---------------------------------------------------

/// Deterministic scatter over a density-normalized square (the BRASIL
/// scripts' convention: state fields start at 0 unless set below).
fn brasil_population(schema: &AgentSchema, n: usize, seed: u64, side: f64) -> Vec<Agent> {
    let mut rng = DetRng::seed_from_u64(seed).stream(0xB7A5);
    (0..n)
        .map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, side), rng.range(0.0, side)), schema))
        .collect()
}

/// The runnable BRASIL fish school, compiled end to end.
struct BrasilFish {
    optimize: bool,
}

impl Scenario for BrasilFish {
    fn name(&self) -> &'static str {
        "brasil-fish"
    }
    fn description(&self) -> &'static str {
        "BRASIL fish-school script compiled through the full pipeline (local effects)"
    }
    fn default_population(&self) -> usize {
        500
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = scripts::fish_school_opt(self.optimize)?;
        let side = (n as f64 * 2.0).sqrt().max(1.0);
        let population = brasil_population(behavior.schema(), n, seed, side);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, side) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        for a in world {
            // The script clamps both velocity components to [−1, 1].
            if a.state[0].abs() > 1.0 + 1e-9 || a.state[1].abs() > 1.0 + 1e-9 {
                return Err(brace_common::BraceError::Config(format!("fish {} velocity escaped the clamp", a.id)));
            }
        }
        Ok(())
    }
}

/// The Figure 5 predator script, automatically inverted to local form.
struct BrasilPredator {
    optimize: bool,
}

impl Scenario for BrasilPredator {
    fn name(&self) -> &'static str {
        "brasil-predator"
    }
    fn description(&self) -> &'static str {
        "BRASIL predator script with automatic effect inversion (compiled non-local → local)"
    }
    fn default_population(&self) -> usize {
        500
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        // The inverted (local) form: the pipeline's Theorem 2/3 rewrite
        // (each victim sums its own damages in canonical candidate order).
        let behavior = scripts::predator_opt(true, self.optimize)?;
        let side = (n as f64 * 2.0).sqrt().max(1.0);
        let mut population = brasil_population(behavior.schema(), n, seed, side);
        let mut rng = DetRng::seed_from_u64(seed).stream(0x512E);
        for a in &mut population {
            a.state[0] = rng.range(0.5, 1.5); // size
        }
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, side) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)
    }
}

/// The quickstart car-following script.
struct BrasilCar {
    optimize: bool,
}

impl Scenario for BrasilCar {
    fn name(&self) -> &'static str {
        "brasil-car"
    }
    fn description(&self) -> &'static str {
        "BRASIL car-following script: pressure from leaders on a one-lane road (local effects)"
    }
    fn default_population(&self) -> usize {
        200
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = scripts::car_following_opt(self.optimize)?;
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(seed).stream(0xCA12);
        let population: Vec<Agent> = (0..n)
            .map(|i| {
                let x = i as f64 * 30.0 + rng.range(0.0, 10.0);
                let mut a = Agent::new(AgentId::new(i as u64), Vec2::new(x, 0.0), &schema);
                a.state[0] = rng.range(15.0, 25.0); // vel
                a
            })
            .collect();
        let extent = n as f64 * 30.0 + 10.0;
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, extent) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        for a in world {
            if !(0.0..=36.0).contains(&a.state[0]) {
                return Err(brace_common::BraceError::Config(format!("car {} speed escaped the clamp", a.id)));
            }
        }
        Ok(())
    }
}

// ---- registry-era scenarios ----------------------------------------------

/// SIR epidemic with infection as a non-local, exactly-associative ⊕.
struct Epidemic;

impl Scenario for Epidemic {
    fn name(&self) -> &'static str {
        "epidemic"
    }
    fn description(&self) -> &'static str {
        "SIR epidemic on a plane: infection as a non-local integer ⊕-effect (exactly distributable)"
    }
    fn default_population(&self) -> usize {
        2_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = EpidemicBehavior::new(EpidemicParams::default());
        let side = behavior.side(n);
        let population = behavior.population(n, seed);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, side) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        let params = EpidemicParams::default();
        let mut touched = 0usize;
        for a in world {
            let s = a.state[epidemic::state::STATUS as usize];
            if s != epidemic::status::SUSCEPTIBLE
                && s != epidemic::status::INFECTIOUS
                && s != epidemic::status::RECOVERED
            {
                return Err(brace_common::BraceError::Config(format!("agent {} has invalid status {s}", a.id)));
            }
            if s != epidemic::status::SUSCEPTIBLE {
                touched += 1;
            }
        }
        // Status never moves backwards, so the index cases are always
        // still infectious-or-recovered.
        if touched < params.seeds.min(world.len()) {
            return Err(brace_common::BraceError::Config(format!(
                "only {touched} agents ever infected; the {} index cases cannot have healed",
                params.seeds
            )));
        }
        Ok(())
    }
}

/// Zonal flocking through a static obstacle field.
struct FlockObstacles;

impl Scenario for FlockObstacles {
    fn name(&self) -> &'static str {
        "flock-obstacles"
    }
    fn description(&self) -> &'static str {
        "Zonal flock steering around a deterministic static obstacle field (local effects)"
    }
    fn default_population(&self) -> usize {
        1_500
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let params = FlockObstaclesParams::default();
        let side = params.side;
        let behavior = FlockObstaclesBehavior::new(params);
        let population = behavior.population(n, seed);
        Ok(ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: EPOCH_LEN, space_x: (0.0, side) })
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        no_nan(world)?;
        let geometry = FlockObstaclesBehavior::new(FlockObstaclesParams::default());
        for a in world {
            if geometry.inside_obstacle(a.pos) {
                return Err(brace_common::BraceError::Config(format!("bird {} is inside an obstacle", a.id)));
            }
            let h =
                Vec2::new(a.state[flock_obstacles::state::HX as usize], a.state[flock_obstacles::state::HY as usize]);
            if (h.norm() - 1.0).abs() > 1e-6 {
                return Err(brace_common::BraceError::Config(format!("bird {} heading is not unit", a.id)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Registry, Runner, CONFORMANCE_POPULATION};

    /// Every builtin builds at a small size, runs a few ticks single-node,
    /// and passes its own sanity check.
    #[test]
    fn every_builtin_builds_runs_and_checks() {
        let registry = Registry::builtin();
        for scenario in registry.iter() {
            let report = Runner::new(scenario)
                .population(120)
                .run(3)
                .unwrap_or_else(|e| panic!("scenario `{}` failed: {e}", scenario.name()));
            assert!(report.agents > 0, "scenario `{}` emptied out", scenario.name());
            assert_eq!(report.ticks, 3);
        }
    }

    /// Builds are pure functions of (size, seed).
    #[test]
    fn builds_are_deterministic() {
        let registry = Registry::builtin();
        for scenario in registry.iter() {
            let a = scenario.build(Some(80), 7).unwrap();
            let b = scenario.build(Some(80), 7).unwrap();
            assert_eq!(a.population, b.population, "scenario `{}` population not deterministic", scenario.name());
            assert_eq!(a.space_x, b.space_x);
            let c = scenario.build(Some(80), 8).unwrap();
            assert_ne!(a.population, c.population, "scenario `{}` ignores the seed", scenario.name());
        }
    }

    /// The conformance setups honor their contract locally: populations are
    /// modest and every one runs clean on a single node.
    #[test]
    fn conformance_setups_run_single_node() {
        let registry = Registry::builtin();
        for scenario in registry.iter() {
            let report = Runner::new(scenario)
                .conformance()
                .run(5)
                .unwrap_or_else(|e| panic!("scenario `{}` conformance failed: {e}", scenario.name()));
            assert!(report.agents > 0);
            assert!(report.agents <= 2 * CONFORMANCE_POPULATION, "conformance setup of `{}` too big", scenario.name());
        }
    }
}
