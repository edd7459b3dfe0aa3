//! SIR epidemic on a plane — infection as a **non-local** ⊕-effect.
//!
//! A population of random walkers carries a classic
//! susceptible → infectious → recovered state machine. Each tick every
//! *infectious* agent pushes one `contacts` unit onto each susceptible
//! agent within the infection radius — a non-local effect assignment in
//! exactly the sense of the paper's predator bite (§4.3): the writer is the
//! infectious agent, the receiver is the victim, and the runtime must route
//! the write to the victim's owner (the second reduce pass of Table 1)
//! unless effect inversion rewrites it away.
//!
//! The contact counts are integer-valued, so the ⊕ = Sum aggregation is
//! **exactly associative**: its bits would not depend on the fold order
//! even if the runtime did not pin it (every engine folds every non-local
//! write once, in source-id order, so the float-damage predator is exact
//! too).
//!
//! In the update phase a susceptible agent that accumulated `k` contacts
//! becomes infectious with probability `1 − (1 − β)^k` (independent
//! per-contact transmission), drawn from the deterministic per-agent
//! stream; infectious agents recover after a fixed infectious period.
//! Status never moves backwards, so `infectious + recovered` is monotone —
//! the scenario's post-run sanity check.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};

/// Model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EpidemicParams {
    /// Infection radius (also the schema visibility bound).
    pub radius: f64,
    /// Movement per tick (also the reachability bound).
    pub speed: f64,
    /// Per-contact, per-tick transmission probability β.
    pub beta: f64,
    /// Ticks an agent stays infectious before recovering.
    pub infectious_ticks: f64,
    /// Heading perturbation per tick (radians).
    pub turn: f64,
    /// Initially infectious agents (the index cases, lowest ids).
    pub seeds: usize,
    /// Population density (agents per unit area) used by
    /// [`EpidemicBehavior::population`] to size the square.
    pub density: f64,
}

impl Default for EpidemicParams {
    fn default() -> Self {
        EpidemicParams {
            radius: 2.0,
            speed: 0.5,
            beta: 0.12,
            infectious_ticks: 12.0,
            turn: 0.6,
            seeds: 5,
            density: 0.35,
        }
    }
}

/// Disease status values stored in [`state::STATUS`].
pub mod status {
    pub const SUSCEPTIBLE: f64 = 0.0;
    pub const INFECTIOUS: f64 = 1.0;
    pub const RECOVERED: f64 = 2.0;
}

/// State slots.
pub mod state {
    /// Disease status (see [`super::status`]).
    pub const STATUS: u16 = 0;
    /// Heading angle (radians) for the random walk.
    pub const HEADING: u16 = 1;
    /// Ticks spent infectious.
    pub const TIMER: u16 = 2;
}

/// Effect slots.
pub mod effect {
    /// Infectious contacts received this tick (Sum; integer-valued, so the
    /// aggregation is exactly associative across partitions).
    pub const CONTACTS: u16 = 0;
}

/// The SIR random-walk model as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct EpidemicBehavior {
    params: EpidemicParams,
    schema: AgentSchema,
}

impl EpidemicBehavior {
    pub fn new(params: EpidemicParams) -> Self {
        let schema = AgentSchema::builder("Epidemic")
            .state("status")
            .state("heading")
            .state("timer")
            .remote_effect("contacts", Combinator::Sum)
            .visibility(params.radius)
            .reachability(params.speed)
            .build()
            .expect("static schema is valid");
        EpidemicBehavior { params, schema }
    }

    pub fn params(&self) -> &EpidemicParams {
        &self.params
    }

    /// Side length of the square holding `n` agents at the configured
    /// density.
    pub fn side(&self, n: usize) -> f64 {
        (n as f64 / self.params.density).sqrt().max(1.0)
    }

    /// `n` walkers scattered over the density-sized square; the first
    /// `seeds` agents start infectious, everyone else susceptible.
    pub fn population(&self, n: usize, seed: u64) -> Vec<Agent> {
        let side = self.side(n);
        let mut rng = DetRng::seed_from_u64(seed).stream(0x51E0);
        (0..n)
            .map(|i| {
                let pos = Vec2::new(rng.range(0.0, side), rng.range(0.0, side));
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[state::STATUS as usize] =
                    if i < self.params.seeds { status::INFECTIOUS } else { status::SUSCEPTIBLE };
                a.state[state::HEADING as usize] = rng.range(0.0, std::f64::consts::TAU);
                a
            })
            .collect()
    }
}

impl Behavior for EpidemicBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    /// Only an infectious agent's query reads its neighbours; everyone
    /// else's returns before the loop, writing nothing and drawing nothing.
    fn reads_neighbors(&self, me: AgentRef<'_>) -> bool {
        me.state(state::STATUS) == status::INFECTIOUS
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        // Only infectious agents write, and only onto susceptible victims:
        // the non-local push of the paper's bite, with an integer payload.
        if me.state(state::STATUS) != status::INFECTIOUS {
            return;
        }
        let r2 = self.params.radius * self.params.radius;
        let my_pos = me.pos();
        for nb in nbrs.iter() {
            if nb.agent.state(state::STATUS) != status::SUSCEPTIBLE {
                continue;
            }
            // The visible region is the index's square; the disease is
            // radial — filter on squared distance.
            if nb.pos.dist2(my_pos) <= r2 {
                eff.remote(nb.row, FieldId::new(effect::CONTACTS), 1.0);
            }
        }
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let s = me.state[state::STATUS as usize];
        if s == status::SUSCEPTIBLE {
            let k = me.effect(FieldId::new(effect::CONTACTS));
            if k > 0.0 {
                // Independent per-contact transmission: 1 − (1 − β)^k.
                let escape = (1.0 - p.beta).powi(k as i32);
                if ctx.rng.chance(1.0 - escape) {
                    me.state[state::STATUS as usize] = status::INFECTIOUS;
                    me.state[state::TIMER as usize] = 0.0;
                }
            }
        } else if s == status::INFECTIOUS {
            let t = me.state[state::TIMER as usize] + 1.0;
            me.state[state::TIMER as usize] = t;
            if t >= p.infectious_ticks {
                me.state[state::STATUS as usize] = status::RECOVERED;
            }
        }
        let heading = me.state[state::HEADING as usize] + ctx.rng.range(-p.turn, p.turn);
        me.state[state::HEADING as usize] = heading;
        me.pos += Vec2::new(heading.cos(), heading.sin()) * p.speed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_core::Simulation;

    fn counts(agents: &[Agent]) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for a in agents {
            match a.state[state::STATUS as usize] {
                s if s == status::SUSCEPTIBLE => c.0 += 1,
                s if s == status::INFECTIOUS => c.1 += 1,
                _ => c.2 += 1,
            }
        }
        c
    }

    #[test]
    fn population_has_seeds() {
        let b = EpidemicBehavior::new(EpidemicParams::default());
        let pop = b.population(200, 1);
        let (s, i, r) = counts(&pop);
        assert_eq!((s, i, r), (195, 5, 0));
    }

    #[test]
    fn epidemic_spreads_and_recovers() {
        let b = EpidemicBehavior::new(EpidemicParams::default());
        let pop = b.population(400, 2);
        let mut sim = Simulation::builder(b).agents(pop).seed(3).build().unwrap();
        sim.run(40);
        let world = sim.agents();
        assert_eq!(world.len(), 400, "population is closed");
        let (_, i, r) = counts(&world);
        assert!(i + r > 5, "infection must spread beyond the index cases, got {}", i + r);
        assert!(r > 0, "40 ticks exceed the infectious period; someone must have recovered");
    }

    #[test]
    fn status_never_moves_backwards() {
        let b = EpidemicBehavior::new(EpidemicParams::default());
        let pop = b.population(150, 4);
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        let mut ever_infected: std::collections::HashSet<u64> = (0..5).collect();
        for _ in 0..30 {
            sim.step();
            for a in sim.agents() {
                let s = a.state[state::STATUS as usize];
                if s != status::SUSCEPTIBLE {
                    ever_infected.insert(a.id.raw());
                } else {
                    assert!(!ever_infected.contains(&a.id.raw()), "agent {} reverted to susceptible", a.id);
                }
            }
        }
    }

    #[test]
    fn zero_beta_never_infects() {
        let b = EpidemicBehavior::new(EpidemicParams { beta: 0.0, ..Default::default() });
        let pop = b.population(100, 6);
        let mut sim = Simulation::builder(b).agents(pop).seed(7).build().unwrap();
        sim.run(20);
        let (s, i, r) = counts(&sim.agents());
        assert_eq!(s, 95, "nobody beyond the seeds may catch anything");
        assert_eq!(i + r, 5);
    }
}
