//! The predator simulation — the paper's non-local-effects workload.
//!
//! "We designed a new predator simulation, inspired by artificial society
//! simulations. In this simulation, a fish can 'spawn' new fish and 'bite'
//! other fish, possibly killing them, so density naturally approaches an
//! equilibrium value at which births and deaths are balanced" (Appendix C).
//!
//! Biting is the canonical **non-local effect assignment**: a bigger fish
//! assigns a `hurt` effect *to its victim*. The paper programs the behavior
//! two ways in otherwise identical scripts — non-locally (biters push hurt)
//! and locally (victims pull hurt) — because effect inversion was not yet
//! implemented in their compiler. This module provides both hand-coded
//! forms behind one parameter ([`PredatorParams::nonlocal`]); the BRASIL
//! version in [`scripts`](crate::scripts) additionally demonstrates the
//! *automatic* inversion (`brasil::invert_effects`). Figure 5 measures the
//! throughput difference: the non-local form needs the second reduce pass,
//! the inverted form does not.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};

/// Model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PredatorParams {
    /// Bite reach (also the visibility bound).
    pub reach: f64,
    /// Movement per tick.
    pub speed: f64,
    /// Size advantage required to bite: attacker.size > victim.size + this.
    pub size_advantage: f64,
    /// Hurt inflicted per bite, scaled by the size difference.
    pub bite_strength: f64,
    /// Accumulated hurt at which a fish dies this tick.
    pub death_threshold: f64,
    /// Per-tick probability that a healthy fish spawns a child.
    pub spawn_probability: f64,
    /// Crowding limit: no spawning when more neighbors than this are
    /// visible (keeps density at an equilibrium).
    pub crowd_limit: f64,
    /// Growth per tick survived.
    pub growth: f64,
    /// Use non-local effect assignments (biters push hurt). `false` = the
    /// hand-inverted local form (victims pull hurt).
    pub nonlocal: bool,
}

impl Default for PredatorParams {
    fn default() -> Self {
        PredatorParams {
            reach: 2.0,
            speed: 0.5,
            size_advantage: 0.3,
            bite_strength: 1.0,
            death_threshold: 2.0,
            spawn_probability: 0.04,
            crowd_limit: 8.0,
            growth: 0.01,
            nonlocal: true,
        }
    }
}

/// State slots.
pub mod state {
    /// Body size (bite dominance).
    pub const SIZE: u16 = 0;
    /// Heading angle (radians) for the random walk.
    pub const HEADING: u16 = 1;
}

/// Effect slots.
pub mod effect {
    /// Accumulated hurt this tick (Sum).
    pub const HURT: u16 = 0;
    /// Visible-neighbor count (Sum) for crowding control.
    pub const CROWD: u16 = 1;
}

/// Whether `a` (attacker) bites `v` (victim) — a pure predicate shared by
/// both forms so they are inversions of each other *by construction*.
#[inline]
fn bites(p: &PredatorParams, attacker_size: f64, victim_size: f64) -> bool {
    attacker_size > victim_size + p.size_advantage
}

/// Hurt inflicted for a successful bite.
#[inline]
fn bite_damage(p: &PredatorParams, attacker_size: f64, victim_size: f64) -> f64 {
    p.bite_strength * (attacker_size - victim_size)
}

/// The predator model as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct PredatorBehavior {
    params: PredatorParams,
    schema: AgentSchema,
}

impl PredatorBehavior {
    pub fn new(params: PredatorParams) -> Self {
        // Only biting writes another fish's field: the non-local form
        // declares `hurt` remote, and `crowd` is local-only in both forms.
        let builder = AgentSchema::builder("Predator").state("size").state("heading");
        let builder = if params.nonlocal {
            builder.remote_effect("hurt", Combinator::Sum)
        } else {
            builder.effect("hurt", Combinator::Sum)
        };
        let schema = builder
            .effect("crowd", Combinator::Sum)
            .visibility(params.reach)
            .reachability(params.speed)
            .build()
            .expect("static schema is valid");
        PredatorBehavior { params, schema }
    }

    pub fn params(&self) -> &PredatorParams {
        &self.params
    }

    /// `n` fish scattered over a `side × side` square with random sizes.
    pub fn population(&self, n: usize, side: f64, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed).stream(0xB17E);
        (0..n)
            .map(|i| {
                let pos = Vec2::new(rng.range(0.0, side), rng.range(0.0, side));
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[state::SIZE as usize] = rng.range(0.5, 1.5);
                a.state[state::HEADING as usize] = rng.range(0.0, std::f64::consts::TAU);
                a
            })
            .collect()
    }
}

impl Behavior for PredatorBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let p = &self.params;
        let my_size = me.state(state::SIZE);
        for nb in nbrs.iter() {
            let other_size = nb.agent.state(state::SIZE);
            eff.local(FieldId::new(effect::CROWD), 1.0);
            if p.nonlocal {
                // Non-local form: I push hurt onto my victim.
                if bites(p, my_size, other_size) {
                    eff.remote(nb.row, FieldId::new(effect::HURT), bite_damage(p, my_size, other_size));
                }
            } else {
                // Inverted (local) form: I pull hurt from each neighbor
                // that would bite me — the roles in the predicate swap.
                if bites(p, other_size, my_size) {
                    eff.local(FieldId::new(effect::HURT), bite_damage(p, other_size, my_size));
                }
            }
        }
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let hurt = me.effect(FieldId::new(effect::HURT));
        let crowd = me.effect(FieldId::new(effect::CROWD));
        if hurt >= p.death_threshold {
            me.alive = false;
            return;
        }
        // Survived: grow a little, wander, maybe reproduce.
        me.state[state::SIZE as usize] += p.growth;
        let heading = me.state[state::HEADING as usize] + ctx.rng.range(-0.5, 0.5);
        me.state[state::HEADING as usize] = heading;
        me.pos += Vec2::new(heading.cos(), heading.sin()) * p.speed;
        if crowd < p.crowd_limit && hurt == 0.0 && ctx.rng.chance(p.spawn_probability) {
            let child_size = (me.state[state::SIZE as usize] * 0.6).max(0.4);
            let offset = Vec2::new(ctx.rng.range(-0.5, 0.5), ctx.rng.range(-0.5, 0.5));
            let child_heading = ctx.rng.range(0.0, std::f64::consts::TAU);
            ctx.spawn(me.pos + offset, vec![child_size, child_heading]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use brace_core::Simulation;

    fn behavior(nonlocal: bool) -> PredatorBehavior {
        PredatorBehavior::new(PredatorParams { nonlocal, ..Default::default() })
    }

    #[test]
    fn schema_flags_follow_form() {
        let schema = behavior(true).schema().clone();
        assert!(schema.is_remote(FieldId::new(effect::HURT)));
        assert!(!schema.is_remote(FieldId::new(effect::CROWD)), "crowd is counted by each fish itself");
        assert!(!behavior(false).schema().has_nonlocal_effects());
    }

    #[test]
    fn big_fish_bites_small_fish() {
        let b = behavior(true);
        let schema = b.schema().clone();
        let mut big = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
        big.state[state::SIZE as usize] = 2.0;
        let mut small = Agent::new(AgentId::new(1), Vec2::new(1.0, 0.0), &schema);
        small.state[state::SIZE as usize] = 0.5;
        let mut sim = Simulation::builder(b).agents(vec![big, small]).seed(1).build().unwrap();
        sim.step();
        // Damage 1.5 < threshold 2.0: the small fish survives but was hurt
        // (its spawn chance was suppressed; we assert survival + no death).
        assert_eq!(sim.agents().len(), 2);
        let mut sim2 = {
            let b = behavior(true);
            let schema = b.schema().clone();
            let mut big = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
            big.state[state::SIZE as usize] = 3.0;
            let mut small = Agent::new(AgentId::new(1), Vec2::new(1.0, 0.0), &schema);
            small.state[state::SIZE as usize] = 0.5;
            Simulation::builder(b).agents(vec![big, small]).seed(1).build().unwrap()
        };
        sim2.step();
        // Damage 2.5 >= threshold: the small fish dies.
        assert_eq!(sim2.agents().len(), 1);
        assert_eq!(sim2.agents()[0].id, AgentId::new(0));
    }

    #[test]
    fn local_and_nonlocal_forms_agree() {
        // The two forms are inversions of each other; on any population the
        // world (aggregated hurt, hence deaths, spawns and every position
        // and state) must match exactly: visibility is symmetric, every
        // term is identical, and each victim sums its terms in the same
        // canonical candidate order either way.
        let run = |nonlocal: bool| {
            let b = behavior(nonlocal);
            let pop = b.population(150, 15.0, 42);
            let mut sim = Simulation::builder(b).agents(pop).seed(9).build().unwrap();
            sim.run(10);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut out: Vec<_> =
                sim.agents().iter().map(|a| (a.id.raw(), bits(&[a.pos.x, a.pos.y]), bits(&a.state))).collect();
            out.sort_by_key(|x| x.0);
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn population_reaches_equilibrium() {
        // Births and deaths must roughly balance: after a long run the
        // population should be positive and not exploding.
        let b = behavior(true);
        let pop = b.population(200, 20.0, 3);
        let mut sim = Simulation::builder(b).agents(pop).seed(3).build().unwrap();
        sim.run(120);
        let n = sim.agents().len();
        assert!(n > 20, "population collapsed to {n}");
        assert!(n < 3000, "population exploded to {n}");
    }

    #[test]
    fn spawning_creates_fresh_ids() {
        let b = behavior(true);
        let pop = b.population(50, 8.0, 5);
        let max_id = pop.iter().map(|a| a.id.raw()).max().unwrap();
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        sim.run(30);
        let spawned = sim.agents().iter().filter(|a| a.id.raw() > max_id).count();
        assert!(spawned > 0, "expansion requires spawns");
        // Ids unique.
        let mut ids: Vec<u64> = sim.agents().iter().map(|a| a.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sim.agents().len());
    }

    #[test]
    fn crowding_suppresses_spawns() {
        // A dense cluster must not grow.
        let params = PredatorParams { spawn_probability: 0.5, ..Default::default() };
        let b = PredatorBehavior::new(params);
        let schema = b.schema().clone();
        let agents: Vec<Agent> = (0..20)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new((i % 5) as f64 * 0.3, (i / 5) as f64 * 0.3), &schema);
                a.state[state::SIZE as usize] = 1.0; // equal sizes: no biting
                a
            })
            .collect();
        let mut sim = Simulation::builder(b).agents(agents).seed(6).build().unwrap();
        sim.step();
        assert_eq!(sim.agents().len(), 20, "crowded cluster must not spawn");
    }
}
