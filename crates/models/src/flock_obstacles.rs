//! Flocking around static obstacles — a local-effects scenario proving the
//! registry generalizes beyond the paper's three workloads.
//!
//! A Couzin-style zonal flock (repulsion inside a personal zone,
//! attraction + alignment inside the visible zone) shares its world with a
//! deterministic field of static circular obstacles. Obstacles are *model
//! data*, not agents: they live in the behavior (shared by every worker
//! through the same `Arc`), so they cost nothing to replicate and exercise
//! the common pattern of simulations over a fixed environment (road
//! networks, terrain, walls).
//!
//! Obstacle handling runs entirely in the update phase — steering away from
//! any obstacle inside the avoidance range, and refusing a step that would
//! land inside one (the mover keeps its position and turns away instead).
//! Because an agent only ever *declines* to enter, the no-agent-inside-an-
//! obstacle invariant holds inductively from the initial population — the
//! scenario's post-run sanity check. All effects are local float sums
//! computed wholly by each agent's own query, so a distributed run is
//! bit-identical to a single-node run.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};

/// Model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FlockObstaclesParams {
    /// Personal (repulsion) zone radius.
    pub alpha: f64,
    /// Visible (attraction/alignment) radius; also the visibility bound.
    pub rho: f64,
    /// Flight speed per tick (also the reachability bound).
    pub speed: f64,
    /// Random heading perturbation magnitude.
    pub jitter: f64,
    /// Side of the square world the obstacles are scattered over.
    pub side: f64,
    /// Number of static circular obstacles.
    pub obstacles: usize,
    /// Obstacle radius range (min, max).
    pub obstacle_radius: (f64, f64),
    /// Distance from an obstacle's surface at which avoidance steering
    /// starts.
    pub avoid_range: f64,
    /// Avoidance steering weight relative to the social vector.
    pub avoid_weight: f64,
    /// Seed for the deterministic obstacle field.
    pub obstacle_seed: u64,
}

impl Default for FlockObstaclesParams {
    fn default() -> Self {
        FlockObstaclesParams {
            alpha: 1.0,
            rho: 5.0,
            speed: 0.6,
            jitter: 0.05,
            side: 60.0,
            obstacles: 12,
            obstacle_radius: (1.5, 4.0),
            avoid_range: 3.0,
            avoid_weight: 2.0,
            obstacle_seed: 0x0B57,
        }
    }
}

/// State slots.
pub mod state {
    /// Heading x component (unit vector).
    pub const HX: u16 = 0;
    /// Heading y component.
    pub const HY: u16 = 1;
}

/// Effect slots.
pub mod effect {
    /// Repulsion vector (sum over personal-zone neighbors).
    pub const REP_X: u16 = 0;
    pub const REP_Y: u16 = 1;
    /// Attraction vector (sum over visible neighbors).
    pub const ATT_X: u16 = 2;
    pub const ATT_Y: u16 = 3;
    /// Alignment vector (sum of neighbor headings).
    pub const ALI_X: u16 = 4;
    pub const ALI_Y: u16 = 5;
    /// Personal-zone neighbor count.
    pub const N_REP: u16 = 6;
    /// Visible neighbor count.
    pub const N_VIS: u16 = 7;
}

// The query is the fish's zonal fold, which reads the heading from the
// fish's state slots and folds into the fish's effect slots.
const _: () = {
    use crate::fish;
    assert!(state::HX == fish::state::HX && state::HY == fish::state::HY);
    assert!(effect::REP_X == fish::effect::REP_X && effect::REP_Y == fish::effect::REP_Y);
    assert!(effect::ATT_X == fish::effect::ATT_X && effect::ATT_Y == fish::effect::ATT_Y);
    assert!(effect::ALI_X == fish::effect::ALI_X && effect::ALI_Y == fish::effect::ALI_Y);
    assert!(effect::N_REP == fish::effect::N_REP && effect::N_VIS == fish::effect::N_VIS);
};

/// A static circular obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    pub center: Vec2,
    pub radius: f64,
}

/// The obstacle-field flock as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct FlockObstaclesBehavior {
    params: FlockObstaclesParams,
    schema: AgentSchema,
    obstacles: Vec<Obstacle>,
}

impl FlockObstaclesBehavior {
    pub fn new(params: FlockObstaclesParams) -> Self {
        assert!(params.rho > params.alpha, "visible zone must exceed the personal zone");
        let schema = AgentSchema::builder("FlockObstacles")
            .state("hx")
            .state("hy")
            .effect("rep_x", Combinator::Sum)
            .effect("rep_y", Combinator::Sum)
            .effect("att_x", Combinator::Sum)
            .effect("att_y", Combinator::Sum)
            .effect("ali_x", Combinator::Sum)
            .effect("ali_y", Combinator::Sum)
            .effect("n_rep", Combinator::Sum)
            .effect("n_vis", Combinator::Sum)
            .visibility(params.rho)
            .reachability(params.speed)
            .build()
            .expect("static schema is valid");
        // Deterministic obstacle field: same params ⇒ same world, on every
        // node, forever.
        let mut rng = DetRng::seed_from_u64(params.obstacle_seed).stream(0x0B5C);
        let (r_lo, r_hi) = params.obstacle_radius;
        let obstacles = (0..params.obstacles)
            .map(|_| Obstacle {
                center: Vec2::new(rng.range(0.0, params.side), rng.range(0.0, params.side)),
                radius: rng.range(r_lo, r_hi),
            })
            .collect();
        FlockObstaclesBehavior { params, schema, obstacles }
    }

    pub fn params(&self) -> &FlockObstaclesParams {
        &self.params
    }

    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// True when `pos` lies strictly inside any obstacle.
    pub fn inside_obstacle(&self, pos: Vec2) -> bool {
        self.obstacles.iter().any(|o| pos.dist2(o.center) < o.radius * o.radius)
    }

    /// `n` birds at deterministic random free positions (rejection-sampled
    /// off the obstacles) with random unit headings.
    pub fn population(&self, n: usize, seed: u64) -> Vec<Agent> {
        let mut rng = DetRng::seed_from_u64(seed).stream(0xF10C);
        (0..n)
            .map(|i| {
                let pos = loop {
                    let p = Vec2::new(rng.range(0.0, self.params.side), rng.range(0.0, self.params.side));
                    if !self.inside_obstacle(p) {
                        break p;
                    }
                };
                let heading = rng.range(0.0, std::f64::consts::TAU);
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[state::HX as usize] = heading.cos();
                a.state[state::HY as usize] = heading.sin();
                a
            })
            .collect()
    }
}

impl Behavior for FlockObstaclesBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let p = &self.params;
        crate::fish::fold_zonal_forces(eff, me.pos(), nbrs, p.alpha * p.alpha, p.rho * p.rho);
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let n_rep = me.effect(FieldId::new(effect::N_REP));
        let social = if n_rep > 0.0 {
            Vec2::new(me.effect(FieldId::new(effect::REP_X)), me.effect(FieldId::new(effect::REP_Y)))
        } else if me.effect(FieldId::new(effect::N_VIS)) > 0.0 {
            let att = Vec2::new(me.effect(FieldId::new(effect::ATT_X)), me.effect(FieldId::new(effect::ATT_Y)));
            let ali = Vec2::new(me.effect(FieldId::new(effect::ALI_X)), me.effect(FieldId::new(effect::ALI_Y)));
            att.normalized() + ali.normalized()
        } else {
            Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize])
        };
        // Obstacle avoidance: steer away from every obstacle whose surface
        // is within the avoidance range, hardest when nearly touching.
        let mut avoid = Vec2::ZERO;
        for o in &self.obstacles {
            let away = me.pos - o.center;
            let gap = away.norm() - o.radius;
            if gap < p.avoid_range {
                let urgency = 1.0 - (gap.max(0.0) / p.avoid_range);
                avoid += away.normalized() * urgency;
            }
        }
        let jitter = Vec2::new(ctx.rng.range(-p.jitter, p.jitter), ctx.rng.range(-p.jitter, p.jitter));
        let mut heading = (social.normalized() + avoid * p.avoid_weight + jitter).normalized();
        if heading == Vec2::ZERO {
            heading = Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize]);
        }
        let next = me.pos + heading * p.speed;
        if self.inside_obstacle(next) {
            // Refuse the step: keep the position, face away from the
            // nearest blocking obstacle so next tick's step leads outward.
            // Never entering (rather than projecting out) is what makes the
            // stay-outside invariant inductive — a projection could exceed
            // the reachability crop and get clamped back inside.
            let blocker = self
                .obstacles
                .iter()
                .filter(|o| next.dist2(o.center) < o.radius * o.radius)
                .min_by(|a, b| next.dist2(a.center).total_cmp(&next.dist2(b.center)))
                .expect("inside_obstacle found a blocker");
            let out = (me.pos - blocker.center).normalized();
            if out != Vec2::ZERO {
                heading = out;
            }
        } else {
            me.pos = next;
        }
        me.state[state::HX as usize] = heading.x;
        me.state[state::HY as usize] = heading.y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brace_core::Simulation;

    fn behavior() -> FlockObstaclesBehavior {
        FlockObstaclesBehavior::new(FlockObstaclesParams::default())
    }

    #[test]
    fn obstacle_field_is_deterministic() {
        assert_eq!(behavior().obstacles(), behavior().obstacles());
        assert_eq!(behavior().obstacles().len(), 12);
    }

    #[test]
    fn population_starts_outside_obstacles() {
        let b = behavior();
        for a in b.population(300, 1) {
            assert!(!b.inside_obstacle(a.pos));
        }
    }

    #[test]
    fn no_agent_ever_enters_an_obstacle() {
        let b = behavior();
        let checker = behavior();
        let pop = b.population(250, 2);
        let mut sim = Simulation::builder(b).agents(pop).seed(3).build().unwrap();
        for _ in 0..30 {
            sim.step();
            for a in sim.agents() {
                assert!(!checker.inside_obstacle(a.pos), "agent {} inside an obstacle at {}", a.id, a.pos);
            }
        }
    }

    #[test]
    fn headings_stay_unit_length() {
        let b = behavior();
        let pop = b.population(100, 4);
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        sim.run(20);
        for a in sim.agents() {
            let h = Vec2::new(a.state[0], a.state[1]);
            assert!((h.norm() - 1.0).abs() < 1e-6, "heading norm {}", h.norm());
        }
    }

    #[test]
    fn flock_coheres_without_collapsing() {
        let b = behavior();
        let pop = b.population(200, 6);
        let mut sim = Simulation::builder(b).agents(pop).seed(7).build().unwrap();
        sim.run(40);
        let world = sim.agents();
        assert_eq!(world.len(), 200);
        for a in &world {
            assert!(!a.pos.is_nan());
        }
        // Repulsion keeps pairs from stacking exactly.
        for w in world.windows(2) {
            assert!(w[0].pos != w[1].pos || w[0].id == w[1].id);
        }
    }
}
