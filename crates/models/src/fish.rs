//! The Couzin et al. fish-school model (information transfer in animal
//! groups, Nature 433, 2005) — the paper's second evaluation workload.
//!
//! Per tick, each fish inspects its visible neighborhood:
//!
//! * **Avoidance** (highest priority): if any neighbor is closer than the
//!   personal-zone radius α, turn away from the sum of directions to those
//!   neighbors.
//! * **Attraction + alignment**: otherwise, steer toward neighbors within
//!   the visible radius ρ > α and align with their headings.
//! * **Informed individuals**: a fraction of fish have a preferred
//!   direction g (e.g. toward food or a migration route) and balance it
//!   against the social vector with weight ω. Everyone else is naive.
//!
//! The "ocean" is unbounded and the school's spatial distribution changes
//! dramatically as informed individuals lead — which is precisely why this
//! workload drives the paper's load-balancing experiments (Figures 7/8):
//! with **two** informed classes pulling in opposite directions the
//! population splits into two schools that drift apart, starving all but
//! two partitions unless the balancer intervenes.
//!
//! All effects are local (each fish aggregates its neighbors' influence on
//! itself), so the runtime needs a single reduce pass.
//!
//! The query is `fold_zonal_forces`, shared with the flock-obstacles
//! model; its doc says how it stays bit-identical to the per-candidate loop.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::{EffectWriter, LocalFold};
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};
use brace_spatial::kernels;

/// Model parameters. Distances in body lengths, speeds in body lengths per
/// tick.
#[derive(Debug, Clone, PartialEq)]
pub struct FishParams {
    /// Personal (repulsion) zone radius α.
    pub alpha: f64,
    /// Visible (attraction/alignment) radius ρ > α; also the schema
    /// visibility bound.
    pub rho: f64,
    /// Swim speed (distance per tick).
    pub speed: f64,
    /// Informed-direction weight ω.
    pub omega: f64,
    /// Random heading perturbation magnitude.
    pub jitter: f64,
    /// Fraction of fish informed of direction A (+x).
    pub informed_a: f64,
    /// Fraction informed of direction B (−x). Set to 0 for the classic
    /// single-leader configuration.
    pub informed_b: f64,
    /// Initial school radius.
    pub school_radius: f64,
}

impl Default for FishParams {
    fn default() -> Self {
        FishParams {
            alpha: 1.0,
            rho: 6.0,
            speed: 0.75,
            omega: 0.5,
            jitter: 0.05,
            informed_a: 0.05,
            informed_b: 0.05,
            school_radius: 20.0,
        }
    }
}

/// State slots.
pub mod state {
    /// Heading x component (unit vector).
    pub const HX: u16 = 0;
    /// Heading y component.
    pub const HY: u16 = 1;
    /// Informed class: 0 naive, 1 prefers +x, 2 prefers −x.
    pub const CLASS: u16 = 2;
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

/// Every fish effect is a `Sum` into the fish's own row, a few hundred of
/// them per query — folded in registers through
/// [`EffectWriter::fold_local`]. In effect-slot order, so accumulator `k`
/// is effect slot `k`.
const FORCE_FOLD: [(FieldId, Combinator); 8] = {
    const fn sum(slot: u16) -> (FieldId, Combinator) {
        (FieldId::new(slot), Combinator::Sum)
    }
    [
        sum(effect::REP_X),
        sum(effect::REP_Y),
        sum(effect::ATT_X),
        sum(effect::ATT_Y),
        sum(effect::ALI_X),
        sum(effect::ALI_Y),
        sum(effect::N_REP),
        sum(effect::N_VIS),
    ]
};

/// One in-range candidate's contribution: repulsion from a personal-zone
/// neighbor, attraction to and alignment with any other (`ux`, `uy`: unit
/// direction toward it; `hx`, `hy`: its heading).
#[inline(always)]
fn fold_force(acc: &mut LocalFold<'_, 8>, personal: bool, ux: f64, uy: f64, hx: f64, hy: f64) {
    if personal {
        acc.sum(effect::REP_X as usize, -ux);
        acc.sum(effect::REP_Y as usize, -uy);
        acc.sum(effect::N_REP as usize, 1.0);
    } else {
        acc.sum(effect::ATT_X as usize, ux);
        acc.sum(effect::ATT_Y as usize, uy);
        acc.sum(effect::ALI_X as usize, hx);
        acc.sum(effect::ALI_Y as usize, hy);
        acc.sum(effect::N_VIS as usize, 1.0);
    }
}

/// Candidates per compress pass of [`fold_zonal_forces`] (16 and 64
/// measured no faster).
const BLOCK: usize = 32;

/// The zonal query of the Couzin-style models — the fish and
/// flock-obstacles, whose schemas both put the eight [`effect`] sums in
/// slots 0–7 and the heading in state slots 0–1: fold every neighbor within
/// `sqrt(rho2)` of `me` into the querying agent's own effects through
/// [`EffectWriter::fold_local`], repulsion inside `sqrt(alpha2)`. Two passes
/// per block of [`BLOCK`] candidates, taken straight off the candidate
/// columns the join carries ([`Neighbors::columns`]: rows and positions,
/// the querying row possibly among them):
///
/// 1. **Compress**, in lanes: [`kernels::compress_disc`] computes each
///    candidate's displacement and squared distance four at a time from the
///    contiguous x and y columns, and packs the row, displacement and
///    squared distance of every candidate that is not `me` and not beyond
///    ρ (`d2 > rho2`: the corners of the square probe region, beyond the
///    radial model; a NaN distance is not beyond it and stays in) to the
///    front of the block's buffers. No branch, so no mispredict for a
///    corner, and no heading load or divide for it either.
/// 2. **Map and fold.** The kept entries, two at a time, become unit
///    directions through [`kernels::unit_dirs`] (one packed square root and
///    two packed divides; `kernels::candidate_force` per element, bit for
///    bit), and [`fold_force`] folds each, with the heading read back by row,
///    in candidate order.
///
/// Each accumulator receives the adds of the per-candidate loop
/// `candidate_force` → `continue` beyond ρ → `fold_force`, in its order, so
/// no bit moves (`kernel_zonal_forces_equal_the_candidate_loop`): the
/// compress computes `candidate_force`'s displacement and square with its
/// operations, and where the blocks are cut changes nothing, since each
/// kept entry maps on its own.
pub(crate) fn fold_zonal_forces(eff: &mut EffectWriter<'_>, me: Vec2, nbrs: &Neighbors<'_>, alpha2: f64, rho2: f64) {
    let (view, me_row) = (nbrs.view(), nbrs.me());
    let (rows, xs, ys) = nbrs.columns();
    eff.fold_local(FORCE_FOLD, |acc| {
        let mut kept = kernels::Kept::<BLOCK>::default();
        for start in (0..rows.len()).step_by(BLOCK) {
            let end = rows.len().min(start + BLOCK);
            let k = kernels::compress_disc(
                &rows[start..end],
                &xs[start..end],
                &ys[start..end],
                me_row,
                me,
                rho2,
                &mut kept,
            );
            let kernels::Kept { rows, dx, dy, d2 } = &kept;
            let mut i = 0;
            while i + 2 <= k {
                let ([ux0, ux1], [uy0, uy1]) =
                    kernels::unit_dirs([dx[i], dx[i + 1]], [dy[i], dy[i + 1]], [d2[i], d2[i + 1]]);
                let (a, b) = (view.agent(rows[i]), view.agent(rows[i + 1]));
                fold_force(acc, d2[i] <= alpha2, ux0, uy0, a.state(state::HX), a.state(state::HY));
                fold_force(acc, d2[i + 1] <= alpha2, ux1, uy1, b.state(state::HX), b.state(state::HY));
                i += 2;
            }
            if i < k {
                let ([ux], [uy]) = kernels::unit_dirs([dx[i]], [dy[i]], [d2[i]]);
                let a = view.agent(rows[i]);
                fold_force(acc, d2[i] <= alpha2, ux, uy, a.state(state::HX), a.state(state::HY));
            }
        }
    });
}

/// The fish school as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct FishBehavior {
    params: FishParams,
    schema: AgentSchema,
}

impl FishBehavior {
    pub fn new(params: FishParams) -> Self {
        assert!(params.rho > params.alpha, "visible zone must exceed the personal zone");
        let schema = AgentSchema::builder("Fish")
            .state("hx")
            .state("hy")
            .state("class")
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
        FishBehavior { params, schema }
    }

    pub fn params(&self) -> &FishParams {
        &self.params
    }

    /// A school of `n` fish around the origin with random headings;
    /// informed classes assigned by the configured fractions.
    pub fn population(&self, n: usize, seed: u64) -> Vec<Agent> {
        let p = &self.params;
        let mut rng = DetRng::seed_from_u64(seed).stream(0xF155);
        (0..n)
            .map(|i| {
                let r = p.school_radius * rng.unit().sqrt();
                let theta = rng.range(0.0, std::f64::consts::TAU);
                let pos = Vec2::new(r * theta.cos(), r * theta.sin());
                let heading = rng.range(0.0, std::f64::consts::TAU);
                let class = {
                    let u = rng.unit();
                    if u < p.informed_a {
                        1.0
                    } else if u < p.informed_a + p.informed_b {
                        2.0
                    } else {
                        0.0
                    }
                };
                let mut a = Agent::new(AgentId::new(i as u64), pos, &self.schema);
                a.state[state::HX as usize] = heading.cos();
                a.state[state::HY as usize] = heading.sin();
                a.state[state::CLASS as usize] = class;
                a
            })
            .collect()
    }
}

impl Behavior for FishBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {
        let p = &self.params;
        fold_zonal_forces(eff, me.pos(), nbrs, p.alpha * p.alpha, p.rho * p.rho);
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let n_rep = me.effect(FieldId::new(effect::N_REP));
        let social = if n_rep > 0.0 {
            // Avoidance overrides everything (highest priority).
            Vec2::new(me.effect(FieldId::new(effect::REP_X)), me.effect(FieldId::new(effect::REP_Y)))
        } else if me.effect(FieldId::new(effect::N_VIS)) > 0.0 {
            let att = Vec2::new(me.effect(FieldId::new(effect::ATT_X)), me.effect(FieldId::new(effect::ATT_Y)));
            let ali = Vec2::new(me.effect(FieldId::new(effect::ALI_X)), me.effect(FieldId::new(effect::ALI_Y)));
            att.normalized() + ali.normalized()
        } else {
            // Alone: keep heading.
            Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize])
        };
        let preferred = match me.state[state::CLASS as usize] as i64 {
            1 => Vec2::new(1.0, 0.0),
            2 => Vec2::new(-1.0, 0.0),
            _ => Vec2::ZERO,
        };
        let jitter = Vec2::new(ctx.rng.range(-p.jitter, p.jitter), ctx.rng.range(-p.jitter, p.jitter));
        let mut heading = (social.normalized() + preferred * p.omega + jitter).normalized();
        if heading == Vec2::ZERO {
            heading = Vec2::new(me.state[state::HX as usize], me.state[state::HY as usize]);
        }
        me.state[state::HX as usize] = heading.x;
        me.state[state::HY as usize] = heading.y;
        me.pos += heading * p.speed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use brace_core::Simulation;

    fn behavior() -> FishBehavior {
        FishBehavior::new(FishParams::default())
    }

    #[test]
    fn population_has_requested_shape() {
        let b = behavior();
        let pop = b.population(200, 1);
        assert_eq!(pop.len(), 200);
        for a in &pop {
            assert!(a.pos.norm() <= 20.0 + 1e-9);
            let h = Vec2::new(a.state[0], a.state[1]);
            assert!((h.norm() - 1.0).abs() < 1e-9);
        }
        // Informed classes near the configured 5% + 5%.
        let informed = pop.iter().filter(|a| a.state[2] != 0.0).count();
        assert!((10..=35).contains(&informed), "{informed} informed of 200");
    }

    #[test]
    fn close_pair_repels() {
        let b = behavior();
        let schema = b.schema().clone();
        let mut a0 = Agent::new(AgentId::new(0), Vec2::new(0.0, 0.0), &schema);
        let mut a1 = Agent::new(AgentId::new(1), Vec2::new(0.5, 0.0), &schema);
        for a in [&mut a0, &mut a1] {
            a.state[state::HX as usize] = 0.0;
            a.state[state::HY as usize] = 1.0;
        }
        let mut sim = Simulation::builder(b).agents(vec![a0, a1]).seed(2).build().unwrap();
        sim.step();
        let d_after = sim.agents()[0].pos.dist(sim.agents()[1].pos);
        assert!(d_after > 0.5, "repulsion must separate a close pair, d = {d_after}");
    }

    #[test]
    fn distant_pair_attracts() {
        let b = behavior();
        let schema = b.schema().clone();
        let mut a0 = Agent::new(AgentId::new(0), Vec2::new(0.0, 0.0), &schema);
        let mut a1 = Agent::new(AgentId::new(1), Vec2::new(4.0, 0.0), &schema);
        // Headings perpendicular so attraction dominates the alignment sum.
        a0.state[state::HX as usize] = 0.0;
        a0.state[state::HY as usize] = 1.0;
        a1.state[state::HX as usize] = 0.0;
        a1.state[state::HY as usize] = -1.0;
        let b2 = FishBehavior::new(FishParams { jitter: 0.0, ..FishParams::default() });
        let mut sim = Simulation::builder(b2).agents(vec![a0, a1]).seed(3).build().unwrap();
        let _ = b;
        sim.step();
        let d_after = sim.agents()[0].pos.dist(sim.agents()[1].pos);
        assert!(d_after < 4.0, "attraction must pull a visible pair together, d = {d_after}");
    }

    #[test]
    fn informed_fish_lead_the_school() {
        // All fish informed of +x must march right.
        let params = FishParams { informed_a: 1.0, informed_b: 0.0, jitter: 0.0, omega: 2.0, ..Default::default() };
        let b = FishBehavior::new(params);
        let pop = b.population(100, 4);
        let cx0: f64 = pop.iter().map(|a| a.pos.x).sum::<f64>() / 100.0;
        let mut sim = Simulation::builder(b).agents(pop).seed(4).build().unwrap();
        sim.run(30);
        let cx1: f64 = sim.agents().iter().map(|a| a.pos.x).sum::<f64>() / 100.0;
        assert!(cx1 > cx0 + 10.0, "school must travel +x: {cx0} -> {cx1}");
    }

    #[test]
    fn two_informed_classes_split_the_school() {
        let params = FishParams {
            informed_a: 0.15,
            informed_b: 0.15,
            omega: 1.5,
            jitter: 0.02,
            school_radius: 10.0,
            ..Default::default()
        };
        let b = FishBehavior::new(params);
        let pop = b.population(300, 5);
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        sim.run(150);
        let xs: Vec<f64> = sim.agents().iter().map(|a| a.pos.x).collect();
        let spread =
            xs.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)) - xs.iter().fold(f64::INFINITY, |m, &x| m.min(x));
        assert!(spread > 60.0, "two leader classes must stretch the school, spread = {spread}");
    }

    #[test]
    fn heading_stays_unit_length() {
        let b = behavior();
        let pop = b.population(50, 6);
        let mut sim = Simulation::builder(b).agents(pop).seed(6).build().unwrap();
        sim.run(20);
        for a in sim.agents() {
            let h = Vec2::new(a.state[0], a.state[1]);
            assert!((h.norm() - 1.0).abs() < 1e-6, "heading norm {}", h.norm());
        }
    }

    #[test]
    fn speed_is_bounded_by_reachability() {
        let b = behavior();
        let pop = b.population(80, 7);
        let before: Vec<Vec2> = pop.iter().map(|a| a.pos).collect();
        let mut sim = Simulation::builder(b).agents(pop).seed(7).build().unwrap();
        sim.step();
        for (a, b0) in sim.agents().iter().zip(&before) {
            assert!(a.pos.dist_linf(*b0) <= 0.75 + 1e-9);
        }
    }
}
