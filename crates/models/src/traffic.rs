//! MITSIM-style microscopic traffic simulation.
//!
//! Implements the behaviors the paper attributes to MITSIM (§5.1, Appendix
//! C): per tick, each driver
//!
//! 1. finds the lead and rear vehicles in her current, left and right lanes
//!    within a fixed lookahead distance ρ (the paper fixes ρ = 200 "in order
//!    to apply single-node spatial indexing");
//! 2. computes a utility for each lane, makes a probabilistic lane-selection
//!    decision, and checks lead/rear **gap acceptance** in the target lane;
//! 3. otherwise applies the **car-following** model against the lead
//!    vehicle — free-flow toward the desired speed when the headway is
//!    large, emergency braking when it is dangerously small, a
//!    GM-family stimulus-response law in between.
//!
//! The road is a linear segment of configurable length with constant
//! upstream traffic: a vehicle leaving the downstream end is replaced by a
//! fresh vehicle entering upstream (paper: "a linear segment of highway
//! with constant up-stream traffic"), keeping density stationary.
//!
//! Geometry: `pos.x` is the longitudinal coordinate; `pos.y` *is the lane
//! index*, so the engine's rectangular visible region covers neighboring
//! lanes and the same spatial machinery (indexing, partitioning,
//! replication) serves the highway unchanged.
//!
//! All effects are **local** (each driver decides for herself), so the
//! distributed runtime uses a single reduce pass — the paper notes the same
//! of its traffic workload.
//!
//! The decision logic lives in free functions over [`TrafficParams`] so the
//! [`MitsimBaseline`](crate::mitsim::MitsimBaseline) drives *identical
//! physics* through a completely different (hand-coded) engine; Table 2
//! then measures how faithfully the two engines agree on aggregate
//! statistics.

use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRef, AgentSchema, Combinator};

/// Model parameters (time unit: seconds; distance unit: meters).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficParams {
    /// Segment length.
    pub segment: f64,
    /// Number of lanes.
    pub lanes: usize,
    /// Lookahead/lookback distance ρ (the paper fixes 200).
    pub lookahead: f64,
    /// Tick length in seconds.
    pub dt: f64,
    /// Mean desired speed (m/s); per-driver desired speeds spread ±20%.
    pub desired_speed: f64,
    /// Hard speed cap.
    pub max_speed: f64,
    /// Maximum acceleration (m/s²).
    pub max_accel: f64,
    /// Maximum (emergency) deceleration, positive number (m/s²).
    pub max_decel: f64,
    /// Headway (s) above which the driver is in free-flow.
    pub free_headway: f64,
    /// Headway (s) below which the driver brakes hard.
    pub emergency_headway: f64,
    /// GM car-following sensitivity constant.
    pub cf_alpha: f64,
    /// Minimum acceptable lead gap (m) for a lane change.
    pub min_lead_gap: f64,
    /// Minimum acceptable rear gap (m) for a lane change.
    pub min_rear_gap: f64,
    /// Utility advantage required before considering a change.
    pub utility_threshold: f64,
    /// Probability of executing an advantageous, acceptable change.
    pub change_probability: f64,
    /// Reluctance penalty for the rightmost lane (the paper observes
    /// drivers avoid lane 4, leaving it underpopulated).
    pub rightmost_penalty: f64,
    /// Vehicle length (m), for density and gap computations.
    pub vehicle_length: f64,
    /// Upstream spawn density: vehicles per meter per lane at entry.
    pub density: f64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            segment: 5_000.0,
            lanes: 4,
            lookahead: 200.0,
            dt: 1.0,
            desired_speed: 25.0,
            max_speed: 36.0,
            max_accel: 2.5,
            max_decel: 5.0,
            free_headway: 4.0,
            emergency_headway: 0.8,
            cf_alpha: 1.25,
            min_lead_gap: 8.0,
            min_rear_gap: 6.0,
            utility_threshold: 2.0,
            change_probability: 0.6,
            rightmost_penalty: 5.0,
            vehicle_length: 5.0,
            density: 0.02,
        }
    }
}

/// State slots (schema order).
pub mod state {
    /// Longitudinal velocity (m/s).
    pub const VEL: u16 = 0;
    /// Per-driver desired speed (m/s).
    pub const DESIRED: u16 = 1;
    /// Cumulative lane changes made by this vehicle (statistics).
    pub const CHANGES: u16 = 2;
}

/// Effect slots (schema order). Every effect is written exactly once per
/// tick by its own agent, so the combinator choice is immaterial; `Sum`
/// with a single assignment is exact.
pub mod effect {
    /// Chosen acceleration for this tick (m/s²).
    pub const ACC: u16 = 0;
    /// Chosen lane delta for this tick (−1, 0, +1).
    pub const LANE: u16 = 1;
}

/// What a driver sees in one lane: lead/rear gaps and the lead's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneView {
    /// Gap (m) to the lead vehicle's tail, `lookahead` when none visible
    /// (the paper: "she will just assume the distance … is infinite" — we
    /// saturate at ρ, which the free-flow regime treats identically).
    pub lead_gap: f64,
    /// Lead vehicle's speed, `max_speed` when none visible.
    pub lead_vel: f64,
    /// Gap (m) to the rear vehicle's nose, `lookahead` when none visible.
    pub rear_gap: f64,
}

impl LaneView {
    /// The empty-lane view for parameters `p`.
    pub fn open(p: &TrafficParams) -> LaneView {
        LaneView { lead_gap: p.lookahead, lead_vel: p.max_speed, rear_gap: p.lookahead }
    }
}

/// Car-following acceleration (free-flow / emergency / GM regimes).
pub fn car_following_accel(p: &TrafficParams, vel: f64, desired: f64, view: &LaneView) -> f64 {
    let headway = view.lead_gap / vel.max(1.0);
    if headway >= p.free_headway {
        // Free flow: relax toward the desired speed.
        (0.6 * (desired - vel)).clamp(-p.max_decel, p.max_accel)
    } else if headway <= p.emergency_headway {
        // Emergency regime.
        -p.max_decel
    } else {
        // GM stimulus-response: sensitivity * Δv / gap, saturated.
        let dv = view.lead_vel - vel;
        (p.cf_alpha * vel.max(1.0) * dv / view.lead_gap.max(1.0)).clamp(-p.max_decel, p.max_accel)
    }
}

/// Lane utility: how attractive a lane looks (bigger is better).
pub fn lane_utility(p: &TrafficParams, lane: usize, view: &LaneView) -> f64 {
    let mut u = view.lead_gap.min(p.lookahead) * 0.1 + view.lead_vel * 0.5;
    if lane + 1 == p.lanes {
        u -= p.rightmost_penalty;
    }
    u
}

/// Gap acceptance for a change into `view`.
pub fn gap_acceptable(p: &TrafficParams, view: &LaneView) -> bool {
    view.lead_gap >= p.min_lead_gap && view.rear_gap >= p.min_rear_gap
}

/// The full per-tick decision: returns `(acceleration, lane_delta)`.
///
/// `views[0]` is the left lane (`None` at the leftmost), `views[1]` the
/// current lane, `views[2]` the right lane (`None` at the rightmost).
pub fn drive(
    p: &TrafficParams,
    lane: usize,
    vel: f64,
    desired: f64,
    views: [Option<&LaneView>; 3],
    rng: &mut DetRng,
) -> (f64, i32) {
    let current = views[1].expect("current lane always has a view");
    let u_cur = lane_utility(p, lane, current);
    // Candidate evaluation: left = lane-1, right = lane+1.
    let mut best: Option<(i32, f64, &LaneView)> = None;
    for (delta, view) in [(-1i32, views[0]), (1i32, views[2])] {
        let Some(view) = view else { continue };
        let target_lane = (lane as i64 + delta as i64) as usize;
        let u = lane_utility(p, target_lane, view);
        if u > u_cur + p.utility_threshold && gap_acceptable(p, view) && best.is_none_or(|(_, bu, _)| u > bu) {
            best = Some((delta, u, view));
        }
    }
    if let Some((delta, _, _)) = best {
        if rng.chance(p.change_probability) {
            // Keep current-lane acceleration while merging.
            return (car_following_accel(p, vel, desired, current), delta);
        }
    }
    (car_following_accel(p, vel, desired, current), 0)
}

/// Fold one candidate into the three lane views (nearest-per-lane selection
/// with a strict-`<` first-wins tie rule and the zero-offset special case).
/// `lead_gap`/`rear_gap` are the candidate's `(±dx − L).max(0)`; only the
/// side selected by `dx`'s sign is read.
#[inline]
fn fold_candidate(views: &mut [LaneView; 3], lane_delta: i64, dx: f64, lead_gap: f64, rear_gap: f64, vel: f64) {
    let slot = match lane_delta {
        -1 => 0,
        0 => 1,
        1 => 2,
        _ => return,
    };
    if dx > 0.0 {
        if lead_gap < views[slot].lead_gap {
            views[slot].lead_gap = lead_gap;
            views[slot].lead_vel = vel;
        }
    } else if dx < 0.0 {
        if rear_gap < views[slot].rear_gap {
            views[slot].rear_gap = rear_gap;
        }
    } else {
        // Same position, adjacent lane: treat as zero gap both ways.
        views[slot].lead_gap = 0.0;
        views[slot].lead_vel = vel;
        views[slot].rear_gap = 0.0;
    }
}

/// Compute the three lane views from a neighbor scan. Shared by the BRACE
/// behavior (neighbors from the spatial index) and by tests; the hand-coded
/// baseline computes the same views from its per-lane sorted arrays.
pub fn views_from_scan(
    p: &TrafficParams,
    my_x: f64,
    my_lane: usize,
    neighbors: impl Iterator<Item = (f64, usize, f64)>, // (x, lane, vel)
) -> [LaneView; 3] {
    let mut views = [LaneView::open(p), LaneView::open(p), LaneView::open(p)];
    for (x, lane, vel) in neighbors {
        let dx = x - my_x;
        let lead = (dx - p.vehicle_length).max(0.0);
        let rear = (-dx - p.vehicle_length).max(0.0);
        fold_candidate(&mut views, lane as i64 - my_lane as i64, dx, lead, rear, vel);
    }
    views
}

/// The traffic model as a BRACE behavior.
#[derive(Debug, Clone)]
pub struct TrafficBehavior {
    params: TrafficParams,
    schema: AgentSchema,
}

impl TrafficBehavior {
    pub fn new(params: TrafficParams) -> Self {
        let schema = AgentSchema::builder("Vehicle")
            .state("vel")
            .state("desired")
            .state("changes")
            .effect("acc", Combinator::Sum)
            .effect("lane_delta", Combinator::Sum)
            // Visibility = lookahead; reachability = max movement in one
            // tick (longitudinal) — lane moves are 1 unit of y, far below.
            .visibility(params.lookahead)
            .reachability((params.max_speed * params.dt).max(1.0))
            .build()
            .expect("static schema is valid");
        TrafficBehavior { params, schema }
    }

    pub fn params(&self) -> &TrafficParams {
        &self.params
    }

    /// Seed an initial population: vehicles placed by a deterministic
    /// low-discrepancy scatter at the configured density.
    pub fn population(&self, seed: u64) -> Vec<Agent> {
        let p = &self.params;
        let mut rng = DetRng::seed_from_u64(seed).stream(0x7247);
        let per_lane = (p.segment * p.density).floor() as usize;
        let mut agents = Vec::with_capacity(per_lane * p.lanes);
        let mut id = 0u64;
        for lane in 0..p.lanes {
            for k in 0..per_lane {
                // Even spacing with jitter, never closer than 2 vehicle
                // lengths to keep the start-up transient mild.
                let spacing = p.segment / per_lane as f64;
                let x = (k as f64 + rng.range(0.25, 0.75)) * spacing;
                let desired = p.desired_speed * rng.range(0.8, 1.2);
                let mut a = Agent::new(AgentId::new(id), Vec2::new(x, lane as f64), &self.schema);
                a.state[state::VEL as usize] = desired * rng.range(0.7, 1.0);
                a.state[state::DESIRED as usize] = desired;
                agents.push(a);
                id += 1;
            }
        }
        agents
    }
}

impl Behavior for TrafficBehavior {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, me: AgentRef<'_>, nbrs: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let p = &self.params;
        let my_pos = me.pos();
        let lane = my_pos.y.round() as usize;
        let vel = me.state(state::VEL);
        let desired = me.state(state::DESIRED);
        let views = views_from_scan(
            p,
            my_pos.x,
            lane,
            nbrs.iter().map(|n| (n.pos.x, n.pos.y.round() as usize, n.agent.state(state::VEL))),
        );
        let left = (lane > 0).then_some(&views[0]);
        let right = (lane + 1 < p.lanes).then_some(&views[2]);
        let (acc, delta) = drive(p, lane, vel, desired, [left, Some(&views[1]), right], rng);
        eff.local(FieldId::new(effect::ACC), acc);
        eff.local(FieldId::new(effect::LANE), delta as f64);
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        let p = &self.params;
        let acc = me.effect(FieldId::new(effect::ACC));
        let delta = me.effect(FieldId::new(effect::LANE));
        let vel = (me.state[state::VEL as usize] + acc * p.dt).clamp(0.0, p.max_speed);
        me.state[state::VEL as usize] = vel;
        if delta != 0.0 {
            me.pos.y = (me.pos.y + delta).clamp(0.0, (p.lanes - 1) as f64);
            me.state[state::CHANGES as usize] += 1.0;
        }
        me.pos.x += vel * p.dt;
        // Constant upstream traffic: a vehicle leaving downstream is
        // replaced by a fresh one entering upstream in the same lane.
        if me.pos.x > p.segment {
            me.alive = false;
            let desired = p.desired_speed * ctx.rng.range(0.8, 1.2);
            let mut state = vec![0.0; 3];
            state[state::VEL as usize] = desired * 0.9;
            state[state::DESIRED as usize] = desired;
            let entry_x = ctx.rng.range(0.0, 5.0);
            ctx.spawn(Vec2::new(entry_x, me.pos.y), state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use brace_core::Simulation;
    use brace_spatial::IndexKind;

    fn small_params() -> TrafficParams {
        TrafficParams { segment: 1000.0, lanes: 3, density: 0.03, ..TrafficParams::default() }
    }

    #[test]
    fn population_matches_density_and_lanes() {
        let b = TrafficBehavior::new(small_params());
        let pop = b.population(1);
        assert_eq!(pop.len(), 30 * 3);
        for a in &pop {
            assert!(a.pos.x >= 0.0 && a.pos.x <= 1000.0);
            let lane = a.pos.y.round();
            assert!((0.0..3.0).contains(&lane));
            assert!(a.state[state::VEL as usize] > 0.0);
        }
    }

    #[test]
    fn free_flow_accelerates_to_desired_speed() {
        let p = small_params();
        let view = LaneView::open(&p);
        let acc = car_following_accel(&p, 10.0, 25.0, &view);
        assert!(acc > 0.0);
        // At the desired speed, acceleration vanishes.
        let settled = car_following_accel(&p, 25.0, 25.0, &view);
        assert!(settled.abs() < 1e-9);
    }

    #[test]
    fn emergency_regime_brakes_hard() {
        let p = small_params();
        let view = LaneView { lead_gap: 2.0, lead_vel: 0.0, rear_gap: 100.0 };
        let acc = car_following_accel(&p, 20.0, 25.0, &view);
        assert_eq!(acc, -p.max_decel);
    }

    #[test]
    fn gm_regime_tracks_lead_speed() {
        let p = small_params();
        // Lead slower -> decelerate; lead faster -> accelerate.
        let slower = LaneView { lead_gap: 30.0, lead_vel: 15.0, rear_gap: 100.0 };
        let faster = LaneView { lead_gap: 30.0, lead_vel: 30.0, rear_gap: 100.0 };
        assert!(car_following_accel(&p, 20.0, 25.0, &slower) < 0.0);
        assert!(car_following_accel(&p, 20.0, 25.0, &faster) > 0.0);
    }

    #[test]
    fn gap_acceptance_blocks_unsafe_changes() {
        let p = small_params();
        let tight = LaneView { lead_gap: 3.0, lead_vel: 20.0, rear_gap: 50.0 };
        let safe = LaneView { lead_gap: 50.0, lead_vel: 20.0, rear_gap: 50.0 };
        assert!(!gap_acceptable(&p, &tight));
        assert!(gap_acceptable(&p, &safe));
    }

    #[test]
    fn drive_prefers_clearly_better_lane() {
        let p = small_params();
        let blocked = LaneView { lead_gap: 10.0, lead_vel: 5.0, rear_gap: 100.0 };
        let open = LaneView::open(&p);
        // Deterministically test the decision by forcing chance() -> true.
        let mut rng = DetRng::seed_from_u64(1);
        let mut changed = 0;
        for _ in 0..200 {
            let (_, delta) = drive(&p, 1, 20.0, 25.0, [Some(&open), Some(&blocked), Some(&blocked)], &mut rng);
            if delta == -1 {
                changed += 1;
            }
        }
        // change_probability = 0.6 -> roughly 120 of 200.
        assert!((80..=160).contains(&changed), "changed {changed}");
    }

    #[test]
    fn views_from_scan_finds_nearest_per_lane() {
        let p = small_params();
        let neighbors = vec![
            (120.0, 1, 20.0), // lead, current lane
            (150.0, 1, 22.0), // farther lead, must lose
            (80.0, 1, 18.0),  // rear, current lane
            (130.0, 0, 30.0), // lead, left lane
            (90.0, 2, 10.0),  // rear, right lane
            (300.0, 3, 10.0), // two lanes away: ignored
        ];
        let views = views_from_scan(&p, 100.0, 1, neighbors.into_iter());
        assert_eq!(views[1].lead_gap, 15.0);
        assert_eq!(views[1].lead_vel, 20.0);
        assert_eq!(views[1].rear_gap, 15.0);
        assert_eq!(views[0].lead_gap, 25.0);
        assert_eq!(views[2].rear_gap, 5.0);
    }

    #[test]
    fn simulation_runs_and_conserves_population() {
        let b = TrafficBehavior::new(small_params());
        let pop = b.population(2);
        let n = pop.len();
        let mut sim = Simulation::builder(b).agents(pop).seed(3).index(IndexKind::Join).build().unwrap();
        sim.run(50);
        // Exit + respawn keeps the population constant.
        assert_eq!(sim.agents().len(), n);
        for a in sim.agents() {
            assert!(a.pos.x >= 0.0 && a.pos.x <= 1000.0 + 36.0, "x = {}", a.pos.x);
            let v = a.state[state::VEL as usize];
            assert!((0.0..=36.0).contains(&v), "vel = {v}");
        }
    }

    #[test]
    fn vehicles_do_not_pile_up() {
        // After a settling period, no two same-lane vehicles should overlap
        // by more than a vehicle length (car-following keeps spacing).
        let b = TrafficBehavior::new(small_params());
        let pop = b.population(4);
        let mut sim = Simulation::builder(b).agents(pop).seed(5).build().unwrap();
        sim.run(100);
        let mut by_lane: Vec<Vec<f64>> = vec![Vec::new(); 3];
        for a in sim.agents() {
            by_lane[a.pos.y.round() as usize].push(a.pos.x);
        }
        let mut collisions = 0;
        for lane in &mut by_lane {
            lane.sort_by(f64::total_cmp);
            collisions += lane.windows(2).filter(|w| w[1] - w[0] < 1.0).count();
        }
        let total: usize = by_lane.iter().map(|l| l.len()).sum();
        assert!(collisions < total / 20, "{collisions} near-collisions among {total} vehicles");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let b = TrafficBehavior::new(small_params());
            let pop = b.population(7);
            let mut sim = Simulation::builder(b).agents(pop).seed(7).build().unwrap();
            sim.run(20);
            sim.agents().iter().map(|a| (a.id, a.pos, a.state.clone())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
