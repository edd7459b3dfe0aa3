//! Miniature versions of the paper's experiments with their *shapes*
//! asserted. Runs in debug CI time; the full figures come from the `paper`
//! binary (`cargo run -p brace-bench --release -- all`).

use brace_common::stats::log_log_slope;
use brace_core::{Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, LoadBalancer};
use brace_models::{FishBehavior, FishParams, MitsimBaseline, TrafficBehavior, TrafficParams};
use brace_spatial::IndexKind;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Held for the whole of every wall-clock test. The harness runs tests on
/// parallel threads, and a shape timed while another timed test keeps the
/// cores busy bends. A failed test poisons the lock; the next one takes it
/// anyway, so one failure does not fail the rest.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

fn wall_clock() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Figure 3's shape: without indexing, tick cost grows markedly faster
/// with population than with the tile join, whose probe order is the index
/// (the paper's prototype used a KD-tree). Wall-time growth exponents over
/// a 4x size range, with wide margins for scheduler noise. The repetitions
/// of the six configurations are interleaved, so a burst of contention from
/// a concurrently running test slows one repetition of every size rather
/// than every repetition of one size (which bends the slope). The release
/// build's vectorised scan is cheap enough that at 400–1 600 vehicles its
/// per-vehicle costs still rival the quadratic term (exponent ≈ 1.45, just
/// over the bound), so release times four times the population: 1 600–6 400
/// vehicles give ≈ 1.85. The debug build already shows the shape at the
/// smaller sizes.
#[test]
fn fig3_shape_indexing_changes_growth_order() {
    let _timing = wall_clock();
    let mut sims = Vec::new();
    let segments = if cfg!(debug_assertions) { [5000.0, 10000.0, 20000.0] } else { [20000.0, 40000.0, 80000.0] };
    for segment in segments {
        let params = TrafficParams { segment, ..TrafficParams::default() };
        for kind in [IndexKind::Scan, IndexKind::Join] {
            let behavior = TrafficBehavior::new(params.clone());
            let pop = behavior.population(1);
            let n = pop.len() as f64;
            let mut sim = Simulation::builder(behavior).agents(pop).seed(1).index(kind).build().unwrap();
            sim.run(2); // settle and warm caches
            sims.push((kind, n, sim, f64::INFINITY));
        }
    }
    for _ in 0..5 {
        for (_, _, sim, best) in &mut sims {
            *best = best.min(timed(|| sim.run(3)));
        }
    }
    let secs = |of: IndexKind| -> Vec<(f64, f64)> {
        sims.iter().filter(|(kind, ..)| *kind == of).map(|&(_, n, _, best)| (n, best)).collect()
    };
    let (secs_scan, secs_join) = (secs(IndexKind::Scan), secs(IndexKind::Join));
    let slope_scan = log_log_slope(&secs_scan).unwrap();
    let slope_join = log_log_slope(&secs_join).unwrap();
    assert!(
        slope_scan > slope_join + 0.4,
        "scan must grow clearly faster than indexed: {slope_scan:.2} vs {slope_join:.2}"
    );
    assert!(slope_scan > 1.4, "scan growth must tend quadratic, got {slope_scan:.2}");
    assert!(slope_join < 1.5, "indexed growth must stay near-linear, got {slope_join:.2}");
}

/// MITSIM's role in Figure 3: the hand-coded baseline beats the generic
/// engine at equal physics (coarse wall-clock check, generous margin).
#[test]
fn fig3_shape_baseline_is_faster_than_generic_engine() {
    let _timing = wall_clock();
    let params = TrafficParams { segment: 4000.0, ..TrafficParams::default() };
    let t_base = timed(|| {
        let mut sim = MitsimBaseline::new(params.clone(), 1);
        sim.run(30);
    });
    let t_brace = timed(|| {
        let behavior = TrafficBehavior::new(params.clone());
        let pop = behavior.population(1);
        let mut sim = Simulation::builder(behavior).agents(pop).seed(1).build().unwrap();
        sim.run(30);
    });
    // The paper shows "comparable but inferior"; we only assert the
    // direction with a wide noise margin.
    assert!(t_base < t_brace * 1.5, "hand-coded baseline should not lose badly: {t_base}s vs {t_brace}s");
}

/// Figure 4's shape: the index's wall-time advantage shrinks as visibility
/// grows (probes return ever larger fractions of the school). The index is
/// the tile join. The school is
/// large enough that the scan's O(n) pass per probe dominates its tick at
/// small visibility in either build profile — at 1 200 agents the release
/// build's vectorised scan was cheap enough to hide the shape — and, as in
/// Figure 3's test, the repetitions of the four configurations are
/// interleaved.
#[test]
fn fig4_shape_index_advantage_shrinks_with_visibility() {
    let _timing = wall_clock();
    let n = 3000;
    let radius = (n as f64 / std::f64::consts::PI / 0.5).sqrt();
    let mut sims = Vec::new();
    for rho in [2.0, radius] {
        for kind in [IndexKind::Scan, IndexKind::Join] {
            let behavior = FishBehavior::new(FishParams { rho, school_radius: radius, ..FishParams::default() });
            let pop = behavior.population(n, 2);
            let sim = Simulation::builder(behavior).agents(pop).seed(2).index(kind).build().unwrap();
            sims.push((rho, kind, sim, f64::INFINITY));
        }
    }
    // Best of four one-tick rounds; the first also warms up.
    for _ in 0..4 {
        for (.., sim, best) in &mut sims {
            *best = best.min(timed(|| sim.run(1)));
        }
    }
    let secs = |at: f64, of: IndexKind| sims.iter().find(|(rho, kind, ..)| *rho == at && *kind == of).unwrap().3;
    let ratio_at = |rho: f64| secs(rho, IndexKind::Scan) / secs(rho, IndexKind::Join);
    let small_vis = ratio_at(2.0);
    let large_vis = ratio_at(radius);
    assert!(
        small_vis > large_vis * 1.4,
        "index advantage must shrink with visibility: {small_vis:.1}x -> {large_vis:.1}x"
    );
    assert!(small_vis > 2.0, "at small visibility the index must prune hard, got {small_vis:.1}x");
}

/// Figure 5's communication shape (timing-free): the non-local predator
/// needs a second communication round and ships effect bytes; the inverted
/// script does neither. (Throughput comparisons live in the bench harness.)
#[test]
fn fig5_shape_inversion_eliminates_second_reduce_pass() {
    use brace_common::{AgentId, DetRng, Vec2};
    use brace_core::Agent;
    let run = |inverted: bool| {
        let behavior = brace_models::scripts::predator(inverted).unwrap();
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(5);
        let agents: Vec<Agent> = (0..200)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 25.0), rng.range(0.0, 25.0)), &schema);
                a.state[0] = rng.range(0.5, 1.5);
                a
            })
            .collect();
        let cfg = ClusterConfig {
            workers: 3,
            epoch_len: 5,
            seed: 5,
            space_x: (0.0, 25.0),
            load_balance: false,
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), agents, cfg).unwrap();
        sim.run_ticks(10).unwrap();
        let s = sim.stats();
        (s.comm_rounds_per_tick, s.net.effects.bytes)
    };
    let (rounds_nl, bytes_nl) = run(false);
    let (rounds_inv, bytes_inv) = run(true);
    assert_eq!(rounds_nl, 2);
    assert!(bytes_nl > 0);
    assert_eq!(rounds_inv, 1);
    assert_eq!(bytes_inv, 0);
}

/// Figures 7/8's mechanism: a drifting school concentrates on one border
/// partition without load balancing; the balancer keeps ownership spread.
/// Asserted on agent counts (scheduler-independent).
#[test]
fn fig7_shape_load_balancer_tracks_drifting_school() {
    let n = 400;
    let params = FishParams {
        informed_a: 1.0,
        informed_b: 0.0,
        omega: 2.0,
        jitter: 0.02,
        school_radius: 15.0,
        ..FishParams::default()
    };
    let run = |lb: bool| {
        let behavior = FishBehavior::new(params.clone());
        let pop = behavior.population(n, 7);
        let cfg = ClusterConfig {
            workers: 4,
            epoch_len: 5,
            seed: 7,
            space_x: (-15.0, 15.0),
            load_balance: lb,
            balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 1.0 },
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
        sim.run_ticks(120).unwrap();
        (sim.stats().last_imbalance(), sim.stats().repartitions)
    };
    let (imb_nolb, rep_nolb) = run(false);
    let (imb_lb, rep_lb) = run(true);
    assert_eq!(rep_nolb, 0);
    assert!(rep_lb >= 1, "balancer must act");
    assert!(imb_nolb > 3.0, "without LB nearly everything sits on one of 4 workers, got {imb_nolb}");
    assert!(imb_lb < 2.0, "with LB ownership stays spread, got {imb_lb}");
}

/// Table 2's shape in miniature: the two traffic engines agree on density
/// and velocity within a few percent after settling.
#[test]
fn table2_shape_engines_agree_on_aggregates() {
    use brace_models::validation::{compare, TrafficObserver};
    let params = TrafficParams { segment: 2500.0, ..TrafficParams::default() };
    let behavior = TrafficBehavior::new(params.clone());
    let pop = behavior.population(12);
    let mut brace_sim = Simulation::builder(behavior).agents(pop).seed(12).build().unwrap();
    let mut baseline = MitsimBaseline::new(params.clone(), 12);
    brace_sim.run(60);
    baseline.run(60);
    let mut oa = TrafficObserver::new(&params, 30);
    let mut ob = TrafficObserver::new(&params, 30);
    for _ in 0..120 {
        oa.observe_agents(&brace_sim.agents());
        ob.observe_baseline(&baseline);
        brace_sim.step();
        baseline.step();
    }
    for row in compare(&oa, &ob) {
        assert!(row.velocity_rmspe < 0.15, "lane {} velocity RMSPE {}", row.lane, row.velocity_rmspe);
        assert!(row.density_rmspe < 0.35, "lane {} density RMSPE {}", row.lane, row.density_rmspe);
    }
}
