//! The experiment runners, one per figure/table of the paper's §5.

use crate::{max_workers, Scale};
use brace_common::{AgentId, DetRng, Vec2};
use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, LoadBalancer};
use brace_models::scripts;
use brace_models::validation::{compare, Table2Row, TrafficObserver};
use brace_models::{FishBehavior, FishParams, MitsimBaseline, TrafficBehavior, TrafficParams};
use brace_spatial::IndexKind;
use std::sync::Arc;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Best (smallest) wall time of `reps` runs of `f` — the standard defense
/// against scheduler noise on small shared machines; each rep advances the
/// simulation, which is fine for steady-state workloads.
fn best_of(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (_, secs) = timed(&mut f);
        best = best.min(secs);
    }
    best
}

// ---------------------------------------------------------------------------
// Figure 3 — traffic: indexing vs segment length
// ---------------------------------------------------------------------------

/// One segment-length point of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    pub segment: f64,
    pub agents: usize,
    /// Hand-coded baseline (MITSIM's role).
    pub mitsim_secs: f64,
    /// BRACE with the scan "index" — quadratic.
    pub noidx_secs: f64,
    /// BRACE with the KD-tree — log-linear.
    pub idx_secs: f64,
}

/// Figure 3: total simulation time vs segment length, three engines.
///
/// Expected shape: `noidx` grows ~quadratically with segment length, `idx`
/// ~linearly (log-linear), and `mitsim` is the fastest but of the same
/// growth order as `idx`.
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let (segments, ticks): (&[f64], u64) = match scale {
        Scale::Small => (&[2500.0, 5000.0, 10000.0, 20000.0], 30),
        Scale::Paper => (&[2500.0, 5000.0, 10000.0, 15000.0, 20000.0], 100),
    };
    segments
        .iter()
        .map(|&segment| {
            let params = TrafficParams { segment, ..TrafficParams::default() };
            let (_, mitsim_secs) = timed(|| {
                let mut sim = MitsimBaseline::new(params.clone(), 1);
                sim.run(ticks);
                sim.len()
            });
            let run_brace = |kind: IndexKind| {
                let behavior = TrafficBehavior::new(params.clone());
                let pop = behavior.population(1);
                let n = pop.len();
                let (_, secs) = timed(|| {
                    let mut sim = Simulation::builder(behavior).agents(pop).seed(1).index(kind).build().unwrap();
                    sim.run(ticks);
                });
                (n, secs)
            };
            let (agents, noidx_secs) = run_brace(IndexKind::Scan);
            let (_, idx_secs) = run_brace(IndexKind::KdTree);
            Fig3Row { segment, agents, mitsim_secs, noidx_secs, idx_secs }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4 — fish: indexing vs visibility range
// ---------------------------------------------------------------------------

/// One visibility point of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    pub visibility: f64,
    pub noidx_secs: f64,
    pub idx_secs: f64,
}

/// Figure 4: total simulation time vs visibility range ρ, with and without
/// the KD-tree.
///
/// Expected shape: indexing wins by 2–3× at small ρ; the advantage shrinks
/// as ρ grows (each probe returns more of the school), exactly the paper's
/// observation.
pub fn fig4(scale: Scale) -> Vec<Fig4Row> {
    let (vis_points, n, ticks): (&[f64], usize, u64) = match scale {
        Scale::Small => (&[2.0, 4.0, 8.0, 16.0, 32.0], 2000, 10),
        Scale::Paper => (&[4.0, 8.0, 16.0, 32.0, 64.0, 128.0], 4000, 20),
    };
    // Constant density: the school radius grows with the population.
    let radius = (n as f64 / std::f64::consts::PI / 0.5).sqrt();
    vis_points
        .iter()
        .map(|&rho| {
            let run = |kind: IndexKind| {
                let params = FishParams { rho, school_radius: radius, ..FishParams::default() };
                let behavior = FishBehavior::new(params);
                let pop = behavior.population(n, 2);
                let (_, secs) = timed(|| {
                    let mut sim = Simulation::builder(behavior).agents(pop).seed(2).index(kind).build().unwrap();
                    sim.run(ticks);
                });
                secs
            };
            Fig4Row { visibility: rho, noidx_secs: run(IndexKind::Scan), idx_secs: run(IndexKind::KdTree) }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5 — predator: effect inversion
// ---------------------------------------------------------------------------

/// Throughputs (agent-ticks/second) of the four Figure 5 configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    pub workers: usize,
    pub agents: usize,
    /// Scan index, non-local script (two reduce passes).
    pub no_opt: f64,
    /// KD-tree, non-local script.
    pub idx_only: f64,
    /// Scan index, effect-inverted script (single reduce pass).
    pub inv_only: f64,
    /// KD-tree + inversion.
    pub idx_inv: f64,
    /// Bytes of effect traffic in the non-local runs (zero when inverted).
    pub effect_bytes_nonlocal: u64,
    pub effect_bytes_inverted: u64,
}

/// Figure 5: the BRASIL predator script in its non-local form vs after
/// automatic effect inversion, with and without indexing, on the cluster.
///
/// Expected shape: `idx_only > no_opt`, `inv_only > no_opt`,
/// `idx_inv` highest; inversion buys a double-digit percentage in both
/// pairs (paper: > 20%) by eliminating the second reduce pass.
pub fn fig5(scale: Scale) -> Fig5Result {
    let (n, side, epochs, warmup): (usize, f64, u64, u64) = match scale {
        Scale::Small => (4000, 125.0, 12, 2),
        Scale::Paper => (10000, 200.0, 24, 4),
    };
    let workers = max_workers().min(4);
    let run = |inverted: bool, kind: IndexKind| -> (f64, u64) {
        let behavior = scripts::predator(inverted).expect("predator script compiles");
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(5);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a =
                    Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, side), rng.range(0.0, side)), &schema);
                a.state[0] = rng.range(0.5, 1.5); // size
                a
            })
            .collect();
        let cfg = ClusterConfig {
            workers,
            epoch_len: 5,
            index: kind,
            seed: 5,
            space_x: (0.0, side),
            load_balance: false,
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), agents, cfg).unwrap();
        sim.run_epochs(warmup).unwrap();
        sim.reset_net();
        let wall = best_of(3, || sim.run_epochs(epochs).unwrap());
        let ticks = epochs * 5;
        let tput = (n as u64 * ticks) as f64 / wall;
        (tput, sim.stats().net.effects.bytes)
    };
    let (no_opt, eff_nl) = run(false, IndexKind::Scan);
    let (idx_only, _) = run(false, IndexKind::KdTree);
    let (inv_only, eff_inv) = run(true, IndexKind::Scan);
    let (idx_inv, _) = run(true, IndexKind::KdTree);
    Fig5Result {
        workers,
        agents: n,
        no_opt,
        idx_only,
        inv_only,
        idx_inv,
        effect_bytes_nonlocal: eff_nl,
        effect_bytes_inverted: eff_inv,
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — traffic scale-up
// ---------------------------------------------------------------------------

/// One worker-count point of Figure 6/7.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleUpRow {
    pub workers: usize,
    pub agents: usize,
    pub throughput: f64,
}

/// Figure 6: traffic scale-up — problem size grows linearly with workers,
/// so ideal scale-up is constant epoch time ⇒ linearly growing throughput.
///
/// Expected shape: throughput ≈ workers × single-worker throughput (the
/// road's uniform density keeps load balanced without any balancer).
pub fn fig6(scale: Scale) -> Vec<ScaleUpRow> {
    let (seg_per_worker, ticks): (f64, u64) = match scale {
        Scale::Small => (1500.0, 30),
        Scale::Paper => (5000.0, 100),
    };
    (1..=max_workers())
        .map(|workers| {
            let params =
                TrafficParams { segment: seg_per_worker * workers as f64, density: 0.04, ..TrafficParams::default() };
            let behavior = TrafficBehavior::new(params.clone());
            let pop = behavior.population(6);
            let agents = pop.len();
            let cfg = ClusterConfig {
                workers,
                epoch_len: 10,
                seed: 6,
                space_x: (0.0, params.segment),
                load_balance: false,
                ..ClusterConfig::default()
            };
            let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
            // Warm up once, then take the best of three measured windows.
            sim.run_ticks(ticks).unwrap();
            let wall = best_of(3, || sim.run_ticks(ticks).unwrap());
            ScaleUpRow { workers, agents, throughput: (agents as u64 * ticks) as f64 / wall }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7 — fish scale-up, with and without load balancing
// ---------------------------------------------------------------------------

/// One worker-count point of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    pub workers: usize,
    pub agents: usize,
    pub tput_lb: f64,
    pub tput_nolb: f64,
    pub final_imbalance_lb: f64,
    pub final_imbalance_nolb: f64,
}

/// The Figures 7/8 workload: a school led by informed individuals marches
/// in one direction, so its spatial distribution drifts out of the initial
/// partitioning. Without load balancing every fish eventually clamps into
/// the border partition (the paper's "load at all other nodes falls to
/// zero", degenerated to one node); with balancing the column boundaries
/// follow the school.
fn drifting_school(n: usize) -> (FishBehavior, Vec<Agent>) {
    // Migration configuration: every fish is informed of the travel
    // direction, so the whole school translates out of the initial
    // partitioning — the crispest form of the distribution drift that
    // Figures 7/8 study. (Two opposed informed classes, the paper's exact
    // configuration, produce the same effect over ≥4 partitions; see
    // `FishBehavior` tests for the school-splitting behavior itself.)
    let params = FishParams {
        informed_a: 1.0,
        informed_b: 0.0,
        omega: 2.0,
        jitter: 0.02,
        school_radius: (n as f64 / std::f64::consts::PI / 0.5).sqrt(),
        ..FishParams::default()
    };
    let behavior = FishBehavior::new(params);
    let pop = behavior.population(n, 7);
    (behavior, pop)
}

/// Drift for `drift_ticks`, then measure throughput over `measure_ticks` —
/// the paper's figures report the steady state *after* the distribution
/// has shifted, which is where balancing matters.
fn fish_cluster(n: usize, workers: usize, lb: bool, drift_ticks: u64, measure_ticks: u64) -> (f64, f64) {
    let (behavior, pop) = drifting_school(n);
    let radius = behavior.params().school_radius;
    let cfg = ClusterConfig {
        workers,
        epoch_len: 10,
        seed: 7,
        space_x: (-radius, radius),
        load_balance: lb,
        balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 2.0 },
        ..ClusterConfig::default()
    };
    let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
    sim.run_ticks(drift_ticks).unwrap();
    let (_, wall) = timed(|| sim.run_ticks(measure_ticks).unwrap());
    let tput = (n as u64 * measure_ticks) as f64 / wall;
    (tput, sim.stats().last_imbalance())
}

/// Figure 7: fish-school scale-up under a drifting spatial distribution.
///
/// Expected shape: with load balancing, throughput grows with workers;
/// without it the school concentrates on the border partition and extra
/// workers stop helping (the curves separate as workers grow). The
/// imbalance columns show the mechanism directly: no-LB approaches the
/// worker count (= everything on one node), LB stays near 1.
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    let (n_per_worker, drift, measure): (usize, u64, u64) = match scale {
        Scale::Small => (1500, 200, 100),
        Scale::Paper => (5000, 400, 200),
    };
    (1..=max_workers())
        .map(|workers| {
            let n = n_per_worker * workers;
            let (tput_lb, imb_lb) = fish_cluster(n, workers, true, drift, measure);
            let (tput_nolb, imb_nolb) = fish_cluster(n, workers, false, drift, measure);
            Fig7Row {
                workers,
                agents: n,
                tput_lb,
                tput_nolb,
                final_imbalance_lb: imb_lb,
                final_imbalance_nolb: imb_nolb,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8 — fish: epoch time over time
// ---------------------------------------------------------------------------

/// The two per-epoch wall-time series of Figure 8.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Fig8Series {
    pub epoch_secs_lb: Vec<f64>,
    pub epoch_secs_nolb: Vec<f64>,
}

/// Figure 8: per-epoch simulation time as the fish distribution drifts.
///
/// Expected shape: flat with load balancing; growing without it toward the
/// one-worker-does-everything plateau.
pub fn fig8(scale: Scale) -> Fig8Series {
    let (n, epochs): (usize, u64) = match scale {
        Scale::Small => (4000, 30),
        Scale::Paper => (12000, 80),
    };
    let workers = max_workers().min(4);
    let run = |lb: bool| -> Vec<f64> {
        let (behavior, pop) = drifting_school(n);
        let radius = behavior.params().school_radius;
        let cfg = ClusterConfig {
            workers,
            epoch_len: 10,
            seed: 8,
            space_x: (-radius, radius),
            load_balance: lb,
            balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 2.0 },
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
        sim.run_epochs(epochs).unwrap();
        sim.stats().epoch_wall_ns.iter().map(|&ns| ns as f64 / 1e9).collect()
    };
    Fig8Series { epoch_secs_lb: run(true), epoch_secs_nolb: run(false) }
}

// ---------------------------------------------------------------------------
// Table 2 — traffic validation
// ---------------------------------------------------------------------------

/// Table 2 plus per-lane context (mean vehicles per lane, as the paper
/// discusses for the underpopulated rightmost lane) and the relative error
/// of the mean lane-change rate. The windowed change-frequency RMSPE is
/// noisy by construction (change events are bursty and the two engines
/// evolve with independent randomness); the mean-rate error shows the
/// engines agree on the *rate* even when windows decorrelate.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    pub rows: Vec<Table2Row>,
    pub mean_vehicles_per_lane: Vec<f64>,
    /// |mean change rate (BRACE) − mean change rate (baseline)| / baseline.
    pub mean_change_rate_err: Vec<f64>,
    pub segment: f64,
    pub observed_ticks: u64,
}

/// Table 2: RMSPE of lane-change frequency, density and velocity between
/// the BRACE traffic behavior and the hand-coded baseline, per lane.
///
/// Expected shape: single-digit-to-low-tens percentage RMSPE on lanes 1–3;
/// the rightmost lane is worst because reluctance keeps it sparse and
/// relative errors blow up on small counts — the paper observes exactly
/// this on its Lane 4.
pub fn table2(scale: Scale) -> Table2 {
    let (segment, warmup, observe, window): (f64, u64, u64, u64) = match scale {
        Scale::Small => (5000.0, 100, 600, 60),
        Scale::Paper => (20000.0, 200, 1200, 100),
    };
    let params = TrafficParams { segment, ..TrafficParams::default() };
    let behavior = TrafficBehavior::new(params.clone());
    let pop = behavior.population(12);
    let mut brace_sim = Simulation::builder(behavior).agents(pop).seed(12).build().unwrap();
    let mut baseline = MitsimBaseline::new(params.clone(), 12);
    brace_sim.run(warmup);
    baseline.run(warmup);
    let mut obs_brace = TrafficObserver::new(&params, window);
    let mut obs_base = TrafficObserver::new(&params, window);
    for _ in 0..observe {
        obs_brace.observe_agents(&brace_sim.agents());
        obs_base.observe_baseline(&baseline);
        brace_sim.step();
        baseline.step();
    }
    let rows = compare(&obs_brace, &obs_base);
    let mean_vehicles_per_lane = (0..params.lanes).map(|l| obs_base.mean_density(l) * segment).collect();
    let mean_change_rate_err = (0..params.lanes)
        .map(|l| {
            let base = obs_base.mean_change_freq(l);
            if base == 0.0 {
                f64::NAN
            } else {
                (obs_brace.mean_change_freq(l) - base).abs() / base
            }
        })
        .collect();
    Table2 { rows, mean_vehicles_per_lane, mean_change_rate_err, segment, observed_ticks: observe }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment smoke tests at miniature scale live in the workspace
    // integration suite (`tests/paper_shapes.rs`), which asserts the
    // *shapes*. Here we only check plumbing that needs no simulation time.

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn max_workers_bounded() {
        let w = max_workers();
        assert!((1..=8).contains(&w));
    }
}
