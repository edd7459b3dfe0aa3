//! The experiment runners, one per figure/table of the paper's §5 — the
//! only code that builds and runs a paper workload. The `paper` binary
//! prints what they return; `tests/paper_shapes.rs` calls them at
//! [`Scale::Small`] and asserts.

use crate::{max_workers, Scale};
use brace_common::{AgentId, DetRng, Vec2};
use brace_core::{Agent, Behavior, Simulation};
use brace_mapreduce::{ClusterConfig, ClusterSim, LoadBalancer};
use brace_models::scripts;
use brace_models::validation::{compare, Table2Row, TrafficObserver};
use brace_models::{FishBehavior, FishParams, MitsimBaseline, TrafficBehavior, TrafficParams};
use brace_spatial::IndexKind;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Best (smallest) wall time of `reps` runs of `f` — the standard defense
/// against scheduler noise on small shared machines; each rep advances the
/// simulation, which is fine for steady-state workloads.
fn best_of(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..reps).map(|_| timed(&mut f)).fold(f64::INFINITY, f64::min)
}

/// Best wall time of each configuration over `rounds` rounds that run every
/// configuration once, in turn: a burst of contention then slows one round
/// of every configuration rather than every round of one (which would bend
/// a growth slope).
fn interleaved_best(configs: &mut [Box<dyn FnMut() + '_>], rounds: u32) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; configs.len()];
    for _ in 0..rounds {
        for (run, best) in configs.iter_mut().zip(&mut best) {
            *best = best.min(timed(run));
        }
    }
    best
}

/// The radius that gives a school of `n` fish the default density.
fn school_radius(n: usize) -> f64 {
    (n as f64 / std::f64::consts::PI / 0.5).sqrt()
}

// ---------------------------------------------------------------------------
// Figure 3 — traffic: indexing vs segment length
// ---------------------------------------------------------------------------

/// One segment-length point of Figure 3: the best wall time of one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    pub segment: f64,
    pub agents: usize,
    /// Hand-coded baseline (MITSIM's role).
    pub mitsim_tick_secs: f64,
    /// BRACE with the scan "index" — quadratic.
    pub noidx_tick_secs: f64,
    /// BRACE with the sort-merge tile join — log-linear.
    pub idx_tick_secs: f64,
}

/// Figure 3: simulation time vs segment length, three engines. Every
/// engine settles two ticks, then the rounds of all of them interleave.
///
/// Expected shape: `noidx` grows ~quadratically with segment length, `idx`
/// ~linearly (log-linear), and `mitsim` is the fastest but of the same
/// growth order as `idx`.
pub fn fig3(scale: Scale) -> Vec<Fig3Row> {
    let (segments, rounds, ticks): (&[f64], u32, u64) = match scale {
        // At 400–1 600 vehicles the vectorised scan's per-vehicle costs
        // still rival the quadratic term (exponent ≈ 1.45), so `Small` runs
        // 1 600–6 400 vehicles, which give ≈ 1.85. `Paper` spans at least
        // `Small`'s roads, so its exponent is the quadratic one too.
        Scale::Small => (&[20000.0, 40000.0, 80000.0], 5, 3),
        Scale::Paper => (&[20000.0, 40000.0, 60000.0, 80000.0, 100000.0], 5, 10),
    };
    let mut agents = Vec::new();
    let mut configs: Vec<Box<dyn FnMut()>> = Vec::new();
    for &segment in segments {
        let params = TrafficParams { segment, ..TrafficParams::default() };
        let mut mitsim = MitsimBaseline::new(params.clone(), 1);
        mitsim.run(2);
        configs.push(Box::new(move || mitsim.run(ticks)));
        for kind in [IndexKind::Scan, IndexKind::Join] {
            let behavior = TrafficBehavior::new(params.clone());
            let pop = behavior.population(1);
            agents.push(pop.len());
            let mut sim = Simulation::builder(behavior).agents(pop).seed(1).index(kind).build().unwrap();
            sim.run(2); // settle and warm caches
            configs.push(Box::new(move || sim.run(ticks)));
        }
    }
    let best = interleaved_best(&mut configs, rounds);
    let per_tick = |secs: f64| secs / ticks as f64;
    segments
        .iter()
        .zip(best.chunks(3))
        .zip(agents.chunks(2))
        .map(|((&segment, best), agents)| Fig3Row {
            segment,
            agents: agents[0],
            mitsim_tick_secs: per_tick(best[0]),
            noidx_tick_secs: per_tick(best[1]),
            idx_tick_secs: per_tick(best[2]),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4 — fish: indexing vs visibility range
// ---------------------------------------------------------------------------

/// One visibility point of Figure 4: the best wall time of one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    pub visibility: f64,
    pub noidx_tick_secs: f64,
    pub idx_tick_secs: f64,
}

/// Figure 4: simulation time vs visibility range ρ, with and without
/// indexing. The paper's prototype indexed with a KD-tree; the indexed runs
/// here time the sort-merge tile join, whose per-tick probe order is the
/// index. The rounds of every configuration interleave; the first warms up.
///
/// Expected shape: indexing wins by 2–3× at small ρ; the advantage shrinks
/// as ρ grows (each probe returns more of the school), exactly the paper's
/// observation.
pub fn fig4(scale: Scale) -> Vec<Fig4Row> {
    // At `Small` the school is large enough that the scan's O(n) pass per
    // probe dominates its tick at small visibility in either build profile;
    // at 1 200 fish the release build's vectorised scan hid the shape.
    let (n, rounds, ticks) = match scale {
        Scale::Small => (3000, 4, 1),
        Scale::Paper => (4000, 4, 5),
    };
    // Constant density: the school radius grows with the population.
    let radius = school_radius(n);
    let vis_points = match scale {
        Scale::Small => vec![2.0, radius],
        Scale::Paper => vec![4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
    };
    let mut configs: Vec<Box<dyn FnMut()>> = Vec::new();
    for &rho in &vis_points {
        for kind in [IndexKind::Scan, IndexKind::Join] {
            let behavior = FishBehavior::new(FishParams { rho, school_radius: radius, ..FishParams::default() });
            let pop = behavior.population(n, 2);
            let mut sim = Simulation::builder(behavior).agents(pop).seed(2).index(kind).build().unwrap();
            configs.push(Box::new(move || sim.run(ticks)));
        }
    }
    let best = interleaved_best(&mut configs, rounds);
    vis_points
        .iter()
        .zip(best.chunks(2))
        .map(|(&visibility, best)| Fig4Row {
            visibility,
            noidx_tick_secs: best[0] / ticks as f64,
            idx_tick_secs: best[1] / ticks as f64,
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
    /// Tile join, non-local script.
    pub idx_only: f64,
    /// Scan index, effect-inverted script (single reduce pass).
    pub inv_only: f64,
    /// Tile join + inversion.
    pub idx_inv: f64,
    /// Communication rounds per tick of the non-local and inverted scripts.
    pub rounds_nonlocal: u32,
    pub rounds_inverted: u32,
    /// Bytes of effect traffic in the non-local runs (zero when inverted).
    pub effect_bytes_nonlocal: u64,
    pub effect_bytes_inverted: u64,
    /// Each configuration's world after its last epoch, sorted by id, in
    /// the order of the throughputs above.
    pub final_worlds: [Vec<Agent>; 4],
}

impl Fig5Result {
    /// Whether the four configurations left the same world bit for bit:
    /// effect inversion is an exact rewrite and the index changes no result.
    pub fn worlds_bit_identical(&self) -> bool {
        let bits = |world: &[Agent]| -> Vec<(AgentId, bool, Vec<u64>)> {
            let values =
                |a: &Agent| [a.pos.x, a.pos.y].iter().chain(&a.state).chain(&a.effects).map(|v| v.to_bits()).collect();
            world.iter().map(|a| (a.id, a.alive, values(a))).collect()
        };
        let first = bits(&self.final_worlds[0]);
        self.final_worlds[1..].iter().all(|world| bits(world) == first)
    }
}

/// Figure 5: the BRASIL predator script in its non-local form vs after
/// automatic effect inversion, with and without indexing, on the cluster.
///
/// Expected shape: `idx_only > no_opt`, `inv_only > no_opt`,
/// `idx_inv` highest; inversion buys a double-digit percentage in both
/// pairs (paper: > 20%) by eliminating the second reduce pass.
pub fn fig5(scale: Scale) -> Fig5Result {
    let (n, side, workers, epochs, warmup): (usize, f64, usize, u64, u64) = match scale {
        Scale::Small => (200, 25.0, 3, 1, 0),
        Scale::Paper => (10000, 200.0, max_workers().min(4), 24, 4),
    };
    let run = |inverted: bool, kind: IndexKind| -> (f64, u32, u64, Vec<Agent>) {
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
        let warm = sim.stats().net.effects.bytes;
        let wall = best_of(3, || sim.run_epochs(epochs).unwrap());
        let ticks = epochs * 5;
        let tput = (n as u64 * ticks) as f64 / wall;
        let stats = sim.stats();
        (tput, stats.comm_rounds_per_tick, stats.net.effects.bytes - warm, sim.collect_agents().unwrap())
    };
    let (no_opt, rounds_nonlocal, effect_bytes_nonlocal, no_opt_world) = run(false, IndexKind::Scan);
    let (idx_only, .., idx_only_world) = run(false, IndexKind::Join);
    let (inv_only, rounds_inverted, effect_bytes_inverted, inv_only_world) = run(true, IndexKind::Scan);
    let (idx_inv, .., idx_inv_world) = run(true, IndexKind::Join);
    Fig5Result {
        workers,
        agents: n,
        no_opt,
        idx_only,
        inv_only,
        idx_inv,
        rounds_nonlocal,
        rounds_inverted,
        effect_bytes_nonlocal,
        effect_bytes_inverted,
        final_worlds: [no_opt_world, idx_only_world, inv_only_world, idx_inv_world],
    }
}

// ---------------------------------------------------------------------------
// Figure 6 — traffic scale-up
// ---------------------------------------------------------------------------

/// One worker-count point of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleUpRow {
    pub workers: usize,
    pub agents: usize,
    pub throughput: f64,
    /// Mean owned agents per worker per measured tick.
    pub agents_per_worker_tick: f64,
    /// Mean replica bytes (full records and deltas) a worker receives per
    /// measured tick.
    pub replica_bytes_per_worker_tick: f64,
}

/// Figure 6: traffic scale-up — problem size grows linearly with workers,
/// so ideal scale-up is constant epoch time ⇒ linearly growing throughput.
/// A superstep's cost is its per-worker work and bytes, so the rows also
/// carry those, which no core count bends.
///
/// Expected shape: throughput ≈ workers × single-worker throughput (the
/// road's uniform density keeps load balanced without any balancer), and
/// agents and replica bytes per worker per tick stay flat.
pub fn fig6(scale: Scale) -> Vec<ScaleUpRow> {
    let (workers, seg_per_worker, ticks): (Vec<usize>, f64, u64) = match scale {
        Scale::Small => (vec![2, 3, 4], 1000.0, 10),
        Scale::Paper => ((1..=max_workers()).collect(), 5000.0, 100),
    };
    workers
        .into_iter()
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
            let before = sim.stats();
            let wall = best_of(3, || sim.run_ticks(ticks).unwrap());
            let after = sim.stats();
            let worker_ticks = (workers as u64 * (after.ticks - before.ticks)) as f64;
            ScaleUpRow {
                workers,
                agents,
                throughput: (agents as u64 * ticks) as f64 / wall,
                agents_per_worker_tick: (after.agent_ticks - before.agent_ticks) as f64 / worker_ticks,
                replica_bytes_per_worker_tick: (after.net.replica_bytes() - before.net.replica_bytes()) as f64
                    / worker_ticks,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 7 and 8 — fish: a school drifting out of its partitioning
// ---------------------------------------------------------------------------

/// One drifting-school cluster run: a school led by informed individuals
/// marches in one direction, so its spatial distribution drifts out of the
/// initial partitioning. Without load balancing every fish eventually
/// clamps into the border partition (the paper's "load at all other nodes
/// falls to zero", degenerated to one node); with balancing the column
/// boundaries follow the school.
struct Drift {
    fish: usize,
    radius: f64,
    workers: usize,
    epoch_len: u64,
    migration_cost_ticks: f64,
    seed: u64,
    /// Ticks run before throughput is timed — the paper's figures report
    /// the steady state *after* the distribution has shifted, which is
    /// where balancing matters.
    drift_ticks: u64,
    measure_ticks: u64,
}

/// What one drifting-school run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRun {
    /// Agent-ticks per second over the measured ticks.
    pub throughput: f64,
    pub final_imbalance: f64,
    pub repartitions: u64,
    pub epoch_secs: Vec<f64>,
    /// Each epoch's busiest worker's share of the owned agents.
    pub busiest_share: Vec<f64>,
}

/// The LB-on and LB-off runs of one drifting school: a point of Figure 7,
/// or Figure 8's two series.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPair {
    pub workers: usize,
    pub fish: usize,
    pub lb: DriftRun,
    pub nolb: DriftRun,
}

impl Drift {
    fn run(&self, lb: bool) -> DriftRun {
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
            school_radius: self.radius,
            ..FishParams::default()
        };
        let behavior = FishBehavior::new(params);
        let pop = behavior.population(self.fish, 7);
        let cfg = ClusterConfig {
            workers: self.workers,
            epoch_len: self.epoch_len,
            seed: self.seed,
            space_x: (-self.radius, self.radius),
            load_balance: lb,
            balancer: LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: self.migration_cost_ticks },
            ..ClusterConfig::default()
        };
        let mut sim = ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap();
        sim.run_ticks(self.drift_ticks).unwrap();
        let wall = timed(|| sim.run_ticks(self.measure_ticks).unwrap());
        let stats = sim.stats();
        let share =
            |owned: &Vec<usize>| *owned.iter().max().unwrap_or(&0) as f64 / owned.iter().sum::<usize>().max(1) as f64;
        DriftRun {
            throughput: (self.fish as u64 * self.measure_ticks) as f64 / wall,
            final_imbalance: stats.last_imbalance(),
            repartitions: stats.repartitions,
            epoch_secs: stats.epoch_wall_ns.iter().map(|&ns| ns as f64 / 1e9).collect(),
            busiest_share: stats.agents_per_worker.iter().map(share).collect(),
        }
    }

    fn pair(&self) -> DriftPair {
        DriftPair { workers: self.workers, fish: self.fish, lb: self.run(true), nolb: self.run(false) }
    }
}

/// At `Small`, Figures 7 and 8 read one pair of runs, made once per process.
fn small_drift_pair() -> &'static DriftPair {
    static PAIR: OnceLock<DriftPair> = OnceLock::new();
    PAIR.get_or_init(|| {
        Drift {
            fish: 400,
            radius: 15.0,
            workers: 4,
            epoch_len: 5,
            migration_cost_ticks: 1.0,
            seed: 7,
            drift_ticks: 60,
            measure_ticks: 60,
        }
        .pair()
    })
}

/// Figure 7: fish-school scale-up under a drifting spatial distribution,
/// one pair per worker count. `Small` is one point: 400 fish on 4 workers.
///
/// Expected shape: with load balancing, throughput grows with workers;
/// without it the school concentrates on the border partition and extra
/// workers stop helping (the curves separate as workers grow). The
/// imbalance columns show the mechanism directly: no-LB approaches the
/// worker count (= everything on one node), LB stays near 1.
pub fn fig7(scale: Scale) -> Vec<DriftPair> {
    if scale == Scale::Small {
        return vec![small_drift_pair().clone()];
    }
    (1..=max_workers())
        .map(|workers| {
            let fish = 5000 * workers;
            Drift {
                fish,
                radius: school_radius(fish),
                workers,
                epoch_len: 10,
                migration_cost_ticks: 2.0,
                seed: 7,
                drift_ticks: 400,
                measure_ticks: 200,
            }
            .pair()
        })
        .collect()
}

/// Figure 8: per-epoch simulation time as the fish distribution drifts,
/// next to the busiest worker's share of the agents, which drives it. At
/// `Small` it is Figure 7's pair.
///
/// Expected shape: flat with load balancing; growing without it toward the
/// one-worker-does-everything plateau.
pub fn fig8(scale: Scale) -> DriftPair {
    match scale {
        Scale::Small => small_drift_pair().clone(),
        Scale::Paper => Drift {
            fish: 12000,
            radius: school_radius(12000),
            workers: max_workers().min(4),
            epoch_len: 10,
            migration_cost_ticks: 2.0,
            seed: 8,
            drift_ticks: 0,
            measure_ticks: 800,
        }
        .pair(),
    }
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
        Scale::Small => (2500.0, 60, 120, 30),
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

    // The runners themselves run in `tests/paper_shapes.rs`, which asserts
    // their shapes at `Scale::Small`. Here we only check plumbing that
    // needs no simulation time.

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), None);
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn max_workers_bounded() {
        let w = max_workers();
        assert!((1..=8).contains(&w));
    }
}
