//! The Couzin fish-school migration on the distributed runtime, with the
//! load balancer chasing the school — driven through a **custom scenario**.
//!
//! ```sh
//! cargo run --release --example fish_school [--no-lb]
//! ```
//!
//! The registry's builtin `fish` uses the paper's two-informed-classes
//! configuration; the migration experiment wants every fish informed of
//! +x. Rather than hand-wiring `ClusterSim` (the old way), this example
//! defines a ten-line [`Scenario`] with the custom parameters and drives
//! it through the same [`Runner`]/[`SimHandle`] facade as everything else —
//! which is exactly how downstream users add workloads. The per-epoch
//! density strip reads the world through [`SimHandle`]'s observer-friendly
//! surface (`world`, `x_bounds`, `cluster_stats`).

use brace::common::Result;
use brace::models::{FishBehavior, FishParams};
use brace::prelude::*;
use brace::scenario::ScenarioSetup;
use std::sync::Arc;

/// The migration configuration: every fish informed of +x.
struct Migration;

impl Migration {
    fn params(n: usize) -> FishParams {
        FishParams {
            informed_a: 1.0,
            informed_b: 0.0,
            omega: 2.0,
            jitter: 0.02,
            school_radius: (n as f64 / std::f64::consts::PI / 0.5).sqrt(),
            ..FishParams::default()
        }
    }
}

impl Scenario for Migration {
    fn name(&self) -> &'static str {
        "fish-migration"
    }
    fn description(&self) -> &'static str {
        "fish school with every individual informed of +x (the Figures 7/8 load-balancing workload)"
    }
    fn default_population(&self) -> usize {
        2_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let n = size.unwrap_or(self.default_population());
        let behavior = FishBehavior::new(Self::params(n));
        let r = behavior.params().school_radius;
        let population = behavior.population(n, seed);
        Ok(ScenarioSetup {
            behavior: Arc::new(behavior),
            population,
            index: IndexKind::KdTree,
            epoch_len: 10,
            space_x: (-r, r),
        })
    }
}

fn main() {
    let lb = !std::env::args().any(|a| a == "--no-lb");
    let scenario = Migration;
    let workers = 4;

    // The scenario says *what* runs; the backend says *where*. The load
    // balancer is a placement knob, so it lives on the backend config
    // (seed/index/space_x/epoch_len are driven from the scenario at
    // launch, so their values here don't matter).
    let backend_cfg = brace::mapreduce::ClusterConfig {
        workers,
        load_balance: lb,
        balancer: brace::mapreduce::LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 1.0 },
        ..Default::default()
    };

    println!(
        "{} fish, {workers} workers, load balancing {}",
        scenario.default_population(),
        if lb { "ON" } else { "OFF (run with --no-lb to compare)" }
    );
    let mut sim = Runner::new(&scenario).seed(7).backend(Backend::Cluster(backend_cfg)).launch().expect("launches");

    for epoch in 0..20 {
        sim.run(10).expect("epoch runs");
        let stats = sim.cluster_stats().expect("cluster backend");
        let owned = stats.agents_per_worker.last().cloned().unwrap_or_default();
        let bounds = sim.x_bounds().expect("cluster backend").to_vec();
        // Density strip: 40 columns over the current boundary span.
        let world = sim.world().expect("collect");
        let (lo, hi) = (bounds[0], bounds[workers]);
        let mut strip = [0usize; 40];
        for a in &world {
            let t = ((a.pos.x - lo) / (hi - lo) * 40.0).clamp(0.0, 39.0) as usize;
            strip[t] += 1;
        }
        let max = strip.iter().copied().max().unwrap_or(1).max(1);
        let art: String = strip
            .iter()
            .map(|&c| match c * 8 / max {
                0 => ' ',
                1..=2 => '.',
                3..=5 => 'o',
                _ => '#',
            })
            .collect();
        println!(
            "epoch {epoch:>2} | [{art}] | owned per worker {owned:?} | imbalance {:.2} | repartitions {}",
            stats.last_imbalance(),
            stats.repartitions
        );
    }
    let stats = sim.cluster_stats().expect("cluster backend");
    println!(
        "\nthroughput {:.0} agent-ticks/s; network: {} msgs, {} bytes ({} replica bytes)",
        stats.throughput(),
        stats.net.total_messages(),
        stats.net.total_bytes(),
        stats.net.replica_bytes(),
    );
}
