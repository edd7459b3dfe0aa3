//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **Epoch length** — master coordination amortization: shorter epochs
//!   mean more control traffic and more frequent balancing decisions.
//! * **Index choice on a clustered workload** — KD-tree vs uniform grid vs
//!   scan on the fish school.
//! * **k-NN parity** — MITSIM's hand-coded lookup vs BRACE's range and
//!   k-NN probes on one traffic tick.

use brace_core::Simulation;
use brace_mapreduce::{ClusterConfig, ClusterSim};
use brace_models::{FishBehavior, FishParams, TrafficBehavior, TrafficParams};
use brace_spatial::IndexKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn traffic_cluster(epoch_len: u64) -> ClusterSim {
    let params = TrafficParams { segment: 3000.0, density: 0.04, ..TrafficParams::default() };
    let behavior = TrafficBehavior::new(params.clone());
    let pop = behavior.population(3);
    let cfg = ClusterConfig {
        workers: 4,
        epoch_len,
        seed: 3,
        space_x: (0.0, params.segment),
        load_balance: false,
        ..ClusterConfig::default()
    };
    ClusterSim::new(Arc::new(behavior), pop, cfg).unwrap()
}

fn bench_epoch_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_epoch_length");
    group.sample_size(10).warm_up_time(Duration::from_millis(300)).measurement_time(Duration::from_secs(3));
    for epoch_len in [1u64, 5, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(epoch_len), &epoch_len, |b, &epoch_len| {
            let mut sim = traffic_cluster(epoch_len);
            sim.run_epochs(1).unwrap();
            // Measure a fixed 20 ticks regardless of epoch length, so the
            // comparison isolates coordination overhead per tick.
            b.iter(|| sim.run_epochs(20 / epoch_len.min(20)).unwrap());
        });
    }
    group.finish();
}

/// The paper's "planned future work": nearest-neighbor indexing to reach
/// parity with MITSIM's hand-coded lookup. Compares one traffic tick of
/// the baseline, BRACE with the fixed-lookahead range probe, and BRACE
/// with the k-NN probe.
fn bench_knn_parity(c: &mut Criterion) {
    use brace_models::MitsimBaseline;
    let params = |knn| TrafficParams { segment: 4000.0, knn, ..TrafficParams::default() };
    let mut group = c.benchmark_group("ablation_knn_parity");
    group.sample_size(10).warm_up_time(Duration::from_millis(300)).measurement_time(Duration::from_secs(2));
    group.bench_function("mitsim_baseline", |b| {
        let mut sim = MitsimBaseline::new(params(None), 9);
        sim.run(5);
        b.iter(|| sim.step());
    });
    group.bench_function("brace_range_probe", |b| {
        let behavior = TrafficBehavior::new(params(None));
        let pop = behavior.population(9);
        let mut sim = Simulation::builder(behavior).agents(pop).seed(9).build().unwrap();
        sim.run(5);
        b.iter(|| sim.step());
    });
    group.bench_function("brace_knn_probe", |b| {
        let behavior = TrafficBehavior::new(params(Some(12)));
        let pop = behavior.population(9);
        let mut sim = Simulation::builder(behavior).agents(pop).seed(9).build().unwrap();
        sim.run(5);
        b.iter(|| sim.step());
    });
    group.finish();
}

fn bench_index_choice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_index_on_clustered_fish");
    group.sample_size(10).warm_up_time(Duration::from_millis(300)).measurement_time(Duration::from_secs(2));
    let n = 2000;
    for (name, kind) in [("kdtree", IndexKind::KdTree), ("grid", IndexKind::Grid), ("scan", IndexKind::Scan)] {
        group.bench_function(name, |b| {
            let params = FishParams { school_radius: 12.0, ..FishParams::default() };
            let behavior = FishBehavior::new(params);
            let pop = behavior.population(n, 4);
            let mut sim = Simulation::builder(behavior).agents(pop).seed(4).index(kind).build().unwrap();
            sim.run(2);
            b.iter(|| sim.step());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_length, bench_index_choice, bench_knn_parity);
criterion_main!(benches);
