//! Every run records into the telemetry registry: what the recording shows.
//!
//! Recording never perturbs a run — every leg of the engine matrix
//! (`tests/common`) records, and each must reproduce the baseline bit for
//! bit. This binary pins what the registry holds after a run: the counters
//! a run moves, and the tile directory's ticks at default sizes, 4 000
//! agents and the benchmark's sizes, and on a world too sparse for it. The
//! registry is process-global: a test that resets it and reads it back
//! holds [`zeroed_metrics`] throughout.

use brace_common::Vec2;
use brace_core::Simulation;
use brace_models::{PredatorBehavior, PredatorParams};
use brace_scenario::{Backend, Registry, Runner, Scenario, ScenarioSetup};
use brace_spatial::IndexKind;
use brace_telemetry::{counter, Counter};
use std::sync::{Mutex, MutexGuard, PoisonError};

const TICKS: u64 = 10;

/// Exclusive use of the telemetry registry, zeroed.
fn zeroed_metrics() -> MutexGuard<'static, ()> {
    static REGISTRY: Mutex<()> = Mutex::new(());
    let guard = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    brace_telemetry::reset();
    guard
}

/// Runs are not silently no-ops: a plain run, with nothing switched on,
/// moves the executor counters and phase histograms.
#[test]
fn runs_record_into_the_registry() {
    let _metrics = zeroed_metrics();
    let registry = Registry::builtin();
    let scenario = registry.get("epidemic").unwrap();
    let report = Runner::new(scenario).conformance().run(TICKS).unwrap();
    let text = brace_telemetry::render_prometheus();
    let value = |metric: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or_else(|| panic!("`{metric}` missing from render"))
            .parse()
            .expect("metric value is an integer")
    };
    assert!(value("brace_executor_ticks_total") >= TICKS, "{text}");
    assert!(value("brace_phase_query_ns_count") >= TICKS);
    assert!(value("brace_phase_update_ns_count") >= TICKS);
    assert!(value("brace_executor_neighbor_visits_total") > 0, "an epidemic run visits neighbors");
    // The query phase's own recording site (it also runs inside cluster
    // workers, below). Even this sparse world shares blocks: a group is a
    // strip of neighbouring tiles, so there are fewer groups than
    // agent-ticks. (A block is a superset of each of its members'
    // candidates, not of their sum.) The epidemic has non-local effects and
    // only ever writes to *other* agents: every write is logged, every one
    // non-local.
    let groups = value("brace_executor_probe_groups_total");
    assert!(groups >= TICKS && groups < report.agents as u64 * TICKS, "{groups} groups");
    assert!(counter(Counter::ExecutorBlockCandidates) > 0);
    assert!(value("brace_executor_effect_log_entries_total") > 0, "an epidemic run infects someone");
    // Its occupied tiles are a dense box: every tick's windows come off the
    // tile directory.
    assert_eq!(value("brace_executor_tile_directory_ticks_total"), TICKS);
    assert_eq!(counter(Counter::ExecutorEffectLogEntries), counter(Counter::ExecutorNonlocalWrites));

    // A local-effect scenario shares blocks between tile-mates — fewer
    // groups than agent-ticks, on the single node and on cluster workers —
    // and never touches the write-log. The cluster's master and ledger
    // record too.
    for backend in [Backend::single(), Backend::cluster(2)] {
        brace_telemetry::reset();
        let report = Runner::new(registry.get("fish").unwrap()).backend(backend).run(TICKS).unwrap();
        let groups = counter(Counter::ExecutorProbeGroups);
        assert!(groups > 0 && groups < report.agents as u64 * TICKS, "{groups} groups on `{}`", report.backend);
        assert!(counter(Counter::ExecutorBlockCandidates) > 0);
        assert_eq!(counter(Counter::ExecutorEffectLogEntries), 0, "fish on `{}` logged effects", report.backend);
    }
    assert!(counter(Counter::ClusterEpochs) > 0, "the cluster run recorded no epoch");
    assert!(counter(Counter::NetControlBytes) > 0, "the cluster run recorded no control traffic");

    // The non-local predator logs only the writes to its remote field,
    // `hurt` — its bites, every one non-local. The local `crowd` writes (one
    // per visible neighbor: every candidate but the fish itself, which its
    // own closed visibility square always contains) fold in place.
    brace_telemetry::reset();
    let predator = PredatorBehavior::new(PredatorParams::default());
    let mut sim = Simulation::builder(predator.clone())
        .agents(predator.population(400, 40.0, 9))
        .index(IndexKind::Join)
        .seed(9)
        .parallelism(1)
        .build()
        .unwrap();
    let (mut local, mut nonlocal) = (0u64, 0u64);
    for _ in 0..TICKS {
        let tm = sim.step();
        local += tm.neighbor_visits - tm.n_agents as u64;
        nonlocal += tm.nonlocal_writes;
    }
    assert!(local > 0 && nonlocal > 0, "the predator world is too sparse to test anything");
    assert_eq!(counter(Counter::ExecutorEffectLogEntries), nonlocal);
}

/// Whether `setup` answers its probes with the tile join on the default
/// index: a bounded, positive visibility.
fn joins(setup: &ScenarioSetup) -> bool {
    let vis = setup.behavior.schema().visibility();
    vis > 0.0 && vis.is_finite()
}

/// Run `setup` for `ticks` on `backend` with the counters reset, and return
/// `(tile-directory ticks, probe groups)`.
fn directory_ticks(scenario: &dyn Scenario, mut setup: ScenarioSetup, backend: Backend, ticks: u64) -> (u64, u64) {
    brace_telemetry::reset();
    // `SimHandle::run` takes whole epochs.
    setup.epoch_len = 5;
    let mut handle = Runner::new(scenario).seed(42).backend(backend).launch_with(setup).unwrap();
    handle.run(ticks).unwrap_or_else(|e| panic!("`{}` failed: {e}", scenario.name()));
    (counter(Counter::ExecutorTileDirectoryTicks), counter(Counter::ExecutorProbeGroups))
}

/// Which arm of the join's window ran: every joining registry scenario at
/// its default size and at 4 000 agents, on one node and two workers, and
/// the benchmark's sizes — `fish` at 12 000 on one node, `predator` at
/// 40 000 on two workers — read their windows off the tile directory on
/// every tick of every query phase. A world with agents 10⁹ units out is
/// too sparse for a directory and never takes it, though it still joins.
#[test]
fn joining_scenarios_read_their_windows_off_the_tile_directory() {
    let _metrics = zeroed_metrics();
    const TICKS: u64 = 25;
    let registry = Registry::builtin();
    let mut runs = Vec::new();
    for scenario in registry.iter() {
        for workers in [1, 2] {
            runs.extend([(scenario, None, workers), (scenario, Some(4_000), workers)]);
        }
    }
    // The benchmark's rows: `fish` on one node, `predator` on two workers.
    runs.push((registry.get("fish").unwrap(), Some(12_000), 1));
    runs.push((registry.get("predator").unwrap(), Some(40_000), 2));
    let mut joined = 0;
    for (scenario, size, workers) in runs {
        let setup = scenario.build(size, 42).unwrap();
        if !joins(&setup) {
            continue;
        }
        joined += 1;
        let backend = if workers == 1 { Backend::single() } else { Backend::cluster(workers) };
        let label = backend.label();
        let (directory, groups) = directory_ticks(scenario, setup, backend, TICKS);
        assert!(groups > 0, "`{}` at {size:?} on `{label}` built no probe group", scenario.name());
        assert_eq!(directory, TICKS * workers as u64, "`{}` at {size:?} on `{label}`", scenario.name());
    }
    assert!(joined >= 2 * 2 * registry.len(), "only {joined} runs joined");

    for name in ["fish", "epidemic"] {
        let scenario = registry.get(name).unwrap();
        for backend in [Backend::single(), Backend::cluster(2)] {
            let label = backend.label();
            let mut setup = scenario.build(Some(2_000), 42).unwrap();
            // One far out on either side, so each worker owns one.
            setup.population[7].pos += Vec2::new(1e9, -1e9);
            setup.population[8].pos += Vec2::new(-1e9, 1e9);
            let (directory, groups) = directory_ticks(scenario, setup, backend, TICKS);
            assert!(groups > 0, "the outlier `{name}` on `{label}` built no probe group");
            assert_eq!(directory, 0, "the outlier `{name}` on `{label}` took the tile directory");
        }
    }
}
