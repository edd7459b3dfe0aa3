//! Telemetry observes, never perturbs: with recording enabled, every
//! scenario's conformance run — single-node and 2-worker cluster — must
//! produce checksums bit-identical to the same run with telemetry off. The
//! registry's predator is the non-local form, whose float sums go through
//! the effect write-log, its replay and the cluster's shipped writes.
//!
//! This is its own test binary because the enable flag is process-global:
//! flipping it here can never race another suite's expectations. The two
//! tests below still share the flag with each other, so they serialize
//! behind one mutex and restore the prior state on drop.

use brace_core::Simulation;
use brace_models::{PredatorBehavior, PredatorParams};
use brace_scenario::{Backend, Registry, Runner};
use brace_spatial::IndexKind;
use brace_telemetry::{counter, Counter};
use std::sync::{Mutex, MutexGuard};

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// Holds the flag lock and restores the pre-test flag state on drop.
struct FlagGuard {
    was: bool,
    _lock: MutexGuard<'static, ()>,
}

fn flag_lock() -> FlagGuard {
    let lock = FLAG_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    FlagGuard { was: brace_telemetry::enabled(), _lock: lock }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        brace_telemetry::set_enabled(self.was);
    }
}

const TICKS: u64 = 10;

/// Run `scenario`'s conformance form on `backend` and return the checksum.
fn checksum(registry: &Registry, name: &str, backend: Backend) -> u64 {
    let scenario = registry.get(name).expect("registry scenario");
    Runner::new(scenario)
        .conformance()
        .backend(backend)
        .run(TICKS)
        .unwrap_or_else(|e| panic!("`{name}` failed: {e}"))
        .checksum
}

#[test]
fn telemetry_on_and_off_agree_bit_for_bit_across_the_registry() {
    let _g = flag_lock();
    let registry = Registry::builtin();
    for scenario in registry.iter() {
        let name = scenario.name();
        for backend in [Backend::single(), Backend::cluster(2)] {
            brace_telemetry::set_enabled(false);
            let off = checksum(&registry, name, backend.clone());
            brace_telemetry::set_enabled(true);
            let on = checksum(&registry, name, backend.clone());
            assert_eq!(
                off,
                on,
                "`{name}` on backend `{}` changed its checksum when telemetry was enabled",
                backend.label()
            );
        }
    }
}

/// The enabled runs above are not silently no-ops: an enabled run must
/// actually move the executor counters and phase histograms.
#[test]
fn enabled_runs_record_into_the_registry() {
    let _g = flag_lock();
    brace_telemetry::set_enabled(true);
    brace_telemetry::reset();
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
    // workers, which the equivalence test above covers). Even this sparse
    // world shares blocks: a group is a strip of neighbouring tiles, so there
    // are fewer groups than agent-ticks. (A block is a superset of each of
    // its members' candidates, not of their sum.) The epidemic has non-local
    // effects and only ever writes to *other* agents: every write is logged,
    // every one non-local.
    let groups = value("brace_executor_probe_groups_total");
    assert!(groups >= TICKS && groups < report.agents as u64 * TICKS, "{groups} groups");
    assert!(counter(Counter::ExecutorBlockCandidates) > 0);
    assert!(value("brace_executor_effect_log_entries_total") > 0, "an epidemic run infects someone");
    assert_eq!(counter(Counter::ExecutorEffectLogEntries), counter(Counter::ExecutorNonlocalWrites));

    // A local-effect scenario shares blocks between tile-mates — fewer
    // groups than agent-ticks, on the single node and on cluster workers —
    // and never touches the write-log.
    for backend in [Backend::single(), Backend::cluster(2)] {
        brace_telemetry::reset();
        let report = Runner::new(registry.get("fish").unwrap()).backend(backend).run(TICKS).unwrap();
        let groups = counter(Counter::ExecutorProbeGroups);
        assert!(groups > 0 && groups < report.agents as u64 * TICKS, "{groups} groups on `{}`", report.backend);
        assert!(counter(Counter::ExecutorBlockCandidates) > 0);
        assert_eq!(counter(Counter::ExecutorEffectLogEntries), 0, "fish on `{}` logged effects", report.backend);
    }

    // The non-local predator logs only the writes to its remote field,
    // `hurt` — its bites, every one non-local. The local `crowd` writes (one
    // per visible neighbor: every candidate but the fish itself, which its
    // own closed visibility square always contains) fold in place.
    brace_telemetry::reset();
    let predator = PredatorBehavior::new(PredatorParams::default());
    let mut sim = Simulation::builder(predator.clone())
        .agents(predator.population(400, 40.0, 9))
        .index(IndexKind::KdTree)
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
    brace_telemetry::reset();
}
