//! Every run records into its own telemetry registry: what the recording
//! shows.
//!
//! Recording never perturbs a run — every leg of the engine matrix
//! (`tests/common`) records, and each must reproduce the baseline bit for
//! bit. This binary pins what a run's registry holds after it: the counters
//! a run moves, which of them each leg of the matrix moves as the baseline
//! does, and the tile directory's ticks at default sizes, 4 000 agents and
//! the benchmark's sizes, and on a world too sparse for it. Each test reads
//! the registries of the runs it made, so the tests run side by side.

mod common;

use brace_common::ids::AgentIdGen;
use brace_common::{AgentId, DetRng, Vec2};
use brace_core::executor::reference_step;
use brace_core::{Agent, Behavior, Simulation};
use brace_models::{PredatorBehavior, PredatorParams};
use brace_scenario::{world_checksum, Backend, Registry, Runner, Scenario, ScenarioSetup};
use brace_spatial::IndexKind;
use brace_telemetry::Counter;
use brasil::{BrasilBehavior, Script};
use common::{counters_differing, Case, Custom, LEGS};

const TICKS: u64 = 10;

/// Runs are not silently no-ops: a plain run, with nothing switched on,
/// moves the executor counters and phase histograms of its own registry.
#[test]
fn runs_record_into_their_registry() {
    let registry = Registry::builtin();
    let scenario = registry.get("epidemic").unwrap();
    let report = Runner::new(scenario).conformance().run(TICKS).unwrap();
    let text = report.metrics.render_prometheus();
    let counter = |c| report.metrics.counter(c);
    let value = |metric: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or_else(|| panic!("`{metric}` missing from render"))
            .parse()
            .expect("metric value is an integer")
    };
    assert_eq!(value("brace_executor_ticks_total"), TICKS, "{text}");
    assert_eq!(value("brace_phase_query_ns_count"), TICKS);
    assert_eq!(value("brace_phase_update_ns_count"), TICKS);
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
    // and never touches the write-log. The cluster's master and workers
    // record into the run's registry too.
    for backend in [Backend::single(), Backend::cluster(2)] {
        let report = Runner::new(registry.get("fish").unwrap()).backend(backend).run(TICKS).unwrap();
        let counter = |c| report.metrics.counter(c);
        let groups = counter(Counter::ExecutorProbeGroups);
        assert!(groups > 0 && groups < report.agents as u64 * TICKS, "{groups} groups on `{}`", report.backend);
        assert!(counter(Counter::ExecutorBlockCandidates) > 0);
        assert_eq!(counter(Counter::ExecutorEffectLogEntries), 0, "fish on `{}` logged effects", report.backend);
        if report.backend != "single" {
            assert_eq!(counter(Counter::ClusterEpochs), TICKS / 5, "the cluster run did not record its epochs");
            assert!(counter(Counter::NetControlBytes) > 0, "the cluster run recorded no control traffic");
        }
    }

    // The non-local predator logs only the writes to its remote field,
    // `hurt` — its bites, every one non-local. The local `crowd` writes (one
    // per visible neighbor: every candidate but the fish itself, which its
    // own closed visibility square always contains) fold in place.
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
    assert_eq!(sim.metrics().counter(Counter::ExecutorEffectLogEntries), nonlocal);
}

/// Whether `setup` answers its probes with the tile join on the default
/// index: a bounded, positive visibility.
fn joins(setup: &ScenarioSetup) -> bool {
    let vis = setup.behavior.schema().visibility();
    vis > 0.0 && vis.is_finite()
}

/// Run `setup` for `ticks` on `backend`, and return the run's
/// `(tile-directory ticks, probe groups)`.
fn directory_ticks(scenario: &dyn Scenario, mut setup: ScenarioSetup, backend: Backend, ticks: u64) -> (u64, u64) {
    // `SimHandle::run` takes whole epochs.
    setup.epoch_len = 5;
    let mut handle = Runner::new(scenario).seed(42).backend(backend).launch_with(setup).unwrap();
    handle.run(ticks).unwrap_or_else(|e| panic!("`{}` failed: {e}", scenario.name()));
    let metrics = handle.metrics();
    (metrics.counter(Counter::ExecutorTileDirectoryTicks), metrics.counter(Counter::ExecutorProbeGroups))
}

/// Which arm of the join's window ran: every joining registry scenario at
/// its default size and at 4 000 agents, on one node and two workers, and
/// the benchmark's sizes — `fish` at 12 000 on one node, `predator` at
/// 40 000 on two workers — read their windows off the tile directory on
/// every tick of every query phase. A world with agents 10⁹ units out is
/// too sparse for a directory and never takes it, though it still joins.
#[test]
fn joining_scenarios_read_their_windows_off_the_tile_directory() {
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

/// Families every superstep records, once per tick on each partition: its
/// ticks and its phase histograms. `cluster:1` records them as the baseline
/// does; more workers record them once each.
const ENGINE: &[&str] = &[
    "brace_executor_ticks_total",
    "brace_phase_index_maintain_ns_count",
    "brace_phase_query_ns_count",
    "brace_phase_effect_merge_ns_count",
    "brace_phase_update_ns_count",
];
/// Families only a cluster records, on any worker count: its epochs, their
/// barriers and the control traffic between master and workers.
const MASTER: &[&str] = &[
    "brace_cluster_epochs_total",
    "brace_epoch_barrier_wait_ns_count",
    "brace_net_control_bytes_total",
    "brace_net_control_messages_total",
];
/// What a partition boundary moves: each worker builds its own probe
/// groups over owned rows and replicas, and peers exchange the other
/// traffic classes.
const PARTITION: &[&str] = &[
    "brace_executor_probe_groups_total",
    "brace_executor_block_candidates_total",
    "brace_executor_tile_directory_ticks_total",
    "brace_net_transfer_bytes_total",
    "brace_net_transfer_messages_total",
    "brace_net_replica_full_bytes_total",
    "brace_net_replica_full_messages_total",
    "brace_net_replica_delta_bytes_total",
    "brace_net_replica_delta_messages_total",
    "brace_net_effects_bytes_total",
    "brace_net_effects_messages_total",
    "brace_net_spawns_bytes_total",
    "brace_net_spawns_messages_total",
];
/// The query and update work a replayed epoch does a second time.
const REPLAY: &[&str] = &[
    "brace_executor_neighbor_visits_total",
    "brace_executor_nonlocal_writes_total",
    "brace_executor_spawned_total",
    "brace_executor_killed_total",
    "brace_executor_effect_log_entries_total",
];
const CHECKPOINTS: &[&str] = &["brace_cluster_checkpoints_total", "brace_checkpoint_write_ns_count"];

/// Which counters each leg of the engine matrix shares with the baseline
/// (single node, one thread), on the predator's conformance world, which
/// spawns, kills and writes to other agents. Every leg records into its own
/// registry, and each names exactly the families that differ:
/// - threads and serving change no count at all;
/// - any cluster adds the master's records, and more than one worker adds
///   its ticks and phase records once per worker and what partitions move;
/// - a fault adds the replayed epochs' work and the checkpoints, and a
///   resume the checkpoints.
///
/// So `REPLAY` — neighbour visits, non-local writes, spawns, kills and
/// effect-log entries — holds the baseline's value on every leg that
/// replays nothing, and on a single node the partition counters do too at
/// any thread count. And every leg records one tick and one observation in
/// each phase histogram per superstep: per tick on each of its partitions,
/// a replayed tick included.
#[test]
fn each_leg_names_the_counters_that_differ_from_the_baseline() {
    let case = Case::conformance(20);
    assert!(common::spawned(Registry::builtin, "predator", &case), "a predator world that spawns nothing");
    let differing = counters_differing(Registry::builtin, "predator", &case);
    let legs: Vec<&str> = differing.iter().map(|(leg, _)| *leg).collect();
    assert_eq!(legs, LEGS, "a leg recorded nothing to compare");
    let partitioned = [ENGINE, MASTER, PARTITION].concat();
    for (leg, names) in differing {
        let want = match leg {
            "single node, 2 threads" | "single node, 3 threads" | "served" => vec![],
            "cluster:1" => MASTER.to_vec(),
            "cluster:2, balancer off" | "cluster:4, load-balanced" | "cluster:2, 2 threads per worker" => {
                partitioned.clone()
            }
            "durable cluster:2, abandoned halfway and resumed" => [&partitioned[..], CHECKPOINTS].concat(),
            _ => [&partitioned[..], REPLAY, CHECKPOINTS].concat(),
        };
        let (mut names, mut want) = (names, want.iter().map(|name| name.to_string()).collect::<Vec<_>>());
        names.sort();
        want.sort();
        assert_eq!(names, want, "leg `{leg}`");
    }
    for (leg, supersteps, counts) in common::supersteps(Registry::builtin, "predator", &case) {
        for family in ENGINE {
            let value = counts.iter().find(|(name, _)| name == family).map(|&(_, v)| v);
            assert_eq!(value, Some(supersteps), "leg `{leg}`: `{family}`");
        }
    }
}

/// A BRASIL query written without a loop: it reads only its own agent.
const LOOPLESS: &str = r#"
class Drifter {
    public state float x : x + vx + push #range[-1, 1];
    public state float y : y + (rand() - 0.5) * 0.2 #range[-1, 1];
    public state float vx : vx * 0.5 + (rand() - 0.5) * 0.2;
    private effect float push : sum;
    public void run() {
        push <- (10 - x) * 0.01;
        push <- 0.001;
    }
}
"#;

/// A loop whose only statement sits under a constant-false guard: the
/// optimizer folds the guard, drops the dead branch, then the empty loop.
const DEAD_LOOP: &str = r#"
class Drifter {
    public state float x : x + vx + near * 0.001 #range[-1, 1];
    public state float y : y + (rand() - 0.5) * 0.2 #range[-1, 1];
    public state float vx : vx * 0.5 + (rand() - 0.5) * 0.2;
    private effect float near : sum;
    public void run() {
        foreach (Drifter p : Extent<Drifter>) {
            if (2 < 1) {
                near <- p.x - x;
            }
        }
    }
}
"#;

fn drifters(source: &str, optimize: bool, n: usize, seed: u64) -> ScenarioSetup {
    let script = if optimize { Script::compile(source) } else { Script::compile_unoptimized(source) };
    let behavior = BrasilBehavior::new(script.expect("the drifter scripts compile").classes()[0].clone());
    let mut rng = DetRng::seed_from_u64(seed);
    let population = (0..n)
        .map(|i| {
            Agent::new(AgentId::new(i as u64), Vec2::new(rng.range(0.0, 20.0), rng.range(0.0, 20.0)), behavior.schema())
        })
        .collect();
    common::custom_setup(behavior, population, (0.0, 20.0))
}

/// BRASIL plans with no loop skip the join: `BrasilBehavior::reads_neighbors`
/// is false for all their members, so on one node and on two workers the
/// run visits no neighbour, builds no probe group and puts no candidate in
/// a block — and its world is the serial oracle's, which hands every query
/// its full neighbourhood. Two such plans: one written without a loop, and
/// one whose loop the optimizer removed. The latter, unoptimized, keeps
/// its loop and still joins.
#[test]
fn loopless_brasil_plans_skip_the_join() {
    const TICKS: u64 = 10;
    const SEED: u64 = 7;
    let scenarios = [
        Custom { name: "written", agents: 300, build: |n, seed| drifters(LOOPLESS, true, n, seed) },
        Custom { name: "optimized", agents: 300, build: |n, seed| drifters(DEAD_LOOP, true, n, seed) },
        Custom { name: "unoptimized", agents: 300, build: |n, seed| drifters(DEAD_LOOP, false, n, seed) },
    ];
    let registry = common::registry_of(scenarios);
    for name in ["written", "optimized", "unoptimized"] {
        let scenario = registry.get(name).unwrap();
        let setup = scenario.build(None, SEED).unwrap();
        let class = setup.behavior.clone();
        let mut oracle = setup.population.clone();
        let mut id_gen = AgentIdGen::from(oracle.len() as u64);
        for tick in 0..TICKS {
            reference_step(&class, &mut oracle, tick, SEED, &mut id_gen);
        }
        let loops = match name {
            "unoptimized" => 1,
            _ => 0,
        };
        let source = if name == "written" { LOOPLESS } else { DEAD_LOOP };
        let compiled =
            if name == "unoptimized" { Script::compile_unoptimized(source) } else { Script::compile(source) };
        assert_eq!(brasil::vm::lower(&compiled.unwrap().classes()[0]).summary().loops, loops, "`{name}`");
        for backend in [Backend::single(), Backend::cluster(2)] {
            let report = Runner::new(scenario).seed(SEED).backend(backend).run(TICKS).unwrap();
            let on = format!("`{name}` on `{}`", report.backend);
            assert_eq!(report.checksum, world_checksum(&oracle), "{on}: the world is not the oracle's");
            let joined =
                [Counter::ExecutorNeighborVisits, Counter::ExecutorProbeGroups, Counter::ExecutorBlockCandidates]
                    .map(|c| report.metrics.counter(c));
            if loops == 0 {
                assert_eq!(joined, [0; 3], "{on}: a loop-less plan joined");
            } else {
                assert!(joined.iter().all(|&c| c > 0), "{on}: a looping plan must join, {joined:?}");
            }
        }
    }
}
