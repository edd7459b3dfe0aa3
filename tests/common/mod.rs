//! The engine matrix, shared by every test binary that compares engines.
//!
//! [`engines_agree`] runs one [`Case`] of a registered scenario on a
//! baseline — the single node, one thread — and on every other engine leg
//! ([`LEGS`]): the single node at 2 and 3 threads; `cluster:1`; `cluster:2`
//! with the balancer off; `cluster:4` with a load balancer eager enough to
//! move boundaries mid-run; `cluster:2` at 2 threads per worker;
//! `cluster:3` with a whole-cluster fault at the middle epoch; a durable
//! `cluster:2` run (a run directory, a checkpoint every epoch) with the
//! same fault, which it recovers from by reading a checkpoint file back;
//! the same launched through [`Runner::launch`], abandoned halfway and
//! finished by [`DurableRunner::resume`]; and served, through `POST /runs`
//! on an ephemeral [`Server`]. All of them run at once, and every one records
//! into its own telemetry registry, as every run does; [`counters_differing`]
//! names, per leg, the counters that differ from the baseline's, and
//! [`supersteps`] gives each leg's counts with the supersteps it ran. Both
//! durable legs start
//! the way every durable run does: a `Runner` on a cluster whose
//! `ClusterConfig::run_dir` is set. Every leg's world checksum must equal
//! the baseline's, a failure names the first leg that differs, and the
//! agreed checksum is returned, so a golden asserts one constant for every
//! engine. A new scenario gets every leg by being registered and making one
//! call; a pin about some legs only names them ([`Case::on`]).
//!
//! Also here, so that each exists once: the HTTP client the served leg and
//! `tests/serve_api.rs` share, a test-local [`Custom`] scenario, bitwise
//! world equality and the index-kind strategy.

// Each test binary uses a different part of this module.
#![allow(dead_code)]

use brace_common::{BraceError, Result};
use brace_core::executor::SHARD_ROWS;
use brace_core::{Agent, Behavior};
use brace_mapreduce::{ClusterConfig, FaultPlan, LoadBalancer};
use brace_scenario::{fit_epoch, Backend, DurableRunner, Registry, Runner, Scenario, ScenarioSetup};
use brace_serve::{ServeConfig, Server};
use brace_spatial::IndexKind;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// The epidemic's conformance world after 20 ticks at seed 42, on every
/// engine (`tests/scenario_conformance.rs` pins it through the matrix; the
/// SIGKILL resume, the served runs and CI's serve smoke assert it too).
pub const GOLDEN_EPIDEMIC: u64 = 0xEFDF_A3ED_B826_E4CE;

const BASELINE: &str = "baseline: single node, 1 thread";
const THREADS_2: &str = "single node, 2 threads";
const THREADS_3: &str = "single node, 3 threads";
const BALANCED: &str = "cluster:4, load-balanced";
const CLUSTER_2_THREADS_2: &str = "cluster:2, 2 threads per worker";
const FAULT: &str = "cluster:3, a fault at the middle epoch recovered from a checkpoint";
const DURABLE: &str = "durable cluster:2, a fault at the middle epoch recovered from its checkpoint file";
const RESUMED: &str = "durable cluster:2, abandoned halfway and resumed";
const SERVED: &str = "served";

/// Every leg but the baseline, by the label a failure names, in the order
/// they are compared.
#[rustfmt::skip]
pub const LEGS: &[&str] = &[
    THREADS_2, THREADS_3, "cluster:1", "cluster:2, balancer off", BALANCED,
    CLUSTER_2_THREADS_2, FAULT, DURABLE, RESUMED, SERVED,
];
/// The legs that run more than one thread on a node.
pub const THREADED: &[&str] = &[THREADS_2, THREADS_3, CLUSTER_2_THREADS_2];

/// One leg of the matrix, drawn: a property that draws it runs each draw
/// on the baseline and one leg, and its draws spread over all of them.
pub fn any_leg() -> impl Strategy<Value = &'static [&'static str]> {
    prop::sample::select((0..LEGS.len()).map(|i| &LEGS[i..=i]).collect())
}

/// One run every leg repeats: a population, a seed, a horizon and an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Case {
    /// The scenario's build at this many agents; `None` for its conformance
    /// form (`brace_scenario::conformance_setup`).
    pub size: Option<usize>,
    pub seed: u64,
    pub ticks: u64,
    /// How every leg answers range probes.
    pub index: IndexKind,
    /// The legs besides the baseline this case runs on; `None` for all.
    pub legs: Option<&'static [&'static str]>,
}

impl Case {
    pub fn conformance(ticks: u64) -> Case {
        Case { size: None, seed: 42, ticks, index: IndexKind::Join, legs: None }
    }

    pub fn sized(agents: usize, ticks: u64) -> Case {
        Case { size: Some(agents), seed: 42, ticks, index: IndexKind::Join, legs: None }
    }

    pub fn seed(self, seed: u64) -> Case {
        Case { seed, ..self }
    }

    /// Run every leg on `index`.
    pub fn index(self, index: IndexKind) -> Case {
        Case { index, ..self }
    }

    /// Run on the baseline and `legs` (members of [`LEGS`]) only.
    pub fn on(self, legs: &'static [&'static str]) -> Case {
        assert!(legs.iter().all(|leg| LEGS.contains(leg)), "not a leg of the matrix: {legs:?}");
        Case { legs: Some(legs), ..self }
    }

    fn runs(&self, leg: &str) -> bool {
        self.legs.is_none_or(|legs| legs.contains(&leg))
    }

    fn runner<'s>(&self, scenario: &'s dyn Scenario) -> Runner<'s> {
        let runner = Runner::new(scenario).seed(self.seed).index(self.index);
        match self.size {
            Some(n) => runner.population(n),
            None => runner.conformance(),
        }
    }

    fn setup(&self, scenario: &dyn Scenario) -> Result<ScenarioSetup> {
        match self.size {
            Some(n) => scenario.build(Some(n), self.seed),
            None => brace_scenario::conformance_setup(scenario, self.seed),
        }
    }

    fn served_body(&self, scenario: &str) -> String {
        let size = self.size.map_or(r#""conformance":true"#.to_string(), |n| format!(r#""agents":{n}"#));
        let index = if self.index == IndexKind::Scan { r#","index":"scan""# } else { "" };
        format!(r#"{{"scenario":"{scenario}","ticks":{},"seed":{},{size}{index}}}"#, self.ticks, self.seed)
    }
}

/// A run's telemetry counts, as `Metrics::counts` lists them.
pub type Counts = Vec<(String, u64)>;

/// What every leg of one call agreed on.
#[derive(Debug, Clone)]
struct Agreed {
    checksum: u64,
    /// The world holds an agent the run spawned.
    spawned: bool,
    /// The load-balanced leg moved its boundaries at least once.
    rebalanced: bool,
    /// Per leg, the counter and histogram-count families whose value
    /// differs from the baseline's.
    differing: Vec<(&'static str, Vec<String>)>,
    /// Per leg, the baseline first, the supersteps it ran and its counts.
    supersteps: Vec<(&'static str, u64, Counts)>,
}

type Memo = BTreeMap<(usize, String, Case), Arc<OnceLock<Agreed>>>;
static AGREED: Mutex<Memo> = Mutex::new(BTreeMap::new());
/// The scenarios some call of this binary ran past one shard on every
/// threaded leg.
static PAST_ONE_SHARD: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Run `case` of `scenario` (registered in `registry()`) on every engine
/// leg it names and return the checksum they all agree on. Each `(registry,
/// scenario, case)` runs once per test binary; a repeat call returns what
/// the first one agreed on.
pub fn engines_agree(registry: fn() -> Registry, scenario: &str, case: &Case) -> u64 {
    agreed(registry, scenario, case).checksum
}

/// Whether the world [`engines_agree`] agreed on for this call holds an
/// agent the run spawned: a spawn pin whose run spawns nothing is vacuous.
pub fn spawned(registry: fn() -> Registry, scenario: &str, case: &Case) -> bool {
    agreed(registry, scenario, case).spawned
}

/// Whether the load-balanced `cluster:4` leg of this [`engines_agree`]
/// call repartitioned: a balancer pin whose boundaries never move is
/// vacuous.
pub fn rebalanced(registry: fn() -> Registry, scenario: &str, case: &Case) -> bool {
    assert!(case.runs(BALANCED), "{case:?} does not run the `{BALANCED}` leg");
    agreed(registry, scenario, case).rebalanced
}

/// Per leg of this [`engines_agree`] call, in [`LEGS`] order, the
/// telemetry families (counters, and histograms' `_count`s) whose value in
/// the leg's own registry differs from the baseline's. A family not named
/// holds the baseline's value exactly on that leg.
pub fn counters_differing(registry: fn() -> Registry, scenario: &str, case: &Case) -> Vec<(&'static str, Vec<String>)> {
    agreed(registry, scenario, case).differing
}

/// Per leg of this [`engines_agree`] call, the baseline first: the
/// supersteps it ran — one per tick on each of its partitions, the ticks a
/// recovery replayed included — and its run's telemetry counts.
pub fn supersteps(registry: fn() -> Registry, scenario: &str, case: &Case) -> Vec<(&'static str, u64, Counts)> {
    agreed(registry, scenario, case).supersteps
}

fn agreed(registry: fn() -> Registry, scenario: &str, case: &Case) -> Agreed {
    let key = (registry as usize, scenario.to_string(), *case);
    let cell = Arc::clone(AGREED.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default());
    cell.get_or_init(|| run_matrix(registry, scenario, case)).clone()
}

/// The threaded legs are vacuous below one `SHARD_ROWS` shard: each of
/// `scenarios` must have run past one on all of them in some
/// [`engines_agree`] call of this binary. (Every call checks the fault and
/// resume legs' own work.)
pub fn assert_ran_past_one_shard<'a>(scenarios: impl IntoIterator<Item = &'a str>) {
    let seen = PAST_ONE_SHARD.lock().unwrap_or_else(PoisonError::into_inner);
    for name in scenarios {
        assert!(seen.contains(name), "`{name}` never ran its threaded legs past one shard");
    }
}

/// A leg that runs concurrently with the others: its label, and what it
/// returns — its checksum, its run's telemetry counts and the supersteps
/// its partitions ran.
type Leg<'a> = (&'static str, Box<dyn FnOnce() -> (u64, Counts, u64) + Send + 'a>);

fn run_matrix(registry: fn() -> Registry, name: &str, case: &Case) -> Agreed {
    let reg = registry();
    let scenario = reg.get(name).unwrap_or_else(|| panic!("`{name}` is not registered: {:?}", reg.names()));
    let call = format!("`{name}` {case:?}");
    let fail = |leg: &str, e: BraceError| -> ! { panic!("{call}: leg `{leg}` failed: {e}") };
    let run =
        |leg: &str, backend| case.runner(scenario).backend(backend).run(case.ticks).unwrap_or_else(|e| fail(leg, e));
    let setup = case.setup(scenario).unwrap_or_else(|e| fail("build", e));
    let epoch_len = fit_epoch(setup.epoch_len, case.ticks);
    let epochs = case.ticks / epoch_len;
    let first_spawn = setup.population.iter().map(|a| a.id.raw()).max().map_or(0, |id| id + 1);
    let plain = |leg, backend| -> Leg<'_> {
        let partitions = match &backend {
            Backend::Cluster(cfg) => cfg.workers as u64,
            _ => 1,
        };
        (
            leg,
            Box::new(move || {
                let report = run(leg, backend);
                (report.checksum, report.metrics.counts(), partitions * case.ticks)
            }),
        )
    };
    // A cluster that loses the middle epoch must recover from a checkpoint
    // once (a durable one reads it back from its file).
    let recovered = |leg, cfg: ClusterConfig| -> Leg<'_> {
        let fault = Some(FaultPlan::once(epochs / 2));
        let workers = cfg.workers as u64;
        let backend = Backend::Cluster(ClusterConfig { fault, ..cfg });
        let call = &call;
        (
            leg,
            Box::new(move || {
                let launched = case.runner(scenario).epoch_len(epoch_len).backend(backend).launch();
                let mut handle = launched.unwrap_or_else(|e| fail(leg, e));
                handle.run(case.ticks).unwrap_or_else(|e| fail(leg, e));
                let stats = handle.cluster_stats().expect("a cluster leg");
                let recovered = stats.recoveries == 1 && stats.replayed_epochs > 0;
                assert!(recovered, "{call}: leg `{leg}` did not recover: {stats:?}");
                let supersteps = workers * (case.ticks + stats.replayed_epochs * epoch_len);
                (handle.checksum().unwrap_or_else(|e| fail(leg, e)), handle.metrics().counts(), supersteps)
            }),
        )
    };

    // The baseline and every leg, at once.
    let root = temp_dir();
    let durable = |run_id: &str, total_ticks| {
        let run_dir = Some(root.join(run_id));
        ClusterConfig { checkpoint_every: Some(1), run_dir, total_ticks, ..cluster(2) }
    };
    let (baseline_agents, spawned, rebalanced) = (AtomicUsize::new(0), AtomicBool::new(false), AtomicBool::new(false));
    let balancer = LoadBalancer { imbalance_threshold: 1.1, migration_cost_ticks: 0.5 };
    let mut legs: Vec<Leg<'_>> = vec![
        (
            BASELINE,
            Box::new(|| {
                let report = run(BASELINE, Backend::single());
                baseline_agents.store(report.agents, Ordering::Relaxed);
                spawned.store(report.world.iter().any(|a| a.id.raw() >= first_spawn), Ordering::Relaxed);
                (report.checksum, report.metrics.counts(), case.ticks)
            }),
        ),
        plain(THREADS_2, Backend::SingleNode { parallelism: 2 }),
        plain(THREADS_3, Backend::SingleNode { parallelism: 3 }),
        plain("cluster:1", Backend::Cluster(cluster(1))),
        plain("cluster:2, balancer off", Backend::Cluster(ClusterConfig { load_balance: false, ..cluster(2) })),
        (
            BALANCED,
            Box::new(|| {
                let backend = Backend::Cluster(ClusterConfig { balancer, ..cluster(4) });
                let launched = case.runner(scenario).epoch_len(epoch_len).backend(backend).launch();
                let mut handle = launched.unwrap_or_else(|e| fail(BALANCED, e));
                handle.run(case.ticks).unwrap_or_else(|e| fail(BALANCED, e));
                let stats = handle.cluster_stats().expect("a cluster leg");
                rebalanced.store(stats.repartitions > 0, Ordering::Relaxed);
                (handle.checksum().unwrap_or_else(|e| fail(BALANCED, e)), handle.metrics().counts(), 4 * case.ticks)
            }),
        ),
        plain(CLUSTER_2_THREADS_2, Backend::Cluster(ClusterConfig { parallelism: 2, ..cluster(2) })),
        recovered(FAULT, ClusterConfig { checkpoint_every: Some(2), ..cluster(3) }),
        recovered(DURABLE, durable("durable", case.ticks)),
        (
            RESUMED,
            Box::new(|| {
                let cfg = durable("abandoned", case.ticks);
                let workers = cfg.workers as u64;
                let launched = case.runner(scenario).epoch_len(epoch_len).backend(Backend::Cluster(cfg)).launch();
                let mut handle = launched.unwrap_or_else(|e| fail(RESUMED, e));
                let abandoned_at = epochs / 2 * epoch_len;
                handle.run(abandoned_at).unwrap_or_else(|e| fail(RESUMED, e));
                let abandoned = handle.metrics().counts();
                drop(handle);
                let resumed = DurableRunner::new(&reg, &root).resume("abandoned", 0);
                let resumed = resumed.unwrap_or_else(|e| fail(RESUMED, e));
                assert!(epochs < 2 || resumed.resumed_from > 0, "{call}: leg `{RESUMED}` restarted");
                // Both processes' worth of work: the part abandoned and the resumed rest.
                let counts = abandoned.into_iter().zip(resumed.metrics.counts()).map(|((k, a), (_, b))| (k, a + b));
                let supersteps = workers * (abandoned_at + resumed.ticks - resumed.resumed_from);
                (resumed.checksum, counts.collect(), supersteps)
            }),
        ),
        (
            SERVED,
            Box::new(|| {
                let (checksum, counts) = served(registry, name, case);
                (checksum, counts, case.ticks)
            }),
        ),
    ];
    legs.retain(|(leg, _)| *leg == BASELINE || case.runs(leg));
    let results = run_at_once(&call, legs);
    let _ = std::fs::remove_dir_all(&root);
    let (want, baseline, _) = results[0].1.clone();
    let (mut differing, mut supersteps) = (Vec::new(), Vec::new());
    for (leg, (got, counts, steps)) in results {
        assert_eq!(got, want, "{call}: leg `{leg}` diverged from the baseline: {got:#018X} vs {want:#018X}");
        let names = counts.iter().zip(&baseline).filter(|(a, b)| a != b).map(|((name, _), _)| name.clone());
        differing.extend((leg != BASELINE).then(|| (leg, names.collect())));
        supersteps.push((leg, steps, counts));
    }

    let baseline_agents = baseline_agents.into_inner();
    assert!(baseline_agents > 0, "{call}: the baseline world is empty");
    if baseline_agents > SHARD_ROWS && THREADED.iter().all(|leg| case.runs(leg)) {
        PAST_ONE_SHARD.lock().unwrap_or_else(PoisonError::into_inner).insert(name.to_string());
    }
    Agreed { checksum: want, spawned: spawned.into_inner(), rebalanced: rebalanced.into_inner(), differing, supersteps }
}

/// Run every leg on a thread of its own; what they return, in order. A leg
/// that panics (its message printed above) fails the call, named.
fn run_at_once(call: &str, legs: Vec<Leg<'_>>) -> Vec<(&'static str, (u64, Counts, u64))> {
    std::thread::scope(|s| {
        let running: Vec<_> = legs.into_iter().map(|(leg, body)| (leg, s.spawn(body))).collect();
        running
            .into_iter()
            .map(|(leg, h)| (leg, h.join().unwrap_or_else(|_| panic!("{call}: leg `{leg}` panicked"))))
            .collect()
    })
}

/// `case` through `POST /runs` on a server of its own: the streamed checksum
/// and the counts of the run's registry (`GET /runs/:id/metrics`).
fn served(registry: fn() -> Registry, name: &str, case: &Case) -> (u64, Counts) {
    let server = Server::start(registry(), ServeConfig::default()).expect("bind an ephemeral port");
    let (status, _, body) = post(server.addr(), "/runs", &case.served_body(name));
    assert_eq!(status, 202, "`{name}` {case:?}: served run refused: {body}");
    // The stream blocks until the run ends; its last line carries the result.
    let id = run_id(&body);
    let (_, _, stream) = get(server.addr(), &format!("/runs/{id}/stream"));
    let last = stream.lines().last().unwrap_or_default();
    assert!(last.contains(r#""status":"done""#), "`{name}` {case:?}: served run did not finish: {last}");
    let checksum = field(last, "checksum").unwrap_or_else(|| panic!("no checksum in {last}"));
    let checksum =
        u64::from_str_radix(checksum.trim_start_matches("0x"), 16).unwrap_or_else(|e| panic!("`{checksum}`: {e}"));
    let (status, _, metrics) = get(server.addr(), &format!("/runs/{id}/metrics"));
    assert_eq!(status, 200, "`{name}` {case:?}: no registry for the served run: {metrics}");
    (checksum, counts_of(&metrics))
}

/// The counts a Prometheus exposition of one registry holds, as
/// `Metrics::counts` lists them: every counter, and every histogram's
/// `_count`.
pub fn counts_of(exposition: &str) -> Counts {
    let samples = exposition.lines().filter(|line| !line.starts_with('#')).filter_map(|line| line.split_once(' '));
    let counts = samples.filter(|(name, _)| name.ends_with("_total") || name.ends_with("_count"));
    counts.map(|(name, v)| (name.to_string(), v.parse().unwrap_or_else(|e| panic!("`{name} {v}`: {e}")))).collect()
}

fn cluster(workers: usize) -> ClusterConfig {
    ClusterConfig { workers, ..ClusterConfig::default() }
}

fn temp_dir() -> std::path::PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("brace-matrix-{}-{n}", std::process::id()))
}

// ---- a test-local scenario -------------------------------------------------

/// A scenario built by a plain function of `(agents, seed)` (a setup whose
/// population is fixed ignores `agents`), for setups the builtin registry
/// does not ship. Registered in a test-local [`Registry`], it can be
/// rebuilt by name — which is what resume and serve need.
pub struct Custom {
    pub name: &'static str,
    pub agents: usize,
    pub build: fn(usize, u64) -> ScenarioSetup,
}

impl Scenario for Custom {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "a test-local scenario"
    }

    fn default_population(&self) -> usize {
        self.agents
    }

    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        Ok((self.build)(size.unwrap_or(self.agents), seed))
    }
}

/// A [`Custom`] setup: `behavior` over `population`, in epochs of 5 ticks,
/// the cluster's first partition spanning `space_x`.
pub fn custom_setup(behavior: impl Behavior + 'static, population: Vec<Agent>, space_x: (f64, f64)) -> ScenarioSetup {
    ScenarioSetup { behavior: Arc::new(behavior), population, epoch_len: 5, space_x }
}

/// A registry holding exactly `scenarios`.
pub fn registry_of(scenarios: impl IntoIterator<Item = Custom>) -> Registry {
    let mut registry = Registry::empty();
    for scenario in scenarios {
        registry.register(Box::new(scenario)).expect("unique test-local names");
    }
    registry
}

// ---- worlds ----------------------------------------------------------------

/// Bitwise world equality: stricter than `Agent == Agent` (which treats
/// `0.0 == -0.0`), because the engine, join and evaluator contracts are
/// bit-identity.
pub fn worlds_bit_identical(a: &[Agent], b: &[Agent]) -> std::result::Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("world sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.id == y.id
            && x.alive == y.alive
            && x.pos.x.to_bits() == y.pos.x.to_bits()
            && x.pos.y.to_bits() == y.pos.y.to_bits()
            && x.state.len() == y.state.len()
            && x.state.iter().zip(&y.state).all(|(u, v)| u.to_bits() == v.to_bits())
            && x.effects.len() == y.effects.len()
            && x.effects.iter().zip(&y.effects).all(|(u, v)| u.to_bits() == v.to_bits());
        if !same {
            return Err(format!("agent {} diverged:\n  a: {:?}\n  b: {:?}", x.id, x, y));
        }
    }
    Ok(())
}

pub fn any_index_kind() -> impl Strategy<Value = IndexKind> {
    prop::sample::select(vec![IndexKind::Join, IndexKind::Scan])
}

// ---- the HTTP client ---------------------------------------------------------

/// One request, one response, connection closed (the server's model).
/// Returns `(status, raw head, body)` with chunked bodies decoded.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in `{head}`"));
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, head.to_string(), body)
}

fn dechunk(mut rest: &str) -> String {
    let mut out = String::new();
    while let Some((size, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size.trim(), 16).expect("chunk size");
        out.push_str(&after[..size]);
        rest = after.get(size + 2..).unwrap_or_default(); // the chunk and its CRLF
    }
    out
}

pub fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    request(addr, "GET", path, None)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    request(addr, "POST", path, Some(body))
}

/// A JSON field's raw value, found by text: a string's contents, or a
/// number or literal up to the next `,` or `}`. Plenty for bodies this small.
pub fn field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    match rest.strip_prefix('"') {
        Some(string) => string.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

pub fn run_id(body: &str) -> String {
    field(body, "run_id").expect("response names a run_id").to_string()
}
