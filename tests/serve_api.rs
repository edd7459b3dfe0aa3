//! End-to-end tests of the `brace-serve` control plane over real sockets.
//!
//! Each test boots its own [`Server`] on an ephemeral port (so counters
//! are isolated and tests parallelize), then speaks plain HTTP/1.1 over
//! [`TcpStream`] — the same wire a curl-driven CI smoke test uses. The
//! load-bearing assertions:
//!
//! * a run served through the API is **bit-identical** to the same run
//!   driven directly: it lands on the epidemic's golden checksum, which
//!   every leg of the engine matrix (`tests/common`) agrees on;
//! * a repeat `POST /runs` is answered from the result cache with the
//!   identical checksum and **without re-simulating** (`runs_completed`
//!   does not move, `cache.hits` does);
//! * past the bounded admission queue, `POST /runs` gets `503` with a
//!   `Retry-After` header instead of unbounded buffering;
//! * malformed input produces clean 4xx responses and the server keeps
//!   serving afterwards;
//! * a panicking behaviour fails its own run and nothing else.

mod common;

use brace::common::{AgentId, DetRng, Vec2};
use brace::core::{Agent, AgentRef, AgentSchema, Behavior, EffectWriter, Neighbors, UpdateCtx};
use brace::scenario::CONFORMANCE_POPULATION;
use brace_scenario::Registry;
use brace_serve::{ServeConfig, Server};
use common::{custom_setup, field, get, post, request, run_id, Custom, GOLDEN_EPIDEMIC};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Poll `GET /runs/:id` until the run is terminal; panics after 60 s.
fn wait_terminal(addr: SocketAddr, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, body) = get(addr, &format!("/runs/{id}"));
        assert_eq!(status, 200, "status poll failed: {body}");
        if matches!(field(&body, "status"), Some("done" | "failed")) {
            return body;
        }
        assert!(Instant::now() < deadline, "run {id} did not finish: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// [`wait_terminal`], and the run must have succeeded.
fn wait_done(addr: SocketAddr, id: &str) -> String {
    let body = wait_terminal(addr, id);
    assert_eq!(field(&body, "status"), Some("done"), "run failed: {body}");
    body
}

fn server() -> Server {
    Server::start(Registry::builtin(), ServeConfig::default()).expect("bind ephemeral port")
}

const EPIDEMIC_RUN: &str = r#"{"scenario":"epidemic","conformance":true,"ticks":20,"seed":42}"#;

#[test]
fn catalogue_lists_the_builtin_registry() {
    let server = server();
    let (status, _, body) = get(server.addr(), "/scenarios");
    assert_eq!(status, 200);
    let registry = Registry::builtin();
    for name in registry.names() {
        assert!(body.contains(&format!("\"name\":\"{name}\"")), "catalogue is missing `{name}`: {body}");
    }
    let (status, _, body) = get(server.addr(), "/");
    assert_eq!(status, 200);
    assert!(body.contains("POST /runs"));
}

#[test]
fn served_run_is_bit_identical_to_a_direct_runner_run() {
    let server = server();
    let (status, _, body) = post(server.addr(), "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 202, "fresh run should be accepted into the queue: {body}");
    assert_eq!(field(&body, "cached"), Some("false"));
    let id = run_id(&body);
    let done = wait_done(server.addr(), &id);

    let expect = format!("{GOLDEN_EPIDEMIC:#018X}");
    assert_eq!(field(&done, "checksum"), Some(expect.as_str()), "API and direct runs must agree bit-for-bit");
    assert_eq!(field(&done, "agents"), Some(CONFORMANCE_POPULATION.to_string().as_str()));
    // Single-node conformance runs observe every tick.
    assert_eq!(field(&done, "frames"), Some("20"));
}

#[test]
fn stream_delivers_frames_then_the_final_checksum() {
    let server = server();
    let (_, _, body) = post(server.addr(), "/runs", EPIDEMIC_RUN);
    let id = run_id(&body);
    // The stream blocks until the run completes, then closes — one request
    // observes the whole run.
    let (status, head, stream) = get(server.addr(), &format!("/runs/{id}/stream"));
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("transfer-encoding: chunked"));
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), 21, "20 tick frames plus the terminal line: {stream}");
    assert!(lines[0].contains("\"tick\":1"));
    assert!(lines[19].contains("\"tick\":20"));
    let last = lines[20];
    assert!(last.contains("\"done\":true") && last.contains("\"status\":\"done\""), "terminal line: {last}");
    assert!(last.contains(&format!("{GOLDEN_EPIDEMIC:#018X}")), "streamed checksum must match: {last}");
}

#[test]
fn second_identical_post_is_served_from_the_cache_without_resimulating() {
    let server = server();
    let (status, _, first) = post(server.addr(), "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 202);
    let first_done = wait_done(server.addr(), &run_id(&first));
    let first_checksum = field(&first_done, "checksum").unwrap().to_string();

    let (status, _, second) = post(server.addr(), "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 200, "cache hit answers immediately: {second}");
    assert_eq!(field(&second, "cached"), Some("true"));
    assert_eq!(field(&second, "status"), Some("done"));
    assert_eq!(field(&second, "checksum"), Some(first_checksum.as_str()), "cached result must be bit-identical");

    // The cached record replays its stream instantly, terminal line included.
    let (_, _, stream) = get(server.addr(), &format!("/runs/{}/stream", run_id(&second)));
    assert!(stream.lines().count() == 21 && stream.contains(&first_checksum), "replayed stream: {stream}");

    // The proof it did not re-simulate: one completed execution, one hit.
    let (_, _, stats) = get(server.addr(), "/stats");
    assert_eq!(field(&stats, "runs_completed"), Some("1"), "{stats}");
    assert_eq!(field(&stats, "hits"), Some("1"), "{stats}");
    assert_eq!(field(&stats, "misses"), Some("1"), "{stats}");

    // A different seed is a different canonical line: miss, not hit.
    let (status, _, other) =
        post(server.addr(), "/runs", r#"{"scenario":"epidemic","conformance":true,"ticks":20,"seed":43}"#);
    assert_eq!(status, 202, "{other}");
    let other_done = wait_done(server.addr(), &run_id(&other));
    assert_ne!(field(&other_done, "checksum").unwrap(), first_checksum);
}

/// A conformance run takes an index override: on the scan it streams the
/// join's checksum, the epidemic's golden.
#[test]
fn conformance_run_on_the_scan_streams_the_joins_checksum() {
    let server = server();
    let body = r#"{"scenario":"epidemic","conformance":true,"ticks":20,"seed":42,"index":"scan"}"#;
    let (status, _, posted) = post(server.addr(), "/runs", body);
    assert_eq!(status, 202, "{posted}");
    let (_, _, stream) = get(server.addr(), &format!("/runs/{}/stream", run_id(&posted)));
    let last = stream.lines().last().unwrap_or_default();
    assert!(last.contains(r#""status":"done""#), "terminal line: {last}");
    assert_eq!(field(last, "checksum"), Some(format!("{GOLDEN_EPIDEMIC:#018X}").as_str()), "{last}");
}

/// The retired index names are the join: `"kd"`, then `"grid"`, then
/// `"join"`, then no index, on one job — every request after the first is
/// answered from the first one's cache entry. The scan is an entry of its
/// own with the same bits, and an unknown index is still a 400.
#[test]
fn retired_index_names_share_the_join_cache_entry() {
    let server = server();
    let addr = server.addr();
    let job = |index: &str| {
        format!(r#"{{"scenario":"epidemic","agents":{CONFORMANCE_POPULATION},"ticks":20,"seed":42{index}}}"#)
    };
    let golden = format!("{GOLDEN_EPIDEMIC:#018X}");
    let (status, _, first) = post(addr, "/runs", &job(r#","index":"kd""#));
    assert_eq!(status, 202, "{first}");
    assert!(wait_done(addr, &run_id(&first)).contains(&golden), "the conformance world");
    for index in [r#","index":"grid""#, r#","index":"join""#, ""] {
        let (status, _, hit) = post(addr, "/runs", &job(index));
        assert_eq!(status, 200, "`{index}` is a cache hit: {hit}");
        assert_eq!(field(&hit, "cached"), Some("true"), "{hit}");
        assert!(hit.contains(&golden), "{hit}");
    }
    let (status, _, scan) = post(addr, "/runs", &job(r#","index":"scan""#));
    assert_eq!(status, 202, "the scan is a miss: {scan}");
    assert!(wait_done(addr, &run_id(&scan)).contains(&golden), "the scan's world is the join's");
    let (_, _, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "hits"), Some("3"), "{stats}");
    assert_eq!(field(&stats, "misses"), Some("2"), "{stats}");
    let (status, _, resp) = post(addr, "/runs", &job(r#","index":"octree""#));
    assert_eq!(status, 400, "{resp}");
}

/// The replay cap at its edge: a run of exactly `MAX_CACHED_FRAMES` ticks
/// caches every frame and says nothing about shedding; one tick more keeps
/// the first `MAX_CACHED_FRAMES`, reports `frames_dropped: 1`, and the
/// cached stream still terminates with the miss's checksum line.
#[test]
fn cached_stream_replay_cap_at_n_and_n_plus_one_frames() {
    use brace_serve::MAX_CACHED_FRAMES;
    let server = server();
    for (ticks, dropped) in [(MAX_CACHED_FRAMES, 0usize), (MAX_CACHED_FRAMES + 1, 1)] {
        let job = format!(r#"{{"scenario":"epidemic","agents":16,"ticks":{ticks},"seed":7}}"#);
        let (status, _, miss) = post(server.addr(), "/runs", &job);
        assert_eq!(status, 202, "{miss}");
        let (_, _, live) = get(server.addr(), &format!("/runs/{}/stream", run_id(&miss)));
        assert_eq!(live.lines().count(), ticks + 1, "the live stream carries every frame");
        let checksum = field(live.lines().last().unwrap(), "checksum").expect("terminal checksum").to_string();

        let (status, _, hit) = post(server.addr(), "/runs", &job);
        assert_eq!(status, 200, "the repeat is a cache hit: {hit}");
        let (_, _, replay) = get(server.addr(), &format!("/runs/{}/stream", run_id(&hit)));
        let lines: Vec<&str> = replay.lines().collect();
        assert_eq!(lines.len(), ticks - dropped + 1, "cached frames plus the terminal line");
        assert!(
            lines[lines.len() - 2].contains(&format!("\"tick\":{MAX_CACHED_FRAMES},")),
            "{}",
            lines[lines.len() - 2]
        );
        let last = lines[lines.len() - 1];
        assert!(last.contains("\"done\":true") && last.contains("\"cached\":true"), "terminal line: {last}");
        assert_eq!(field(last, "checksum"), Some(checksum.as_str()), "replay must end on the miss's checksum");
        assert_eq!(field(last, "ticks"), Some(ticks.to_string().as_str()));
        let reported = field(last, "frames_dropped").map(|d| d.parse::<usize>().unwrap());
        assert_eq!(reported.unwrap_or(0), dropped, "terminal line: {last}");
        assert_eq!(reported.is_some(), dropped > 0, "an unshed replay does not mention shedding: {last}");
    }
}

#[test]
fn cluster_backend_runs_are_exact_and_cached_separately() {
    let server = server();
    let cluster_body = r#"{"scenario":"epidemic","conformance":true,"ticks":20,"seed":42,"backend":"cluster:2"}"#;
    let (status, _, body) = post(server.addr(), "/runs", cluster_body);
    assert_eq!(status, 202, "{body}");
    let done = wait_done(server.addr(), &run_id(&body));

    // Conformance scenarios are exactly distributable: the cluster result
    // must equal the single-node result bit-for-bit...
    let (_, _, single) = post(server.addr(), "/runs", EPIDEMIC_RUN);
    let single_done = wait_done(server.addr(), &run_id(&single));
    assert_eq!(field(&done, "checksum"), field(&single_done, "checksum"));

    // ...but the backend label is still part of the cache key, so the two
    // populated separate entries (2 misses, 0 hits so far).
    let (_, _, stats) = get(server.addr(), "/stats");
    assert_eq!(field(&stats, "misses"), Some("2"), "{stats}");
    let (status, _, repeat) = post(server.addr(), "/runs", cluster_body);
    assert_eq!(status, 200);
    assert_eq!(field(&repeat, "cached"), Some("true"), "{repeat}");
}

#[test]
fn concurrent_posts_all_complete_through_the_bounded_pool() {
    let server = server();
    let addr = server.addr();
    let ids: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                scope.spawn(move || {
                    let body = format!(r#"{{"scenario":"epidemic","conformance":true,"ticks":10,"seed":{}}}"#, 100 + i);
                    let (status, _, resp) = post(addr, "/runs", &body);
                    assert_eq!(status, 202, "pool admission should absorb 6 jobs: {resp}");
                    run_id(&resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for id in &ids {
        wait_done(addr, id);
    }
    let (_, _, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "runs_completed"), Some("6"), "{stats}");
    assert_eq!(field(&stats, "runs_failed"), Some("0"), "{stats}");
}

#[test]
fn saturation_rejects_with_503_and_retry_after() {
    // One worker, one queue slot: a burst of long runs must overflow
    // admission while the first run still occupies the worker.
    let cfg = ServeConfig { workers: 1, queue_cap: 1, ..ServeConfig::default() };
    let server = Server::start(Registry::builtin(), cfg).unwrap();
    let mut rejected = 0;
    for seed in 0..6 {
        // Distinct seeds defeat the cache; 20k ticks pin the worker for
        // seconds while the burst of POSTs lands in milliseconds.
        let body = format!(r#"{{"scenario":"epidemic","conformance":true,"ticks":20000,"seed":{seed}}}"#);
        let (status, head, resp) = post(server.addr(), "/runs", &body);
        match status {
            202 => {}
            503 => {
                rejected += 1;
                assert!(head.contains("Retry-After:"), "503 must carry Retry-After: {head}");
                assert!(resp.contains("error"), "{resp}");
            }
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    assert!(rejected >= 3, "with 1 worker + 1 queue slot, most of a 6-POST burst must bounce (got {rejected})");
    let (_, _, stats) = get(server.addr(), "/stats");
    assert_eq!(field(&stats, "rejected_saturated"), Some(rejected.to_string().as_str()), "{stats}");
}

#[test]
fn completed_run_records_are_evicted_by_cap_but_live_runs_never_are() {
    // Cap of one terminal record: completing a second run must evict the
    // first record (oldest-completed first) while anything still queued or
    // running keeps its record.
    let cfg = ServeConfig { max_runs: 1, ..ServeConfig::default() };
    let server = Server::start(Registry::builtin(), cfg).unwrap();
    let addr = server.addr();

    let (status, _, first) = post(addr, "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 202, "{first}");
    let first_id = run_id(&first);
    let first_done = wait_done(addr, &first_id);
    let first_checksum = field(&first_done, "checksum").unwrap().to_string();

    // Second completion pushes the terminal count past the cap of 1.
    let (status, _, second) = post(addr, "/runs", r#"{"scenario":"epidemic","conformance":true,"ticks":20,"seed":7}"#);
    assert_eq!(status, 202, "{second}");
    let second_id = run_id(&second);
    wait_done(addr, &second_id);

    // Eviction is sweep-driven (terminal transitions and POSTs), so after
    // the second run finished the first record must be gone...
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = get(addr, &format!("/runs/{first_id}"));
        if status == 404 {
            break;
        }
        assert!(Instant::now() < deadline, "first record was never evicted: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    // ...while the newest terminal record is still addressable.
    let (status, _, _) = get(addr, &format!("/runs/{second_id}"));
    assert_eq!(status, 200);
    let (_, _, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "evicted_runs"), Some("1"), "{stats}");
    assert_eq!(field(&stats, "runs_completed"), Some("2"), "{stats}");

    // Eviction dropped the record, not the result: the canonical job is
    // still answered bit-identically from the result cache.
    let (status, _, repeat) = post(addr, "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 200, "{repeat}");
    assert_eq!(field(&repeat, "cached"), Some("true"));
    assert_eq!(field(&repeat, "checksum"), Some(first_checksum.as_str()));
}

#[test]
fn zero_ttl_expires_records_the_moment_they_complete() {
    let cfg = ServeConfig { run_ttl_secs: 0, ..ServeConfig::default() };
    let server = Server::start(Registry::builtin(), cfg).unwrap();
    let addr = server.addr();
    let (status, _, body) = post(addr, "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 202, "{body}");
    let id = run_id(&body);
    // The record exists while queued/running (a live run is never swept),
    // then vanishes at completion — poll straight to 404.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _, poll) = get(addr, &format!("/runs/{id}"));
        if status == 404 {
            break;
        }
        assert_eq!(status, 200, "{poll}");
        assert_ne!(field(&poll, "status"), Some("failed"), "{poll}");
        assert!(Instant::now() < deadline, "record never expired: {poll}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, _, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "runs_completed"), Some("1"), "the run itself completed: {stats}");
    assert_eq!(field(&stats, "evicted_runs"), Some("1"), "{stats}");
}

#[test]
fn malformed_requests_get_clean_errors_and_the_server_survives() {
    let server = server();
    let addr = server.addr();
    let cases: &[(&str, u16)] = &[
        ("this is not json", 400),
        ("{\"ticks\": 5}", 400),     // no scenario
        ("{\"scenario\": 42}", 400), // wrong type
        ("{\"scenario\": \"no-such-model\"}", 404),
        ("{\"scenario\": \"fish\", \"ticks\": 0}", 400),
        ("{\"scenario\": \"fish\", \"backend\": \"gpu\"}", 400),
        ("{\"scenario\": \"fish\", \"backend\": \"cluster:0\"}", 400),
        ("{\"scenario\": \"fish\", \"backend\": \"cluster:65\"}", 400), // past Backend::MAX_WORKERS
        ("{\"scenario\": \"fish\", \"index\": \"octree\"}", 400),
        ("{\"scenario\": \"fish\", \"conformance\": true, \"agents\": 7}", 400),
        ("[1,2,3]", 400),                                // not an object
        ("{\"scenario\":\"fish\",\"ticks\":1e99}", 400), // absurd horizon
    ];
    for (body, want) in cases {
        let (status, _, resp) = post(addr, "/runs", body);
        assert_eq!(status, *want, "body `{body}` → {resp}");
        assert!(resp.contains("\"error\""), "error responses carry a message: {resp}");
    }
    let (status, _, _) = get(addr, "/runs/r999");
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/runs/r999/stream");
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/no-such-endpoint");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "DELETE", "/runs", None);
    assert_eq!(status, 404);

    // After all that abuse, a well-formed run still goes through.
    let (status, _, body) = post(addr, "/runs", r#"{"scenario":"epidemic","conformance":true,"ticks":5}"#);
    assert_eq!(status, 202, "{body}");
    wait_done(addr, &run_id(&body));
}

/// `GET /metrics` speaks Prometheus text exposition v0.0.4 and covers the
/// whole registry: executor phase histograms, traffic-class byte counters,
/// and the serve-plane counters, every family rendered with HELP/TYPE even
/// at zero. The telemetry registry is process-global (servers in parallel
/// tests share it), so values are asserted as lower bounds, not equalities.
#[test]
fn metrics_scrape_exposes_prometheus_families() {
    let server = server();
    let addr = server.addr();
    let (_, _, body) = post(addr, "/runs", EPIDEMIC_RUN);
    wait_done(addr, &run_id(&body));

    let (status, head, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("text/plain; version=0.0.4"), "wrong content type:\n{head}");
    for family in [
        "brace_serve_runs_total",
        "brace_serve_cache_misses_total",
        "brace_serve_cache_hits_total",
        "brace_serve_queue_depth",
        "brace_serve_run_latency_ns",
        "brace_phase_index_maintain_ns",
        "brace_phase_query_ns",
        "brace_phase_effect_merge_ns",
        "brace_phase_update_ns",
        "brace_executor_ticks_total",
        "brace_net_control_bytes_total",
        "brace_epoch_barrier_wait_ns",
    ] {
        assert!(metrics.contains(&format!("# TYPE {family} ")), "family `{family}` missing from scrape:\n{metrics}");
    }
    // The run driven above moved the serve counter and the executor phase
    // histograms; cumulative buckets end at +Inf and match _count.
    let value = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
            .and_then(|l| l.split_whitespace().nth(1))
            .unwrap_or_else(|| panic!("`{name}` not found in scrape"))
            .parse()
            .unwrap_or_else(|e| panic!("`{name}` is not an integer: {e}"))
    };
    assert!(value("brace_serve_runs_total") >= 1);
    assert!(value("brace_executor_ticks_total") >= 20, "the 20-tick run must have recorded its ticks");
    assert!(value("brace_phase_query_ns_count") >= 20);
    assert!(metrics.contains("brace_phase_query_ns_bucket{le=\"+Inf\"}"), "histograms must end at +Inf");
}

/// A served single-node run gets `max(1, cores ÷ workers)` threads, and
/// `GET /stats` says so.
#[test]
fn stats_report_the_run_thread_budget() {
    let server = Server::start(Registry::builtin(), ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(server.run_threads(), cores);
    let (_, _, stats) = get(server.addr(), "/stats");
    assert_eq!(field(&stats, "run_threads"), Some(cores.to_string().as_str()), "{stats}");
}

const PANIC_MESSAGE: &str = "behaviour gave up at tick 3";

/// Agent 0's update panics at tick 3, and no other agent's: on a cluster,
/// one worker fails while its peers wait on it.
struct PanicsAtTickThree {
    schema: AgentSchema,
}

impl Behavior for PanicsAtTickThree {
    fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    fn query(&self, _me: AgentRef<'_>, _nbrs: &Neighbors<'_>, _eff: &mut EffectWriter<'_>, _rng: &mut DetRng) {}

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        if ctx.tick == 3 && me.id == AgentId::new(0) {
            panic!("{PANIC_MESSAGE}");
        }
    }
}

/// A panic inside a served run fails that run alone, on either backend: the
/// record reads `failed` with the panic's message, `runs_failed` counts it,
/// and the one pool thread survives to run the next job bit-identically.
/// The population spans three executor shards, so a single-node run on more
/// than one thread panics on a shard thread, not the calling one; on
/// `cluster:2` the worker that panics fails the epoch for both.
#[test]
fn a_panicking_behaviour_fails_its_run_alone() {
    let mut registry = Registry::builtin();
    let panics = Custom {
        name: "panics-at-tick-3",
        agents: 4_500,
        build: |n, _| {
            let schema = AgentSchema::builder("PanicsAtTickThree").visibility(1.0).reachability(1.0).build().unwrap();
            let pop = (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64, 0.0), &schema)).collect();
            custom_setup(PanicsAtTickThree { schema }, pop, (0.0, n as f64))
        },
    };
    registry.register(Box::new(panics)).unwrap();
    let server = Server::start(registry, ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let addr = server.addr();

    for backend in ["single", "cluster:2"] {
        let job = format!(r#"{{"scenario":"panics-at-tick-3","ticks":10,"backend":"{backend}"}}"#);
        let (status, _, body) = post(addr, "/runs", &job);
        assert_eq!(status, 202, "{body}");
        let failed = wait_terminal(addr, &run_id(&body));
        assert_eq!(field(&failed, "status"), Some("failed"), "{backend}: {failed}");
        let error = field(&failed, "error").unwrap_or_default();
        assert!(error.contains(PANIC_MESSAGE), "{backend}: {failed}");
    }

    let (status, _, body) = post(addr, "/runs", EPIDEMIC_RUN);
    assert_eq!(status, 202, "{body}");
    let done = wait_done(addr, &run_id(&body));
    assert_eq!(field(&done, "checksum"), Some(format!("{GOLDEN_EPIDEMIC:#018X}").as_str()));

    let (_, _, stats) = get(addr, "/stats");
    assert_eq!(field(&stats, "runs_failed"), Some("2"), "{stats}");
    assert_eq!(field(&stats, "runs_completed"), Some("1"), "{stats}");
}
