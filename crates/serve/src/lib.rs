//! `brace-serve`: simulation-as-a-service over the scenario runner.
//!
//! The PR-5 `Runner`/`SimHandle`/`Observer` seam turned every backend into
//! a launch-poll-collect state machine; this crate puts that seam on a
//! socket. A [`Server`] owns a [`Registry`] catalogue, a bounded pool of
//! simulation workers, and a content-addressed result cache, and speaks
//! just enough HTTP/1.1 (hand-rolled over [`std::net`] threads — the
//! vendored-dependency constraint rules out a real web stack) to expose:
//!
//! | endpoint | what |
//! |---|---|
//! | `GET /scenarios` | the registry catalogue |
//! | `POST /runs` | submit a run (scenario, backend, ticks, agents, seed, …) |
//! | `GET /runs/:id` | status and result metrics |
//! | `GET /runs/:id/stream` | chunked per-tick observations, then the result |
//! | `GET /runs/:id/metrics` | Prometheus text exposition of a finished run's own telemetry registry |
//! | `GET /stats` | pool, admission and cache counters |
//! | `GET /metrics` | Prometheus text exposition of the process's telemetry total |
//!
//! **Admission control** is explicit: jobs wait in a bounded queue and a
//! `POST` that finds the queue full is rejected with `503` plus a
//! `Retry-After` header instead of being buffered without bound — the
//! control plane's version of the paper's position that overload should
//! surface as backpressure, not latency.
//!
//! **The result cache** is what determinism buys. The canonical job line
//! ([`RunKey::canonical`]) fully determines the result bits, so a repeat
//! `POST /runs` is answered from the stored checksum and observation
//! frames without re-simulating — bit-identical to the original, counted
//! on `GET /stats`, and pinned end-to-end by `tests/serve_api.rs`.
//!
//! **Run records are bounded.** A finished (Done/Failed) record stays
//! addressable at `GET /runs/:id` only until it ages past
//! [`ServeConfig::run_ttl_secs`] or more than [`ServeConfig::max_runs`]
//! newer runs have completed — then it is evicted (oldest-completed first,
//! counted as `evicted_runs` on `GET /stats`) and the id answers `404`.
//! Queued and running records are never evicted, so a long-lived service
//! cannot leak memory per submitted run while an in-flight run can never
//! lose its record. The canonical *result* usually outlives the record in
//! the result cache: re-`POST`ing the same job is still a hit.

mod cache;
mod http;
mod json;

pub use cache::{CachedRun, ResultCache, MAX_CACHED_FRAMES};
pub use http::{read_request, HttpError, Request, MAX_BODY};
pub use json::Json;

use brace_common::{panic_message, Result};
use brace_scenario::runner::DEFAULT_SEED;
use brace_scenario::{index_by_name, Backend, JobSpec, Observer, Progress, Registry, RunKey, Runner};
use brace_telemetry::{Counter as TelCounter, HistId, Metrics};
use http::ChunkedWriter;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Everything tunable about a [`Server`]. `Default` suits tests (ephemeral
/// port, small pool); the CLI overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Simulation worker threads: the pool that runs jobs concurrently.
    /// A served single-node run gets `max(1, cores ÷ workers)` threads of
    /// its own (`run_threads` on `GET /stats`), held as `run_threads − 1`
    /// parked helpers for the run's life and joined when it ends, so a full
    /// pool keeps every core busy without oversubscribing them; the budget
    /// never changes a result bit. Cluster runs keep their own placement.
    pub workers: usize,
    /// Bounded admission queue: jobs accepted but not yet picked up by a
    /// worker. A `POST` past this bound gets `503` + `Retry-After`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (LRU beyond it).
    pub cache_cap: usize,
    /// Value of the `Retry-After` header on saturation rejections.
    pub retry_after_secs: u64,
    /// Largest accepted run horizon.
    pub max_ticks: u64,
    /// Largest accepted population override.
    pub max_agents: usize,
    /// Bound on *terminal* run records kept for `GET /runs/:id`: once more
    /// than this many runs have finished, the oldest-completed are evicted
    /// (counted in `evicted_runs` on `GET /stats`). Queued/running records
    /// are never evicted — only completion starts the clock.
    pub max_runs: usize,
    /// Time-to-live of a terminal run record; records older than this are
    /// evicted on the next sweep even when the map is under `max_runs`.
    pub run_ttl_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 8,
            cache_cap: 64,
            retry_after_secs: 1,
            max_ticks: 1_000_000,
            max_agents: 10_000_000,
            max_runs: 256,
            run_ttl_secs: 3600,
        }
    }
}

/// Monotonic service counters, readable without any lock on `GET /stats`.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    bad_requests: AtomicU64,
    rejected_saturated: AtomicU64,
    runs_accepted: AtomicU64,
    runs_completed: AtomicU64,
    runs_failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    evicted_runs: AtomicU64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Queued,
    Running,
    Done,
    Failed,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Queued => "queued",
            Status::Running => "running",
            Status::Done => "done",
            Status::Failed => "failed",
        }
    }
}

/// Result metrics of a finished run.
#[derive(Debug, Clone)]
struct Finished {
    checksum: u64,
    agents: usize,
    wall_secs: f64,
    agents_per_sec: f64,
    /// What the run recorded (`None` when served from the cache).
    metrics: Option<Arc<Metrics>>,
}

struct RunState {
    status: Status,
    /// `(tick, agents)` per completed tick (epoch on the cluster backend),
    /// appended live by the observer; `GET /runs/:id/stream` tails this.
    frames: Vec<(u64, usize)>,
    result: Option<Finished>,
    error: Option<String>,
    /// Served from the result cache without re-simulating.
    cached: bool,
    /// Frames the cached replay shed to the [`MAX_CACHED_FRAMES`] cap
    /// (always 0 for a live run, which streams every frame).
    frames_dropped: usize,
}

impl RunState {
    fn terminal(&self) -> bool {
        matches!(self.status, Status::Done | Status::Failed)
    }
}

/// One submitted run: the key that identifies it plus live state that the
/// worker writes and status/stream handlers wait on via the condvar.
struct RunRecord {
    id: String,
    key: RunKey,
    state: Mutex<RunState>,
    progressed: Condvar,
}

impl RunRecord {
    fn new(id: String, key: RunKey, state: RunState) -> Arc<RunRecord> {
        Arc::new(RunRecord { id, key, state: Mutex::new(state), progressed: Condvar::new() })
    }
}

/// Bridges [`Observer`] ticks into the record's frame log so stream
/// handlers (waiting on the condvar) see progress as it happens.
struct RecordObserver {
    record: Arc<RunRecord>,
}

impl Observer for RecordObserver {
    fn on_tick(&mut self, progress: &Progress) {
        let mut st = self.record.state.lock().unwrap();
        st.frames.push((progress.tick, progress.agents));
        drop(st);
        self.record.progressed.notify_all();
    }
}

struct App {
    registry: Registry,
    cfg: ServeConfig,
    runs: Mutex<HashMap<String, Arc<RunRecord>>>,
    /// Terminal run ids in completion order, stamped with their completion
    /// instant — the eviction queue behind the bounded `runs` map (TTL +
    /// LRU-by-completion cap; see [`ServeConfig::max_runs`]). Only ids of
    /// Done/Failed records ever enter, so a sweep can never evict a run
    /// that is still queued or executing. Lock order: `completed` before
    /// `runs` ([`sweep_runs`]), `queue` before `runs` (`post_run`); nothing
    /// takes `completed` and `queue` together.
    completed: Mutex<VecDeque<(String, std::time::Instant)>>,
    next_id: AtomicU64,
    queue: Mutex<VecDeque<Arc<RunRecord>>>,
    queue_ready: Condvar,
    cache: Mutex<ResultCache>,
    stats: Stats,
    /// Thread budget of a served single-node run (see
    /// [`ServeConfig::workers`]), resolved once at start.
    run_threads: usize,
    shutdown: AtomicBool,
}

/// A running control plane. Bind with [`Server::start`]; the accept loop
/// and workers run on background threads until [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    app: Arc<App>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, return immediately.
    pub fn start(registry: Registry, cfg: ServeConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| brace_common::BraceError::Config(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener.local_addr().expect("bound listener has a local addr");
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let app = Arc::new(App {
            cache: Mutex::new(ResultCache::new(cfg.cache_cap)),
            run_threads: (cores / cfg.workers.max(1)).max(1),
            registry,
            cfg,
            runs: Mutex::new(HashMap::new()),
            completed: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
        });
        for _ in 0..app.cfg.workers.max(1) {
            let app = Arc::clone(&app);
            thread::spawn(move || worker_loop(&app));
        }
        let accept_app = Arc::clone(&app);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_app));
        Ok(Server { addr, app, accept: Some(accept) })
    }

    /// The bound address (resolves port 0 to the ephemeral port picked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Threads each served single-node run gets: `max(1, cores ÷ workers)`,
    /// the calling pool thread and `run_threads − 1` parked helpers that
    /// live as long as the run.
    pub fn run_threads(&self) -> usize {
        self.app.run_threads
    }

    /// Stop accepting connections and wake idle workers so they exit.
    /// Workers mid-simulation finish their current job and then exit; they
    /// are not joined (a simulation cannot be interrupted midway).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.app.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.app.queue_ready.notify_all();
        // Unblock `accept` with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, app: &Arc<App>) {
    for stream in listener.incoming() {
        if app.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let app = Arc::clone(app);
        thread::spawn(move || handle_connection(&app, stream));
    }
}

fn worker_loop(app: &Arc<App>) {
    loop {
        let record = {
            let mut queue = app.queue.lock().unwrap();
            loop {
                if app.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(r) = queue.pop_front() {
                    break r;
                }
                queue = app.queue_ready.wait(queue).unwrap();
            }
        };
        execute(app, &record);
    }
}

/// Run one job to completion and publish the result (and cache entry).
fn execute(app: &Arc<App>, record: &Arc<RunRecord>) {
    {
        let mut st = record.state.lock().unwrap();
        st.status = Status::Running;
    }
    record.progressed.notify_all();

    // One unwind boundary around the run: a panicking behaviour fails this
    // run alone, and the pool thread lives on to take the next job.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        let key = &record.key;
        let scenario = app.registry.get_or_err(&key.job.scenario)?;
        // Validated at POST time. A single-node run takes the server's
        // thread budget, which never changes a bit of the result.
        let backend = match Backend::parse(&key.backend)? {
            Backend::SingleNode { .. } => Backend::SingleNode { parallelism: app.run_threads },
            cluster => cluster,
        };
        let mut runner = Runner::new(scenario).backend(backend).seed(key.seed).index(key.index);
        if key.job.conformance {
            runner = runner.conformance();
        } else if let Some(size) = key.job.size {
            runner = runner.population(size);
        }
        runner = runner.observe(Box::new(RecordObserver { record: Arc::clone(record) }));
        runner.run(key.ticks)
    }))
    .map_or_else(|payload| Err(panic_message(payload.as_ref())), |run| run.map_err(|e| e.to_string()));

    match outcome {
        Ok(report) => {
            brace_telemetry::observe(HistId::ServeRunLatency, (report.wall_secs * 1e9) as u64);
            let finished = Finished {
                checksum: report.checksum,
                agents: report.agents,
                wall_secs: report.wall_secs,
                agents_per_sec: report.agents_per_sec,
                metrics: Some(report.metrics),
            };
            // The run's frames are final. The result reaches the cache and
            // the counters before the record says done: a client that reads
            // the terminal line and posts the job again gets a hit.
            let mut frames = record.state.lock().unwrap().frames.clone();
            let frames_dropped = frames.len().saturating_sub(MAX_CACHED_FRAMES);
            frames.truncate(MAX_CACHED_FRAMES);
            let entry = CachedRun {
                checksum: finished.checksum,
                agents: finished.agents,
                ticks: record.key.ticks,
                wall_secs: finished.wall_secs,
                agents_per_sec: finished.agents_per_sec,
                frames,
                frames_dropped,
            };
            let evicted = app.cache.lock().unwrap().insert(record.key.cache_key(), entry);
            app.stats.cache_evictions.fetch_add(evicted as u64, Ordering::Relaxed);
            app.stats.runs_completed.fetch_add(1, Ordering::Relaxed);
            let mut st = record.state.lock().unwrap();
            st.status = Status::Done;
            st.result = Some(finished);
        }
        Err(e) => {
            app.stats.runs_failed.fetch_add(1, Ordering::Relaxed);
            let mut st = record.state.lock().unwrap();
            st.status = Status::Failed;
            st.error = Some(e);
        }
    }
    record.progressed.notify_all();
    note_terminal(app, &record.id);
}

/// Record that `id` reached a terminal state (Done/Failed), then sweep.
/// Entering the completion queue is what makes a record evictable.
fn note_terminal(app: &Arc<App>, id: &str) {
    app.completed.lock().unwrap().push_back((id.to_string(), std::time::Instant::now()));
    sweep_runs(app);
}

/// Evict terminal run records that are past their TTL or beyond the
/// `max_runs` cap (oldest-completed first). Live records are untouched by
/// construction: only terminal ids are in the completion queue. Evicted
/// ids answer `404` afterwards — the canonical job result itself usually
/// survives longer in the result cache, which has its own LRU.
fn sweep_runs(app: &Arc<App>) {
    let now = std::time::Instant::now();
    let ttl = Duration::from_secs(app.cfg.run_ttl_secs);
    let mut completed = app.completed.lock().unwrap();
    let mut runs = app.runs.lock().unwrap();
    let mut evicted = 0u64;
    while let Some((id, at)) = completed.front() {
        let over_cap = completed.len() > app.cfg.max_runs.max(1);
        let expired = now.duration_since(*at) >= ttl;
        if !over_cap && !expired {
            break;
        }
        runs.remove(id);
        completed.pop_front();
        evicted += 1;
    }
    if evicted > 0 {
        app.stats.evicted_runs.fetch_add(evicted, Ordering::Relaxed);
    }
}

fn handle_connection(app: &Arc<App>, mut stream: TcpStream) {
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(_)) => return, // peer gone; nothing to answer
        Err(HttpError::Bad(status, msg)) => {
            app.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = error_response(&mut stream, status, &msg);
            return;
        }
    };
    app.stats.requests.fetch_add(1, Ordering::Relaxed);
    let _ = route(app, &mut stream, &request);
}

fn route(app: &Arc<App>, stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/") => ok_json(stream, &index_body()),
        ("GET", "/scenarios") => ok_json(stream, &scenarios_body(app)),
        ("GET", "/stats") => ok_json(stream, &stats_body(app)),
        ("GET", "/metrics") => metrics(app, stream),
        ("POST", "/runs") => post_run(app, stream, &req.body),
        ("GET", _) if path.starts_with("/runs/") => {
            let rest = &path["/runs/".len()..];
            match rest.split_once('/') {
                None => run_status(app, stream, rest),
                Some((id, "stream")) => run_stream(app, stream, id),
                Some((id, "metrics")) => run_metrics(app, stream, id),
                Some(_) => not_found(app, stream, path),
            }
        }
        ("POST" | "PUT" | "DELETE", _) | ("GET", _) => not_found(app, stream, path),
        _ => {
            app.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            error_response(stream, 405, &format!("method {} not supported", req.method))
        }
    }
}

// ---- endpoint bodies -------------------------------------------------------

fn index_body() -> String {
    "{\"service\":\"brace-serve\",\"endpoints\":[\"GET /scenarios\",\"POST /runs\",\"GET /runs/:id\",\
     \"GET /runs/:id/stream\",\"GET /runs/:id/metrics\",\"GET /stats\",\"GET /metrics\"]}"
        .to_string()
}

/// Prometheus text exposition (v0.0.4) of the process's telemetry total —
/// every run's records and the serve plane's own — then this server's queue
/// depth, sampled at scrape.
fn metrics(app: &Arc<App>, stream: &mut TcpStream) -> std::io::Result<()> {
    let (name, depth) = ("brace_serve_queue_depth", app.queue.lock().unwrap().len());
    let gauge =
        format!("# HELP {name} Jobs waiting in the serve admission queue\n# TYPE {name} gauge\n{name} {depth}\n");
    let body = brace_telemetry::TOTAL.render_prometheus() + &gauge;
    http::write_response(stream, 200, "OK", &[], "text/plain; version=0.0.4", &body)
}

/// The same exposition of one finished run's own registry: what that run
/// recorded, and nothing else (none while in flight, failed or cached).
fn run_metrics(app: &Arc<App>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let metrics = lookup(app, id).and_then(|r| r.state.lock().unwrap().result.as_ref()?.metrics.clone());
    match metrics {
        Some(m) => http::write_response(stream, 200, "OK", &[], "text/plain; version=0.0.4", &m.render_prometheus()),
        None => not_found(app, stream, &format!("/runs/{id}/metrics")),
    }
}

fn scenarios_body(app: &Arc<App>) -> String {
    let items: Vec<String> = app
        .registry
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"description\":\"{}\",\"default_population\":{}}}",
                json::escape(s.name()),
                json::escape(s.description()),
                s.default_population()
            )
        })
        .collect();
    format!("{{\"scenarios\":[{}]}}", items.join(","))
}

fn stats_body(app: &Arc<App>) -> String {
    let s = &app.stats;
    let queue_depth = app.queue.lock().unwrap().len();
    let (cache_entries, cache_cap) = {
        let c = app.cache.lock().unwrap();
        (c.len(), app.cfg.cache_cap)
    };
    let runs = app.runs.lock().unwrap().len();
    format!(
        "{{\"workers\":{},\"run_threads\":{},\"queue_cap\":{},\"queue_depth\":{queue_depth},\"runs\":{runs},\
         \"max_runs\":{},\"evicted_runs\":{},\
         \"requests\":{},\"bad_requests\":{},\"rejected_saturated\":{},\
         \"runs_accepted\":{},\"runs_completed\":{},\"runs_failed\":{},\
         \"cache\":{{\"capacity\":{cache_cap},\"entries\":{cache_entries},\"hits\":{},\"misses\":{},\"evictions\":{}}}}}",
        app.cfg.workers,
        app.run_threads,
        app.cfg.queue_cap,
        app.cfg.max_runs,
        s.evicted_runs.load(Ordering::Relaxed),
        s.requests.load(Ordering::Relaxed),
        s.bad_requests.load(Ordering::Relaxed),
        s.rejected_saturated.load(Ordering::Relaxed),
        s.runs_accepted.load(Ordering::Relaxed),
        s.runs_completed.load(Ordering::Relaxed),
        s.runs_failed.load(Ordering::Relaxed),
        s.cache_hits.load(Ordering::Relaxed),
        s.cache_misses.load(Ordering::Relaxed),
        s.cache_evictions.load(Ordering::Relaxed),
    )
}

/// Parse and validate a `POST /runs` body into the run's canonical key.
/// Unknown fields are ignored (same forward-compatibility stance as the
/// job-line parser). Errors are `(status, message)`.
fn parse_run_spec(body: &str, registry: &Registry, cfg: &ServeConfig) -> std::result::Result<RunKey, (u16, String)> {
    let doc = Json::parse(body).map_err(|e| (400, format!("malformed JSON body: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err((400, "body must be a JSON object".into()));
    }
    let scenario = doc
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or((400, "body must name a \"scenario\" (string)".to_string()))?
        .to_string();
    if registry.get(&scenario).is_none() {
        return Err((404, format!("unknown scenario `{scenario}` (see GET /scenarios)")));
    }

    let field_u64 = |name: &str, default: u64| -> std::result::Result<u64, (u16, String)> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(default),
            Some(v) => v.as_u64().ok_or((400, format!("\"{name}\" must be a non-negative integer"))),
        }
    };
    let ticks = field_u64("ticks", 20)?;
    if ticks == 0 || ticks > cfg.max_ticks {
        return Err((400, format!("\"ticks\" must be between 1 and {}", cfg.max_ticks)));
    }
    let seed = field_u64("seed", DEFAULT_SEED)?;
    let agents = match doc.get("agents") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let n = v.as_u64().ok_or((400, "\"agents\" must be a non-negative integer".to_string()))?;
            if n == 0 || n > cfg.max_agents as u64 {
                return Err((400, format!("\"agents\" must be between 1 and {}", cfg.max_agents)));
            }
            Some(n as usize)
        }
    };
    let conformance = match doc.get("conformance") {
        None | Some(Json::Null) => false,
        Some(v) => v.as_bool().ok_or((400, "\"conformance\" must be a boolean".to_string()))?,
    };
    let backend = match doc.get("backend") {
        None | Some(Json::Null) => Backend::single(),
        Some(v) => {
            let s = v.as_str().ok_or((400, "\"backend\" must be a string".to_string()))?;
            Backend::parse(s).map_err(|e| (400, e.to_string()))?
        }
    };
    let index = match doc.get("index") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let s = v.as_str().ok_or((400, "\"index\" must be a string".to_string()))?;
            Some(index_by_name(s).ok_or((400, format!("unknown index `{s}` (join|scan)")))?)
        }
    };
    // Mirror the Runner's conformance fixed-point rule at admission so the
    // conflict is a clean 400, not a failed run.
    if conformance && agents.is_some() {
        return Err((
            400,
            "an \"agents\" override conflicts with \"conformance\": true \
             (the conformance population is part of the exactly-distributable contract)"
                .into(),
        ));
    }

    let index = index.unwrap_or_default();
    Ok(RunKey { job: JobSpec { scenario, size: agents, conformance }, seed, ticks, index, backend: backend.label() })
}

fn post_run(app: &Arc<App>, stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
    let key = match parse_run_spec(body, &app.registry, &app.cfg) {
        Ok(k) => k,
        Err((status, msg)) => {
            app.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            return error_response(stream, status, &msg);
        }
    };

    // Cache first: a hit materializes a finished record immediately — no
    // queue slot, no worker, no simulation.
    let cached = app.cache.lock().unwrap().get(key.cache_key());
    if let Some(hit) = cached {
        app.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        brace_telemetry::incr(TelCounter::ServeCacheHits);
        let id = format!("r{}", app.next_id.fetch_add(1, Ordering::Relaxed));
        let record = RunRecord::new(
            id.clone(),
            key,
            RunState {
                status: Status::Done,
                frames: hit.frames.clone(),
                result: Some(Finished {
                    checksum: hit.checksum,
                    agents: hit.agents,
                    wall_secs: hit.wall_secs,
                    agents_per_sec: hit.agents_per_sec,
                    metrics: None,
                }),
                error: None,
                cached: true,
                frames_dropped: hit.frames_dropped,
            },
        );
        app.runs.lock().unwrap().insert(id.clone(), record);
        app.stats.runs_accepted.fetch_add(1, Ordering::Relaxed);
        brace_telemetry::incr(TelCounter::ServeRuns);
        // A cache-hit record is born terminal: evictable immediately.
        note_terminal(app, &id);
        let body = format!(
            "{{\"run_id\":\"{id}\",\"status\":\"done\",\"cached\":true,\"checksum\":\"{:#018X}\"}}",
            hit.checksum
        );
        return http::write_response(stream, 200, "OK", &[], "application/json", &body);
    }
    app.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    brace_telemetry::incr(TelCounter::ServeCacheMisses);
    // TTL-expire old terminal records even when nothing is completing.
    sweep_runs(app);

    // Admission: bounded queue, explicit backpressure past the bound.
    let id = format!("r{}", app.next_id.fetch_add(1, Ordering::Relaxed));
    let record = RunRecord::new(
        id.clone(),
        key,
        RunState {
            status: Status::Queued,
            frames: Vec::new(),
            result: None,
            error: None,
            cached: false,
            frames_dropped: 0,
        },
    );
    {
        let mut queue = app.queue.lock().unwrap();
        if queue.len() >= app.cfg.queue_cap {
            app.stats.rejected_saturated.fetch_add(1, Ordering::Relaxed);
            let retry = app.cfg.retry_after_secs.to_string();
            let body = format!("{{\"error\":\"admission queue full ({} waiting); retry later\"}}", queue.len());
            drop(queue);
            return http::write_response(
                stream,
                503,
                "Service Unavailable",
                &[("Retry-After", retry)],
                "application/json",
                &body,
            );
        }
        // Register the run before a worker can pop it: a run that finished
        // unregistered would be swept before its insert and never expire.
        app.runs.lock().unwrap().insert(id.clone(), Arc::clone(&record));
        queue.push_back(record);
    }
    app.queue_ready.notify_one();
    app.stats.runs_accepted.fetch_add(1, Ordering::Relaxed);
    brace_telemetry::incr(TelCounter::ServeRuns);
    let body = format!("{{\"run_id\":\"{id}\",\"status\":\"queued\",\"cached\":false}}");
    http::write_response(stream, 202, "Accepted", &[], "application/json", &body)
}

fn lookup(app: &Arc<App>, id: &str) -> Option<Arc<RunRecord>> {
    app.runs.lock().unwrap().get(id).cloned()
}

fn run_status(app: &Arc<App>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let Some(record) = lookup(app, id) else {
        return not_found(app, stream, &format!("/runs/{id}"));
    };
    let st = record.state.lock().unwrap();
    let mut body = format!(
        "{{\"run_id\":\"{}\",\"job\":\"{}\",\"status\":\"{}\",\"cached\":{},\"ticks\":{},\"frames\":{}",
        record.id,
        json::escape(&record.key.canonical()),
        st.status.name(),
        st.cached,
        record.key.ticks,
        st.frames.len()
    );
    if let Some(r) = &st.result {
        body.push_str(&format!(
            ",\"checksum\":\"{:#018X}\",\"agents\":{},\"wall_secs\":{:.6},\"agents_per_sec\":{:.1}",
            r.checksum, r.agents, r.wall_secs, r.agents_per_sec
        ));
    }
    if let Some(e) = &st.error {
        body.push_str(&format!(",\"error\":\"{}\"", json::escape(e)));
    }
    body.push('}');
    drop(st);
    ok_json(stream, &body)
}

/// Stream per-tick frames as NDJSON chunks, then one terminal line, then
/// end. Blocks (on the record's condvar) while the run is in flight, so a
/// client — or the CI smoke test — can `curl` this URL and read the final
/// checksum the moment the simulation finishes. Cached runs replay their
/// stored frames instantly.
fn run_stream(app: &Arc<App>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let Some(record) = lookup(app, id) else {
        return not_found(app, stream, &format!("/runs/{id}/stream"));
    };
    // A stream can outlive the read timeout set at accept; it is bounded
    // instead by the run itself (and the write timeout if the peer stalls).
    let mut writer = ChunkedWriter::start(stream, "application/x-ndjson")?;
    let mut sent = 0usize;
    loop {
        let (new_frames, terminal) = {
            let mut st = record.state.lock().unwrap();
            while st.frames.len() == sent && !st.terminal() {
                st = record.progressed.wait(st).unwrap();
            }
            (st.frames[sent..].to_vec(), if st.terminal() { Some(terminal_line(&record, &st)) } else { None })
        };
        let mut chunk = String::new();
        for (tick, agents) in &new_frames {
            chunk.push_str(&format!("{{\"tick\":{tick},\"agents\":{agents}}}\n"));
        }
        sent += new_frames.len();
        if let Some(last) = terminal {
            chunk.push_str(&last);
            writer.chunk(&chunk)?;
            return writer.finish();
        }
        writer.chunk(&chunk)?;
    }
}

fn terminal_line(record: &RunRecord, st: &RunState) -> String {
    match (&st.result, &st.error) {
        (Some(r), _) => {
            // A cached replay that shed frames to the cache cap says so, so
            // the short stream is not mistaken for a short run.
            let dropped = if st.frames_dropped > 0 {
                format!(",\"frames_dropped\":{}", st.frames_dropped)
            } else {
                String::new()
            };
            format!(
                "{{\"done\":true,\"status\":\"done\",\"cached\":{},\"checksum\":\"{:#018X}\",\"agents\":{},\"ticks\":{}{dropped}}}\n",
                st.cached, r.checksum, r.agents, record.key.ticks
            )
        }
        (None, Some(e)) => {
            format!("{{\"done\":true,\"status\":\"failed\",\"error\":\"{}\"}}\n", json::escape(e))
        }
        (None, None) => "{\"done\":true,\"status\":\"failed\",\"error\":\"no result recorded\"}\n".into(),
    }
}

// ---- response helpers ------------------------------------------------------

fn ok_json(stream: &mut TcpStream, body: &str) -> std::io::Result<()> {
    http::write_response(stream, 200, "OK", &[], "application/json", body)
}

fn error_response(stream: &mut TcpStream, status: u16, msg: &str) -> std::io::Result<()> {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let body = format!("{{\"error\":\"{}\"}}", json::escape(msg));
    http::write_response(stream, status, reason, &[], "application/json", &body)
}

fn not_found(app: &Arc<App>, stream: &mut TcpStream, path: &str) -> std::io::Result<()> {
    app.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
    error_response(stream, 404, &format!("no such resource `{path}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::builtin()
    }

    #[test]
    fn run_spec_defaults_and_canonical_key() {
        let key = parse_run_spec(r#"{"scenario":"epidemic","conformance":true}"#, &registry(), &ServeConfig::default())
            .unwrap();
        assert_eq!(
            key.canonical(),
            format!("scenario=epidemic size=default conformance=true seed={DEFAULT_SEED} ticks=20 index=join backend=single")
        );
    }

    #[test]
    fn run_spec_rejects_bad_requests_with_the_right_status() {
        let cfg = ServeConfig::default();
        let r = registry();
        let cases: [(&str, u16); 11] = [
            ("not json", 400),
            ("{\"ticks\":5}", 400),                                        // no scenario
            (r#"{"scenario":"nope"}"#, 404),                               // unknown scenario
            (r#"{"scenario":"fish","ticks":0}"#, 400),                     // zero horizon
            (r#"{"scenario":"fish","ticks":-3}"#, 400),                    // negative
            (r#"{"scenario":"fish","backend":"gpu"}"#, 400),               // unknown backend
            (r#"{"scenario":"fish","backend":"cluster:0"}"#, 400),         // no workers
            (r#"{"scenario":"fish","backend":"cluster:65"}"#, 400),        // past Backend::MAX_WORKERS
            (r#"{"scenario":"fish","backend":"cluster:1000000"}"#, 400),   // a million threads
            (r#"{"scenario":"fish","index":"octree"}"#, 400),              // unknown index
            (r#"{"scenario":"fish","conformance":true,"agents":5}"#, 400), // contract conflict
        ];
        for (body, want) in cases {
            let got = parse_run_spec(body, &r, &cfg).unwrap_err().0;
            assert_eq!(got, want, "body `{body}`");
        }
    }

    #[test]
    fn run_spec_ignores_unknown_fields() {
        let key =
            parse_run_spec(r#"{"scenario":"fish","ticks":3,"future":"field"}"#, &registry(), &ServeConfig::default())
                .unwrap();
        assert_eq!(key.ticks, 3);
        assert_eq!(key.job.scenario, "fish");
    }
}
