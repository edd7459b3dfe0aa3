//! A run's numbers belong to the run, however many run at once.
//!
//! This binary holds one test on purpose: it also reads the process total
//! (`brace_telemetry::TOTAL`, which `GET /metrics` renders) and requires
//! it to move by exactly what its runs recorded, so no other test may
//! record beside it.

mod common;

use brace_scenario::{Backend, Registry, Runner};
use brace_serve::{ServeConfig, Server};
use common::{counts_of, get, post, run_id, Counts};

const TICKS: u64 = 50;

/// `fish` on one node, `epidemic` on two workers and `brasil-fish` on one
/// node: the executor on every path, the cluster's master and traffic, and
/// a compiled behaviour.
const JOBS: [(&str, &str); 3] = [("fish", "single"), ("epidemic", "cluster:2"), ("brasil-fish", "single")];

/// The serve plane's own families: a served run records none of them.
fn serve_family(name: &str) -> bool {
    name.starts_with("brace_serve_")
}

/// What `total` moved from `before`, family by family.
fn moved(before: &Counts, after: &Counts) -> Counts {
    before.iter().zip(after).map(|((name, b), (_, a))| (name.clone(), a - b)).collect()
}

/// The family-by-family sum of `runs`.
fn sum(runs: &[Counts]) -> Counts {
    let mut total = runs[0].iter().map(|(name, _)| (name.clone(), 0)).collect::<Counts>();
    for run in runs {
        for ((_, t), (_, v)) in total.iter_mut().zip(run) {
            *t += v;
        }
    }
    total
}

fn run(registry: &Registry, (scenario, backend): (&str, &str)) -> Counts {
    let runner = Runner::new(registry.get(scenario).unwrap()).backend(Backend::parse(backend).unwrap());
    runner.run(TICKS).unwrap_or_else(|e| panic!("`{scenario}` on `{backend}`: {e}")).metrics.counts()
}

/// Each of three runs records exactly what it records alone, whether the
/// three run at once on three threads of one process or as jobs on a
/// server with three pool workers; and the process total moves by exactly
/// their sum (the served set's `/metrics` by that plus the serve plane's
/// own families).
#[test]
fn concurrent_runs_record_exactly_what_they_record_alone() {
    let registry = Registry::builtin();
    let alone: Vec<Counts> = JOBS.iter().map(|&job| run(&registry, job)).collect();
    for (counts, (scenario, _)) in alone.iter().zip(JOBS) {
        let nonzero = |name: &str| counts.iter().any(|(n, v)| n == name && *v > 0);
        assert!(nonzero("brace_executor_neighbor_visits_total"), "`{scenario}` visited no neighbour");
    }
    assert!(alone[1].iter().any(|(n, v)| n == "brace_net_control_bytes_total" && *v > 0), "no cluster traffic");

    // At once, on three threads.
    let before = brace_telemetry::TOTAL.counts();
    let registry = &registry;
    let together: Vec<Counts> = std::thread::scope(|s| {
        let running: Vec<_> = JOBS.iter().map(|&job| s.spawn(move || run(registry, job))).collect();
        running.into_iter().map(|h| h.join().expect("a run panicked")).collect()
    });
    let after = brace_telemetry::TOTAL.counts();
    for ((got, want), (scenario, backend)) in together.iter().zip(&alone).zip(JOBS) {
        assert_eq!(got, want, "`{scenario}` on `{backend}` recorded otherwise beside the others");
    }
    assert_eq!(moved(&before, &after), sum(&together), "the process total moved by more than its runs");

    // As jobs on a server with three pool workers, all queued at once.
    let server = Server::start(Registry::builtin(), ServeConfig { workers: 3, ..ServeConfig::default() })
        .expect("bind an ephemeral port");
    let scrape = || counts_of(&get(server.addr(), "/metrics").2);
    let before = scrape();
    let ids: Vec<String> = JOBS
        .iter()
        .map(|(scenario, backend)| {
            let body = format!(r#"{{"scenario":"{scenario}","backend":"{backend}","ticks":{TICKS}}}"#);
            let (status, _, reply) = post(server.addr(), "/runs", &body);
            assert_eq!(status, 202, "`{scenario}` refused: {reply}");
            run_id(&reply)
        })
        .collect();
    let mut served = Vec::new();
    for (id, (scenario, backend)) in ids.iter().zip(JOBS) {
        let (_, _, stream) = get(server.addr(), &format!("/runs/{id}/stream"));
        assert!(stream.lines().last().is_some_and(|l| l.contains(r#""status":"done""#)), "`{scenario}`: {stream}");
        let (status, _, metrics) = get(server.addr(), &format!("/runs/{id}/metrics"));
        assert_eq!(status, 200, "`{scenario}` has no registry: {metrics}");
        served.push(counts_of(&metrics));
        assert_eq!(served.last(), Some(&alone[served.len() - 1]), "served `{scenario}` on `{backend}`");
    }
    let moved = moved(&before, &scrape());
    let (plane, runs): (Counts, Counts) = moved.into_iter().partition(|(name, _)| serve_family(name));
    let runs_sum: Counts = sum(&served).into_iter().filter(|(name, _)| !serve_family(name)).collect();
    assert_eq!(runs, runs_sum, "/metrics moved by more than the served runs");
    for family in ["brace_serve_runs_total", "brace_serve_cache_misses_total", "brace_serve_run_latency_ns_count"] {
        assert!(plane.contains(&(family.to_string(), 3)), "{family} did not count three runs: {plane:?}");
    }
}
