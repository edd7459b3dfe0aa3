//! `paper` — regenerate every figure and table of "Behavioral Simulations
//! in MapReduce" (Wang et al., VLDB 2010), plus the executor throughput
//! baseline.
//!
//! ```text
//! paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]
//! paper tick-throughput [--quick] [--agents N,M] [--ticks T] [--warmup W]
//!                       [--parallel P] [--cluster-agents N] [--cluster-workers A,B]
//!                       [--hotspot-agents N] [--out PATH]
//! ```
//!
//! Absolute numbers are machine-dependent; the shapes (growth orders,
//! who-wins, crossovers) are what reproduce the paper. Each section prints
//! a shape summary next to the raw rows. See EXPERIMENTS.md for recorded
//! paper-vs-measured comparisons. `tick-throughput` measures the sharded
//! executor serial vs parallel and writes `BENCH_tick_throughput.json`,
//! the baseline future perf PRs regress against.

use brace_bench::table::{print_table, secs, tput};
use brace_bench::{fig3, fig4, fig5, fig6, fig7, fig8, table2, Scale};
use brace_bench::{throughput, ThroughputConfig};
use brace_common::stats::log_log_slope;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("tick-throughput") {
        run_tick_throughput(&args[1..]);
        return;
    }
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes `small` or `paper`"));
            }
            s if s.starts_with("--scale=") => {
                scale = Scale::parse(&s["--scale=".len()..]).unwrap_or_else(|| die("--scale takes `small` or `paper`"));
            }
            "-h" | "--help" => {
                println!(
                    "usage: paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]\n\
                     \x20      paper tick-throughput [--quick] [--agents N,M] [--ticks T] [--warmup W] [--parallel P]\n\
                     \x20            [--cluster-agents N] [--cluster-workers A,B] [--hotspot-agents N] [--out PATH]"
                );
                return;
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2"].iter().map(|s| s.to_string()).collect();
    }
    println!("BRACE paper harness — scale: {scale:?}");
    for w in &which {
        match w.as_str() {
            "fig3" => run_fig3(scale),
            "fig4" => run_fig4(scale),
            "fig5" => run_fig5(scale),
            "fig6" => run_fig6(scale),
            "fig7" => run_fig7(scale),
            "fig8" => run_fig8(scale),
            "table2" => run_table2(scale),
            other => die(&format!("unknown experiment `{other}`")),
        }
    }
}

fn run_tick_throughput(args: &[String]) {
    // `--quick` is a preset applied before flag parsing, so explicit
    // `--agents`/`--ticks`/... override it regardless of argument order.
    let quick = args.iter().any(|a| a == "--quick");
    let mut cfg = if quick { ThroughputConfig::quick() } else { ThroughputConfig::default() };
    // The quick smoke writes next to the build artifacts so the checked-in
    // baseline stays untouched unless --out points back at it.
    let mut out = if quick {
        String::from("target/BENCH_tick_throughput_quick.json")
    } else {
        String::from("BENCH_tick_throughput.json")
    };
    let mut i = 0;
    while i < args.len() {
        let (flag, value): (&str, Option<String>) = match args[i].split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (args[i].as_str(), None),
        };
        if flag == "--quick" {
            i += 1;
            continue;
        }
        let take = |i: &mut usize| -> String {
            match &value {
                Some(v) => v.clone(),
                None => {
                    *i += 1;
                    args.get(*i).cloned().unwrap_or_else(|| die(&format!("{flag} needs a value")))
                }
            }
        };
        match flag {
            "--agents" => {
                cfg.agent_counts = take(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("--agents takes N,M,...")))
                    .collect();
            }
            "--ticks" => cfg.ticks = take(&mut i).parse().unwrap_or_else(|_| die("--ticks takes a number")),
            "--warmup" => cfg.warmup = take(&mut i).parse().unwrap_or_else(|_| die("--warmup takes a number")),
            "--parallel" => cfg.parallelism = take(&mut i).parse().unwrap_or_else(|_| die("--parallel takes a number")),
            "--scan-cap" => cfg.scan_cap = take(&mut i).parse().unwrap_or_else(|_| die("--scan-cap takes a number")),
            "--cluster-agents" => {
                cfg.cluster_agents =
                    take(&mut i).parse().unwrap_or_else(|_| die("--cluster-agents takes a number (0 skips)"));
            }
            "--cluster-workers" => {
                cfg.cluster_workers = take(&mut i)
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("--cluster-workers takes N,M,...")))
                    .collect();
            }
            "--out" => out = take(&mut i),
            "--scenario-agents" => {
                cfg.scenario_agents =
                    take(&mut i).parse().unwrap_or_else(|_| die("--scenario-agents takes a number (0 skips)"));
            }
            "--opt-agents" => {
                cfg.opt_agents = take(&mut i).parse().unwrap_or_else(|_| die("--opt-agents takes a number (0 skips)"));
            }
            "--hotspot-agents" => {
                cfg.hotspot_agents =
                    take(&mut i).parse().unwrap_or_else(|_| die("--hotspot-agents takes a number (0 skips)"));
            }
            other => die(&format!("unknown tick-throughput flag `{other}`")),
        }
        i += 1;
    }
    let report = throughput::tick_throughput(&cfg);
    // The uniform matrix is serial vs parallel and nothing else (schema v12
    // retired the SoA-vs-AoS rows): one row of each per speedup row.
    let uniform: Vec<_> = report.rows.iter().filter(|r| !r.hotspot).collect();
    assert!(
        uniform.iter().all(|r| r.mode == "serial" || r.mode == "parallel")
            && uniform.len() == 2 * report.speedups.len(),
        "uniform rows must pair one serial with one parallel row per configuration"
    );
    // The hotspot section must cover both models on both tree and grid —
    // the heavy-tailed rows exist precisely to watch the dense blocks, so
    // losing them silently would blind the baseline. (Skipped when disabled
    // via --hotspot-agents 0.)
    if cfg.hotspot_agents > 0 {
        for model in ["fish", "traffic"] {
            for kind in [brace_spatial::IndexKind::KdTree, brace_spatial::IndexKind::Grid] {
                assert!(
                    report.rows.iter().any(|r| r.hotspot && r.model == model && r.index == kind),
                    "hotspot section lost the {model}/{kind:?} rows"
                );
            }
        }
    }
    // The cluster section must cover both models at every configured
    // worker count. (Skipped when the section is disabled via
    // --cluster-agents 0 / --cluster-workers.) The delta saving itself is
    // pinned by the cluster unit tests, not by this smoke run.
    if cfg.cluster_agents > 0 && !cfg.cluster_workers.is_empty() {
        for model in ["fish", "traffic"] {
            for &w in &cfg.cluster_workers {
                assert!(
                    report.cluster.iter().any(|c| c.model == model && c.workers == w),
                    "cluster-throughput section lost the {model} x{w} row"
                );
            }
        }
    }
    // Bench honesty: on a single visible core every thread-parallel
    // speedup and cluster agents/s scaling row is scheduler noise, and
    // schema v7 marks them `unreliable` so regression tooling (and readers
    // of the checked-in baseline) stop comparing them. The byte columns
    // are exempt: bytes are counted, not timed. Pin the marking itself so
    // the smoke run catches it regressing.
    let single_core = report.cores == 1;
    assert!(
        report.speedups.iter().all(|s| s.unreliable == single_core)
            && report.cluster.iter().all(|c| c.unreliable == single_core),
        "unreliable marks must track cores == 1 (cores = {})",
        report.cores
    );
    if single_core {
        println!("note: 1 core visible — parallel/cluster throughput rows are marked \"unreliable\": true");
    }
    // The telemetry-overhead ablation must always be present, and enabled
    // recording must stay cheap: ≤ 2% of whole-tick throughput on the
    // headline fish row. The threshold is only enforced where timing is
    // trustworthy — 1-core runs mark the row `unreliable` (the noise floor
    // of a time-sliced core can exceed the effect), so they report the
    // number without failing on it.
    let t = report
        .telemetry
        .first()
        .unwrap_or_else(|| panic!("tick-throughput matrix lost the telemetry-overhead ablation row"));
    println!(
        "telemetry overhead: fish @{} agents — off {} a/s, on {} a/s, {:+.2}%{}",
        t.actual_agents,
        tput(t.off_tick_agents_per_sec),
        tput(t.on_tick_agents_per_sec),
        t.overhead_pct,
        if t.unreliable { " (unreliable: 1 core)" } else { "" }
    );
    assert_eq!(t.unreliable, single_core, "telemetry unreliable mark must track cores == 1");
    if !t.unreliable {
        assert!(t.overhead_pct <= 2.0, "telemetry recording overhead exceeded 2% of tick throughput: {t:?}");
    }
    // The scenario section must cover the whole registry — one row per
    // registered name — so a scenario silently dropping out of the
    // baseline fails the CI smoke run.
    if cfg.scenario_agents > 0 {
        for name in brace_scenario::Registry::builtin().names() {
            assert!(
                report.scenarios.iter().any(|s| s.scenario == name),
                "scenario-throughput section lost the `{name}` row"
            );
        }
    }
    // The optimizer A/B section must cover every brasil-* scenario, and
    // the twins must have actually run (zero visits would mean a vacuous
    // comparison) — the CI smoke run (`--quick`) pins both.
    if cfg.opt_agents > 0 {
        for name in brace_scenario::Registry::builtin().names().iter().filter(|n| n.starts_with("brasil-")) {
            let row = report
                .opt
                .iter()
                .find(|o| o.scenario == **name)
                .unwrap_or_else(|| panic!("optimizer A/B section lost the `{name}` row"));
            assert!(
                row.opt_neighbor_visits > 0 && row.unopt_neighbor_visits > 0,
                "optimizer A/B row `{name}` measured no neighbor visits: {row:?}"
            );
        }
    }
    print_table(
        &format!("Tick throughput — sharded executor, {} core(s)", report.cores),
        &["model", "agents", "index", "mode", "pop", "threads", "query [agents/s]", "tick [agents/s]"],
        &report
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.model.to_string(),
                    r.actual_agents.to_string(),
                    format!("{:?}", r.index),
                    r.mode.to_string(),
                    if r.hotspot { "hotspot" } else { "uniform" }.to_string(),
                    r.parallelism.to_string(),
                    tput(r.query_agents_per_sec),
                    tput(r.tick_agents_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for s in &report.speedups {
        println!(
            "parallel speedup {}/{}/{:?}: query {:.2}x, tick {:.2}x{}",
            s.model,
            s.agents,
            s.index,
            s.query_speedup,
            s.tick_speedup,
            if s.unreliable { " (unreliable: 1 core)" } else { "" }
        );
    }
    for s in &report.skipped {
        println!("skipped: {s}");
    }
    print_table(
        "Cluster throughput — delta distribution, per-tick bytes by traffic class",
        &["model", "workers", "agents", "agents/s", "transfer B/t", "rep-full B/t", "rep-delta B/t"],
        &report
            .cluster
            .iter()
            .map(|c| {
                vec![
                    c.model.to_string(),
                    c.workers.to_string(),
                    c.actual_agents.to_string(),
                    tput(c.agents_per_sec),
                    format!("{:.0}", c.transfer_bytes_per_tick),
                    format!("{:.0}", c.replica_full_bytes_per_tick),
                    format!("{:.0}", c.replica_delta_bytes_per_tick),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "Scenario registry — one row per registered scenario (serial single node, default index)",
        &["scenario", "index", "agents", "query [agents/s]", "tick [agents/s]"],
        &report
            .scenarios
            .iter()
            .map(|s| {
                vec![
                    s.scenario.clone(),
                    format!("{:?}", s.index),
                    s.actual_agents.to_string(),
                    tput(s.query_agents_per_sec),
                    tput(s.tick_agents_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "BRASIL optimizer A/B — registered (optimized) scenario vs unoptimized twin",
        &[
            "scenario",
            "agents",
            "opt query [a/s]",
            "unopt query [a/s]",
            "opt speedup",
            "tick speedup",
            "cand. reduction",
        ],
        &report
            .opt
            .iter()
            .map(|o| {
                vec![
                    o.scenario.clone(),
                    o.actual_agents.to_string(),
                    tput(o.opt_query_agents_per_sec),
                    tput(o.unopt_query_agents_per_sec),
                    format!("{:.2}x", o.opt_speedup),
                    format!("{:.2}x", o.opt_tick_speedup),
                    format!("{:.2}x", o.candidate_reduction),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let json = throughput::to_json(&report, &cfg);
    std::fs::write(&out, json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn run_fig3(scale: Scale) {
    let rows = fig3(scale);
    print_table(
        "Figure 3 — traffic: total simulation time vs segment length",
        &["segment", "vehicles", "mitsim[s]", "brace-noidx[s]", "brace-idx[s]"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.segment),
                    r.agents.to_string(),
                    secs(r.mitsim_secs),
                    secs(r.noidx_secs),
                    secs(r.idx_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let pts = |f: fn(&brace_bench::Fig3Row) -> f64| rows.iter().map(|r| (r.segment, f(r))).collect::<Vec<_>>();
    let s_noidx = log_log_slope(&pts(|r| r.noidx_secs)).unwrap_or(f64::NAN);
    let s_idx = log_log_slope(&pts(|r| r.idx_secs)).unwrap_or(f64::NAN);
    let s_mitsim = log_log_slope(&pts(|r| r.mitsim_secs)).unwrap_or(f64::NAN);
    println!(
        "shape: growth exponents — noidx {s_noidx:.2} (paper: ~2, quadratic), \
         idx {s_idx:.2} (paper: ~1, log-linear), mitsim {s_mitsim:.2}; \
         mitsim fastest everywhere: {}",
        rows.iter().all(|r| r.mitsim_secs <= r.idx_secs)
    );
}

fn run_fig4(scale: Scale) {
    let rows = fig4(scale);
    print_table(
        "Figure 4 — fish: total simulation time vs visibility range",
        &["visibility", "noidx[s]", "idx[s]", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.visibility),
                    secs(r.noidx_secs),
                    secs(r.idx_secs),
                    format!("{:.2}x", r.noidx_secs / r.idx_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let first = rows.first().map(|r| r.noidx_secs / r.idx_secs).unwrap_or(0.0);
    let last = rows.last().map(|r| r.noidx_secs / r.idx_secs).unwrap_or(0.0);
    println!(
        "shape: index speedup {first:.2}x at smallest visibility, {last:.2}x at largest \
         (paper: 2-3x, shrinking as each probe returns more of the school)"
    );
}

fn run_fig5(scale: Scale) {
    let r = fig5(scale);
    print_table(
        &format!("Figure 5 — predator: effect inversion ({} agents, {} workers)", r.agents, r.workers),
        &["config", "throughput [agent-ticks/s]"],
        &[
            vec!["No-Opt".into(), tput(r.no_opt)],
            vec!["Idx-Only".into(), tput(r.idx_only)],
            vec!["Inv-Only".into(), tput(r.inv_only)],
            vec!["Idx+Inv".into(), tput(r.idx_inv)],
        ],
    );
    println!(
        "shape: inversion gain without index {:+.1}%, with index {:+.1}% (paper: >20% both); \
         effect traffic {} B (non-local) vs {} B (inverted eliminates the second reduce pass)",
        (r.inv_only / r.no_opt - 1.0) * 100.0,
        (r.idx_inv / r.idx_only - 1.0) * 100.0,
        r.effect_bytes_nonlocal,
        r.effect_bytes_inverted,
    );
}

fn run_fig6(scale: Scale) {
    let rows = fig6(scale);
    print_table(
        "Figure 6 — traffic: scale-up (size grows with workers)",
        &["workers", "vehicles", "throughput"],
        &rows.iter().map(|r| vec![r.workers.to_string(), r.agents.to_string(), tput(r.throughput)]).collect::<Vec<_>>(),
    );
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let ideal = last.workers as f64 / first.workers as f64;
        let got = last.throughput / first.throughput;
        println!(
            "shape: throughput grew {got:.2}x over {ideal:.0}x workers \
             (paper: near-linear; expect sub-ideal on shared-cache laptop cores)"
        );
    }
}

fn run_fig7(scale: Scale) {
    let rows = fig7(scale);
    print_table(
        "Figure 7 — fish: scale-up with/without load balancing",
        &["workers", "fish", "tput LB", "tput no-LB", "imbalance LB", "imbalance no-LB"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.agents.to_string(),
                    tput(r.tput_lb),
                    tput(r.tput_nolb),
                    format!("{:.2}", r.final_imbalance_lb),
                    format!("{:.2}", r.final_imbalance_nolb),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if let Some(last) = rows.last() {
        println!(
            "shape: at {} workers LB/no-LB throughput ratio {:.2}x; final agent imbalance {:.2} (LB) vs {:.2} (no-LB) \
             (paper: no-LB collapses onto two nodes as the schools separate)",
            last.workers,
            last.tput_lb / last.tput_nolb,
            last.final_imbalance_lb,
            last.final_imbalance_nolb
        );
    }
}

fn run_fig8(scale: Scale) {
    let series = fig8(scale);
    let rows: Vec<Vec<String>> = series
        .epoch_secs_lb
        .iter()
        .zip(&series.epoch_secs_nolb)
        .enumerate()
        .map(|(i, (lb, nolb))| vec![i.to_string(), secs(*lb), secs(*nolb)])
        .collect();
    print_table("Figure 8 — fish: per-epoch time over epochs", &["epoch", "LB[s]", "no-LB[s]"], &rows);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let half = series.epoch_secs_nolb.len() / 2;
    println!(
        "shape: no-LB epoch time mean {:.3}s (first half) -> {:.3}s (second half), LB {:.3}s -> {:.3}s \
         (paper: LB flat, no-LB grows)",
        mean(&series.epoch_secs_nolb[..half]),
        mean(&series.epoch_secs_nolb[half..]),
        mean(&series.epoch_secs_lb[..half]),
        mean(&series.epoch_secs_lb[half..]),
    );
}

fn run_table2(scale: Scale) {
    let t = table2(scale);
    print_table(
        &format!("Table 2 — traffic validation RMSPE (segment {:.0}, {} observed ticks)", t.segment, t.observed_ticks),
        &["lane", "change freq", "Δmean rate", "avg density", "avg velocity", "mean vehicles"],
        &t.rows
            .iter()
            .map(|r| {
                vec![
                    format!("L{}", r.lane + 1),
                    format!("{:.2}%", r.change_freq_rmspe * 100.0),
                    format!("{:.2}%", t.mean_change_rate_err[r.lane] * 100.0),
                    format!("{:.2}%", r.density_rmspe * 100.0),
                    format!("{:.3}%", r.velocity_rmspe * 100.0),
                    format!("{:.1}", t.mean_vehicles_per_lane[r.lane]),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "shape: velocity and density agree within a few percent; windowed change-frequency RMSPE is \
         dominated by burst noise between independently-seeded engines, while the mean change rates \
         (Δmean) agree closely (paper: L4 change-freq 21.37% / density 19.72% vs ~5-10% elsewhere, \
         velocity 0.007%)"
    );
}
