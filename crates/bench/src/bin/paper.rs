//! `paper` — regenerate every figure and table of "Behavioral Simulations
//! in MapReduce" (Wang et al., VLDB 2010).
//!
//! ```text
//! paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]
//! ```
//!
//! Absolute numbers are machine-dependent; the shapes (growth orders,
//! who-wins, crossovers) are what reproduce the paper. Each section prints
//! a `shape:` line next to the raw rows; `tests/paper_shapes.rs` runs the
//! same runners at `--scale small` (the default) and asserts those shapes.
//! An unknown experiment or scale exits 2 before anything runs.

use brace_bench::table::{ms, print_table, secs, tput};
use brace_bench::{fig3, fig4, fig5, fig6, fig7, fig8, table2, DriftPair, DriftRun, Scale};
use brace_common::stats::log_log_slope;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = parse_scale(args.get(i).map_or("", String::as_str));
            }
            s if s.starts_with("--scale=") => scale = parse_scale(&s["--scale=".len()..]),
            "-h" | "--help" => {
                println!("usage: paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]");
                return;
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(other) = which.iter().find(|w| *w != "all" && !SECTIONS.contains(&w.as_str())) {
        die(&format!("unknown experiment `{other}` (expected one of {}, or all)", SECTIONS.join(", ")));
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = SECTIONS.iter().map(|s| s.to_string()).collect();
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
            _ => run_table2(scale),
        }
    }
}

const SECTIONS: [&str; 7] = ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2"];

fn parse_scale(s: &str) -> Scale {
    Scale::parse(s).unwrap_or_else(|| die(&format!("unknown --scale `{s}` (expected `small` or `paper`)")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn run_fig3(scale: Scale) {
    let rows = fig3(scale);
    print_table(
        "Figure 3 — traffic: simulation time per tick vs segment length",
        &["segment", "vehicles", "mitsim[ms]", "brace-noidx[ms]", "brace-idx[ms]"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.segment),
                    r.agents.to_string(),
                    ms(r.mitsim_tick_secs),
                    ms(r.noidx_tick_secs),
                    ms(r.idx_tick_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let pts = |f: fn(&brace_bench::Fig3Row) -> f64| rows.iter().map(|r| (r.agents as f64, f(r))).collect::<Vec<_>>();
    let s_noidx = log_log_slope(&pts(|r| r.noidx_tick_secs)).unwrap_or(f64::NAN);
    let s_idx = log_log_slope(&pts(|r| r.idx_tick_secs)).unwrap_or(f64::NAN);
    let s_mitsim = log_log_slope(&pts(|r| r.mitsim_tick_secs)).unwrap_or(f64::NAN);
    println!(
        "shape: growth exponents — noidx {s_noidx:.2} (paper: ~2, quadratic), \
         idx {s_idx:.2} (paper: ~1, log-linear), mitsim {s_mitsim:.2}; \
         mitsim fastest everywhere: {}",
        rows.iter().all(|r| r.mitsim_tick_secs <= r.idx_tick_secs)
    );
}

fn run_fig4(scale: Scale) {
    let rows = fig4(scale);
    print_table(
        "Figure 4 — fish: simulation time per tick vs visibility range",
        &["visibility", "noidx[ms]", "idx[ms]", "speedup"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.visibility),
                    ms(r.noidx_tick_secs),
                    ms(r.idx_tick_secs),
                    format!("{:.2}x", r.noidx_tick_secs / r.idx_tick_secs),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let speedup = |r: &brace_bench::Fig4Row| r.noidx_tick_secs / r.idx_tick_secs;
    let first = rows.first().map(speedup).unwrap_or(0.0);
    let last = rows.last().map(speedup).unwrap_or(0.0);
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
         {} vs {} communication rounds per tick and effect traffic {} B (non-local) vs {} B \
         (inverted eliminates the second reduce pass); final worlds bit-identical: {}",
        (r.inv_only / r.no_opt - 1.0) * 100.0,
        (r.idx_inv / r.idx_only - 1.0) * 100.0,
        r.rounds_nonlocal,
        r.rounds_inverted,
        r.effect_bytes_nonlocal,
        r.effect_bytes_inverted,
        r.worlds_bit_identical(),
    );
}

fn run_fig6(scale: Scale) {
    let rows = fig6(scale);
    print_table(
        "Figure 6 — traffic: scale-up (size grows with workers)",
        &["workers", "vehicles", "throughput", "agents/worker/tick", "replica B/worker/tick"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.agents.to_string(),
                    tput(r.throughput),
                    format!("{:.1}", r.agents_per_worker_tick),
                    format!("{:.0}", r.replica_bytes_per_worker_tick),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let ideal = last.workers as f64 / first.workers as f64;
        let got = last.throughput / first.throughput;
        println!(
            "shape: throughput grew {got:.2}x over {ideal:.1}x workers on {} cores; per worker per tick, \
             agents {:.1} -> {:.1} and replica bytes {:.0} -> {:.0} (paper: near-linear; flat per-worker \
             work and bytes are what scale-up needs, and no core count bends them)",
            brace_bench::max_workers(),
            first.agents_per_worker_tick,
            last.agents_per_worker_tick,
            first.replica_bytes_per_worker_tick,
            last.replica_bytes_per_worker_tick,
        );
    }
}

fn run_fig7(scale: Scale) {
    let rows = fig7(scale);
    print_table(
        "Figure 7 — fish: scale-up with/without load balancing",
        &["workers", "fish", "tput LB", "tput no-LB", "imbalance LB", "imbalance no-LB", "repartitions LB"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.workers.to_string(),
                    r.fish.to_string(),
                    tput(r.lb.throughput),
                    tput(r.nolb.throughput),
                    format!("{:.2}", r.lb.final_imbalance),
                    format!("{:.2}", r.nolb.final_imbalance),
                    r.lb.repartitions.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if let Some(last) = rows.last() {
        println!(
            "shape: at {} workers LB/no-LB throughput ratio {:.2}x; final agent imbalance {:.2} (LB) vs {:.2} (no-LB) \
             (paper: without LB the load falls to zero everywhere but where the school went; \
             here the school drifts onto one border partition)",
            last.workers,
            last.lb.throughput / last.nolb.throughput,
            last.lb.final_imbalance,
            last.nolb.final_imbalance
        );
    }
}

fn run_fig8(scale: Scale) {
    let DriftPair { lb, nolb, .. } = fig8(scale);
    let rows: Vec<Vec<String>> = (0..lb.epoch_secs.len())
        .map(|i| {
            let share = |r: &DriftRun| format!("{:.2}", r.busiest_share[i]);
            vec![i.to_string(), secs(lb.epoch_secs[i]), secs(nolb.epoch_secs[i]), share(&lb), share(&nolb)]
        })
        .collect();
    print_table(
        "Figure 8 — fish: per-epoch time and busiest worker's share of agents",
        &["epoch", "LB[s]", "no-LB[s]", "busiest LB", "busiest no-LB"],
        &rows,
    );
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let half = lb.epoch_secs.len() / 2;
    let halves = |xs: &[f64]| (mean(&xs[..half]), mean(&xs[half..]));
    let (t_nolb, t_lb) = (halves(&nolb.epoch_secs), halves(&lb.epoch_secs));
    let (s_nolb, s_lb) = (halves(&nolb.busiest_share), halves(&lb.busiest_share));
    println!(
        "shape: mean epoch time, first half -> second half: no-LB {:.3}s -> {:.3}s, LB {:.3}s -> {:.3}s; \
         busiest worker's share: no-LB {:.2} -> {:.2}, LB {:.2} -> {:.2} (paper: LB flat, no-LB grows)",
        t_nolb.0, t_nolb.1, t_lb.0, t_lb.1, s_nolb.0, s_nolb.1, s_lb.0, s_lb.1,
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
