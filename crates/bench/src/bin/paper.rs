//! `paper` — regenerate every figure and table of "Behavioral Simulations
//! in MapReduce" (Wang et al., VLDB 2010).
//!
//! ```text
//! paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]
//! ```
//!
//! Absolute numbers are machine-dependent; the shapes (growth orders,
//! who-wins, crossovers) are what reproduce the paper. Each section prints
//! a shape summary next to the raw rows; `tests/paper_shapes.rs` asserts
//! the same shapes in miniature.

use brace_bench::table::{print_table, secs, tput};
use brace_bench::{fig3, fig4, fig5, fig6, fig7, fig8, table2, Scale};
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
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes `small` or `paper`"));
            }
            s if s.starts_with("--scale=") => {
                scale = Scale::parse(&s["--scale=".len()..]).unwrap_or_else(|| die("--scale takes `small` or `paper`"));
            }
            "-h" | "--help" => {
                println!("usage: paper [fig3|fig4|fig5|fig6|fig7|fig8|table2|all] [--scale small|paper]");
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
