//! `--all` (sets of runs, one fresh process per run so `VmHWM` means one
//! run) and `--compare` (two sets, one verdict per workload × metric).

use crate::host::StealMeter;
use crate::metrics::{MetricDef, END_TO_END, HIGHER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;
use brace_serve::Json;
use std::fmt::Write as _;
use std::process::Command;

fn num(j: Option<&Json>) -> Option<f64> {
    match j {
        Some(Json::Num(v)) => Some(*v),
        _ => None,
    }
}

/// One child run of this binary; returns its parsed result line.
fn child_run(workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}", out.status));
    }
    Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

/// `runs` runs of every workload, round-robin (so each workload's runs span
/// the whole set and meet the same slow phases of the machine), each at its
/// own seed; prints a table and returns the JSON summary.
pub fn all(runs: usize, seed: u64) -> Result<String, String> {
    struct Row {
        values: Vec<Vec<f64>>, // per end-to-end metric
        attempted: u64,
        failed: u64,
        correct: bool,
        steal: Vec<f64>,
    }
    let mut rows: Vec<Row> = WORKLOADS
        .iter()
        .map(|_| Row {
            values: vec![Vec::new(); END_TO_END.len()],
            attempted: 0,
            failed: 0,
            correct: true,
            steal: vec![],
        })
        .collect();
    for i in 0..runs {
        for (w, row) in WORKLOADS.iter().zip(&mut rows) {
            let steal = StealMeter::start();
            let doc = child_run(w.name, seed + i as u64)?;
            row.steal.push(steal.pct());
            row.correct &= doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
            row.attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            row.failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
            for (d, vals) in END_TO_END.iter().zip(&mut row.values) {
                let v = num(doc.get("metrics").and_then(|m| m.get(d.name)).and_then(|m| m.get("value")));
                vals.push(v.ok_or_else(|| format!("{}: run printed no `{}`", w.name, d.name))?);
            }
            eprintln!("perfbench: run {}/{runs} of {} done (steal {:.1} %)", i + 1, w.name, row.steal[i]);
        }
    }

    let mut json = format!("{{\"schema\": 1, \"runs\": {runs}, \"seed\": {seed}, \"workloads\": {{");
    println!("{:<18} {:<18} {:>14} {:>14} {:>14} {:>8}", "workload", "metric", "q1", "median", "q3", "spread");
    for (wi, (w, row)) in WORKLOADS.iter().zip(&rows).enumerate() {
        let _ = write!(
            json,
            "{}\n  \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"steal_pct\": {:?}, \"metrics\": {{",
            if wi == 0 { "" } else { "," },
            w.name,
            row.correct,
            row.attempted,
            row.failed,
            row.steal
        );
        for (mi, (d, vals)) in END_TO_END.iter().zip(&row.values).enumerate() {
            let (q1, q2, q3) = if vals.len() >= 2 { quartiles(vals) } else { (vals[0], vals[0], vals[0]) };
            let sp = if vals.len() >= 2 { spread(vals) } else { 0.0 };
            println!("{:<18} {:<18} {q1:>14.4} {q2:>14.4} {q3:>14.4} {:>7.2}%", w.name, d.name, sp * 100.0);
            let _ = write!(
                json,
                "{}\n    \"{}\": {{\"unit\": \"{}\", \"values\": {vals:?}, \"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}, \"spread\": {sp}}}",
                if mi == 0 { "" } else { "," },
                d.name,
                d.unit
            );
        }
        json.push_str("}}");
    }
    // This harness measures; it claims no gain.
    json.push_str("\n}, \"claim\": null}\n");
    Ok(json)
}

/// The per-run values of one workload × metric cell of an `--all` summary.
fn cell(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    match m.get("values")? {
        Json::Arr(vs) => Some(vs.iter().filter_map(|v| num(Some(v))).collect()),
        _ => None,
    }
}

fn failed_share(doc: &Json, workload: &str) -> f64 {
    let w = doc.get("workloads").and_then(|w| w.get(workload));
    let get = |k: &str| w.and_then(|w| w.get(k)).and_then(Json::as_u64).unwrap_or(0) as f64;
    get("failed") / get("attempted").max(1.0)
}

/// `better` / `worse`: the medians differ by more than the bound in that
/// direction; `within`: they do not; `unresolved`: a side's own spread is
/// wider than the bound, so the sets cannot tell.
pub fn verdict(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> &'static str {
    if a.len() >= 2 && b.len() >= 2 && (spread(a) > bound || spread(b) > bound) {
        return "unresolved";
    }
    let (ma, mb) = (median(a), median(b));
    let gain = if def.better == HIGHER { mb / ma - 1.0 } else { 1.0 - mb / ma };
    if gain > bound {
        "better"
    } else if gain < -bound {
        "worse"
    } else {
        "within"
    }
}

/// Compare two `--all` outputs. `bounds` come from `BENCHMARK.json`.
pub fn compare(a_text: &str, b_text: &str, bounds: &[(String, f64)]) -> Result<String, String> {
    let a = Json::parse(a_text).map_err(|e| format!("A: {e}"))?;
    let b = Json::parse(b_text).map_err(|e| format!("B: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>12} {:>21} {:>12} {:>21} {:>11} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A (A=1)", "bound"
    );
    for w in &WORKLOADS {
        for d in &END_TO_END {
            let (Some(ca), Some(cb)) = (cell(&a, w.name, d.name), cell(&b, w.name, d.name)) else {
                let _ = writeln!(out, "{:<18} {:<18} missing on one side", w.name, d.name);
                continue;
            };
            if ca.is_empty() || cb.is_empty() {
                continue;
            }
            let bound = bounds.iter().find(|(n, _)| n == d.name).map_or(0.1, |(_, b)| *b);
            let q = |v: &[f64]| if v.len() >= 2 { quartiles(v) } else { (v[0], v[0], v[0]) };
            let ((a1, a2, a3), (b1, b2, b3)) = (q(&ca), q(&cb));
            let _ = writeln!(
                out,
                "{:<18} {:<18} {a2:>12.4} {:>21} {b2:>12.4} {:>21} {:>11.4} {:>5.0}%  {}",
                w.name,
                d.name,
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                b2 / a2,
                bound * 100.0,
                verdict(d, bound, &ca, &cb)
            );
        }
        let _ = writeln!(
            out,
            "{:<18} failed ops: A {:.2} %, B {:.2} %",
            w.name,
            failed_share(&a, w.name) * 100.0,
            failed_share(&b, w.name) * 100.0
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LOWER;

    const TPS: MetricDef = MetricDef { name: "agent_ticks_per_s", unit: "agent-ticks/s", better: HIGHER };
    const MS: MetricDef = MetricDef { name: "op_ms_p50", unit: "ms", better: LOWER };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&TPS, 0.1, &a, &up), "better");
        assert_eq!(verdict(&MS, 0.1, &a, &up), "worse");
        let near: Vec<f64> = a.iter().map(|v| v * 1.04).collect();
        assert_eq!(verdict(&TPS, 0.1, &a, &near), "within");
        let wide = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(&TPS, 0.1, &a, &wide), "unresolved");
    }
}
