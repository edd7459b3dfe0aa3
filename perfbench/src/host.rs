//! What the harness reads about the machine it runs on: `/proc` only.

use std::fs;

/// `(all jiffies, steal jiffies)` summed over CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Hypervisor steal across an interval, as a percentage of all CPU time.
/// Reported and warned about, never used to adjust a number.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    pub fn pct(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// On-CPU nanoseconds of every live thread of this process whose name
/// starts with `prefix`, from `/proc/self/task/*/schedstat` — how a worker
/// thread's busy time is read from outside the runtime. In thread-name order,
/// so worker `i` keeps its place from one call to the next.
pub fn thread_cpu_ns(prefix: &str) -> Vec<u64> {
    let mut out: Vec<(String, u64)> = Vec::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
        let comm = comm.trim();
        if !comm.starts_with(prefix) {
            continue;
        }
        let run_ns = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|n| n.parse::<u64>().ok()));
        if let Some(ns) = run_ns {
            out.push((comm.to_string(), ns));
        }
    }
    out.sort();
    out.into_iter().map(|(_, ns)| ns).collect()
}
