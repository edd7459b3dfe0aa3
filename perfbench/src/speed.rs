//! The machine-speed reference.
//!
//! On the reference container the *same* work takes up to 1.8× longer from
//! one half-minute to the next (neighbours on the host: SMT and cache
//! contention, not steal — thread CPU time swings with the wall clock), so
//! no wall-clock statistic of a 20 s run repeats within a tenth. What does
//! repeat is the ratio of an op's time to the time of a fixed piece of work
//! run right next to it. Every measured op is therefore flanked by calls of
//! a frozen, bench-owned kernel, and its time is rescaled by how slow the
//! kernel ran at that moment:
//!
//! `t_norm = t · NOMINAL / ((ref_before + ref_after) / 2)`
//!
//! The kernel has the workloads' micro-architectural shape on purpose —
//! irregular gathers through a spatial grid over 20 000 points plus
//! `sqrt`/divide arithmetic — because a purely compute-bound reference does
//! not feel the contention the workloads feel. It exercises the CPUs the
//! workload uses. A single-node simulation computes on the harness's own
//! thread, so there the kernel runs once on that thread (spread of ten runs:
//! 27–34 % as timed, 2–3 % normalised). The 2-worker cluster and the server
//! compute on other threads, which the scheduler places on either vCPU, and
//! the two vCPUs' speeds drift apart; there one reference measurement is the
//! kernel on the harness thread *plus* the wall time of two resident threads
//! running it side by side (17–30 % as timed; 11–15 % with the one-thread
//! reference; 3–7 % with this one). It calls nothing in the crates under
//! test, so a change to them cannot move it.
//!
//! `NOMINAL` is the reference's time on the quiet reference container; its
//! only job is to keep normalised numbers close to quiet-box wall-clock numbers.
//! Parent and change are rescaled by the same constants, so any value gives
//! the same comparison.

use brace::common::DetRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

const POINTS: usize = 20_000;
const CELL: f64 = 6.0;
const RADIUS2: f64 = 36.0;

/// Quiet-box time of one kernel call on the harness thread, and of two
/// resident threads running it side by side.
const NOMINAL_SOLO_MS: f64 = 13.0;
const NOMINAL_PAIR_MS: f64 = 15.0;

struct Kernel {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// CSR layout of the grid: `items[start[c]..start[c + 1]]` are cell `c`'s points.
    start: Vec<u32>,
    items: Vec<u32>,
    dim: usize,
}

impl Kernel {
    fn new() -> Kernel {
        let side = (POINTS as f64 / 0.5).sqrt(); // the fish rows' density
        let dim = (side / CELL).ceil() as usize;
        let mut rng = DetRng::seed_from_u64(0xEF);
        let xs: Vec<f64> = (0..POINTS).map(|_| rng.range(0.0, side)).collect();
        let ys: Vec<f64> = (0..POINTS).map(|_| rng.range(0.0, side)).collect();
        let cell = |i: usize| ((ys[i] / CELL) as usize).min(dim - 1) * dim + ((xs[i] / CELL) as usize).min(dim - 1);
        let mut start = vec![0u32; dim * dim + 1];
        for i in 0..POINTS {
            start[cell(i) + 1] += 1;
        }
        for c in 0..dim * dim {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; POINTS];
        for i in 0..POINTS {
            let c = cell(i);
            items[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        Kernel { xs, ys, start, items, dim }
    }

    /// For every point, a distance-weighted sum over its 3×3 cell block.
    fn run(&self) -> f64 {
        let dim = self.dim as isize;
        let mut acc = 0.0;
        for i in 0..POINTS {
            let (x, y) = (self.xs[i], self.ys[i]);
            let (cx, cy) = ((x / CELL) as isize, (y / CELL) as isize);
            let mut force = 0.0;
            for gy in (cy - 1).max(0)..=(cy + 1).min(dim - 1) {
                for gx in (cx - 1).max(0)..=(cx + 1).min(dim - 1) {
                    let c = (gy * dim + gx) as usize;
                    for &j in &self.items[self.start[c] as usize..self.start[c + 1] as usize] {
                        let (dx, dy) = (self.xs[j as usize] - x, self.ys[j as usize] - y);
                        let d2 = dx * dx + dy * dy;
                        if d2 < RADIUS2 {
                            force += dx / (d2 + 1.0).sqrt();
                        }
                    }
                }
            }
            acc += force;
        }
        acc
    }
}

/// Two resident threads that run the kernel side by side on request.
struct Pair {
    go: Arc<Barrier>,
    done: Arc<Barrier>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Pair {
    fn new(kernel: &Arc<Kernel>) -> Pair {
        let (go, done) = (Arc::new(Barrier::new(3)), Arc::new(Barrier::new(3)));
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..2)
            .map(|_| {
                let (go, done, stop, kernel) = (go.clone(), done.clone(), stop.clone(), kernel.clone());
                std::thread::spawn(move || loop {
                    go.wait();
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    black_box(kernel.run());
                    done.wait();
                })
            })
            .collect();
        Pair { go, done, stop, threads }
    }

    /// Wall time until both threads have run the kernel once.
    fn wall_ms(&self) -> f64 {
        let t0 = Instant::now();
        self.go.wait();
        self.done.wait();
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.go.wait();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

pub struct Reference {
    kernel: Arc<Kernel>,
    pair: Option<Pair>,
    nominal_ms: f64,
}

impl Reference {
    /// `off_thread`: the workload computes on threads other than the
    /// harness's own (the cluster's workers, the server's pool).
    pub fn new(off_thread: bool) -> Reference {
        let kernel = Arc::new(Kernel::new());
        let pair = off_thread.then(|| Pair::new(&kernel));
        let nominal_ms = NOMINAL_SOLO_MS + if off_thread { NOMINAL_PAIR_MS } else { 0.0 };
        let reference = Reference { kernel, pair, nominal_ms };
        reference.measure(); // fault the columns in: the first call is not a measurement
        reference
    }

    /// One reference measurement, in ms.
    pub fn measure(&self) -> f64 {
        let t0 = Instant::now();
        black_box(self.kernel.run());
        t0.elapsed().as_secs_f64() * 1e3 + self.pair.as_ref().map_or(0.0, Pair::wall_ms)
    }

    /// How much slower than nominal the machine ran during an interval, given
    /// the reference measured right before and right after it.
    pub fn slowdown(&self, before_ms: f64, after_ms: f64) -> f64 {
        (before_ms + after_ms) / 2.0 / self.nominal_ms
    }
}

/// Walks a pass: each [`Pacer::close`] measures the reference again and
/// returns the slowdown of the interval since the previous measurement.
pub struct Pacer<'r> {
    reference: &'r Reference,
    last_ms: f64,
}

impl<'r> Pacer<'r> {
    pub fn start(reference: &'r Reference) -> Pacer<'r> {
        Pacer { reference, last_ms: reference.measure() }
    }

    pub fn close(&mut self) -> f64 {
        let now_ms = self.reference.measure();
        let slow = self.reference.slowdown(self.last_ms, now_ms);
        self.last_ms = now_ms;
        slow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_real_work() {
        let (a, b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run().to_bits(), b.run().to_bits());
        assert_eq!(a.items.len(), POINTS);
        assert_eq!(*a.start.last().unwrap() as usize, POINTS);
        assert!(a.run().is_finite() && a.run() != 0.0);
    }

    #[test]
    fn slowdown_is_the_flanking_mean_over_nominal() {
        let solo = Reference::new(false);
        assert!((solo.slowdown(13.0, 13.0) - 1.0).abs() < 1e-12);
        assert!((solo.slowdown(13.0, 39.0) - 2.0).abs() < 1e-12);
        let both = Reference::new(true);
        assert!((both.slowdown(28.0, 28.0) - 1.0).abs() < 1e-12);
        // The pair is resident: it measures again and again, then joins on drop.
        assert!(both.measure() > 0.0 && both.measure() > 0.0);
        let mut pacer = Pacer::start(&solo);
        assert!(pacer.close() > 0.0);
    }
}
