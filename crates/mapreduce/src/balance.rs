//! The one-dimensional load balancer.
//!
//! "A one-dimensional load balancer periodically receives statistics from
//! the slave nodes, including computational load and number of owned agents;
//! from these it heuristically computes a new partition trying to balance
//! improved performance against estimated migration cost" (§5.1).
//!
//! Implementation: workers histogram their owned agents' x-positions over a
//! master-provided range; the master merges the histograms into an empirical
//! distribution and, when imbalance warrants it, places the new column
//! boundaries at the distribution's quantiles so every worker owns an
//! approximately equal share. The decision rule weighs the *benefit* (excess
//! load on the most loaded worker, which bounds the possible speed-up of one
//! epoch) against the *cost* (agents that would change owner, each paying
//! one serialize/ship/deserialize).

use serde::{Deserialize, Serialize};

/// Load balancer configuration. Defaults are tuned so that the fish-school
/// workload (Figures 7/8) rebalances promptly without thrashing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadBalancer {
    /// Rebalance only when `max_load / mean_load` exceeds this.
    pub imbalance_threshold: f64,
    /// Estimated per-agent migration cost, measured in units of one agent's
    /// per-tick compute cost. With epoch length `E`, moving an agent is
    /// worth it if it relieves at least `migration_cost_ticks / E` ticks of
    /// imbalance.
    pub migration_cost_ticks: f64,
}

impl Default for LoadBalancer {
    fn default() -> Self {
        LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 4.0 }
    }
}

/// Outcome of one balancing decision.
#[derive(Debug, Clone, PartialEq)]
pub enum BalanceDecision {
    /// Current partitioning stays.
    Keep,
    /// Install these column boundaries at the next epoch boundary.
    Repartition { x_bounds: Vec<f64>, predicted_moves: u64, imbalance: f64 },
}

impl LoadBalancer {
    /// Decide from per-worker owned-agent counts and the merged x-position
    /// histogram. `hist_range` is the interval the histogram covers;
    /// `current_bounds` are the active column boundaries (`workers + 1`);
    /// `epoch_len` is the ticks per epoch, the horizon over which a better
    /// partitioning pays off before the next decision point.
    pub fn decide(
        &self,
        current_bounds: &[f64],
        counts: &[u64],
        hist: &[u64],
        hist_range: (f64, f64),
        epoch_len: u64,
    ) -> BalanceDecision {
        let workers = counts.len();
        debug_assert_eq!(current_bounds.len(), workers + 1);
        let total: u64 = counts.iter().sum();
        if workers < 2 || total == 0 {
            return BalanceDecision::Keep;
        }
        let mean = total as f64 / workers as f64;
        let max = *counts.iter().max().unwrap() as f64;
        let imbalance = max / mean;
        if imbalance <= self.imbalance_threshold {
            return BalanceDecision::Keep;
        }

        let new_bounds = quantile_bounds(hist, hist_range, workers, current_bounds);
        // A repartitioning that barely moves any boundary is a no-op; skip
        // the broadcast and the partitioning switch.
        let span = (current_bounds[workers] - current_bounds[0]).abs().max(1e-9);
        let max_shift = current_bounds.iter().zip(&new_bounds).map(|(o, n)| (o - n).abs()).fold(0.0f64, f64::max);
        if max_shift < span * 1e-6 {
            return BalanceDecision::Keep;
        }
        let predicted_moves = predicted_moves(hist, hist_range, current_bounds, &new_bounds);

        // Benefit: the most loaded worker sheds (max - mean) agents for
        // epoch_len ticks. Cost: each moved agent pays a fixed migration
        // charge. Keep the partitioning when moving wouldn't pay off.
        let benefit = (max - mean) * epoch_len as f64;
        let cost = predicted_moves as f64 * self.migration_cost_ticks;
        if benefit <= cost {
            return BalanceDecision::Keep;
        }
        BalanceDecision::Repartition { x_bounds: new_bounds, predicted_moves, imbalance }
    }
}

/// Place `workers - 1` interior boundaries at the quantiles of the
/// histogram (linear interpolation inside bins), keeping the outer
/// boundaries from `current_bounds`. Boundaries are forced strictly
/// increasing.
pub fn quantile_bounds(hist: &[u64], hist_range: (f64, f64), workers: usize, current_bounds: &[f64]) -> Vec<f64> {
    let total: u64 = hist.iter().sum();
    let (lo, hi) = hist_range;
    let bin_w = (hi - lo) / hist.len() as f64;
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(current_bounds[0]);
    let mut cum = 0u64;
    let mut bin = 0usize;
    for k in 1..workers {
        let target = (total as f64 * k as f64 / workers as f64).ceil() as u64;
        while bin < hist.len() && cum + hist[bin] < target {
            cum += hist[bin];
            bin += 1;
        }
        let x = if bin >= hist.len() {
            hi
        } else {
            // Interpolate inside the bin.
            let into = (target - cum) as f64 / hist[bin].max(1) as f64;
            lo + (bin as f64 + into) * bin_w
        };
        bounds.push(x);
    }
    bounds.push(*current_bounds.last().unwrap());
    // Enforce strict monotonicity (degenerate histograms can collapse
    // quantiles onto one x); nudge forward by a hair of the span.
    let span = (bounds[workers] - bounds[0]).abs().max(1e-9);
    let eps = span * 1e-9;
    for i in 1..bounds.len() {
        if bounds[i] <= bounds[i - 1] {
            bounds[i] = bounds[i - 1] + eps;
        }
    }
    bounds
}

/// Estimate how many agents change owner between two boundary vectors, by
/// integrating the histogram between each old/new boundary pair.
pub fn predicted_moves(hist: &[u64], hist_range: (f64, f64), old_bounds: &[f64], new_bounds: &[f64]) -> u64 {
    let (lo, hi) = hist_range;
    let bin_w = (hi - lo) / hist.len() as f64;
    // Cumulative count strictly left of x.
    let cum_at = |x: f64| -> f64 {
        if x <= lo {
            return 0.0;
        }
        if x >= hi {
            return hist.iter().sum::<u64>() as f64;
        }
        let pos = (x - lo) / bin_w;
        let full = pos.floor() as usize;
        let frac = pos - full as f64;
        let mut c: f64 = hist[..full].iter().sum::<u64>() as f64;
        if full < hist.len() {
            c += hist[full] as f64 * frac;
        }
        c
    };
    let mut moves = 0.0;
    for (o, n) in old_bounds.iter().zip(new_bounds).skip(1).take(old_bounds.len().saturating_sub(2)) {
        moves += (cum_at(*o) - cum_at(*n)).abs();
    }
    moves.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_load_keeps_partitioning() {
        let lb = LoadBalancer::default();
        let bounds = [0.0, 50.0, 100.0];
        let hist = vec![10, 10, 10, 10];
        let d = lb.decide(&bounds, &[20, 20], &hist, (0.0, 100.0), 10);
        assert_eq!(d, BalanceDecision::Keep);
    }

    #[test]
    fn skewed_load_repartitions_toward_quantiles() {
        let lb = LoadBalancer { imbalance_threshold: 1.2, migration_cost_ticks: 1.0 };
        let bounds = [0.0, 50.0, 100.0];
        // All mass in [0, 25): worker 0 owns everything.
        let mut hist = vec![0u64; 8];
        hist[0] = 500;
        hist[1] = 500;
        let d = lb.decide(&bounds, &[1000, 0], &hist, (0.0, 100.0), 10);
        match d {
            BalanceDecision::Repartition { x_bounds, imbalance, .. } => {
                assert!(imbalance > 1.9);
                assert_eq!(x_bounds.len(), 3);
                // Median of the mass is at 12.5; boundary should land there.
                assert!((x_bounds[1] - 12.5).abs() < 1.0, "boundary at {}", x_bounds[1]);
                assert!(x_bounds.windows(2).all(|w| w[0] < w[1]));
            }
            BalanceDecision::Keep => panic!("should repartition"),
        }
    }

    #[test]
    fn migration_cost_vetoes_marginal_gains() {
        // Mild imbalance whose fix would move agents, but migration is
        // priced prohibitively -> Keep. (Median of this histogram is at 45,
        // so the boundary would shift 50 -> 45, moving ~5 agents.)
        let lb = LoadBalancer { imbalance_threshold: 1.05, migration_cost_ticks: 1e9 };
        let bounds = [0.0, 50.0, 100.0];
        let hist = vec![30, 25, 25, 20];
        let d = lb.decide(&bounds, &[55, 45], &hist, (0.0, 100.0), 1);
        assert_eq!(d, BalanceDecision::Keep);
        // Same situation with cheap migration -> Repartition.
        let cheap = LoadBalancer { imbalance_threshold: 1.05, migration_cost_ticks: 0.1 };
        let d = cheap.decide(&bounds, &[55, 45], &hist, (0.0, 100.0), 10);
        assert!(matches!(d, BalanceDecision::Repartition { .. }));
    }

    #[test]
    fn quantile_bounds_split_uniform_mass_evenly() {
        let hist = vec![25u64; 4];
        let b = quantile_bounds(&hist, (0.0, 100.0), 4, &[0.0, 1.0, 2.0, 3.0, 100.0]);
        assert_eq!(b.len(), 5);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 100.0);
        for (i, x) in b.iter().enumerate().take(4).skip(1) {
            assert!((x - 25.0 * i as f64).abs() < 1.5, "bound {i} at {x}");
        }
    }

    #[test]
    fn quantile_bounds_always_strictly_increasing() {
        // Pathological: all mass in one bin.
        let mut hist = vec![0u64; 16];
        hist[7] = 1000;
        let b = quantile_bounds(&hist, (0.0, 16.0), 8, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 16.0]);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
    }

    #[test]
    fn predicted_moves_zero_when_bounds_unchanged() {
        let hist = vec![10u64; 10];
        let b = [0.0, 50.0, 100.0];
        assert_eq!(predicted_moves(&hist, (0.0, 100.0), &b, &b), 0);
    }

    #[test]
    fn predicted_moves_counts_mass_between_boundaries() {
        let hist = vec![10u64; 10]; // 1 agent per unit over [0, 100) at density 0.1/unit... 10 per 10-wide bin
        let old = [0.0, 50.0, 100.0];
        let new = [0.0, 70.0, 100.0];
        // Mass between 50 and 70 = 20 agents moves from worker 1 to 0.
        assert_eq!(predicted_moves(&hist, (0.0, 100.0), &old, &new), 20);
    }

    #[test]
    fn single_worker_never_repartitions() {
        let lb = LoadBalancer::default();
        let d = lb.decide(&[0.0, 100.0], &[100], &[100], (0.0, 100.0), 10);
        assert_eq!(d, BalanceDecision::Keep);
    }

    #[test]
    fn empty_world_keeps() {
        let lb = LoadBalancer::default();
        let d = lb.decide(&[0.0, 50.0, 100.0], &[0, 0], &[0, 0], (0.0, 100.0), 10);
        assert_eq!(d, BalanceDecision::Keep);
    }
}
