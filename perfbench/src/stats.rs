//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! op-aligned median across passes, and the quartiles the gating pipeline
//! computes (Python's `statistics.quantiles(values, n=4)`).

/// Nearest-rank percentile of `values` (any order, non-empty): the value at
/// rank `ceil(p/100 · n)`, clamped to `1..=n`. Always an observed sample —
/// never an interpolation — so a p50 over a bimodal set stays inside a mode.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `m_k`: for every op index `k`, the median over passes of that op's time.
/// Op `k` does bit-identical work in every pass, so its per-pass timings are
/// samples of one quantity; a pass that ran in a slow phase of the machine
/// is outvoted op by op instead of dragging a mean.
pub fn op_aligned_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.first().map_or(0, Vec::len);
    assert!(passes.iter().all(|p| p.len() == n), "passes must time the same ops");
    (0..n).map(|k| median(&passes.iter().map(|p| p[k]).collect::<Vec<_>>())).collect()
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default *exclusive* method) gives them — the gating pipeline's
/// spread is `(q3 − q1) / q2`, so `--all` and `--compare` must agree with it
/// to the digit. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median (the pipeline's "spread").
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_at_one_two_odd_even() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // n = 2: rank ceil(0.5·2) = 1 → the lower sample; p95 → the upper.
        assert_eq!(percentile(&[9.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[9.0, 3.0], 95.0), 9.0);
        // odd
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 90.0), 5.0);
        // even: rank ceil(0.5·4) = 2 → lower middle, never an average.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.0), 1.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100.0), 4.0);
    }

    #[test]
    fn op_aligned_median_outvotes_one_slow_pass() {
        // Five passes of three ops; pass 2 ran 10× slow throughout.
        let base = [10.0, 20.0, 30.0];
        let mut passes: Vec<Vec<f64>> = (0..5).map(|p| base.iter().map(|b| b + p as f64 * 0.1).collect()).collect();
        passes[2] = base.iter().map(|b| b * 10.0).collect();
        let m = op_aligned_medians(&passes);
        // Surviving samples per op: +0.0, +0.1, +0.3, +0.4 and the outlier →
        // the median is the +0.3 sample, nowhere near the slow pass.
        for (mk, b) in m.iter().zip(base) {
            assert!((mk - (b + 0.3)).abs() < 1e-12, "{mk} vs {b}");
        }
        // A plain mean over passes would have been dragged ≈ 2.8× up.
        let mean0: f64 = passes.iter().map(|p| p[0]).sum::<f64>() / 5.0;
        assert!(mean0 > 2.5 * m[0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 4.0, 5.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
