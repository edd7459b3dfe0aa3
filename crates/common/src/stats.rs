//! Statistics utilities used by validation and benchmarking.
//!
//! The paper validates its MITSIM reimplementation with RMSPE (Relative Mean
//! Square Percentage Error, Table 2) over per-lane traffic statistics, and
//! fits growth orders to its scaling figures. This module provides those
//! two measures.

/// Relative Mean Square Percentage Error between an observed series and a
/// reference series, the goodness-of-fit measure of the paper's Table 2:
///
/// `RMSPE = sqrt( (1/n) * Σ ((obs_i - ref_i) / ref_i)^2 )`
///
/// Pairs whose reference value is zero are skipped (a zero denominator says
/// nothing about relative error). Returns `None` when no usable pair exists
/// or the lengths differ.
pub fn rmspe(observed: &[f64], reference: &[f64]) -> Option<f64> {
    if observed.len() != reference.len() {
        return None;
    }
    let mut sum = 0.0;
    let mut n = 0u32;
    for (&o, &r) in observed.iter().zip(reference) {
        if r == 0.0 {
            continue;
        }
        let rel = (o - r) / r;
        sum += rel * rel;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((sum / n as f64).sqrt())
    }
}

/// Least-squares slope of `log2(y)` against `log2(x)`: the empirical growth
/// exponent. Benchmark shape tests use this to distinguish quadratic
/// (slope ≈ 2) from (log-)linear (slope ≈ 1) scaling, mirroring the paper's
/// Fig. 3 discussion without depending on absolute machine speed.
pub fn log_log_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> =
        points.iter().filter(|(x, y)| *x > 0.0 && *y > 0.0).map(|&(x, y)| (x.log2(), y.log2())).collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmspe_zero_for_identical_series() {
        let s = [1.0, 2.0, 3.0];
        assert_eq!(rmspe(&s, &s), Some(0.0));
    }

    #[test]
    fn rmspe_known_value() {
        // 10% relative error on every point -> RMSPE = 0.1.
        let obs = [1.1, 2.2, 3.3];
        let reference = [1.0, 2.0, 3.0];
        let e = rmspe(&obs, &reference).unwrap();
        assert!((e - 0.1).abs() < 1e-12, "{e}");
    }

    #[test]
    fn rmspe_skips_zero_reference() {
        let obs = [5.0, 1.1];
        let reference = [0.0, 1.0];
        let e = rmspe(&obs, &reference).unwrap();
        assert!((e - 0.1).abs() < 1e-12);
        assert_eq!(rmspe(&[1.0], &[0.0]), None);
        assert_eq!(rmspe(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn log_log_slope_detects_growth_order() {
        let quad: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        let lin: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((log_log_slope(&quad).unwrap() - 2.0).abs() < 1e-9);
        assert!((log_log_slope(&lin).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(log_log_slope(&[(1.0, 1.0)]), None);
    }
}
