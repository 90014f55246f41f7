//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `xs`; `NaN` for an
/// empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Samples strictly above the `p`-th percentile — the guide's "at least
/// ten samples beyond it" test for a reportable tail percentile.
pub fn beyond(xs: &[f64], p: f64) -> usize {
    let q = percentile(xs, p);
    xs.iter().filter(|&&x| x > q).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
        assert!(median(&[]).is_nan());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&xs, 90.0), 10);
    }
}
