//! Order statistics for the benchmark's samples. No clocks here: every
//! function is a pure function of its input vector.

/// Sorted copy (NaN-free input assumed: the samples are durations and counts).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an already sorted slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile `q` in `[0, 1]` (linear interpolation between order statistics).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `(q1, median, q3)`.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    (quantile_sorted(&v, 0.25), quantile_sorted(&v, 0.5), quantile_sorted(&v, 0.75))
}

/// Median absolute deviation from the median.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    median(&samples.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

/// Median of `num` over median of `den`: the ratio of two interleaved series.
pub fn ratio_of_medians(num: &[f64], den: &[f64]) -> f64 {
    median(num) / median(den)
}

/// The highest percentile (a whole number, 50..=99) that still has at least
/// `beyond` samples above it, or `None` when even the median has fewer.
pub fn highest_percentile_with(n: usize, beyond: usize) -> Option<u32> {
    (50..=99u32).rev().find(|p| (n as f64 * (100 - p) as f64 / 100.0).floor() as usize >= beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_on_fixed_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn ratio_of_medians_uses_each_series_median() {
        assert_eq!(ratio_of_medians(&[2.0, 4.0, 100.0], &[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_beyond() {
        assert_eq!(highest_percentile_with(40, 10), Some(75));
        assert_eq!(highest_percentile_with(100, 10), Some(90));
        assert_eq!(highest_percentile_with(1000, 10), Some(99));
        assert_eq!(highest_percentile_with(20, 10), Some(50));
        assert_eq!(highest_percentile_with(19, 10), None);
    }
}
