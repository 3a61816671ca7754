//! Summary statistics shared by every workload: one percentile
//! definition (nearest rank), the median built on it, and the
//! geometric mean used for the `sim_*` metrics.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are less than or equal to it, i.e. the
/// sample at 1-based rank `ceil(p / 100 * n)` of the sorted data
/// (rank 1 for `p = 0`). Returns `None` for no samples or a `p`
/// outside `0..=100`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // The tolerance keeps `p * n / 100` that should be a whole number
    // (99.9 % of 1000) from rounding up past it.
    let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The 50th nearest-rank percentile (`NaN` for no samples, so a
/// missing measurement can never pass for a real one).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(f64::NAN)
}

/// Geometric mean of strictly positive values (`NaN` otherwise).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nearest-rank rule written out over an already sorted list:
    /// walk the list and return the first element whose cumulative
    /// share reaches `p` (in whole hundredths of a percent, exactly).
    fn sorted_reference(sorted: &[f64], p: f64) -> f64 {
        let p_hundredths = (p * 100.0).round() as usize;
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) * 10_000 >= p_hundredths * sorted.len() {
                return v;
            }
        }
        unreachable!("p <= 100 always reaches the last element")
    }

    #[test]
    fn matches_the_sorted_reference_on_shuffled_inputs() {
        // A fixed pseudo-random permutation of 1..=n for several n.
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let mut shuffled = sorted.clone();
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ n as u64;
            for i in (1..n).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                let want = if p == 0.0 {
                    sorted[0]
                } else {
                    sorted_reference(&sorted, p)
                };
                assert_eq!(percentile(&shuffled, p), Some(want), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn known_values() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 101.0), None);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }
}
