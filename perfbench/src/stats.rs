//! Order statistics over timing samples.

/// The `p`-th percentile (0..=100) of `samples`, interpolating linearly
/// between the two nearest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples`, `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// `part / whole`, or 0 when `whole` is 0 (a layer the workload never
/// reached).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
    }

    #[test]
    fn boundaries_are_min_and_max() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        // Out-of-range requests clamp rather than index past the ends.
        assert_eq!(percentile(&xs, -10.0), Some(1.0));
        assert_eq!(percentile(&xs, 250.0), Some(5.0));
    }

    #[test]
    fn interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), Some(5.5));
        // rank 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9)
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
        assert_eq!(percentile(&[1.0, 3.0], 50.0), Some(2.0));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
