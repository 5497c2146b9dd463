//! Order statistics with the sample-size rule the benchmark reports by.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `samples`, refused with an
/// error when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// percentile read off a handful of samples is noise, not a number.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (mean of the middle
/// two for an even count). Panics on an empty set: every caller
/// measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond it.
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        // p99 of 100 leaves 1.
        assert!(percentile(&hundred, 99.0).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert!(percentile(&thousand, 99.5).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert_eq!(percentile(&[1.0; 20], 50.0), Ok(1.0));
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&v, 50.0).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 50.0).unwrap(), a);
        assert_eq!(a, 99.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
