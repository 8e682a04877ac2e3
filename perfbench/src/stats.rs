//! Summary statistics over a run's samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of whole-unit samples, interpolated within the unit
/// bin `[v, v + 1)` the quantile falls in.
///
/// Latencies are recorded in whole ticks (or whole µs), so most
/// quantiles land on a bin holding many samples. Placing the quantile
/// inside that bin by the share of its samples below the quantile rank
/// lets a shift of a fraction of a unit show as a fraction, instead of
/// reading as no change or as a whole-unit step.
pub fn interpolated_quantile(samples: &[u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile outside [0, 1]");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = q * v.len() as f64;
    // The bin holding the sample at `rank`.
    let idx = (rank as usize).min(v.len() - 1);
    let bin = v[idx];
    let below = v.partition_point(|&x| x < bin);
    let in_bin = v.partition_point(|&x| x <= bin) - below;
    bin as f64 + ((rank - below as f64) / in_bin as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_within_the_bin() {
        // Ten samples: four 2s, six 4s. The median rank (5) is the first
        // of the six 4s: 4 + (5 - 4) / 6.
        let s = [2, 2, 2, 2, 4, 4, 4, 4, 4, 4];
        assert!((interpolated_quantile(&s, 0.5) - (4.0 + 1.0 / 6.0)).abs() < 1e-12);
        // All equal: the quantile moves through the bin.
        let same = [7u64; 100];
        assert!((interpolated_quantile(&same, 0.5) - 7.5).abs() < 1e-12);
        assert!((interpolated_quantile(&same, 0.99) - 7.99).abs() < 1e-12);
    }

    #[test]
    fn a_shifted_share_moves_the_quantile_by_a_fraction() {
        let mut a = vec![10u64; 60];
        a.extend(vec![11u64; 40]);
        let mut b = vec![10u64; 50];
        b.extend(vec![11u64; 50]);
        let (qa, qb) = (
            interpolated_quantile(&a, 0.5),
            interpolated_quantile(&b, 0.5),
        );
        assert!(qa < qb && qb - qa < 1.0, "{qa} {qb}");
    }
}
