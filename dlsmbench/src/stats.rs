//! Order statistics over exact samples and over the engine's log-bucketed
//! histograms.

use dlsm_telemetry::{bucket_index, bucket_max, HistSnapshot};

/// Quantile `q` of `v` by linear interpolation between order statistics
/// (0 for an empty sample). Reorders `v`.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let n = v.len();
    let (_, &mut a, rest) = v.select_nth_unstable(lo);
    if lo + 1 == n || pos == lo as f64 {
        return a as f64;
    }
    let b = *rest.iter().min().expect("non-empty upper part");
    a as f64 + (b - a) as f64 * (pos - lo as f64)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quantile `q` of an engine histogram, interpolated linearly inside the
/// bucket that holds it (the buckets are at most 12.5% wide).
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = (q * count as f64).max(1.0);
    let mut seen = 0u64;
    for (floor, n) in h.nonzero_buckets() {
        if (seen + n) as f64 >= rank {
            let top = bucket_max(bucket_index(floor)).min(h.max().max(floor)) as f64;
            let frac = (rank - seen as f64) / n as f64;
            return floor as f64 + (top - floor as f64) * frac;
        }
        seen += n;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_quantiles() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(quantile(&mut [1, 2], 0.5), 1.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn histogram_quantile_lands_in_the_right_bucket() {
        let h = dlsm_telemetry::Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h.snapshot(), 0.5);
        assert!((1400.0..1600.0).contains(&p50), "p50 {p50}");
    }
}
