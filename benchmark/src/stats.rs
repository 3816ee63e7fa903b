//! Order statistics used by every workload: medians, the percentile rule
//! of the metrics guide, and the quartile spread `compare` judges by.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was picked (99.0 for p99, …; 50.0 when the sample
    /// supports nothing higher).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: u64,
    /// Samples strictly beyond the picked rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank percentile of an ascending slice.
fn nearest_rank(sorted: &[u64], p: f64) -> (u64, usize) {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// The highest percentile of `samples` that still has at least ten samples
/// beyond it (falling back to the median), so a reported tail is never one
/// or two outliers. Returns `None` for an empty sample.
pub fn highest_supported_tail(samples: &[u64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for p in TAILS {
        let (value, beyond) = nearest_rank(&sorted, p);
        if beyond >= 10 {
            return Some(Tail {
                percentile: p,
                value,
                beyond,
                samples: sorted.len(),
            });
        }
    }
    let (value, beyond) = nearest_rank(&sorted, 50.0);
    Some(Tail {
        percentile: 50.0,
        value,
        beyond,
        samples: sorted.len(),
    })
}

/// A latency sample as it is reported: the median and the highest
/// supported tail, in milliseconds, with the evidence for a human.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_percentile: f64,
    pub samples: usize,
    beyond: usize,
}

impl Latency {
    /// Summarises microsecond samples; all zeros for an empty sample.
    pub fn of_us(samples_us: &[u64]) -> Latency {
        let p50 = hyperring_harness::metrics::percentile(samples_us, 50.0).unwrap_or(0);
        let tail = highest_supported_tail(samples_us);
        Latency {
            p50_ms: p50 as f64 / 1e3,
            tail_ms: tail.map_or(0, |t| t.value) as f64 / 1e3,
            tail_percentile: tail.map_or(0.0, |t| t.percentile),
            samples: samples_us.len(),
            beyond: tail.map_or(0, |t| t.beyond),
        }
    }
}

impl std::fmt::Display for Latency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.1} ms, p{} {:.1} ms over {} samples ({} beyond)",
            self.p50_ms, self.tail_percentile, self.tail_ms, self.samples, self.beyond
        )
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so a spread computed here
/// matches the one the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped to the sample, linearly
        // interpolated between neighbours.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; `None` below two
/// values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
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
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let s: Vec<u64> = (1..=1000).collect();
        let t = highest_supported_tail(&s).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990, 10, 1000)
        );
        // 999 samples: p99 leaves 9 beyond, so p95 is the highest supported.
        let t = highest_supported_tail(&s[..999]).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= 10);
        // 100 samples: p90 leaves exactly 10.
        let t = highest_supported_tail(&s[..100]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90, 10));
        // Too few for any tail: the median, with its count.
        let t = highest_supported_tail(&s[..15]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 8, 15));
        assert_eq!(highest_supported_tail(&[]), None);

        let l = Latency::of_us(&s.iter().map(|x| x * 1000).collect::<Vec<_>>());
        assert_eq!(
            (l.p50_ms, l.tail_ms, l.tail_percentile),
            (500.0, 990.0, 99.0)
        );
        assert_eq!(
            l.to_string(),
            "p50 500.0 ms, p99 990.0 ms over 1000 samples (10 beyond)"
        );
        assert_eq!(Latency::of_us(&[]).tail_ms, 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
