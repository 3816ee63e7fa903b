//! Small statistics toolkit for simulation outputs: empirical CDFs and
//! summary statistics — enough to regenerate the paper's Figure 15(b) (a
//! cumulative distribution of per-join message counts).

/// An empirical distribution built from `u64` samples.
///
/// # Examples
///
/// ```
/// use hyperring_sim::stats::Distribution;
/// let d = Distribution::from_samples([4u64, 8, 6, 5, 3].into_iter());
/// assert_eq!(d.len(), 5);
/// assert_eq!(d.min(), 3);
/// assert_eq!(d.max(), 8);
/// assert!((d.mean() - 5.2).abs() < 1e-9);
/// assert!((d.cdf_at(5) - 0.6).abs() < 1e-9); // 3 of 5 samples ≤ 5
/// ```
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    sorted: Vec<u64>,
}

impl Distribution {
    /// Builds a distribution from samples (order irrelevant).
    pub fn from_samples<I: Iterator<Item = u64>>(samples: I) -> Self {
        let mut sorted: Vec<u64> = samples.collect();
        sorted.sort_unstable();
        Distribution { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn min(&self) -> u64 {
        *self.sorted.first().expect("empty distribution")
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty.
    pub fn max(&self) -> u64 {
        *self.sorted.last().expect("empty distribution")
    }

    /// Arithmetic mean (0.0 for an empty distribution).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().map(|&v| v as f64).sum::<f64>() / self.sorted.len() as f64
    }

    /// Fraction of samples `<= x` — one point of the empirical CDF.
    pub fn cdf_at(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The full empirical CDF as `(value, fraction ≤ value)` points, one per
    /// distinct sample value — the series plotted in Figure 15(b).
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let v = self.sorted[i];
            let j = self.sorted.partition_point(|&s| s <= v);
            out.push((v, j as f64 / n));
            i = j;
        }
        out
    }

    /// `q`-quantile by nearest rank, `0.0 <= q <= 1.0`: the
    /// [`percentile`] at `100 · q`.
    ///
    /// # Panics
    ///
    /// Panics if empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(!self.sorted.is_empty(), "empty distribution");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        self.sorted[nearest_rank(self.sorted.len(), q * 100.0)]
    }

    /// Sample standard deviation (0.0 with fewer than two samples).
    pub fn stddev(&self) -> f64 {
        if self.sorted.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .sorted
            .iter()
            .map(|&v| (v as f64 - m).powi(2))
            .sum::<f64>()
            / (self.sorted.len() - 1) as f64;
        var.sqrt()
    }
}

/// The `p`-th percentile of `samples` by nearest rank over a sorted copy,
/// or `None` when empty. `p` is clamped to `[0, 100]`; `p = 50` is the
/// median (the lower middle sample of an even count), `p = 100` the
/// maximum. Every p50/p95/p99 this workspace reports is this function.
///
/// # Panics
///
/// Panics if two samples are unordered (a NaN).
///
/// # Examples
///
/// ```
/// use hyperring_sim::stats::percentile;
/// assert_eq!(percentile(&[30u64, 10, 20, 40], 50.0), Some(20));
/// assert_eq!(percentile(&[1.5, 0.5], 100.0), Some(1.5));
/// assert_eq!(percentile::<u64>(&[], 99.0), None);
/// ```
pub fn percentile<T: Copy + PartialOrd>(samples: &[T], p: f64) -> Option<T> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("unordered sample"));
    sorted.get(nearest_rank(sorted.len(), p)).copied()
}

/// Index of the `p`-th percentile in a sorted sample of `len`: the
/// smallest rank with at least `p`% of the sample at or below it.
fn nearest_rank(len: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * (len as f64)).ceil() as usize;
    rank.max(1) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 10.0), Some(1));
        assert_eq!(percentile(&v, 11.0), Some(2));
        assert_eq!(percentile(&v, 50.0), Some(5));
        assert_eq!(percentile(&v, 99.0), Some(10));
        assert_eq!(percentile(&v, 250.0), Some(10), "p is clamped");
        let d = Distribution::from_samples(v.into_iter());
        assert_eq!(d.quantile(0.5), 5);
    }

    #[test]
    fn cdf_points_cover_all_mass() {
        let d = Distribution::from_samples([2u64, 2, 2, 5, 9, 9].into_iter());
        let pts = d.cdf_points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (2, 0.5));
        assert_eq!(pts[1], (5, 4.0 / 6.0));
        assert_eq!(pts[2], (9, 1.0));
        assert_eq!(d.cdf_at(1), 0.0);
        assert_eq!(d.cdf_at(100), 1.0);
    }

    #[test]
    fn quantiles_and_spread() {
        let d = Distribution::from_samples(1..=101u64);
        assert_eq!(d.quantile(0.0), 1);
        assert_eq!(d.quantile(0.5), 51);
        assert_eq!(d.quantile(1.0), 101);
        assert!((d.mean() - 51.0).abs() < 1e-9);
        assert!(d.stddev() > 29.0 && d.stddev() < 30.0);
    }

    #[test]
    fn empty_distribution_is_safe_where_documented() {
        let d = Distribution::from_samples(std::iter::empty());
        assert!(d.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.cdf_at(3), 0.0);
        assert_eq!(d.stddev(), 0.0);
        assert!(d.cdf_points().is_empty());
    }

    #[test]
    fn single_sample_distribution() {
        let d = Distribution::from_samples(std::iter::once(42));
        assert_eq!(d.min(), 42);
        assert_eq!(d.max(), 42);
        assert_eq!(d.quantile(0.5), 42);
        assert_eq!(d.cdf_points(), vec![(42, 1.0)]);
    }
}
