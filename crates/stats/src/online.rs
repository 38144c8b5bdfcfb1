//! Online (single-pass) accumulation of moments.

/// Numerically stable streaming mean/variance accumulator
/// (Welford's algorithm), with min/max tracking.
///
/// Used throughout the simulation runners to aggregate per-replication
/// measurements without storing them.
///
/// # Example
///
/// ```
/// use sociolearn_stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sample mean; `0.0` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n - 1`); `0.0` when `n < 2`.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s / sqrt(n)`; `0.0` when `n < 2`.
    pub fn std_error(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.sample_std() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation; `+inf` if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `-inf` if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// A symmetric normal-approximation confidence half-width for the
    /// mean at the given confidence level (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    pub fn ci_half_width(&self, level: f64) -> f64 {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1)"
        );
        let z = crate::normal_quantile(0.5 + level / 2.0);
        z * self.std_error()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Streaming covariance/correlation accumulator for paired observations.
///
/// # Example
///
/// ```
/// use sociolearn_stats::OnlineCov;
///
/// let mut c = OnlineCov::new();
/// for i in 0..100 {
///     let x = i as f64;
///     c.push(x, 2.0 * x + 1.0);
/// }
/// assert!((c.correlation() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineCov {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl OnlineCov {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(x, y)` pair.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        // Note the asymmetric update: dx uses the old mean, (y - mean_y)
        // the new one; this is the standard stable covariance recurrence.
        self.cxy += dx * (y - self.mean_y);
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
    }

    /// Number of pairs so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Pearson correlation coefficient; `0.0` if either marginal is
    /// degenerate (zero variance) or fewer than two pairs were pushed.
    pub fn correlation(&self) -> f64 {
        if self.n < 2 || self.m2x == 0.0 || self.m2y == 0.0 {
            0.0
        } else {
            self.cxy / (self.m2x.sqrt() * self.m2y.sqrt())
        }
    }

    /// OLS slope of `y` on `x`; `0.0` for degenerate `x`.
    pub fn slope(&self) -> f64 {
        if self.m2x == 0.0 {
            0.0
        } else {
            self.cxy / self.m2x
        }
    }

    /// OLS intercept of `y` on `x`.
    pub fn intercept(&self) -> f64 {
        self.mean_y - self.slope() * self.mean_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 7.0)
            .collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn ci_width_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..100 {
            small.push((i % 10) as f64);
        }
        for i in 0..10_000 {
            large.push((i % 10) as f64);
        }
        assert!(large.ci_half_width(0.95) < small.ci_half_width(0.95));
    }

    #[test]
    fn covariance_of_independent_constant_is_zero() {
        let mut c = OnlineCov::new();
        for i in 0..50 {
            c.push(i as f64, 3.0);
        }
        assert_eq!(c.correlation(), 0.0);
    }

    #[test]
    fn anti_correlated() {
        let mut c = OnlineCov::new();
        for i in 0..50 {
            c.push(i as f64, -(i as f64) * 5.0 + 2.0);
        }
        assert!((c.correlation() + 1.0).abs() < 1e-12);
        assert!((c.slope() + 5.0).abs() < 1e-12);
        assert!((c.intercept() - 2.0).abs() < 1e-9);
    }
}
