//! Batch summaries and confidence intervals.

use crate::normal_quantile;

/// Arithmetic mean of a slice; `0.0` for an empty slice.
///
/// ```
/// assert_eq!(sociolearn_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Two-sided confidence interval for a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Confidence level the interval was built at, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether `x` lies inside the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.5} ± {:.5}", self.mean, self.half_width())
    }
}

/// Critical value of Student's t distribution at two-sided level
/// `level`, for `df` degrees of freedom.
///
/// Exact table rows are used for small `df` at the common 90/95/99%
/// levels; everything else falls back to the normal quantile with the
/// standard `df`-dependent inflation (Cornish–Fisher first-order term),
/// which is within ~1% for `df >= 8`.
fn t_critical(df: u64, level: f64) -> f64 {
    const TABLE_95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    const TABLE_99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    const TABLE_90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    let idx = (df - 1) as usize;
    if idx < 30 {
        if (level - 0.95).abs() < 1e-9 {
            return TABLE_95[idx];
        }
        if (level - 0.99).abs() < 1e-9 {
            return TABLE_99[idx];
        }
        if (level - 0.90).abs() < 1e-9 {
            return TABLE_90[idx];
        }
    }
    // Normal quantile with first-order df correction.
    let z = normal_quantile(0.5 + level / 2.0);
    z * (1.0 + (z * z + 1.0) / (4.0 * df as f64))
}

/// A batch summary of a sample: moments, extrema, and quantiles.
///
/// Construction sorts a copy of the data once; all quantile queries are
/// then O(1).
///
/// # Example
///
/// ```
/// use sociolearn_stats::Summary;
///
/// let s = Summary::from_slice(&[5.0, 1.0, 4.0, 2.0, 3.0]);
/// assert_eq!(s.median(), 3.0);
/// assert_eq!(s.quantile(0.0), 1.0);
/// assert_eq!(s.quantile(1.0), 5.0);
/// assert!(s.ci(0.95).contains(3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    var: f64,
}

impl Summary {
    /// Builds a summary from a slice (copies and sorts it).
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut sorted = xs.to_vec();
        assert!(
            sorted.iter().all(|x| !x.is_nan()),
            "Summary::from_slice: NaN in input"
        );
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN ruled out above"));
        let m = mean(&sorted);
        let var = if sorted.len() < 2 {
            0.0
        } else {
            sorted.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (sorted.len() - 1) as f64
        };
        Summary {
            sorted,
            mean: m,
            var,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the summary holds no data.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn sample_variance(&self) -> f64 {
        self.var
    }

    /// Unbiased sample standard deviation.
    pub fn sample_std(&self) -> f64 {
        self.var.sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.sorted.len() < 2 {
            0.0
        } else {
            self.sample_std() / (self.sorted.len() as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty Summary")
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty Summary")
    }

    /// Linear-interpolated quantile, `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary or `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty Summary");
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile requires q in [0,1], got {q}"
        );
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (`quantile(0.5)`).
    ///
    /// # Panics
    ///
    /// Panics on an empty summary.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Student-t confidence interval for the mean.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `(0, 1)`.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        assert!(
            level > 0.0 && level < 1.0,
            "confidence level must be in (0,1)"
        );
        let n = self.sorted.len() as u64;
        let hw = if n < 2 {
            0.0
        } else {
            t_critical(n - 1, level) * self.std_error()
        };
        ConfidenceInterval {
            mean: self.mean,
            lo: self.mean - hw,
            hi: self.mean + hw,
            level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_slice(&[0.0, 10.0]);
        assert_eq!(s.quantile(0.25), 2.5);
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(0.75), 7.5);
    }

    #[test]
    fn unsorted_input_ok() {
        let s = Summary::from_slice(&[9.0, 1.0, 5.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 5.0);
    }

    #[test]
    fn single_element() {
        let s = Summary::from_slice(&[7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.quantile(0.3), 7.0);
        let ci = s.ci(0.95);
        assert_eq!(ci.lo, ci.hi);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::from_slice(&[1.0, f64::NAN]);
    }

    #[test]
    fn ci_levels_nest() {
        let data: Vec<f64> = (0..40).map(|i| (i as f64 * 0.77).sin()).collect();
        let s = Summary::from_slice(&data);
        let c90 = s.ci(0.90);
        let c95 = s.ci(0.95);
        let c99 = s.ci(0.99);
        assert!(c90.half_width() < c95.half_width());
        assert!(c95.half_width() < c99.half_width());
        assert!(c99.contains(s.mean()));
    }

    #[test]
    fn t_critical_matches_table_and_limits() {
        assert!((t_critical(1, 0.95) - 12.706).abs() < 1e-3);
        assert!((t_critical(30, 0.95) - 2.042).abs() < 1e-3);
        // Large df approaches normal z = 1.96.
        assert!((t_critical(10_000, 0.95) - 1.96).abs() < 0.01);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let text = format!("{}", s.ci(0.95));
        assert!(text.contains('±'));
    }

    #[test]
    fn summary_matches_online_stats() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 7919) % 251) as f64).collect();
        let s = Summary::from_slice(&data);
        let o: crate::OnlineStats = data.iter().copied().collect();
        assert!((s.mean() - o.mean()).abs() < 1e-9);
        assert!((s.sample_variance() - o.sample_variance()).abs() < 1e-6);
    }
}
