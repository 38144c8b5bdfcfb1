//! Percentile bootstrap confidence intervals.

use rand::Rng;

/// Result of a bootstrap resampling run.
#[derive(Debug, Clone, Copy, PartialEq)]
// detlint: allow(D6) — the A/B comparison tool's interval type (ROADMAP item 3)
pub struct BootstrapCi {
    /// Statistic evaluated on the original sample.
    pub point: f64,
    /// Lower percentile endpoint.
    pub lo: f64,
    /// Upper percentile endpoint.
    pub hi: f64,
    /// Confidence level used.
    pub level: f64,
    /// Number of bootstrap resamples drawn.
    pub resamples: usize,
}

impl BootstrapCi {
    /// Whether `x` lies inside the closed interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// Percentile-bootstrap confidence interval for the mean.
///
/// Convenience wrapper over [`bootstrap_ci_of`] with the mean statistic.
///
/// # Panics
///
/// Panics if `data` is empty, `resamples == 0`, or `level` not in (0,1).
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let data: Vec<f64> = (0..200).map(|i| (i % 7) as f64).collect();
/// let ci = sociolearn_stats::bootstrap_ci(&data, 500, 0.95, &mut rng);
/// assert!(ci.contains(ci.point));
/// ```
// detlint: allow(D6) — the A/B comparison tool's interval (ROADMAP item 3)
pub fn bootstrap_ci<R: Rng>(
    data: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> BootstrapCi {
    bootstrap_ci_of(data, resamples, level, rng, crate::mean)
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic.
///
/// The statistic is any function of a sample slice (median, trimmed
/// mean, max-deviation, ...). The percentile method is used: the CI
/// endpoints are empirical quantiles of the statistic over `resamples`
/// with-replacement resamples of `data`.
///
/// # Panics
///
/// Panics if `data` is empty, `resamples == 0`, or `level` not in (0,1).
// detlint: allow(D6) — the A/B comparison tool's interval (ROADMAP item 3)
pub fn bootstrap_ci_of<R, F>(
    data: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut R,
    statistic: F,
) -> BootstrapCi
where
    R: Rng,
    F: Fn(&[f64]) -> f64,
{
    assert!(!data.is_empty(), "bootstrap on empty data");
    assert!(resamples > 0, "bootstrap needs at least one resample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0,1)"
    );

    let point = statistic(data);
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; data.len()];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.gen_range(0..data.len())];
        }
        stats.push(statistic(&buf));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("statistic produced NaN"));
    let alpha = (1.0 - level) / 2.0;
    let q = |p: f64| -> f64 {
        let pos = p * (stats.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        stats[lo] * (1.0 - frac) + stats[hi] * frac
    };
    BootstrapCi {
        point,
        lo: q(alpha),
        hi: q(1.0 - alpha),
        level,
        resamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn covers_true_mean_of_uniform_grid() {
        let data: Vec<f64> = (0..500).map(|i| i as f64 / 499.0).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let ci = bootstrap_ci(&data, 1000, 0.95, &mut rng);
        assert!(ci.contains(0.5), "{ci:?}");
        assert!(ci.hi - ci.lo < 0.1, "interval suspiciously wide: {ci:?}");
    }

    #[test]
    fn degenerate_data_gives_zero_width() {
        let data = vec![3.0; 50];
        let mut rng = SmallRng::seed_from_u64(2);
        let ci = bootstrap_ci(&data, 200, 0.95, &mut rng);
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.point, 3.0);
    }

    #[test]
    fn median_statistic() {
        let data: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let ci = bootstrap_ci_of(&data, 500, 0.95, &mut rng, |xs| {
            crate::Summary::from_slice(xs).median()
        });
        assert_eq!(ci.point, 50.0);
        assert!(ci.contains(50.0));
    }

    #[test]
    fn wider_level_wider_interval() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 31) % 97) as f64).collect();
        let mut r1 = SmallRng::seed_from_u64(4);
        let mut r2 = SmallRng::seed_from_u64(4);
        let c90 = bootstrap_ci(&data, 800, 0.90, &mut r1);
        let c99 = bootstrap_ci(&data, 800, 0.99, &mut r2);
        assert!(c99.hi - c99.lo >= c90.hi - c90.lo);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        let mut rng = SmallRng::seed_from_u64(5);
        bootstrap_ci(&[], 10, 0.95, &mut rng);
    }
}
