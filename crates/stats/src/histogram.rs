//! Fixed-bin histograms.

/// A fixed-width binned histogram over a closed range.
///
/// Out-of-range observations are clamped into the first/last bin; NaN
/// is dropped.
///
/// # Example
///
/// ```
/// use sociolearn_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// for x in [0.1, 0.3, 0.35, 0.9] {
///     h.add(x);
/// }
/// assert_eq!(h.counts(), &[1, 2, 0, 1]);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi]` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite"
        );
        assert!(lo < hi, "histogram requires lo < hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Builds a histogram spanning the data's own min/max range.
    ///
    /// Degenerate (constant or empty) data gets a unit-width range
    /// centred on the value so the histogram is still usable.
    pub fn auto(xs: &[f64], bins: usize) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if !lo.is_finite() || !hi.is_finite() {
            lo = 0.0;
            hi = 1.0;
        }
        if lo == hi {
            lo -= 0.5;
            hi += 0.5;
        }
        let mut h = Histogram::new(lo, hi, bins);
        for &x in xs {
            h.add(x);
        }
        h
    }

    /// Records one observation. NaN is dropped.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.lo {
            self.counts[0] += 1;
            return;
        }
        if x > self.hi {
            let last = self.counts.len() - 1;
            self.counts[last] += 1;
            return;
        }
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let idx = (((x - self.lo) / w) as usize).min(bins - 1);
        self.counts[idx] += 1;
    }

    /// Per-bin counts (in-range observations plus clamped outliers).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of observations recorded into bins (excludes NaN).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// `(bin_center, count)` pairs, handy for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        (0..self.counts.len())
            .map(|i| (self.bin_center(i), self.counts[i] as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn nan_does_not_bin() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn upper_edge_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(1.0);
        assert_eq!(h.counts(), &[0, 0, 0, 1]);
    }

    #[test]
    fn auto_covers_data() {
        let data = [3.0, 7.0, 5.0, 3.5];
        let h = Histogram::auto(&data, 4);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn auto_constant_data() {
        let h = Histogram::auto(&[2.0, 2.0, 2.0], 3);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bin_centers_are_monotone() {
        let h = Histogram::new(-1.0, 1.0, 5);
        for i in 1..5 {
            assert!(h.bin_center(i) > h.bin_center(i - 1));
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_bad_range() {
        Histogram::new(1.0, 1.0, 3);
    }
}
