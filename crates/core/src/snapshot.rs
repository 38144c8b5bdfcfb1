//! Trajectory recording: downsampled snapshots of the option
//! distribution over a run.

/// Records the option distribution every `stride` steps (plus step 0).
///
/// # Example
///
/// ```
/// use sociolearn_core::History;
///
/// let mut h = History::new(2);
/// h.record(0, &[0.5, 0.5]);
/// h.record(1, &[0.6, 0.4]); // skipped (stride 2)
/// h.record(2, &[0.7, 0.3]);
/// assert_eq!(h.times(), &[0, 2]);
/// assert_eq!(h.series(1), vec![0.5, 0.3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    stride: u64,
    times: Vec<u64>,
    dists: Vec<Vec<f64>>,
}

impl History {
    /// Creates a recorder keeping every `stride`-th step.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn new(stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        History {
            stride,
            times: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Offers a snapshot at step `t`; it is stored only if `t` is a
    /// multiple of the stride.
    pub fn record(&mut self, t: u64, dist: &[f64]) {
        if t.is_multiple_of(self.stride) {
            self.times.push(t);
            self.dists.push(dist.to_vec());
        }
    }

    /// The recorded step indices.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The stored distribution snapshots, aligned with [`times`].
    ///
    /// [`times`]: History::times
    pub fn snapshots(&self) -> &[Vec<f64>] {
        &self.dists
    }

    /// The trajectory of option `j` across stored snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for any snapshot.
    pub fn series(&self, j: usize) -> Vec<f64> {
        self.dists.iter().map(|d| d[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_filters_storage() {
        let mut h = History::new(3);
        for t in 0..10 {
            h.record(t, &[1.0 - t as f64 * 0.05, t as f64 * 0.05]);
        }
        assert_eq!(h.times(), &[0, 3, 6, 9]);
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
    }

    #[test]
    fn series_extraction() {
        let mut h = History::new(1);
        h.record(0, &[0.2, 0.8]);
        h.record(1, &[0.3, 0.7]);
        assert_eq!(h.series(0), vec![0.2, 0.3]);
        assert_eq!(h.series(1), vec![0.8, 0.7]);
        assert_eq!(h.snapshots().len(), 2);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        History::new(0);
    }
}
