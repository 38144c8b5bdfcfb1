//! Record-and-replay reward streams.
//!
//! The coupling experiments (Lemma 4.5) require feeding *identical*
//! reward realizations to several processes whose own sampling noise
//! differs. [`RecordingRewards`] captures a stream as it is drawn;
//! [`TraceRewards`] replays a captured (or hand-written) stream.

use rand::rngs::SmallRng;
use sociolearn_core::{ParamsError, RewardModel};

/// Replays a fixed matrix of reward bits; step `t` (1-based) returns
/// row `t-1`, cycling if the trace is shorter than the run.
///
/// # Example
///
/// ```
/// use sociolearn_env::TraceRewards;
/// use sociolearn_core::RewardModel;
/// use rand::SeedableRng;
///
/// let mut env = TraceRewards::new(vec![vec![true, false], vec![false, true]])?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut out = [false; 2];
/// env.sample(1, &mut rng, &mut out);
/// assert_eq!(out, [true, false]);
/// env.sample(3, &mut rng, &mut out); // wraps around
/// assert_eq!(out, [true, false]);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRewards {
    rows: Vec<Vec<bool>>,
}

impl TraceRewards {
    /// Creates a replay source from reward rows.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if the trace is empty or rows have
    /// inconsistent widths.
    pub fn new(rows: Vec<Vec<bool>>) -> Result<Self, ParamsError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(ParamsError::NoOptions);
        }
        let m = rows[0].len();
        if rows.iter().any(|r| r.len() != m) {
            return Err(ParamsError::NoOptions);
        }
        Ok(TraceRewards { rows })
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the trace is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The raw rows.
    pub fn rows(&self) -> &[Vec<bool>] {
        &self.rows
    }
}

impl RewardModel for TraceRewards {
    fn num_options(&self) -> usize {
        self.rows[0].len()
    }

    fn sample(&mut self, t: u64, _rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(
            out.len(),
            self.num_options(),
            "reward buffer has wrong length"
        );
        let idx = ((t.max(1) - 1) as usize) % self.rows.len();
        out.copy_from_slice(&self.rows[idx]);
    }

    // Qualities intentionally unknown: traces carry no distribution.
}

/// Wraps another reward model and records every drawn row, so the same
/// realization can later be replayed through [`TraceRewards`].
#[derive(Debug, Clone)]
pub struct RecordingRewards<M> {
    inner: M,
    recorded: Vec<Vec<bool>>,
}

impl<M: RewardModel> RecordingRewards<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        RecordingRewards {
            inner,
            recorded: Vec::new(),
        }
    }

    /// The rows drawn so far.
    pub fn recorded(&self) -> &[Vec<bool>] {
        &self.recorded
    }

    /// Consumes the recorder and returns a replayable trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if nothing was recorded.
    pub fn into_trace(self) -> Result<TraceRewards, ParamsError> {
        TraceRewards::new(self.recorded)
    }

    /// Consumes the recorder, returning the wrapped model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: RewardModel> RewardModel for RecordingRewards<M> {
    fn num_options(&self) -> usize {
        self.inner.num_options()
    }

    fn sample(&mut self, t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        self.inner.sample(t, rng, out);
        self.recorded.push(out.to_vec());
    }

    fn qualities(&self) -> Option<&[f64]> {
        self.inner.qualities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sociolearn_core::BernoulliRewards;

    #[test]
    fn trace_validation() {
        assert!(TraceRewards::new(vec![]).is_err());
        assert!(TraceRewards::new(vec![vec![]]).is_err());
        assert!(TraceRewards::new(vec![vec![true], vec![true, false]]).is_err());
        let t = TraceRewards::new(vec![vec![true, false]]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.num_options(), 2);
    }

    #[test]
    fn trace_has_no_qualities() {
        let t = TraceRewards::new(vec![vec![true]]).unwrap();
        assert_eq!(t.qualities(), None);
        assert_eq!(t.best_quality(), None);
    }

    #[test]
    fn record_then_replay_identical() {
        let base = BernoulliRewards::linear(3, 0.9, 0.1).unwrap();
        let mut recorder = RecordingRewards::new(base);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = [false; 3];
        let mut original = Vec::new();
        for t in 1..=50 {
            recorder.sample(t, &mut rng, &mut out);
            original.push(out.to_vec());
        }
        assert_eq!(recorder.recorded().len(), 50);
        let mut replay = recorder.into_trace().unwrap();
        for (t, want) in original.iter().enumerate() {
            replay.sample(t as u64 + 1, &mut rng, &mut out);
            assert_eq!(&out.to_vec(), want, "mismatch at step {t}");
        }
    }

    #[test]
    fn recorder_passes_through_qualities() {
        let base = BernoulliRewards::one_good(4, 0.8).unwrap();
        let rec = RecordingRewards::new(base);
        assert_eq!(rec.qualities().unwrap()[0], 0.8);
        assert_eq!(rec.num_options(), 4);
        let inner = rec.into_inner();
        assert_eq!(inner.etas()[0], 0.8);
    }

    #[test]
    fn empty_recorder_cannot_become_trace() {
        let base = BernoulliRewards::one_good(2, 0.8).unwrap();
        let rec = RecordingRewards::new(base);
        assert!(rec.into_trace().is_err());
    }
}
