//! Record-and-replay reward streams.
//!
//! The coupling experiments (Lemma 4.5) require feeding *identical*
//! reward realizations to several processes whose own sampling noise
//! differs. [`TraceRewards`] replays a captured (or hand-written)
//! stream.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
