//! Deterministic periodic reward sequences.
//!
//! The paper's analysis is for stochastic i.i.d. signals; these
//! deterministic patterns probe how the dynamics behave outside that
//! assumption (the classic MWU analysis would cover them — the
//! stochastic dynamics inherits some of that robustness, which the
//! robustness tests quantify).

use rand::rngs::SmallRng;
use sociolearn_core::{ParamsError, RewardModel};

/// Cycles deterministically through a fixed list of reward patterns.
///
/// # Example
///
/// ```
/// use sociolearn_env::PeriodicRewards;
/// use sociolearn_core::RewardModel;
/// use rand::SeedableRng;
///
/// // Option 0 good on odd steps, option 1 on even steps.
/// let mut env = PeriodicRewards::new(vec![vec![true, false], vec![false, true]])?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let mut out = [false; 2];
/// env.sample(1, &mut rng, &mut out);
/// assert_eq!(out, [true, false]);
/// env.sample(2, &mut rng, &mut out);
/// assert_eq!(out, [false, true]);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicRewards {
    patterns: Vec<Vec<bool>>,
    /// Long-run average quality of each option over one period (the
    /// natural regret benchmark), computed once from `patterns`.
    averages: Vec<f64>,
}

/// Equality is total: the averages are shares of a non-empty cycle,
/// never NaN.
impl Eq for PeriodicRewards {}

impl PeriodicRewards {
    /// Creates the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if the pattern list is empty or widths
    /// disagree.
    pub fn new(patterns: Vec<Vec<bool>>) -> Result<Self, ParamsError> {
        if patterns.is_empty() || patterns[0].is_empty() {
            return Err(ParamsError::NoOptions);
        }
        let m = patterns[0].len();
        if patterns.iter().any(|p| p.len() != m) {
            return Err(ParamsError::NoOptions);
        }
        let mut averages = vec![0.0; m];
        for p in &patterns {
            for (a, &bit) in averages.iter_mut().zip(p) {
                *a += bit as u8 as f64;
            }
        }
        for a in averages.iter_mut() {
            *a /= patterns.len() as f64;
        }
        Ok(PeriodicRewards { patterns, averages })
    }

    /// An alternating two-option pattern with the given duty cycle:
    /// option 0 is good for `on` steps, then option 1 for `off` steps.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if either phase is empty.
    pub fn alternating(on: usize, off: usize) -> Result<Self, ParamsError> {
        if on == 0 || off == 0 {
            return Err(ParamsError::NoOptions);
        }
        let mut patterns = Vec::with_capacity(on + off);
        for _ in 0..on {
            patterns.push(vec![true, false]);
        }
        for _ in 0..off {
            patterns.push(vec![false, true]);
        }
        PeriodicRewards::new(patterns)
    }

    /// Cycle length.
    pub fn period(&self) -> usize {
        self.patterns.len()
    }
}

impl RewardModel for PeriodicRewards {
    fn num_options(&self) -> usize {
        self.patterns[0].len()
    }

    fn sample(&mut self, t: u64, _rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(
            out.len(),
            self.num_options(),
            "reward buffer has wrong length"
        );
        let idx = ((t.max(1) - 1) as usize) % self.patterns.len();
        out.copy_from_slice(&self.patterns[idx]);
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.averages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(PeriodicRewards::new(vec![]).is_err());
        assert!(PeriodicRewards::new(vec![vec![]]).is_err());
        assert!(PeriodicRewards::new(vec![vec![true], vec![true, false]]).is_err());
        assert!(PeriodicRewards::alternating(0, 1).is_err());
    }

    #[test]
    fn alternating_duty_cycle() {
        let env = PeriodicRewards::alternating(3, 1).unwrap();
        assert_eq!(env.period(), 4);
        let avg = env.qualities().unwrap();
        assert!((avg[0] - 0.75).abs() < 1e-12);
        assert!((avg[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cycle_wraps() {
        let mut env = PeriodicRewards::new(vec![
            vec![true, false],
            vec![false, false],
            vec![false, true],
        ])
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = [false; 2];
        env.sample(4, &mut rng, &mut out); // == pattern index 0
        assert_eq!(out, [true, false]);
        env.sample(6, &mut rng, &mut out); // == pattern index 2
        assert_eq!(out, [false, true]);
    }

    #[test]
    fn qualities_are_period_averages() {
        let env = PeriodicRewards::alternating(1, 1).unwrap();
        assert_eq!(env.qualities(), Some(&[0.5, 0.5][..]));
    }
}
