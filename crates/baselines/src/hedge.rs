//! Full-information multiplicative-weights baselines.

use rand::rngs::SmallRng;
use sociolearn_core::{GroupDynamics, ParamsError};

/// Classic Hedge / multiplicative weights with learning rate `eps`:
/// `w_j ← w_j · e^{ε R_j}` on the full reward vector, played as the
/// normalized weight distribution.
///
/// This is the centralized, memoryful algorithm the paper shows the
/// memoryless social dynamics implicitly implements; with
/// `ε = sqrt(ln m / T)` it attains the optimal `O(sqrt(ln m / T))`
/// average regret the conclusion section references.
///
/// # Example
///
/// ```
/// use sociolearn_baselines::Hedge;
/// use sociolearn_core::GroupDynamics;
/// use rand::SeedableRng;
///
/// let mut h = Hedge::new(2, 0.1)?;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// h.step(&[true, false], &mut rng);
/// assert!(h.distribution()[0] > 0.5);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hedge {
    log_weights: Vec<f64>,
    eps: f64,
}

impl Hedge {
    /// Creates Hedge over `m` options with learning rate `eps > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `eps` is not positive
    /// and finite.
    pub fn new(m: usize, eps: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if eps <= 0.0 || !eps.is_finite() {
            return Err(ParamsError::ProbabilityOutOfRange {
                name: "eps",
                value: eps,
            });
        }
        Ok(Hedge {
            log_weights: vec![0.0; m],
            eps,
        })
    }

    /// The horizon-tuned learning rate `sqrt(ln m / T)`.
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn tuned_eps(m: usize, t: u64) -> f64 {
        assert!(t > 0, "horizon must be positive");
        ((m.max(2) as f64).ln() / t as f64).sqrt()
    }

    /// Learning rate in use.
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

impl GroupDynamics for Hedge {
    fn num_options(&self) -> usize {
        self.log_weights.len()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.log_weights.len(), "buffer length mismatch");
        // Softmax with max-shift for stability.
        let max = self
            .log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        for (slot, &lw) in out.iter_mut().zip(&self.log_weights) {
            *slot = (lw - max).exp();
            z += *slot;
        }
        for slot in out.iter_mut() {
            *slot /= z;
        }
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        assert_eq!(
            rewards.len(),
            self.log_weights.len(),
            "rewards length mismatch"
        );
        for (lw, &r) in self.log_weights.iter_mut().zip(rewards) {
            if r {
                *lw += self.eps;
            }
        }
    }

    fn label(&self) -> &str {
        "Hedge (full info)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sociolearn_core::assert_distribution;

    #[test]
    fn hedge_validates() {
        assert!(Hedge::new(0, 0.1).is_err());
        assert!(Hedge::new(3, 0.0).is_err());
        assert!(Hedge::new(3, f64::INFINITY).is_err());
    }

    #[test]
    fn hedge_concentrates_on_better_option() {
        let mut h = Hedge::new(2, 0.2).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            h.step(&[true, false], &mut rng);
        }
        let d = h.distribution();
        assert!(d[0] > 0.99);
        assert_distribution(&d, 1e-9);
    }

    #[test]
    fn hedge_numerically_stable_long_run() {
        let mut h = Hedge::new(3, 0.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        for t in 0..1_000_000u64 {
            h.step(&[t % 2 == 0, t % 3 == 0, true], &mut rng);
        }
        assert_distribution(&h.distribution(), 1e-9);
    }

    #[test]
    fn tuned_eps_shrinks_with_horizon() {
        assert!(Hedge::tuned_eps(10, 100) > Hedge::tuned_eps(10, 10_000));
    }

    #[test]
    fn hedge_symmetric_rewards_stay_uniform() {
        let mut h = Hedge::new(4, 0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        h.step(&[true; 4], &mut rng);
        h.step(&[false; 4], &mut rng);
        assert_eq!(h.distribution(), vec![0.25; 4]);
    }

    #[test]
    fn labels_distinct() {
        let h = Hedge::new(2, 0.1).unwrap();
        let ftl = crate::FollowTheLeader::new(2).unwrap();
        assert_ne!(h.label(), ftl.label());
    }
}
