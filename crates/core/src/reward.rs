//! Reward processes: the stochastic quality signals `R_j^t`.

use crate::error::ParamsError;
use rand::rngs::SmallRng;
use rand::Rng;

/// A source of per-option quality signals.
///
/// At each time step `t` the environment draws one boolean signal per
/// option — `true` means "the option was good this step". The base
/// model uses independent Bernoulli signals ([`BernoulliRewards`]);
/// the `sociolearn-env` crate provides correlated, drifting,
/// thresholded-continuous and recorded variants.
///
/// Implementations are object safe so heterogeneous environments can
/// be swapped at runtime. `sample` takes the workspace's one
/// generator, [`SmallRng`], by its concrete type rather than as a
/// generator trait object, so every draw inlines into the sampler, and
/// the trait stays object safe.
pub trait RewardModel {
    /// Number of options `m`.
    fn num_options(&self) -> usize;

    /// Draws the signal vector for step `t` into `out`.
    ///
    /// `t` is 1-based (the first signals the dynamics observes are
    /// `R^1`), matching the paper's indexing. Implementations may be
    /// stateful (drift, traces) but must fill all `m` slots.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `out.len() != self.num_options()`.
    fn sample(&mut self, t: u64, rng: &mut SmallRng, out: &mut [bool]);

    /// Current expected quality per option (`eta_j` at time `t`), if
    /// the environment knows it. Used for Rao–Blackwellized regret
    /// estimates; return `None` for trace/adversarial environments.
    fn qualities(&self) -> Option<&[f64]> {
        None
    }

    /// The quality of the best option, if qualities are known.
    fn best_quality(&self) -> Option<f64> {
        self.qualities()
            .map(|q| q.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Index of the best option, if qualities are known. Ties resolve
    /// to the lowest index.
    fn best_index(&self) -> Option<usize> {
        let q = self.qualities()?;
        let mut best = 0;
        for (i, &v) in q.iter().enumerate() {
            if v > q[best] {
                best = i;
            }
        }
        Some(best)
    }
}

/// Independent Bernoulli qualities — the paper's base environment:
/// option `j` is good at each step with fixed probability `eta_j`.
///
/// # Example
///
/// ```
/// use sociolearn_core::{BernoulliRewards, RewardModel};
/// use rand::SeedableRng;
///
/// let mut env = BernoulliRewards::new(vec![0.9, 0.5, 0.1])?;
/// assert_eq!(env.best_index(), Some(0));
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let mut out = vec![false; 3];
/// env.sample(1, &mut rng, &mut out);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BernoulliRewards {
    etas: Vec<f64>,
}

impl BernoulliRewards {
    /// Creates the environment from a vector of qualities.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::BadQuality`] if the vector is empty or
    /// any entry is outside `[0, 1]`.
    pub fn new(etas: Vec<f64>) -> Result<Self, ParamsError> {
        if etas.is_empty() {
            return Err(ParamsError::BadQuality {
                index: 0,
                value: f64::NAN,
            });
        }
        for (index, &value) in etas.iter().enumerate() {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ParamsError::BadQuality { index, value });
            }
        }
        Ok(BernoulliRewards { etas })
    }

    /// The "one good option" environment validated against investor
    /// data in the paper's first example (Section 2.1):
    /// `eta_1 = eta_good > 1/2 = eta_2 = ... = eta_m`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or `eta_good` is invalid.
    pub fn one_good(m: usize, eta_good: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        let mut etas = vec![0.5; m];
        etas[0] = eta_good;
        BernoulliRewards::new(etas)
    }

    /// Qualities linearly interpolated from `top` (option 0) down to
    /// `bottom` (option m−1).
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if `m == 0` or either endpoint is
    /// invalid.
    pub fn linear(m: usize, top: f64, bottom: f64) -> Result<Self, ParamsError> {
        if m == 0 {
            return Err(ParamsError::NoOptions);
        }
        if m == 1 {
            return BernoulliRewards::new(vec![top]);
        }
        let etas = (0..m)
            .map(|j| top + (bottom - top) * j as f64 / (m - 1) as f64)
            .collect();
        BernoulliRewards::new(etas)
    }

    /// Read-only view of the quality vector.
    pub fn etas(&self) -> &[f64] {
        &self.etas
    }

    /// The quality gap `eta_(1) - eta_(2)` between the two best
    /// options (0 for a single option).
    pub fn gap(&self) -> f64 {
        if self.etas.len() < 2 {
            return 0.0;
        }
        let mut best = f64::NEG_INFINITY;
        let mut second = f64::NEG_INFINITY;
        for &v in &self.etas {
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        best - second
    }
}

impl RewardModel for BernoulliRewards {
    fn num_options(&self) -> usize {
        self.etas.len()
    }

    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(out.len(), self.etas.len(), "reward buffer has wrong length");
        for (slot, &eta) in out.iter_mut().zip(&self.etas) {
            *slot = rng.gen_bool(eta);
        }
    }

    fn qualities(&self) -> Option<&[f64]> {
        Some(&self.etas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates() {
        assert!(BernoulliRewards::new(vec![]).is_err());
        assert!(BernoulliRewards::new(vec![0.5, 1.2]).is_err());
        assert!(BernoulliRewards::new(vec![0.5, -0.1]).is_err());
        assert!(BernoulliRewards::new(vec![0.0, 1.0]).is_ok());
    }

    #[test]
    fn one_good_shape() {
        let env = BernoulliRewards::one_good(4, 0.8).unwrap();
        assert_eq!(env.etas(), &[0.8, 0.5, 0.5, 0.5]);
        assert_eq!(env.best_index(), Some(0));
        assert!((env.gap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn linear_shape() {
        let env = BernoulliRewards::linear(3, 0.9, 0.3).unwrap();
        for (got, want) in env.etas().iter().zip(&[0.9, 0.6, 0.3]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        assert_eq!(env.best_quality(), Some(0.9));
    }

    #[test]
    fn linear_single_option() {
        let env = BernoulliRewards::linear(1, 0.7, 0.1).unwrap();
        assert_eq!(env.etas(), &[0.7]);
        assert_eq!(env.gap(), 0.0);
    }

    #[test]
    fn deterministic_extremes() {
        let mut env = BernoulliRewards::new(vec![1.0, 0.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = vec![false; 2];
        for t in 0..50 {
            env.sample(t, &mut rng, &mut out);
            assert!(out[0]);
            assert!(!out[1]);
        }
    }

    #[test]
    fn empirical_frequency_matches_eta() {
        let mut env = BernoulliRewards::new(vec![0.3]).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut out = vec![false; 1];
        let mut hits = 0u32;
        let trials = 20_000;
        for t in 0..trials {
            env.sample(t, &mut rng, &mut out);
            hits += out[0] as u32;
        }
        let freq = hits as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }

    #[test]
    fn best_index_breaks_ties_low() {
        let env = BernoulliRewards::new(vec![0.5, 0.7, 0.7]).unwrap();
        assert_eq!(env.best_index(), Some(1));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn wrong_buffer_length_panics() {
        let mut env = BernoulliRewards::new(vec![0.5, 0.5]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut out = vec![false; 3];
        env.sample(0, &mut rng, &mut out);
    }

    #[test]
    fn trait_object_usable() {
        let mut env: Box<dyn RewardModel> = Box::new(BernoulliRewards::one_good(3, 0.9).unwrap());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut out = vec![false; 3];
        env.sample(1, &mut rng, &mut out);
        assert_eq!(env.num_options(), 3);
        assert_eq!(env.best_quality(), Some(0.9));
    }
}
