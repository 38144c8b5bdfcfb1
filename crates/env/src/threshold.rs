//! Continuous rewards binarized by a threshold — the standard
//! conversion the paper cites in Section 3 ("models that have
//! continuous rewards but whose adoption rule depends on whether the
//! reward is above or below a threshold ... can be converted to a
//! binary reward structure in a standard way").

use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};
use sociolearn_core::{ParamsError, RewardModel};

/// A continuous reward distribution with samplable draws and a
/// closed-form CDF (so the induced Bernoulli quality is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContinuousDist {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (must be positive).
        sd: f64,
    },
    /// Exponential with the given rate (support `[0, ∞)`).
    Exponential {
        /// Rate parameter λ (must be positive).
        rate: f64,
    },
}

impl ContinuousDist {
    fn validate(&self) -> Result<(), ParamsError> {
        let ok = match self {
            ContinuousDist::Uniform { lo, hi } => lo.is_finite() && hi.is_finite() && lo < hi,
            ContinuousDist::Normal { mean, sd } => mean.is_finite() && *sd > 0.0 && sd.is_finite(),
            ContinuousDist::Exponential { rate } => *rate > 0.0 && rate.is_finite(),
        };
        if ok {
            Ok(())
        } else {
            Err(ParamsError::BadQuality {
                index: 0,
                value: f64::NAN,
            })
        }
    }

    /// One draw from the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ContinuousDist::Uniform { lo, hi } => rng.gen_range(lo..hi),
            ContinuousDist::Normal { mean, sd } => mean + sd * StandardNormal.sample(rng),
            ContinuousDist::Exponential { rate } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / rate
            }
        }
    }

    /// The CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match *self {
            ContinuousDist::Uniform { lo, hi } => ((x - lo) / (hi - lo)).clamp(0.0, 1.0),
            ContinuousDist::Normal { mean, sd } => {
                let z = (x - mean) / (sd * std::f64::consts::SQRT_2);
                0.5 * (1.0 + erf(z))
            }
            ContinuousDist::Exponential { rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-rate * x).exp()
                }
            }
        }
    }
}

fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Continuous per-option rewards, binarized at threshold `tau`:
/// `R_j = 1{ r_j > tau }` with `r_j ~ dist_j` independently.
///
/// The induced qualities `η_j = 1 − F_j(tau)` are exact, so the
/// paper's theory applies verbatim to the binarized process.
///
/// # Example
///
/// ```
/// use sociolearn_env::{ContinuousDist, ThresholdRewards};
/// use sociolearn_core::RewardModel;
///
/// let env = ThresholdRewards::new(
///     vec![
///         ContinuousDist::Normal { mean: 1.0, sd: 1.0 },
///         ContinuousDist::Normal { mean: 0.0, sd: 1.0 },
///     ],
///     0.5,
/// )?;
/// let etas = env.qualities().unwrap();
/// assert!(etas[0] > etas[1]);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRewards {
    dists: Vec<ContinuousDist>,
    tau: f64,
    /// Each option's probability of clearing `tau`: its quality.
    etas: Vec<f64>,
}

impl ThresholdRewards {
    /// Creates the environment.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError`] if the list is empty, any distribution
    /// is malformed, or `tau` is not finite.
    pub fn new(dists: Vec<ContinuousDist>, tau: f64) -> Result<Self, ParamsError> {
        if dists.is_empty() {
            return Err(ParamsError::NoOptions);
        }
        if !tau.is_finite() {
            return Err(ParamsError::BadQuality {
                index: 0,
                value: tau,
            });
        }
        for d in &dists {
            d.validate()?;
        }
        let etas = dists.iter().map(|d| 1.0 - d.cdf(tau)).collect();
        Ok(ThresholdRewards { dists, tau, etas })
    }

    /// The threshold.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The underlying distributions.
    pub fn dists(&self) -> &[ContinuousDist] {
        &self.dists
    }
}

impl RewardModel for ThresholdRewards {
    fn num_options(&self) -> usize {
        self.dists.len()
    }

    fn sample(&mut self, _t: u64, rng: &mut SmallRng, out: &mut [bool]) {
        assert_eq!(
            out.len(),
            self.dists.len(),
            "reward buffer has wrong length"
        );
        for (slot, d) in out.iter_mut().zip(&self.dists) {
            *slot = d.sample(rng) > self.tau;
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
    fn uniform_cdf_and_sampling() {
        let d = ContinuousDist::Uniform { lo: 0.0, hi: 2.0 };
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(1.0), 0.5);
        assert_eq!(d.cdf(3.0), 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((0.0..2.0).contains(&x));
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        let d = ContinuousDist::Normal { mean: 3.0, sd: 2.0 };
        assert!((d.cdf(3.0) - 0.5).abs() < 1e-9);
        assert!((d.cdf(1.0) + d.cdf(5.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn exponential_cdf() {
        let d = ContinuousDist::Exponential { rate: 2.0 };
        assert_eq!(d.cdf(-1.0), 0.0);
        assert!((d.cdf(0.5) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn empirical_quality_matches_cdf() {
        let mut env =
            ThresholdRewards::new(vec![ContinuousDist::Exponential { rate: 1.0 }], 1.0).unwrap();
        let eta = env.qualities().unwrap()[0];
        // P[Exp(1) > 1] = e^-1.
        assert!((eta - (-1.0f64).exp()).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = [false; 1];
        let mut hits = 0u32;
        for t in 0..30_000 {
            env.sample(t, &mut rng, &mut out);
            hits += out[0] as u32;
        }
        let freq = hits as f64 / 30_000.0;
        assert!((freq - eta).abs() < 0.01, "freq {freq} vs eta {eta}");
    }

    #[test]
    fn validation() {
        assert!(ThresholdRewards::new(vec![], 0.0).is_err());
        assert!(
            ThresholdRewards::new(vec![ContinuousDist::Uniform { lo: 1.0, hi: 0.0 }], 0.0).is_err()
        );
        assert!(ThresholdRewards::new(
            vec![ContinuousDist::Normal {
                mean: 0.0,
                sd: -1.0
            }],
            0.0
        )
        .is_err());
        assert!(
            ThresholdRewards::new(vec![ContinuousDist::Exponential { rate: 0.0 }], 0.0).is_err()
        );
        assert!(ThresholdRewards::new(
            vec![ContinuousDist::Uniform { lo: 0.0, hi: 1.0 }],
            f64::NAN
        )
        .is_err());
    }

    #[test]
    fn ordering_preserved_by_threshold() {
        let env = ThresholdRewards::new(
            vec![
                ContinuousDist::Normal { mean: 2.0, sd: 1.0 },
                ContinuousDist::Normal { mean: 1.0, sd: 1.0 },
                ContinuousDist::Normal { mean: 0.0, sd: 1.0 },
            ],
            1.0,
        )
        .unwrap();
        let etas = env.qualities().unwrap();
        assert!(etas[0] > etas[1]);
        assert!(etas[1] > etas[2]);
        assert_eq!(env.best_index(), Some(0));
    }
}
