//! The infinite-population distributed learning dynamics (Section 4.2)
//! — equivalently, the stochastic multiplicative-weights process the
//! paper couples the finite dynamics against.

use crate::dynamics::GroupDynamics;
use crate::params::Params;
use rand::rngs::SmallRng;

/// The deterministic-in-sampling, stochastic-in-rewards process of
/// Equation (1):
///
/// ```text
/// W^{t+1}_j = ((1-µ) W^t_j + (µ/m) Σ_k W^t_k) · β^{R_j} (1-β)^{1-R_j}
/// ```
///
/// maintained directly on the normalized distribution
/// `P^t_j = W^t_j / Σ_k W^t_k` (the raw weights shrink geometrically
/// and underflow within a few hundred steps; the normalized form is
/// exact and stable). The log-potential `ln Φ^t = ln Σ_j W^t_j` is
/// tracked separately for the potential-function analyses.
///
/// # Example
///
/// ```
/// use sociolearn_core::{GroupDynamics, InfiniteDynamics, Params};
/// use rand::SeedableRng;
///
/// let params = Params::new(2, 0.6)?;
/// let mut dyn_ = InfiniteDynamics::new(params);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// dyn_.step(&[true, false], &mut rng);
/// let p = dyn_.distribution();
/// assert!(p[0] > p[1]); // the rewarded option gains mass
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InfiniteDynamics {
    params: Params,
    probs: Vec<f64>,
    log_potential: f64,
    steps: u64,
}

impl InfiniteDynamics {
    /// Starts from the uniform distribution `P^0_j = 1/m` with
    /// `W^0_j = 1` (so `Φ^0 = m`).
    pub fn new(params: Params) -> Self {
        let m = params.num_options();
        InfiniteDynamics {
            params,
            probs: vec![1.0 / m as f64; m],
            log_potential: (m as f64).ln(),
            steps: 0,
        }
    }

    /// Starts from an explicit distribution (for the nonuniform-start
    /// Theorem 4.6 and the epoch-restart machinery).
    ///
    /// The vector is normalized; the potential starts at `ln m` by the
    /// convention `W^0_j = m·P^0_j`.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `m`, has negative or
    /// non-finite entries, or sums to zero.
    pub fn from_distribution(params: Params, probs: Vec<f64>) -> Self {
        assert_eq!(
            probs.len(),
            params.num_options(),
            "distribution length must equal the number of options"
        );
        let total: f64 = probs.iter().sum();
        assert!(
            total > 0.0 && probs.iter().all(|&p| p >= 0.0 && p.is_finite()),
            "distribution must be non-negative with positive mass"
        );
        let m = params.num_options();
        let probs = probs.iter().map(|&p| p / total).collect();
        InfiniteDynamics {
            params,
            probs,
            log_potential: (m as f64).ln(),
            steps: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Natural log of the potential `Φ^t = Σ_j W^t_j`.
    pub fn log_potential(&self) -> f64 {
        self.log_potential
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances one step given the reward bits (no randomness is
    /// consumed — the infinite-population sampling stage is its own
    /// expectation; all stochasticity lives in `rewards`).
    pub fn step_rewards(&mut self, rewards: &[bool]) {
        let m = self.params.num_options();
        assert_eq!(
            rewards.len(),
            m,
            "rewards length must equal the number of options"
        );
        let mu = self.params.mu();
        let mut z = 0.0;
        for (j, p) in self.probs.iter_mut().enumerate() {
            let mixed = (1.0 - mu) * *p + mu / m as f64;
            let factor = self.params.adopt_probability(rewards[j]);
            *p = mixed * factor;
            z += *p;
        }
        // z = Φ^{t+1}/Φ^t by construction.
        debug_assert!(z > 0.0, "potential ratio must stay positive");
        for p in self.probs.iter_mut() {
            *p /= z;
        }
        self.log_potential += z.ln();
        self.steps += 1;
    }
}

impl GroupDynamics for InfiniteDynamics {
    fn num_options(&self) -> usize {
        self.params.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.probs.len(),
            "buffer length must equal the number of options"
        );
        out.copy_from_slice(&self.probs);
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        self.step_rewards(rewards);
    }

    fn label(&self) -> &str {
        "social (infinite)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::assert_distribution;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::new(3, 0.6).unwrap()
    }

    #[test]
    fn starts_uniform() {
        let d = InfiniteDynamics::new(params());
        assert_eq!(d.distribution(), vec![1.0 / 3.0; 3]);
        assert!((d.log_potential() - 3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn rewarded_option_grows() {
        let mut d = InfiniteDynamics::new(params());
        d.step_rewards(&[true, false, false]);
        let p = d.distribution();
        assert!(p[0] > p[1]);
        assert_eq!(p[1], p[2]);
        assert_distribution(&p, 1e-12);
    }

    #[test]
    fn repeated_reward_concentrates() {
        let mut d = InfiniteDynamics::new(params());
        for _ in 0..200 {
            d.step_rewards(&[true, false, false]);
        }
        let p = d.distribution();
        // mu-mixing prevents full concentration but option 0 dominates.
        assert!(p[0] > 0.9, "p0 = {}", p[0]);
        assert!(p[1] > 0.0, "mu must keep the floor positive");
    }

    #[test]
    fn floor_respects_mu_over_m() {
        let p = Params::with_all(4, 0.7, 0.3, 0.2).unwrap();
        let mut d = InfiniteDynamics::new(p);
        for _ in 0..500 {
            d.step_rewards(&[true, false, false, false]);
        }
        let dist = d.distribution();
        // Proof of Thm 4.4: every option keeps at least mu(1-beta)/(4m)
        // in the long run (in the infinite dynamics this is exact up to
        // the normalization: mixed mass >= mu/m, then thinned by >= alpha
        // relative to a numerator bounded by beta).
        let floor = p.popularity_floor();
        for (j, &q) in dist.iter().enumerate() {
            assert!(q >= floor, "option {j} below floor: {q} < {floor}");
        }
    }

    #[test]
    fn log_potential_decreases_with_bad_rewards() {
        let mut d = InfiniteDynamics::new(params());
        let lp0 = d.log_potential();
        d.step_rewards(&[false, false, false]);
        // All-bad rewards multiply every weight by alpha < 1.
        assert!(d.log_potential() < lp0);
    }

    #[test]
    fn potential_tracks_product_of_ratios() {
        // Recompute the potential by brute force with raw weights for a
        // short horizon and compare.
        let p = params();
        let mut d = InfiniteDynamics::new(p);
        let mut w = [1.0f64; 3];
        let mut rng = SmallRng::seed_from_u64(1);
        let mut env = crate::BernoulliRewards::new(vec![0.8, 0.5, 0.2]).unwrap();
        let mut rewards = vec![false; 3];
        for t in 0..50 {
            crate::RewardModel::sample(&mut env, t, &mut rng, &mut rewards);
            // Raw update.
            let total: f64 = w.iter().sum();
            for (j, wj) in w.iter_mut().enumerate() {
                let mixed = (1.0 - p.mu()) * *wj + p.mu() / 3.0 * total;
                *wj = mixed * p.adopt_probability(rewards[j]);
            }
            d.step_rewards(&rewards);
        }
        let phi: f64 = w.iter().sum();
        assert!(
            (d.log_potential() - phi.ln()).abs() < 1e-9,
            "log potential drifted: {} vs {}",
            d.log_potential(),
            phi.ln()
        );
    }

    #[test]
    fn from_distribution_normalizes() {
        let d = InfiniteDynamics::from_distribution(params(), vec![2.0, 1.0, 1.0]);
        assert_eq!(d.distribution(), vec![0.5, 0.25, 0.25]);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn from_distribution_rejects_zero_mass() {
        InfiniteDynamics::from_distribution(params(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn no_randomness_consumed() {
        let mut d1 = InfiniteDynamics::new(params());
        let mut d2 = InfiniteDynamics::new(params());
        let mut rng = SmallRng::seed_from_u64(0);
        use crate::GroupDynamics as _;
        d1.step(&[true, false, true], &mut rng);
        d2.step_rewards(&[true, false, true]);
        assert_eq!(d1.distribution(), d2.distribution());
    }

    #[test]
    fn long_run_numerically_stable() {
        let mut d = InfiniteDynamics::new(params());
        let mut rng = SmallRng::seed_from_u64(2);
        let mut env = crate::BernoulliRewards::new(vec![0.7, 0.5, 0.3]).unwrap();
        let mut rewards = vec![false; 3];
        for t in 0..100_000 {
            crate::RewardModel::sample(&mut env, t, &mut rng, &mut rewards);
            d.step_rewards(&rewards);
        }
        assert_distribution(&d.distribution(), 1e-9);
        assert!(d.log_potential().is_finite());
    }
}
