//! The stochastic multiplicative-weights update in its explicit
//! expert-weights form.
//!
//! Section 2.2 of the paper observes that the infinite-population
//! dynamics *is* a stochastic MWU over `m` experts. This module keeps
//! the raw weights `W^t_j` (with periodic rescaling to dodge
//! underflow) so the identity with [`InfiniteDynamics`] can be
//! verified bit-for-bit-to-rounding (experiment E8), and so the
//! "distributed low-memory MWU implementation" framing has a concrete
//! centralized object to compare against.
//!
//! [`InfiniteDynamics`]: crate::InfiniteDynamics

use crate::dynamics::GroupDynamics;
use crate::params::Params;
use rand::rngs::SmallRng;

/// Explicit-weights stochastic MWU (Equation (1) of the paper).
///
/// Maintains `W^t_j` directly, plus a scale exponent so the total
/// potential `Φ^t = scale · Σ_j W^t_j` never under/overflows.
///
/// # Example
///
/// ```
/// use sociolearn_core::{GroupDynamics, Params, StochasticMwu};
///
/// let params = Params::new(2, 0.6)?;
/// let mut mwu = StochasticMwu::new(params);
/// mwu.step_rewards(&[true, false]);
/// assert!(mwu.weights()[0] > mwu.weights()[1]);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMwu {
    params: Params,
    weights: Vec<f64>,
    /// `ln` of the factor taken out of the weights so far.
    log_scale: f64,
    steps: u64,
}

impl StochasticMwu {
    /// Starts from `W^0_j = 1` for all experts.
    pub fn new(params: Params) -> Self {
        let m = params.num_options();
        StochasticMwu {
            params,
            weights: vec![1.0; m],
            log_scale: 0.0,
            steps: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The current (rescaled) weights. Multiply by
    /// `exp(log_scale())` to recover the true `W^t_j`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Natural log of the factor extracted from the weights.
    pub fn log_scale(&self) -> f64 {
        self.log_scale
    }

    /// Natural log of the true potential `Φ^t = Σ_j W^t_j`.
    pub fn log_potential(&self) -> f64 {
        let s: f64 = self.weights.iter().sum();
        self.log_scale + s.ln()
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Applies Equation (1) for one step.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len() != m`.
    pub fn step_rewards(&mut self, rewards: &[bool]) {
        let m = self.params.num_options();
        assert_eq!(
            rewards.len(),
            m,
            "rewards length must equal the number of options"
        );
        let mu = self.params.mu();
        let total: f64 = self.weights.iter().sum();
        for (j, w) in self.weights.iter_mut().enumerate() {
            let mixed = (1.0 - mu) * *w + (mu / m as f64) * total;
            *w = mixed * self.params.adopt_probability(rewards[j]);
        }
        self.steps += 1;
        // Rescale before the weights vanish: every step multiplies the
        // potential by at most beta (< 1 in the theorem regime).
        let new_total: f64 = self.weights.iter().sum();
        if !(1e-100..=1e100).contains(&new_total) {
            assert!(new_total > 0.0, "weights collapsed to zero");
            for w in self.weights.iter_mut() {
                *w /= new_total;
            }
            self.log_scale += new_total.ln();
        }
    }
}

impl GroupDynamics for StochasticMwu {
    fn num_options(&self) -> usize {
        self.params.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.weights.len(),
            "buffer length must equal the number of options"
        );
        let total: f64 = self.weights.iter().sum();
        for (slot, &w) in out.iter_mut().zip(&self.weights) {
            *slot = w / total;
        }
    }

    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        self.step_rewards(rewards);
    }

    fn label(&self) -> &str {
        "stochastic MWU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infinite::InfiniteDynamics;
    use crate::reward::{BernoulliRewards, RewardModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::new(4, 0.65).unwrap()
    }

    #[test]
    fn identical_to_infinite_dynamics() {
        // The paper's Section 2.2 identity: same distribution at every
        // step under shared rewards.
        let p = params();
        let mut mwu = StochasticMwu::new(p);
        let mut inf = InfiniteDynamics::new(p);
        let mut env = BernoulliRewards::linear(4, 0.9, 0.2).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut rewards = vec![false; 4];
        for t in 0..2_000 {
            env.sample(t, &mut rng, &mut rewards);
            mwu.step_rewards(&rewards);
            inf.step_rewards(&rewards);
            let a = mwu.distribution();
            let b = inf.distribution();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "diverged at t={t}: {x} vs {y}");
            }
        }
        // Potentials also agree.
        assert!((mwu.log_potential() - inf.log_potential()).abs() < 1e-6);
    }

    #[test]
    fn weights_rescale_without_changing_distribution() {
        let p = params();
        let mut mwu = StochasticMwu::new(p);
        // All-bad rewards shrink the potential by alpha each step;
        // 10_000 steps would underflow without rescaling.
        for _ in 0..10_000 {
            mwu.step_rewards(&[false, false, false, false]);
        }
        let d = mwu.distribution();
        crate::dynamics::assert_distribution(&d, 1e-9);
        assert!(mwu.log_potential().is_finite());
        assert!(
            mwu.log_potential() < -1000.0,
            "potential should have shrunk massively"
        );
    }

    #[test]
    fn potential_upper_bound_from_theorem_proof() {
        // From the proof of Theorem 4.3:
        //   Φ^T <= (1-β)^T (1 + µ(e^δ - 1))^T m e^{δ' Σ_t Σ_j P R}
        // We check the simpler unconditional consequence
        //   ln Φ^T <= T ln((1-β)(1 + µ(e^δ-1))) + ln m + δ(1+δ) T
        let p = params();
        let mut mwu = StochasticMwu::new(p);
        let mut env = BernoulliRewards::linear(4, 0.9, 0.2).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut rewards = vec![false; 4];
        let t_max = 500u64;
        for t in 0..t_max {
            env.sample(t, &mut rng, &mut rewards);
            mwu.step_rewards(&rewards);
        }
        let d = p.delta();
        let bound = t_max as f64
            * ((1.0 - p.beta()).ln() + (1.0 + p.mu() * (d.exp() - 1.0)).ln() + d * (1.0 + d))
            + 4f64.ln();
        assert!(
            mwu.log_potential() <= bound + 1e-6,
            "potential {} exceeds proof bound {}",
            mwu.log_potential(),
            bound
        );
    }

    #[test]
    fn potential_lower_bound_from_best_option() {
        // Proof of Thm 4.3: Φ^T >= (1-β)^T (1-µ)^T e^{δ Σ_t R^t_1}.
        let p = params();
        let mut mwu = StochasticMwu::new(p);
        let mut env = BernoulliRewards::linear(4, 0.9, 0.2).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let mut rewards = vec![false; 4];
        let mut r1_sum = 0u64;
        let t_max = 500u64;
        for t in 0..t_max {
            env.sample(t, &mut rng, &mut rewards);
            r1_sum += rewards[0] as u64;
            mwu.step_rewards(&rewards);
        }
        let d = p.delta();
        let lower =
            t_max as f64 * ((1.0 - p.beta()).ln() + (1.0 - p.mu()).ln()) + d * r1_sum as f64;
        assert!(
            mwu.log_potential() >= lower - 1e-6,
            "potential {} below proof lower bound {}",
            mwu.log_potential(),
            lower
        );
    }

    #[test]
    fn uniform_rewards_preserve_uniform() {
        let mut mwu = StochasticMwu::new(params());
        mwu.step_rewards(&[true; 4]);
        assert_eq!(mwu.distribution(), vec![0.25; 4]);
        mwu.step_rewards(&[false; 4]);
        assert_eq!(mwu.distribution(), vec![0.25; 4]);
    }
}
