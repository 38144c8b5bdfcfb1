//! The coupling between the finite- and infinite-population dynamics
//! (Lemma 4.5): both processes are driven by the *same* realized
//! reward sequence, and we track how far the finite distribution
//! `Q^t` drifts from the infinite one `P^t` in multiplicative terms.

use crate::finite::FinitePopulation;
use crate::infinite::InfiniteDynamics;
use crate::params::Params;
use crate::{GroupDynamics, RewardModel};
use rand::rngs::SmallRng;
use rand::RngCore;

/// Multiplicative deviation between two distributions:
/// `max_j max(P_j/Q_j, Q_j/P_j) − 1`, the quantity Lemma 4.5 bounds by
/// `δ_t = 5^t δ''`.
///
/// Entries where exactly one side is zero yield `+inf`; entries where
/// both are zero are skipped (the ratio is vacuous there).
///
/// ```
/// let d = sociolearn_core::ratio_deviation(&[0.5, 0.5], &[0.4, 0.6]);
/// assert!((d - 0.25).abs() < 1e-12); // 0.5/0.4 = 1.25
/// ```
pub fn ratio_deviation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    let mut worst: f64 = 0.0;
    for (&a, &b) in p.iter().zip(q) {
        if a == 0.0 && b == 0.0 {
            continue;
        }
        if a == 0.0 || b == 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max((a / b).max(b / a) - 1.0);
    }
    worst
}

/// Total-variation distance `½ Σ_j |p_j − q_j|`.
///
/// ```
/// let d = sociolearn_core::tv_distance(&[1.0, 0.0], &[0.0, 1.0]);
/// assert_eq!(d, 1.0);
/// ```
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "length mismatch");
    0.5 * p.iter().zip(q).map(|(&a, &b)| (a - b).abs()).sum::<f64>()
}

/// A coupled run of the finite and infinite dynamics under shared
/// rewards, recording the per-step deviation trajectory.
///
/// # Example
///
/// ```
/// use sociolearn_core::{BernoulliRewards, CoupledRun, Params};
/// use rand::SeedableRng;
///
/// let params = Params::new(2, 0.6)?;
/// let env = BernoulliRewards::new(vec![0.8, 0.4]).unwrap();
/// let mut run = CoupledRun::new(params, 10_000);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let trace = run.run(env, 5, &mut rng);
/// assert_eq!(trace.deviations.len(), 5);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoupledRun {
    finite: FinitePopulation,
    infinite: InfiniteDynamics,
}

/// Per-step deviation measurements from a [`CoupledRun`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CouplingTrace {
    /// `ratio_deviation(P^t, Q^t)` after each step `t = 1..=T`.
    pub deviations: Vec<f64>,
    /// `tv_distance(P^t, Q^t)` after each step.
    pub tv: Vec<f64>,
}

impl CoupledRun {
    /// Couples a fresh finite population of size `n` with the infinite
    /// dynamics, both at the uniform start.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(params: Params, n: usize) -> Self {
        CoupledRun {
            finite: FinitePopulation::new(params, n),
            infinite: InfiniteDynamics::new(params),
        }
    }

    /// Read access to the finite side.
    pub fn finite(&self) -> &FinitePopulation {
        &self.finite
    }

    /// Read access to the infinite side.
    pub fn infinite(&self) -> &InfiniteDynamics {
        &self.infinite
    }

    /// Advances both processes one step under the same realized
    /// rewards and returns the post-step deviation.
    pub fn step<R: RngCore + ?Sized>(&mut self, rewards: &[bool], rng: &mut R) -> f64 {
        self.finite.step_detailed(rewards, rng);
        self.infinite.step_rewards(rewards);
        ratio_deviation(&self.infinite.distribution(), &self.finite.distribution())
    }

    /// Runs `steps` coupled steps against a reward model, returning the
    /// deviation trace.
    pub fn run<M: RewardModel>(
        &mut self,
        mut env: M,
        steps: u64,
        rng: &mut SmallRng,
    ) -> CouplingTrace {
        let m = self.finite.num_options();
        assert_eq!(
            env.num_options(),
            m,
            "environment has wrong number of options"
        );
        let mut rewards = vec![false; m];
        let mut trace = CouplingTrace::default();
        for t in 1..=steps {
            env.sample(t, rng, &mut rewards);
            let dev = self.step(&rewards, rng);
            trace.deviations.push(dev);
            trace.tv.push(tv_distance(
                &self.infinite.distribution(),
                &self.finite.distribution(),
            ));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::BernoulliRewards;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::new(3, 0.6).unwrap()
    }

    #[test]
    fn deviation_identities() {
        assert_eq!(ratio_deviation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!(ratio_deviation(&[1.0, 0.0], &[0.5, 0.5]).is_infinite());
        assert_eq!(ratio_deviation(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
        // Symmetric in its arguments.
        let a = [0.3, 0.7];
        let b = [0.4, 0.6];
        assert_eq!(ratio_deviation(&a, &b), ratio_deviation(&b, &a));
    }

    #[test]
    fn tv_identities() {
        assert_eq!(tv_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((tv_distance(&[0.6, 0.4], &[0.4, 0.6]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn large_population_stays_close_short_horizon() {
        // Lemma 4.5: with N = 10^5 the first few steps keep P/Q within
        // a few percent.
        let mut run = CoupledRun::new(params(), 100_000);
        let env = BernoulliRewards::linear(3, 0.9, 0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let trace = run.run(env, 3, &mut rng);
        let max = trace.deviations.iter().copied().fold(0.0, f64::max);
        assert!(max < 0.2, "deviation too large for N=1e5: {max}");
    }

    #[test]
    fn small_population_drifts_more() {
        let env = BernoulliRewards::linear(3, 0.9, 0.3).unwrap();
        let horizon = 10;
        let reps = 30;
        let mut small_total = 0.0;
        let mut large_total = 0.0;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut small = CoupledRun::new(params(), 100);
            let tr = small.run(env.clone(), horizon, &mut rng);
            small_total += tr
                .deviations
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .sum::<f64>();

            let mut rng = SmallRng::seed_from_u64(seed);
            let mut large = CoupledRun::new(params(), 100_000);
            let tr = large.run(env.clone(), horizon, &mut rng);
            large_total += tr
                .deviations
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .sum::<f64>();
        }
        assert!(
            small_total > large_total,
            "deviation should shrink with N: small {small_total} vs large {large_total}"
        );
    }
}
