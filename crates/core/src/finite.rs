//! The finite-population distributed learning dynamics (the paper's
//! primary object of study), in its exact collective-statistic form.

use crate::dynamics::{write_shares, GroupDynamics};
use crate::params::Params;
use crate::sampling::{sample_binomial, sample_multinomial};
use crate::scratch::{mix_popularity, write_adopt_probs, StepScratch};
use rand::rngs::SmallRng;
use rand::RngCore;

/// Per-step record of the two stages: how many individuals *sampled*
/// each option (the paper's `S_j^{t+1}`) and how many then *committed*
/// (`D_j^{t+1}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Stage-1 sampling counts `S_j`.
    pub sampled: Vec<u64>,
    /// Stage-2 committed counts `D_j`.
    pub committed: Vec<u64>,
}

impl StepRecord {
    /// Total number of individuals that committed this step.
    pub fn total_committed(&self) -> u64 {
        self.committed.iter().sum()
    }
}

/// The finite-population dynamics over `N` individuals (Section 2.1),
/// simulated through its collective sufficient statistic.
///
/// Because all individuals share the same adoption function `f` and
/// stage-1 choices depend only on the popularity vector `Q^t`, the
/// per-option counts are a sufficient statistic of the whole
/// population: stage 1 is one multinomial draw
/// `S ~ Multinomial(N, (1-µ)Q^t + µ/m)` and stage 2 is an independent
/// binomial thinning `D_j ~ Binomial(S_j, β^{R_j}(1-β)^{1-R_j})`.
/// This is *exactly* the law of the per-agent process (see
/// [`AgentPopulation`](crate::AgentPopulation), and the equivalence
/// tests in `tests/`), at O(m) cost per step instead of O(N).
///
/// # Example
///
/// ```
/// use sociolearn_core::{FinitePopulation, GroupDynamics, Params};
/// use rand::SeedableRng;
///
/// let params = Params::new(3, 0.6)?;
/// let mut pop = FinitePopulation::new(params, 1_000);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// pop.step(&[true, false, false], &mut rng);
/// let q = pop.distribution();
/// assert_eq!(q.len(), 3);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FinitePopulation {
    params: Params,
    n: usize,
    /// Committed counts `D_j` after the latest step.
    counts: Vec<u64>,
    /// Per-step SoA scratch (`probs` / `sampled` / `adopt`), reused
    /// across steps so the hot loop is allocation-free.
    scratch: StepScratch,
    steps: u64,
}

impl FinitePopulation {
    /// Creates a population of `n` individuals starting from the
    /// uniform popularity `Q^0_j = 1/m` (the paper's initialization):
    /// committed counts are split as evenly as integers allow, with
    /// the first `n mod m` options receiving one extra individual.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(params: Params, n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        let m = params.num_options();
        let base = (n / m) as u64;
        let extra = n % m;
        let counts: Vec<u64> = (0..m).map(|j| base + (j < extra) as u64).collect();
        FinitePopulation::from_counts(params, n, counts)
    }

    /// Creates a population with explicit initial committed counts
    /// (used by the nonuniform-start experiments for Theorem 4.6).
    ///
    /// The counts may sum to less than `n` (the remainder starts
    /// sat-out), but not more.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, the count vector length differs from `m`,
    /// or the counts exceed `n`.
    pub fn from_counts(params: Params, n: usize, counts: Vec<u64>) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert_eq!(
            counts.len(),
            params.num_options(),
            "counts length must equal the number of options"
        );
        let total: u64 = counts.iter().sum();
        assert!(
            total <= n as u64,
            "committed counts ({total}) exceed population size ({n})"
        );
        let m = params.num_options();
        FinitePopulation {
            params,
            n,
            counts,
            scratch: StepScratch::new(m),
            steps: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Committed counts `D_j` after the latest step.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances one step and returns the per-stage counts.
    ///
    /// This is [`GroupDynamics::step`] with the intermediate sampling
    /// counts exposed (needed by the concentration experiments for
    /// Propositions 4.1–4.2).
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len() != m`.
    pub fn step_detailed<R: RngCore + ?Sized>(
        &mut self,
        rewards: &[bool],
        rng: &mut R,
    ) -> StepRecord {
        let m = self.params.num_options();
        assert_eq!(
            rewards.len(),
            m,
            "rewards length must equal the number of options"
        );

        let StepScratch {
            probs,
            sampled,
            adopt,
        } = &mut self.scratch;

        // Stage 1: everyone picks an option to consider.
        write_mix(&self.counts, self.params.mu(), probs);
        sample_multinomial(rng, self.n as u64, probs, sampled);

        // Stage 2: adopt with probability f(R_j), else sit out. The
        // adoption probabilities are materialized once per step so the
        // thinning loop is a straight zip over the SoA buffers.
        let p_false = self.params.adopt_probability(false);
        let p_true = self.params.adopt_probability(true);
        write_adopt_probs(rewards, p_false, p_true, adopt);
        for ((count, &s), &p) in self.counts.iter_mut().zip(&*sampled).zip(&*adopt) {
            *count = sample_binomial(rng, s, p);
        }
        self.steps += 1;
        StepRecord {
            sampled: sampled.clone(),
            committed: self.counts.clone(),
        }
    }
}

/// Writes the stage-1 mix `(1-µ)·counts_j/total + µ/m` into `out`,
/// falling back to uniform when nobody is committed. Both divisions
/// are hoisted so the per-option work is one fused multiply-add.
fn write_mix(counts: &[u64], mu: f64, out: &mut [f64]) {
    let m = out.len();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        out.fill(1.0 / m as f64);
        return;
    }
    mix_popularity(counts, out, (1.0 - mu) / total as f64, mu / m as f64);
}

impl GroupDynamics for FinitePopulation {
    fn num_options(&self) -> usize {
        self.params.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        write_shares(&self.counts, out);
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        self.step_detailed(rewards, rng);
    }

    fn label(&self) -> &str {
        "social (finite N)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::assert_distribution;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn params() -> Params {
        Params::new(4, 0.6).unwrap()
    }

    #[test]
    fn uniform_initialization_with_remainder() {
        let pop = FinitePopulation::new(params(), 10);
        assert_eq!(pop.counts(), &[3, 3, 2, 2]);
        let q = pop.distribution();
        assert_distribution(&q, 1e-12);
    }

    #[test]
    fn distribution_sums_to_one_over_time() {
        let mut pop = FinitePopulation::new(params(), 500);
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..200 {
            let rewards: Vec<bool> = (0..4).map(|j| (t + j) % 3 == 0).collect();
            pop.step(&rewards, &mut rng);
            assert_distribution(&pop.distribution(), 1e-12);
        }
        assert_eq!(pop.steps(), 200);
    }

    #[test]
    fn counts_never_exceed_population() {
        let mut pop = FinitePopulation::new(params(), 100);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..300 {
            let rec = pop.step_detailed(&[true, false, true, false], &mut rng);
            assert_eq!(rec.sampled.iter().sum::<u64>(), 100);
            assert!(rec.total_committed() <= 100);
            for (s, d) in rec.sampled.iter().zip(&rec.committed) {
                assert!(d <= s, "committed exceeds sampled");
            }
        }
    }

    #[test]
    fn sit_out_fraction_reasonable() {
        // With beta = 0.6, alpha = 0.4 and mixed rewards, roughly half
        // the population commits each step.
        let mut pop = FinitePopulation::new(params(), 10_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let rec = pop.step_detailed(&[true, false, true, false], &mut rng);
        let frac = 1.0 - rec.total_committed() as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.05, "sit-out fraction {frac}");
    }

    #[test]
    fn good_option_gains_popularity() {
        let p = Params::new(2, 0.7).unwrap();
        let mut pop = FinitePopulation::new(p, 5_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut env = crate::BernoulliRewards::new(vec![0.95, 0.05]).unwrap();
        let mut rewards = vec![false; 2];
        for t in 0..300 {
            crate::RewardModel::sample(&mut env, t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
        }
        let q = pop.distribution();
        assert!(q[0] > 0.8, "best option share only {}", q[0]);
    }

    #[test]
    fn mu_keeps_floor_positive() {
        // Even when option 1 always fails, exploration keeps its
        // sampling probability at least mu/m.
        let p = Params::with_all(2, 0.7, 0.3, 0.2).unwrap();
        let mut pop = FinitePopulation::new(p, 50_000);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            pop.step(&[true, false], &mut rng);
        }
        let mut s = vec![0.0; 2];
        write_mix(pop.counts(), p.mu(), &mut s);
        assert!(
            s[1] >= 0.2 / 2.0 - 1e-12,
            "sampling floor violated: {}",
            s[1]
        );
        // And the committed share stays near the theoretical floor
        // mu * alpha-ish, clearly positive.
        assert!(pop.distribution()[1] > 0.0);
    }

    #[test]
    fn all_sit_out_recovers_uniform() {
        // Force the absorbing-looking state by zeroing the counts.
        let p = params();
        let mut pop = FinitePopulation::from_counts(p, 100, vec![0, 0, 0, 0]);
        let q = pop.distribution();
        assert_eq!(q, vec![0.25; 4]);
        let mut rng = SmallRng::seed_from_u64(6);
        let rec = pop.step_detailed(&[true, true, true, true], &mut rng);
        assert_eq!(rec.sampled.iter().sum::<u64>(), 100);
        assert!(rec.total_committed() > 0);
    }

    #[test]
    fn from_counts_partial_commitment() {
        let pop = FinitePopulation::from_counts(params(), 100, vec![10, 0, 0, 0]);
        assert_eq!(pop.distribution(), vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "exceed population size")]
    fn from_counts_rejects_overflow() {
        FinitePopulation::from_counts(params(), 10, vec![20, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "rewards length")]
    fn wrong_rewards_length_panics() {
        let mut pop = FinitePopulation::new(params(), 10);
        let mut rng = SmallRng::seed_from_u64(7);
        pop.step(&[true], &mut rng);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut pop = FinitePopulation::new(params(), 1000);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..50 {
                pop.step(&[true, false, false, true], &mut rng);
            }
            pop.distribution()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn label_is_descriptive() {
        let pop = FinitePopulation::new(params(), 10);
        assert!(pop.label().contains("finite"));
    }
}
