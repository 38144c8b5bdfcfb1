//! The finite-population dynamics in explicit per-agent form.

use crate::dynamics::{write_shares, GroupDynamics};
use crate::params::Params;
use crate::scratch::write_adopt_probs;
use rand::rngs::SmallRng;
use rand::Rng;

/// The same finite-population dynamics as
/// [`FinitePopulation`](crate::FinitePopulation), but simulated agent
/// by agent: each individual independently runs the two-stage
/// sample-then-adopt protocol of Section 2.1.
///
/// This form costs O(N) per step instead of O(m), but it is the form
/// that generalizes — the network-restricted variant
/// (`sociolearn-network`) and the message-passing runtime
/// (`sociolearn-dist`) both build on per-agent state. Integration
/// tests verify it is distributionally identical to the collective
/// form.
///
/// Stage 1 ("observe the choice of a random member of the group at the
/// last time step") samples a companion uniformly among the
/// individuals who *committed* in the previous step, which draws an
/// option exactly ∝ `Q^t_j` — matching the paper's definition of the
/// popularity-proportional branch. If nobody committed, the agent
/// falls back to a uniformly random option.
///
/// # Example
///
/// ```
/// use sociolearn_core::{AgentPopulation, GroupDynamics, Params};
/// use rand::SeedableRng;
///
/// let params = Params::new(3, 0.6)?;
/// let mut pop = AgentPopulation::new(params, 200);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// pop.step(&[true, false, false], &mut rng);
/// assert_eq!(pop.distribution().len(), 3);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgentPopulation {
    params: Params,
    n: usize,
    /// Option committed to in the latest step; `None` = sat out.
    choices: Vec<Option<u32>>,
    /// Options of the agents who committed in the latest step (the
    /// "observable" pool for stage 1), kept for O(1) companion draws.
    committed_options: Vec<u32>,
    /// Cached per-option committed counts.
    counts: Vec<u64>,
    /// Scratch: last step's pool, recycled as next step's new pool so
    /// stepping never allocates.
    pool_scratch: Vec<u32>,
    /// Scratch: per-option adoption probabilities `f(R_j)`.
    adopt: Vec<f64>,
    steps: u64,
}

impl AgentPopulation {
    /// Creates `n` agents starting from the uniform initialization:
    /// agent `i` is committed to option `i mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(params: Params, n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        let m = params.num_options();
        let choices: Vec<Option<u32>> = (0..n).map(|i| Some((i % m) as u32)).collect();
        Self::from_choices(params, choices)
    }

    /// Creates a population from explicit initial per-agent choices
    /// (`None` = starts sat-out).
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty or any option index is out of
    /// range.
    pub fn from_choices(params: Params, choices: Vec<Option<u32>>) -> Self {
        assert!(!choices.is_empty(), "population must be non-empty");
        let m = params.num_options();
        let mut counts = vec![0u64; m];
        let mut committed_options = Vec::with_capacity(choices.len());
        for c in choices.iter().flatten() {
            assert!((*c as usize) < m, "option index {c} out of range");
            counts[*c as usize] += 1;
            committed_options.push(*c);
        }
        AgentPopulation {
            n: choices.len(),
            pool_scratch: Vec::with_capacity(choices.len()),
            adopt: vec![0.0; m],
            params,
            choices,
            committed_options,
            counts,
            steps: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Population size `N`.
    pub fn population_size(&self) -> usize {
        self.n
    }

    /// Per-agent committed options after the latest step.
    pub fn choices(&self) -> &[Option<u32>] {
        &self.choices
    }

    /// Committed counts per option.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Fraction of agents that committed in the latest step.
    pub fn committed_fraction(&self) -> f64 {
        self.committed_options.len() as f64 / self.n as f64
    }
}

impl GroupDynamics for AgentPopulation {
    fn num_options(&self) -> usize {
        self.params.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        write_shares(&self.counts, out);
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        let m = self.params.num_options();
        assert_eq!(
            rewards.len(),
            m,
            "rewards length must equal the number of options"
        );
        let mu = self.params.mu();
        let p_false = self.params.adopt_probability(false);
        let p_true = self.params.adopt_probability(true);
        write_adopt_probs(rewards, p_false, p_true, &mut self.adopt);

        // Swap last step's pool out and recycle the previous scratch
        // buffer as the new pool: the step is allocation-free once the
        // buffers have grown to capacity.
        let pool = std::mem::replace(
            &mut self.committed_options,
            std::mem::take(&mut self.pool_scratch),
        );
        self.committed_options.clear();
        self.counts.fill(0);
        for choice in self.choices.iter_mut() {
            // Stage 1: pick an option to consider.
            let j = if pool.is_empty() || rng.gen_bool(mu) {
                rng.gen_range(0..m) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            // Stage 2: observe the signal, adopt or sit out.
            if rng.gen_bool(self.adopt[j as usize]) {
                *choice = Some(j);
                self.counts[j as usize] += 1;
                self.committed_options.push(j);
            } else {
                *choice = None;
            }
        }
        self.pool_scratch = pool;
        self.steps += 1;
    }

    fn label(&self) -> &str {
        "social (per-agent)"
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
    fn initialization_round_robin() {
        let pop = AgentPopulation::new(params(), 7);
        assert_eq!(pop.counts(), &[3, 2, 2]);
        assert_eq!(pop.committed_fraction(), 1.0);
    }

    #[test]
    fn step_preserves_invariants() {
        let mut pop = AgentPopulation::new(params(), 300);
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..100 {
            let rewards: Vec<bool> = (0..3).map(|j| (t + j) % 2 == 0).collect();
            pop.step(&rewards, &mut rng);
            assert_distribution(&pop.distribution(), 1e-12);
            let committed: u64 = pop.counts().iter().sum();
            assert_eq!(
                committed,
                pop.choices().iter().flatten().count() as u64,
                "counts cache out of sync"
            );
            assert!(committed <= 300);
        }
    }

    #[test]
    fn best_option_wins() {
        let p = Params::new(2, 0.7).unwrap();
        let mut pop = AgentPopulation::new(p, 2_000);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut env = crate::BernoulliRewards::new(vec![0.95, 0.05]).unwrap();
        let mut rewards = vec![false; 2];
        for t in 0..300 {
            crate::RewardModel::sample(&mut env, t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
        }
        assert!(pop.distribution()[0] > 0.8);
    }

    #[test]
    fn from_choices_with_sit_outs() {
        let choices = vec![Some(0), None, Some(2), None];
        let pop = AgentPopulation::from_choices(params(), choices);
        assert_eq!(pop.counts(), &[1, 0, 1]);
        assert_eq!(pop.committed_fraction(), 0.5);
        let q = pop.distribution();
        assert_eq!(q, vec![0.5, 0.0, 0.5]);
    }

    #[test]
    fn empty_pool_falls_back_to_uniform() {
        let choices = vec![None; 50];
        let mut pop = AgentPopulation::from_choices(params(), choices);
        assert_eq!(pop.distribution(), vec![1.0 / 3.0; 3]);
        let mut rng = SmallRng::seed_from_u64(3);
        pop.step(&[true, true, true], &mut rng);
        // With beta = 0.6 and all-good rewards, most agents commit.
        assert!(pop.committed_fraction() > 0.4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_choices_validates_indices() {
        AgentPopulation::from_choices(params(), vec![Some(9)]);
    }

    #[test]
    fn matches_collective_form_in_mean() {
        // First-step mean of the committed counts should agree between
        // the two forms (the laws are identical; here we spot-check
        // the mean at modest replication count).
        let p = Params::with_all(3, 0.7, 0.3, 0.1).unwrap();
        let reps = 400;
        let n = 150;
        let rewards = [true, false, false];

        let mut mean_agent = 0.0;
        let mut mean_coll = 0.0;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a = AgentPopulation::new(p, n);
            a.step(&rewards, &mut rng);
            mean_agent += a.distribution()[0];

            let mut rng = SmallRng::seed_from_u64(seed + 10_000);
            let mut c = crate::FinitePopulation::new(p, n);
            c.step(&rewards, &mut rng);
            mean_coll += c.distribution()[0];
        }
        mean_agent /= reps as f64;
        mean_coll /= reps as f64;
        assert!(
            (mean_agent - mean_coll).abs() < 0.02,
            "agent {mean_agent} vs collective {mean_coll}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut pop = AgentPopulation::new(params(), 100);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..30 {
                pop.step(&[true, false, true], &mut rng);
            }
            pop.distribution()
        };
        assert_eq!(run(9), run(9));
    }
}
