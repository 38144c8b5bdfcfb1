//! A group of `N` independent bandit learners, measured as one
//! population.

use crate::bandit::BanditPolicy;
use rand::rngs::SmallRng;
use sociolearn_core::{write_shares, GroupDynamics};

/// `N` agents each running a private copy of a bandit policy,
/// observing only their own pulled arm's reward bit.
///
/// The group "distribution" is the empirical fraction of agents on
/// each arm at the latest step — directly comparable to the social
/// dynamics' popularity vector. This is the Section 3 comparison
/// point: the same group-level task solved with *explicit per-agent
/// memory* (each agent stores per-arm statistics), versus the
/// memoryless social dynamics.
///
/// # Example
///
/// ```
/// use sociolearn_baselines::{IndependentBanditGroup, Ucb1};
/// use sociolearn_core::GroupDynamics;
/// use rand::SeedableRng;
///
/// let group = IndependentBanditGroup::new(50, || Ucb1::new(3).unwrap());
/// assert_eq!(group.num_options(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IndependentBanditGroup<P> {
    agents: Vec<P>,
    counts: Vec<u64>,
    steps: u64,
}

impl<P: BanditPolicy> IndependentBanditGroup<P> {
    /// Creates `n` agents from a factory closure.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new<F: FnMut() -> P>(n: usize, mut factory: F) -> Self {
        assert!(n > 0, "group must be non-empty");
        let agents: Vec<P> = (0..n).map(|_| factory()).collect();
        let m = agents[0].num_arms();
        IndependentBanditGroup {
            agents,
            // Before the first step, report uniform-ish by assigning
            // agents round-robin.
            counts: {
                let mut c = vec![0u64; m];
                for i in 0..n {
                    c[i % m] += 1;
                }
                c
            },
            steps: 0,
        }
    }

    /// Number of agents.
    pub fn population_size(&self) -> usize {
        self.agents.len()
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Name of the underlying policy.
    pub fn policy_name(&self) -> &'static str {
        self.agents[0].policy_name()
    }
}

impl<P: BanditPolicy> GroupDynamics for IndependentBanditGroup<P> {
    fn num_options(&self) -> usize {
        self.counts.len()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        write_shares(&self.counts, out);
    }

    fn step(&mut self, rewards: &[bool], rng: &mut SmallRng) {
        assert_eq!(rewards.len(), self.counts.len(), "rewards length mismatch");
        self.counts.fill(0);
        for agent in self.agents.iter_mut() {
            let arm = agent.select_arm(rng);
            // Partial feedback: the agent sees only its own arm's bit.
            agent.update(arm, rewards[arm]);
            self.counts[arm] += 1;
        }
        self.steps += 1;
    }

    fn label(&self) -> &str {
        self.policy_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandit::{EpsilonGreedy, ThompsonSampling, Ucb1};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sociolearn_core::{assert_distribution, BernoulliRewards, RewardModel};

    fn run_group<P: BanditPolicy>(
        mut group: IndependentBanditGroup<P>,
        etas: Vec<f64>,
        steps: u64,
        seed: u64,
    ) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut env = BernoulliRewards::new(etas).unwrap();
        let m = group.num_options();
        let mut rewards = vec![false; m];
        let mut avg = 0.0;
        let tail = steps / 4;
        for t in 1..=steps {
            env.sample(t, &mut rng, &mut rewards);
            group.step(&rewards, &mut rng);
            if t > steps - tail {
                avg += group.distribution()[0];
            }
        }
        avg / tail as f64
    }

    #[test]
    fn ucb_group_converges() {
        let g = IndependentBanditGroup::new(100, || Ucb1::new(2).unwrap());
        let share = run_group(g, vec![0.9, 0.3], 500, 1);
        assert!(share > 0.8, "UCB group share {share}");
    }

    #[test]
    fn thompson_group_converges() {
        let g = IndependentBanditGroup::new(100, || ThompsonSampling::new(2).unwrap());
        let share = run_group(g, vec![0.9, 0.3], 500, 2);
        assert!(share > 0.85, "Thompson group share {share}");
    }

    #[test]
    fn distribution_always_valid() {
        let mut g = IndependentBanditGroup::new(30, || EpsilonGreedy::new(3, 0.2).unwrap());
        assert_distribution(&g.distribution(), 1e-12);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            g.step(&[true, false, true], &mut rng);
            assert_distribution(&g.distribution(), 1e-12);
        }
        assert_eq!(g.steps(), 50);
        assert_eq!(g.population_size(), 30);
    }

    #[test]
    fn label_reflects_policy() {
        let g = IndependentBanditGroup::new(5, || Ucb1::new(2).unwrap());
        assert_eq!(g.label(), "UCB1");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_group_rejected() {
        IndependentBanditGroup::new(0, || Ucb1::new(2).unwrap());
    }
}
