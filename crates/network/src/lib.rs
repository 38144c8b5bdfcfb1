//! # sociolearn-network
//!
//! The paper's first future-work direction, implemented: the
//! distributed learning dynamics where stage-1 sampling is restricted
//! to a social network — "individuals can only sample in step (1)
//! from their neighbors. The question here would be whether, and to
//! what extent, the efficiency of the group remains as a function of
//! the network topology."
//!
//! [`NetworkPopulation`] runs the per-agent dynamics over any
//! [`sociolearn_graph::Graph`]. On the complete graph it reduces to
//! (a close variant of) the base well-mixed dynamics — the control
//! condition experiment E11 uses to anchor its topology comparison.
//!
//! ## Sampling semantics
//!
//! At each step, agent `i`:
//!
//! 1. with probability `µ` considers a uniformly random option;
//!    otherwise it picks a uniformly random neighbor **among those who
//!    committed in the previous step** and considers that neighbor's
//!    option — the exact local analogue of the well-mixed model, whose
//!    popularity vector `Q` is normalized over adopters. If *no*
//!    neighbor committed (or `i` is isolated), `i` falls back to a
//!    uniformly random option, since it has nothing to copy.
//! 2. adopts the considered option with probability `β` on a good
//!    signal and `α` on a bad one, else sits out.
//!
//! ## Membership churn
//!
//! Agents can [`depart`](NetworkPopulation::depart) and
//! [`arrive`](NetworkPopulation::arrive) between steps (rolling
//! restarts, flash crowds, region loss). Neighbor sets rewire
//! *incrementally*: a departed agent's commitment is cleared, so the
//! committed-neighbor sampling above skips it with no graph rebuild —
//! its edges stay in the CSR and simply stop mattering. An arriving
//! agent enters uncommitted and bootstraps the same way every agent
//! learns: by copying committed neighbors (or the uniform fallback if
//! it has none).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sociolearn_core::{GroupDynamics, Params};
//! use sociolearn_graph::topology;
//! use sociolearn_network::NetworkPopulation;
//!
//! let params = Params::new(2, 0.6)?;
//! let g = topology::ring(100, 2);
//! let mut pop = NetworkPopulation::new(params, g);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! pop.step(&[true, false], &mut rng);
//! assert_eq!(pop.distribution().len(), 2);
//! # Ok::<(), sociolearn_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::Rng;
use sociolearn_core::{write_shares, GroupDynamics, Params};
use sociolearn_graph::Graph;

/// How an agent picks whom to observe among its committed neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingRule {
    /// Uniform over committed neighbors — the direct local analogue of
    /// the base model (default).
    #[default]
    UniformNeighbor,
    /// Committed neighbors weighted by their own degree — a
    /// "visibility bias" where well-connected individuals are observed
    /// more often (the distinction between voter-model and
    /// invasion-process update orders in the opinion-dynamics
    /// literature). On regular graphs this coincides with
    /// [`SamplingRule::UniformNeighbor`].
    DegreeWeighted,
}

/// The social-learning dynamics with neighbor-restricted sampling.
#[derive(Debug, Clone)]
pub struct NetworkPopulation {
    params: Params,
    graph: Graph,
    rule: SamplingRule,
    /// Committed option per agent after the latest step (`None` = sat
    /// out).
    choices: Vec<Option<u32>>,
    /// Whether each agent is currently in the population; departed
    /// agents neither step nor get copied.
    present: Vec<bool>,
    counts: Vec<u64>,
    steps: u64,
}

impl NetworkPopulation {
    /// Creates the population on `graph`, one agent per node, starting
    /// round-robin committed (`agent i` on option `i mod m`).
    pub fn new(params: Params, graph: Graph) -> Self {
        let n = graph.num_nodes();
        let m = params.num_options();
        let choices: Vec<Option<u32>> = (0..n).map(|i| Some((i % m) as u32)).collect();
        Self::from_choices(params, graph, choices)
    }

    /// Creates the population with explicit initial choices.
    ///
    /// # Panics
    ///
    /// Panics if `choices.len() != graph.num_nodes()` or an option
    /// index is out of range.
    pub fn from_choices(params: Params, graph: Graph, choices: Vec<Option<u32>>) -> Self {
        assert_eq!(
            choices.len(),
            graph.num_nodes(),
            "one choice per graph node required"
        );
        let m = params.num_options();
        let mut counts = vec![0u64; m];
        for c in choices.iter().flatten() {
            assert!((*c as usize) < m, "option index {c} out of range");
            counts[*c as usize] += 1;
        }
        let n = choices.len();
        NetworkPopulation {
            params,
            graph,
            rule: SamplingRule::default(),
            choices,
            present: vec![true; n],
            counts,
            steps: 0,
        }
    }

    /// Removes agent `v` from the population: its commitment is
    /// cleared so neighbors stop copying it from the next step on, and
    /// it no longer steps. Idempotent. The graph is untouched — the
    /// rewiring is incremental, through the committed-neighbor filter.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn depart(&mut self, v: usize) {
        assert!(v < self.choices.len(), "agent out of range");
        if !self.present[v] {
            return;
        }
        self.present[v] = false;
        if let Some(c) = self.choices[v].take() {
            self.counts[c as usize] -= 1;
        }
    }

    /// (Re)adds agent `v` to the population. It enters uncommitted and
    /// bootstraps like any agent: copying committed neighbors, or the
    /// uniform fallback if none are. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn arrive(&mut self, v: usize) {
        assert!(v < self.choices.len(), "agent out of range");
        self.present[v] = true;
    }

    /// Whether agent `v` is currently in the population.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_present(&self, v: usize) -> bool {
        self.present[v]
    }

    /// Number of agents currently in the population.
    pub fn num_present(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Switches the neighbor-sampling rule.
    pub fn with_rule(mut self, rule: SamplingRule) -> Self {
        self.rule = rule;
        self
    }

    /// The sampling rule in use.
    pub fn rule(&self) -> SamplingRule {
        self.rule
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Population size (number of nodes).
    pub fn population_size(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Per-agent committed options.
    pub fn choices(&self) -> &[Option<u32>] {
        &self.choices
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Fraction of agents committed to `option` (over the whole
    /// population, not just adopters).
    ///
    /// # Panics
    ///
    /// Panics if `option` is out of range.
    pub fn share_committed(&self, option: usize) -> f64 {
        assert!(option < self.params.num_options(), "option out of range");
        self.counts[option] as f64 / self.graph.num_nodes() as f64
    }

    /// Local popularity of each option among `v`'s neighbors that
    /// committed last step (uniform if none did).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn local_distribution(&self, v: usize) -> Vec<f64> {
        let m = self.params.num_options();
        let mut counts = vec![0u64; m];
        let mut total = 0u64;
        for &w in self.graph.neighbors(v) {
            if let Some(c) = self.choices[w as usize] {
                counts[c as usize] += 1;
                total += 1;
            }
        }
        if total == 0 {
            return vec![1.0 / m as f64; m];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

impl GroupDynamics for NetworkPopulation {
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
        let prev = self.choices.clone();
        let mut counts = vec![0u64; m];
        for (v, choice) in self.choices.iter_mut().enumerate() {
            // Departed agents neither sample nor commit; their `None`
            // in `prev` already keeps neighbors from copying them.
            if !self.present[v] {
                debug_assert!(choice.is_none(), "departed agent kept a commitment");
                continue;
            }
            // Stage 1: neighbor-restricted sampling, uniform among the
            // neighbors who committed last step. Rejection sampling
            // with a capped retry count stays exactly uniform because
            // the fallback scan is itself uniform over the committed.
            let considered = if rng.gen_bool(mu) {
                rng.gen_range(0..m) as u32
            } else {
                let nbrs = self.graph.neighbors(v);
                let mut copied = None;
                if !nbrs.is_empty() {
                    match self.rule {
                        SamplingRule::UniformNeighbor => {
                            for _ in 0..16 {
                                if let Some(c) = prev[nbrs[rng.gen_range(0..nbrs.len())] as usize] {
                                    copied = Some(c);
                                    break;
                                }
                            }
                            if copied.is_none() {
                                // Rare: 16 misses in a row. Exact
                                // uniform draw over the committed
                                // neighbors by reservoir sampling.
                                let mut seen = 0u32;
                                for &w in nbrs {
                                    if let Some(c) = prev[w as usize] {
                                        seen += 1;
                                        if rng.gen_range(0..seen) == 0 {
                                            copied = Some(c);
                                        }
                                    }
                                }
                            }
                        }
                        SamplingRule::DegreeWeighted => {
                            // Weighted reservoir over committed
                            // neighbors, weight = neighbor degree
                            // (exact single pass, O(deg)).
                            let mut total = 0u64;
                            for &w in nbrs {
                                if let Some(c) = prev[w as usize] {
                                    let weight = self.graph.degree(w as usize) as u64;
                                    total += weight;
                                    if weight > 0 && rng.gen_range(0..total) < weight {
                                        copied = Some(c);
                                    }
                                }
                            }
                        }
                    }
                }
                match copied {
                    Some(c) => c,
                    None => rng.gen_range(0..m) as u32,
                }
            };
            // Stage 2: adopt or sit out.
            let p = self.params.adopt_probability(rewards[considered as usize]);
            if rng.gen_bool(p) {
                *choice = Some(considered);
                counts[considered as usize] += 1;
            } else {
                *choice = None;
            }
        }
        self.counts = counts;
        self.steps += 1;
    }

    fn label(&self) -> &str {
        "social (network)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sociolearn_core::{assert_distribution, BernoulliRewards, RewardModel};
    use sociolearn_graph::topology;

    fn params(m: usize) -> Params {
        Params::new(m, 0.6).unwrap()
    }

    fn run_to_convergence(
        mut pop: NetworkPopulation,
        etas: Vec<f64>,
        steps: u64,
        seed: u64,
    ) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut env = BernoulliRewards::new(etas).unwrap();
        let m = pop.num_options();
        let mut rewards = vec![false; m];
        let mut avg_best = 0.0;
        let tail = steps / 4;
        for t in 1..=steps {
            env.sample(t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
            if t > steps - tail {
                avg_best += pop.distribution()[0];
            }
        }
        avg_best / tail as f64
    }

    #[test]
    fn invariants_hold_over_time() {
        let g = topology::ring(60, 2);
        let mut pop = NetworkPopulation::new(params(3), g);
        let mut rng = SmallRng::seed_from_u64(1);
        for t in 0..100 {
            let rewards: Vec<bool> = (0..3).map(|j| (t + j) % 2 == 0).collect();
            pop.step(&rewards, &mut rng);
            assert_distribution(&pop.distribution(), 1e-12);
            let total: u64 = (0..3)
                .map(|j| (pop.share_committed(j) * 60.0).round() as u64)
                .sum();
            assert!(total <= 60);
        }
        assert_eq!(pop.steps(), 100);
    }

    #[test]
    fn complete_graph_converges_to_best() {
        let g = topology::complete(300);
        let avg = run_to_convergence(NetworkPopulation::new(params(2), g), vec![0.9, 0.3], 400, 2);
        assert!(avg > 0.8, "complete-graph best share {avg}");
    }

    #[test]
    fn ring_also_converges_but_learning_spreads() {
        let g = topology::ring(300, 2);
        let avg = run_to_convergence(NetworkPopulation::new(params(2), g), vec![0.9, 0.3], 600, 3);
        assert!(avg > 0.7, "ring best share {avg}");
    }

    #[test]
    fn star_center_bottleneck_still_learns() {
        // The star is the paper's worst case for neighbor-restricted
        // sampling: every leaf can only copy the center, so single-run
        // shares fluctuate widely (~0.51..0.69 at these sizes).
        // Average a few seeds and ask for clear daylight above the
        // 1/m = 0.5 no-learning floor.
        let seeds = 8u64;
        let mut avg = 0.0;
        for seed in 1..=seeds {
            let g = topology::star(200);
            avg += run_to_convergence(
                NetworkPopulation::new(params(2), g),
                vec![0.9, 0.3],
                600,
                seed,
            );
        }
        avg /= seeds as f64;
        assert!(avg > 0.55, "star best share {avg}");
    }

    #[test]
    fn isolated_nodes_fall_back_to_uniform() {
        // Edgeless graph: everyone explores uniformly; no option should
        // dominate when rewards are symmetric.
        let g = Graph::from_edges(100, &[]).unwrap();
        let mut pop = NetworkPopulation::new(params(2), g);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut share = 0.0;
        for _ in 0..200 {
            pop.step(&[true, true], &mut rng);
            share += pop.distribution()[0];
        }
        share /= 200.0;
        assert!((share - 0.5).abs() < 0.05, "isolated share {share}");
    }

    #[test]
    fn local_distribution_reflects_neighbors() {
        let g = topology::star(4); // center 0, leaves 1..3
        let choices = vec![Some(0), Some(1), Some(1), None];
        let pop = NetworkPopulation::from_choices(params(2), g, choices);
        // Center sees two committed leaves on option 1.
        assert_eq!(pop.local_distribution(0), vec![0.0, 1.0]);
        // A leaf sees only the center, on option 0.
        assert_eq!(pop.local_distribution(1), vec![1.0, 0.0]);
    }

    #[test]
    fn two_cliques_slower_than_complete() {
        // A single bridge slows consensus on the best option: compare
        // the share after a *short* horizon.
        let short = 80;
        let complete = run_to_convergence(
            NetworkPopulation::new(params(2), topology::complete(200)),
            vec![0.9, 0.3],
            short,
            6,
        );
        let cliques = run_to_convergence(
            NetworkPopulation::new(params(2), topology::two_cliques(200, 1)),
            vec![0.9, 0.3],
            short,
            6,
        );
        // Not a strict inequality theorem, but with one bridge vs full
        // mixing the ordering is extremely reliable at this scale.
        assert!(
            complete >= cliques - 0.05,
            "complete {complete} vs two-cliques {cliques}"
        );
    }

    #[test]
    #[should_panic(expected = "one choice per graph node")]
    fn from_choices_length_checked() {
        NetworkPopulation::from_choices(params(2), topology::star(3), vec![Some(0)]);
    }

    #[test]
    fn departed_agents_rewire_neighbor_sampling_incrementally() {
        let g = topology::star(4); // center 0, leaves 1..3
        let choices = vec![Some(0), Some(1), Some(1), Some(1)];
        let mut pop = NetworkPopulation::from_choices(params(2), g, choices);
        assert_eq!(pop.num_present(), 4);
        pop.depart(0);
        pop.depart(0); // idempotent
        assert!(!pop.is_present(0));
        assert_eq!(pop.num_present(), 3);
        // The departed center's commitment left the counts...
        assert_eq!(pop.share_committed(0), 0.0);
        // ...and the leaves now see no committed neighbor at all: the
        // graph still holds the edges, the filter rewired around them.
        assert_eq!(pop.local_distribution(1), vec![0.5, 0.5]);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10 {
            pop.step(&[true, true], &mut rng);
            assert!(pop.choices()[0].is_none(), "departed agent committed");
        }
    }

    #[test]
    fn arrivals_bootstrap_by_copying_neighbors() {
        let g = topology::complete(40);
        let mut pop = NetworkPopulation::new(params(2), g);
        for v in 30..40 {
            pop.depart(v);
        }
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..20 {
            pop.step(&[true, false], &mut rng);
        }
        for v in 30..40 {
            pop.arrive(v);
        }
        assert_eq!(pop.num_present(), 40);
        // Fresh arrivals hold nothing until they step...
        assert!((30..40).all(|v| pop.choices()[v].is_none()));
        for _ in 0..30 {
            pop.step(&[true, false], &mut rng);
        }
        // ...then learn the dominant option from their neighbors.
        let adopted = (30..40).filter(|&v| pop.choices()[v] == Some(0)).count();
        assert!(adopted >= 5, "only {adopted}/10 arrivals learned option 0");
    }
}

#[cfg(test)]
mod sampling_rule_tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sociolearn_core::{BernoulliRewards, RewardModel};
    use sociolearn_graph::topology;

    fn run_share(mut pop: NetworkPopulation, steps: u64, seed: u64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
        let mut rewards = vec![false; 2];
        let mut tail = 0.0;
        let tail_len = steps / 4;
        for t in 1..=steps {
            env.sample(t, &mut rng, &mut rewards);
            pop.step(&rewards, &mut rng);
            if t > steps - tail_len {
                tail += pop.distribution()[0];
            }
        }
        tail / tail_len as f64
    }

    #[test]
    fn default_rule_is_uniform() {
        let params = Params::new(2, 0.65).unwrap();
        let pop = NetworkPopulation::new(params, topology::ring(10, 1));
        assert_eq!(pop.rule(), SamplingRule::UniformNeighbor);
        let pop = pop.with_rule(SamplingRule::DegreeWeighted);
        assert_eq!(pop.rule(), SamplingRule::DegreeWeighted);
    }

    #[test]
    fn rules_coincide_on_regular_graphs() {
        // On a ring every neighbor has the same degree, so the two
        // rules are the same law; tail shares must agree statistically.
        let params = Params::new(2, 0.65).unwrap();
        let g = topology::ring(200, 2);
        let mut uni = 0.0;
        let mut deg = 0.0;
        let reps = 10;
        for s in 0..reps {
            uni += run_share(NetworkPopulation::new(params, g.clone()), 300, s);
            deg += run_share(
                NetworkPopulation::new(params, g.clone()).with_rule(SamplingRule::DegreeWeighted),
                300,
                1000 + s,
            );
        }
        uni /= reps as f64;
        deg /= reps as f64;
        assert!(
            (uni - deg).abs() < 0.05,
            "uniform {uni} vs degree-weighted {deg}"
        );
    }

    #[test]
    fn degree_weighted_still_learns_on_hub_graph() {
        let params = Params::new(2, 0.65).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let g = sociolearn_graph::topology::barabasi_albert(300, 3, &mut rng);
        let share = run_share(
            NetworkPopulation::new(params, g).with_rule(SamplingRule::DegreeWeighted),
            500,
            7,
        );
        assert!(share > 0.75, "degree-weighted BA share {share}");
    }

    #[test]
    fn degree_weighted_amplifies_the_hub_on_a_star() {
        // Leaves only see the hub either way; the *hub* sees leaves
        // (degree 1 each) uniformly under both rules. The variant must
        // remain well-defined and keep learning.
        let params = Params::new(2, 0.65).unwrap();
        let share = run_share(
            NetworkPopulation::new(params, topology::star(150))
                .with_rule(SamplingRule::DegreeWeighted),
            500,
            11,
        );
        assert!(share > 0.55, "star degree-weighted share {share}");
    }
}
