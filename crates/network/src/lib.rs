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

/// The social-learning dynamics with neighbor-restricted sampling.
#[derive(Debug, Clone)]
pub struct NetworkPopulation {
    params: Params,
    graph: Graph,
    /// Committed option per agent after the latest step (`None` = sat
    /// out).
    choices: Vec<Option<u32>>,
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
        NetworkPopulation {
            params,
            graph,
            choices,
            counts,
            steps: 0,
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Per-agent committed options.
    pub fn choices(&self) -> &[Option<u32>] {
        &self.choices
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
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
                    for _ in 0..16 {
                        if let Some(c) = prev[nbrs[rng.gen_range(0..nbrs.len())] as usize] {
                            copied = Some(c);
                            break;
                        }
                    }
                    if copied.is_none() {
                        // Rare: 16 misses in a row. Exact uniform draw
                        // over the committed neighbors by reservoir
                        // sampling.
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
            assert!(pop.choices().iter().flatten().all(|&c| c < 3));
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
}
