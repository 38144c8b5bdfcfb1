//! # sociolearn
//!
//! A full Rust implementation and reproduction of **"A Distributed
//! Learning Dynamics in Social Groups"** (Celis, Krafft, Vishnoi —
//! PODC 2017, arXiv:1705.03414): the memoryless sample-then-adopt
//! dynamics by which a social group collectively solves a
//! best-option-identification problem, its infinite-population limit
//! (a stochastic multiplicative-weights update), quantitative regret
//! guarantees, and everything needed to re-derive the paper's claims
//! experimentally.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] — the dynamics themselves (finite, per-agent, infinite,
//!   stochastic MWU), parameters and theorem bounds, regret and
//!   coupling machinery.
//! * [`mod@env`] — reward environments: correlated best-of-two,
//!   continuous duels with shocks, scheduled drift, periodic sequences,
//!   traces.
//! * [`graph`] / [`network`] — topologies and the network-restricted
//!   dynamics (future-work direction 1).
//! * [`baselines`] — Hedge, EXP3, UCB1, Thompson, ε-greedy, FTL,
//!   oracles, and N-agent independent-bandit groups.
//! * [`dist`] — the O(1)-memory message-passing implementation with
//!   fault injection (the paper's sensor-network suggestion).
//! * [`sim`] — seed trees, replication, parallel sweeps, aggregation.
//! * [`stats`] / [`plot`] — the numerics and figure substrate.
//! * [`experiments`] — the E1–E19 reproduction suite.
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use sociolearn::core::{
//!     BernoulliRewards, FinitePopulation, GroupDynamics, Params, RegretTracker, RewardModel,
//! };
//!
//! // 10,000 individuals, 5 options, adoption sensitivity beta = 0.6.
//! let params = Params::new(5, 0.6)?;
//! let mut env = BernoulliRewards::one_good(5, 0.9)?;
//! let mut group = FinitePopulation::new(params, 10_000);
//! let mut tracker = RegretTracker::new(0.9, 0);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//!
//! let mut rewards = vec![false; 5];
//! for t in 1..=params.min_horizon() {
//!     let before = group.distribution();
//!     env.sample(t, &mut rng, &mut rewards);
//!     group.step(&rewards, &mut rng);
//!     tracker.record(&before, &rewards, env.qualities());
//! }
//! assert!(tracker.average_regret() < params.regret_bound_finite());
//! # Ok::<(), sociolearn::core::ParamsError>(())
//! ```
//!
//! See `examples/` for runnable scenarios, and the README's "The
//! E1–E19 reproduction suite" for the reproduction index; the suite
//! writes its tables and figures to `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sociolearn_baselines as baselines;
pub use sociolearn_core as core;
pub use sociolearn_dist as dist;
pub use sociolearn_env as env;
pub use sociolearn_experiments as experiments;
pub use sociolearn_graph as graph;
pub use sociolearn_network as network;
pub use sociolearn_plot as plot;
pub use sociolearn_sim as sim;
pub use sociolearn_stats as stats;

/// README.md's Rust blocks, compiled and run as doctests so the
/// README cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
