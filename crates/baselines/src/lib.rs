//! # sociolearn-baselines
//!
//! Comparator algorithms for the social-learning dynamics, all exposed
//! through [`sociolearn_core::GroupDynamics`] so the experiment
//! harness measures every algorithm's group regret through one code
//! path.
//!
//! Two families:
//!
//! * **Full-information, centralized** — what a single agent with
//!   unbounded memory could do with the same information the *group*
//!   collectively receives: [`Hedge`] (classic MWU) and
//!   [`FollowTheLeader`], plus the [`BestFixed`] oracle and
//!   [`UniformRandom`] floor.
//! * **Bandit-feedback, decentralized-but-memoryful** — `N`
//!   *independent* learners each running a private bandit algorithm
//!   and seeing only their own arm's reward:
//!   [`IndependentBanditGroup`] over [`Ucb1`], [`ThompsonSampling`],
//!   [`EpsilonGreedy`], or [`Exp3`]. This is the "parallelized bandits"
//!   comparison from Section 3: each node explicitly maintains
//!   per-option statistics, unlike the memoryless social dynamics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandit;
mod group;
mod hedge;
mod simple;

pub use bandit::{BanditPolicy, EpsilonGreedy, Exp3, ThompsonSampling, Ucb1};
pub use group::IndependentBanditGroup;
pub use hedge::Hedge;
pub use simple::{BestFixed, FollowTheLeader, UniformRandom};
