//! # sociolearn-env
//!
//! Reward environments beyond the plain independent-Bernoulli base
//! model, covering every environment class the paper discusses:
//!
//! * [`BestOfTwoRewards`] — the correlated environment in which exactly
//!   one of two options is "good" each step (Ellison–Fudenberg),
//! * [`ShockDuel`] / [`DuelPopulation`] — the full continuous-reward
//!   word-of-mouth model with player-specific shocks, plus its exact
//!   reduction to the paper's `(η, α, β)` parameterization,
//! * [`PiecewiseStationary`], [`swap_best`] — qualities that change
//!   at scheduled steps (the paper's future-work direction),
//! * [`TraceRewards`] — replay of a fixed reward matrix, used by the
//!   coupling experiments to feed identical reward realizations to
//!   different processes,
//! * [`PeriodicRewards`] — deterministic adversarial-ish sequences for
//!   robustness tests.
//!
//! All implement [`sociolearn_core::RewardModel`], so any dynamics in
//! the workspace can run against any of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversarial;
mod correlated;
mod drift;
mod trace;

pub use adversarial::PeriodicRewards;
pub use correlated::{BestOfTwoRewards, DuelPopulation, ShockDuel};
pub use drift::{swap_best, PiecewiseStationary};
pub use trace::TraceRewards;
