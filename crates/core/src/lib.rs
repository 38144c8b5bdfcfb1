//! # sociolearn-core
//!
//! The distributed social-learning dynamics of Celis, Krafft &
//! Vishnoi, *"A Distributed Learning Dynamics in Social Groups"*
//! (PODC 2017, arXiv:1705.03414), implemented as a reusable library.
//!
//! `N` individuals repeatedly choose among `m` options with hidden
//! Bernoulli qualities. Each step, every individual (1) **samples** an
//! option — with probability `µ` uniformly at random, otherwise by
//! copying a uniformly random group member's previous choice — and
//! (2) **adopts** it with probability `β` if its fresh quality signal
//! is good and `α` otherwise (else sits out this step). Despite being
//! memoryless, the *group* attains near-optimal average regret: at
//! most `3δ` for the infinite-population process and `6δ` for finite
//! populations, `δ = ln(β/(1−β))`.
//!
//! ## What lives here
//!
//! * [`Params`] — model parameters plus every quantitative bound the
//!   paper attaches to them (horizons, floors, coupling granularity).
//! * [`FinitePopulation`] — the finite-`N` dynamics in its exact
//!   collective-statistic form (O(m) per step).
//! * [`AgentPopulation`] — the same process agent-by-agent (O(N) per
//!   step), the form the network and message-passing variants extend.
//! * [`InfiniteDynamics`] / [`StochasticMwu`] — the infinite-population
//!   limit, in normalized and raw-weights form; Section 2.2's identity
//!   between them is enforced by tests.
//! * [`RegretTracker`] / [`EpochRegret`] — the paper's regret
//!   functional, whole-run and per-epoch.
//! * [`CoupledRun`] — the shared-rewards coupling of Lemma 4.5.
//! * [`RewardModel`] / [`BernoulliRewards`] — the environment
//!   interface (richer environments live in `sociolearn-env`).
//! * Sampling primitives ([`AliasTable`], exact binomial/multinomial).
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use sociolearn_core::{
//!     BernoulliRewards, FinitePopulation, GroupDynamics, Params, RegretTracker, RewardModel,
//! };
//!
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
//! // Theorem 4.4: average regret at most 6δ (w.h.p. for large N).
//! assert!(tracker.average_regret() < params.regret_bound_finite());
//! # Ok::<(), sociolearn_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agents;
mod coupling;
mod dynamics;
mod epoch;
mod error;
mod finite;
mod infinite;
mod mwu;
mod params;
mod regret;
mod reward;
mod sampling;
mod scratch;
mod snapshot;

pub use agents::AgentPopulation;
pub use coupling::{ratio_deviation, tv_distance, CoupledRun, CouplingTrace};
pub use dynamics::{assert_distribution, write_shares, GroupDynamics};
pub use epoch::{EpochRegret, EpochSchedule};
pub use error::{ParamsError, RegimeViolation};
pub use finite::{FinitePopulation, StepRecord};
pub use infinite::InfiniteDynamics;
pub use mwu::StochasticMwu;
pub use params::{Params, BETA_MAX};
pub use regret::{RegretCurve, RegretTracker};
pub use reward::{BernoulliRewards, RewardModel};
pub use sampling::{sample_binomial, sample_categorical, sample_multinomial, AliasTable};
pub use snapshot::History;
