//! # sociolearn-sim
//!
//! Experiment machinery: deterministic seed derivation, single-run
//! execution, parallel replication, and aggregation of regret/share
//! curves with confidence intervals.
//!
//! Everything in the reproduction suite is driven from explicit `u64`
//! seeds through [`SeedTree`], so every number the suite writes to
//! `results/` is reproducible from the seed printed next to it.
//!
//! [`run_one`] is the suite's one replication loop: observe the
//! popularity `Q^t`, draw the signals `R^{t+1}`, step, and account
//! regret. [`run_observed`] is the same loop with a callback that sees
//! the distribution after every step, for measurements the
//! [`Replication`] does not keep (first threshold crossings, tail
//! shares, per-step minima). Both take the dynamics by value, and
//! `&mut D` and `Box<dyn GroupDynamics>` are dynamics too, so a caller
//! can lend a runtime to the loop and read its own counters afterwards.
//!
//! # Example
//!
//! ```
//! use sociolearn_core::{BernoulliRewards, FinitePopulation, Params};
//! use sociolearn_sim::{replicate, run_one, RunConfig};
//!
//! let params = Params::new(3, 0.6)?;
//! let cfg = RunConfig::new(params.min_horizon());
//! let results = replicate(8, 42, |seed| {
//!     run_one(
//!         FinitePopulation::new(params, 1_000),
//!         BernoulliRewards::one_good(3, 0.9).unwrap(),
//!         &cfg,
//!         seed,
//!     )
//! });
//! assert_eq!(results.len(), 8);
//! # Ok::<(), sociolearn_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod measure;
mod parallel;
mod pool;
mod runner;
mod seeds;

pub use measure::{aggregate_curves, AggregatedCurve, CurvePoints};
pub use parallel::{parallel_map, replicate};
pub use pool::WorkerPool;
pub use runner::{run_observed, run_one, Replication, RunConfig};
pub use seeds::{SeedTree, SplitMix64};
