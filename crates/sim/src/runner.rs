//! Single-replication execution.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{GroupDynamics, History, RegretCurve, RegretTracker, RewardModel};

/// Configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of steps `T`.
    pub horizon: u64,
    /// Stride for storing distribution snapshots and regret-curve
    /// points (1 = every step).
    pub record_stride: u64,
}

impl RunConfig {
    /// A config with the given horizon, recording ~200 evenly spaced
    /// points (at least every step).
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    pub fn new(horizon: u64) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        RunConfig {
            horizon,
            record_stride: (horizon / 200).max(1),
        }
    }

    /// Overrides the record stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn with_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.record_stride = stride;
        self
    }
}

/// Everything measured in one replication.
#[derive(Debug, Clone)]
pub struct Replication {
    /// The seed the run used.
    pub seed: u64,
    /// Whole-run regret accounting.
    pub tracker: RegretTracker,
    /// `Regret(T)` at the recorded horizons.
    pub curve: RegretCurve,
    /// Share of the best option at the recorded horizons.
    pub best_share_curve: RegretCurve,
    /// Distribution snapshots.
    pub history: History,
}

/// Runs `dynamics` against `env` for `cfg.horizon` steps from the
/// given seed.
///
/// The regret benchmark `(η₁, best index)` is taken from the
/// environment *at the start* (the paper's setting has fixed
/// qualities; for drifting environments the share curves are the
/// meaningful output and the fixed benchmark is documented as
/// start-time). Environments with unknown qualities (traces) get a
/// benchmark of the realized best-option frequency — callers that
/// care should compute their own benchmark.
///
/// To lend a population and read its state afterwards, pass
/// `&mut population`; to watch every step, use [`run_observed`].
///
/// # Panics
///
/// Panics if the dynamics and environment disagree on the number of
/// options.
pub fn run_one<D, M>(dynamics: D, env: M, cfg: &RunConfig, seed: u64) -> Replication
where
    D: GroupDynamics,
    M: RewardModel,
{
    run_observed(dynamics, env, cfg, seed, |_, _| {})
}

/// [`run_one`], calling `observe(t, dist)` with the distribution after
/// every step `t` (`t = 0` is the start, before any step).
///
/// The observer sees each step's distribution whether or not the step
/// is recorded, and draws nothing: the run consumes exactly the random
/// numbers [`run_one`] does, so both return equal replications.
///
/// # Panics
///
/// Panics if the dynamics and environment disagree on the number of
/// options.
pub fn run_observed<D, M>(
    mut dynamics: D,
    mut env: M,
    cfg: &RunConfig,
    seed: u64,
    mut observe: impl FnMut(u64, &[f64]),
) -> Replication
where
    D: GroupDynamics,
    M: RewardModel,
{
    let m = dynamics.num_options();
    assert_eq!(
        m,
        env.num_options(),
        "dynamics/environment option count mismatch"
    );
    let mut rng = SmallRng::seed_from_u64(seed);

    let best_index = env.best_index().unwrap_or(0);
    let best_quality = env.best_quality().unwrap_or(1.0).clamp(0.0, 1.0);
    let mut tracker = RegretTracker::new(best_quality, best_index);
    let mut curve = RegretCurve::new();
    let mut best_share_curve = RegretCurve::new();
    let mut history = History::new(cfg.record_stride);

    // `dist` holds `Q^{t-1}` going into step `t` and `Q^t` after it.
    let mut dist = vec![0.0; m];
    let mut rewards = vec![false; m];
    dynamics.write_distribution(&mut dist);
    history.record(0, &dist);
    observe(0, &dist);

    for t in 1..=cfg.horizon {
        env.sample(t, &mut rng, &mut rewards);
        dynamics.step(&rewards, &mut rng);
        tracker.record(&dist, &rewards, env.qualities());
        dynamics.write_distribution(&mut dist);
        if t % cfg.record_stride == 0 || t == cfg.horizon {
            curve.push(t, tracker.average_regret());
            best_share_curve.push(t, tracker.average_best_share());
            history.record(t, &dist);
        }
        observe(t, &dist);
    }

    Replication {
        seed,
        tracker,
        curve,
        best_share_curve,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sociolearn_core::{BernoulliRewards, FinitePopulation, InfiniteDynamics, Params};

    fn params() -> Params {
        Params::new(3, 0.6).unwrap()
    }

    #[test]
    fn run_produces_consistent_measurements() {
        let cfg = RunConfig::new(100).with_stride(10);
        let rep = run_one(
            FinitePopulation::new(params(), 500),
            BernoulliRewards::one_good(3, 0.9).unwrap(),
            &cfg,
            7,
        );
        assert_eq!(rep.tracker.steps(), 100);
        assert_eq!(rep.curve.horizons.last(), Some(&100));
        assert_eq!(rep.curve.len(), rep.best_share_curve.len());
        // history: t=0 plus every 10th step.
        assert_eq!(rep.history.times().first(), Some(&0));
        assert_eq!(rep.history.times().last(), Some(&100));
        assert_eq!(rep.seed, 7);
    }

    #[test]
    fn same_seed_same_result() {
        let cfg = RunConfig::new(50);
        let a = run_one(
            FinitePopulation::new(params(), 200),
            BernoulliRewards::one_good(3, 0.8).unwrap(),
            &cfg,
            3,
        );
        let b = run_one(
            FinitePopulation::new(params(), 200),
            BernoulliRewards::one_good(3, 0.8).unwrap(),
            &cfg,
            3,
        );
        assert_eq!(a.tracker.average_regret(), b.tracker.average_regret());
        assert_eq!(a.curve.values, b.curve.values);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RunConfig::new(50);
        let a = run_one(
            FinitePopulation::new(params(), 200),
            BernoulliRewards::one_good(3, 0.8).unwrap(),
            &cfg,
            1,
        );
        let b = run_one(
            FinitePopulation::new(params(), 200),
            BernoulliRewards::one_good(3, 0.8).unwrap(),
            &cfg,
            2,
        );
        assert_ne!(a.tracker.average_regret(), b.tracker.average_regret());
    }

    #[test]
    fn infinite_dynamics_regret_decays() {
        let p = params();
        let long = 40 * p.min_horizon();
        let cfg = RunConfig::new(long);
        let rep = run_one(
            InfiniteDynamics::new(p),
            BernoulliRewards::one_good(3, 0.9).unwrap(),
            &cfg,
            11,
        );
        // Theorem 4.3 with slack for one seed at modest T.
        assert!(
            rep.tracker.average_regret() <= p.regret_bound_infinite(),
            "regret {} above 3 delta {}",
            rep.tracker.average_regret(),
            p.regret_bound_infinite()
        );
    }

    #[test]
    fn observer_sees_every_step_in_order() {
        let cfg = RunConfig::new(30).with_stride(7);
        let mut seen = Vec::new();
        let rep = run_observed(
            FinitePopulation::new(params(), 300),
            BernoulliRewards::one_good(3, 0.9).unwrap(),
            &cfg,
            5,
            |t, dist| seen.push((t, dist.to_vec())),
        );
        assert_eq!(
            seen.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            (0..=30).collect::<Vec<_>>()
        );
        // At the recorded steps the observer saw the stored snapshots.
        let at_recorded: Vec<Vec<f64>> = rep
            .history
            .times()
            .iter()
            .map(|&t| seen[t as usize].1.clone())
            .collect();
        assert_eq!(rep.history.times(), &[0, 7, 14, 21, 28]);
        assert_eq!(at_recorded, rep.history.snapshots());
    }

    #[test]
    fn observing_changes_nothing() {
        let cfg = RunConfig::new(60).with_stride(4);
        let make = || {
            (
                FinitePopulation::new(params(), 400),
                BernoulliRewards::one_good(3, 0.8).unwrap(),
            )
        };
        let (pop, env) = make();
        let plain = run_one(pop, env, &cfg, 9);
        let (pop, env) = make();
        let mut steps = 0;
        let observed = run_observed(pop, env, &cfg, 9, |_, _| steps += 1);
        assert_eq!(steps, 61);
        assert_eq!(plain.tracker, observed.tracker);
        assert_eq!(plain.curve, observed.curve);
        assert_eq!(plain.best_share_curve, observed.best_share_curve);
        assert_eq!(plain.history, observed.history);
    }

    #[test]
    fn lent_population_keeps_its_state() {
        let cfg = RunConfig::new(20);
        let mut pop = FinitePopulation::new(params(), 200);
        let rep = run_one(
            &mut pop,
            BernoulliRewards::one_good(3, 0.9).unwrap(),
            &cfg,
            4,
        );
        assert_eq!(rep.history.snapshots().last(), Some(&pop.distribution()));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn option_count_mismatch_rejected() {
        let cfg = RunConfig::new(10);
        run_one(
            FinitePopulation::new(params(), 100),
            BernoulliRewards::one_good(5, 0.9).unwrap(),
            &cfg,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_rejected() {
        RunConfig::new(0);
    }
}
