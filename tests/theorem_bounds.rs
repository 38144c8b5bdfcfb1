//! Integration checks of the paper's quantitative statements at test
//! scale (the full-size versions live in the E1–E19 experiment suite).

use sociolearn::core::{
    BernoulliRewards, CoupledRun, EpochRegret, EpochSchedule, FinitePopulation, InfiniteDynamics,
    Params, BETA_MAX,
};
use sociolearn::sim::{replicate, run_one, RunConfig};
use sociolearn::stats::mean;

#[test]
fn theorem_4_3_bound_across_betas() {
    for &beta in &[0.55, 0.6, 0.7, BETA_MAX] {
        let m = 8;
        let params = Params::new(m, beta).unwrap();
        let env = BernoulliRewards::one_good(m, 0.9).unwrap();
        let cfg = RunConfig::new(params.min_horizon());
        let finals = replicate(16, 42, |seed| {
            run_one(InfiniteDynamics::new(params), env.clone(), &cfg, seed)
                .tracker
                .average_regret()
        });
        let regret = mean(&finals);
        assert!(
            regret <= params.regret_bound_infinite(),
            "beta={beta}: regret {regret} > bound {}",
            params.regret_bound_infinite()
        );
    }
}

#[test]
fn theorem_4_4_bound_for_large_population() {
    let m = 8;
    let params = Params::new(m, 0.6).unwrap();
    let env = BernoulliRewards::one_good(m, 0.9).unwrap();
    for factor in [1u64, 10] {
        let cfg = RunConfig::new(factor * params.min_horizon());
        let finals = replicate(12, 7, |seed| {
            run_one(
                FinitePopulation::new(params, 20_000),
                env.clone(),
                &cfg,
                seed,
            )
            .tracker
            .average_regret()
        });
        let regret = mean(&finals);
        assert!(
            regret <= params.regret_bound_finite(),
            "T factor {factor}: regret {regret} > 6 delta {}",
            params.regret_bound_finite()
        );
    }
}

#[test]
fn theorem_4_3_part2_best_share_bound() {
    let params = Params::new(2, 0.53).unwrap();
    let gap = 0.5f64;
    let env = BernoulliRewards::new(vec![0.9, 0.9 - gap]).unwrap();
    let cfg = RunConfig::new(8 * params.min_horizon());
    let shares = replicate(16, 3, |seed| {
        run_one(InfiniteDynamics::new(params), env.clone(), &cfg, seed)
            .tracker
            .average_best_share()
    });
    let bound = 1.0 - 3.0 * params.delta() / gap;
    assert!(bound > 0.0, "test must use a non-vacuous bound");
    assert!(
        mean(&shares) >= bound,
        "avg best share {} below bound {bound}",
        mean(&shares)
    );
}

#[test]
fn lemma_4_5_deviation_grows_with_t_and_shrinks_with_n() {
    let params = Params::new(3, 0.6).unwrap();
    let env = BernoulliRewards::linear(3, 0.9, 0.3).unwrap();
    let horizon = 8;

    let mean_dev = |n: usize, seed_base: u64| -> Vec<f64> {
        let reps = 12u64;
        let all: Vec<Vec<f64>> = replicate(reps, seed_base, |seed| {
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            let mut run = CoupledRun::new(params, n);
            run.run(env.clone(), horizon, &mut rng)
                .deviations
                .into_iter()
                .map(|d| if d.is_finite() { d } else { 2.0 })
                .collect()
        });
        (0..horizon as usize)
            .map(|t| all.iter().map(|d| d[t]).sum::<f64>() / reps as f64)
            .collect()
    };

    let small = mean_dev(500, 11);
    let large = mean_dev(50_000, 13);
    // Shrinks with N at every horizon.
    for t in 0..horizon as usize {
        assert!(
            large[t] < small[t] + 0.02,
            "t={}: large-N deviation {} vs small-N {}",
            t + 1,
            large[t],
            small[t]
        );
    }
    // Grows with t (endpoints suffice; the paths are noisy in between).
    assert!(large[horizon as usize - 1] > large[0]);
    // And stays within the lemma's bound at t=1 for the large run.
    assert!(large[0] <= params.coupling_deviation_bound(50_000, 1));
}

#[test]
fn theorem_4_6_nonuniform_start() {
    let m = 6;
    let params = Params::new(m, 0.6).unwrap();
    let zeta = params.popularity_floor();
    // Mass on the worst option, zeta sliver everywhere else.
    let mut start = vec![zeta; m];
    start[m - 1] = 1.0 - zeta * (m - 1) as f64;
    let env = BernoulliRewards::one_good(m, 0.9).unwrap();
    let cfg = RunConfig::new(params.min_horizon_from_floor(zeta));
    let finals = replicate(16, 5, |seed| {
        run_one(
            InfiniteDynamics::from_distribution(params, start.clone()),
            env.clone(),
            &cfg,
            seed,
        )
        .tracker
        .average_regret()
    });
    assert!(
        mean(&finals) <= params.regret_bound_infinite(),
        "nonuniform-start regret {} above 3 delta {}",
        mean(&finals),
        params.regret_bound_infinite()
    );
}

#[test]
fn epoch_decomposition_bounds_every_epoch() {
    // Run the finite dynamics for several epochs; each epoch's average
    // regret (the quantity the large-T proof sums) stays within the
    // finite bound.
    use sociolearn::core::{GroupDynamics, RewardModel};
    let m = 5;
    let params = Params::new(m, 0.6).unwrap();
    let schedule = EpochSchedule::for_params(&params);
    let mut env = BernoulliRewards::one_good(m, 0.9).unwrap();
    let mut pop = FinitePopulation::new(params, 20_000);
    let mut acc = EpochRegret::new(schedule, 0.9, 0);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(8);
    let mut rewards = vec![false; m];
    let horizon = 3 * schedule.epoch_len();
    for t in 1..=horizon {
        let before = pop.distribution();
        env.sample(t, &mut rng, &mut rewards);
        pop.step(&rewards, &mut rng);
        acc.record(&before, &rewards, env.qualities());
    }
    let per_epoch = acc.per_epoch_regret();
    assert_eq!(per_epoch.len(), 3);
    for (e, r) in per_epoch.iter().enumerate() {
        assert!(
            *r <= params.regret_bound_finite(),
            "epoch {e} regret {r} above 6 delta"
        );
    }
    assert!(acc.total().average_regret() <= params.regret_bound_finite());
}

#[test]
fn tuned_beta_beats_generic_beta_at_long_horizon() {
    let m = 10;
    let t = 20_000u64;
    let env = BernoulliRewards::one_good(m, 0.9).unwrap();
    let cfg = RunConfig::new(t);

    let tuned = Params::new(m, Params::tuned_beta(m, t)).unwrap();
    let generic = Params::new(m, 0.7).unwrap();

    let regret = |p: Params, base: u64| {
        let finals = replicate(8, base, |seed| {
            run_one(InfiniteDynamics::new(p), env.clone(), &cfg, seed)
                .tracker
                .average_regret()
        });
        mean(&finals)
    };
    let r_tuned = regret(tuned, 1);
    let r_generic = regret(generic, 2);
    assert!(
        r_tuned < r_generic,
        "tuned beta should win at T={t}: {r_tuned} vs {r_generic}"
    );
}
