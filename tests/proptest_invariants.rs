//! Property-based invariants across the workspace: for arbitrary valid
//! parameters and reward sequences, every dynamics maintains a valid
//! distribution, counts conserve, and the analytic helpers obey their
//! algebraic identities.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn::core::{
    assert_distribution, ratio_deviation, sample_categorical, sample_multinomial, tv_distance,
    AgentPopulation, AliasTable, FinitePopulation, GroupDynamics, InfiniteDynamics, Params,
    StochasticMwu,
};
use sociolearn::dist::{
    DistConfig, EventRuntime, FaultPlan, RoundMetrics, Runtime, SchedulerKind, StalenessBound,
};
use sociolearn::stats::Summary;

/// Strategy: valid model parameters (alpha <= beta enforced).
fn params_strategy() -> impl Strategy<Value = Params> {
    (2usize..8, 0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(m, beta, frac, mu)| {
        let alpha = beta * frac;
        Params::with_all(m, beta, alpha, mu).expect("constructed within bounds")
    })
}

/// Strategy: a reward sequence of the given width.
fn rewards_strategy(m: usize, steps: usize) -> impl Strategy<Value = Vec<Vec<bool>>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), m), steps)
}

/// Build a conflict-free membership script: optional flash-crowd joins
/// on the last `flash` ids, plus leave→rejoin pairs on distinct stable
/// nodes drawn from the raw churn tuples.
fn membership_plan(
    n: usize,
    drop: f64,
    flash: usize,
    churn: &[(usize, u64, u64)],
) -> (FaultPlan, usize) {
    let flash = flash.min(n.saturating_sub(2));
    let mut fault = FaultPlan::with_drop_prob(drop).expect("valid drop prob");
    if flash > 0 {
        fault = fault.flash_crowd(flash, 3);
    }
    let stable = n - flash;
    let mut used = std::collections::HashSet::new();
    for &(node, round, gap) in churn {
        let node = node % stable;
        if !used.insert(node) {
            continue;
        }
        fault = fault.leave(node, round).rejoin(node, round + gap);
    }
    (fault, n - flash)
}

/// Drive one runtime through `steps` rounds and check the
/// membership-aware invariants: `alive` follows exact conservation
/// (previous alive + joins + rejoins − leaves — it may now *increase*),
/// commits never exceed the live population, and the bootstrapping
/// gauge stays within it. Returns the cumulative (joins, leaves,
/// rejoins) flow so callers can compare runtimes against each other.
fn check_membership_run<F: FnMut(&[bool]) -> RoundMetrics>(
    mut step: F,
    initial_alive: usize,
    n: usize,
    m: usize,
    steps: usize,
    seed: u64,
    barriered: bool,
) -> Result<(u64, u64, u64), TestCaseError> {
    let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0xC0DE);
    let mut expected = initial_alive;
    let mut totals = (0u64, 0u64, 0u64);
    for _ in 0..steps {
        let rewards: Vec<bool> = (0..m)
            .map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5))
            .collect();
        let rm = step(&rewards);
        expected = expected + rm.joins as usize + rm.rejoins as usize - rm.leaves as usize;
        prop_assert_eq!(
            rm.alive,
            expected,
            "round {}: alive must equal previous alive + joins + rejoins - leaves",
            rm.round
        );
        prop_assert!(rm.alive <= n);
        prop_assert!(rm.bootstrapping <= rm.alive as u64);
        if barriered {
            prop_assert!(rm.committed <= rm.alive);
            // Barriered execution resolves every bootstrap within its
            // round, so the gauge equals the inbound flow.
            prop_assert_eq!(rm.bootstrapping, rm.joins + rm.rejoins);
        } else {
            // Async ticks may land several catch-up epochs at once, so
            // commits are bounded by resolved stage-1 outcomes instead
            // of the instantaneous population.
            prop_assert!(
                (rm.committed as u64) <= rm.explorations + rm.fallbacks + rm.replies_received
            );
        }
        totals.0 += rm.joins;
        totals.1 += rm.leaves;
        totals.2 += rm.rejoins;
    }
    Ok(totals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn finite_population_invariants(
        params in params_strategy(),
        seed in any::<u64>(),
        steps in 1usize..30,
        n in 1usize..500,
    ) {
        let m = params.num_options();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pop = FinitePopulation::new(params, n);
        let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..steps {
            let rewards: Vec<bool> = (0..m).map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5)).collect();
            let rec = pop.step_detailed(&rewards, &mut rng);
            prop_assert_eq!(rec.sampled.iter().sum::<u64>(), n as u64);
            prop_assert!(rec.total_committed() <= n as u64);
            for (s, d) in rec.sampled.iter().zip(&rec.committed) {
                prop_assert!(d <= s);
            }
            assert_distribution(&pop.distribution(), 1e-9);
        }
    }

    #[test]
    fn agent_population_invariants(
        params in params_strategy(),
        seed in any::<u64>(),
        steps in 1usize..20,
        n in 1usize..200,
    ) {
        let m = params.num_options();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pop = AgentPopulation::new(params, n);
        let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..steps {
            let rewards: Vec<bool> = (0..m).map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5)).collect();
            pop.step(&rewards, &mut rng);
            assert_distribution(&pop.distribution(), 1e-9);
            let committed: u64 = pop.counts().iter().sum();
            prop_assert_eq!(committed, pop.choices().iter().flatten().count() as u64);
        }
    }

    #[test]
    fn infinite_and_mwu_identical_for_any_rewards(
        params in params_strategy(),
        rewards in rewards_strategy(4, 25),
    ) {
        // Re-map params to m=4 to match the reward width.
        let params = Params::with_all(4, params.beta().max(0.01), params.alpha().min(params.beta().max(0.01)), params.mu())
            .expect("valid");
        // Skip the degenerate case where both adopt probabilities are 0
        // (weights collapse to zero and the distribution is undefined).
        prop_assume!(params.alpha() > 0.0 || params.beta() > 0.0);
        let mut inf = InfiniteDynamics::new(params);
        let mut mwu = StochasticMwu::new(params);
        for row in &rewards {
            // All-false rewards with alpha == 0 kill every weight; the
            // paper's regime always has alpha > 0, so skip those rows.
            if params.alpha() == 0.0 && row.iter().all(|&r| !r) {
                continue;
            }
            inf.step_rewards(row);
            mwu.step_rewards(row);
            let a = inf.distribution();
            let b = mwu.distribution();
            assert_distribution(&a, 1e-9);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9, "divergence: {} vs {}", x, y);
            }
        }
    }

    #[test]
    fn deviation_metrics_algebra(
        p in proptest::collection::vec(0.01f64..1.0, 4),
        q in proptest::collection::vec(0.01f64..1.0, 4),
    ) {
        // Normalize into distributions.
        let zp: f64 = p.iter().sum();
        let zq: f64 = q.iter().sum();
        let p: Vec<f64> = p.iter().map(|x| x / zp).collect();
        let q: Vec<f64> = q.iter().map(|x| x / zq).collect();

        let dev_pq = ratio_deviation(&p, &q);
        let dev_qp = ratio_deviation(&q, &p);
        prop_assert!((dev_pq - dev_qp).abs() < 1e-12, "ratio deviation must be symmetric");
        prop_assert!(dev_pq >= 0.0);
        prop_assert!(ratio_deviation(&p, &p).abs() < 1e-12);

        let tv = tv_distance(&p, &q);
        prop_assert!((0.0..=1.0).contains(&tv));
        prop_assert!((tv - tv_distance(&q, &p)).abs() < 1e-12);
        // TV is dominated by the multiplicative deviation:
        // |p - q| <= dev * min(p, q) pointwise.
        prop_assert!(tv <= dev_pq / 2.0 * 4.0 + 1e-9);
    }

    #[test]
    fn multinomial_conserves_and_respects_support(
        n in 0u64..5_000,
        weights in proptest::collection::vec(0.0f64..10.0, 2..8),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = vec![0u64; weights.len()];
        sample_multinomial(&mut rng, n, &weights, &mut out);
        prop_assert_eq!(out.iter().sum::<u64>(), n);
        for (w, &count) in weights.iter().zip(&out) {
            if *w == 0.0 {
                prop_assert_eq!(count, 0, "zero-weight category drawn");
            }
        }
    }

    #[test]
    fn multinomial_conserves_with_interleaved_zero_weights(
        n in 0u64..5_000,
        // Each slot is independently forced to an exact 0.0 or given a
        // positive weight, so zeros land at every position — including
        // the trailing positions the drifted-mass fallback used to
        // dump leftover trials on.
        slots in proptest::collection::vec((any::<bool>(), 0.01f64..10.0), 2..10),
        seed in any::<u64>(),
    ) {
        let weights: Vec<f64> = slots
            .iter()
            .map(|&(zero, w)| if zero { 0.0 } else { w })
            .collect();
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = vec![0u64; weights.len()];
        sample_multinomial(&mut rng, n, &weights, &mut out);
        prop_assert_eq!(out.iter().sum::<u64>(), n, "trials not conserved");
        for (w, &count) in weights.iter().zip(&out) {
            if *w == 0.0 {
                prop_assert_eq!(count, 0, "zero-weight category drawn");
            }
        }
    }

    #[test]
    fn categorical_never_returns_zero_weight(
        slots in proptest::collection::vec((any::<bool>(), 0.01f64..10.0), 1..10),
        seed in any::<u64>(),
    ) {
        let weights: Vec<f64> = slots
            .iter()
            .map(|&(zero, w)| if zero { 0.0 } else { w })
            .collect();
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = sample_categorical(&mut rng, &weights);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "drew zero-weight category {}", i);
        }
    }

    #[test]
    fn alias_table_respects_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..16),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let table = AliasTable::new(&weights).expect("positive total");
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = table.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {}", i);
        }
    }

    #[test]
    fn params_bounds_consistent(beta in 0.501f64..0.731) {
        let p = Params::new(5, beta).expect("valid beta");
        // delta and beta are inverse through the logistic map.
        let d = p.delta();
        let back = d.exp() / (1.0 + d.exp());
        prop_assert!((back - beta).abs() < 1e-9);
        // Bounds scale consistently.
        prop_assert!((p.regret_bound_finite() - 2.0 * p.regret_bound_infinite()).abs() < 1e-12);
        // Horizons: floor start needs at least as long as uniform.
        prop_assert!(p.epoch_length() >= p.min_horizon());
        // The default mu respects the regime.
        prop_assert!(p.in_theorem_regime().is_ok());
    }

    #[test]
    fn dist_runtime_invariants(
        seed in any::<u64>(),
        m in 2usize..5,
        n in 1usize..80,
        steps in 1usize..15,
        drop in 0.0f64..=1.0,
        crashes in proptest::collection::vec((0usize..80, 1u64..15), 0..6),
    ) {
        let params = Params::new(m, 0.65).expect("valid");
        let mut fault = FaultPlan::with_drop_prob(drop).expect("valid drop prob");
        for (node, round) in crashes {
            fault = fault.crash(node % n, round);
        }
        let mut net = Runtime::new(DistConfig::new(params, n).with_faults(fault), seed);
        let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..steps {
            let rewards: Vec<bool> =
                (0..m).map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5)).collect();
            let rm = net.round(&rewards);
            // Round metrics are mutually consistent.
            prop_assert!(rm.committed <= rm.alive);
            prop_assert!(rm.alive <= n);
            prop_assert!(rm.replies_received <= rm.queries_sent);
            // The distribution is always a distribution, committed or
            // not (uniform fallback when nobody is committed).
            assert_distribution(&net.distribution(), 1e-9);
        }
        let totals = net.metrics();
        prop_assert_eq!(totals.rounds, steps as u64);
        prop_assert!(totals.replies_received <= totals.queries_sent);
    }

    #[test]
    fn event_runtime_invariants(
        seed in any::<u64>(),
        m in 2usize..5,
        n in 1usize..80,
        steps in 1usize..15,
        drop in 0.0f64..=1.0,
        crashes in proptest::collection::vec((0usize..80, 1u64..15), 0..6),
    ) {
        let params = Params::new(m, 0.65).expect("valid");
        let mut fault = FaultPlan::with_drop_prob(drop).expect("valid drop prob");
        for (node, round) in crashes {
            fault = fault.crash(node % n, round);
        }
        let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), seed);
        let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..steps {
            let rewards: Vec<bool> =
                (0..m).map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5)).collect();
            let rm = net.tick(&rewards);
            // Round metrics are mutually consistent.
            prop_assert!(rm.committed <= rm.alive);
            prop_assert!(rm.alive <= n);
            // The O(1) running counter now reports next epoch's
            // population, which crashes can only shrink.
            prop_assert!(rm.alive >= net.alive_count());
            prop_assert!(rm.replies_received <= rm.queries_sent);
            prop_assert!(rm.queries_sent <= (n as u64) * 8);
            // Every alive node resolves stage 1 exactly once per epoch.
            prop_assert!(
                rm.explorations + rm.fallbacks + rm.replies_received >= rm.alive as u64
            );
            // The distribution is always a distribution, committed or
            // not (uniform fallback when nobody is committed).
            assert_distribution(&net.distribution(), 1e-9);
        }
        let totals = net.metrics();
        prop_assert_eq!(totals.rounds, steps as u64);
        prop_assert!(totals.replies_received <= totals.queries_sent);
    }

    #[test]
    fn async_event_runtime_invariants(
        seed in any::<u64>(),
        m in 2usize..5,
        n in 1usize..60,
        steps in 1usize..12,
        drop in 0.0f64..=1.0,
        // 0..6 are finite staleness bounds; 6 encodes `Unbounded`.
        raw_bound in 0u64..7,
        crashes in proptest::collection::vec((0usize..60, 1u64..12), 0..4),
    ) {
        let params = Params::new(m, 0.65).expect("valid");
        let mut fault = FaultPlan::with_drop_prob(drop).expect("valid drop prob");
        for (node, round) in crashes {
            fault = fault.crash(node % n, round);
        }
        let bound = (raw_bound < 6).then_some(raw_bound);
        let sb = bound.map_or(StalenessBound::Unbounded, StalenessBound::Epochs);
        let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), seed)
            .with_async_epochs(sb);
        let mut reward_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut prev_epochs: Vec<u64> = vec![0; n];
        for t in 1..=steps as u64 {
            let rewards: Vec<bool> =
                (0..m).map(|_| rand::Rng::gen_bool(&mut reward_rng, 0.5)).collect();
            let rm = net.tick(&rewards);
            // Per-node local epochs are monotone and capped by the
            // cadence (about one epoch per tick, never more than a
            // couple ahead of the tick count).
            for (i, prev) in prev_epochs.iter_mut().enumerate() {
                let e = net.local_epoch(i);
                prop_assert!(e >= *prev, "node {i} epoch went backwards");
                prop_assert!(e <= t + 2, "node {i} outran the cadence");
                *prev = e;
            }
            // An unbounded staleness bound never withholds a reply.
            if bound.is_none() {
                prop_assert_eq!(rm.stale_replies, 0);
            }
            // Every commit comes from a resolved stage 1.
            prop_assert!(
                (rm.committed as u64) <= rm.explorations + rm.fallbacks + rm.replies_received
            );
            prop_assert!(rm.replies_received <= rm.queries_sent);
            // The distribution is always a distribution, whatever mix
            // of local epochs the fleet is spread over.
            assert_distribution(&net.distribution(), 1e-9);
        }
        let totals = net.metrics();
        prop_assert_eq!(totals.rounds, steps as u64);
        prop_assert!(totals.replies_received <= totals.queries_sent);
        if bound.is_none() {
            prop_assert_eq!(totals.stale_replies, 0);
        }
    }

    #[test]
    fn async_event_runtime_deterministic_for_fixed_seed(
        seed in any::<u64>(),
        n in 1usize..50,
        drop in 0.0f64..=0.9,
        // 0..4 are finite staleness bounds; 4 encodes `Unbounded`.
        raw_bound in 0u64..5,
    ) {
        let params = Params::new(3, 0.6).expect("valid");
        let sb = if raw_bound < 4 {
            StalenessBound::Epochs(raw_bound)
        } else {
            StalenessBound::Unbounded
        };
        let run = |seed: u64| {
            let fault = FaultPlan::with_drop_prob(drop).expect("valid").crash(0, 5);
            let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), seed)
                .with_async_epochs(sb);
            let mut dists = Vec::new();
            for t in 0..10u64 {
                net.tick(&[t % 2 == 0, t % 3 == 0, true]);
                dists.push(net.distribution());
            }
            (dists, net.metrics())
        };
        let (da, ma) = run(seed);
        let (db, mb) = run(seed);
        prop_assert_eq!(da, db, "same seed must reproduce the trajectory");
        prop_assert_eq!(ma, mb, "same seed must reproduce the message counters");
    }

    #[test]
    fn event_runtime_deterministic_for_fixed_seed(
        seed in any::<u64>(),
        n in 1usize..60,
        drop in 0.0f64..=0.9,
    ) {
        let params = Params::new(3, 0.6).expect("valid");
        let run = |seed: u64| {
            let fault = FaultPlan::with_drop_prob(drop).expect("valid").crash(0, 5);
            let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), seed);
            let mut dists = Vec::new();
            for t in 0..10u64 {
                net.tick(&[t % 2 == 0, t % 3 == 0, true]);
                dists.push(net.distribution());
            }
            (dists, net.metrics())
        };
        let (da, ma) = run(seed);
        let (db, mb) = run(seed);
        prop_assert_eq!(da, db, "same seed must reproduce the trajectory");
        prop_assert_eq!(ma, mb, "same seed must reproduce the message counters");
    }

    #[test]
    fn dist_runtime_deterministic_for_fixed_seed(
        seed in any::<u64>(),
        n in 1usize..60,
        drop in 0.0f64..=0.9,
    ) {
        let params = Params::new(3, 0.6).expect("valid");
        let run = |seed: u64| {
            let fault = FaultPlan::with_drop_prob(drop).expect("valid").crash(0, 5);
            let mut net = Runtime::new(DistConfig::new(params, n).with_faults(fault), seed);
            let mut dists = Vec::new();
            for t in 0..10u64 {
                net.round(&[t % 2 == 0, t % 3 == 0, true]);
                dists.push(net.distribution());
            }
            (dists, net.metrics())
        };
        let (da, ma) = run(seed);
        let (db, mb) = run(seed);
        prop_assert_eq!(da, db, "same seed must reproduce the trajectory");
        prop_assert_eq!(ma, mb, "same seed must reproduce the message counters");
    }

    #[test]
    fn membership_script_conservation_across_runtimes(
        seed in any::<u64>(),
        m in 2usize..5,
        n in 4usize..48,
        steps in 1usize..14,
        drop in 0.0f64..=0.6,
        flash in 0usize..4,
        churn in proptest::collection::vec((0usize..1000, 1u64..10, 1u64..5), 0..6),
    ) {
        let params = Params::new(m, 0.65).expect("valid");
        let (fault, initial_alive) = membership_plan(n, drop, flash, &churn);
        let cfg = DistConfig::new(params, n).with_faults(fault);

        // Round-synchronous reference.
        let mut sync = Runtime::new(cfg.clone(), seed);
        let t_sync = check_membership_run(
            |r| sync.round(r), initial_alive, n, m, steps, seed, true,
        )?;
        // Quiesced event-driven runtime, one shard (the default).
        let mut ev = EventRuntime::new(cfg.clone(), seed);
        let t_ev = check_membership_run(
            |r| ev.tick(r), initial_alive, n, m, steps, seed, true,
        )?;
        // Quiesced event-driven runtime, three shards.
        let mut sh = EventRuntime::new(cfg.clone(), seed)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 3 });
        let t_sh = check_membership_run(
            |r| sh.tick(r), initial_alive, n, m, steps, seed, true,
        )?;
        // Fully-async execution: bootstraps may straddle rounds, so
        // only the gauge bound applies, not the barriered identity.
        let mut async_ev = EventRuntime::new(cfg, seed)
            .with_async_epochs(StalenessBound::Epochs(2));
        let t_async = check_membership_run(
            |r| async_ev.tick(r), initial_alive, n, m, steps, seed, false,
        )?;

        // The script is data, not chance: every execution model must
        // observe the exact same membership flows.
        prop_assert_eq!(t_sync, t_ev);
        prop_assert_eq!(t_sync, t_sh);
        prop_assert_eq!(t_sync, t_async);
        // Cumulative metrics agree with the per-round flows.
        let totals = sync.metrics();
        prop_assert_eq!((totals.joins, totals.leaves, totals.rejoins), t_sync);
    }

    #[test]
    fn summary_quantiles_monotone(data in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let s = Summary::from_slice(&data);
        let mut prev = s.quantile(0.0);
        for i in 1..=10 {
            let q = s.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev - 1e-9);
            prev = q;
        }
        prop_assert_eq!(s.quantile(0.0), s.min());
        prop_assert_eq!(s.quantile(1.0), s.max());
        prop_assert!(s.ci(0.95).contains(s.mean()));
    }
}
