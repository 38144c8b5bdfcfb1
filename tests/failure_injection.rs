//! Failure-injection and edge-regime tests: the implementations stay
//! well-defined under pathological networks, total message loss, mass
//! crashes, absorbing parameter regimes, and degenerate environments.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn::core::{
    assert_distribution, BernoulliRewards, FinitePopulation, GroupDynamics, Params, RewardModel,
};
use sociolearn::dist::{DistConfig, EventRuntime, FaultPlan, Runtime};
use sociolearn::env::PeriodicRewards;
use sociolearn::graph::Graph;
use sociolearn::network::NetworkPopulation;

#[test]
fn dist_total_message_loss_degrades_to_adoption_only() {
    let params = Params::new(2, 0.65).unwrap();
    let cfg = DistConfig::new(params, 300).with_faults(FaultPlan::with_drop_prob(1.0).unwrap());
    let mut net = Runtime::new(cfg, 1);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    let mut share = 0.0;
    for t in 1..=100 {
        env.sample(t, &mut rng, &mut rewards);
        net.round(&rewards);
        share += net.distribution()[0];
    }
    share /= 100.0;
    assert_distribution(&net.distribution(), 1e-12);
    // Adoption-only keeps a quality-proportional split, clearly above
    // 1/2 but below a converged population.
    assert!(share > 0.55 && share < 0.95, "share {share}");
    assert_eq!(net.metrics().replies_received, 0);
}

#[test]
fn dist_all_nodes_crash_is_silent_but_defined() {
    let mut fault = FaultPlan::none();
    for i in 0..50 {
        fault = fault.crash(i, 1);
    }
    let params = Params::new(2, 0.65).unwrap();
    let mut net = Runtime::new(DistConfig::new(params, 50).with_faults(fault), 3);
    for _ in 0..10 {
        let rm = net.round(&[true, false]);
        assert_eq!(rm.alive, 0);
        assert_eq!(rm.committed, 0);
        assert_eq!(rm.queries_sent, 0);
    }
    // Distribution falls back to uniform once nobody is committed.
    assert_eq!(net.distribution(), vec![0.5, 0.5]);
}

#[test]
fn dist_half_crash_mid_run_still_converges() {
    let params = Params::new(2, 0.65).unwrap();
    let n = 400;
    let mut fault = FaultPlan::none();
    for i in 0..n / 2 {
        fault = fault.crash(i, 50);
    }
    let mut net = Runtime::new(DistConfig::new(params, n).with_faults(fault), 4);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    let mut tail_share = 0.0;
    for t in 1..=300 {
        env.sample(t, &mut rng, &mut rewards);
        net.round(&rewards);
        if t > 200 {
            tail_share += net.distribution()[0];
        }
    }
    tail_share /= 100.0;
    assert!(
        tail_share > 0.8,
        "survivors failed to converge: {tail_share}"
    );
}

#[test]
fn event_total_message_loss_degrades_to_adoption_only() {
    let params = Params::new(2, 0.65).unwrap();
    let cfg = DistConfig::new(params, 300).with_faults(FaultPlan::with_drop_prob(1.0).unwrap());
    let mut net = EventRuntime::new(cfg, 1);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    let mut share = 0.0;
    for t in 1..=100 {
        env.sample(t, &mut rng, &mut rewards);
        net.tick(&rewards);
        share += net.distribution()[0];
    }
    share /= 100.0;
    assert_distribution(&net.distribution(), 1e-12);
    // Adoption-only keeps a quality-proportional split, clearly above
    // 1/2 but below a converged population.
    assert!(share > 0.55 && share < 0.95, "share {share}");
    assert_eq!(net.metrics().replies_received, 0);
    // Every alive node burns its whole retry budget before falling
    // back, every epoch.
    assert!(net.metrics().fallbacks >= 100);
}

#[test]
fn event_all_nodes_crash_is_silent_but_defined() {
    let mut fault = FaultPlan::none();
    for i in 0..50 {
        fault = fault.crash(i, 1);
    }
    let params = Params::new(2, 0.65).unwrap();
    let mut net = EventRuntime::new(DistConfig::new(params, 50).with_faults(fault), 3);
    for _ in 0..10 {
        let rm = net.tick(&[true, false]);
        assert_eq!(rm.alive, 0);
        assert_eq!(rm.committed, 0);
        assert_eq!(rm.queries_sent, 0);
    }
    assert_eq!(net.alive_count(), 0);
    assert_eq!(net.distribution(), vec![0.5, 0.5]);
}

#[test]
fn event_half_crash_mid_run_still_converges() {
    let params = Params::new(2, 0.65).unwrap();
    let n = 400;
    let mut fault = FaultPlan::none();
    for i in 0..n / 2 {
        fault = fault.crash(i, 50);
    }
    let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), 4);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    let mut tail_share = 0.0;
    for t in 1..=300 {
        env.sample(t, &mut rng, &mut rewards);
        net.tick(&rewards);
        if t > 200 {
            tail_share += net.distribution()[0];
        }
    }
    tail_share /= 100.0;
    assert_eq!(net.alive_count(), n / 2);
    assert!(
        tail_share > 0.8,
        "survivors failed to converge: {tail_share}"
    );
}

#[test]
fn event_runtime_keeps_learning_under_loss_and_crashes() {
    // Both faults at once: 30% message loss and a fifth of the fleet
    // crashing early. The runtime must stay well-defined and keep a
    // learning signal.
    let params = Params::new(2, 0.65).unwrap();
    let n = 200;
    let mut fault = FaultPlan::with_drop_prob(0.3).unwrap();
    for i in 0..n / 5 {
        fault = fault.crash(i, 20);
    }
    let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(fault), 6);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    let mut tail_share = 0.0;
    for t in 1..=300 {
        env.sample(t, &mut rng, &mut rewards);
        net.tick(&rewards);
        assert_distribution(&net.distribution(), 1e-12);
        if t > 200 {
            tail_share += net.distribution()[0];
        }
    }
    tail_share /= 100.0;
    assert!(tail_share > 0.6, "fleet stopped learning: {tail_share}");
}

#[test]
fn network_disconnected_components_learn_independently() {
    // Two components: a clique of 50 and an isolated path of 2.
    let mut edges = Vec::new();
    for a in 0..50usize {
        for b in (a + 1)..50 {
            edges.push((a, b));
        }
    }
    edges.push((50, 51));
    let g = Graph::from_edges(52, &edges).unwrap();
    assert!(!g.is_connected());

    let params = Params::new(2, 0.65).unwrap();
    let mut pop = NetworkPopulation::new(params, g);
    let mut rng = SmallRng::seed_from_u64(6);
    let mut env = BernoulliRewards::new(vec![0.9, 0.3]).unwrap();
    let mut rewards = vec![false; 2];
    for t in 1..=300 {
        env.sample(t, &mut rng, &mut rewards);
        pop.step(&rewards, &mut rng);
        assert_distribution(&pop.distribution(), 1e-12);
    }
    // The big component dominates the counts; global share converges.
    assert!(pop.distribution()[0] > 0.8);
}

#[test]
fn mu_zero_absorption_is_permanent() {
    // Force extinction of option 0, then verify it can never return
    // when mu = 0 (the absorbing state the paper's mu > 0 rules out).
    let params = Params::with_all(2, 0.65, 0.35, 0.0).unwrap();
    let mut pop = FinitePopulation::from_counts(params, 100, vec![0, 100]);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..200 {
        pop.step(&[true, true], &mut rng);
        assert_eq!(pop.counts()[0], 0, "extinct option revived despite mu = 0");
    }
}

#[test]
fn always_bad_rewards_keep_population_defined() {
    // alpha = 0 and all-bad rewards: everyone sits out every step; the
    // dynamics must keep reporting the uniform fallback, not NaN.
    let params = Params::with_all(3, 0.9, 0.0, 0.1).unwrap();
    let mut pop = FinitePopulation::new(params, 500);
    let mut rng = SmallRng::seed_from_u64(8);
    for _ in 0..50 {
        pop.step(&[false, false, false], &mut rng);
        assert_distribution(&pop.distribution(), 1e-12);
    }
    assert_eq!(pop.distribution(), vec![1.0 / 3.0; 3]);
}

#[test]
fn adversarial_periodic_rewards_do_not_break_invariants() {
    let params = Params::new(2, 0.6).unwrap();
    let mut env = PeriodicRewards::alternating(5, 5).unwrap();
    let mut pop = FinitePopulation::new(params, 1_000);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut rewards = vec![false; 2];
    let mut share = 0.0;
    let steps = 400;
    for t in 1..=steps {
        env.sample(t, &mut rng, &mut rewards);
        pop.step(&rewards, &mut rng);
        assert_distribution(&pop.distribution(), 1e-12);
        share += pop.distribution()[0];
    }
    share /= steps as f64;
    // Symmetric duty cycle: neither option should dominate on average.
    assert!((share - 0.5).abs() < 0.15, "share {share}");
}

#[test]
fn single_option_population_is_trivially_stable() {
    let params = Params::new(1, 0.6).unwrap();
    let mut pop = FinitePopulation::new(params, 100);
    let mut rng = SmallRng::seed_from_u64(10);
    for _ in 0..20 {
        pop.step(&[true], &mut rng);
        assert_eq!(pop.distribution(), vec![1.0]);
    }
}
