//! Property tests of the telemetry observer hook: attaching a sink is
//! invisible to the protocol. For arbitrary parameters, seeds, and
//! churn scripts, a runtime driven through `observed_round` with a
//! recording sink follows the byte-identical trajectory of a twin
//! driven through plain `round` — same per-round counters, same
//! cumulative `Metrics`, same final distribution — on all three
//! execution models.

use proptest::prelude::*;
use sociolearn_core::Params;
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, MetricsRecorder, ProtocolRuntime, Runtime, SchedulerKind,
    StalenessBound, TelemetrySink, TickObservation,
};

/// Strategy: valid parameters in the interesting corner of the cube.
fn params_strategy() -> impl Strategy<Value = Params> {
    (2usize..6, 0.5f64..=0.95).prop_map(|(m, beta)| Params::new(m, beta).expect("valid params"))
}

/// A deterministic reward table, `steps` rounds by `m` options,
/// derived from the case's seed so every proptest case sees a
/// different (but reproducible) environment.
fn reward_table(m: usize, steps: usize, seed: u64) -> Vec<Vec<bool>> {
    (0..steps)
        .map(|t| {
            (0..m)
                .map(|j| {
                    (seed as usize)
                        .wrapping_add(t * 31 + j * 7)
                        .is_multiple_of(3)
                })
                .collect()
        })
        .collect()
}

/// A sink that records everything *and* checks internal consistency,
/// to make the "attached" side do real observable work.
#[derive(Default)]
struct CheckingSink {
    ticks: u64,
    last_round: u64,
}

impl TelemetrySink for CheckingSink {
    fn on_tick(&mut self, obs: &TickObservation) {
        // This sink only sees every other tick (it alternates with a
        // recorder), so rounds advance monotonically, not by 1.
        assert!(obs.round.round > self.last_round, "rounds in order");
        assert!(obs.round.committed <= obs.round.alive);
        assert!(!obs.shard_loads.is_empty());
        assert_eq!(obs.cumulative.rounds, obs.round.round);
        self.last_round = obs.round.round;
        self.ticks += 1;
    }
}

/// Drives `observed` through the hook (one real recorder + one
/// checking sink alternating) and `plain` directly, asserting
/// identical trajectories.
fn assert_sink_invisible<R: ProtocolRuntime>(mut observed: R, mut plain: R, rewards: &[Vec<bool>]) {
    let mut recorder = MetricsRecorder::new(16);
    let mut checker = CheckingSink::default();
    for (t, row) in rewards.iter().enumerate() {
        let ra = if t % 2 == 0 {
            observed.observed_round(row, &mut recorder)
        } else {
            observed.observed_round(row, &mut checker)
        };
        let rb = plain.round(row);
        assert_eq!(ra, rb, "round {} diverged", t + 1);
    }
    assert_eq!(observed.metrics(), plain.metrics());
    assert_eq!(observed.distribution(), plain.distribution());
    assert_eq!(observed.alive_count(), plain.alive_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-synchronous runtime, with scripted churn and drops.
    #[test]
    fn sink_is_invisible_round_sync(
        params in params_strategy(),
        seed in any::<u64>(),
        drop in 0.0f64..0.4,
        steps in 8usize..24,
    ) {
        let rewards = reward_table(params.num_options(), steps, seed);
        let faults = FaultPlan::with_drop_prob(drop).unwrap().rolling_restart(4, 5);
        let cfg = || DistConfig::new(params, 20).with_faults(faults.clone());
        assert_sink_invisible(Runtime::new(cfg(), seed), Runtime::new(cfg(), seed), &rewards);
    }

    /// Epoch-quiesced event runtime.
    #[test]
    fn sink_is_invisible_event_quiesced(
        params in params_strategy(),
        seed in any::<u64>(),
        steps in 6usize..16,
    ) {
        let rewards = reward_table(params.num_options(), steps, seed);
        let faults = FaultPlan::none().rolling_restart(5, 4);
        let cfg = || DistConfig::new(params, 18).with_faults(faults.clone());
        assert_sink_invisible(
            EventRuntime::new(cfg(), seed),
            EventRuntime::new(cfg(), seed),
            &rewards,
        );
    }

    /// Fully-async sharded calendar engine (the model with the most
    /// telemetry surface: epoch skew, shard loads).
    #[test]
    fn sink_is_invisible_async_sharded(
        params in params_strategy(),
        seed in any::<u64>(),
        shards in 2usize..6,
        steps in 6usize..14,
    ) {
        let rewards = reward_table(params.num_options(), steps, seed);
        let faults = FaultPlan::none().rolling_restart(4, 4);
        let cfg = || DistConfig::new(params, 16).with_faults(faults.clone());
        let make = || {
            EventRuntime::new(cfg(), seed)
                .with_async_epochs(StalenessBound::Epochs(3))
                .with_scheduler(SchedulerKind::ShardedCalendar { shards })
        };
        assert_sink_invisible(make(), make(), &rewards);
    }
}

/// Epoch skew must be computed over *present* nodes only: a flash
/// crowd's pre-join members sit at local epoch 0, and if the skew
/// gauge counted them it would read roughly "ticks elapsed" instead of
/// the fleet's true overlap. Pinned on both async engines so the
/// sharded refactor cannot regress either path.
#[test]
fn epoch_skew_ignores_nodes_that_have_not_joined_yet() {
    const N: usize = 24;
    const CROWD: usize = 12;
    const JOIN_AT: u64 = 8;
    let params = Params::new(2, 0.6).expect("valid params");
    let rewards = reward_table(2, 14, 5);
    for shards in [1usize, 4] {
        let faults = FaultPlan::none().flash_crowd(CROWD, JOIN_AT);
        let mut net = EventRuntime::new(DistConfig::new(params, N).with_faults(faults), 9)
            .with_async_epochs(StalenessBound::Unbounded);
        if shards > 1 {
            net = net.with_scheduler(SchedulerKind::ShardedCalendar { shards });
        }
        for (t, row) in rewards.iter().enumerate() {
            let t = t as u64 + 1;
            net.round(row);
            // The crowd joins at the start of tick JOIN_AT, and the
            // membership tracker advances to the *next* epoch's view
            // at the end of each tick — so post-tick queries see the
            // crowd from tick JOIN_AT - 1 onward (at local epoch 0,
            // bootstrapping: genuinely present, legitimately skewed).
            let present: Vec<usize> = if t < JOIN_AT - 1 {
                (0..N - CROWD).collect()
            } else {
                (0..N).collect()
            };
            let epochs: Vec<u64> = present.iter().map(|&i| net.local_epoch(i)).collect();
            let hi = *epochs.iter().max().unwrap();
            let lo = *epochs.iter().min().unwrap();
            assert_eq!(
                net.epoch_spread(),
                hi - lo,
                "shards={shards} tick={t}: skew must match the present-node span"
            );
            if (4..JOIN_AT - 1).contains(&t) {
                // The teeth: by now the early fleet has completed
                // epochs, so counting an absent (epoch-0) node would
                // have inflated the gauge to at least `hi`.
                assert!(hi >= 2, "shards={shards} tick={t}: fleet should progress");
                assert!(
                    net.epoch_spread() < hi,
                    "shards={shards} tick={t}: skew {} looks anchored to an \
                     absent node's epoch 0",
                    net.epoch_spread()
                );
            }
        }
    }
}
