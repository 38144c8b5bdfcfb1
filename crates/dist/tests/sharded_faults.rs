//! Fault injection aimed at the sharded scheduler's seams: crashes
//! and message loss landing on nodes adjacent to a shard split must
//! behave exactly as the fault plan dictates — deterministically where
//! the observable is schedule-independent (alive counts derived from
//! the plan, zero-reply regimes, count conservation), and
//! byte-identically across shard counts everywhere.

use sociolearn_core::{GroupDynamics, Params};
use sociolearn_dist::{DistConfig, EventRuntime, FaultPlan, SchedulerKind, StalenessBound};

fn params() -> Params {
    Params::new(2, 0.65).unwrap()
}

/// The worker-thread count the identity fixtures run in addition to 1:
/// 2 by default; CI additionally sweeps the suite with
/// `SOCIOLEARN_TEST_THREADS=4`.
fn test_threads() -> usize {
    std::env::var("SOCIOLEARN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// A fleet of 64 nodes sharded 4 ways splits at 16/32/48: crash the
/// node on each side of every split, plus the range ends.
fn boundary_crashes(round: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for node in [0usize, 15, 16, 31, 32, 47, 48, 63] {
        plan = plan.crash(node, round);
    }
    plan
}

/// The alive count `plan` dictates for `round` over `n` nodes: every
/// crash scheduled at or before it has landed.
fn planned_alive(n: usize, plan: &FaultPlan, round: u64) -> usize {
    n - (0..n)
        .filter(|&i| plan.crash_round(i).is_some_and(|r| r <= round))
        .count()
}

#[test]
fn boundary_crashes_kill_the_same_nodes_under_both_schedulers() {
    // The alive trajectory is fixed by the fault plan, not the
    // schedule: both epoch schedulers — quiesced and fully-async — on
    // one shard and on four must report the per-round alive counts the
    // plan dictates, and the crashed boundary nodes must leave the
    // committed counts.
    let plan = boundary_crashes(10);
    for staleness in [None, Some(StalenessBound::Unbounded)] {
        for shards in [1usize, 4] {
            let mut net =
                EventRuntime::new(DistConfig::new(params(), 64).with_faults(plan.clone()), 5)
                    .with_scheduler(SchedulerKind::ShardedCalendar { shards });
            if let Some(bound) = staleness {
                net = net.with_async_epochs(bound);
            }
            for t in 1..=25u64 {
                let rm = net.tick(&[true, false]);
                assert_eq!(
                    rm.alive,
                    planned_alive(64, &plan, t),
                    "{staleness:?} × {shards} shards: alive count off the plan at round {t}"
                );
                assert!(rm.committed <= rm.alive);
            }
            assert_eq!(net.alive_count(), planned_alive(64, &plan, 26));
            assert_eq!(net.alive_count(), 56);
            assert!(net.counts().iter().sum::<u64>() <= 56);
        }
    }
}

/// Asserts that a 64-node fleet crashing its shard-boundary nodes at
/// `crash_round` runs byte-identically at 1, 2, and 4 shards, crossed
/// with each lookahead width in `lookaheads` and with worker-thread
/// counts {1, [`test_threads`]}. The parallel threshold is pinned to 0
/// so `threads > 1` really exercises the worker pool at this size.
fn assert_boundary_crashes_identical(
    staleness: Option<StalenessBound>,
    crash_round: u64,
    seed: u64,
    ticks: u64,
    lookaheads: [u64; 2],
) {
    let drive = |shards: usize, lookahead: u64, threads: usize| {
        let faults = boundary_crashes(crash_round);
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), seed);
        if let Some(bound) = staleness {
            net = net.with_async_epochs(bound);
        }
        let mut net = net
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(threads)
            .with_parallel_threshold(0);
        let mut trace = Vec::new();
        for t in 0..ticks {
            let rm = net.tick(&[t % 2 == 0, t % 3 == 0]);
            trace.push((rm, net.distribution()));
        }
        (trace, EventRuntime::metrics(&net))
    };
    for lookahead in lookaheads {
        let one = drive(1, lookahead, 1);
        for shards in [2usize, 4] {
            for threads in [1usize, test_threads()] {
                assert_eq!(
                    one,
                    drive(shards, lookahead, threads),
                    "K={lookahead} shards={shards} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn boundary_crashes_are_identical_across_shard_counts() {
    // Crashes landing exactly at shard splits must not perturb the
    // shard-count invariance, through the crash round and after it.
    assert_boundary_crashes_identical(None, 8, 9, 20, [1, 4]);
}

#[test]
fn async_boundary_crashes_are_identical_across_shard_counts() {
    assert_boundary_crashes_identical(Some(StalenessBound::Epochs(1)), 6, 11, 24, [1, 2]);
}

#[test]
fn async_boundary_crashes_stop_pacing_and_leave_counts() {
    // Async mode: crashed boundary nodes stop advancing their local
    // epochs while interior survivors keep the fleet moving, whether
    // the crashes land inside one shard or at four-shard splits.
    let faults = boundary_crashes(5);
    let mut one = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults.clone()), 7)
        .with_async_epochs(StalenessBound::Unbounded);
    let mut four = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 7)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..20 {
        one.tick(&[true, true]);
        four.tick(&[true, true]);
    }
    for net in [&one, &four] {
        assert_eq!(net.alive_count(), 56);
        assert!(net.counts().iter().sum::<u64>() <= 56);
        // Boundary nodes 16 and 32 died at round 5; interior node 20
        // kept its loop running.
        assert!(net.local_epoch(16) < net.local_epoch(20));
        assert!(net.local_epoch(32) < net.local_epoch(20));
    }
}

#[test]
fn total_loss_starves_replies_under_the_sharded_scheduler() {
    // Message loss is decided at the sending node's stream, so a
    // p = 1 plan must produce exactly zero replies on any scheduler
    // and shard count — every node lives off explorations/fallbacks.
    for shards in [1usize, 2, 4] {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards });
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        let m = EventRuntime::metrics(&net);
        assert_eq!(m.replies_received, 0, "{shards} shards leaked a reply");
        assert!(m.fallbacks > 0);
    }
}

#[test]
fn async_total_loss_starves_replies_under_the_sharded_scheduler() {
    let faults = FaultPlan::with_drop_prob(1.0).unwrap();
    let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..20 {
        net.tick(&[true, true]);
    }
    let m = EventRuntime::metrics(&net);
    assert_eq!(m.replies_received, 0);
    assert!(m.fallbacks > 0);
}

#[test]
fn loss_and_boundary_crashes_keep_sharded_learning_alive() {
    // The compound scenario: loss plus crashes at shard
    // boundaries. Learning must survive (share far above the 1/m
    // floor) and per-round invariants must hold throughout, on one
    // shard and on four, with and without lookahead.
    for (shards, lookahead) in [(1usize, 1u64), (4, 1), (4, 4)] {
        let faults = {
            let mut plan = FaultPlan::with_drop_prob(0.3).unwrap();
            for node in [15usize, 16, 31, 32, 47, 48] {
                plan = plan.crash(node, 40);
            }
            plan
        };
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 3)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(test_threads())
            .with_parallel_threshold(0);
        for _ in 0..120 {
            let rm = net.tick(&[true, false]);
            assert!(rm.committed <= rm.alive);
            assert!(rm.replies_received <= rm.queries_sent);
        }
        assert!(
            net.distribution()[0] > 0.6,
            "{shards} shards, K={lookahead}: share {} under loss + boundary crashes",
            net.distribution()[0]
        );
    }
}

#[test]
fn sharded_message_bound_holds_per_epoch() {
    // The protocol's per-epoch message bound (≤ 2 · retries · N) is a
    // scheduler-independent contract; check it on the sharded engine
    // under loss, where retries are maximally exercised.
    let faults = FaultPlan::with_drop_prob(0.5).unwrap();
    let mut net = EventRuntime::new(DistConfig::new(params(), 48).with_faults(faults), 13)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..40 {
        let rm = net.tick(&[true, false]);
        assert!(rm.queries_sent <= 2 * sociolearn_dist::MAX_QUERY_RETRIES as u64 * 48);
    }
}
