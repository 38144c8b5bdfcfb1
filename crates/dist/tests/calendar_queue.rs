//! Property-based tests for the calendar-queue scheduler: the
//! [`Calendar`] container itself (deterministic pop order, FIFO
//! stability, conservation across ring rotations) and the engine-level
//! guarantee it exists to provide — byte-identical runtime results for
//! the same seed across shard counts.

use proptest::prelude::*;
use sociolearn_dist::{
    Calendar, DistConfig, Entry, EventRuntime, FaultPlan, Metrics, RoundMetrics, SchedulerKind,
    StalenessBound, MAX_LOOKAHEAD, RING_SLOTS,
};

use sociolearn_core::Params;

/// A pushed item: `(delay past the drain cursor, source id)`. Delays
/// stay strictly inside one ring rotation, as the runtime guarantees
/// for its own events.
fn batch_strategy() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..RING_SLOTS as u64, 0u32..6), 0..40)
}

/// Drains `cal` completely from `cursor`, returning the popped entries
/// in pop order.
fn drain_all(cal: &mut Calendar<u64>, mut cursor: u64) -> Vec<Entry<u64>> {
    let mut out = Vec::new();
    while let Some(t) = cal.next_time(cursor) {
        let due = cal.take_due(t);
        assert!(!due.is_empty(), "next_time pointed at an empty slot");
        out.extend(due.iter().copied());
        cal.recycle(due);
        cursor = t + 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pops come out globally time-ordered, and within one timestamp
    /// in `(src, seq)` order — with `seq` preserving each source's
    /// push order (FIFO stability).
    #[test]
    fn pops_are_time_ordered_and_fifo_stable(batches in proptest::collection::vec(batch_strategy(), 1..8)) {
        let mut cal = Calendar::new();
        let mut cursor = 0u64;
        let mut seqs = [0u32; 6];
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for batch in batches {
            // Push a batch relative to the current cursor.
            for &(delay, src) in &batch {
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                cal.push(Entry { at: cursor + delay, src, seq, payload: u64::from(seq) });
                pushed += 1;
            }
            // Drain a window or two, checking order.
            let drained = drain_all(&mut cal, cursor);
            popped += drained.len();
            for pair in drained.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                prop_assert!(
                    (a.at, a.src, a.seq) < (b.at, b.src, b.seq),
                    "pop order violated: {:?} before {:?}",
                    (a.at, a.src, a.seq),
                    (b.at, b.src, b.seq)
                );
            }
            // FIFO within equal timestamps: for one source at one
            // time, seqs pop in push order (seq assignment is
            // monotone per source, so push order = seq order).
            for pair in drained.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if a.at == b.at && a.src == b.src {
                    prop_assert!(a.seq < b.seq, "source {} popped out of push order", a.src);
                }
            }
            // The drain fully emptied the calendar; advance the clock
            // past everything seen so the next batch stays in-window.
            prop_assert!(cal.is_empty());
            cursor += RING_SLOTS as u64;
        }
        prop_assert_eq!(pushed, popped, "events lost or duplicated");
    }

    /// Interleaved pushes and window drains across many ring rotations
    /// conserve every entry exactly once (none lost at a rotation or
    /// shard-handoff boundary, none duplicated).
    #[test]
    fn rotation_conserves_entries(
        rounds in 1usize..6,
        batches in proptest::collection::vec(batch_strategy(), 6),
        step in 1u64..(RING_SLOTS as u64),
    ) {
        let mut cal = Calendar::new();
        let mut cursor = 0u64;
        let mut next_payload = 0u64;
        let mut outstanding: std::collections::BTreeSet<u64> = Default::default();
        let mut seqs = [0u32; 6];
        for batch in batches.iter().cycle().take(rounds * batches.len()) {
            for &(delay, src) in batch {
                // Clamp into the legal window relative to the cursor.
                let at = cursor + delay.min(RING_SLOTS as u64 - 1);
                let seq = seqs[src as usize];
                seqs[src as usize] += 1;
                cal.push(Entry { at, src, seq, payload: next_payload });
                outstanding.insert(next_payload);
                next_payload += 1;
            }
            // Drain `step` windows, then keep going.
            for w in cursor..cursor + step {
                let due = cal.take_due(w);
                for e in &due {
                    prop_assert!(outstanding.remove(&e.payload), "duplicated or phantom entry");
                    prop_assert_eq!(e.at, w, "entry due at the wrong window");
                }
                cal.recycle(due);
            }
            cursor += step;
        }
        let rest = drain_all(&mut cal, cursor.saturating_sub(step));
        for e in &rest {
            prop_assert!(outstanding.remove(&e.payload), "duplicated or phantom entry");
        }
        prop_assert!(outstanding.is_empty(), "entries lost: {outstanding:?}");
        prop_assert!(cal.is_empty());
    }
}

/// The worker-thread count the identity matrix runs in addition to 1:
/// 2 by default (enough to exercise the pool handoff on any machine);
/// CI additionally sweeps the suite with `SOCIOLEARN_TEST_THREADS=4`.
fn test_threads() -> usize {
    std::env::var("SOCIOLEARN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// Drives one deployment on `shards` shards, recording everything
/// observable: per-tick round metrics, per-tick distributions, and the
/// final cumulative metrics. The parallel threshold is pinned to 0 so
/// `threads > 1` exercises the worker pool even at proptest-sized
/// fleets.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn run_observables(
    params: Params,
    n: usize,
    faults: FaultPlan,
    seed: u64,
    bound: Option<StalenessBound>,
    shards: usize,
    lookahead: u64,
    threads: usize,
    ticks: u64,
) -> (Vec<RoundMetrics>, Vec<Vec<f64>>, Metrics) {
    use sociolearn_core::GroupDynamics;
    let mut net = EventRuntime::new(DistConfig::new(params, n).with_faults(faults), seed);
    if let Some(b) = bound {
        net = net.with_async_epochs(b);
    }
    let mut net = net
        .with_scheduler(SchedulerKind::ShardedCalendar { shards })
        .with_lookahead(lookahead)
        .with_threads(threads)
        .with_parallel_threshold(0);
    let m = params.num_options();
    let mut rms = Vec::new();
    let mut dists = Vec::new();
    for t in 0..ticks {
        let rewards: Vec<bool> = (0..m).map(|j| !(t + j as u64).is_multiple_of(3)).collect();
        rms.push(net.tick(&rewards));
        dists.push(net.distribution());
    }
    (rms, dists, EventRuntime::metrics(&net))
}

/// Builds a conflict-free membership script from raw proptest tuples:
/// the last `flash` ids arrive late as a flash crowd, and each churn
/// tuple becomes a leave→rejoin pair on a distinct stable node.
fn churn_plan(n: usize, drop_prob: f64, flash: usize, churn: &[(usize, u64, u64)]) -> FaultPlan {
    let flash = flash.min(n.saturating_sub(2));
    let mut plan = FaultPlan::with_drop_prob(drop_prob).expect("valid drop prob");
    if flash > 0 {
        plan = plan.flash_crowd(flash, 4);
    }
    let stable = n - flash;
    let mut used = std::collections::HashSet::new();
    for &(node, round, gap) in churn {
        let node = node % stable;
        if !used.insert(node) {
            continue;
        }
        plan = plan.leave(node, round).rejoin(node, round + gap);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline engine guarantee: for any valid deployment — fault
    /// plan, staleness bound, seed — and any lookahead block width K in
    /// {1, 2, 3, 4, `MAX_LOOKAHEAD`}, the sharded scheduler produces
    /// byte-identical metrics and distributions for shard counts
    /// {1, 2, 4, 8} crossed with worker-thread counts
    /// {1, `test_threads()`}. (Different K values are *different*
    /// trajectories by design; identity is over the partition and the
    /// thread count, never the block width.) K = 3 and K = 8 do not
    /// divide `ASYNC_EPOCH_PERIOD`, so an async tick there ends inside a
    /// block: one lane runs each tick as one block, several lanes clip
    /// their last block at the tick's end, and the two must agree.
    #[test]
    fn sharded_runs_are_identical_across_shard_counts(
        seed in any::<u64>(),
        n in 4usize..80,
        m in 2usize..5,
        beta in 0.55f64..0.9,
        drop_prob in 0.0f64..0.6,
        crash_node in 0usize..80,
        // 0 = epoch-quiesced; 1..=3 = async Epochs(k - 1); 4 = async
        // Unbounded.
        mode_sel in 0u64..5,
        ticks in 1u64..25,
    ) {
        let params = Params::new(m, beta).expect("valid params");
        let faults = FaultPlan::with_drop_prob(drop_prob)
            .expect("valid drop prob")
            .crash(crash_node % n, 1 + (seed % 20));
        let bound = match mode_sel {
            0 => None,
            4 => Some(StalenessBound::Unbounded),
            k => Some(StalenessBound::Epochs(k - 1)),
        };
        for lookahead in [1u64, 2, 3, 4, MAX_LOOKAHEAD] {
            let reference = run_observables(
                params, n, faults.clone(), seed, bound,
                1, lookahead, 1, ticks,
            );
            for shards in [2usize, 4, 8] {
                for threads in [1usize, test_threads()] {
                    let run = run_observables(
                        params, n, faults.clone(), seed, bound,
                        shards, lookahead, threads, ticks,
                    );
                    prop_assert_eq!(
                        &reference, &run,
                        "trajectory diverged at K={} shards={} threads={}",
                        lookahead, shards, threads
                    );
                }
            }
        }
    }

    /// Byte-identity survives active membership scripts: random
    /// join/leave/rejoin schedules land on every lane at window
    /// boundaries, and the results must still match across shard
    /// counts {1, 2, 4} in both quiesced and async modes, at lookahead
    /// K in {1, 3, 4} (3 does not divide `ASYNC_EPOCH_PERIOD`).
    #[test]
    fn sharded_churn_runs_are_identical_across_shard_counts(
        seed in any::<u64>(),
        n in 4usize..60,
        m in 2usize..4,
        drop_prob in 0.0f64..0.5,
        flash in 0usize..5,
        churn in proptest::collection::vec((0usize..1000, 1u64..12, 1u64..6), 1..8),
        // 0 = epoch-quiesced; 1..=2 = async Epochs(k - 1).
        mode_sel in 0u64..3,
        ticks in 5u64..25,
    ) {
        let params = Params::new(m, 0.7).expect("valid params");
        let plan = churn_plan(n, drop_prob, flash, &churn);
        let bound = (mode_sel > 0).then(|| StalenessBound::Epochs(mode_sel - 1));
        for lookahead in [1u64, 3, 4] {
            let reference = run_observables(
                params, n, plan.clone(), seed, bound,
                1, lookahead, 1, ticks,
            );
            for shards in [2usize, 4] {
                for threads in [1usize, test_threads()] {
                    let run = run_observables(
                        params, n, plan.clone(), seed, bound,
                        shards, lookahead, threads, ticks,
                    );
                    prop_assert_eq!(
                        &reference, &run,
                        "trajectory diverged at K={} shards={} threads={}",
                        lookahead, shards, threads
                    );
                }
            }
        }
    }

    /// The engine satisfies the protocol's per-tick invariants at any
    /// shard count, under arbitrary faults and bounds.
    #[test]
    fn sharded_tick_invariants_hold(
        seed in any::<u64>(),
        n in 2usize..60,
        drop_prob in 0.0f64..1.0,
        shards in 1usize..6,
        // 0 = epoch-quiesced; 1..=3 = async Epochs(k - 1).
        mode_sel in 0u64..4,
        ticks in 1u64..20,
    ) {
        let params = Params::new(2, 0.7).expect("valid params");
        let faults = FaultPlan::with_drop_prob(drop_prob).expect("valid drop prob");
        let bound = (mode_sel > 0).then(|| StalenessBound::Epochs(mode_sel - 1));
        let lookahead = 1 + seed % 4; // any K in 1..=4; invariants hold at all widths
        let (rms, dists, metrics) = run_observables(
            params, n, faults, seed, bound,
            shards, lookahead, test_threads(), ticks,
        );
        // Replies trail queries *cumulatively*: lookahead defers
        // deliveries to block boundaries, so in async mode a reply can
        // land one tick after its query and the per-tick inequality no
        // longer holds — the running totals always do.
        let (mut queries, mut replies) = (0u64, 0u64);
        for rm in &rms {
            prop_assert!(rm.committed <= rm.alive);
            prop_assert!(rm.alive <= n);
            queries += rm.queries_sent;
            replies += rm.replies_received;
            prop_assert!(replies <= queries);
        }
        for dist in &dists {
            let total: f64 = dist.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "distribution sums to {total}");
        }
        prop_assert_eq!(metrics.rounds, ticks);
    }
}

/// The ring-horizon guard at the limit: at `K = MAX_LOOKAHEAD` the
/// message deferral reaches its worst case (`max(latency, K) =
/// MAX_MESSAGE_LATENCY`), and many async ticks of churn + loss wrap
/// the calendar ring dozens of times. `Calendar::push`'s collision
/// panic firing anywhere in here would fail the test.
#[test]
fn max_lookahead_never_outruns_the_ring() {
    let params = Params::new(3, 0.7).expect("valid params");
    let faults = FaultPlan::with_drop_prob(0.3)
        .expect("valid drop prob")
        .rolling_restart(20, 6);
    let (rms, dists, metrics) = run_observables(
        params,
        200,
        faults,
        42,
        Some(StalenessBound::Epochs(2)),
        4,
        MAX_LOOKAHEAD,
        test_threads(),
        60,
    );
    assert_eq!(metrics.rounds, 60);
    for rm in &rms {
        assert!(rm.committed <= rm.alive);
    }
    let last: f64 = dists.last().unwrap().iter().sum();
    assert!((last - 1.0).abs() < 1e-9);
}
