//! Pins the event runtime's exact trajectories across code changes.
//!
//! The identity suites compare shard counts, lookahead widths, and
//! thread counts *within* one build; nothing there notices a change
//! that shifts every configuration the same way. This suite hashes
//! every tick's [`RoundMetrics`] plus the final `counts()` of a grid of
//! sharded runs — epoch-quiesced, async `Unbounded`, and async
//! `Epochs(0)`, on a clean network and under 10% loss with a rolling
//! restart, at lookahead 1 and 4 — and compares each digest, at one
//! shard and at three, to a recorded constant. A refactor that must not move
//! any trajectory has to leave this table untouched; a deliberate
//! protocol change re-records it (the failure message prints the
//! whole new table).
//!
//! One more row pins a fleet-shaped run — 2,000 async nodes under loss
//! and a rolling restart, lookahead 4 — at one shard and at eight. At
//! that scale a window often holds several events for the same target
//! node, which the 48-node grid rarely produces, so the row also
//! referees the order in which one node's events within a window are
//! handled.
//!
//! Three more rows pin the round-synchronous [`Runtime`] on the same
//! 48-node fleet: a clean network, 10% loss with a rolling restart,
//! and a crash schedule. Both runtimes share their stage-1 sampling
//! and round bookkeeping, so a change there must leave these rows
//! untouched too.

use sociolearn_core::Params;
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, RoundMetrics, Runtime, SchedulerKind, StalenessBound,
};

/// The worker-thread count the sharded runs also use, besides 1: 2 by
/// default; CI additionally sweeps the suite with
/// `SOCIOLEARN_TEST_THREADS=4`.
fn test_threads() -> usize {
    std::env::var("SOCIOLEARN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

const NODES: usize = 48;
const TICKS: u64 = 40;
const SEED: u64 = 20170508;

/// The recorded digests, one per `(mode, condition, lookahead)` case
/// in [`cases`] order — the same at every shard and thread count.
const EXPECTED: [(&str, u64); 12] = [
    ("quiesced/clean/K1", 0xa052b3588df89579),
    ("quiesced/clean/K4", 0x0acb968f4a49dd1d),
    ("quiesced/loss+restart/K1", 0xd954fb9d6029397f),
    ("quiesced/loss+restart/K4", 0x2c3c37cdad09c53e),
    ("async-unbounded/clean/K1", 0x3243fd2644d57a18),
    ("async-unbounded/clean/K4", 0x93cfc3e380a124cb),
    ("async-unbounded/loss+restart/K1", 0xae059aeb0951be8b),
    ("async-unbounded/loss+restart/K4", 0xa1341974c3656f56),
    ("async-0/clean/K1", 0xba26ed6086b368db),
    ("async-0/clean/K4", 0x7e8f45f402eff587),
    ("async-0/loss+restart/K1", 0x82f7d67fbc338608),
    ("async-0/loss+restart/K4", 0x23b6ffc459c097f8),
];

/// The fleet-shaped row: its size, length and recorded digest.
const FLEET_NODES: usize = 2_000;
const FLEET_TICKS: u64 = 20;
const FLEET_EXPECTED: u64 = 0x6217643eb5588292;

/// The recorded round-synchronous digests, in [`round_sync_cases`]
/// order.
const ROUND_SYNC_EXPECTED: [(&str, u64); 3] = [
    ("round-sync/clean", 0x451a063d08899a67),
    ("round-sync/loss+restart", 0x1ac5846d033e572f),
    ("round-sync/crashes", 0x90ece4fbcbb10bd2),
];

/// One grid point of the pinned suite.
struct Case {
    name: String,
    staleness: Option<StalenessBound>,
    faults: FaultPlan,
    lookahead: u64,
}

/// The grid, in [`EXPECTED`] order.
fn cases() -> Vec<Case> {
    let modes = [
        ("quiesced", None),
        ("async-unbounded", Some(StalenessBound::Unbounded)),
        ("async-0", Some(StalenessBound::Epochs(0))),
    ];
    let conditions = [
        ("clean", FaultPlan::none()),
        (
            "loss+restart",
            FaultPlan::with_drop_prob(0.1)
                .unwrap()
                .rolling_restart(2, 3),
        ),
    ];
    let mut out = Vec::new();
    for (mode, staleness) in modes {
        for (condition, faults) in &conditions {
            for lookahead in [1u64, 4] {
                out.push(Case {
                    name: format!("{mode}/{condition}/K{lookahead}"),
                    staleness,
                    faults: faults.clone(),
                    lookahead,
                });
            }
        }
    }
    out
}

/// The round-synchronous rows, in [`ROUND_SYNC_EXPECTED`] order.
fn round_sync_cases() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("round-sync/clean", FaultPlan::none()),
        (
            "round-sync/loss+restart",
            FaultPlan::with_drop_prob(0.1)
                .unwrap()
                .rolling_restart(2, 3),
        ),
        (
            "round-sync/crashes",
            FaultPlan::none().crash(3, 5).crash(20, 5).crash(41, 17),
        ),
    ]
}

/// The reward signals of tick `t`, the same in every row.
fn rewards(t: u64) -> [bool; 3] {
    [t.is_multiple_of(2), t.is_multiple_of(3), t % 5 == 1]
}

/// FNV-1a over little-endian `u64` words: stable across platforms and
/// toolchains, unlike `std`'s hashers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn round(&mut self, rm: &RoundMetrics) {
        // Destructured field by field, so a new counter fails to
        // compile here instead of silently escaping the digest.
        let RoundMetrics {
            round,
            alive,
            committed,
            queries_sent,
            replies_received,
            fallbacks,
            explorations,
            queue_drops,
            stale_replies,
            joins,
            leaves,
            rejoins,
            bootstrapping,
        } = *rm;
        for w in [
            round,
            alive as u64,
            committed as u64,
            queries_sent,
            replies_received,
            fallbacks,
            explorations,
            queue_drops,
            stale_replies,
            joins,
            leaves,
            rejoins,
            bootstrapping,
        ] {
            self.word(w);
        }
    }
}

/// Runs one grid case for [`TICKS`] ticks on `shards` shards and
/// `threads` worker threads and digests its trajectory.
fn digest(case: &Case, shards: usize, threads: usize) -> u64 {
    digest_fleet(case, NODES, TICKS, shards, threads)
}

/// Runs `case` on a `nodes`-node fleet for `ticks` ticks on `shards`
/// shards and `threads` worker threads and digests its trajectory.
fn digest_fleet(case: &Case, nodes: usize, ticks: u64, shards: usize, threads: usize) -> u64 {
    let params = Params::new(3, 0.65).unwrap();
    let mut net = EventRuntime::new(
        DistConfig::new(params, nodes).with_faults(case.faults.clone()),
        SEED,
    );
    if let Some(bound) = case.staleness {
        net = net.with_async_epochs(bound);
    }
    let mut net = net
        .with_scheduler(SchedulerKind::ShardedCalendar { shards })
        .with_lookahead(case.lookahead)
        .with_threads(threads)
        // Force the pool path even at this fleet size.
        .with_parallel_threshold(0);
    let mut h = Fnv::new();
    for t in 0..ticks {
        h.round(&net.tick(&rewards(t)));
    }
    for &c in net.counts() {
        h.word(c);
    }
    h.0
}

/// Runs the round-synchronous runtime under `faults` for [`TICKS`]
/// rounds and digests its trajectory like [`digest_fleet`].
fn digest_round_sync(faults: &FaultPlan) -> u64 {
    let params = Params::new(3, 0.65).unwrap();
    let mut net = Runtime::new(
        DistConfig::new(params, NODES).with_faults(faults.clone()),
        SEED,
    );
    let mut h = Fnv::new();
    for t in 0..TICKS {
        h.round(&net.round(&rewards(t)));
    }
    for &c in net.counts() {
        h.word(c);
    }
    h.0
}

#[test]
fn round_sync_trajectories_match_the_recorded_digests() {
    let actual: Vec<(&str, u64)> = round_sync_cases()
        .iter()
        .map(|(name, faults)| (*name, digest_round_sync(faults)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(actual.len(), ROUND_SYNC_EXPECTED.len());
    for ((name, d), (want_name, want)) in actual.iter().zip(ROUND_SYNC_EXPECTED) {
        assert_eq!(*name, want_name, "case order drifted");
        assert_eq!(
            *d, want,
            "trajectory of {name} moved; the full current table is:\n{table}"
        );
    }
}

#[test]
fn sharded_trajectories_match_the_recorded_digests() {
    let cases = cases();
    assert_eq!(cases.len(), EXPECTED.len());
    let actual: Vec<(String, u64)> = cases
        .iter()
        .map(|case| (case.name.clone(), digest(case, 1, 1)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    for ((name, d), (want_name, want)) in actual.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "case order drifted");
        assert_eq!(
            *d, want,
            "trajectory of {name} moved; the full current table is:\n{table}"
        );
    }
}

#[test]
fn digests_do_not_depend_on_shards_or_threads() {
    let threads = test_threads();
    for (case, (_, want)) in cases().iter().zip(EXPECTED) {
        for threads in [1, threads] {
            assert_eq!(
                digest(case, 3, threads),
                want,
                "{} diverged at 3 shards × {threads} threads",
                case.name
            );
        }
    }
}

#[test]
fn fleet_shaped_trajectory_matches_its_recorded_digest() {
    let case = Case {
        name: "fleet/async-unbounded/loss+restart/K4".to_string(),
        staleness: Some(StalenessBound::Unbounded),
        faults: FaultPlan::with_drop_prob(0.05)
            .unwrap()
            .rolling_restart(20, 4),
        lookahead: 4,
    };
    for (shards, threads) in [(1, 1), (8, test_threads())] {
        let d = digest_fleet(&case, FLEET_NODES, FLEET_TICKS, shards, threads);
        assert_eq!(
            d, FLEET_EXPECTED,
            "{} moved to {d:#018x} at {shards} shards × {threads} threads",
            case.name
        );
    }
}
