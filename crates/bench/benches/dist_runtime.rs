//! Round-synchronous vs. batched vs. event-driven (epoch-quiesced and
//! fully-async, on the sharded calendar-queue scheduler) runtime cost
//! at fleet scale, plus a
//! faithful reimplementation of the pre-refactor (allocating) round
//! as the baseline the allocation-free path is measured against.
//!
//! Besides the console output, a run writes machine-readable results
//! to `results/BENCH_dist.json` at the workspace root (mean ns/round
//! per runtime and N; the file is gitignored — the committed reference
//! is `results/BENCH_baseline.json`, which the `bench_gate` bin
//! compares a fresh report against in CI). Set `BENCH_DIST_JSON` to
//! redirect the report, or to `skip` to suppress it.

#![forbid(unsafe_code)]

use criterion::{BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_bench::{bench_params, reward_stream};
use sociolearn_core::Params;
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, MetricsRecorder, ProtocolRuntime, Runtime, SchedulerKind,
    StalenessBound, MAX_QUERY_RETRIES,
};

/// Options per fleet in every benchmark.
const M: usize = 4;
/// Fleet sizes under test.
const SIZES: &[usize] = &[1_000, 10_000, 100_000];
/// Rounds per iteration on the batched path (encoded in the bench id
/// so the JSON emitter can normalize back to ns/round).
const BATCH_ROUNDS: usize = 16;
/// Shard count for the sharded-calendar scheduler rows. Eight gives
/// the best single-core locality at N = 1e5 (each shard's node state
/// stays cache-resident through its window sweep) and exercises the
/// cross-shard mailboxes harder than the minimum of four.
const BENCH_SHARDS: usize = 8;

/// The seed (pre-refactor) `Runtime::round` hot path, reproduced
/// faithfully: per round it allocates a fresh `next` choice vector
/// and a fresh count vector, drops last round's, and consults the
/// resolved crash vector for every node *and every queried peer* even
/// when the fault plan schedules nothing (exactly as the seed did).
/// This is the baseline `results/BENCH_dist.json` compares the
/// allocation-free path against.
struct SeedAllocRuntime {
    params: Params,
    n: usize,
    rng: SmallRng,
    choices: Vec<Option<u32>>,
    crash_at: Vec<Option<u64>>,
    counts: Vec<u64>,
    round: u64,
}

impl SeedAllocRuntime {
    fn new(params: Params, n: usize, seed: u64) -> Self {
        let m = params.num_options();
        SeedAllocRuntime {
            params,
            n,
            rng: SmallRng::seed_from_u64(seed),
            choices: (0..n).map(|i| Some((i % m) as u32)).collect(),
            crash_at: vec![None; n],
            counts: vec![0; m],
            round: 0,
        }
    }

    fn alive_in(&self, node: usize, round: u64) -> bool {
        self.crash_at[node].is_none_or(|r| round < r)
    }

    fn round(&mut self, rewards: &[bool]) {
        let m = self.params.num_options();
        let n = self.n;
        let mu = self.params.mu();
        let drop_prob = 0.0f64;
        self.round += 1;
        let t = self.round;
        let prev = std::mem::take(&mut self.choices);
        let mut next: Vec<Option<u32>> = Vec::with_capacity(n);
        let mut counts = vec![0u64; m];
        for i in 0..n {
            if !self.alive_in(i, t) {
                next.push(None);
                continue;
            }
            let considered: u32 = if self.rng.gen_bool(mu) {
                self.rng.gen_range(0..m) as u32
            } else {
                let mut copied = None;
                for _ in 0..MAX_QUERY_RETRIES {
                    let mut peer = self.rng.gen_range(0..n - 1);
                    if peer >= i {
                        peer += 1;
                    }
                    if drop_prob > 0.0 && self.rng.gen_bool(drop_prob) {
                        continue;
                    }
                    if !self.alive_in(peer, t) {
                        continue;
                    }
                    let Some(option) = prev[peer] else { continue };
                    if drop_prob > 0.0 && self.rng.gen_bool(drop_prob) {
                        continue;
                    }
                    copied = Some(option);
                    break;
                }
                match copied {
                    Some(option) => option,
                    None => self.rng.gen_range(0..m) as u32,
                }
            };
            let adopt_p = self.params.adopt_probability(rewards[considered as usize]);
            if self.rng.gen_bool(adopt_p) {
                next.push(Some(considered));
                counts[considered as usize] += 1;
            } else {
                next.push(None);
            }
        }
        self.choices = next;
        self.counts = counts;
    }
}

fn dist_runtime_benches(c: &mut Criterion) {
    let rewards = reward_stream(M, 64, 11);
    let mut group = c.benchmark_group("dist_runtime");
    for &n in SIZES {
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("seed_alloc_round", n), &n, |b, &n| {
            let mut net = SeedAllocRuntime::new(bench_params(M), n, 3);
            let mut t = 0usize;
            b.iter(|| {
                net.round(&rewards[t % rewards.len()]);
                t += 1;
            });
        });

        group.bench_with_input(BenchmarkId::new("round_sync", n), &n, |b, &n| {
            let mut net = Runtime::new(DistConfig::new(bench_params(M), n), 3);
            let mut t = 0usize;
            b.iter(|| {
                net.round(&rewards[t % rewards.len()]);
                t += 1;
            });
        });

        // One batched iteration runs BATCH_ROUNDS rounds, so the
        // console elem/s stays comparable with the per-round benches.
        group.throughput(Throughput::Elements((n * BATCH_ROUNDS) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("batched_x{BATCH_ROUNDS}"), n),
            &n,
            |b, &n| {
                let mut net = Runtime::new(DistConfig::new(bench_params(M), n), 3);
                let schedule: Vec<&[bool]> = (0..BATCH_ROUNDS)
                    .map(|t| rewards[t % rewards.len()].as_slice())
                    .collect();
                b.iter(|| net.run_batch(&schedule));
            },
        );
        group.throughput(Throughput::Elements(n as u64));

        // The epoch-quiesced event-driven deployment on the sharded
        // calendar-queue scheduler.
        group.bench_with_input(
            BenchmarkId::new(format!("event_sharded{BENCH_SHARDS}"), n),
            &n,
            |b, &n| {
                let mut net = EventRuntime::new(DistConfig::new(bench_params(M), n), 3)
                    .with_scheduler(SchedulerKind::ShardedCalendar {
                        shards: BENCH_SHARDS,
                    });
                let mut t = 0usize;
                b.iter(|| {
                    net.tick(&rewards[t % rewards.len()]);
                    t += 1;
                });
            },
        );

        // The multi-core execution path: the same sharded deployment
        // with a 4-window lookahead block and a 4-thread worker pool.
        // Lookahead K > 1 is a *different* (equally valid) trajectory
        // — messages defer to block boundaries — so this row is not
        // byte-comparable to `event_sharded8`, only cost-comparable.
        // On a multi-core host the pool fans the per-window node sweep
        // across cores; on a single-core host it measures the
        // synchronization overhead ceiling instead.
        group.bench_with_input(
            BenchmarkId::new(format!("event_sharded{BENCH_SHARDS}_look4_t4"), n),
            &n,
            |b, &n| {
                let mut net = EventRuntime::new(DistConfig::new(bench_params(M), n), 3)
                    .with_scheduler(SchedulerKind::ShardedCalendar {
                        shards: BENCH_SHARDS,
                    })
                    .with_lookahead(4)
                    .with_threads(4);
                let mut t = 0usize;
                b.iter(|| {
                    net.tick(&rewards[t % rewards.len()]);
                    t += 1;
                });
            },
        );

        // The same sharded deployment driven through the telemetry
        // observer hook with a live `MetricsRecorder` attached. The
        // sink sees every tick (per-shard loads included), so the
        // delta against the plain `event_sharded8` row is the whole
        // cost of observability — gated in the baseline to pin
        // "telemetry ≤ 2% of tick cost" (well inside the gate's
        // regression allowance).
        group.bench_with_input(
            BenchmarkId::new(format!("event_sharded{BENCH_SHARDS}_telemetry"), n),
            &n,
            |b, &n| {
                let mut net = EventRuntime::new(DistConfig::new(bench_params(M), n), 3)
                    .with_scheduler(SchedulerKind::ShardedCalendar {
                        shards: BENCH_SHARDS,
                    });
                let mut recorder = MetricsRecorder::new(64);
                let mut t = 0usize;
                b.iter(|| {
                    net.observed_round(&rewards[t % rewards.len()], &mut recorder);
                    t += 1;
                });
            },
        );

        // The same quiesced sharded deployment under continuous
        // membership pressure: a trickle rolling restart (batch 1,
        // period 2 — one node is out at any moment, for 2N rounds)
        // drives the membership-transition sweep and an online
        // node→shard rebalance on nearly every tick. This is the row
        // the bench gate watches for churn-path regressions.
        group.bench_with_input(
            BenchmarkId::new(format!("event_sharded{BENCH_SHARDS}_churn"), n),
            &n,
            |b, &n| {
                let plan = FaultPlan::none().rolling_restart(1, 2);
                let mut net =
                    EventRuntime::new(DistConfig::new(bench_params(M), n).with_faults(plan), 3)
                        .with_scheduler(SchedulerKind::ShardedCalendar {
                            shards: BENCH_SHARDS,
                        });
                let mut t = 0usize;
                b.iter(|| {
                    net.tick(&rewards[t % rewards.len()]);
                    t += 1;
                });
            },
        );

        // Fully-async overlapping epochs: one iteration advances the
        // scheduler through one epoch-period window — about one local
        // epoch per node on this clean network — so ns/iteration is
        // comparable to the per-round numbers above to within the
        // fleet's epoch drift.
        group.bench_with_input(
            BenchmarkId::new(format!("event_async_sharded{BENCH_SHARDS}"), n),
            &n,
            |b, &n| {
                let mut net = EventRuntime::new(DistConfig::new(bench_params(M), n), 3)
                    .with_async_epochs(StalenessBound::Unbounded)
                    .with_scheduler(SchedulerKind::ShardedCalendar {
                        shards: BENCH_SHARDS,
                    });
                let mut t = 0usize;
                b.iter(|| {
                    net.tick(&rewards[t % rewards.len()]);
                    t += 1;
                });
            },
        );

        // Fully-async with lookahead blocks and the worker pool — the
        // multi-core headline row (see the quiesced `_look4_t4` note on
        // trajectory comparability).
        group.bench_with_input(
            BenchmarkId::new(format!("event_async_sharded{BENCH_SHARDS}_look4_t4"), n),
            &n,
            |b, &n| {
                let mut net = EventRuntime::new(DistConfig::new(bench_params(M), n), 3)
                    .with_async_epochs(StalenessBound::Unbounded)
                    .with_scheduler(SchedulerKind::ShardedCalendar {
                        shards: BENCH_SHARDS,
                    })
                    .with_lookahead(4)
                    .with_threads(4);
                let mut t = 0usize;
                b.iter(|| {
                    net.tick(&rewards[t % rewards.len()]);
                    t += 1;
                });
            },
        );
    }
    group.finish();
}

/// Normalizes `dist_runtime/<runtime>/<n>` measurements to ns/round
/// and writes the JSON report the CI perf-tracking step consumes.
fn emit_json(measurements: &[(String, f64)]) -> std::io::Result<()> {
    let path = match std::env::var("BENCH_DIST_JSON") {
        Ok(s) if s == "skip" => return Ok(()),
        Ok(s) => std::path::PathBuf::from(s),
        // Default: `results/BENCH_dist.json` at the workspace root
        // (two levels up from this crate's manifest).
        Err(_) => {
            let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop();
            p.pop();
            p.join("results").join("BENCH_dist.json")
        }
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut rows = Vec::new();
    for (id, mean_ns) in measurements {
        let mut parts = id.splitn(3, '/');
        let (Some("dist_runtime"), Some(runtime), Some(n)) =
            (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let rounds_per_iter = if runtime.starts_with("batched_x") {
            BATCH_ROUNDS as f64
        } else {
            1.0
        };
        rows.push(format!(
            "    {{ \"runtime\": \"{runtime}\", \"n\": {n}, \"ns_per_round\": {:.1} }}",
            mean_ns / rounds_per_iter
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"dist_runtime\",\n  \"unit\": \"ns_per_round\",\n  \
         \"batch_rounds\": {BATCH_ROUNDS},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    dist_runtime_benches(&mut criterion);
    if !criterion.is_test_mode() && !criterion.measurements().is_empty() {
        if let Err(e) = emit_json(criterion.measurements()) {
            eprintln!("failed to write BENCH_dist.json: {e}");
            std::process::exit(1);
        }
    }
}
