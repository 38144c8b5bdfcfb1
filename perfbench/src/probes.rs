//! Component probes for the layers a tick hides, the paired fleet
//! probes behind `dist.transport.shard_tax` and `sim.pool.speedup`, and
//! the single fleet probe behind `dist.event.stale_replies`.
//! Each times public calls only; repetitions are reduced to a median.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_dist::{
    Calendar, DistConfig, Entry, MetricsRecorder, ProtocolRuntime, Runtime, TelemetrySink,
    TickObservation, MAX_MESSAGE_LATENCY, RING_SLOTS,
};
use sociolearn_sim::{parallel_map, WorkerPool};

use crate::checks::Checks;
use crate::fleet::{Fleet, FleetSpec, PassInputs, Tick};
use crate::stats::median;
use crate::trace::Tracer;

/// Per-entry costs of the public `Calendar` at one fleet's bucket sizes.
pub struct CalendarCost {
    /// Nanoseconds per `push`.
    pub push_ns: f64,
    /// Nanoseconds per entry of `take_due` (the window sort included)
    /// plus the bucket's `recycle`.
    pub take_due_ns_per_entry: f64,
    /// Mean entries per non-empty bucket.
    pub mean_bucket: f64,
}

/// Wake-up spread of an epoch, in virtual-time units (the engine's).
const WAKE_SPREAD: u64 = 32;
/// Calendars filled and drained per probe.
pub const CALENDAR_REPS: usize = 9;

/// Times `Calendar::push` and `take_due` on the buckets one shard of
/// `nodes` nodes produces at `events_per_node` events per node and
/// tick: every node wakes somewhere in the wake spread and then
/// schedules its events one message latency apart, so a bucket holds
/// entries of many sources, pushed interleaved, each source's in
/// increasing `seq`.
pub fn calendar(nodes: usize, events_per_node: f64, seed: u64) -> CalendarCost {
    let per_node = (events_per_node.round() as usize).clamp(1, 11);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..nodes as u32).collect();
    let mut push = Vec::new();
    let mut take = Vec::new();
    let mut buckets = 0usize;
    let mut entries = 0usize;
    for _ in 0..CALENDAR_REPS {
        let mut times: Vec<u64> = (0..nodes).map(|_| rng.gen_range(0..WAKE_SPREAD)).collect();
        let mut batch = Vec::with_capacity(nodes * per_node);
        for seq in 0..per_node as u32 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for &src in &order {
                let at = &mut times[src as usize];
                batch.push(Entry {
                    at: *at,
                    src,
                    seq,
                    payload: [src, seq],
                });
                *at = (*at + rng.gen_range(1..=MAX_MESSAGE_LATENCY)).min(RING_SLOTS as u64 - 1);
            }
        }
        let total = batch.len();
        let mut cal = Calendar::new();
        let start = Instant::now();
        for e in batch {
            cal.push(e);
        }
        push.push(start.elapsed().as_nanos() as f64 / total as f64);

        let start = Instant::now();
        let mut seen = 0usize;
        for now in 0..RING_SLOTS as u64 {
            let due = cal.take_due(now);
            if !due.is_empty() {
                buckets += 1;
                seen += due.len();
                black_box(&due);
            }
            cal.recycle(due);
        }
        take.push(start.elapsed().as_nanos() as f64 / total as f64);
        assert_eq!(seen, total, "every pushed entry comes due once");
        entries += total;
    }
    CalendarCost {
        push_ns: median(&push),
        take_due_ns_per_entry: median(&take),
        mean_bucket: entries as f64 / buckets as f64,
    }
}

const DISPATCH_WARM: usize = 50;
/// Timed dispatches per overhead probe.
pub const DISPATCH_REPS: usize = 1000;

/// Microseconds per `WorkerPool::map` of one empty job per lane.
pub fn pool_map_overhead_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let mut samples = Vec::with_capacity(DISPATCH_REPS);
    for i in 0..DISPATCH_WARM + DISPATCH_REPS {
        let start = Instant::now();
        black_box(pool.map(vec![(); threads], |()| ()));
        if i >= DISPATCH_WARM {
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples)
}

/// Microseconds per `parallel_map` of one empty job per core.
pub fn parallel_map_overhead_us(threads: usize) -> f64 {
    let mut samples = Vec::with_capacity(DISPATCH_REPS);
    for i in 0..DISPATCH_WARM + DISPATCH_REPS {
        let start = Instant::now();
        black_box(parallel_map(vec![(); threads], |()| ()));
        if i >= DISPATCH_WARM {
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&samples)
}

/// Keeps the latest observation a runtime reports.
struct Capture(Option<TickObservation>);

impl TelemetrySink for Capture {
    fn on_tick(&mut self, obs: &TickObservation) {
        self.0 = Some(obs.clone());
    }
}

/// Timed batches of the `on_tick` probe.
pub const ON_TICK_BATCHES: usize = 20;

/// Nanoseconds per `MetricsRecorder::on_tick`, replaying an observation
/// recorded from a churned, lossy, 8-shard async fleet (its shape does
/// not depend on `N`, so a small fleet records it).
pub fn on_tick_ns(seed: u64) -> f64 {
    let spec = FleetSpec {
        n: 2_000,
        ..FleetSpec::async_churn(1)
    };
    let inputs = PassInputs::new(&spec, seed, 8);
    let mut rt = spec.build(inputs.fleet_seed);
    let mut capture = Capture(None);
    for rewards in &inputs.rewards {
        rt.observed_round(rewards, &mut capture);
    }
    let obs = capture.0.expect("the runtime reported its ticks");
    let mut recorder = MetricsRecorder::new(240);
    const BATCH: u32 = 2_000;
    const WARM: usize = 5;
    let samples: Vec<f64> = (0..WARM + ON_TICK_BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..BATCH {
                recorder.on_tick(black_box(&obs));
            }
            start.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    black_box(recorder.len());
    median(&samples[WARM..])
}

/// Timed rounds of the round-sync probe.
pub const ROUND_SYNC_ROUNDS: usize = 30;

/// Nanoseconds per node of a steady `Runtime::round` on the quiesced
/// fleet's dynamics at N = 1e5.
pub fn round_sync_ns_per_node(seed: u64) -> f64 {
    const N: usize = 100_000;
    const WARM: usize = 20;
    let spec = FleetSpec::quiesced();
    let inputs = PassInputs::new(&spec, seed, WARM + ROUND_SYNC_ROUNDS);
    let mut rt = Runtime::new(DistConfig::new(spec.params(), N), inputs.fleet_seed);
    let mut samples = Vec::new();
    for (t, rewards) in inputs.rewards.iter().enumerate() {
        let start = Instant::now();
        black_box(rt.round(rewards));
        if t >= WARM {
            samples.push(start.elapsed().as_nanos() as f64 / N as f64);
        }
    }
    median(&samples)
}

/// Ticks of a paired fleet probe, and how many of them warm up.
const PAIR_TICKS: usize = 24;
const PAIR_WARM: usize = 12;

/// The steady ticks of two fleets that must follow the same trajectory,
/// stepped in lockstep (alternating which goes first) on the same
/// inputs; every round is checked to be identical.
pub struct Pair {
    /// The first spec's steady ticks.
    pub a: Vec<Tick>,
    /// The second spec's steady ticks.
    pub b: Vec<Tick>,
}

/// Runs `a` and `b` side by side for a fixed window.
pub fn lockstep(
    a: (&FleetSpec, &'static str),
    b: (&FleetSpec, &'static str),
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Pair {
    let inputs = PassInputs::new(a.0, seed, PAIR_TICKS);
    let span = tracer.open("bench.probe", a.1, None);
    let mut fa = Fleet::new(a.0, inputs.fleet_seed);
    let mut fb = Fleet::new(b.0, inputs.fleet_seed);
    let mut pair = Pair {
        a: Vec::new(),
        b: Vec::new(),
    };
    for (t, rewards) in inputs.rewards.iter().enumerate() {
        let (ta, tb) = if t % 2 == 0 {
            let ta = fa.step(rewards, a.1, tracer, span, checks);
            (ta, fb.step(rewards, b.1, tracer, span, checks))
        } else {
            let tb = fb.step(rewards, b.1, tracer, span, checks);
            (fa.step(rewards, a.1, tracer, span, checks), tb)
        };
        checks.check(ta.rm == tb.rm, || {
            format!(
                "{} vs {}: round {} differs: {:?} vs {:?}",
                a.1,
                b.1,
                t + 1,
                ta.rm,
                tb.rm
            )
        });
        if t >= PAIR_WARM {
            pair.a.push(ta);
            pair.b.push(tb);
        }
    }
    tracer.close(span);
    pair
}

/// The steady ticks of one fleet run for the paired probes' window.
pub fn solo(
    spec: &FleetSpec,
    label: &'static str,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<Tick> {
    let inputs = PassInputs::new(spec, seed, PAIR_TICKS);
    let span = tracer.open("bench.probe", label, None);
    let mut fleet = Fleet::new(spec, inputs.fleet_seed);
    let mut ticks = Vec::new();
    for (t, rewards) in inputs.rewards.iter().enumerate() {
        let tick = fleet.step(rewards, label, tracer, span, checks);
        if t >= PAIR_WARM {
            ticks.push(tick);
        }
    }
    tracer.close(span);
    ticks
}
