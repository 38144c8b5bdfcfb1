//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_quiesced|fleet_async_churn|reproduce_quick> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop: this one thread calls the library's
//! public API back to back (the library's own worker pool adds threads,
//! never more than the machine's available parallelism). The workload's
//! inputs are generated from `--seed`. Passes repeat until `--seconds`
//! have gone by. Every output is checked as it is produced. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
//! run records spans around every call into a library layer, adds the
//! component probes, and writes the spans to
//! `.bench_out/trace_<workload>_seed<seed>.jsonl`. See `README.md`.

mod checks;
mod fleet;
mod probes;
mod stats;
mod suite;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sociolearn_dist::StalenessBound;
use sociolearn_sim::SeedTree;

use checks::Checks;
use fleet::{FleetSpec, Pass, Tick};
use stats::{mean, median, quantile};
use trace::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Where runs write their spans and scratch files, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";
/// Extra set-up timings before each fleet pass, so `setup_s` is a
/// median of many samples spread over the run.
const SETUPS_PER_PASS: u64 = 3;
/// Batched set-up samples before each suite pass.
const SETUPS_PER_SUITE: usize = 10;
/// Fewest fleet passes per run: each adds one `converge_s` sample, and
/// five give the 100 steady ticks a p90 needs (ten samples beyond it).
const MIN_FLEET_PASSES: usize = 5;
/// Fewest suite passes per run.
const MIN_SUITE_PASSES: usize = 3;
/// Small-fleet passes after each suite pass: E15's quick-mode
/// replications of its lane.
const SMALL_FLEET_REPS: usize = 6;

/// Run ids of a traced run's probes and extra suite pass; the workload's
/// own passes count up from 0.
const PROBE_RUN: u32 = 2000;
const EXTRA_SUITE_RUN: u32 = 3000;

const USAGE: &str =
    "usage: perfbench --workload <fleet_quiesced|fleet_async_churn|reproduce_quick> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetQuiesced,
    FleetAsyncChurn,
    ReproduceQuick,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fleet_quiesced" => Ok(Workload::FleetQuiesced),
            "fleet_async_churn" => Ok(Workload::FleetAsyncChurn),
            "reproduce_quick" => Ok(Workload::ReproduceQuick),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetQuiesced => "fleet_quiesced",
            Workload::FleetAsyncChurn => "fleet_async_churn",
            Workload::ReproduceQuick => "reproduce_quick",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (1 for a computed or single reading).
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Everything one run shares: its arguments, recorder and check tally.
struct Run {
    args: Args,
    threads: usize,
    seeds: SeedTree,
    tracer: Tracer,
    checks: Checks,
    out_dir: PathBuf,
    /// Peak resident MiB of each pass.
    peaks: Vec<f64>,
}

impl Run {
    /// Whether another pass fits: fewer than `min` done, or the mean
    /// pass so far still fits in the measuring budget — `--seconds`, or
    /// half of it in a traced run, whose probes take the other half.
    fn more(&self, start: Instant, done: usize, min: usize) -> bool {
        let budget = if self.args.trace {
            self.args.seconds / 2.0
        } else {
            self.args.seconds
        };
        let elapsed = start.elapsed().as_secs_f64();
        done < min || elapsed + elapsed / done as f64 <= budget
    }

    /// Fleet passes of `spec` for the measuring budget, with extra
    /// set-up timings spread between them.
    fn fleet_passes(&mut self, spec: &FleetSpec) -> (Vec<f64>, Vec<Pass>) {
        let start = Instant::now();
        let mut setups = Vec::new();
        let mut passes: Vec<Pass> = Vec::new();
        while self.more(start, passes.len(), MIN_FLEET_PASSES) {
            let k = passes.len() as u64;
            for j in 0..SETUPS_PER_PASS {
                setups.push(fleet::time_setup(
                    spec,
                    self.seeds.subtree(1).child(k * SETUPS_PER_PASS + j),
                ));
            }
            self.tracer.begin_run(k as u32, self.args.trace);
            reset_peak_rss();
            let pass = fleet::run_pass(
                spec,
                self.seeds.subtree(2).child(k),
                &mut self.tracer,
                &mut self.checks,
            );
            self.peaks.extend(peak_rss_mb());
            setups.push(pass.setup_s);
            passes.push(pass);
        }
        fleet::check_shares(spec, &passes, &mut self.checks);
        (setups, passes)
    }

    /// Suite passes for the measuring budget, as (set-up samples, suite
    /// wall seconds, small-fleet passes). Batched set-up timings precede
    /// every suite pass, and E15's clean epoch-quiesced lane follows it:
    /// its replications of the small fleet, on seeds from the workload
    /// seed, outside the suite's time.
    fn suite_passes(&mut self) -> (Vec<f64>, Vec<f64>, Vec<Pass>) {
        let dir = self.out_dir.join(format!("suite_{}", std::process::id()));
        let spec = FleetSpec::small();
        let start = Instant::now();
        let mut setups = Vec::new();
        let mut suites = Vec::new();
        let mut small = Vec::new();
        while self.more(start, suites.len(), MIN_SUITE_PASSES) {
            for _ in 0..SETUPS_PER_SUITE {
                let seed = self.seeds.subtree(1).child(setups.len() as u64);
                setups.push(suite::time_setup(&dir, &spec, seed));
            }
            self.tracer.begin_run(suites.len() as u32, self.args.trace);
            reset_peak_rss();
            suites.push(suite::run_pass(&dir, &mut self.tracer, &mut self.checks));
            self.peaks.extend(peak_rss_mb());
            for _ in 0..SMALL_FLEET_REPS {
                let seed = self.seeds.subtree(3).child(small.len() as u64);
                small.push(fleet::run_pass(
                    &spec,
                    seed,
                    &mut self.tracer,
                    &mut self.checks,
                ));
            }
        }
        fleet::check_shares(&spec, &small, &mut self.checks);
        (setups, suites, small)
    }
}

/// Steady ticks that were (`traced`) or were not wrapped in a span.
fn steady(passes: &[Pass], traced: bool) -> Vec<Tick> {
    passes
        .iter()
        .flat_map(|p| p.steady.iter().copied())
        .filter(|t| t.traced == traced)
        .collect()
}

/// `converge_s`, the tick percentiles, throughput, message cost and
/// best share of an untraced run's fleet passes.
fn fleet_metrics(passes: &[Pass]) -> Vec<Metric> {
    let ticks = steady(passes, false);
    let ms = tick_ms(&ticks);
    let alive: f64 = ticks.iter().map(|t| t.rm.alive as f64).sum();
    let msgs: f64 = ticks
        .iter()
        .map(|t| (t.rm.queries_sent + t.rm.replies_received) as f64)
        .sum();
    let converge: Vec<f64> = passes.iter().map(|p| p.converge_s).collect();
    let shares: Vec<f64> = ticks.iter().map(|t| t.best_share).collect();
    vec![
        metric("converge_s", median(&converge), "s", converge.len()),
        metric("tick_ms_p50", median(&ms), "ms", ms.len()),
        metric("tick_ms_p90", quantile(&ms, 0.9), "ms", ms.len()),
        metric(
            "node_rounds_per_s",
            alive / (ms.iter().sum::<f64>() / 1e3),
            "1/s",
            ms.len(),
        ),
        metric("msgs_per_node_round", msgs / alive, "msgs", ticks.len()),
        metric("best_share_mean", mean(&shares), "share", shares.len()),
    ]
}

/// Wall milliseconds of each tick.
fn tick_ms(ticks: &[Tick]) -> Vec<f64> {
    ticks.iter().map(|t| t.ms).collect()
}

/// Median tick time per alive node, in ns, and the events per node the
/// ticks' messages imply (1 wake + 3 per query + 2 per reply; exact on
/// the clean quiesced path).
fn work_split(tick_ms: &[f64], ticks: &[Tick]) -> (f64, f64) {
    let sum = |f: fn(&Tick) -> u64| ticks.iter().map(f).sum::<u64>() as f64;
    let alive = sum(|t| t.rm.alive as u64);
    let queries = sum(|t| t.rm.queries_sent);
    let replies = sum(|t| t.rm.replies_received);
    let tick_ns_per_node = median(tick_ms) * 1e6 / (alive / ticks.len() as f64);
    (
        tick_ns_per_node,
        1.0 + (3.0 * queries + 2.0 * replies) / alive,
    )
}

/// The `dist.event` layer from traced ticks: their spans for time, their
/// round counters for work.
fn event_layer(span_ms: &[f64], traced: &[Tick]) -> Vec<Metric> {
    let n = traced.len();
    let sum = |f: fn(&Tick) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let alive = sum(|t| t.rm.alive as u64);
    let queries = sum(|t| t.rm.queries_sent);
    let replies = sum(|t| t.rm.replies_received);
    let (tick_ns_per_node, events_per_node) = work_split(span_ms, traced);
    let per_tick = |x: f64| x / n as f64;
    vec![
        metric(
            "dist.event.tick_ns_per_node",
            tick_ns_per_node,
            "ns",
            span_ms.len(),
        ),
        metric("dist.event.queries_per_node", queries / alive, "msgs", n),
        metric("dist.event.replies_per_node", replies / alive, "msgs", n),
        metric("dist.event.reply_ratio", replies / queries, "ratio", n),
        metric(
            "dist.event.fallbacks_per_node",
            sum(|t| t.rm.fallbacks) / alive,
            "count",
            n,
        ),
        metric(
            "dist.event.queue_drops",
            per_tick(sum(|t| t.rm.queue_drops)),
            "1/tick",
            n,
        ),
        metric("dist.event.events_per_node", events_per_node, "events", n),
        metric(
            "dist.event.ns_per_event",
            tick_ns_per_node / events_per_node,
            "ns",
            span_ms.len(),
        ),
    ]
}

/// The `dist.membership` layer from a churned fleet's steady ticks.
fn membership_layer(ticks: &[Tick]) -> Vec<Metric> {
    let n = ticks.len();
    let per_tick = |f: fn(&Tick) -> u64| ticks.iter().map(f).sum::<u64>() as f64 / n as f64;
    let ms_where = |rebalanced: bool| {
        ticks
            .iter()
            .filter(|t| (t.rebalances > 0) == rebalanced)
            .map(|t| t.ms)
            .collect::<Vec<_>>()
    };
    let (with, without) = (ms_where(true), ms_where(false));
    // With every tick (or none) rebalancing there is no contrast to
    // draw; report no excess rather than a made-up one.
    let excess = if with.is_empty() || without.is_empty() {
        0.0
    } else {
        median(&with) - median(&without)
    };
    vec![
        metric(
            "dist.membership.rebalances_per_tick",
            per_tick(|t| t.rebalances),
            "1/tick",
            n,
        ),
        metric(
            "dist.membership.churn_events_per_tick",
            per_tick(|t| t.rm.joins + t.rm.leaves + t.rm.rejoins),
            "1/tick",
            n,
        ),
        metric("dist.membership.rebalance_tick_excess_ms", excess, "ms", n),
    ]
}

/// `experiments.*` from the traced suite passes' `run_by_id` spans.
fn experiments_layer(tracer: &Tracer) -> Vec<Metric> {
    let mut per_run: std::collections::BTreeMap<u32, [f64; 5]> = Default::default();
    for s in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "experiments.run_by_id")
    {
        let slot = ["E9", "E15", "E17", "E19"]
            .iter()
            .position(|id| *id == s.label)
            .unwrap_or(4);
        per_run.entry(s.run).or_default()[slot] += s.ms() / 1e3;
    }
    let column = |i: usize| per_run.values().map(|r| r[i]).collect::<Vec<_>>();
    let passes = per_run.len();
    vec![
        metric("experiments.E9_s", median(&column(0)), "s", passes),
        metric("experiments.E15_s", median(&column(1)), "s", passes),
        metric("experiments.E17_s", median(&column(2)), "s", passes),
        metric("experiments.E19_s", median(&column(3)), "s", passes),
        metric("experiments.other_s", median(&column(4)), "s", passes),
    ]
}

/// Restarts the process's peak-RSS mark at its current resident size
/// (Linux `clear_refs` mode 5), so each pass reports its own peak. Where
/// that is unsupported the mark keeps the process-wide peak, which is
/// still a true peak, so the error is ignored.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory since the last reset, in MiB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &mut Run) -> Vec<Metric> {
    let (setups, suite_walls, passes) = match run.args.workload {
        Workload::ReproduceQuick => run.suite_passes(),
        w => {
            let spec = fleet_spec(w, run.threads);
            let (setups, passes) = run.fleet_passes(&spec);
            (setups, passes.iter().map(|p| p.wall_s).collect(), passes)
        }
    };
    let mut out = vec![metric("setup_s", median(&setups), "s", setups.len())];
    out.extend(fleet_metrics(&passes));
    out.push(metric(
        "suite_s",
        median(&suite_walls),
        "s",
        suite_walls.len(),
    ));
    // A pass's peak depends on how much freed memory the allocator
    // still holds, which varies between passes and runs; the median pass
    // is steadier than the process maximum.
    let peak = median(&run.peaks);
    out.push(metric("peak_rss_mb", peak, "MiB", run.peaks.len()));
    out
}

/// The per-layer metrics of a traced run: the workload's own passes,
/// then the probes every traced run shares.
fn per_layer(run: &mut Run) -> Vec<Metric> {
    let workload = run.args.workload;
    let passes = match workload {
        Workload::ReproduceQuick => run.suite_passes().2,
        w => run.fleet_passes(&fleet_spec(w, run.threads)).1,
    };
    let span_ms: Vec<f64> = run
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "dist.event.tick" && s.label == "steady")
        .map(trace::Span::ms)
        .collect();
    let traced = steady(&passes, true);
    run.checks.check(span_ms.len() == traced.len(), || {
        format!(
            "{} steady tick spans for {} traced ticks",
            span_ms.len(),
            traced.len()
        )
    });
    let mut out = event_layer(&span_ms, &traced);
    // What recording adds to a tick: each traced tick's span less the
    // tick's own timing inside it.
    let trace_overhead_us: Vec<f64> = span_ms
        .iter()
        .zip(&traced)
        .map(|(span, tick)| (span - tick.ms) * 1e3)
        .collect();

    // The clean quiesced fleet at 8 shards against 1 shard: the shard
    // tax, and the quiesced path's work split, on which the calendar
    // probe is sized.
    run.tracer.begin_run(PROBE_RUN, true);
    let probe_seed = run.seeds.child(4);
    let eight = FleetSpec::quiesced();
    let one = FleetSpec {
        shards: Some(1),
        ..eight
    };
    let tax = probes::lockstep(
        (&eight, "shards=8"),
        (&one, "shards=1"),
        probe_seed,
        &mut run.tracer,
        &mut run.checks,
    );
    let (eight_ms, one_ms) = (tick_ms(&tax.a), tick_ms(&tax.b));
    let (tick_ns_per_node, events_per_node) = work_split(&eight_ms, &tax.a);
    let n = eight_ms.len();
    out.extend([
        metric(
            "dist.event.quiesced.tick_ns_per_node",
            tick_ns_per_node,
            "ns",
            n,
        ),
        metric(
            "dist.event.quiesced.events_per_node",
            events_per_node,
            "events",
            n,
        ),
        metric(
            "dist.event.quiesced.ns_per_event",
            tick_ns_per_node / events_per_node,
            "ns",
            n,
        ),
        metric(
            "dist.transport.shard_tax",
            median(&eight_ms) / median(&one_ms),
            "ratio",
            n,
        ),
    ]);

    let nodes_per_shard = eight.n / eight.shards.expect("the quiesced fleet is sharded");
    let span = run.tracer.open("dist.calendar", "probe", None);
    let cal = probes::calendar(nodes_per_shard, events_per_node, probe_seed);
    run.tracer.close(span);
    let share = events_per_node * (cal.push_ns + cal.take_due_ns_per_entry) / tick_ns_per_node;
    let reps = probes::CALENDAR_REPS;
    out.extend([
        metric("dist.calendar.push_ns", cal.push_ns, "ns", reps),
        metric(
            "dist.calendar.take_due_ns_per_entry",
            cal.take_due_ns_per_entry,
            "ns",
            reps,
        ),
        metric("dist.calendar.share_of_tick", share, "ratio", 1),
    ]);
    eprintln!(
        "calendar probe: {nodes_per_shard} nodes/shard, mean bucket {:.0} entries",
        cal.mean_bucket
    );

    // The churned async fleet at 1 thread against all cores; its ticks
    // give the membership layer unless this workload churns itself.
    let serial = FleetSpec::async_churn(1);
    let wide = FleetSpec::async_churn(run.threads);
    let pool = probes::lockstep(
        (&serial, "threads=1"),
        (&wide, "threads=nproc"),
        probe_seed,
        &mut run.tracer,
        &mut run.checks,
    );
    let speedup = median(&tick_ms(&pool.a)) / median(&tick_ms(&pool.b));
    out.push(metric("sim.pool.speedup", speedup, "ratio", pool.a.len()));

    // Replies are withheld only under a finite staleness bound, so the
    // churned fleet runs once more under E17's tightest bound.
    let bounded = FleetSpec {
        staleness: Some(StalenessBound::Epochs(0)),
        ..wide
    };
    let stale = probes::solo(
        &bounded,
        "bound=0",
        probe_seed,
        &mut run.tracer,
        &mut run.checks,
    );
    let stale_per_tick: Vec<f64> = stale.iter().map(|t| t.rm.stale_replies as f64).collect();
    out.push(metric(
        "dist.event.stale_replies",
        mean(&stale_per_tick),
        "1/tick",
        stale.len(),
    ));
    let churned = if workload == Workload::FleetAsyncChurn {
        passes
            .iter()
            .flat_map(|p| p.steady.iter().copied())
            .collect()
    } else {
        pool.b
    };
    out.extend(membership_layer(&churned));

    let span = run.tracer.open("dist.telemetry", "probe", None);
    let on_tick = probes::on_tick_ns(probe_seed);
    run.tracer.close(span);
    let span = run.tracer.open("sim.pool", "probe", None);
    let pool_us = probes::pool_map_overhead_us(run.threads);
    run.tracer.close(span);
    let span = run.tracer.open("sim.parallel", "probe", None);
    let parallel_us = probes::parallel_map_overhead_us(run.threads);
    run.tracer.close(span);
    let span = run.tracer.open("dist.round_sync", "probe", None);
    let round_ns = probes::round_sync_ns_per_node(probe_seed);
    run.tracer.close(span);
    let dispatches = probes::DISPATCH_REPS;
    out.extend([
        metric(
            "dist.telemetry.on_tick_ns",
            on_tick,
            "ns",
            probes::ON_TICK_BATCHES,
        ),
        metric("sim.pool.map_overhead_us", pool_us, "us", dispatches),
        metric(
            "sim.parallel.map_overhead_us",
            parallel_us,
            "us",
            dispatches,
        ),
        metric(
            "dist.round_sync.ns_per_node",
            round_ns,
            "ns",
            probes::ROUND_SYNC_ROUNDS,
        ),
    ]);

    if workload != Workload::ReproduceQuick {
        run.tracer.begin_run(EXTRA_SUITE_RUN, true);
        let dir = run.out_dir.join(format!("suite_{}", std::process::id()));
        suite::run_pass(&dir, &mut run.tracer, &mut run.checks);
    }
    out.extend(experiments_layer(&run.tracer));
    out.push(metric(
        "bench.trace_overhead_us",
        median(&trace_overhead_us),
        "us",
        trace_overhead_us.len(),
    ));
    out
}

fn fleet_spec(workload: Workload, threads: usize) -> FleetSpec {
    match workload {
        Workload::FleetQuiesced => FleetSpec::quiesced(),
        Workload::FleetAsyncChurn => FleetSpec::async_churn(threads),
        Workload::ReproduceQuick => FleetSpec::small(),
    }
}

fn write_result(run: &Run, metrics: &[Metric]) {
    println!("{:<44} {:>16} {:<8} samples", "metric", "value", "unit");
    for m in metrics {
        println!(
            "{:<44} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in run.checks.first_failures() {
        println!("check failed: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.checks.failed() == 0,
        run.checks.attempted(),
        run.checks.failed(),
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR).to_path_buf();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut run = Run {
        seeds: SeedTree::new(args.seed),
        args,
        threads,
        tracer: Tracer::new(),
        checks: Checks::default(),
        out_dir,
        peaks: Vec::new(),
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {threads} threads available",
        run.args.workload.name(),
        run.args.seed,
        run.args.seconds,
        u8::from(run.args.trace)
    );
    let mut metrics = if run.args.trace {
        per_layer(&mut run)
    } else {
        end_to_end(&mut run)
    };
    for m in &metrics {
        run.checks.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    if run.args.trace {
        let path = run.out_dir.join(format!(
            "trace_{}_seed{}.jsonl",
            run.args.workload.name(),
            run.args.seed
        ));
        let tag = format!("{}/{}", run.args.workload.name(), run.args.seed);
        if let Err(e) = run.tracer.write_jsonl(&path, &tag) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            run.tracer.spans().len(),
            path.display()
        );
    }
    metrics.sort_by_key(|m| m.name);
    write_result(&run, &metrics);
    ExitCode::SUCCESS
}
