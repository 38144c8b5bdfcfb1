//! The `experiments watch` subcommand: a long-lived fleet streaming
//! its live telemetry dashboard.
//!
//! `watch` runs one configured fleet (any execution model, optionally
//! sharded, under an optional churn script), attaches a
//! [`MetricsRecorder`] through the runtimes' observer hook, renders
//! the terminal dashboard every few ticks, and writes a final
//! `results/telemetry_<name>.svg` snapshot.
//!
//! Everything in this module runs on virtual time. The one wall-clock
//! quantity on the dashboard — ms/tick — is measured by the *caller*
//! (the CLI in `main.rs`, with its detlint D2 waiver) and handed in
//! through the `tick_ms` closure, so the snapshot this module writes
//! stays a pure function of the seed: the SVG charts protocol series
//! only, and two runs with the same configuration produce
//! byte-identical files.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{BernoulliRewards, Params, RewardModel};
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, Metrics, MetricsRecorder, ProtocolRuntime, Runtime,
    SchedulerKind, StalenessBound, TelemetryFrame, MAX_LOOKAHEAD,
};
use sociolearn_plot::{LiveSvg, LiveTerm, SeriesRegistry};
use std::io::Write;
use std::path::PathBuf;

/// Which execution model `watch` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchModel {
    /// The round-synchronous [`Runtime`].
    RoundSync,
    /// The epoch-quiesced [`EventRuntime`].
    Event,
    /// [`EventRuntime`] with fully-async overlapping epochs.
    Async,
}

impl WatchModel {
    /// Parses the `--model` CLI value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "sync" | "round-sync" => Ok(WatchModel::RoundSync),
            "event" | "quiesced" => Ok(WatchModel::Event),
            "async" => Ok(WatchModel::Async),
            other => Err(format!(
                "unknown model {other:?}; expected sync, event, or async"
            )),
        }
    }
}

/// Which churn script `watch` runs the fleet under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnScript {
    /// No membership churn.
    None,
    /// A rolling restart sweeping the fleet in tenth-of-fleet batches.
    Rolling,
    /// A flash crowd: the last tenth of the fleet joins cold.
    Flash,
    /// Region loss: a quarter of the fleet blinks out, then rejoins.
    Region,
}

impl ChurnScript {
    /// Parses the `--churn` CLI value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(ChurnScript::None),
            "rolling" => Ok(ChurnScript::Rolling),
            "flash" => Ok(ChurnScript::Flash),
            "region" => Ok(ChurnScript::Region),
            other => Err(format!(
                "unknown churn script {other:?}; expected none, rolling, flash, or region"
            )),
        }
    }

    /// Resolves the script into a [`FaultPlan`] for an `n`-node fleet
    /// watched for `ticks` rounds.
    fn plan(self, n: usize, ticks: u64) -> FaultPlan {
        match self {
            ChurnScript::None => FaultPlan::none(),
            ChurnScript::Rolling => {
                FaultPlan::none().rolling_restart((n / 10).max(1), (ticks / 8).max(2))
            }
            ChurnScript::Flash => {
                FaultPlan::none().flash_crowd((n / 10).max(1), (ticks / 3).max(1))
            }
            ChurnScript::Region => {
                let q = (n / 4).max(1);
                let down = (ticks / 3).max(1);
                FaultPlan::none().region_loss(0..q, down, down + (ticks / 6).max(1))
            }
        }
    }
}

/// Configuration of one `watch` session.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Snapshot name: the SVG lands at `out_dir/telemetry_<name>.svg`.
    pub name: String,
    /// Fleet size `N`.
    pub n: usize,
    /// Number of options `m`.
    pub m: usize,
    /// Adoption strength `beta`.
    pub beta: f64,
    /// Execution model to drive.
    pub model: WatchModel,
    /// Scheduler shards for the event models.
    pub shards: usize,
    /// Lookahead block width `K` for the event models (1 = classic
    /// per-window barrier).
    pub lookahead: u64,
    /// Worker threads for dense lookahead blocks (0 = auto, 1 =
    /// in-thread; a single shard always runs in-thread).
    pub threads: usize,
    /// Churn script to run under.
    pub churn: ChurnScript,
    /// Ticks to run.
    pub ticks: u64,
    /// Render a dashboard frame every this many ticks.
    pub cadence: u64,
    /// Sample-ring window (dashboard history depth).
    pub window: usize,
    /// Root seed; the whole trajectory is a function of it.
    pub seed: u64,
    /// Output directory for the SVG snapshot.
    pub out_dir: PathBuf,
    /// Redraw the dashboard in place with ANSI escapes (false appends
    /// frames — the right mode for logs and CI).
    pub ansi: bool,
}

impl Default for WatchConfig {
    /// The acceptance-scenario default: a sharded fully-async fleet
    /// under a rolling-restart script.
    fn default() -> Self {
        WatchConfig {
            name: "fleet".into(),
            n: 2000,
            m: 4,
            beta: 0.6,
            model: WatchModel::Async,
            shards: 8,
            lookahead: 1,
            threads: 0,
            churn: ChurnScript::Rolling,
            ticks: 200,
            cadence: 10,
            window: 240,
            seed: 20170508,
            out_dir: PathBuf::from("results"),
            ansi: false,
        }
    }
}

/// Parses `experiments watch` flags into a [`WatchConfig`].
///
/// Every failure — a flag missing its value, a value that does not
/// parse, `--n 0`, `--shards 0`, an out-of-range `--lookahead`, or an
/// unknown model/churn/flag — is a *usage* error returned as a descriptive message (the CLI prints it
/// and exits with status 2, the conventional usage-error code).
///
/// # Errors
///
/// Returns the message to print when the arguments are not a valid
/// `watch` invocation.
pub fn parse_watch_args(args: &[String]) -> Result<WatchConfig, String> {
    let mut cfg = WatchConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        macro_rules! next_parsed {
            ($what:expr, $kind:expr) => {
                match iter.next() {
                    None => return Err(format!("{} needs {}", $what, $kind)),
                    Some(raw) => raw
                        .parse()
                        .map_err(|_| format!("{} needs {}, got {raw:?}", $what, $kind))?,
                }
            };
        }
        match arg.as_str() {
            "--ticks" => cfg.ticks = next_parsed!("--ticks", "an unsigned integer"),
            "--n" => {
                cfg.n = next_parsed!("--n", "an unsigned integer");
                if cfg.n == 0 {
                    return Err("--n must be at least 1".into());
                }
            }
            "--m" => cfg.m = next_parsed!("--m", "an unsigned integer"),
            "--beta" => cfg.beta = next_parsed!("--beta", "a number"),
            "--shards" => {
                cfg.shards = next_parsed!("--shards", "an unsigned integer");
                if cfg.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--lookahead" => {
                cfg.lookahead = next_parsed!("--lookahead", "an unsigned integer");
                if !(1..=MAX_LOOKAHEAD).contains(&cfg.lookahead) {
                    return Err(format!(
                        "--lookahead must be in 1..={MAX_LOOKAHEAD}, got {}",
                        cfg.lookahead
                    ));
                }
            }
            "--threads" => {
                cfg.threads = next_parsed!("--threads", "an unsigned integer (0 = auto)")
            }
            "--cadence" => cfg.cadence = next_parsed!("--cadence", "an unsigned integer"),
            "--window" => cfg.window = next_parsed!("--window", "an unsigned integer"),
            "--seed" => cfg.seed = next_parsed!("--seed", "an unsigned integer"),
            "--ansi" => cfg.ansi = true,
            "--name" => match iter.next() {
                Some(name) => cfg.name = name.clone(),
                None => return Err("--name needs a value".into()),
            },
            "--out" => match iter.next() {
                Some(dir) => cfg.out_dir = dir.into(),
                None => return Err("--out needs a directory".into()),
            },
            "--model" => match iter.next() {
                Some(s) => cfg.model = WatchModel::parse(s)?,
                None => return Err("--model needs a value (sync, event, or async)".into()),
            },
            "--churn" => match iter.next() {
                Some(s) => cfg.churn = ChurnScript::parse(s)?,
                None => {
                    return Err("--churn needs a value (none, rolling, flash, or region)".into())
                }
            },
            other => return Err(format!("unexpected watch argument {other:?}")),
        }
    }
    Ok(cfg)
}

/// What a `watch` session reports back.
#[derive(Debug, Clone)]
pub struct WatchOutcome {
    /// Ticks actually run.
    pub ticks: u64,
    /// Where the SVG snapshot was written.
    pub svg_path: PathBuf,
    /// The rendered SVG (what was written to `svg_path`).
    pub svg: String,
    /// Cumulative protocol counters over the run.
    pub metrics: Metrics,
    /// Final share of the best option (option 0 under the linear
    /// reward environment).
    pub best_share: f64,
}

/// Pushes one recorder frame into the protocol-series registry.
fn push_frame(reg: &mut SeriesRegistry, f: &TelemetryFrame) {
    let alive = reg.gauge("alive", "nodes");
    let commit = reg.gauge("commit fraction", "");
    let skew = reg.gauge("epoch skew", "epochs");
    let queries = reg.counter("queries", "msgs/tick");
    let replies = reg.counter("replies", "msgs/tick");
    let fallbacks = reg.counter("fallbacks", "/tick");
    let stale = reg.counter("stale replies", "/tick");
    let churn = reg.counter("churn events", "/tick");
    let imbalance = reg.gauge("shard imbalance", "nodes");
    reg.push(alive, f.alive as f64);
    reg.push(commit, f.commit_fraction);
    reg.push(skew, f.epoch_skew as f64);
    reg.push(queries, f.delta.queries_sent as f64);
    reg.push(replies, f.delta.replies_received as f64);
    reg.push(fallbacks, f.delta.fallbacks as f64);
    reg.push(stale, f.delta.stale_replies as f64);
    reg.push(
        churn,
        (f.delta.joins + f.delta.leaves + f.delta.rejoins) as f64,
    );
    let lo = f.shard_loads.iter().min().copied().unwrap_or(0);
    let hi = f.shard_loads.iter().max().copied().unwrap_or(0);
    reg.push(imbalance, (hi - lo) as f64);
}

/// Runs a `watch` session.
///
/// `tick_ms` is called once per completed tick and must return the
/// wall milliseconds the tick took, as measured by the caller (the
/// CLI's waivered stopwatch, or a virtual timer in tests) — it feeds
/// the terminal-only ms/tick series. `out` receives the dashboard
/// frames; the SVG snapshot (protocol series only, so it is
/// deterministic in the seed) is written under `cfg.out_dir`.
///
/// # Errors
///
/// Returns an error string when the configuration is invalid or
/// writing the snapshot/stream fails.
pub fn run_watch(
    cfg: &WatchConfig,
    tick_ms: &mut dyn FnMut() -> f64,
    out: &mut dyn Write,
) -> Result<WatchOutcome, String> {
    let params = Params::new(cfg.m, cfg.beta).map_err(|e| e.to_string())?;
    let faults = cfg.churn.plan(cfg.n, cfg.ticks);
    let dist = DistConfig::new(params, cfg.n).with_faults(faults);
    let mut rt: Box<dyn ProtocolRuntime> = match cfg.model {
        WatchModel::RoundSync => Box::new(Runtime::new(dist, cfg.seed)),
        WatchModel::Event | WatchModel::Async => {
            let mut ev = EventRuntime::new(dist, cfg.seed);
            if cfg.model == WatchModel::Async {
                ev = ev.with_async_epochs(StalenessBound::Unbounded);
            }
            Box::new(
                ev.with_scheduler(SchedulerKind::ShardedCalendar { shards: cfg.shards })
                    .with_lookahead(cfg.lookahead)
                    .with_threads(cfg.threads),
            )
        }
    };

    let mut env = BernoulliRewards::linear(cfg.m, 0.9, 0.1).map_err(|e| e.to_string())?;
    let mut env_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut rewards = vec![false; cfg.m];

    let mut recorder = MetricsRecorder::new(cfg.window);
    let mut proto = SeriesRegistry::new(cfg.window);
    let mut wall = SeriesRegistry::new(cfg.window);
    let ms_series = wall.gauge("ms/tick", "ms");
    let term = LiveTerm::new();
    let cadence = cfg.cadence.max(1);

    for t in 0..cfg.ticks {
        env.sample(t, &mut env_rng, &mut rewards);
        rt.observed_round(&rewards, &mut recorder);
        recorder.record_wall_ms(tick_ms());
        let frame = recorder.latest().expect("frame recorded this tick");
        wall.push(ms_series, frame.wall_ms.unwrap_or(0.0));
        push_frame(&mut proto, frame);
        if (t + 1) % cadence == 0 || t + 1 == cfg.ticks {
            let text = if cfg.ansi {
                format!("{}{}", term.frame(&proto), term.render(&wall))
            } else {
                format!("{}{}\n", term.render(&proto), term.render(&wall))
            };
            out.write_all(text.as_bytes()).map_err(|e| e.to_string())?;
        }
    }

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let svg_path = cfg.out_dir.join(format!("telemetry_{}.svg", cfg.name));
    let title = format!(
        "{} · N={} m={} beta={} · {:?}/{:?} · seed {}",
        cfg.name, cfg.n, cfg.m, cfg.beta, cfg.model, cfg.churn, cfg.seed
    );
    let snapshot = LiveSvg::new(&title);
    let svg = snapshot.render(&proto);
    std::fs::write(&svg_path, &svg).map_err(|e| e.to_string())?;

    let dist_final = rt.distribution();
    Ok(WatchOutcome {
        ticks: cfg.ticks,
        svg_path,
        svg,
        metrics: rt.metrics(),
        best_share: dist_final.first().copied().unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(dir: &std::path::Path) -> WatchConfig {
        WatchConfig {
            n: 120,
            ticks: 24,
            cadence: 8,
            window: 32,
            out_dir: dir.to_path_buf(),
            ..WatchConfig::default()
        }
    }

    #[test]
    fn watch_streams_frames_and_writes_deterministic_svg() {
        let dir = std::env::temp_dir().join("sociolearn_watch_test");
        let run = || {
            let mut sink = Vec::new();
            // A virtual timer: determinism must not depend on it, but
            // give it a varying shape anyway.
            let mut fake_t = 0.0f64;
            let mut timer = || {
                fake_t += 1.5;
                fake_t
            };
            run_watch(&quick_cfg(&dir), &mut timer, &mut sink).expect("watch runs")
        };
        let a = run();
        let b = run();
        // Same seed, same config: byte-identical snapshot and
        // identical counters.
        assert_eq!(a.svg, b.svg);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.best_share, b.best_share);
        assert!(a.svg_path.ends_with("telemetry_fleet.svg"));
        assert!(std::fs::read_to_string(&a.svg_path)
            .unwrap()
            .starts_with("<svg"));
        // The rolling restart actually exercised churn counters.
        assert!(a.metrics.leaves > 0 && a.metrics.rejoins > 0);
    }

    #[test]
    fn svg_excludes_wall_clock_series() {
        let dir = std::env::temp_dir().join("sociolearn_watch_test_ms");
        let mut sink = Vec::new();
        let mut timer = || 123.456;
        let outcome = run_watch(&quick_cfg(&dir), &mut timer, &mut sink).expect("watch runs");
        assert!(
            !outcome.svg.contains("ms/tick"),
            "snapshot must be wall-clock free"
        );
        // ...but the streamed dashboard does chart it.
        let streamed = String::from_utf8(sink).unwrap();
        assert!(streamed.contains("ms/tick"));
        assert!(streamed.contains("alive"));
    }

    #[test]
    fn every_model_and_script_parses_and_runs() {
        let dir = std::env::temp_dir().join("sociolearn_watch_matrix");
        for (model, churn) in [
            (WatchModel::RoundSync, ChurnScript::None),
            (WatchModel::Event, ChurnScript::Flash),
            (WatchModel::Async, ChurnScript::Region),
        ] {
            let cfg = WatchConfig {
                model,
                churn,
                n: 60,
                ticks: 12,
                cadence: 6,
                shards: 2,
                name: format!("{model:?}_{churn:?}").to_lowercase(),
                out_dir: dir.clone(),
                ..WatchConfig::default()
            };
            let mut sink = Vec::new();
            let mut timer = || 1.0;
            let outcome = run_watch(&cfg, &mut timer, &mut sink).expect("runs");
            assert_eq!(outcome.ticks, 12);
            assert!(outcome.svg.contains("commit fraction"));
        }
    }

    #[test]
    fn cli_value_parsing() {
        assert_eq!(WatchModel::parse("sync").unwrap(), WatchModel::RoundSync);
        assert_eq!(WatchModel::parse("event").unwrap(), WatchModel::Event);
        assert_eq!(WatchModel::parse("async").unwrap(), WatchModel::Async);
        assert!(WatchModel::parse("warp").is_err());
        assert_eq!(ChurnScript::parse("rolling").unwrap(), ChurnScript::Rolling);
        assert_eq!(ChurnScript::parse("none").unwrap(), ChurnScript::None);
        assert!(ChurnScript::parse("tsunami").is_err());
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn watch_args_parse_into_a_full_config() {
        let cfg = parse_watch_args(&argv(&[
            "--ticks",
            "50",
            "--n",
            "300",
            "--m",
            "3",
            "--beta",
            "0.7",
            "--model",
            "async",
            "--shards",
            "4",
            "--lookahead",
            "4",
            "--threads",
            "2",
            "--churn",
            "flash",
            "--cadence",
            "5",
            "--window",
            "64",
            "--name",
            "demo",
            "--ansi",
            "--seed",
            "99",
            "--out",
            "tmp_out",
        ]))
        .expect("valid invocation");
        assert_eq!(cfg.ticks, 50);
        assert_eq!(cfg.n, 300);
        assert_eq!(cfg.m, 3);
        assert_eq!(cfg.beta, 0.7);
        assert_eq!(cfg.model, WatchModel::Async);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.lookahead, 4);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.churn, ChurnScript::Flash);
        assert_eq!(cfg.cadence, 5);
        assert_eq!(cfg.window, 64);
        assert_eq!(cfg.name, "demo");
        assert!(cfg.ansi);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.out_dir, PathBuf::from("tmp_out"));
    }

    #[test]
    fn watch_args_reject_usage_errors_descriptively() {
        // Each bad invocation must fail and the message must name the
        // offending flag — that is what the CLI prints before exit 2.
        for (args, needle) in [
            (vec!["--n", "0"], "--n must be at least 1"),
            (vec!["--shards", "0"], "--shards must be at least 1"),
            (vec!["--cadence", "fast"], "--cadence"),
            (vec!["--cadence"], "--cadence needs"),
            (vec!["--churn", "tsunami"], "unknown churn script"),
            (vec!["--model", "warp"], "unknown model"),
            (vec!["--ticks", "-3"], "--ticks"),
            (vec!["--frobnicate"], "unexpected watch argument"),
            (vec!["--lookahead", "0"], "--lookahead must be in"),
            (vec!["--lookahead", "99"], "--lookahead must be in"),
        ] {
            let err = parse_watch_args(&argv(&args)).expect_err(&format!("{args:?} must fail"));
            assert!(
                err.contains(needle),
                "error for {args:?} should mention {needle:?}, got {err:?}"
            );
        }
        // Lookahead and threads apply at any shard count.
        for args in [
            vec!["--shards", "1", "--lookahead", "2"],
            vec!["--shards", "1", "--threads", "4"],
            vec!["--shards", "2", "--lookahead", "2"],
            vec!["--threads", "4"],
        ] {
            let cfg = parse_watch_args(&argv(&args));
            assert!(cfg.is_ok(), "{args:?} must parse, got {cfg:?}");
        }
    }

    #[test]
    fn watch_runs_with_lookahead_and_threads() {
        let dir = std::env::temp_dir().join("sociolearn_watch_lookahead");
        let cfg = WatchConfig {
            n: 80,
            ticks: 10,
            cadence: 5,
            shards: 4,
            lookahead: 4,
            threads: 2,
            name: "look4".into(),
            out_dir: dir,
            ..WatchConfig::default()
        };
        let mut sink = Vec::new();
        let mut timer = || 1.0;
        let outcome = run_watch(&cfg, &mut timer, &mut sink).expect("runs");
        assert_eq!(outcome.ticks, 10);
        // One shard runs the same lookahead trajectory as four.
        let one = WatchConfig {
            shards: 1,
            name: "look4_one_shard".into(),
            ..cfg
        };
        let single = run_watch(&one, &mut timer, &mut sink).expect("runs");
        assert_eq!(single.metrics, outcome.metrics);
        assert_eq!(single.best_share, outcome.best_share);
    }

    #[test]
    fn ansi_mode_emits_redraw_escapes() {
        let dir = std::env::temp_dir().join("sociolearn_watch_ansi");
        let cfg = WatchConfig {
            ansi: true,
            n: 40,
            ticks: 6,
            cadence: 3,
            name: "ansi".into(),
            out_dir: dir,
            ..WatchConfig::default()
        };
        let mut sink = Vec::new();
        let mut timer = || 1.0;
        run_watch(&cfg, &mut timer, &mut sink).expect("runs");
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("\x1b[H\x1b[J"));
    }
}
