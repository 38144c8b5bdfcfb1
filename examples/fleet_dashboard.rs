//! Live fleet telemetry in ~60 lines: attach a [`MetricsRecorder`]
//! sink to a sharded fully-async fleet under a rolling-restart script,
//! feed the recorded frames into a [`SeriesRegistry`], and render the
//! same data twice — a terminal dashboard frame ([`LiveTerm`]) and a
//! self-contained SVG snapshot ([`LiveSvg`]).
//!
//! Everything here runs in virtual time (round numbers), so the
//! output is byte-identical on every run:
//!
//! ```text
//! cargo run --release --example fleet_dashboard
//! ```
//!
//! For the long-lived interactive version (ANSI redraw, churn flags,
//! wall-clock ms/tick series) use the CLI instead:
//! `cargo run --release -p sociolearn-experiments -- watch`.

#![forbid(unsafe_code)]

use rand::SeedableRng;
use sociolearn::core::{BernoulliRewards, GroupDynamics, Params, RewardModel};
use sociolearn::dist::{
    DistConfig, EventRuntime, FaultPlan, MetricsRecorder, ProtocolRuntime, SchedulerKind,
    StalenessBound,
};
use sociolearn::plot::{LiveSvg, LiveTerm, SeriesRegistry};

fn main() {
    let ticks = 120u64;
    let params = Params::new(4, 0.6).expect("canonical params");
    let faults = FaultPlan::none().rolling_restart(40, 15);
    let cfg = DistConfig::new(params, 400).with_faults(faults);
    let mut fleet = EventRuntime::new(cfg, 20170508)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });

    let mut env =
        BernoulliRewards::linear(params.num_options(), 0.9, 0.1).expect("valid reward spread");
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mut rewards = vec![false; params.num_options()];
    let mut recorder = MetricsRecorder::new(ticks as usize);
    for t in 1..=ticks {
        env.sample(t, &mut rng, &mut rewards);
        fleet.observed_round(&rewards, &mut recorder);
    }

    // One registry feeds both renderers; every series derives from the
    // recorder's per-window frames, i.e. from virtual time only.
    let mut reg = SeriesRegistry::new(ticks as usize);
    let alive = reg.gauge("alive nodes", "nodes");
    let commit = reg.gauge("commit fraction", "frac");
    let skew = reg.gauge("epoch skew", "epochs");
    let churn = reg.counter("churn events", "/tick");
    let imbalance = reg.gauge("shard imbalance", "nodes");
    for f in recorder.frames() {
        reg.push(alive, f.alive as f64);
        reg.push(commit, f.commit_fraction);
        reg.push(skew, f.epoch_skew as f64);
        reg.push(
            churn,
            (f.delta.joins + f.delta.leaves + f.delta.rejoins) as f64,
        );
        let (lo, hi) = f
            .shard_loads
            .iter()
            .fold((usize::MAX, 0), |(lo, hi), &l| (lo.min(l), hi.max(l)));
        reg.push(imbalance, hi.saturating_sub(lo) as f64);
    }

    println!("{}", LiveTerm::new().render(&reg));

    let svg = LiveSvg::new("fleet_dashboard example · sharded async fleet, rolling restarts");
    let path = std::path::Path::new("results").join("fleet_dashboard.svg");
    std::fs::create_dir_all("results").expect("create results dir");
    svg.save(&path, &reg).expect("write svg");
    println!(
        "best-option share {:.3} · snapshot {}",
        fleet.distribution()[0],
        path.display()
    );
}
