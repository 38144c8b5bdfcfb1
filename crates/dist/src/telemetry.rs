//! The observer surface of the runtimes: a per-tick sink trait and a
//! recorder deriving dashboard series from the raw counters.
//!
//! All three execution models report through one hook,
//! [`ProtocolRuntime::observed_round`](crate::ProtocolRuntime::observed_round):
//! it advances the runtime exactly as [`round`](crate::ProtocolRuntime::round)
//! would, then hands the attached [`TelemetrySink`] a
//! [`TickObservation`] — the round's counters, the cumulative totals,
//! and the model-specific gauges (epoch skew for the event runtimes,
//! per-shard load for the sharded calendar engine). The observation is assembled strictly *after* the round
//! completes and consumes no randomness, so attaching a sink can
//! never perturb a seed-pinned trajectory.
//!
//! Everything here is driven by virtual time only. Wall-clock
//! readings (for an ms/tick series) belong to the *driver* — e.g. the
//! `experiments watch` CLI — which stamps them onto the recorder via
//! [`MetricsRecorder::record_wall_ms`].

use crate::{ExecutionModel, Metrics, RoundMetrics};
use std::collections::VecDeque;

/// Everything a [`TelemetrySink`] sees after one round/tick-window.
///
/// `shard_loads` has one entry per scheduler shard (a single entry —
/// the whole fleet — for unsharded runtimes); `epoch_skew` is 0
/// wherever the concept does not exist (see the field docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickObservation {
    /// The counters of the round that just completed.
    pub round: RoundMetrics,
    /// Cumulative counters across all rounds so far.
    pub cumulative: Metrics,
    /// Which execution model produced the observation.
    pub model: ExecutionModel,
    /// Fleet size `N` (present or not).
    pub num_nodes: usize,
    /// Max−min completed local epoch over present nodes. Always 0
    /// for barriered execution (round-sync, epoch-quiesced), where no
    /// node can run ahead.
    pub epoch_skew: u64,
    /// Present-node count per scheduler shard, in shard order,
    /// evaluated after the round's membership transitions land (the
    /// same clock as `alive_count`, i.e. presence going into the next
    /// round). A single whole-fleet entry for unsharded runtimes.
    pub shard_loads: Vec<usize>,
}

/// A per-tick observer of a running fleet.
///
/// Implementations receive one [`TickObservation`] per
/// [`observed_round`](crate::ProtocolRuntime::observed_round) call.
/// The hook runs after the round has fully completed, so a sink can
/// only read — it cannot change what the protocol does, and runs with
/// no sink attached follow byte-identical trajectories.
///
/// # Example
///
/// ```
/// use sociolearn_core::Params;
/// use sociolearn_dist::{
///     DistConfig, ProtocolRuntime, Runtime, TelemetrySink, TickObservation,
/// };
///
/// struct AliveLog(Vec<usize>);
/// impl TelemetrySink for AliveLog {
///     fn on_tick(&mut self, obs: &TickObservation) {
///         self.0.push(obs.round.alive);
///     }
/// }
///
/// let params = Params::new(3, 0.6).unwrap();
/// let mut rt = Runtime::new(DistConfig::new(params, 40), 7);
/// let mut log = AliveLog(Vec::new());
/// for _ in 0..5 {
///     rt.observed_round(&[true, false, false], &mut log);
/// }
/// assert_eq!(log.0, vec![40; 5]);
/// ```
pub trait TelemetrySink {
    /// Called once per completed round/tick-window.
    fn on_tick(&mut self, obs: &TickObservation);
}

/// The no-op sink: observing with it is equivalent to calling
/// [`round`](crate::ProtocolRuntime::round) directly.
///
/// ```
/// use sociolearn_dist::{NoTelemetry, TelemetrySink, TickObservation};
/// // It implements the trait and does nothing.
/// let _sink: &dyn TelemetrySink = &NoTelemetry;
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl TelemetrySink for NoTelemetry {
    fn on_tick(&mut self, _obs: &TickObservation) {}
}

/// One dashboard-ready frame derived from a [`TickObservation`]:
/// levels, fractions, and per-window deltas instead of monotone
/// totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// The 1-based round the frame describes.
    pub round: u64,
    /// Nodes alive during the round.
    pub alive: usize,
    /// Alive nodes that committed this round.
    pub committed: usize,
    /// `committed / alive` (0 when no node is alive).
    pub commit_fraction: f64,
    /// Nodes still bootstrapping after a (re)join.
    pub bootstrapping: u64,
    /// Max−min completed local epoch over present nodes.
    pub epoch_skew: u64,
    /// Per-window deltas of every [`Metrics`] counter (a
    /// [`Metrics::since`] of this window against the previous one).
    pub delta: Metrics,
    /// Present-node count per scheduler shard.
    pub shard_loads: Vec<usize>,
    /// Driver-measured wall milliseconds for this tick, if the driver
    /// stamped one via [`MetricsRecorder::record_wall_ms`]. Never
    /// measured by the recorder itself — the runtime is virtual-time
    /// only.
    pub wall_ms: Option<f64>,
}

/// A [`TelemetrySink`] that turns raw observations into a bounded
/// window of derived [`TelemetryFrame`]s: alive count, commit
/// fraction, epoch skew, per-shard load, and per-window deltas of
/// every cumulative counter — plus an ms/tick slot the driver stamps
/// with its own (waivered) stopwatch.
///
/// # Example
///
/// ```
/// use sociolearn_core::Params;
/// use sociolearn_dist::{DistConfig, EventRuntime, MetricsRecorder, ProtocolRuntime};
///
/// let params = Params::new(4, 0.6).unwrap();
/// let mut rt = EventRuntime::new(DistConfig::new(params, 60), 11);
/// let mut rec = MetricsRecorder::new(120);
/// for _ in 0..8 {
///     rt.observed_round(&[true, false, false, false], &mut rec);
/// }
/// assert_eq!(rec.len(), 8);
/// let last = rec.latest().unwrap();
/// assert_eq!(last.round, 8);
/// assert!(last.commit_fraction >= 0.0 && last.commit_fraction <= 1.0);
/// // Deltas over the recorded window sum back to the totals.
/// let sent: u64 = rec.frames().map(|f| f.delta.queries_sent).sum();
/// assert_eq!(sent, rt.metrics().queries_sent);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    window: usize,
    frames: VecDeque<TelemetryFrame>,
    prev: Metrics,
    ticks: u64,
}

impl MetricsRecorder {
    /// Creates a recorder retaining the most recent `window` frames
    /// (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        MetricsRecorder {
            window: window.max(1),
            frames: VecDeque::new(),
            prev: Metrics::default(),
            ticks: 0,
        }
    }

    /// Frames currently retained.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no frames have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Maximum number of frames retained.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total observations ever recorded (evicted frames included).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The most recent frame, if any.
    pub fn latest(&self) -> Option<&TelemetryFrame> {
        self.frames.back()
    }

    /// Iterates the retained frames oldest-first.
    pub fn frames(&self) -> impl Iterator<Item = &TelemetryFrame> {
        self.frames.iter()
    }

    /// Stamps the most recent frame with a driver-measured wall-clock
    /// duration in milliseconds. A no-op before the first frame.
    ///
    /// The recorder never reads a clock itself: whoever drives the
    /// fleet in real time owns the stopwatch (and, in this workspace,
    /// the detlint D2 waiver that comes with it).
    pub fn record_wall_ms(&mut self, ms: f64) {
        if let Some(f) = self.frames.back_mut() {
            f.wall_ms = Some(ms);
        }
    }
}

impl TelemetrySink for MetricsRecorder {
    fn on_tick(&mut self, obs: &TickObservation) {
        let alive = obs.round.alive;
        let commit_fraction = if alive == 0 {
            0.0
        } else {
            obs.round.committed as f64 / alive as f64
        };
        let frame = TelemetryFrame {
            round: obs.round.round,
            alive,
            committed: obs.round.committed,
            commit_fraction,
            bootstrapping: obs.round.bootstrapping,
            epoch_skew: obs.epoch_skew,
            delta: obs.cumulative.since(&self.prev),
            shard_loads: obs.shard_loads.clone(),
            wall_ms: None,
        };
        self.prev = obs.cumulative;
        if self.frames.len() == self.window {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
        self.ticks += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistConfig, EventRuntime, FaultPlan, ProtocolRuntime, Runtime, SchedulerKind};
    use sociolearn_core::Params;

    fn obs(round: u64, sent: u64) -> TickObservation {
        TickObservation {
            round: RoundMetrics {
                round,
                alive: 10,
                committed: 5,
                ..RoundMetrics::default()
            },
            cumulative: Metrics {
                rounds: round,
                queries_sent: sent,
                ..Metrics::default()
            },
            model: ExecutionModel::RoundSync,
            num_nodes: 10,
            epoch_skew: 0,
            shard_loads: vec![10],
        }
    }

    #[test]
    fn recorder_derives_deltas_not_totals() {
        let mut rec = MetricsRecorder::new(8);
        rec.on_tick(&obs(1, 30));
        rec.on_tick(&obs(2, 70));
        let deltas: Vec<u64> = rec.frames().map(|f| f.delta.queries_sent).collect();
        assert_eq!(deltas, vec![30, 40]);
        assert_eq!(rec.latest().unwrap().commit_fraction, 0.5);
    }

    #[test]
    fn recorder_window_evicts_oldest() {
        let mut rec = MetricsRecorder::new(2);
        for t in 1..=5 {
            rec.on_tick(&obs(t, t * 10));
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.ticks(), 5);
        let rounds: Vec<u64> = rec.frames().map(|f| f.round).collect();
        assert_eq!(rounds, vec![4, 5]);
    }

    #[test]
    fn wall_ms_stamps_latest_frame_only() {
        let mut rec = MetricsRecorder::new(4);
        rec.record_wall_ms(9.9); // before any frame: no-op
        rec.on_tick(&obs(1, 10));
        rec.record_wall_ms(1.25);
        rec.on_tick(&obs(2, 20));
        let stamps: Vec<Option<f64>> = rec.frames().map(|f| f.wall_ms).collect();
        assert_eq!(stamps, vec![Some(1.25), None]);
    }

    #[test]
    fn zero_alive_commit_fraction_is_zero() {
        let mut rec = MetricsRecorder::new(2);
        let mut o = obs(1, 0);
        o.round.alive = 0;
        o.round.committed = 0;
        rec.on_tick(&o);
        assert_eq!(rec.latest().unwrap().commit_fraction, 0.0);
    }

    /// One runtime stepped through the observer hook, a twin stepped
    /// plainly: identical per-round counters, totals, distributions.
    fn assert_twin<R: ProtocolRuntime>(mut observed: R, mut plain: R) {
        let mut sink = NoTelemetry;
        for t in 0..40u64 {
            let rewards = [t % 2 == 0, t % 3 == 0, t % 5 == 0];
            let ra = observed.observed_round(&rewards, &mut sink);
            let rb = plain.round(&rewards);
            assert_eq!(ra, rb, "round {t}");
        }
        assert_eq!(observed.metrics(), plain.metrics());
        assert_eq!(observed.distribution(), plain.distribution());
    }

    #[test]
    fn observed_round_matches_round_on_all_models() {
        let params = Params::new(3, 0.6).unwrap();
        let faults = FaultPlan::none().rolling_restart(5, 6);
        let cfg = || DistConfig::new(params, 30).with_faults(faults.clone());

        assert_twin(Runtime::new(cfg(), 9), Runtime::new(cfg(), 9));
        assert_twin(EventRuntime::new(cfg(), 9), EventRuntime::new(cfg(), 9));
        let sharded = || {
            EventRuntime::new(cfg(), 9).with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 })
        };
        assert_twin(sharded(), sharded());
    }

    #[test]
    fn sharded_observation_reports_loads_and_rebalances() {
        let params = Params::new(3, 0.6).unwrap();
        let cfg = DistConfig::new(params, 24).with_faults(FaultPlan::none().rolling_restart(6, 4));
        let mut rt =
            EventRuntime::new(cfg, 5).with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        let mut rec = MetricsRecorder::new(64);
        for t in 0..30u64 {
            let rewards = [t % 2 == 0, false, true];
            rt.observed_round(&rewards, &mut rec);
            // Shard loads cover all 4 lanes, partition the fleet's
            // presence going into the next round, and stay within one
            // node of each other while the restart sweeps the fleet.
            let f = rec.latest().unwrap();
            assert_eq!(f.shard_loads.len(), 4, "round {}", f.round);
            assert_eq!(
                f.shard_loads.iter().sum::<usize>(),
                rt.alive_count(),
                "round {}",
                f.round
            );
            let lo = f.shard_loads.iter().min().unwrap();
            let hi = f.shard_loads.iter().max().unwrap();
            assert!(hi - lo <= 1, "round {}: {:?}", f.round, f.shard_loads);
        }
        // The restart did take nodes down.
        assert!(rec.frames().any(|f| f.alive < 24));
    }

    #[test]
    fn unsharded_observation_reports_single_whole_fleet_shard() {
        let params = Params::new(2, 0.65).unwrap();
        let mut rt = Runtime::new(DistConfig::new(params, 12), 3);
        let mut rec = MetricsRecorder::new(8);
        rt.observed_round(&[true, false], &mut rec);
        let f = rec.latest().unwrap();
        assert_eq!(f.shard_loads, vec![12]);
        assert_eq!(f.epoch_skew, 0);
    }
}
