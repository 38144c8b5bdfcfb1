//! Fleet passes: one `EventRuntime` built from a spec and driven tick by
//! tick against a reward stream generated from the seed.
//!
//! A pass is set-up, a fixed transient window (the `converge_s`
//! sample) and a fixed steady window (the tick samples). Every tick is
//! checked against the runtime's own counters, and every run's steady
//! share against a same-params `FinitePopulation` fed the same rewards.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{BernoulliRewards, FinitePopulation, GroupDynamics, Params, RewardModel};
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, MetricsRecorder, ProtocolRuntime, RoundMetrics,
    SchedulerKind, StalenessBound,
};
use sociolearn_sim::SeedTree;

use crate::checks::Checks;
use crate::stats::mean;
use crate::trace::{SpanId, Tracer};

/// Quality of the best option; the rest fall linearly to the spec's
/// `worst`.
const BEST: f64 = 0.9;
/// Ring depth of the live `MetricsRecorder` (the `watch` default).
const RECORDER_WINDOW: usize = 240;

/// What one fleet pass runs.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Fleet size `N`.
    pub n: usize,
    /// Options `m`.
    pub m: usize,
    /// Adoption strength `β`.
    pub beta: f64,
    /// Quality of the worst option.
    pub worst: f64,
    /// Calendar shards; `None` keeps the runtime's default scheduler.
    pub shards: Option<usize>,
    /// Lookahead block width `K` (sharded engine only).
    pub lookahead: u64,
    /// Worker threads of the sharded engine.
    pub threads: usize,
    /// Fully-async epochs with this staleness bound; `None` is
    /// epoch-quiesced.
    pub staleness: Option<StalenessBound>,
    /// Per-message link-loss probability.
    pub drop_prob: f64,
    /// `FaultPlan::rolling_restart(batch, period)`.
    pub rolling_restart: Option<(usize, u64)>,
    /// Drive through `observed_round` with a live `MetricsRecorder`.
    pub telemetry: bool,
    /// Ticks in the transient window.
    pub transient: usize,
    /// Ticks in the steady window.
    pub steady: usize,
}

impl FleetSpec {
    /// `fleet_quiesced`: the paper's synchronous dynamics at fleet scale
    /// on one thread.
    pub fn quiesced() -> Self {
        FleetSpec {
            n: 100_000,
            m: 4,
            beta: 0.6,
            worst: 0.1,
            shards: Some(8),
            lookahead: 1,
            threads: 1,
            staleness: None,
            drop_prob: 0.0,
            rolling_restart: None,
            telemetry: false,
            transient: 20,
            steady: 20,
        }
    }

    /// `fleet_async_churn`: fully-async, lossy, rolling restarts, live
    /// telemetry, `threads` worker threads.
    pub fn async_churn(threads: usize) -> Self {
        FleetSpec {
            lookahead: 4,
            threads,
            staleness: Some(StalenessBound::Unbounded),
            drop_prob: 0.05,
            rolling_restart: Some((50, 4)),
            telemetry: true,
            ..FleetSpec::quiesced()
        }
    }

    /// The small fleet of `reproduce_quick`: E15's quick-mode
    /// epoch-quiesced lane on a clean network (N = 256, m = 2, β = 0.65,
    /// qualities 0.9 and 0.4, 150 rounds) on the runtime's default
    /// scheduler.
    pub fn small() -> Self {
        FleetSpec {
            n: 256,
            m: 2,
            beta: 0.65,
            worst: 0.4,
            shards: None,
            transient: 20,
            steady: 130,
            ..FleetSpec::quiesced()
        }
    }

    /// Largest allowed gap between the fleet's steady best-option share
    /// and the `FinitePopulation` reference's, pooled over a run's
    /// passes. A clean quiesced fleet follows the reference's law, so
    /// only sampling noise separates them; loss, churn and stale
    /// information cost the async fleet a few points of share on top.
    pub fn share_tolerance(&self) -> f64 {
        match (self.staleness.is_some(), self.n >= 10_000) {
            (true, _) => 0.06,
            (false, true) => 0.02,
            (false, false) => 0.04,
        }
    }

    /// Builds the runtime with its builders.
    pub fn build(&self, seed: u64) -> EventRuntime {
        let mut faults =
            FaultPlan::with_drop_prob(self.drop_prob).expect("drop probability is in [0, 1]");
        if let Some((batch, period)) = self.rolling_restart {
            faults = faults.rolling_restart(batch, period);
        }
        let config = DistConfig::new(self.params(), self.n).with_faults(faults);
        let mut rt = EventRuntime::new(config, seed);
        if let Some(bound) = self.staleness {
            rt = rt.with_async_epochs(bound);
        }
        if let Some(shards) = self.shards {
            rt = rt
                .with_scheduler(SchedulerKind::ShardedCalendar { shards })
                .with_lookahead(self.lookahead)
                .with_threads(self.threads);
        }
        rt
    }

    /// The dynamics' parameters.
    pub fn params(&self) -> Params {
        Params::new(self.m, self.beta).expect("benchmark parameters are valid")
    }
}

/// The inputs of one pass, all derived from one seed.
pub struct PassInputs {
    /// Seed handed to the runtime.
    pub fleet_seed: u64,
    /// Seed of the reference population's own randomness.
    pub reference_seed: u64,
    /// One reward row per tick.
    pub rewards: Vec<Vec<bool>>,
}

impl PassInputs {
    /// Inputs for `ticks` ticks of `spec` from `seed`.
    pub fn new(spec: &FleetSpec, seed: u64, ticks: usize) -> Self {
        let tree = SeedTree::new(seed);
        let mut env = BernoulliRewards::linear(spec.m, BEST, spec.worst).expect("valid qualities");
        let mut rng = SmallRng::seed_from_u64(tree.child(1));
        let mut row = vec![false; spec.m];
        let rewards = (0..ticks)
            .map(|t| {
                env.sample(t as u64, &mut rng, &mut row);
                row.clone()
            })
            .collect();
        PassInputs {
            fleet_seed: tree.child(0),
            reference_seed: tree.child(2),
            rewards,
        }
    }
}

/// One measured tick.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// Wall time of the call, in milliseconds.
    pub ms: f64,
    /// The round's counters.
    pub rm: RoundMetrics,
    /// Share of the best option among committed nodes after the tick.
    pub best_share: f64,
    /// Shard rebalances during the tick.
    pub rebalances: u64,
    /// Whether a span wrapped the call.
    pub traced: bool,
}

/// A built runtime plus what driving it needs.
pub struct Fleet {
    rt: EventRuntime,
    recorder: Option<MetricsRecorder>,
    rebalances: u64,
}

impl Fleet {
    /// Builds the fleet (runtime and, with telemetry, its recorder).
    pub fn new(spec: &FleetSpec, seed: u64) -> Self {
        Fleet {
            rt: spec.build(seed),
            recorder: spec
                .telemetry
                .then(|| MetricsRecorder::new(RECORDER_WINDOW)),
            rebalances: 0,
        }
    }

    /// Advances one tick, timing only the library call (inside a
    /// `dist.event.tick` span when tracing), then checks the round.
    pub fn step(
        &mut self,
        rewards: &[bool],
        label: &'static str,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        checks: &mut Checks,
    ) -> Tick {
        let span = tracer.open("dist.event.tick", label, parent);
        let start = Instant::now();
        let rm = match &mut self.recorder {
            Some(rec) => self.rt.observed_round(rewards, rec),
            None => self.rt.tick(rewards),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);

        let n = self.rt.num_nodes();
        let counts = self.rt.counts();
        let committed: u64 = counts.iter().sum();
        checks.check(rm.committed <= rm.alive && rm.alive <= n, || {
            format!(
                "round {}: committed {} alive {} N {n}",
                rm.round, rm.committed, rm.alive
            )
        });
        if self.rt.is_async() {
            // Async counts are the instantaneous commitments of present
            // nodes, while `committed` counts this window's decisions.
            let present = self.rt.alive_count();
            checks.check(committed <= present as u64, || {
                format!(
                    "round {}: sum of counts {committed} > present {present}",
                    rm.round
                )
            });
        } else {
            checks.check(committed == rm.committed as u64, || {
                format!(
                    "round {}: sum of counts {committed} != committed {}",
                    rm.round, rm.committed
                )
            });
        }
        checks.check(rm.replies_received <= rm.queries_sent, || {
            format!(
                "round {}: replies {} > queries {}",
                rm.round, rm.replies_received, rm.queries_sent
            )
        });
        let best_share = if committed == 0 {
            0.0
        } else {
            counts[0] as f64 / committed as f64
        };
        let total = self.rt.shard_rebalances();
        let rebalances = total - self.rebalances;
        self.rebalances = total;
        Tick {
            ms,
            rm,
            best_share,
            rebalances,
            traced: span.is_some(),
        }
    }
}

/// One completed pass.
pub struct Pass {
    /// Runtime construction, in seconds.
    pub setup_s: f64,
    /// Wall time of the transient window, in seconds.
    pub converge_s: f64,
    /// Set-up plus every tick, in seconds.
    pub wall_s: f64,
    /// The steady-window ticks.
    pub steady: Vec<Tick>,
    /// Mean steady best-option share.
    pub share: f64,
    /// The same for a `FinitePopulation` fed the same rewards.
    pub reference: f64,
}

/// Checks a run's pooled steady share against the pooled reference.
pub fn check_shares(spec: &FleetSpec, passes: &[Pass], checks: &mut Checks) {
    let share = mean(&passes.iter().map(|p| p.share).collect::<Vec<_>>());
    let reference = mean(&passes.iter().map(|p| p.reference).collect::<Vec<_>>());
    let tol = spec.share_tolerance();
    eprintln!(
        "N={}: best share {share:.4}, reference {reference:.4}, {} passes",
        spec.n,
        passes.len()
    );
    checks.check((share - reference).abs() <= tol, || {
        format!("steady best share {share:.4} vs FinitePopulation {reference:.4} (tolerance {tol})")
    });
}

/// Runs one pass of `spec` on inputs from `seed`, with its reference
/// share. If the tracer is active, ticks are traced in alternating
/// blocks of four, so each half of a pass sees every phase of a
/// period-2 or period-4 churn script.
pub fn run_pass(spec: &FleetSpec, seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> Pass {
    let inputs = PassInputs::new(spec, seed, spec.transient + spec.steady);
    let pass_span = tracer.open("bench.fleet_pass", "", None);
    let start = Instant::now();
    let setup_span = tracer.open("bench.setup", "", pass_span);
    let mut fleet = Fleet::new(spec, inputs.fleet_seed);
    tracer.close(setup_span);
    let setup_s = start.elapsed().as_secs_f64();

    let traced_pass = tracer.active();
    let mut converge_s = 0.0;
    let mut steady = Vec::with_capacity(spec.steady);
    for (t, rewards) in inputs.rewards.iter().enumerate() {
        tracer.set_active(traced_pass && (t / 4) % 2 == 0);
        let transient = t < spec.transient;
        let label = if transient { "transient" } else { "steady" };
        let tick = fleet.step(rewards, label, tracer, pass_span, checks);
        if transient {
            converge_s += tick.ms / 1e3;
        } else {
            steady.push(tick);
        }
    }
    tracer.set_active(traced_pass);
    let wall_s = start.elapsed().as_secs_f64();
    tracer.close(pass_span);
    drop(fleet);

    let share = mean(&steady.iter().map(|t| t.best_share).collect::<Vec<_>>());
    let reference = reference_share(spec, &inputs);
    Pass {
        setup_s,
        converge_s,
        wall_s,
        steady,
        share,
        reference,
    }
}

/// Seconds to build (and not run) the runtime of `spec`.
pub fn time_setup(spec: &FleetSpec, seed: u64) -> f64 {
    let start = Instant::now();
    let fleet = Fleet::new(spec, seed);
    let s = start.elapsed().as_secs_f64();
    drop(fleet);
    s
}

/// Mean steady best-option share of a `FinitePopulation` with the same
/// parameters and size, fed the same rewards.
fn reference_share(spec: &FleetSpec, inputs: &PassInputs) -> f64 {
    let mut pop = FinitePopulation::new(spec.params(), spec.n);
    let mut rng = SmallRng::seed_from_u64(inputs.reference_seed);
    let mut shares = Vec::with_capacity(spec.steady);
    for (t, rewards) in inputs.rewards.iter().enumerate() {
        pop.step(rewards, &mut rng);
        if t >= spec.transient {
            let counts = pop.counts();
            let committed: u64 = counts.iter().sum();
            shares.push(if committed == 0 {
                0.0
            } else {
                counts[0] as f64 / committed as f64
            });
        }
    }
    mean(&shares)
}
