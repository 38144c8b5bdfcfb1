//! The event-driven runtime: the same O(1)-state-per-node protocol as
//! [`Runtime`](crate::Runtime), executed by a seeded discrete-event
//! scheduler instead of a global round barrier.
//!
//! Every message (query out, reply back) is one scheduled event with
//! its own latency jitter, handled by its receiver the moment it is
//! due — one query and one reply, with no mailbox, as in the paper's
//! "select a random individual and observe the option that individual
//! chose". A query that never produces a reply — lost on the link, or
//! addressed to a crashed, departed, or sat-out peer — is recovered by
//! a timeout-driven retry against a fresh peer, up to
//! [`MAX_QUERY_RETRIES`](crate::MAX_QUERY_RETRIES) attempts before the
//! uniform fallback. This is the transport behavior a
//! round-synchronous barrier hides, and the bridge toward fully
//! asynchronous bounded-memory collaborative learning
//! (Su–Zubeldia–Lynch, arXiv:1802.08159).
//!
//! Membership churn (scripted joins, leaves, and rejoins from the
//! [`crate::FaultPlan`]) runs through the same machinery: an absent
//! node receives nothing and answers nothing, and a (re)joining node
//! enters *bootstrapping* — no commitment, no history — and adopts
//! through the ordinary query/reply protocol. There is no state-
//! transfer message type; [`crate::NODE_STATE_BYTES`] of state is
//! cheaper to relearn than to ship. In fully-async mode a wake-up
//! carries its node's *incarnation* so a wake scheduled before a leave
//! cannot fire into the node's next life after a rejoin.
//!
//! In the default **epoch-quiesced** mode, each call to
//! [`EventRuntime::tick`] is one *epoch*: alive nodes wake at jittered
//! virtual times, exchange messages through the scheduler, and the
//! epoch completes when every event has been delivered and every alive
//! node has resolved its stage-1 sample and stage-2 adoption against
//! the epoch's fresh reward signals. Peers answer queries from the
//! *previous* epoch's commitments, so on a clean network the per-epoch
//! law is the same sample-then-adopt process as the round-synchronous
//! runtime — the cross-crate equivalence tests check it agrees in law
//! with `sociolearn_core::FinitePopulation`.
//!
//! In **fully-async** mode ([`EventRuntime::with_async_epochs`]) the
//! quiescence barrier is removed: each node runs its own epoch loop on
//! a local cadence of [`ASYNC_EPOCH_PERIOD`] scheduler ticks, advances
//! its local epoch counter the moment its reply (or timeout fallback)
//! lands, and immediately schedules its next wake-up — nodes stuck in
//! retry storms drift behind while fast nodes race ahead, so epochs
//! overlap across the fleet. Queries carry the sender's local epoch; a
//! responder whose own information is more than the configured
//! [`StalenessBound`] behind the querier withholds its reply (counted
//! in [`RoundMetrics::stale_replies`]) and the querier's timeout
//! drives a retry. [`EventRuntime::tick`] then means "advance the
//! scheduler through one epoch-period window of virtual time": a
//! healthy node completes about one local epoch per tick, a node
//! mired in retry timeouts completes less than one and genuinely
//! falls behind the fleet, and in-flight messages survive from one
//! tick into the next — exactly the no-quiescence regime under study
//! (Su–Zubeldia–Lynch, arXiv:1802.08159).
//!
//! Message cost per epoch is bounded exactly as in the round-
//! synchronous runtime: at most
//! [`MAX_QUERY_RETRIES`](crate::MAX_QUERY_RETRIES) queries and one
//! reply per query per node per epoch, i.e. `≤ 2 · MAX_QUERY_RETRIES
//! · N` messages per epoch (in async mode, per *local* epoch).
//! Protocol state stays O(1) per node in both modes: the current
//! commitment, plus — in async mode only — one history slot (the
//! previous commitment), kept so a node can answer queries about the
//! epoch a slower or faster peer is still working on.

use rand::rngs::SmallRng;
use sociolearn_core::GroupDynamics;

use crate::calendar::{ExecTuning, SchedulerKind, ShardMap, ShardedEngine, MAX_LOOKAHEAD};
use crate::shell::RoundShell;
use crate::{DistConfig, ExecutionModel, Metrics, NodeState, ProtocolRuntime, RoundMetrics};

/// Upper bound on the per-message latency jitter, in scheduler ticks;
/// each delivery draws uniformly from `1..=MAX_MESSAGE_LATENCY`.
pub const MAX_MESSAGE_LATENCY: u64 = 8;

/// Fixed handling delay every message pays on top of its link
/// latency (and any lookahead deferral): a message sent at `now` with
/// latency `l` is handled by its receiver at `now + l + DELIVER_DELAY`.
/// It sets the protocol's time scale together with the latency range —
/// [`RETRY_TIMEOUT`] and [`ASYNC_EPOCH_PERIOD`] are derived from both.
pub(crate) const DELIVER_DELAY: u64 = 1;

/// Window over which alive nodes' wake-ups are jittered at the start
/// of an epoch.
pub(crate) const WAKE_SPREAD: u64 = 32;

/// How long a querier waits for a reply before retrying. Strictly
/// larger than the worst-case round trip
/// (`2 · MAX_MESSAGE_LATENCY + 2 · DELIVER_DELAY`), so a reply that
/// is actually in flight always wins over its timeout — which is why
/// an answered query schedules no timeout at all. The responder of an
/// unanswered one schedules it on arrival, so the timeout must also
/// fall past that arrival's lookahead block:
/// `RETRY_TIMEOUT >= MAX_MESSAGE_LATENCY + DELIVER_DELAY +
/// MAX_LOOKAHEAD`.
pub(crate) const RETRY_TIMEOUT: u64 = 2 * MAX_MESSAGE_LATENCY + 2 * DELIVER_DELAY + 1;

/// Nominal scheduler ticks between consecutive local-epoch wake-ups of
/// one node in fully-async mode. Long enough that an epoch resolved
/// within a few retry timeouts finishes inside the period — so a
/// healthy fleet keeps a loose common cadence and sees roughly one
/// local epoch per tick — while an epoch that burns through a longer
/// timeout chain (likely under message loss, crashes, or tight
/// staleness bounds) overruns it and the node drifts behind its
/// peers: that drift is the epoch overlap the mode exists to study.
pub const ASYNC_EPOCH_PERIOD: u64 = 4 * RETRY_TIMEOUT;

/// Jitter added to each async wake-up so node loops never phase-lock.
pub(crate) const ASYNC_WAKE_JITTER: u64 = 4;

/// How far behind the querier a responder's information may be before
/// the responder withholds its reply in fully-async mode
/// ([`EventRuntime::with_async_epochs`]).
///
/// Staleness of a reply is measured in local epochs: a querier working
/// on its local epoch `e` would, under synchronized execution, copy
/// information committed at epoch `e - 1`; a responder whose last
/// completed epoch is `r` is `(e - 1) - r` epochs staler than that
/// (clamped at zero — fresher information is never penalized). A bound
/// of `Epochs(0)` therefore accepts only peers at least as current as
/// a synchronized one, which is why bound-0 async execution agrees in
/// law with the epoch-quiesced scheduler, while `Unbounded` consumes
/// every reply and never counts [`RoundMetrics::stale_replies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StalenessBound {
    /// Consume every reply, however stale the responder's information.
    Unbounded,
    /// Withhold replies whose information is more than this many local
    /// epochs behind what a synchronized peer would hold.
    Epochs(u64),
}

impl StalenessBound {
    /// Whether information `stale` epochs behind the synchronized
    /// reference is still consumable under this bound.
    pub fn allows(self, stale: u64) -> bool {
        match self {
            StalenessBound::Unbounded => true,
            StalenessBound::Epochs(k) => stale <= k,
        }
    }
}

impl std::fmt::Display for StalenessBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessBound::Unbounded => f.write_str("unbounded"),
            StalenessBound::Epochs(k) => write!(f, "{k}"),
        }
    }
}

/// Which epoch discipline the scheduler runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Every epoch runs to quiescence before the next begins.
    Quiesced,
    /// Overlapping local epochs filtered by a staleness bound.
    Async(StalenessBound),
}

/// A scheduler event. Node ids are `u32` to keep calendar entries
/// small (the fleet bound of `u32::MAX` nodes is far beyond anything
/// the simulations run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// An alive node starts stage 1 of the protocol. `inc` is the
    /// node's incarnation at schedule time: async mode bumps a node's
    /// incarnation when it leaves, so a wake-up scheduled before the
    /// leave cannot fire into the rejoined node's next life (wake-ups
    /// are the only event kind whose horizon outlives an absence —
    /// everything else expires within one tick window). Quiesced mode
    /// clears the schedule every tick, so the tag is inert there.
    Wake { node: u32, inc: u32 },
    /// A query reaches `to`, which answers it on the spot (link loss
    /// already resolved at send time). The querier is the entry's
    /// `src`: a node sends its own queries. `epoch` is the querier's
    /// local epoch at send time — the staleness reference in async
    /// mode, ignored in quiesced mode. The query also carries the
    /// [`Event::Timeout`] its sender did not schedule: its `attempt`,
    /// and `wait`, the ticks from this arrival to the timeout's due
    /// time; the timeout's `seq` is the query's `seq - 1`. If `to`
    /// sends no reply, it schedules that timeout for the querier.
    QueryArrive {
        to: u32,
        epoch: u64,
        attempt: u8,
        wait: u8,
    },
    /// A reply carrying `option` reaches `node`, which consumes it
    /// unless stage 1 already resolved.
    ReplyArrive { node: u32, option: u32 },
    /// `node`'s query `attempt` has waited long enough; retry or fall
    /// back unless a reply already resolved it. `epoch` pins the
    /// timeout to the local epoch that issued the attempt, so a stale
    /// timeout surviving into a later epoch (possible in async mode,
    /// where the schedule is never cleared) cannot fire spuriously.
    ///
    /// A timeout is due [`RETRY_TIMEOUT`] after its query was sent,
    /// and is scheduled only for a query that gets no reply, by
    /// whichever side first learns that no reply is coming: the
    /// querier when the link drops its query, else the responder when
    /// it sends none.
    Timeout { node: u32, attempt: u8, epoch: u64 },
}

/// Per-node transport bookkeeping for the current epoch. This is
/// scheduler state, not protocol state: the node's *protocol* memory
/// is still just its committed option ([`crate::NODE_STATE_BYTES`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pending {
    /// The outstanding query attempt (0 = none issued yet).
    pub(crate) attempt: u32,
    /// Whether stage 1 has resolved this epoch (copied, explored, or
    /// fell back) — late replies and stale timeouts are ignored.
    pub(crate) resolved: bool,
}

/// Per-node state the event-driven runtime keeps: the current
/// commitment, the one-slot history `back` that answers epoch-nearest
/// queries, and the local epoch counter that tags outgoing queries in
/// async mode — the protocol state — plus the per-source sequence
/// counter and incarnation tag that give the scheduler its intrinsic
/// `(time, src, seq)` event order and its leave/rejoin fencing. The
/// pending-query slot and the wake anchor are transport bookkeeping
/// with their own constant bounds; there is no mailbox, since a message
/// is handled the moment it is due. Nothing grows this state, and a
/// node keeps it in one shard for the engine's life.
pub const EVENT_NODE_STATE_BYTES: usize = 2 * std::mem::size_of::<NodeState>()
    + std::mem::size_of::<u64>()
    + 2 * std::mem::size_of::<u32>();

// Compile-time bounded-memory budget: the event runtime's per-node
// state stays within 6× the advertised NODE_STATE_BYTES, and the
// transport bookkeeping stays flat. Renegotiate here, not by silently
// growing a struct.
const _: () = assert!(EVENT_NODE_STATE_BYTES <= 6 * crate::NODE_STATE_BYTES);
const _: () = assert!(std::mem::size_of::<Pending>() <= 2 * crate::NODE_STATE_BYTES);

/// The event-driven message-passing runtime: `N` nodes of
/// [`crate::NODE_STATE_BYTES`] protocol state each, exchanging
/// query/reply gossip through a seeded discrete-event scheduler with
/// per-message latency jitter and timeout-driven retries, with faults
/// injected per the configured [`crate::FaultPlan`]. A message is
/// handled the moment it is due: no node keeps a mailbox.
///
/// The scheduler is the sharded calendar-queue engine (one shard
/// unless [`with_scheduler`](EventRuntime::with_scheduler) asks for
/// more), built on the first [`tick`](EventRuntime::tick) from the
/// knobs set by then — the `with_*` builders only record settings.
/// All randomness — wake jitter, message latencies, protocol choices,
/// and fault realizations — derives from the seed passed to
/// [`EventRuntime::new`], split into one stream per node, so runs are
/// exactly reproducible and byte-identical across shard and thread
/// counts. Like [`Runtime`](crate::Runtime) it implements
/// [`GroupDynamics`] and [`ProtocolRuntime`], so every harness drives
/// the two runtimes interchangeably.
///
/// # Example
///
/// ```
/// use sociolearn_core::{GroupDynamics, Params};
/// use sociolearn_dist::{DistConfig, EventRuntime, FaultPlan};
///
/// let params = Params::new(3, 0.6)?;
/// let faults = FaultPlan::with_drop_prob(0.2).unwrap().crash(0, 40);
/// let mut net = EventRuntime::new(DistConfig::new(params, 64).with_faults(faults), 7);
/// for _ in 0..50 {
///     let rm = net.tick(&[true, false, false]);
///     assert!(rm.committed <= rm.alive);
/// }
/// assert_eq!(net.distribution().len(), 3);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EventRuntime {
    /// Configuration, membership, the counts cache (this epoch's in
    /// quiesced mode; the current commitments in async mode, synced
    /// from the engine every tick), the epoch counter and metrics.
    shell: RoundShell,
    mode: Mode,
    /// The root seed the engine splits its per-node streams from.
    seed: u64,
    /// Requested shard count (clamped to the fleet size at build).
    shards: usize,
    /// Multi-core execution knobs for the engine — lookahead block
    /// width, worker-thread count, and the fan-out threshold.
    tuning: ExecTuning,
    /// The engine, owning all per-node state; `None` until the first
    /// tick builds it.
    engine: Option<Box<ShardedEngine>>,
}

impl EventRuntime {
    /// Boots a fleet from the uniform initialization (node `i` starts
    /// committed to option `i mod m`, matching both the in-memory
    /// dynamics and the round-synchronous runtime) with all randomness
    /// derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan's membership script is invalid for
    /// this fleet (see [`DistConfig::validate`](crate::DistConfig::validate)).
    pub fn new(cfg: DistConfig, seed: u64) -> Self {
        EventRuntime {
            shell: RoundShell::new(cfg),
            mode: Mode::Quiesced,
            seed,
            shards: 1,
            tuning: ExecTuning::default(),
            engine: None,
        }
    }

    /// Switches the scheduler to **fully-async overlapping epochs**:
    /// no quiescence barrier, per-node local epoch counters advanced
    /// the moment a reply or timeout fallback lands, and replies
    /// staler than `bound` withheld by the responder (counted in
    /// [`RoundMetrics::stale_replies`]).
    ///
    /// In this mode [`tick`](EventRuntime::tick) advances the
    /// scheduler through one [`ASYNC_EPOCH_PERIOD`] window of virtual
    /// time: a healthy node completes about one local epoch per tick
    /// on its own cadence, a faulty one falls behind, and in-flight
    /// messages survive from tick to tick.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick — the epoch
    /// discipline is part of the deployment, not a per-round switch.
    pub fn with_async_epochs(mut self, bound: StalenessBound) -> Self {
        assert_eq!(
            self.shell.round, 0,
            "execution model must be chosen before the first tick"
        );
        self.mode = Mode::Async(bound);
        self
    }

    /// Sets the scheduler's shard count: calendar-queue shards striped
    /// over the node ids (node `i` in shard `i % shards`), with
    /// per-node RNG streams split from the root seed, so results are
    /// byte-identical for any shard count (the default is one shard).
    /// Composes with every other builder in any order.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick, or if zero
    /// shards are requested.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        assert_eq!(
            self.shell.round, 0,
            "scheduler must be chosen before the first tick"
        );
        let SchedulerKind::ShardedCalendar { shards } = kind;
        assert!(shards > 0, "shard count must be at least 1");
        self.shards = shards;
        self
    }

    /// The scheduler executing this runtime, with the effective shard
    /// count (clamped to the fleet size).
    pub fn scheduler(&self) -> SchedulerKind {
        SchedulerKind::ShardedCalendar {
            shards: ShardMap::new(self.num_nodes(), self.shards).lanes(),
        }
    }

    /// Sets the scheduler's **lookahead block width** `K`: each shard
    /// lane advances through `K` whole virtual-time windows before the
    /// cross-shard mailboxes drain at a barrier, cutting the barrier
    /// count by `K×` and giving worker threads `K` windows of work per
    /// fan-out. Messages due inside a block are deferred to the block
    /// boundary (`max(now + latency, block end)`), a
    /// partition-independent rule, so for a fixed `K` results stay
    /// byte-identical across shard counts and thread counts. `K = 1`
    /// (the default) is exactly the classic per-window barrier —
    /// existing seeds replay bit-for-bit; larger `K` is a different
    /// (equally valid) trajectory of the same protocol law.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick, or if
    /// `lookahead` is `0` or exceeds [`MAX_LOOKAHEAD`].
    pub fn with_lookahead(mut self, lookahead: u64) -> Self {
        assert_eq!(
            self.shell.round, 0,
            "lookahead must be chosen before the first tick"
        );
        assert!(
            (1..=MAX_LOOKAHEAD).contains(&lookahead),
            "lookahead must be in 1..={MAX_LOOKAHEAD}, got {lookahead}"
        );
        self.tuning.lookahead = lookahead;
        self
    }

    /// Sets the worker-thread count for dense lookahead blocks: `0`
    /// (the default) sizes the pool to the machine's available
    /// parallelism, `1` always sweeps lanes in-thread, and `t > 1`
    /// uses a persistent pool of `t` threads. Purely a cost knob —
    /// results are byte-identical for every value. A one-shard
    /// scheduler has no lanes to fan out and ignores it.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert_eq!(
            self.shell.round, 0,
            "thread count must be chosen before the first tick"
        );
        self.tuning.threads = threads;
        self
    }

    /// Sets the fewest due events a lookahead block must hold before
    /// the engine fans its lanes out on the worker pool; sparser
    /// blocks are swept in-thread. Purely a cost knob — results are
    /// byte-identical for every value. Mostly useful in tests, which
    /// set it to `0` to force the pool path at small fleet sizes.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick.
    pub fn with_parallel_threshold(mut self, events: usize) -> Self {
        assert_eq!(
            self.shell.round, 0,
            "parallel threshold must be chosen before the first tick"
        );
        self.tuning.parallel_threshold = events;
        self
    }

    /// The lookahead block width `K` (see
    /// [`with_lookahead`](EventRuntime::with_lookahead)).
    pub fn lookahead(&self) -> u64 {
        self.tuning.lookahead
    }

    /// The configured worker-thread count (see
    /// [`with_threads`](EventRuntime::with_threads); `0` = auto).
    pub fn threads(&self) -> usize {
        self.tuning.threads
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DistConfig {
        &self.shell.cfg
    }

    /// Fleet size `N`.
    pub fn num_nodes(&self) -> usize {
        self.shell.cfg.num_nodes()
    }

    /// Epochs completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.shell.round
    }

    /// Cumulative message/fallback/staleness counters.
    pub fn metrics(&self) -> Metrics {
        self.shell.metrics
    }

    /// Committed counts per option over alive nodes — last epoch's in
    /// quiesced mode, the instantaneous commitments in async mode.
    pub fn counts(&self) -> &[u64] {
        &self.shell.counts
    }

    /// Number of nodes present for the *next* epoch, in O(1). With
    /// membership churn this can grow as well as shrink.
    pub fn alive_count(&self) -> usize {
        self.shell.members.alive()
    }

    /// Whether the scheduler runs fully-async overlapping epochs.
    pub fn is_async(&self) -> bool {
        matches!(self.mode, Mode::Async(_))
    }

    /// The configured staleness bound, if the runtime is fully-async.
    pub fn staleness_bound(&self) -> Option<StalenessBound> {
        match self.mode {
            Mode::Quiesced => None,
            Mode::Async(bound) => Some(bound),
        }
    }

    /// `node`'s completed local epoch count. In quiesced mode every
    /// node completes exactly one epoch per tick, so this equals
    /// [`rounds_completed`](EventRuntime::rounds_completed); in async
    /// mode the counters drift apart as slow nodes fall behind.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn local_epoch(&self, node: usize) -> u64 {
        assert!(node < self.num_nodes(), "node out of range");
        match self.mode {
            Mode::Quiesced => self.shell.round,
            Mode::Async(_) => self.engine.as_ref().map_or(0, |e| e.epoch_of(node)),
        }
    }

    /// Max-minus-min completed local epoch over alive nodes — the
    /// fleet's current epoch overlap. Always 0 in quiesced mode (and
    /// for an all-crashed fleet).
    pub fn epoch_spread(&self) -> u64 {
        match (self.mode, &self.engine) {
            (Mode::Async(_), Some(engine)) => engine.epoch_spread(&self.shell.members),
            _ => 0,
        }
    }

    /// Executes one scheduler round against the fresh reward signals,
    /// returning what happened. The first call builds the engine.
    ///
    /// In the default epoch-quiesced mode the round is one epoch run
    /// to quiescence: every alive node resolves both protocol stages
    /// and the event queue drains completely. In fully-async mode
    /// ([`with_async_epochs`](EventRuntime::with_async_epochs)) the
    /// round is instead one [`ASYNC_EPOCH_PERIOD`] window of virtual
    /// time — roughly one local epoch per healthy node, less for nodes
    /// mired in retries, with no barrier and with in-flight messages
    /// carrying over into the next tick. Decisions made during the
    /// tick probe this tick's `rewards`, whatever local epoch they
    /// belong to.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    pub fn tick(&mut self, rewards: &[bool]) -> RoundMetrics {
        let mut rm = self.shell.begin(rewards);
        let shell = &self.shell;
        let engine = self.engine.get_or_insert_with(|| {
            Box::new(ShardedEngine::new(
                shell,
                self.seed,
                self.shards,
                &self.tuning,
            ))
        });
        engine.tick(self.mode, shell, rewards, &mut rm);
        engine.write_counts(&mut self.shell.counts);
        self.shell.finish(rm)
    }
}

impl GroupDynamics for EventRuntime {
    fn num_options(&self) -> usize {
        self.shell.cfg.params().num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        self.shell.write_distribution(out);
    }

    /// Advances one epoch. Like the round-synchronous runtime, the
    /// event-driven runtime draws all randomness from its own seed;
    /// the caller's RNG is ignored.
    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        self.tick(rewards);
    }

    fn label(&self) -> &str {
        match self.mode {
            Mode::Quiesced => "social (event-driven)",
            Mode::Async(_) => "social (event-driven, async)",
        }
    }
}

impl ProtocolRuntime for EventRuntime {
    fn round(&mut self, rewards: &[bool]) -> RoundMetrics {
        self.tick(rewards)
    }

    fn metrics(&self) -> Metrics {
        EventRuntime::metrics(self)
    }

    fn num_nodes(&self) -> usize {
        EventRuntime::num_nodes(self)
    }

    fn alive_count(&self) -> usize {
        EventRuntime::alive_count(self)
    }

    fn rounds_completed(&self) -> u64 {
        EventRuntime::rounds_completed(self)
    }

    fn execution_model(&self) -> ExecutionModel {
        match self.mode {
            Mode::Quiesced => ExecutionModel::EpochQuiesced,
            Mode::Async(_) => ExecutionModel::FullyAsync,
        }
    }

    fn epoch_skew(&self) -> u64 {
        self.epoch_spread()
    }

    fn write_shard_loads(&self, out: &mut Vec<usize>) {
        ShardMap::new(self.num_nodes(), self.shards).write_loads(self.shell.members.present(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MAX_QUERY_RETRIES};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sociolearn_core::Params;

    fn params() -> Params {
        Params::new(2, 0.65).unwrap()
    }

    /// An `n`-node fleet under `faults` on `shards` shards, fully-async
    /// under `staleness` when one is given.
    fn fleet(
        n: usize,
        faults: FaultPlan,
        seed: u64,
        staleness: Option<StalenessBound>,
        shards: usize,
    ) -> EventRuntime {
        let net = EventRuntime::new(DistConfig::new(params(), n).with_faults(faults), seed)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards });
        match staleness {
            Some(bound) => net.with_async_epochs(bound),
            None => net,
        }
    }

    /// A clean 500-node fleet converges to the better option.
    fn assert_converges(staleness: Option<StalenessBound>, shards: usize) {
        let mut net = fleet(500, FaultPlan::none(), 2, staleness, shards);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            net.tick(&[rng.gen_bool(0.9), rng.gen_bool(0.3)]);
        }
        let share = net.distribution()[0];
        assert!(share > 0.8, "share {share}");
    }

    /// Every quiesced epoch under 30% loss keeps its counters
    /// consistent and its message cost bounded.
    fn assert_epoch_metrics_consistent(shards: usize) {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap();
        let mut net = fleet(64, faults, 4, None, shards);
        for _ in 0..50 {
            let rm = net.tick(&[true, false]);
            assert!(rm.committed <= rm.alive);
            assert!(rm.alive <= 64);
            assert!(rm.replies_received <= rm.queries_sent);
            assert!(rm.queries_sent <= 64 * MAX_QUERY_RETRIES as u64);
            let handled = rm.explorations + rm.fallbacks + rm.replies_received;
            assert!(
                handled >= rm.alive as u64,
                "every alive node resolves stage 1"
            );
        }
        let m = net.metrics();
        assert_eq!(m.rounds, 50);
        assert!(m.messages_per_round() > 0.0);
    }

    /// A one-node fleet has no peer to ask: it lives off explorations
    /// and fallbacks.
    fn assert_single_node_never_queries(staleness: Option<StalenessBound>, shards: usize) {
        let mut net = fleet(1, FaultPlan::none(), 7, staleness, shards);
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        let m = net.metrics();
        assert_eq!(m.queries_sent, 0);
        assert!(m.explorations + m.fallbacks > 0);
    }

    /// A fixed seed replays its trajectory; another seed moves it.
    fn assert_deterministic(staleness: Option<StalenessBound>, shards: usize) {
        let run = |seed: u64| {
            let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
            let mut net = fleet(50, faults, seed, staleness, shards);
            let mut out = Vec::new();
            for t in 0..40 {
                net.tick(&[t % 2 == 0, t % 3 == 0]);
                out.push(net.distribution());
            }
            (out, net.metrics())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    /// Total link loss starves every reply; nodes fall back instead.
    fn assert_total_loss_starves_replies(staleness: Option<StalenessBound>) {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = fleet(40, faults, 5, staleness, 1);
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        assert_eq!(net.metrics().replies_received, 0);
        assert!(net.metrics().fallbacks > 0);
    }

    #[test]
    fn initialization_matches_uniform_start() {
        let net = EventRuntime::new(DistConfig::new(Params::new(3, 0.6).unwrap(), 7), 1);
        assert_eq!(net.counts(), &[3, 2, 2]);
        let q = net.distribution();
        assert!((q[0] - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn clean_network_converges_to_best_option() {
        assert_converges(None, 1);
    }

    #[test]
    fn epoch_metrics_are_internally_consistent() {
        assert_epoch_metrics_consistent(1);
    }

    #[test]
    fn total_loss_means_no_replies() {
        assert_total_loss_starves_replies(None);
    }

    #[test]
    fn crashed_nodes_leave_the_distribution() {
        let faults = FaultPlan::none().crash(0, 1).crash(1, 1).crash(2, 1);
        let mut net = EventRuntime::new(DistConfig::new(params(), 4).with_faults(faults), 6);
        let rm = net.tick(&[true, true]);
        assert_eq!(rm.alive, 1);
        assert_eq!(net.alive_count(), 1);
        assert!(net.counts().iter().sum::<u64>() <= 1);
    }

    #[test]
    fn single_node_fleet_never_queries() {
        assert_single_node_never_queries(None, 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        assert_deterministic(None, 1);
    }

    #[test]
    fn step_ignores_external_rng_stream() {
        let drive = |ext_seed: u64| {
            let mut net = EventRuntime::new(DistConfig::new(params(), 80), 13);
            let mut ext = SmallRng::seed_from_u64(ext_seed);
            for _ in 0..20 {
                net.step(&[true, false], &mut ext);
            }
            net.distribution()
        };
        assert_eq!(drive(1), drive(999));
    }

    #[test]
    fn async_clean_network_converges_to_best_option() {
        assert_converges(Some(StalenessBound::Unbounded), 1);
    }

    #[test]
    fn async_local_epochs_are_monotone_and_track_the_tick_cadence() {
        let faults = FaultPlan::with_drop_prob(0.4).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 60).with_faults(faults), 8)
            .with_async_epochs(StalenessBound::Epochs(1));
        let mut prev = vec![0u64; 60];
        for t in 1..=40u64 {
            net.tick(&[true, false]);
            for (i, slot) in prev.iter_mut().enumerate() {
                let e = net.local_epoch(i);
                assert!(e >= *slot, "node {i} epoch went backwards");
                // The cadence caps progress at about one epoch per
                // tick; retries under 40% loss may slow a node well
                // below that, but never to a crawl.
                assert!(e <= t + 2, "node {i} outran its cadence: {e} > {t} + 2");
                assert!(e >= t / 8, "node {i} stalled: {e} << {t}");
                *slot = e;
            }
        }
    }

    #[test]
    fn async_epochs_overlap_under_message_loss() {
        // Loss forces retry storms on some nodes while others cruise,
        // so local epochs must drift apart — the barrier really is
        // gone. (Quiesced mode reports spread 0 by definition.)
        let faults = FaultPlan::with_drop_prob(0.5).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 200).with_faults(faults), 5)
            .with_async_epochs(StalenessBound::Unbounded);
        let mut max_spread = 0;
        for _ in 0..60 {
            net.tick(&[true, false]);
            max_spread = max_spread.max(net.epoch_spread());
        }
        assert!(max_spread > 0, "epochs never overlapped");
    }

    #[test]
    fn async_unbounded_staleness_never_counts_stale_replies() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap().crash(1, 8);
        let mut net = EventRuntime::new(DistConfig::new(params(), 80).with_faults(faults), 6)
            .with_async_epochs(StalenessBound::Unbounded);
        for _ in 0..50 {
            let rm = net.tick(&[true, false]);
            assert_eq!(rm.stale_replies, 0);
        }
        assert_eq!(net.metrics().stale_replies, 0);
    }

    #[test]
    fn async_tight_staleness_bound_withholds_replies_under_loss() {
        // Heavy loss spreads the fleet's local epochs; with bound 0,
        // laggards must refuse queries from the nodes that raced
        // ahead.
        let faults = FaultPlan::with_drop_prob(0.6).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 150).with_faults(faults), 7)
            .with_async_epochs(StalenessBound::Epochs(0));
        for _ in 0..80 {
            net.tick(&[true, false]);
        }
        assert!(
            net.metrics().stale_replies > 0,
            "bound 0 under 60% loss never found a stale responder"
        );
        // Withheld replies push queriers toward retries/fallbacks, but
        // learning must survive.
        assert!(net.distribution()[0] > 0.5);
    }

    #[test]
    fn async_deterministic_for_fixed_seed() {
        assert_deterministic(Some(StalenessBound::Epochs(2)), 1);
    }

    #[test]
    fn async_crashed_nodes_leave_the_distribution_and_stop_pacing() {
        let faults = FaultPlan::none().crash(0, 5).crash(1, 5);
        let mut net = EventRuntime::new(DistConfig::new(params(), 6).with_faults(faults), 9)
            .with_async_epochs(StalenessBound::Unbounded);
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        assert_eq!(net.alive_count(), 4);
        assert!(net.counts().iter().sum::<u64>() <= 4);
        // Dead nodes' epochs froze at or near the crash round; the
        // fleet kept ticking past them.
        assert!(net.local_epoch(0) < net.local_epoch(5));
    }

    #[test]
    fn async_single_node_fleet_never_queries() {
        assert_single_node_never_queries(Some(StalenessBound::Epochs(0)), 1);
    }

    #[test]
    fn async_total_loss_means_no_replies() {
        assert_total_loss_starves_replies(Some(StalenessBound::Unbounded));
    }

    #[test]
    fn execution_models_are_reported_through_the_trait() {
        let quiesced = EventRuntime::new(DistConfig::new(params(), 4), 1);
        let asynch = EventRuntime::new(DistConfig::new(params(), 4), 1)
            .with_async_epochs(StalenessBound::Epochs(3));
        assert_eq!(
            ProtocolRuntime::execution_model(&quiesced),
            ExecutionModel::EpochQuiesced
        );
        assert_eq!(
            ProtocolRuntime::execution_model(&asynch),
            ExecutionModel::FullyAsync
        );
        assert!(!quiesced.is_async());
        assert!(asynch.is_async());
        assert_eq!(asynch.staleness_bound(), Some(StalenessBound::Epochs(3)));
        assert_eq!(quiesced.staleness_bound(), None);
        assert_eq!(asynch.label(), "social (event-driven, async)");
    }

    #[test]
    fn staleness_bound_allows_and_formats() {
        assert!(StalenessBound::Unbounded.allows(u64::MAX));
        assert!(StalenessBound::Epochs(2).allows(2));
        assert!(!StalenessBound::Epochs(2).allows(3));
        assert_eq!(StalenessBound::Unbounded.to_string(), "unbounded");
        assert_eq!(StalenessBound::Epochs(4).to_string(), "4");
    }

    /// Per tick: the epoch spread and every node's local epoch — the
    /// engine state each lane keeps for its stripe of the fleet.
    type EngineState = (u64, Vec<u64>);

    /// The full observable trajectory: per-tick distributions, round
    /// metrics and engine state, then the cumulative metrics.
    type Trajectory = (Vec<Vec<f64>>, Vec<RoundMetrics>, Vec<EngineState>, Metrics);

    /// Runs `ticks` rounds and returns the full observable trajectory.
    fn drive(net: EventRuntime, ticks: u64) -> Trajectory {
        drive_watching(net, ticks, |_| {})
    }

    /// [`drive`], handing the runtime to `watch` after every tick.
    fn drive_watching(
        mut net: EventRuntime,
        ticks: u64,
        mut watch: impl FnMut(&EventRuntime),
    ) -> Trajectory {
        let mut dists = Vec::new();
        let mut rms = Vec::new();
        let mut states = Vec::new();
        for t in 0..ticks {
            rms.push(net.tick(&[t % 2 == 0, t % 3 == 0]));
            dists.push(net.distribution());
            let epochs = (0..net.num_nodes()).map(|i| net.local_epoch(i)).collect();
            states.push((net.epoch_spread(), epochs));
            watch(&net);
        }
        (dists, rms, states, net.metrics())
    }

    /// `make`'s runtime with the given execution knobs, forcing the
    /// pool path even at unit-test fleet sizes.
    fn tuned(
        make: impl Fn() -> EventRuntime,
        shards: usize,
        lookahead: u64,
        threads: usize,
    ) -> EventRuntime {
        make()
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(threads)
            .with_parallel_threshold(0)
    }

    /// [`drive`] on [`tuned`]'s runtime.
    fn drive_tuned(
        make: impl Fn() -> EventRuntime,
        shards: usize,
        lookahead: u64,
        threads: usize,
        ticks: u64,
    ) -> Trajectory {
        drive(tuned(make, shards, lookahead, threads), ticks)
    }

    /// Asserts that `make`'s default (one-shard) trajectory replays
    /// byte for byte at every shard count in `shards`.
    fn assert_identical_across_shards(
        make: impl Fn() -> EventRuntime,
        shards: &[usize],
        ticks: u64,
    ) {
        let one = drive(make(), ticks);
        for &shards in shards {
            let kind = SchedulerKind::ShardedCalendar { shards };
            let run = drive(make().with_scheduler(kind), ticks);
            assert_eq!(one, run, "trajectory diverged at {shards} shards");
        }
    }

    #[test]
    fn sharded_results_are_byte_identical_across_shard_counts() {
        let faults = FaultPlan::with_drop_prob(0.3)
            .unwrap()
            .crash(5, 9)
            .crash(24, 9);
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 50).with_faults(faults.clone()),
                11,
            )
        };
        assert_identical_across_shards(make, &[2, 4, 7], 30);
    }

    #[test]
    fn sharded_async_results_are_byte_identical_across_shard_counts() {
        let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(faults.clone()),
                13,
            )
            .with_async_epochs(StalenessBound::Epochs(1))
        };
        assert_identical_across_shards(make, &[2, 4], 40);
    }

    #[test]
    fn lookahead_results_are_byte_identical_across_shards_and_threads() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap().crash(5, 9);
        for async_mode in [false, true] {
            let make = || {
                let net = EventRuntime::new(
                    DistConfig::new(params(), 50).with_faults(faults.clone()),
                    11,
                );
                if async_mode {
                    net.with_async_epochs(StalenessBound::Epochs(1))
                } else {
                    net
                }
            };
            for lookahead in [2, 4] {
                let baseline = drive_tuned(make, 1, lookahead, 1, 25);
                for (shards, threads) in [(1, 2), (4, 1), (4, 2), (7, 2)] {
                    let run = drive_tuned(make, shards, lookahead, threads, 25);
                    assert_eq!(
                        baseline, run,
                        "trajectory diverged at async={async_mode} K={lookahead} \
                         shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn lookahead_one_replays_the_classic_trajectory() {
        // K = 1 must replay existing seeds bit-for-bit, pool or not.
        let make = || EventRuntime::new(DistConfig::new(params(), 50), 11);
        let classic = drive(make(), 25);
        let tuned = drive_tuned(make, 4, 1, 2, 25);
        assert_eq!(classic, tuned, "K = 1 diverged from the classic path");
    }

    #[test]
    #[should_panic(expected = "lookahead must be in")]
    fn zero_lookahead_is_rejected() {
        let _ = EventRuntime::new(DistConfig::new(params(), 8), 1).with_lookahead(0);
    }

    #[test]
    #[should_panic(expected = "lookahead must be in")]
    fn oversized_lookahead_is_rejected() {
        let _ =
            EventRuntime::new(DistConfig::new(params(), 8), 1).with_lookahead(MAX_LOOKAHEAD + 1);
    }

    #[test]
    fn lookahead_and_thread_knobs_are_reported() {
        let net = EventRuntime::new(DistConfig::new(params(), 8), 1)
            .with_lookahead(4)
            .with_threads(2);
        assert_eq!(net.lookahead(), 4);
        assert_eq!(net.threads(), 2);
        let mut default = EventRuntime::new(DistConfig::new(params(), 8), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        assert_eq!(default.lookahead(), 1);
        assert_eq!(default.threads(), 0);
        // The engine resolves the auto count when it is built; the
        // knob still reports what was configured.
        default.tick(&[true, false]);
        assert_eq!(default.threads(), 0);
    }

    #[test]
    fn sharded_clean_network_converges_to_best_option() {
        assert_converges(None, 4);
    }

    #[test]
    fn sharded_async_clean_network_converges_to_best_option() {
        assert_converges(Some(StalenessBound::Unbounded), 4);
    }

    #[test]
    fn sharded_epoch_metrics_are_internally_consistent() {
        assert_epoch_metrics_consistent(4);
    }

    #[test]
    fn sharded_scheduler_reports_effective_shard_count() {
        let net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        assert_eq!(
            net.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 1 }
        );
        let sharded = net.with_scheduler(SchedulerKind::ShardedCalendar { shards: 2 });
        assert_eq!(
            sharded.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 2 }
        );
        // Shard counts beyond the fleet size clamp to one node/shard.
        let tiny = EventRuntime::new(DistConfig::new(params(), 3), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 16 });
        assert_eq!(
            tiny.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 3 }
        );
        // An awkward split (9 nodes, 8 shards) still yields exactly 8
        // lanes: striping puts node 8 in lane 0 instead of rounding the
        // lane count down.
        let mut awkward = EventRuntime::new(DistConfig::new(params(), 9), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 8 });
        assert_eq!(
            awkward.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 8 }
        );
        let mut loads = Vec::new();
        awkward.write_shard_loads(&mut loads);
        assert_eq!(loads, [2, 1, 1, 1, 1, 1, 1, 1], "planned before the build");
        let rm = awkward.tick(&[true, false]);
        assert_eq!(rm.alive, 9);
        loads.clear();
        awkward.write_shard_loads(&mut loads);
        assert_eq!(loads, [2, 1, 1, 1, 1, 1, 1, 1], "built as planned");
    }

    #[test]
    fn sharded_local_epochs_and_spread_are_tracked() {
        let faults = FaultPlan::with_drop_prob(0.5).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 200).with_faults(faults), 5)
            .with_async_epochs(StalenessBound::Unbounded)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        let mut max_spread = 0;
        for t in 1..=60u64 {
            net.tick(&[true, false]);
            max_spread = max_spread.max(net.epoch_spread());
            for i in [0usize, 99, 199] {
                assert!(net.local_epoch(i) <= t + 2, "node {i} outran its cadence");
            }
        }
        assert!(max_spread > 0, "epochs never overlapped");
    }

    #[test]
    fn sharded_single_node_fleet_never_queries() {
        assert_single_node_never_queries(None, 4);
    }

    #[test]
    fn sharded_deterministic_for_fixed_seed() {
        assert_deterministic(None, 4);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_rejected() {
        let _ = EventRuntime::new(DistConfig::new(params(), 4), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 0 });
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn scheduler_switch_after_first_tick_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true, false]);
        let _ = net.with_scheduler(SchedulerKind::ShardedCalendar { shards: 2 });
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn async_switch_after_first_tick_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true, false]);
        let _ = net.with_async_epochs(StalenessBound::Unbounded);
    }

    #[test]
    #[should_panic(expected = "rewards length")]
    fn reward_width_mismatch_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true]);
    }

    /// A kitchen-sink membership script: a restart, a crash, a region
    /// blinking out, and a late flash crowd, over a 48-node fleet.
    fn churn_faults() -> FaultPlan {
        FaultPlan::with_drop_prob(0.2)
            .unwrap()
            .crash(7, 12)
            .leave(3, 4)
            .rejoin(3, 9)
            .region_loss(20..28, 6, 14)
            .flash_crowd(6, 10)
    }

    #[test]
    fn quiesced_leave_and_rejoin_bootstrap_through_the_protocol() {
        let faults = FaultPlan::none().leave(3, 4).rejoin(3, 9);
        let mut net = EventRuntime::new(DistConfig::new(params(), 32).with_faults(faults), 21);
        for t in 1..=12u64 {
            let rm = net.tick(&[true, false]);
            match t {
                4 => {
                    assert_eq!(rm.leaves, 1);
                    assert_eq!(rm.alive, 31);
                }
                9 => {
                    assert_eq!(rm.rejoins, 1);
                    assert_eq!(rm.bootstrapping, 1);
                    assert_eq!(rm.alive, 32);
                }
                _ => {
                    assert_eq!(rm.leaves + rm.joins + rm.rejoins, 0);
                    assert_eq!(rm.bootstrapping, 0);
                }
            }
        }
        let m = EventRuntime::metrics(&net);
        assert_eq!((m.leaves, m.rejoins, m.joins), (1, 1, 0));
        assert_eq!(net.alive_count(), 32);
    }

    #[test]
    fn async_rejoiner_bootstraps_on_its_own_cadence() {
        // Most bootstrap epochs resolve inside their rejoin tick, where
        // the end-of-tick gauge never sees them; seed 61 is one whose
        // bootstrap straddles a tick boundary.
        let faults = FaultPlan::none().leave(5, 3).rejoin(5, 8);
        let mut net = EventRuntime::new(DistConfig::new(params(), 24).with_faults(faults), 61)
            .with_async_epochs(StalenessBound::Unbounded);
        let mut saw_boot = false;
        for t in 1..=20u64 {
            let rm = net.tick(&[true, false]);
            if t == 3 {
                assert_eq!(rm.leaves, 1);
                assert_eq!(rm.alive, 23);
            }
            if t == 8 {
                assert_eq!(rm.rejoins, 1);
                assert_eq!(rm.alive, 24);
            }
            saw_boot |= rm.bootstrapping > 0;
            if t > 10 {
                assert_eq!(rm.bootstrapping, 0, "bootstrap never completed");
            }
        }
        assert!(saw_boot, "the rejoin never showed in the gauge");
        let m = EventRuntime::metrics(&net);
        assert_eq!((m.leaves, m.rejoins), (1, 1));
        // The rejoined node keeps making progress after bootstrap.
        assert!(net.local_epoch(5) > 0);
    }

    #[test]
    fn flash_crowd_nodes_join_the_sharded_distribution_late() {
        let faults = FaultPlan::none().flash_crowd(6, 10);
        let mut net = EventRuntime::new(DistConfig::new(params(), 48).with_faults(faults), 29)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        // Absent nodes hold no commitment before their join round.
        assert_eq!(net.counts().iter().sum::<u64>(), 42);
        assert_eq!(net.alive_count(), 42);
        for t in 1..=12u64 {
            let rm = net.tick(&[true, false]);
            if t == 10 {
                assert_eq!(rm.joins, 6);
                assert_eq!(rm.bootstrapping, 6);
            }
            assert_eq!(rm.alive, if t < 10 { 42 } else { 48 });
        }
        assert_eq!(net.alive_count(), 48);
    }

    #[test]
    fn sharded_churn_results_are_byte_identical_across_shard_counts() {
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                17,
            )
        };
        assert_identical_across_shards(make, &[2, 4, 8], 30);
    }

    #[test]
    fn sharded_async_churn_results_are_byte_identical_across_shard_counts() {
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                19,
            )
            .with_async_epochs(StalenessBound::Epochs(2))
        };
        assert_identical_across_shards(make, &[2, 4, 8], 40);
    }

    #[test]
    fn wholesale_churn_is_byte_identical_across_shards_and_threads() {
        // Half the fleet blinks out and a third of it arrives late, so
        // every lane loses and gains nodes in bulk.
        let faults = FaultPlan::with_drop_prob(0.1)
            .unwrap()
            .region_loss(0..48, 3, 7)
            .flash_crowd(32, 5);
        for bound in [
            None,
            Some(StalenessBound::Epochs(0)),
            Some(StalenessBound::Unbounded),
        ] {
            let make = || {
                let net = EventRuntime::new(
                    DistConfig::new(params(), 96).with_faults(faults.clone()),
                    23,
                );
                match bound {
                    Some(bound) => net.with_async_epochs(bound),
                    None => net,
                }
            };
            for lookahead in [1, 4] {
                let baseline = drive_tuned(make, 1, lookahead, 1, 14);
                for (shards, threads) in [(3, 1), (3, 2), (8, 1), (8, 2)] {
                    let run = drive_tuned(make, shards, lookahead, threads, 14);
                    assert_eq!(
                        baseline, run,
                        "trajectory diverged at bound={bound:?} K={lookahead} \
                         shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    /// A 4,096-node async fleet under 5% loss plus `churn`, one shard
    /// by default.
    fn gate_fleet(churn: impl Fn(FaultPlan) -> FaultPlan) -> EventRuntime {
        let faults = churn(FaultPlan::with_drop_prob(0.05).unwrap());
        EventRuntime::new(DistConfig::new(params(), 4_096).with_faults(faults), 41)
            .with_async_epochs(StalenessBound::Unbounded)
    }

    /// One leave in an 8-lane fleet of 4,096 nodes takes one node out
    /// of its stripe's lane and moves no other: the partition stays,
    /// and the run replays the one-shard trajectory.
    #[test]
    fn one_leave_takes_one_node_from_its_stripe() {
        let make = || gate_fleet(|plan| plan.leave(100, 3));
        let baseline = drive_tuned(make, 1, 4, 1, 8);
        let mut loads = Vec::new();
        let run = drive_watching(tuned(make, 8, 4, 2), 8, |net| {
            loads.clear();
            net.write_shard_loads(&mut loads);
        });
        assert_eq!(baseline, run);
        assert_eq!(run.1.iter().map(|rm| rm.leaves).sum::<u64>(), 1);
        assert_eq!(loads, [512, 512, 512, 512, 511, 512, 512, 512]);
    }

    /// A region loss of ids 0..512 would empty a lane of contiguous
    /// blocks; striping takes 64 nodes from every lane instead, so the
    /// loads stay equal while the region is gone and after it comes
    /// back, and the run replays the one-shard trajectory.
    #[test]
    fn region_loss_keeps_striped_lanes_equal() {
        let make = || gate_fleet(|plan| plan.region_loss(0..512, 3, 6));
        let baseline = drive_tuned(make, 1, 4, 1, 8);
        let mut seen = Vec::new();
        let mut loads = Vec::new();
        let run = drive_watching(tuned(make, 8, 4, 2), 8, |net| {
            loads.clear();
            net.write_shard_loads(&mut loads);
            assert!(loads.iter().all(|&l| l == loads[0]), "{loads:?}");
            seen.push(loads[0]);
        });
        assert_eq!(baseline, run);
        assert!(seen.contains(&448), "{seen:?}");
        assert_eq!(seen.last(), Some(&512), "{seen:?}");
    }

    /// Each bulk churn pattern takes out or brings in a contiguous id
    /// range, which striping spreads evenly: on 8 lanes, every tick's
    /// lane loads stay within one node of each other, although the
    /// patterns move up to 700 nodes — more than a lane holds — and
    /// the run replays the one-shard trajectory.
    #[test]
    fn bulk_churn_keeps_striped_lanes_within_one_node() {
        type Churn = fn(FaultPlan) -> FaultPlan;
        let patterns: [(&str, Churn); 2] = [
            ("rolling restart", |plan| plan.rolling_restart(300, 2)),
            ("flash crowd", |plan| plan.flash_crowd(700, 3)),
        ];
        for (name, churn) in patterns {
            let make = || gate_fleet(churn);
            let baseline = drive_tuned(make, 1, 4, 1, 8);
            let mut spread = Vec::new();
            let mut loads = Vec::new();
            let run = drive_watching(tuned(make, 8, 4, 2), 8, |net| {
                loads.clear();
                net.write_shard_loads(&mut loads);
                assert_eq!(loads.iter().sum::<usize>(), net.alive_count(), "{name}");
                spread.push(loads.iter().max().unwrap() - loads.iter().min().unwrap());
            });
            assert_eq!(baseline, run, "{name}");
            assert!(spread.iter().all(|&s| s <= 1), "{name}: {spread:?}");
            let churned: u64 = run.1.iter().map(|rm| rm.joins + rm.leaves).sum();
            assert!(churned >= 300, "{name}: only {churned} transitions");
        }
    }

    #[test]
    fn churn_epoch_message_bound_holds() {
        // Per quiesced epoch: at most MAX_QUERY_RETRIES queries per
        // present node, and never more replies than queries.
        for shards in [1, 4] {
            let mut net = EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                37,
            )
            .with_scheduler(SchedulerKind::ShardedCalendar { shards });
            for _ in 0..20 {
                let rm = net.tick(&[true, false]);
                let cap = 2 * MAX_QUERY_RETRIES as u64 * rm.alive as u64;
                assert!(
                    rm.queries_sent + rm.replies_received <= cap,
                    "epoch message bound violated under churn ({shards} shards)"
                );
            }
        }
    }
}
