//! # sociolearn-dist
//!
//! The paper's engineering suggestion (Sections 1 and 6), realized: a
//! round-synchronous **message-passing** implementation of the
//! sample-then-adopt dynamics in which every node keeps **O(1)
//! protocol state** — just the option it committed to last round — and
//! the fleet as a whole performs the group-level multiplicative-weights
//! update.
//!
//! Each round, every alive node:
//!
//! 1. **Samples** an option: with probability `µ` it explores
//!    uniformly at random (no messages); otherwise it sends a *query*
//!    to a uniformly random peer, which *replies* with the option it
//!    committed to last round. A peer that sat out (or crashed, or
//!    whose link dropped the message) yields no reply, and the node
//!    retries with a fresh peer up to [`MAX_QUERY_RETRIES`] times
//!    before falling back to a uniform random option.
//! 2. **Adopts** the sampled option with probability `β` if the
//!    fresh quality signal for it is good and `α` otherwise — else it
//!    sits out this round.
//!
//! Conditioned on getting a reply, retrying uniform peers until one is
//! committed is exactly a uniform draw over last round's committed
//! nodes, i.e. a draw from the popularity distribution `Q^t` — so on a
//! clean network this process is the finite-population dynamics of
//! [`sociolearn_core::FinitePopulation`] (the cross-crate equivalence
//! tests check the two agree in law). Faults — message loss via
//! [`FaultPlan::with_drop_prob`], scheduled crashes via
//! [`FaultPlan::crash`], and scripted *churn* (nodes joining, leaving,
//! and rejoining via [`FaultPlan::join`] / [`FaultPlan::leave`] /
//! [`FaultPlan::rejoin`] and the bulk builders
//! [`FaultPlan::rolling_restart`], [`FaultPlan::flash_crowd`],
//! [`FaultPlan::region_loss`]) — degrade the *copying* throughput and
//! push nodes toward the uniform fallback: learning slows but stays
//! well-defined. A node that joins or rejoins holds no commitment and
//! bootstraps through the ordinary query/reply protocol — there is no
//! state-transfer message type, because [`NODE_STATE_BYTES`] of state
//! is cheaper to relearn than to ship.
//!
//! # Three execution models
//!
//! The crate ships two runtime types realizing three execution models
//! of the same protocol, all O(1) protocol state per node and all
//! driving the same [`GroupDynamics`] interface (see also
//! [`ProtocolRuntime`] and [`ExecutionModel`]):
//!
//! * [`Runtime`] — **round-synchronous**: a global barrier between
//!   rounds; every query/reply exchange completes within the round it
//!   was issued. Allocation-free after construction (the per-node
//!   choice vector is double-buffered and the count vector reused).
//!   Use it for law-level experiments and for raw throughput.
//! * [`EventRuntime`] — **epoch-quiesced event-driven** (the default):
//!   a seeded discrete-event scheduler delivers query/reply messages
//!   with per-message latency jitter, each handled by its receiver the
//!   moment it is due; lost messages and unanswered queries are
//!   recovered by timeout-driven retries, and each epoch runs to
//!   quiescence before the next begins. Use it to model transport
//!   behavior — latency, loss, retries — that a global barrier hides.
//! * [`EventRuntime::with_async_epochs`] — **fully asynchronous**: the
//!   quiescence barrier is gone. Every node advances its own local
//!   epoch the moment its reply (or timeout fallback) lands, epochs
//!   overlap across the fleet, queries carry the sender's epoch, and
//!   replies staler than a configurable [`StalenessBound`] are
//!   withheld (counted in [`RoundMetrics::stale_replies`]). Use it to
//!   study convergence under staleness à la Su–Zubeldia–Lynch
//!   (arXiv:1802.08159).
//!
//! Both event-driven models run on one **scheduler**: the sharded
//! calendar engine — shards striped over the node ids (node `i` in
//! shard `i % shards`), each with an O(1) [`Calendar`] queue, and
//! per-node RNG streams; one shard by default and more with
//! [`EventRuntime::with_scheduler`] and
//! [`SchedulerKind::ShardedCalendar`]. Its results are byte-identical
//! across shard counts, lookahead-fixed across thread counts, and
//! agree in law with `sociolearn_core::FinitePopulation`.
//!
//! The runtimes differ only in their execution schedule. Stage 1 is
//! one crate-private function that both call with the node's own RNG:
//! the µ coin at the first attempt, then per attempt a uniform other
//! peer, and the uniform fallback past [`MAX_QUERY_RETRIES`]. One
//! crate-private round shell holds what they share around it: the
//! configuration, the membership schedule, the committed counts, the
//! round counter and the cumulative [`Metrics`]. It checks the reward
//! width, tallies joins, leaves and rejoins, lands the next round's
//! transitions, and turns counts into the popularity distribution. So
//! round-sync and epoch-quiesced execution feed one counts chain
//! through the same code.
//!
//! # Example
//!
//! ```
//! use sociolearn_core::{GroupDynamics, Params};
//! use sociolearn_dist::{DistConfig, FaultPlan, Runtime};
//!
//! let params = Params::new(3, 0.6)?;
//! let faults = FaultPlan::with_drop_prob(0.2).unwrap().crash(0, 40);
//! let mut net = Runtime::new(DistConfig::new(params, 64).with_faults(faults), 7);
//! for _ in 0..50 {
//!     let rm = net.round(&[true, false, false]);
//!     assert!(rm.committed <= rm.alive);
//! }
//! assert_eq!(net.distribution().len(), 3);
//! # Ok::<(), sociolearn_core::ParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod cast;
mod event;
mod shell;
mod telemetry;

pub use calendar::{Calendar, Entry, SchedulerKind, MAX_LOOKAHEAD, RING_SLOTS};
pub use event::{
    EventRuntime, StalenessBound, ASYNC_EPOCH_PERIOD, EVENT_NODE_STATE_BYTES, MAX_MESSAGE_LATENCY,
};
pub use telemetry::{MetricsRecorder, NoTelemetry, TelemetryFrame, TelemetrySink, TickObservation};

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_core::{GroupDynamics, Params};

use cast::index_u32;
use shell::{stage_one, RoundShell, Sample};

/// Protocol state kept by one node between rounds: the option it
/// committed to last round, packed into a single `u32`
/// ([`NO_CHOICE`] = sat out or crashed). There is no weight vector
/// and no history — this is the O(1) memory footprint the paper's
/// conclusion advertises, and packing it to four bytes halves the
/// fleet state arrays the hot loop walks at scale.
pub(crate) type NodeState = u32;

/// The [`NodeState`] sentinel for "sat out this round": no real
/// option id can collide with it (fleets have far fewer than
/// `u32::MAX` options).
pub(crate) const NO_CHOICE: NodeState = u32::MAX;

/// Bytes of protocol state per node (the current option only).
pub const NODE_STATE_BYTES: usize = std::mem::size_of::<NodeState>();

// The O(1)-memory claim, enforced at compile time: a node's protocol
// state must stay a handful of bytes (no weight vector, no history).
const _: () = assert!(NODE_STATE_BYTES <= 8);

/// Per-node protocol state the round-synchronous [`Runtime`] keeps:
/// the current commitment plus last round's snapshot it answers
/// peer queries from — two `u32` option slots ([`NODE_STATE_BYTES`]
/// each), and nothing that grows with rounds, options, or history.
pub const ROUND_SYNC_NODE_STATE_BYTES: usize = 2 * std::mem::size_of::<NodeState>();

// The bounded-memory budget (à la Su–Zubeldia–Lynch's bounded-memory
// collaborative learning), tied down at compile time: each execution
// model's per-node protocol state is a small documented multiple of
// NODE_STATE_BYTES. A PR that grows a per-node struct must
// renegotiate the budget here, visibly — see the matching assertion
// in `event.rs` (EVENT_NODE_STATE_BYTES) and the `node_state_budgets`
// unit test documenting the exact current sizes.
const _: () = assert!(ROUND_SYNC_NODE_STATE_BYTES == 2 * NODE_STATE_BYTES);

/// How many peers a node tries per round before giving up on copying
/// and falling back to uniform exploration. Bounds both the per-round
/// message cost (≤ `2 · MAX_QUERY_RETRIES · N`) and the tail latency
/// of a round.
pub const MAX_QUERY_RETRIES: u32 = 8;

/// Error building a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// The message-drop probability was outside `[0, 1]` (or NaN).
    DropProbOutOfRange(f64),
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::DropProbOutOfRange(p) => {
                write!(f, "message drop probability must be in [0, 1], got {p}")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A bulk membership pattern, resolved against the concrete fleet size
/// when a runtime is built (the plan itself is size-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BulkChurn {
    /// Restart the fleet batch by batch: batch `k` (nodes
    /// `[k·batch, (k+1)·batch)`) leaves at round `2 + k·period` and
    /// rejoins `max(period/2, 1)` rounds later.
    RollingRestart {
        /// Nodes per restart batch.
        batch: usize,
        /// Rounds between consecutive batch restarts.
        period: u64,
    },
    /// The last `count` node ids start absent and all join at `round`.
    FlashCrowd {
        /// Nodes arriving at once.
        count: usize,
        /// The 1-based round they arrive.
        round: u64,
    },
}

/// A deterministic schedule of injected faults and membership churn:
/// independent per-message loss, per-node crash rounds, and a scripted
/// membership timeline (joins, leaves, rejoins).
///
/// Built with [`FaultPlan::none`] or [`FaultPlan::with_drop_prob`] and
/// extended with the [`crash`](FaultPlan::crash) builder and the
/// membership builders:
///
/// ```
/// use sociolearn_dist::FaultPlan;
///
/// let plan = FaultPlan::with_drop_prob(0.25)?.crash(3, 100).crash(4, 100);
/// assert_eq!(plan.drop_prob(), 0.25);
/// assert_eq!(plan.crash_round(3), Some(100));
/// assert_eq!(plan.crash_round(0), None);
///
/// // Churn: node 7 restarts, a region blinks out, late arrivals.
/// let churn = FaultPlan::none()
///     .leave(7, 40)
///     .rejoin(7, 60)
///     .region_loss(10..20, 80, 120)
///     .flash_crowd(16, 200);
/// assert!(churn.has_membership_events());
/// # Ok::<(), sociolearn_dist::FaultPlanError>(())
/// ```
///
/// Leaving is *graceful* shutdown, crashing is failure; both make the
/// node answer nothing and drop it from the popularity distribution,
/// but they are counted separately ([`RoundMetrics::leaves`] vs the
/// alive count) and only a leave may be followed by a rejoin. A
/// (re)joining node holds no commitment: it bootstraps through the
/// ordinary query/reply protocol (uniform fallback after
/// [`MAX_QUERY_RETRIES`]) — no new message types, no state transfer.
///
/// Scripts are validated when a runtime is built: conflicting or
/// out-of-order transitions (rejoining a present node, leaving an
/// absent one, events after a crash) panic with the offending node and
/// round. Events for node ids beyond the fleet size are ignored, like
/// out-of-range crashes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    drop_prob: f64,
    /// `(node, round)` pairs; a node dies at the *start* of its crash
    /// round (the earliest round wins if scheduled twice).
    crashes: Vec<(usize, u64)>,
    /// Explicit membership transitions: `(node, round, kind)`, each a
    /// join, leave or rejoin.
    events: Vec<(usize, u64, Transition)>,
    /// Bulk churn patterns, resolved against `n` at runtime build.
    bulk: Vec<BulkChurn>,
}

impl FaultPlan {
    /// The inert plan: no message loss, no crashes.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan dropping every message independently with probability
    /// `p` (queries and replies alike).
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::DropProbOutOfRange`] if `p` is not a
    /// probability.
    pub fn with_drop_prob(p: f64) -> Result<Self, FaultPlanError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(FaultPlanError::DropProbOutOfRange(p));
        }
        Ok(FaultPlan {
            drop_prob: p,
            ..FaultPlan::default()
        })
    }

    /// Schedules `node` to crash at the start of `round` (1-based, the
    /// round numbering of [`Runtime::round`]). Crashed nodes send
    /// nothing, answer nothing, and drop out of the popularity
    /// distribution. If the node is already scheduled, the earlier
    /// round wins.
    pub fn crash(mut self, node: usize, round: u64) -> Self {
        if let Some(entry) = self.crashes.iter_mut().find(|(n, _)| *n == node) {
            entry.1 = entry.1.min(round);
        } else {
            self.crashes.push((node, round));
        }
        self
    }

    /// Schedules `node` to *start outside the fleet* and join at the
    /// start of `round` (1-based). A joining node enters bootstrapping:
    /// no commitment, adopting via the ordinary query protocol. A join
    /// must be the node's first membership event.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0` (membership rounds are 1-based).
    pub fn join(mut self, node: usize, round: u64) -> Self {
        assert!(round >= 1, "membership rounds are 1-based");
        self.events.push((node, round, Transition::Join));
        self
    }

    /// Schedules `node` to leave gracefully at the start of `round`
    /// (1-based). Departed nodes answer nothing and drop out of the
    /// popularity distribution; unlike a crash, a leave is counted in
    /// [`RoundMetrics::leaves`] and may be followed by a
    /// [`rejoin`](FaultPlan::rejoin).
    ///
    /// # Panics
    ///
    /// Panics if `round == 0` (membership rounds are 1-based).
    pub fn leave(mut self, node: usize, round: u64) -> Self {
        assert!(round >= 1, "membership rounds are 1-based");
        self.events.push((node, round, Transition::Leave));
        self
    }

    /// Schedules `node` to re-enter the fleet at the start of `round`
    /// (1-based), after an earlier [`leave`](FaultPlan::leave). The
    /// rejoined node remembers nothing — it bootstraps exactly like a
    /// fresh join.
    ///
    /// # Panics
    ///
    /// Panics if `round == 0` (membership rounds are 1-based).
    pub fn rejoin(mut self, node: usize, round: u64) -> Self {
        assert!(round >= 1, "membership rounds are 1-based");
        self.events.push((node, round, Transition::Rejoin));
        self
    }

    /// Bulk builder: a rolling restart sweeping the whole fleet batch
    /// by batch. Batch `k` (nodes `[k·batch, (k+1)·batch)`, resolved
    /// against the fleet size when a runtime is built) leaves at round
    /// `2 + k·period` and rejoins `max(period/2, 1)` rounds later, so
    /// at most one batch is down at a time whenever `period ≥ 2`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `period < 2` (a batch must have time
    /// to come back before the next goes down).
    pub fn rolling_restart(mut self, batch: usize, period: u64) -> Self {
        assert!(batch > 0, "rolling restart batch must be non-empty");
        assert!(
            period >= 2,
            "rolling restart period must be at least 2 rounds"
        );
        self.bulk.push(BulkChurn::RollingRestart { batch, period });
        self
    }

    /// Bulk builder: a flash crowd. The last `count` node ids of the
    /// fleet start *absent* and all join at the start of `round` —
    /// `count` fresh bootstrapping nodes arriving at once.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `round == 0`; panics at runtime build
    /// if `count` exceeds the fleet size.
    pub fn flash_crowd(mut self, count: usize, round: u64) -> Self {
        assert!(count > 0, "flash crowd must bring at least one node");
        assert!(round >= 1, "membership rounds are 1-based");
        self.bulk.push(BulkChurn::FlashCrowd { count, round });
        self
    }

    /// Bulk builder: region loss. Every node in `range` leaves at the
    /// start of `round` and rejoins at the start of `rejoin_round` —
    /// a whole contiguous slice of the fleet blinking out and coming
    /// back cold (bootstrapping).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty, `round == 0`, or
    /// `rejoin_round <= round`.
    pub fn region_loss(
        mut self,
        range: std::ops::Range<usize>,
        round: u64,
        rejoin_round: u64,
    ) -> Self {
        assert!(!range.is_empty(), "region loss range must be non-empty");
        assert!(round >= 1, "membership rounds are 1-based");
        assert!(
            rejoin_round > round,
            "region must rejoin strictly after it leaves"
        );
        for node in range {
            self.events.push((node, round, Transition::Leave));
            self.events.push((node, rejoin_round, Transition::Rejoin));
        }
        self
    }

    /// The per-message drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// The scheduled crash round of `node`, if any.
    pub fn crash_round(&self, node: usize) -> Option<u64> {
        self.crashes
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, r)| r)
    }

    /// Number of nodes with a scheduled crash.
    pub fn num_crashes(&self) -> usize {
        self.crashes.len()
    }

    /// Whether the plan scripts any membership churn (explicit
    /// join/leave/rejoin events or bulk patterns), beyond message loss
    /// and crashes.
    pub fn has_membership_events(&self) -> bool {
        !self.events.is_empty() || !self.bulk.is_empty()
    }

    /// Number of explicit membership transitions scripted so far (bulk
    /// patterns count once resolved against a concrete fleet, not
    /// here).
    pub fn num_membership_events(&self) -> usize {
        self.events.len()
    }

    /// Whether this plan injects no faults at all.
    pub fn is_inert(&self) -> bool {
        self.drop_prob == 0.0
            && self.crashes.is_empty()
            && self.events.is_empty()
            && self.bulk.is_empty()
    }
}

/// Configuration of a message-passing deployment: model parameters,
/// fleet size, and the fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    params: Params,
    n: usize,
    faults: FaultPlan,
}

impl DistConfig {
    /// A fault-free deployment of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(params: Params, n: usize) -> Self {
        assert!(n > 0, "deployment must have at least one node");
        DistConfig {
            params,
            n,
            faults: FaultPlan::none(),
        }
    }

    /// Attaches a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The model parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Fleet size `N`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The fault schedule.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }
}

/// What happened in one protocol round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundMetrics {
    /// The 1-based round number.
    pub round: u64,
    /// Nodes alive during this round.
    pub alive: usize,
    /// Alive nodes that committed to an option this round.
    pub committed: usize,
    /// Queries sent this round (every attempt counts, delivered or
    /// not).
    pub queries_sent: u64,
    /// Replies that actually reached their querier this round.
    pub replies_received: u64,
    /// Nodes that exhausted their query retries and fell back to a
    /// uniform random option.
    pub fallbacks: u64,
    /// Nodes that explored uniformly by design (the `µ` branch; sends
    /// no messages and is not a fallback).
    pub explorations: u64,
    /// Always 0: neither [`Runtime`] nor [`EventRuntime`] queues
    /// messages at the receiver, so none is ever rejected. Kept only
    /// because the benchmark schema still reports it.
    pub queue_drops: u64,
    /// Replies withheld because the responder's information was more
    /// than the configured staleness bound behind the querier's local
    /// epoch. Always 0 outside fully-async execution, and 0 in async
    /// execution when the bound is [`StalenessBound::Unbounded`].
    /// Under membership churn, rejoining nodes restart their local
    /// epoch at the fleet's tail, so a churn script widens the skew
    /// and can make bounded-staleness fleets shed replies here.
    pub stale_replies: u64,
    /// Nodes that joined the fleet for the first time this round.
    pub joins: u64,
    /// Nodes that left gracefully this round (crashes are *not*
    /// counted here — they show up only as a shrinking `alive`).
    pub leaves: u64,
    /// Nodes that re-entered the fleet this round after a leave.
    pub rejoins: u64,
    /// Nodes currently bootstrapping: (re)joined but not yet through
    /// their first commit/sit-out decision. A gauge, not a flow — in
    /// barriered execution every bootstrap resolves within its round,
    /// so this equals `joins + rejoins`; fully-async execution carries
    /// bootstraps across rounds until the node's first epoch lands.
    pub bootstrapping: u64,
}

/// Cumulative counters across all rounds of a [`Runtime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Total queries sent.
    pub queries_sent: u64,
    /// Total replies received.
    pub replies_received: u64,
    /// Total uniform fallbacks after exhausted retries.
    pub fallbacks: u64,
    /// Total deliberate `µ`-explorations.
    pub explorations: u64,
    /// Always 0, as [`RoundMetrics::queue_drops`]: no runtime queues
    /// messages at the receiver. Kept only because the benchmark
    /// schema still reports it.
    pub queue_drops: u64,
    /// Total replies withheld as too stale (fully-async mode with a
    /// finite [`StalenessBound`] only; churn-widened epoch skew is
    /// what usually drives this up).
    pub stale_replies: u64,
    /// Total first-time joins (nonzero only when a [`FaultPlan`]
    /// scripts membership churn).
    pub joins: u64,
    /// Total graceful leaves (crashes not included; nonzero only
    /// under scripted churn).
    pub leaves: u64,
    /// Total rejoins after a leave (nonzero only under scripted
    /// churn).
    pub rejoins: u64,
}

impl Metrics {
    /// Mean messages (queries sent + replies received) per round.
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            (self.queries_sent + self.replies_received) as f64 / self.rounds as f64
        }
    }

    /// The counters accumulated *since* an earlier snapshot of the
    /// same runtime's metrics.
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            rounds: self.rounds - earlier.rounds,
            queries_sent: self.queries_sent - earlier.queries_sent,
            replies_received: self.replies_received - earlier.replies_received,
            fallbacks: self.fallbacks - earlier.fallbacks,
            explorations: self.explorations - earlier.explorations,
            queue_drops: self.queue_drops - earlier.queue_drops,
            stale_replies: self.stale_replies - earlier.stale_replies,
            joins: self.joins - earlier.joins,
            leaves: self.leaves - earlier.leaves,
            rejoins: self.rejoins - earlier.rejoins,
        }
    }

    pub(crate) fn absorb(&mut self, rm: &RoundMetrics) {
        self.rounds += 1;
        self.queries_sent += rm.queries_sent;
        self.replies_received += rm.replies_received;
        self.fallbacks += rm.fallbacks;
        self.explorations += rm.explorations;
        self.queue_drops += rm.queue_drops;
        self.stale_replies += rm.stale_replies;
        self.joins += rm.joins;
        self.leaves += rm.leaves;
        self.rejoins += rm.rejoins;
    }
}

/// One resolved membership transition, as the runtimes see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Transition {
    /// First appearance of a node that started absent.
    Join,
    /// Graceful departure.
    Leave,
    /// Re-entry after a leave.
    Rejoin,
    /// Failure: permanent, terminal for the node.
    Crash,
}

/// A [`FaultPlan`]'s crash *and membership* schedule resolved against
/// a concrete fleet: one sorted timeline of transitions, a per-node
/// presence bitmap so fault checks are O(1) (the old implementation
/// rescanned the crash list per node per round), and a running alive
/// counter so `alive_count` is O(1) instead of an O(N) rescan. Shared
/// by all three execution models.
#[derive(Debug, Clone)]
pub(crate) struct MembershipTracker {
    /// Every transition, sorted by `(round, node)`. Validated at
    /// construction: per node, transitions must alternate presence
    /// legally (join first and only first, leave from present, rejoin
    /// from absent, crash from present and terminal).
    timeline: Vec<(u64, u32, Transition)>,
    /// Prefix of `timeline` already applied to `present`/`alive`.
    applied: usize,
    /// Whether each node is present in the round last advanced to.
    /// Shared: the event engine's tick context holds a handle on it,
    /// and `advance_to` copies on write only if that handle is live.
    present: Arc<Vec<bool>>,
    /// Whether each node is in the fleet *before round 1* (false only
    /// for nodes whose first transition is a join).
    init_present: Vec<bool>,
    /// Nodes present in the round last passed to `advance_to`.
    alive: usize,
    /// The transitions applied by the most recent `advance_to` call,
    /// in node order — what changed going into the current round.
    recent: Vec<(u32, Transition)>,
}

impl MembershipTracker {
    pub(crate) fn new(faults: &FaultPlan, n: usize) -> Self {
        // One pass over the plan's lists — O(C + E log E + n), not the
        // old O(n·C) per-node rescan of the crash list.
        let mut timeline: Vec<(u64, u32, Transition)> =
            Vec::with_capacity(faults.crashes.len() + faults.events.len() + 2 * faults.bulk.len());
        for &(node, round, kind) in &faults.events {
            if node < n {
                timeline.push((round, index_u32(node), kind));
            }
        }
        for &(node, round) in &faults.crashes {
            if node < n {
                timeline.push((round, index_u32(node), Transition::Crash));
            }
        }
        for &spec in &faults.bulk {
            match spec {
                BulkChurn::RollingRestart { batch, period } => {
                    let gap = (period / 2).max(1);
                    let mut k = 0u64;
                    while (k as usize) * batch < n {
                        let down = 2 + k * period;
                        let lo = k as usize * batch;
                        let hi = (lo + batch).min(n);
                        for node in lo..hi {
                            timeline.push((down, index_u32(node), Transition::Leave));
                            timeline.push((down + gap, index_u32(node), Transition::Rejoin));
                        }
                        k += 1;
                    }
                }
                BulkChurn::FlashCrowd { count, round } => {
                    assert!(
                        count <= n,
                        "flash crowd of {count} exceeds the fleet size {n}"
                    );
                    for node in n - count..n {
                        timeline.push((round, index_u32(node), Transition::Join));
                    }
                }
            }
        }
        timeline.sort_unstable_by_key(|&(round, node, _)| (round, node));

        // Validate by replaying each node's own history; a node whose
        // first transition is a join starts outside the fleet.
        let mut init_present = vec![true; n];
        let mut by_node = timeline.clone();
        by_node.sort_unstable_by_key(|&(round, node, _)| (node, round));
        let mut i = 0;
        while i < by_node.len() {
            let node = by_node[i].1;
            let start = i;
            while i < by_node.len() && by_node[i].1 == node {
                i += 1;
            }
            let history = &by_node[start..i];
            for pair in history.windows(2) {
                assert!(
                    pair[0].0 != pair[1].0,
                    "conflicting membership transitions for node {node} at round {}",
                    pair[0].0
                );
            }
            let joins_first = history[0].2 == Transition::Join;
            init_present[node as usize] = !joins_first;
            let mut here = !joins_first;
            for (idx, &(round, _, kind)) in history.iter().enumerate() {
                match kind {
                    Transition::Join => {
                        assert!(
                            idx == 0,
                            "join must be node {node}'s first transition \
                             (round {round}: use rejoin to re-enter)"
                        );
                        here = true;
                    }
                    Transition::Rejoin => {
                        assert!(
                            !here,
                            "node {node} cannot rejoin at round {round}: already present"
                        );
                        here = true;
                    }
                    Transition::Leave => {
                        assert!(
                            here,
                            "node {node} cannot leave at round {round}: already absent"
                        );
                        here = false;
                    }
                    Transition::Crash => {
                        assert!(
                            here,
                            "node {node} cannot crash at round {round}: it is absent"
                        );
                        assert!(
                            idx == history.len() - 1,
                            "node {node} has transitions scheduled after its crash \
                             at round {round}"
                        );
                        here = false;
                    }
                }
            }
        }

        let alive = init_present.iter().filter(|&&p| p).count();
        let mut tracker = MembershipTracker {
            timeline,
            applied: 0,
            present: Arc::new(init_present.clone()),
            init_present,
            alive,
            recent: Vec::new(),
        };
        tracker.advance_to(1);
        tracker
    }

    /// Whether `node` is present (alive and in the fleet) in the round
    /// last advanced to. O(1).
    pub(crate) fn is_present(&self, node: usize) -> bool {
        self.present[node]
    }

    /// The per-node presence table behind
    /// [`is_present`](Self::is_present), indexed by node id.
    pub(crate) fn present(&self) -> &Arc<Vec<bool>> {
        &self.present
    }

    /// Whether `node` belongs to the fleet before round 1 — i.e.
    /// should receive the uniform start commitment. False only for
    /// join-scripted nodes (flash crowds, late arrivals).
    pub(crate) fn in_initial_fleet(&self, node: usize) -> bool {
        self.init_present[node]
    }

    /// Whether any transition is scheduled at all. Lets the hot loops
    /// skip the per-node presence lookups (a cache miss per random
    /// peer at fleet scale) on the common fault-free plans.
    pub(crate) fn any_scheduled(&self) -> bool {
        !self.timeline.is_empty()
    }

    /// Rolls the tracker forward so presence and
    /// [`alive`](Self::alive) describe `round`, recording what changed
    /// in [`recent`](Self::recent). Rounds must advance monotonically.
    pub(crate) fn advance_to(&mut self, round: u64) {
        self.recent.clear();
        while self.applied < self.timeline.len() && self.timeline[self.applied].0 <= round {
            let (_, node, kind) = self.timeline[self.applied];
            self.applied += 1;
            match kind {
                Transition::Join | Transition::Rejoin => {
                    debug_assert!(!self.present[node as usize]);
                    Arc::make_mut(&mut self.present)[node as usize] = true;
                    self.alive += 1;
                }
                Transition::Leave | Transition::Crash => {
                    debug_assert!(self.present[node as usize]);
                    Arc::make_mut(&mut self.present)[node as usize] = false;
                    self.alive -= 1;
                }
            }
            self.recent.push((node, kind));
        }
    }

    /// The transitions that took effect entering the current round
    /// (the round last advanced to), in node order.
    pub(crate) fn recent(&self) -> &[(u32, Transition)] {
        &self.recent
    }

    /// Nodes present in the round last advanced to, in O(1).
    pub(crate) fn alive(&self) -> usize {
        self.alive
    }
}

/// The round-synchronous message-passing runtime: `N` nodes of
/// [`NODE_STATE_BYTES`] protocol state each, exchanging query/reply
/// gossip, with faults injected per the configured [`FaultPlan`].
///
/// All randomness — protocol choices *and* fault realizations — comes
/// from the seed passed to [`Runtime::new`], so runs are exactly
/// reproducible. The runtime also implements
/// [`GroupDynamics`] so the simulation
/// and experiment harnesses can drive it like any in-memory dynamics
/// (the caller-provided RNG is ignored in favor of the internal one).
///
/// After construction the hot path allocates nothing: [`Runtime::round`]
/// double-buffers the per-node choice vector and reuses the per-option
/// count buffer.
#[derive(Debug, Clone)]
pub struct Runtime {
    shell: RoundShell,
    rng: SmallRng,
    /// Last round's committed option per node ([`NO_CHOICE`] = sat
    /// out or crashed). This vector *is* the fleet's protocol state.
    choices: Vec<NodeState>,
    /// The double buffer: swapped with `choices` at the top of each
    /// round, after which it holds the previous round's snapshot
    /// (what peers answer queries from) while `choices` is rewritten
    /// in place.
    back: Vec<NodeState>,
}

impl Runtime {
    /// Boots a fleet from the uniform initialization (node `i` starts
    /// committed to option `i mod m`, matching the in-memory dynamics;
    /// join-scripted nodes start outside the fleet, uncommitted) with
    /// all randomness derived from `seed`.
    pub fn new(cfg: DistConfig, seed: u64) -> Self {
        let n = cfg.n;
        let shell = RoundShell::new(cfg);
        Runtime {
            rng: SmallRng::seed_from_u64(seed),
            choices: (0..n).map(|i| shell.start_choice(i)).collect(),
            back: vec![NO_CHOICE; n],
            shell,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DistConfig {
        &self.shell.cfg
    }

    /// Fleet size `N`.
    pub fn num_nodes(&self) -> usize {
        self.shell.cfg.n
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.shell.round
    }

    /// Cumulative message/fallback counters.
    pub fn metrics(&self) -> Metrics {
        self.shell.metrics
    }

    /// Executes one synchronous protocol round against the fresh
    /// reward signals, returning what happened.
    ///
    /// Allocation-free: the previous round's choices move into the
    /// back buffer by a pointer swap, this round's choices are written
    /// in place, and the count buffer is zeroed and reused.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    pub fn round(&mut self, rewards: &[bool]) -> RoundMetrics {
        let mut rm = self.shell.begin(rewards);
        let params = self.shell.cfg.params;
        let drop_prob = self.shell.cfg.faults.drop_prob();
        let n = self.shell.cfg.n;
        let lost = |rng: &mut SmallRng| drop_prob > 0.0 && rng.gen_bool(drop_prob);

        // The queryable snapshot: last round's commitments land in
        // `back` by a pointer swap, and `choices` (now holding the
        // stale buffer from two rounds ago) is overwritten in place.
        // Nodes dead or departed *this* round no longer answer
        // queries; (re)joining nodes have `back == NO_CHOICE` (absent
        // rounds write NO_CHOICE below) so they bootstrap through the
        // ordinary query path starting this round.
        std::mem::swap(&mut self.choices, &mut self.back);
        let members = &self.shell.members;
        let counts = &mut self.shell.counts;
        counts.fill(0);
        let has_events = members.any_scheduled();

        for i in 0..n {
            if has_events && !members.is_present(i) {
                self.choices[i] = NO_CHOICE;
                continue;
            }

            // Stage 1: sample an option to consider, asking one peer
            // per attempt until one replies.
            let mut attempt = 1;
            let considered = loop {
                match stage_one(&mut self.rng, &params, n, i, attempt, &mut rm) {
                    Sample::Consider(option) => break option,
                    Sample::Ask(peer) => {
                        // The query must survive the link, reach a peer
                        // that is present and has something to report
                        // (absent peers — crashed or departed — answer
                        // nothing), and the reply must survive the link
                        // back.
                        let option = self.back[peer];
                        if !lost(&mut self.rng)
                            && (!has_events || members.is_present(peer))
                            && option != NO_CHOICE
                            && !lost(&mut self.rng)
                        {
                            rm.replies_received += 1;
                            break option;
                        }
                    }
                }
                attempt += 1;
            };

            // Stage 2: probe the considered option's fresh signal and
            // adopt or sit out.
            let adopt_p = params.adopt_probability(rewards[considered as usize]);
            if self.rng.gen_bool(adopt_p) {
                self.choices[i] = considered;
                counts[considered as usize] += 1;
                rm.committed += 1;
            } else {
                self.choices[i] = NO_CHOICE;
            }
        }
        self.shell.finish(rm)
    }

    /// Committed counts per option over alive nodes (last round).
    pub fn counts(&self) -> &[u64] {
        &self.shell.counts
    }

    /// Number of nodes present for the *next* round, in O(1) (a
    /// running counter maintained as scheduled crashes and membership
    /// transitions take effect — with churn this can grow as well as
    /// shrink).
    pub fn alive_count(&self) -> usize {
        self.shell.members.alive()
    }
}

impl GroupDynamics for Runtime {
    fn num_options(&self) -> usize {
        self.shell.cfg.params.num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        self.shell.write_distribution(out);
    }

    /// Advances one round. The message-passing runtime draws all of
    /// its randomness (protocol and faults) from the seed given to
    /// [`Runtime::new`]; the caller's RNG is ignored so that a
    /// deployment's behavior is a function of its own seed alone.
    fn step(&mut self, rewards: &[bool], _rng: &mut SmallRng) {
        self.round(rewards);
    }

    fn label(&self) -> &str {
        "social (message-passing)"
    }
}

/// How a [`ProtocolRuntime`] executes the protocol in (virtual) time —
/// the axis the runtimes differ on, surfaced through the shared trait
/// so harnesses can label and select execution models generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionModel {
    /// A global barrier between rounds: every query/reply exchange
    /// completes within the round it was issued ([`Runtime`]).
    RoundSync,
    /// A discrete-event scheduler with jittered wakes and latencies,
    /// but each epoch still runs to quiescence before the next starts
    /// (the default [`EventRuntime`]).
    EpochQuiesced,
    /// No barrier at all: every node advances its own local epoch the
    /// moment its reply or timeout fallback lands, and epochs overlap
    /// across the fleet ([`EventRuntime::with_async_epochs`]).
    FullyAsync,
}

impl ExecutionModel {
    /// Short human-readable label, stable across releases (used in
    /// experiment tables and CSV columns).
    pub fn label(self) -> &'static str {
        match self {
            ExecutionModel::RoundSync => "round-sync",
            ExecutionModel::EpochQuiesced => "epoch-quiesced",
            ExecutionModel::FullyAsync => "fully-async",
        }
    }
}

impl std::fmt::Display for ExecutionModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The driving surface shared by the crate's two runtimes, so
/// harnesses, experiments, and examples can swap the round-synchronous
/// [`Runtime`] and the event-driven [`EventRuntime`] (epoch-quiesced
/// or fully-async) interchangeably: step the protocol with fresh
/// rewards, read the per-round and cumulative counters, and watch the
/// fleet shrink and grow as crashes and membership churn land.
///
/// Both implementors also implement
/// [`GroupDynamics`] (a supertrait
/// here), so anything driving the abstract dynamics — `run_one`,
/// regret trackers, the sweep machinery — works on them unchanged.
pub trait ProtocolRuntime: GroupDynamics {
    /// Advances one protocol round (one scheduler epoch for the
    /// event-driven runtime) against fresh reward signals.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    fn round(&mut self, rewards: &[bool]) -> RoundMetrics;

    /// Cumulative counters across all rounds so far.
    fn metrics(&self) -> Metrics;

    /// Fleet size `N`.
    fn num_nodes(&self) -> usize;

    /// Nodes alive for the next round, in O(1).
    fn alive_count(&self) -> usize;

    /// Rounds completed so far.
    fn rounds_completed(&self) -> u64;

    /// Which execution model this runtime realizes — round-sync,
    /// epoch-quiesced event-driven, or fully asynchronous.
    fn execution_model(&self) -> ExecutionModel;

    /// Max−min completed local epoch over present nodes — the skew a
    /// dashboard charts to see how far the fleet's frontier has
    /// spread. Defaults to 0, correct for every barriered model (no
    /// node can run ahead of a barrier); only fully-async execution
    /// overrides it with a live spread.
    fn epoch_skew(&self) -> u64 {
        0
    }

    /// Appends the present-node count of each scheduler shard to
    /// `out`, in shard order. The default reports one whole-fleet
    /// entry — correct for every unsharded runtime; the sharded
    /// calendar engine overrides it with its per-lane loads.
    fn write_shard_loads(&self, out: &mut Vec<usize>) {
        out.push(self.alive_count());
    }

    /// Online shard rebalances performed so far: always 0, since no
    /// runtime moves nodes between shards (the sharded calendar engine
    /// stripes them, which keeps its shards balanced under churn).
    /// Kept for callers that still chart it.
    fn shard_rebalances(&self) -> u64 {
        0
    }

    /// Advances one round exactly like
    /// [`round`](ProtocolRuntime::round), then reports a
    /// [`TickObservation`] to `sink`.
    ///
    /// The observation is assembled strictly after the round
    /// completes and draws no randomness, so a sink-attached run
    /// follows the byte-identical trajectory of a sink-free one —
    /// pass [`NoTelemetry`] and this *is* `round`.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    fn observed_round(&mut self, rewards: &[bool], sink: &mut dyn TelemetrySink) -> RoundMetrics {
        let rm = self.round(rewards);
        let mut shard_loads = Vec::new();
        self.write_shard_loads(&mut shard_loads);
        sink.on_tick(&TickObservation {
            round: rm,
            cumulative: self.metrics(),
            model: self.execution_model(),
            num_nodes: self.num_nodes(),
            epoch_skew: self.epoch_skew(),
            shard_loads,
        });
        rm
    }
}

impl ProtocolRuntime for Runtime {
    fn round(&mut self, rewards: &[bool]) -> RoundMetrics {
        Runtime::round(self, rewards)
    }

    fn metrics(&self) -> Metrics {
        Runtime::metrics(self)
    }

    fn num_nodes(&self) -> usize {
        Runtime::num_nodes(self)
    }

    fn alive_count(&self) -> usize {
        Runtime::alive_count(self)
    }

    fn rounds_completed(&self) -> u64 {
        Runtime::rounds_completed(self)
    }

    fn execution_model(&self) -> ExecutionModel {
        ExecutionModel::RoundSync
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::new(2, 0.65).unwrap()
    }

    /// Documents the exact per-node state budgets that the compile-time
    /// `const` assertions in `lib.rs` and `event.rs` bound.
    /// If a protocol struct grows, this test pins down the new number so the
    /// change is a conscious decision rather than silent drift away from the
    /// O(log m)-bits-per-node claim.
    #[test]
    fn node_state_budgets() {
        // The canonical unit: one adopted-option id (u32).
        assert_eq!(NODE_STATE_BYTES, 4);
        // Round-synchronous model: current + next option per node.
        assert_eq!(ROUND_SYNC_NODE_STATE_BYTES, 8);
        assert_eq!(ROUND_SYNC_NODE_STATE_BYTES, 2 * NODE_STATE_BYTES);
        // Event-driven model: commitment + history slot + local epoch,
        // plus the per-source sequence counter and incarnation tag.
        assert_eq!(EVENT_NODE_STATE_BYTES, 24);
        assert_eq!(EVENT_NODE_STATE_BYTES, 6 * NODE_STATE_BYTES);
    }

    #[test]
    fn initialization_matches_uniform_start() {
        let net = Runtime::new(DistConfig::new(Params::new(3, 0.6).unwrap(), 7), 1);
        assert_eq!(net.counts(), &[3, 2, 2]);
        let q = net.distribution();
        assert!((q[0] - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn clean_network_converges_to_best_option() {
        let mut net = Runtime::new(DistConfig::new(params(), 500), 2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let rewards = [rng.gen_bool(0.9), rng.gen_bool(0.3)];
            net.round(&rewards);
        }
        assert!(
            net.distribution()[0] > 0.8,
            "share {}",
            net.distribution()[0]
        );
    }

    #[test]
    fn round_metrics_are_internally_consistent() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap();
        let mut net = Runtime::new(DistConfig::new(params(), 64).with_faults(faults), 4);
        for _ in 0..50 {
            let rm = net.round(&[true, false]);
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

    #[test]
    fn total_loss_means_no_replies() {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = Runtime::new(DistConfig::new(params(), 40).with_faults(faults), 5);
        for _ in 0..20 {
            net.round(&[true, true]);
        }
        assert_eq!(net.metrics().replies_received, 0);
        assert!(net.metrics().fallbacks > 0);
    }

    #[test]
    fn crashed_nodes_leave_the_distribution() {
        let faults = FaultPlan::none().crash(0, 1).crash(1, 1).crash(2, 1);
        let mut net = Runtime::new(DistConfig::new(params(), 4).with_faults(faults), 6);
        let rm = net.round(&[true, true]);
        assert_eq!(rm.alive, 1);
        assert_eq!(net.alive_count(), 1);
        // Only node 3 can be committed.
        assert!(net.counts().iter().sum::<u64>() <= 1);
    }

    #[test]
    fn single_node_fleet_never_queries() {
        let mut net = Runtime::new(DistConfig::new(params(), 1), 7);
        for _ in 0..30 {
            net.round(&[true, false]);
        }
        assert_eq!(net.metrics().queries_sent, 0);
        assert!(net.metrics().explorations + net.metrics().fallbacks > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
            let mut net = Runtime::new(DistConfig::new(params(), 50).with_faults(faults), seed);
            let mut out = Vec::new();
            for t in 0..40 {
                net.round(&[t % 2 == 0, t % 3 == 0]);
                out.push(net.distribution());
            }
            (out, net.metrics())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn step_ignores_external_rng_stream() {
        // Two different external RNGs must not change the trajectory.
        let drive = |ext_seed: u64| {
            let mut net = Runtime::new(DistConfig::new(params(), 80), 13);
            let mut ext = SmallRng::seed_from_u64(ext_seed);
            for _ in 0..20 {
                net.step(&[true, false], &mut ext);
            }
            net.distribution()
        };
        assert_eq!(drive(1), drive(999));
    }

    #[test]
    fn alive_count_tracks_crash_schedule() {
        let faults = FaultPlan::none().crash(0, 2).crash(1, 2).crash(2, 5);
        let mut net = Runtime::new(DistConfig::new(params(), 6).with_faults(faults), 8);
        // Nobody is dead in round 1.
        assert_eq!(net.alive_count(), 6);
        net.round(&[true, false]); // next round is 2: two crashes land
        assert_eq!(net.alive_count(), 4);
        net.round(&[true, false]);
        assert_eq!(net.alive_count(), 4);
        net.round(&[true, false]);
        net.round(&[true, false]); // next round is 5: third crash lands
        assert_eq!(net.alive_count(), 3);
    }

    #[test]
    fn leave_and_rejoin_track_alive_and_counters() {
        let faults = FaultPlan::none().leave(0, 3).leave(1, 3).rejoin(0, 6);
        let mut net = Runtime::new(DistConfig::new(params(), 8).with_faults(faults), 5);
        assert_eq!(net.alive_count(), 8);
        let rm = net.round(&[true, true]); // round 1
        assert_eq!((rm.joins, rm.leaves, rm.rejoins), (0, 0, 0));
        net.round(&[true, true]); // round 2: next round is 3
        assert_eq!(net.alive_count(), 6);
        let rm = net.round(&[true, true]); // round 3
        assert_eq!(rm.alive, 6);
        assert_eq!(rm.leaves, 2);
        net.round(&[true, true]); // round 4
        net.round(&[true, true]); // round 5: next round is 6
        assert_eq!(net.alive_count(), 7, "alive count grows back on rejoin");
        let rm = net.round(&[true, true]); // round 6
        assert_eq!(rm.alive, 7);
        assert_eq!(rm.rejoins, 1);
        assert_eq!(rm.bootstrapping, 1);
        let m = net.metrics();
        assert_eq!((m.joins, m.leaves, m.rejoins), (0, 2, 1));
    }

    #[test]
    fn flash_crowd_nodes_start_absent_and_bootstrap() {
        let faults = FaultPlan::none().flash_crowd(4, 5);
        let mut net = Runtime::new(DistConfig::new(params(), 12).with_faults(faults), 6);
        // The crowd has not arrived: 8 resident nodes committed.
        assert_eq!(net.counts().iter().sum::<u64>(), 8);
        assert_eq!(net.alive_count(), 8);
        for _ in 0..4 {
            net.round(&[true, true]);
        }
        assert_eq!(net.alive_count(), 12, "crowd lands for round 5");
        let rm = net.round(&[true, true]);
        assert_eq!(rm.alive, 12);
        assert_eq!(rm.joins, 4);
        assert_eq!(rm.bootstrapping, 4);
    }

    #[test]
    fn departed_nodes_answer_nothing() {
        // All peers but node 0 leave; node 0's queries can only go
        // unanswered, so every non-exploration round falls back.
        let params = Params::new(2, 0.9).unwrap();
        let mut faults = FaultPlan::none();
        for i in 1..10 {
            faults = faults.leave(i, 1);
        }
        let mut net = Runtime::new(DistConfig::new(params, 10).with_faults(faults), 3);
        for _ in 0..20 {
            let rm = net.round(&[true, true]);
            assert_eq!(rm.alive, 1);
        }
        assert_eq!(net.metrics().replies_received, 0);
    }

    #[test]
    fn rolling_restart_keeps_most_of_the_fleet_up() {
        let faults = FaultPlan::none().rolling_restart(4, 6);
        let mut net = Runtime::new(DistConfig::new(params(), 16).with_faults(faults), 9);
        let mut min_alive = usize::MAX;
        for _ in 0..40 {
            let rm = net.round(&[true, false]);
            min_alive = min_alive.min(rm.alive);
        }
        assert_eq!(min_alive, 12, "exactly one 4-node batch down at a time");
        assert_eq!(net.alive_count(), 16, "everyone is back at the end");
        let m = net.metrics();
        assert_eq!(m.leaves, 16);
        assert_eq!(m.rejoins, 16);
    }

    #[test]
    fn region_loss_blinks_a_slice_out_and_back() {
        let faults = FaultPlan::none().region_loss(2..6, 4, 9);
        let mut net = Runtime::new(DistConfig::new(params(), 10).with_faults(faults), 2);
        for t in 1..=12u64 {
            let rm = net.round(&[true, true]);
            let expect = if (4..9).contains(&t) { 6 } else { 10 };
            assert_eq!(rm.alive, expect, "round {t}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot rejoin")]
    fn rejoin_of_present_node_rejected() {
        let faults = FaultPlan::none().rejoin(0, 5);
        Runtime::new(DistConfig::new(params(), 4).with_faults(faults), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting membership")]
    fn conflicting_same_round_transitions_rejected() {
        let faults = FaultPlan::none().leave(2, 5).crash(2, 5);
        Runtime::new(DistConfig::new(params(), 4).with_faults(faults), 1);
    }

    #[test]
    #[should_panic(expected = "after its crash")]
    fn transitions_after_crash_rejected() {
        let faults = FaultPlan::none().crash(1, 3).leave(1, 8);
        Runtime::new(DistConfig::new(params(), 4).with_faults(faults), 1);
    }

    #[test]
    fn membership_events_for_out_of_range_nodes_are_ignored() {
        let faults = FaultPlan::none().leave(99, 2).flash_crowd(2, 3);
        let mut net = Runtime::new(DistConfig::new(params(), 8).with_faults(faults), 4);
        net.round(&[true, true]);
        assert_eq!(net.alive_count(), 6, "only the in-range crowd gap");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        DistConfig::new(params(), 0);
    }

    #[test]
    #[should_panic(expected = "rewards length")]
    fn reward_width_mismatch_rejected() {
        let mut net = Runtime::new(DistConfig::new(params(), 4), 1);
        net.round(&[true]);
    }
}
