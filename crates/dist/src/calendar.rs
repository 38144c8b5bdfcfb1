//! The sharded calendar-queue scheduler: the [`EventRuntime`]'s one
//! execution engine, one shard by default and more with
//! [`SchedulerKind::ShardedCalendar`].
//!
//! [`EventRuntime`]: crate::EventRuntime
//!
//! # Why
//!
//! A priority heap keyed by virtual time costs `O(log E)` comparisons
//! per push/pop over a heap that holds several events per node — at
//! fleet scale the sift paths are cache-miss chains through tens of
//! megabytes, and they dominate the tick. The engine instead keeps a
//! **calendar queue**: events are bucketed by virtual-time slot in a
//! fixed ring ([`RING_SLOTS`] wide), so enqueue is an `O(1)` append and dequeue
//! is a linear walk of one bucket. On top of the calendar, the fleet
//! is **sharded** by destination-node range: each shard owns the
//! per-node state of a contiguous node block and advances its own
//! local event stream one time window at a time, handing cross-shard
//! messages to per-shard-pair mailboxes that are drained at window
//! boundaries. Shards run on a persistent
//! [`sociolearn_sim::WorkerPool`] when a window is dense enough to pay
//! for the fan-out, and fall back to an in-thread sweep (with
//! identical results) when it is not.
//!
//! # Lookahead: multi-core execution in K-window blocks
//!
//! The protocol's message-latency floor is the classic
//! conservative-PDES *lookahead*: every `QueryArrive`/`ReplyArrive`
//! travels at least one tick, so shards can safely advance more than
//! one window between synchronizations. With
//! [`EventRuntime::with_lookahead(K)`] the virtual-time axis is cut
//! into blocks of K windows at absolute multiples of K, each lane
//! processes a whole block from its own calendar with **no**
//! cross-shard synchronization inside it, and the per-shard-pair
//! mailboxes are drained once at the block barrier. What makes that
//! sound is a *message due-time adjustment*: a message sent at `now`
//! with latency `l` is due at `max(now + l, block_end(now))` plus the
//! fixed `DELIVER_DELAY` — never inside the sender's current block.
//! The adjustment applies to every message, same-shard or
//! cross-shard, so it is a property of the *trajectory*, not of the
//! partition: for a fixed K the results stay byte-identical across
//! shard counts and thread counts. At the default `K = 1`,
//! `block_end(now) = now + 1 <= now + l`, so the adjustment is the
//! identity and existing seeds replay bit-for-bit.
//! `K` is capped at [`MAX_LOOKAHEAD`]`= MAX_MESSAGE_LATENCY`, which
//! keeps two invariants intact: no adjusted delay exceeds the
//! protocol's existing latency ceiling (so the calendar ring horizon
//! is unchanged and `Calendar::push` cannot hit its ring-collision
//! panic), and a query round trip still always beats its retry
//! timeout (`2·(max(l, K) + DELIVER_DELAY) < RETRY_TIMEOUT`), so the
//! retry/fallback structure of the law is preserved. Lanes run on a
//! persistent worker-thread pool ([`with_threads`]) — each lane's
//! block is a pure function of the lane and the shared tick context,
//! so the thread count only changes where work runs, never what it
//! computes.
//!
//! [`EventRuntime::with_lookahead(K)`]: crate::EventRuntime::with_lookahead
//! [`with_threads`]: crate::EventRuntime::with_threads
//!
//! # Determinism contract
//!
//! The engine is deterministic, and — stronger — its behavior is a
//! function of the seed alone, **independent of the shard count**:
//!
//! * Every event carries an intrinsic `(time, source node, per-source
//!   sequence number)` key. Within a window, a shard processes its due
//!   events in two passes — first the timers (`Wake`, `Timeout`), then
//!   the mail (`QueryArrive`, `ReplyArrive`) — each in ascending
//!   `(src, seq)` order, so the total order within each window is
//!   fixed no matter which mailbox an event travelled through or how
//!   many shards exist. A node thus handles its own timers before the
//!   mail that reached it in the same window; an event touches only
//!   its target's state and schedules nothing into the current window,
//!   so the order *across* targets does not matter.
//! * Randomness comes from **per-node RNG streams** split from the
//!   root seed (one `SmallRng` per node, seeded via a SplitMix64
//!   derivation). A node draws only from its own stream, so regrouping
//!   nodes into different shard counts cannot reorder anyone's draws.
//! * Every event the protocol schedules has a strictly positive
//!   delay, and under lookahead K every *message* is additionally
//!   deferred to the sender's block boundary, so nothing produced
//!   inside a K-window block can be due in that same block —
//!   cross-shard mailboxes drained at the barrier always deliver in
//!   time, and shards never need to peek at each other mid-block.
//!
//! Together these give the invariant the proptest suite pins down:
//! for a fixed seed, ticks produce **byte-identical metrics and
//! distributions for any shard count**, and the law of the process
//! matches the finite-population dynamics (KS-tested in
//! `tests/equivalence.rs`).
//!
//! # Membership churn and online rebalancing
//!
//! Scripted joins, leaves, and rejoins (the [`FaultPlan`] membership
//! builders) land at tick boundaries: a departing node's commitment
//! and pending attempt are wiped; a (re)joining node enters
//! bootstrapping and re-learns a commitment through the ordinary
//! query/reply protocol — no state transfer, no new message types.
//! Because churn skews the load of a fixed node→shard split, the
//! engine also **rebalances ownership online**: on any tick whose
//! boundary carries membership transitions, lane boundaries are
//! recomputed to even out *present* nodes and each migrating node's
//! full state (its row of the per-node table, pending calendar
//! entries) moves to its new lane. Only those nodes move: a lane
//! keeps the rows it still owns, and its calendar keeps every entry
//! whose target it still owns, so a rolling restart that shifts a few
//! boundaries costs about what a quiet tick costs. The move happens
//! only between
//! windows — when cross-shard mailboxes are provably empty — and the
//! same per-node-stream + intrinsic-key argument that makes the
//! partition invisible to the protocol makes rebalancing semantically
//! a no-op: byte-identity across shard counts holds even while
//! ownership shifts under churn. In debug builds every rebalance
//! checks that each lane's rows match its new range, that every
//! pending event sits in the lane owning its target, and that no
//! pending event was lost or duplicated.
//!
//! [`FaultPlan`]: crate::FaultPlan
//!
//! # Per-node state
//!
//! Everything a node carries — commitment and one-slot history,
//! local epoch, pending attempt, RNG stream, sequence and incarnation
//! counters — is one row of a struct-of-arrays table, `Nodes`, of
//! fixed width: a message is handled the moment it is due, so no
//! node keeps a mailbox. The engine builds the whole fleet's table
//! once and cuts it into lanes by node range; a rebalance queues each lane's table as a run in node
//! order and has every lane take its new range back, cutting a run
//! only where a new boundary crosses it. Nothing else is cached per
//! lane:
//! the option histogram and the bootstrapping gauge are counted from
//! the table once per tick.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_core::Params;
use sociolearn_sim::{SplitMix64, WorkerPool};

use crate::cast::index_u32;
use crate::event::{
    Event, Mode, Pending, ASYNC_EPOCH_PERIOD, ASYNC_WAKE_JITTER, DELIVER_DELAY,
    MAX_MESSAGE_LATENCY, RETRY_TIMEOUT, WAKE_SPREAD,
};
use crate::{
    DistConfig, MembershipTracker, NodeState, RoundMetrics, Transition, MAX_QUERY_RETRIES,
    NO_CHOICE,
};

/// Number of time slots in a [`Calendar`] ring. A power of two, and
/// strictly larger than the longest delay the protocol ever schedules
/// (the async epoch period plus its wake jitter), so at most one
/// distinct virtual time can occupy a slot at any moment.
pub const RING_SLOTS: usize = 128;

// The ring must cover the longest scheduling delay: the async cadence
// (period + jitter), the initial wake spread, and a retry timeout all
// have to fit strictly inside one rotation.
const _: () = assert!(ASYNC_EPOCH_PERIOD + ASYNC_WAKE_JITTER < RING_SLOTS as u64);
const _: () = assert!(WAKE_SPREAD < RING_SLOTS as u64);
const _: () = assert!(RETRY_TIMEOUT < RING_SLOTS as u64);

/// Most entries a recycled bucket keeps as capacity: 10 KiB per slot
/// for the engine's 40-byte `Entry<Event>`, so at most 1.25 MiB of
/// idle capacity per [`RING_SLOTS`]-slot ring.
///
/// Windows of up to this many entries stay allocation-free. Larger
/// ones regrow their slot: a lane of an 8-shard fleet at N = 1e5
/// takes windows of about 1,240 entries, so its slot grows from 256
/// to 2,048 entries, three regrowths per window. Measured on
/// perfbench, 2-core host:
///
/// * Without the bound, `take_due` hands every slot the previous
///   window's buffer in turn, so each ring ends up with window-sized
///   buffers in every slot: `fleet_async_churn` peaked at 178–192 MiB
///   against 84–91 MiB with the bound.
/// * Dropping the spare altogether, so every window allocates, cost
///   `reproduce_quick` 42% on `tick_ms_p50` and 12% on `suite_s`.
const SPARE_CAPACITY: usize = 256;

/// Fewest due events in a block before the engine fans the shards out
/// on the thread pool; sparser blocks are swept in-thread (the two
/// paths produce identical results — this is a cost knob, not a
/// semantic one). Overridable per runtime via
/// [`EventRuntime::with_parallel_threshold`](crate::EventRuntime::with_parallel_threshold).
pub(crate) const PARALLEL_WINDOW_EVENTS: usize = 2_048;

/// Largest accepted lookahead `K` for
/// [`EventRuntime::with_lookahead`](crate::EventRuntime::with_lookahead).
///
/// Tied to [`MAX_MESSAGE_LATENCY`]: the lookahead adjustment defers a
/// message due at `now + l` to at most `now + max(l, K)`, so with
/// `K <= MAX_MESSAGE_LATENCY` no event's delay ever exceeds the
/// protocol's existing latency ceiling. That is the ring-horizon
/// guard (a K-window block can never push an entry beyond one
/// [`RING_SLOTS`] rotation, so `Calendar::push`'s collision panic is
/// unreachable) and the law guard (a query round trip still beats its
/// retry timeout — checked below).
pub const MAX_LOOKAHEAD: u64 = MAX_MESSAGE_LATENCY;

// The lookahead cap may not extend the scheduling horizon beyond the
// latency ceiling already covered by the ring asserts above...
const _: () = assert!(MAX_LOOKAHEAD <= MAX_MESSAGE_LATENCY);
// ...and a maximally-deferred query + reply round trip (each leg at
// most max(MAX_MESSAGE_LATENCY, MAX_LOOKAHEAD) = MAX_MESSAGE_LATENCY,
// plus DELIVER_DELAY) must still preempt the sender's retry timeout,
// or lookahead would change the retry/fallback law.
const _: () = assert!(2 * MAX_MESSAGE_LATENCY + 2 * DELIVER_DELAY < RETRY_TIMEOUT);

/// The absolute-time end of the lookahead block containing `now`:
/// the next multiple of `lookahead` strictly after `now`.
#[inline]
fn block_end_of(now: u64, lookahead: u64) -> u64 {
    (now / lookahead + 1) * lookahead
}

/// The time a message sent at `now` with `latency` is handled at its
/// receiver: its link arrival, deferred to the sender's block boundary
/// under lookahead (the identity when `lookahead == 1`, since
/// `latency >= 1`), plus [`DELIVER_DELAY`]. Partition-independent —
/// it applies whether or not the message crosses shards — which is
/// what keeps trajectories byte-identical across shard counts.
#[inline]
fn msg_at(now: u64, latency: u64, ctx: &Ctx) -> u64 {
    (now + latency).max(block_end_of(now, ctx.lookahead)) + DELIVER_DELAY
}

/// Resolves the `threads` knob: `0` means "ask the OS", anything else
/// is taken literally. Thread count never affects results — only how
/// many cores sweep the lanes of a dense block.
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// How the [`EventRuntime`](crate::EventRuntime)'s scheduler is split
/// into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The sharded calendar-queue engine of this module (one shard by
    /// default). `shards` is clamped to the fleet size; randomness is
    /// split into per-node streams, so results are byte-identical
    /// across shard counts.
    ShardedCalendar {
        /// Number of destination-node-range shards (at least 1).
        shards: usize,
    },
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SchedulerKind::ShardedCalendar { shards } = self;
        write!(f, "sharded-calendar({shards})")
    }
}

/// One scheduled item in a [`Calendar`]: the payload plus the
/// intrinsic ordering key `(at, src, seq)` — virtual time, source
/// node, and the source's own monotone sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<E> {
    /// Virtual time the entry is due.
    pub at: u64,
    /// The node (or producer id) that scheduled the entry.
    pub src: u32,
    /// The producer's own sequence number — FIFO tie-break for entries
    /// of the same `(at, src)`.
    pub seq: u32,
    /// The scheduled payload.
    pub payload: E,
}

impl<E> Entry<E> {
    /// The packed `(src, seq)` tie-break key: within one time slot,
    /// entries pop in ascending order of this key.
    fn order_key(&self) -> u64 {
        (u64::from(self.src) << 32) | u64::from(self.seq)
    }
}

/// A fixed-ring calendar queue: `O(1)` amortized enqueue, bucket-walk
/// dequeue, deterministic `(time, src, seq)` pop order.
///
/// A window's vector handed back through [`recycle`](Calendar::recycle)
/// becomes the storage of the next slot a window empties, shrunk to a
/// capacity of at most 256 entries. Windows of up to 256 entries
/// allocate nothing; a larger window regrows its slot as its entries
/// arrive. So an empty slot never holds more than 256 entries of
/// capacity, however large an earlier window was.
///
/// The caller must keep every pending entry within one ring rotation
/// ([`RING_SLOTS`] virtual-time units) of the earliest pending entry —
/// the event runtime guarantees this by construction (all protocol
/// delays are shorter than the ring), and `push` checks it in debug
/// builds.
///
/// # Example
///
/// ```
/// use sociolearn_dist::{Calendar, Entry};
///
/// let mut cal = Calendar::new();
/// cal.push(Entry { at: 3, src: 1, seq: 0, payload: "b" });
/// cal.push(Entry { at: 1, src: 7, seq: 0, payload: "a" });
/// assert_eq!(cal.next_time(0), Some(1));
/// let due = cal.take_due(1);
/// assert_eq!(due[0].payload, "a");
/// assert_eq!(cal.next_time(2), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// `RING_SLOTS` buckets indexed by `time % RING_SLOTS`; each holds
    /// entries for exactly one virtual time at any moment.
    buckets: Vec<Vec<Entry<E>>>,
    /// Recycled bucket storage, at most [`SPARE_CAPACITY`] entries
    /// wide, handed to the next slot a window empties.
    spare: Vec<Entry<E>>,
    /// Total pending entries.
    len: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            buckets: (0..RING_SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Pending entries across all slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `entry`. `O(1)`: one append to the slot
    /// `entry.at % RING_SLOTS`.
    ///
    /// # Panics
    ///
    /// Panics if `entry.at` collides with a different virtual time
    /// already occupying its ring slot — i.e. the caller violated the
    /// one-rotation window contract. A silent collision would corrupt
    /// the queue (mixed-time buckets, misreported `next_time`), so the
    /// single-comparison guard stays on in release builds.
    pub fn push(&mut self, entry: Entry<E>) {
        let slot = (entry.at as usize) & (RING_SLOTS - 1);
        let bucket = &mut self.buckets[slot];
        assert!(
            bucket.first().is_none_or(|e| e.at == entry.at),
            "calendar ring collision: slot {slot} holds t={} but got t={}",
            bucket.first().map_or(0, |e| e.at),
            entry.at,
        );
        bucket.push(entry);
        self.len += 1;
    }

    /// Entries due exactly at `now`, without removing them.
    pub fn due_len(&self, now: u64) -> usize {
        let bucket = &self.buckets[(now as usize) & (RING_SLOTS - 1)];
        if bucket.first().is_some_and(|e| e.at == now) {
            bucket.len()
        } else {
            0
        }
    }

    /// Removes and returns every entry due at `now`, sorted by the
    /// deterministic `(src, seq)` tie-break. Returns an empty vector
    /// when nothing is due. Hand the vector back through
    /// [`recycle`](Calendar::recycle) so windows of up to 256 entries
    /// allocate nothing.
    pub fn take_due(&mut self, now: u64) -> Vec<Entry<E>> {
        let slot = (now as usize) & (RING_SLOTS - 1);
        if self.buckets[slot].first().is_none_or(|e| e.at != now) {
            return Vec::new();
        }
        let mut due = std::mem::replace(&mut self.buckets[slot], std::mem::take(&mut self.spare));
        self.len -= due.len();
        due.sort_unstable_by_key(Entry::order_key);
        due
    }

    /// Returns a drained vector from [`take_due`](Calendar::take_due)
    /// so a later window reuses its storage. The vector is cleared and
    /// shrunk to a capacity of at most 256 entries first, so one large
    /// window cannot leave a window-sized buffer circulating through
    /// every ring slot.
    pub fn recycle(&mut self, mut bucket: Vec<Entry<E>>) {
        bucket.clear();
        bucket.shrink_to(SPARE_CAPACITY);
        if bucket.capacity() > self.spare.capacity() {
            self.spare = bucket;
        }
    }

    /// Moves every pending entry for which `pick` returns true to the
    /// end of `out`, in no particular order, and keeps the rest. Used
    /// when shard ownership is rebalanced: a lane hands off the
    /// entries of nodes it no longer owns, they are re-pushed into
    /// their new owners' calendars, and [`take_due`](Calendar::take_due)
    /// re-derives the deterministic order from the intrinsic keys.
    pub fn extract(&mut self, mut pick: impl FnMut(&Entry<E>) -> bool, out: &mut Vec<Entry<E>>) {
        let before = out.len();
        for bucket in &mut self.buckets {
            let mut i = 0;
            while i < bucket.len() {
                if pick(&bucket[i]) {
                    out.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        self.len -= out.len() - before;
    }

    /// Every pending entry, in no particular order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry<E>> {
        self.buckets.iter().flatten()
    }

    /// The earliest pending virtual time at or after `from`, scanning
    /// at most one ring rotation. `None` when the calendar is empty.
    pub fn next_time(&self, from: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for offset in 0..RING_SLOTS as u64 {
            let t = from + offset;
            let bucket = &self.buckets[(t as usize) & (RING_SLOTS - 1)];
            if let Some(first) = bucket.first() {
                debug_assert_eq!(first.at, t, "pending entry outside the ring window");
                return Some(t);
            }
        }
        None
    }
}

/// One SplitMix64 output derives each per-node seed from the root
/// seed: adjacent node indices map to decorrelated stream seeds, and
/// `SmallRng::seed_from_u64` expands each another SplitMix64 round.
fn node_stream_seed(root: u64, node: usize) -> u64 {
    SplitMix64::new(root.wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))).next_u64()
}

/// The node an event is processed at — the shard-routing key.
fn event_target(ev: &Event) -> u32 {
    match ev {
        Event::Wake { node, .. }
        | Event::ReplyArrive { node, .. }
        | Event::Timeout { node, .. } => *node,
        Event::QueryArrive { to, .. } => *to,
    }
}

/// The node→shard partition: lane `k` owns the contiguous node range
/// `bounds[k]..bounds[k + 1]`. Boundaries are chosen to even out the
/// *present* node count per lane (absent nodes cost nothing — they
/// schedule no events) and move when membership churn shifts the
/// load; the lane count itself is fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardMap {
    /// `lanes + 1` monotone boundaries; `bounds[0] == 0` and
    /// `bounds[lanes] == n`. A lane's range may be empty when fewer
    /// present nodes exist than lanes.
    bounds: Vec<u32>,
}

/// The effective lane count for `shards` requested over `n` nodes.
pub(crate) fn lane_count(n: usize, shards: usize) -> usize {
    shards.clamp(1, n)
}

/// Appends the present-node load of each lane an engine of `shards`
/// shards over `n` nodes starts with — what
/// [`ShardedEngine::write_shard_loads`] will report once the engine is
/// built.
pub(crate) fn write_initial_shard_loads(
    n: usize,
    shards: usize,
    members: &MembershipTracker,
    out: &mut Vec<usize>,
) {
    ShardMap::balanced(n, lane_count(n, shards), members).write_loads(members, out);
}

impl ShardMap {
    /// A partition of `n` nodes into `lanes` ranges balanced by
    /// *present* node count: lane `k` owns the present nodes with
    /// presence-rank in `[⌈alive·k/lanes⌉, ⌈alive·(k+1)/lanes⌉)`, so
    /// per-lane present loads differ by at most one. Trailing absent
    /// nodes land in the last lane.
    fn balanced(n: usize, lanes: usize, members: &MembershipTracker) -> Self {
        debug_assert!(lanes >= 1 && lanes <= n.max(1));
        let alive = (0..n).filter(|&i| members.is_present(i)).count();
        let mut bounds = vec![0u32; lanes + 1];
        bounds[lanes] = index_u32(n);
        let mut prefix = 0usize; // present nodes among 0..idx
        let mut k = 1usize;
        for idx in 0..n {
            while k < lanes && prefix >= (alive * k).div_ceil(lanes) {
                bounds[k] = index_u32(idx);
                k += 1;
            }
            if members.is_present(idx) {
                prefix += 1;
            }
        }
        while k < lanes {
            bounds[k] = index_u32(n);
            k += 1;
        }
        ShardMap { bounds }
    }

    /// Number of lanes in the partition.
    fn lanes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The lane owning `node`: the last lane whose base is at or
    /// below it. `O(log lanes)` over a handful of boundaries.
    #[inline]
    fn shard_of(&self, node: usize) -> usize {
        self.bounds.partition_point(|&b| b as usize <= node) - 1
    }

    /// The first node id of `lane`.
    fn base_of(&self, lane: usize) -> usize {
        self.bounds[lane] as usize
    }

    /// One past the last node id of `lane`.
    fn end_of(&self, lane: usize) -> usize {
        self.bounds[lane + 1] as usize
    }

    /// Appends each lane's *present*-node count to `out`, in lane
    /// order.
    fn write_loads(&self, members: &MembershipTracker, out: &mut Vec<usize>) {
        for lane in 0..self.lanes() {
            let load = (self.base_of(lane)..self.end_of(lane))
                .filter(|&i| members.is_present(i))
                .count();
            out.push(load);
        }
    }
}

/// Execution-tuning knobs the [`EventRuntime`](crate::EventRuntime)
/// hands the engine each tick: none of them changes results, only
/// where and in how large blocks the work runs (`lookahead` changes
/// the trajectory — deliberately — but never varies with `threads`
/// or `parallel_threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecTuning {
    /// Block width K in windows; 1 = the classic per-window barrier.
    pub(crate) lookahead: u64,
    /// Worker threads for dense blocks; 0 = auto (one per core),
    /// 1 = always in-thread.
    pub(crate) threads: usize,
    /// Fewest due events in a block before fanning out.
    pub(crate) parallel_threshold: usize,
}

impl Default for ExecTuning {
    fn default() -> Self {
        ExecTuning {
            lookahead: 1,
            threads: 0,
            parallel_threshold: PARALLEL_WINDOW_EVENTS,
        }
    }
}

/// Read-only per-tick context shared by every shard. Owned (no
/// borrows) so lane jobs holding an `Arc<Ctx>` are `'static` and can
/// run on the persistent worker pool.
struct Ctx {
    params: Params,
    mode: Mode,
    n: usize,
    m: usize,
    /// The node→shard partition (owns event routing). A per-tick
    /// clone: rebalancing replaces the engine's map between ticks, so
    /// the context pins the partition the whole tick routes through.
    map: ShardMap,
    mu: f64,
    drop_prob: f64,
    has_faults: bool,
    /// The 1-based runtime round (the membership clock).
    t: u64,
    /// Lookahead block width K (windows per barrier).
    lookahead: u64,
    rewards: Vec<bool>,
    /// Per-node presence this round, indexed by global node id — a
    /// handle on the [`MembershipTracker`]'s own table, so worker
    /// threads read presence without touching the tracker.
    present: Arc<Vec<bool>>,
}

/// The per-node state table: one `Vec` per field, all of the same
/// length, indexed by node — global node id for a whole fleet,
/// `global - base` inside a lane. Struct-of-arrays because a lane's
/// sweeps touch a few fields of many nodes; one struct per node was
/// measured slower on the churning async fleet.
#[derive(Debug, Clone, Default)]
struct Nodes {
    choices: Vec<NodeState>,
    /// The one-slot history: the commitment before `choices`.
    back: Vec<NodeState>,
    /// Completed local epochs (async mode).
    epochs: Vec<u64>,
    last_wake: Vec<u64>,
    pending: Vec<Pending>,
    rngs: Vec<SmallRng>,
    seqs: Vec<u32>,
    /// Incarnation counters, bumped on every leave so a wake-up
    /// scheduled in an earlier life dies on arrival (async mode;
    /// quiesced epochs clear their schedule so the tag is inert
    /// there).
    incs: Vec<u32>,
    /// Whether each node is bootstrapping — (re)joined and not yet
    /// through its first epoch decision (async mode).
    boot: Vec<bool>,
}

impl Nodes {
    fn len(&self) -> usize {
        self.choices.len()
    }

    /// Moves every node of `other` to the end of `self`, leaving
    /// `other` empty.
    fn append(&mut self, other: &mut Nodes) {
        self.choices.append(&mut other.choices);
        self.back.append(&mut other.back);
        self.epochs.append(&mut other.epochs);
        self.last_wake.append(&mut other.last_wake);
        self.pending.append(&mut other.pending);
        self.rngs.append(&mut other.rngs);
        self.seqs.append(&mut other.seqs);
        self.incs.append(&mut other.incs);
        self.boot.append(&mut other.boot);
    }

    /// Splits the table at `at`: `self` keeps nodes `0..at` and the
    /// rest are returned.
    fn split_off(&mut self, at: usize) -> Nodes {
        Nodes {
            choices: self.choices.split_off(at),
            back: self.back.split_off(at),
            epochs: self.epochs.split_off(at),
            last_wake: self.last_wake.split_off(at),
            pending: self.pending.split_off(at),
            rngs: self.rngs.split_off(at),
            seqs: self.seqs.split_off(at),
            incs: self.incs.split_off(at),
            boot: self.boot.split_off(at),
        }
    }
}

/// Moves the rows of `runs` that lie before global node `until`, in
/// order, to the end of `table`, splitting the run that crosses it.
/// Each run is keyed by its first global node. A run that lands in an
/// empty table is moved whole; only rows appended behind others are
/// copied.
fn take_runs(table: &mut Nodes, runs: &mut VecDeque<(usize, Nodes)>, until: usize) {
    while let Some((first, run)) = runs.front_mut() {
        if *first >= until {
            return;
        }
        let mut taken = if *first + run.len() > until {
            let rest = run.split_off(until - *first);
            *first = until;
            std::mem::replace(run, rest)
        } else {
            runs.pop_front().expect("front was just seen").1
        };
        if table.len() == 0 {
            *table = taken;
        } else {
            table.append(&mut taken);
        }
    }
}

/// One shard: the [`Nodes`] of a contiguous node range, its calendar,
/// and one outbound mailbox per peer shard.
#[derive(Debug, Clone)]
struct ShardLane {
    index: usize,
    /// First global node id owned by this lane.
    base: u32,
    /// Per-node state, indexed by `global - base`.
    nodes: Nodes,
    calendar: Calendar<Event>,
    /// Per-destination-shard mailboxes, drained at window boundaries.
    outboxes: Vec<Vec<Entry<Event>>>,
    /// This tick's counter contributions (summed across lanes).
    rm: RoundMetrics,
}

impl ShardLane {
    /// Cuts a fleet's `nodes`, in global node order, into the lanes of
    /// `map`, each with an empty calendar and empty mailboxes.
    fn split(mut nodes: Nodes, map: &ShardMap) -> Vec<ShardLane> {
        debug_assert_eq!(nodes.len(), map.end_of(map.lanes() - 1));
        let lanes = map.lanes();
        let mut out: Vec<ShardLane> = (0..lanes)
            .rev()
            .map(|index| {
                let base = map.base_of(index);
                ShardLane {
                    index,
                    base: index_u32(base),
                    nodes: nodes.split_off(base),
                    calendar: Calendar::new(),
                    outboxes: (0..lanes).map(|_| Vec::new()).collect(),
                    rm: RoundMetrics::default(),
                }
            })
            .collect();
        out.reverse();
        out
    }

    /// Tags and routes an event produced by global node `src`: its own
    /// calendar when the target is local, the matching mailbox when it
    /// is not.
    fn push_from(&mut self, src: u32, at: u64, ev: Event, ctx: &Ctx) {
        let local = (src - self.base) as usize;
        let seq = self.nodes.seqs[local];
        self.nodes.seqs[local] = seq.wrapping_add(1);
        let shard = ctx.map.shard_of(event_target(&ev) as usize);
        let entry = Entry {
            at,
            src,
            seq,
            payload: ev,
        };
        if shard == self.index {
            self.calendar.push(entry);
        } else {
            self.outboxes[shard].push(entry);
        }
    }

    /// One latency draw from the sender's stream.
    fn latency(&mut self, local: usize) -> u64 {
        self.nodes.rngs[local].gen_range(1..=MAX_MESSAGE_LATENCY)
    }

    /// Whether a message sent by `local` is lost on the link.
    fn link_drops(&mut self, local: usize, ctx: &Ctx) -> bool {
        ctx.drop_prob > 0.0 && self.nodes.rngs[local].gen_bool(ctx.drop_prob)
    }

    // ---- The protocol, one method per stage. Both epoch disciplines
    // ---- run these same stages with the same RNG draws in the same
    // ---- order; they differ only where a stage branches on
    // ---- `ctx.mode`: which snapshot a responder serves (plus the
    // ---- async staleness filter) and the async tail of a decision
    // ---- (history slot, local epoch, next wake-up).

    /// Resolves stage 1 with `considered` and runs stage 2: adopt with
    /// the quality-dependent probability, else sit out. In async mode
    /// the decision also completes the node's local epoch and
    /// schedules its next wake-up on its own cadence — the moment the
    /// barrier-free design hinges on: nothing here waits for the rest
    /// of the fleet.
    fn decide(&mut self, local: usize, considered: u32, now: u64, ctx: &Ctx) {
        debug_assert!(!self.nodes.pending[local].resolved, "node resolved twice");
        self.nodes.pending[local].resolved = true;
        let adopt_p = ctx
            .params
            .adopt_probability(ctx.rewards[considered as usize]);
        // A quiesced epoch starts every node uncommitted, so this
        // replaces `NO_CHOICE`; an async commitment is replaced in
        // place.
        let superseded = self.nodes.choices[local];
        self.nodes.choices[local] = if self.nodes.rngs[local].gen_bool(adopt_p) {
            self.rm.committed += 1;
            considered
        } else {
            NO_CHOICE
        };
        if ctx.mode == Mode::Quiesced {
            return;
        }
        // First epoch decision after a (re)join: the bootstrap is
        // over, whatever stage 1 produced.
        self.nodes.boot[local] = false;
        // The superseded commitment becomes the one-slot history peers
        // can still be served from.
        self.nodes.back[local] = superseded;
        self.nodes.epochs[local] += 1;
        // Next local epoch: one period after the last wake-up, or
        // immediately (plus jitter) if this epoch overran the period —
        // that overrun is how slow nodes drift behind their peers
        // (they catch back up by running epochs back-to-back once the
        // retry storm passes).
        let cadence = self.nodes.last_wake[local] + ASYNC_EPOCH_PERIOD;
        let at = cadence.max(now + 1) + self.nodes.rngs[local].gen_range(0..ASYNC_WAKE_JITTER);
        let node = self.base + index_u32(local);
        let inc = self.nodes.incs[local];
        self.push_from(node, at, Event::Wake { node, inc }, ctx);
    }

    /// Issues query `attempt` for a node (or the uniform fallback once
    /// the retry budget is spent). `attempt == 1` is the stage-1 entry
    /// point and may take the µ-exploration branch instead.
    fn start_attempt(&mut self, local: usize, attempt: u32, now: u64, ctx: &Ctx) {
        let node = self.base + index_u32(local);
        if attempt == 1 && self.nodes.rngs[local].gen_bool(ctx.mu) {
            self.rm.explorations += 1;
            let considered = index_u32(self.nodes.rngs[local].gen_range(0..ctx.m));
            self.decide(local, considered, now, ctx);
            return;
        }
        if attempt > MAX_QUERY_RETRIES || ctx.n == 1 {
            // Retry budget spent (or no peers to ask at all): uniform
            // fallback, exactly as in the round-synchronous runtime.
            self.rm.fallbacks += 1;
            let considered = index_u32(self.nodes.rngs[local].gen_range(0..ctx.m));
            self.decide(local, considered, now, ctx);
            return;
        }
        self.nodes.pending[local].attempt = attempt;
        self.rm.queries_sent += 1;
        // Ask a uniformly random *other* node what it used last epoch.
        let g = node as usize;
        let mut peer = self.nodes.rngs[local].gen_range(0..ctx.n - 1);
        if peer >= g {
            peer += 1;
        }
        // Query and timeout carry the local epoch that issues them: an
        // async calendar is never cleared, so a timeout abandoned by an
        // earlier epoch may surface later, and the responder measures
        // staleness against the querier's epoch. Quiesced epochs never
        // advance `epochs`, so there the tag is a constant.
        let epoch = self.nodes.epochs[local] + 1;
        // The retry clock starts now, reply or no reply.
        self.push_from(
            node,
            now + RETRY_TIMEOUT,
            Event::Timeout {
                node,
                attempt,
                epoch,
            },
            ctx,
        );
        // The query must survive the link to be scheduled for arrival.
        if !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            self.push_from(
                node,
                at,
                Event::QueryArrive {
                    from: node,
                    to: index_u32(peer),
                    epoch,
                },
                ctx,
            );
        }
    }

    /// Answers `from`'s query, tagged with the querier's local
    /// `epoch`, at a local node.
    fn answer(&mut self, local: usize, from: u32, epoch: u64, now: u64, ctx: &Ctx) {
        let option = match ctx.mode {
            // Answer with the option committed last epoch.
            Mode::Quiesced => self.nodes.back[local],
            Mode::Async(bound) => {
                // The querier at local epoch `e` would, under
                // synchronized execution, copy information committed
                // at epoch `e - 1`. Serve the snapshot nearest that
                // epoch: the latest commitment if the responder is at
                // or behind the requested epoch (staleness = the gap),
                // else the one-slot history (a responder that already
                // completed the requested epoch still holds what it
                // committed then; one that raced further ahead serves
                // the oldest it has — fresher than asked, never
                // stale). Withhold the reply when the served
                // information is staler than the bound.
                let want = epoch.saturating_sub(1);
                let r = self.nodes.epochs[local];
                let (option, stale) = if want >= r {
                    (self.nodes.choices[local], want - r)
                } else {
                    (self.nodes.back[local], 0)
                };
                if option != NO_CHOICE && !bound.allows(stale) {
                    self.rm.stale_replies += 1;
                    return;
                }
                option
            }
        };
        // A node that sat that epoch out has nothing to report and
        // stays silent; the querier's timeout drives the retry.
        if option != NO_CHOICE && !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            let node = self.base + index_u32(local);
            self.push_from(node, at, Event::ReplyArrive { node: from, option }, ctx);
        }
    }

    /// Resets the lane for a fresh quiesced epoch and wakes its
    /// present nodes at per-node jittered times. A node that just
    /// (re)joined has `back == NO_CHOICE` (absent epochs write
    /// NO_CHOICE) and bootstraps through the ordinary query path.
    fn begin_epoch(&mut self, ctx: &Ctx) {
        std::mem::swap(&mut self.nodes.choices, &mut self.nodes.back);
        debug_assert!(self.calendar.is_empty(), "previous epoch left events");
        for local in 0..self.nodes.len() {
            self.nodes.choices[local] = NO_CHOICE;
            if !ctx.present[self.base as usize + local] {
                // An absent node answers nothing: its snapshot slot is
                // cleared so a query landing here finds no commitment.
                self.nodes.back[local] = NO_CHOICE;
                self.nodes.pending[local] = Pending {
                    attempt: 0,
                    resolved: true,
                };
            }
        }
        self.wake_present(ctx);
    }

    /// Schedules a wake-up for every present node, in node order, at a
    /// jittered time in `[0, WAKE_SPREAD)`.
    fn wake_present(&mut self, ctx: &Ctx) {
        for local in 0..self.nodes.len() {
            let node = self.base + index_u32(local);
            if ctx.present[node as usize] {
                let at = self.nodes.rngs[local].gen_range(0..WAKE_SPREAD);
                let inc = self.nodes.incs[local];
                self.push_from(node, at, Event::Wake { node, inc }, ctx);
            }
        }
    }

    /// Handles one due event. An absent (crashed or departed) node
    /// takes part in nothing: messages addressed to it are swallowed
    /// — the querier's timeout drives the retry — and its own
    /// wake-ups and timeouts lapse. Quiesced membership changes only
    /// at epoch boundaries, so there the checks only ever swallow
    /// queries to absent peers.
    fn handle(&mut self, entry: Entry<Event>, now: u64, ctx: &Ctx) {
        let present = |node: u32| !ctx.has_faults || ctx.present[node as usize];
        match entry.payload {
            Event::Wake { node, inc } => {
                let local = (node - self.base) as usize;
                // The incarnation tag kills wake-ups scheduled before
                // a leave: they are the only events whose horizon
                // outlives a one-round absence.
                if present(node) && inc == self.nodes.incs[local] {
                    self.nodes.pending[local] = Pending::default();
                    self.nodes.last_wake[local] = now;
                    self.start_attempt(local, 1, now, ctx);
                }
            }
            Event::QueryArrive { from, to, epoch } => {
                if present(to) {
                    self.answer((to - self.base) as usize, from, epoch, now, ctx);
                }
            }
            Event::ReplyArrive { node, option } => {
                let local = (node - self.base) as usize;
                // A reply to a resolved node is late (cannot normally
                // happen: the timeout window exceeds the worst-case
                // round trip) and is ignored for safety.
                if present(node) && !self.nodes.pending[local].resolved {
                    self.rm.replies_received += 1;
                    self.decide(local, option, now, ctx);
                }
            }
            Event::Timeout {
                node,
                attempt,
                epoch,
            } => {
                let local = (node - self.base) as usize;
                let p = self.nodes.pending[local];
                // The epoch tag rejects timeouts abandoned by an
                // earlier local epoch.
                if present(node)
                    && !p.resolved
                    && p.attempt == attempt
                    && self.nodes.epochs[local] + 1 == epoch
                {
                    self.start_attempt(local, attempt + 1, now, ctx);
                }
            }
        }
    }

    /// Processes every event due at `now` in two passes, each in
    /// `(src, seq)` order: first the timers (`Wake`, `Timeout`), then
    /// the mail (`QueryArrive`, `ReplyArrive`). So a node settles its
    /// own timers — a retry, a fallback decision, the start of an
    /// epoch — before it answers or consumes the mail due in the same
    /// window, whatever the senders' ids.
    fn run_window(&mut self, now: u64, ctx: &Ctx) {
        let due = self.calendar.take_due(now);
        for mail in [false, true] {
            for &entry in &due {
                let is_mail = matches!(
                    entry.payload,
                    Event::QueryArrive { .. } | Event::ReplyArrive { .. }
                );
                if is_mail == mail {
                    self.handle(entry, now, ctx);
                }
            }
        }
        self.calendar.recycle(due);
    }

    /// Processes every window in `[start, block_end)` this lane has
    /// events for, touching nothing outside the lane — the unit of
    /// work a worker thread executes between barriers. Sound because
    /// the `msg_at` deferral guarantees no event produced inside the
    /// block (by any lane) is due before `block_end`.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Ctx) {
        let mut cursor = start;
        while let Some(w) = self.calendar.next_time(cursor) {
            if w >= block_end {
                break;
            }
            self.run_window(w, ctx);
            cursor = w + 1;
        }
    }

    /// Due events in this lane's calendar within `[from, to)` — at
    /// most `MAX_LOOKAHEAD` slot peeks.
    fn due_in(&self, from: u64, to: u64) -> usize {
        (from..to).map(|t| self.calendar.due_len(t)).sum()
    }
}

/// The sharded calendar-queue engine behind
/// [`SchedulerKind::ShardedCalendar`]. Owned by the
/// [`EventRuntime`](crate::EventRuntime), which builds it on its first
/// tick and routes every tick here.
#[derive(Debug, Clone)]
pub(crate) struct ShardedEngine {
    /// The balanced node→shard partition.
    map: ShardMap,
    lanes: Vec<ShardLane>,
    /// Virtual time already consumed by async ticks.
    async_clock: u64,
    /// Online rebalances that actually moved a lane boundary.
    rebalances: u64,
    /// Persistent worker threads for dense blocks, created lazily at
    /// first fan-out (an `Arc` so a cloned engine — the twin-runtime
    /// test pattern — shares rather than respawns; the pool
    /// serializes submissions internally).
    pool: Option<Arc<WorkerPool>>,
}

impl ShardedEngine {
    /// Builds the engine: exactly `min(shards, n)` lanes over
    /// contiguous node ranges balanced by round-1 presence, with one
    /// RNG stream per node split from `seed`. Nodes outside the
    /// initial fleet (join-scripted flash crowds) start with no
    /// commitment.
    pub(crate) fn new(
        cfg: &DistConfig,
        seed: u64,
        shards: usize,
        members: &MembershipTracker,
    ) -> Self {
        let n = cfg.num_nodes();
        let m = cfg.params().num_options();
        let map = ShardMap::balanced(n, lane_count(n, shards), members);
        let nodes = Nodes {
            choices: (0..n)
                .map(|i| {
                    if members.in_initial_fleet(i) {
                        crate::uniform_start_choice(i, m)
                    } else {
                        NO_CHOICE
                    }
                })
                .collect(),
            back: vec![NO_CHOICE; n],
            epochs: vec![0; n],
            last_wake: vec![0; n],
            pending: vec![Pending::default(); n],
            rngs: (0..n)
                .map(|i| SmallRng::seed_from_u64(node_stream_seed(seed, i)))
                .collect(),
            seqs: vec![0; n],
            incs: vec![0; n],
            boot: vec![false; n],
        };
        ShardedEngine {
            lanes: ShardLane::split(nodes, &map),
            map,
            async_clock: 0,
            rebalances: 0,
            pool: None,
        }
    }

    /// `node`'s completed local epoch counter.
    pub(crate) fn epoch_of(&self, node: usize) -> u64 {
        let lane = &self.lanes[self.map.shard_of(node)];
        lane.nodes.epochs[node - lane.base as usize]
    }

    /// Max-minus-min completed local epoch over present nodes.
    pub(crate) fn epoch_spread(&self, members: &MembershipTracker) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for lane in &self.lanes {
            for (local, &e) in lane.nodes.epochs.iter().enumerate() {
                if members.is_present(lane.base as usize + local) {
                    any = true;
                    lo = lo.min(e);
                    hi = hi.max(e);
                }
            }
        }
        if any {
            hi - lo
        } else {
            0
        }
    }

    /// Writes the fleet's commitment count per option into `out`.
    pub(crate) fn write_counts(&self, out: &mut [u64]) {
        out.fill(0);
        for lane in &self.lanes {
            for &c in &lane.nodes.choices {
                if c != NO_CHOICE {
                    out[c as usize] += 1;
                }
            }
        }
    }

    /// Online rebalances performed so far (only those that actually
    /// moved a lane boundary count — churn at an already-balanced
    /// partition is free and unreported).
    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Appends each lane's *present*-node load to `out` in lane order
    /// — the per-shard load a telemetry sink charts to see whether
    /// the online rebalancer is keeping the partition even.
    pub(crate) fn write_shard_loads(&self, members: &MembershipTracker, out: &mut Vec<usize>) {
        self.map.write_loads(members, out);
    }

    /// The earliest pending virtual time at or after `from`, across
    /// all lanes.
    fn next_window(&self, from: u64) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.calendar.next_time(from))
            .min()
    }

    /// Runs one K-window lookahead block `[start, block_end)` on every
    /// lane — on the persistent worker pool when dense, in-thread when
    /// sparse (identical results either way) — then drains the
    /// cross-shard mailboxes into the destination calendars at the
    /// barrier.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Arc<Ctx>, tuning: &ExecTuning) {
        let due: usize = self.lanes.iter().map(|l| l.due_in(start, block_end)).sum();
        if due == 0 {
            return;
        }
        // `tuning.threads` arrives already resolved by `tick` —
        // never 0 — so no OS query happens on the per-block path.
        let threads = tuning.threads;
        if self.lanes.len() > 1 && threads > 1 && due >= tuning.parallel_threshold {
            let pool = Arc::clone(
                self.pool
                    .get_or_insert_with(|| Arc::new(WorkerPool::new(threads))),
            );
            let lanes = std::mem::take(&mut self.lanes);
            let cx = Arc::clone(ctx);
            self.lanes = pool.map(lanes, move |mut lane| {
                lane.run_block(start, block_end, &cx);
                lane
            });
        } else {
            for lane in &mut self.lanes {
                lane.run_block(start, block_end, ctx);
            }
        }
        // Block barrier: hand cross-shard events over. Bucket order
        // does not matter — `take_due` re-sorts by `(src, seq)` — so
        // the drain order is free to be whatever is cheapest.
        for src in 0..self.lanes.len() {
            for dst in 0..self.lanes.len() {
                if src == dst || self.lanes[src].outboxes[dst].is_empty() {
                    continue;
                }
                let mut moved = std::mem::take(&mut self.lanes[src].outboxes[dst]);
                for entry in moved.drain(..) {
                    self.lanes[dst].calendar.push(entry);
                }
                self.lanes[src].outboxes[dst] = moved;
            }
        }
    }

    /// Sums the lanes' per-tick counters into one report.
    fn collect_rm(&self, t: u64) -> RoundMetrics {
        let mut rm = RoundMetrics {
            round: t,
            ..RoundMetrics::default()
        };
        for lane in &self.lanes {
            rm.committed += lane.rm.committed;
            rm.queries_sent += lane.rm.queries_sent;
            rm.replies_received += lane.rm.replies_received;
            rm.fallbacks += lane.rm.fallbacks;
            rm.explorations += lane.rm.explorations;
            rm.stale_replies += lane.rm.stale_replies;
        }
        rm
    }

    /// One tick under `mode`: a full epoch run to quiescence, or one
    /// async epoch-period window of virtual time. A tick boundary
    /// carrying membership transitions first rebalances shard
    /// ownership to the new present-node load.
    pub(crate) fn tick(
        &mut self,
        mode: Mode,
        cfg: &DistConfig,
        members: &MembershipTracker,
        t: u64,
        rewards: &[bool],
        tuning: &ExecTuning,
    ) -> RoundMetrics {
        if !members.recent().is_empty() && self.lanes.len() > 1 {
            self.rebalance(members, cfg.num_nodes());
        }
        let ctx = Arc::new(Ctx {
            params: *cfg.params(),
            mode,
            n: cfg.num_nodes(),
            m: cfg.params().num_options(),
            map: self.map.clone(),
            mu: cfg.params().mu(),
            drop_prob: cfg.faults().drop_prob(),
            has_faults: members.any_scheduled(),
            t,
            rewards: rewards.to_vec(),
            lookahead: tuning.lookahead,
            present: Arc::clone(members.present()),
        });
        // Resolve the auto thread knob exactly once per tick:
        // `available_parallelism` is an OS query, far too expensive to
        // repeat on the per-block path — and pointless for one lane,
        // which never fans out.
        let tuning = ExecTuning {
            threads: if self.lanes.len() > 1 {
                effective_threads(tuning.threads)
            } else {
                1
            },
            ..*tuning
        };
        for lane in &mut self.lanes {
            lane.rm = RoundMetrics::default();
        }
        // The virtual-time span this tick drains: a quiesced epoch owns
        // the clock from 0 until no event is left; an async tick is one
        // epoch-period window past the time already consumed, and
        // in-flight events survive into the next tick.
        let (start, end) = match mode {
            Mode::Quiesced => {
                for lane in &mut self.lanes {
                    lane.begin_epoch(&ctx);
                }
                (0, u64::MAX)
            }
            Mode::Async(_) => {
                self.begin_async_tick(&ctx, members);
                (self.async_clock, self.async_clock + ASYNC_EPOCH_PERIOD)
            }
        };
        let mut cursor = start;
        while let Some(w) = self.next_window(cursor) {
            if w >= end {
                break;
            }
            // A lookahead block never reaches past the tick boundary:
            // events due in the next epoch period belong to the next
            // tick's metrics window.
            let block_end = block_end_of(w, tuning.lookahead).min(end);
            self.run_block(w, block_end, &ctx, &tuning);
            cursor = block_end;
        }
        let mut rm = self.collect_rm(t);
        rm.alive = members.alive();
        for &(_, kind) in members.recent() {
            match kind {
                Transition::Join => rm.joins += 1,
                Transition::Leave => rm.leaves += 1,
                Transition::Rejoin => rm.rejoins += 1,
                Transition::Crash => {}
            }
        }
        match mode {
            Mode::Quiesced => {
                debug_assert!(
                    self.lanes
                        .iter()
                        .all(|lane| lane.nodes.pending.iter().all(|p| p.resolved)),
                    "epoch ended with unresolved nodes"
                );
                // With the quiescence barrier, every (re)join
                // bootstraps and resolves within this very epoch: the
                // gauge is the inflow.
                rm.bootstrapping = rm.joins + rm.rejoins;
            }
            Mode::Async(_) => {
                self.async_clock = end;
                rm.bootstrapping = self
                    .lanes
                    .iter()
                    .map(|l| l.nodes.boot.iter().filter(|&&b| b).count() as u64)
                    .sum();
            }
        }
        rm
    }

    /// Recomputes lane boundaries to even out *present* nodes and
    /// migrates the full state of each node whose lane changes — its
    /// [`Nodes`] row and its pending calendar entries — to its new
    /// owner. Only the boundaries move. Each lane's table becomes one
    /// run in node order; the lanes then take their new ranges back
    /// from the runs, which are cut with `split_off` only where a new
    /// boundary crosses them, so a lane keeps the buffer of the rows it
    /// still owns unless rows now precede them. A lane whose range
    /// moved hands off just the calendar entries of nodes it no longer
    /// owns, and those are re-pushed to their new owners; calendars
    /// otherwise stay with their lanes. Runs only between ticks, where
    /// cross-shard outboxes are provably empty, so nothing is in
    /// flight mid-move; per-node RNG streams and intrinsic event keys
    /// make the new partition produce byte-identical results.
    fn rebalance(&mut self, members: &MembershipTracker, n: usize) {
        let new_map = ShardMap::balanced(n, self.lanes.len(), members);
        if new_map == self.map {
            return;
        }
        self.rebalances += 1;
        let pending_before: usize = self.lanes.iter().map(|l| l.calendar.len()).sum();
        let mut runs: VecDeque<(usize, Nodes)> = VecDeque::new();
        let mut handoff: Vec<Entry<Event>> = Vec::new();
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            debug_assert!(
                lane.outboxes.iter().all(Vec::is_empty),
                "rebalance crossed a window with undelivered mail"
            );
            runs.push_back((self.map.base_of(k), std::mem::take(&mut lane.nodes)));
            let owned = new_map.base_of(k)..new_map.end_of(k);
            if owned != (self.map.base_of(k)..self.map.end_of(k)) {
                lane.calendar.extract(
                    |e| !owned.contains(&(event_target(&e.payload) as usize)),
                    &mut handoff,
                );
            }
        }
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            take_runs(&mut lane.nodes, &mut runs, new_map.end_of(k));
            lane.base = index_u32(new_map.base_of(k));
        }
        self.map = new_map;
        for entry in handoff {
            let owner = self.map.shard_of(event_target(&entry.payload) as usize);
            self.lanes[owner].calendar.push(entry);
        }
        debug_assert!(
            self.lanes.iter().enumerate().all(|(k, lane)| {
                lane.base as usize == self.map.base_of(k)
                    && lane.nodes.len() == self.map.end_of(k) - self.map.base_of(k)
            }),
            "a lane's rows do not match its new range"
        );
        debug_assert!(
            self.lanes.iter().all(|lane| {
                let owned = lane.base as usize..lane.base as usize + lane.nodes.len();
                lane.calendar
                    .entries()
                    .all(|e| owned.contains(&(event_target(&e.payload) as usize)))
            }),
            "a pending event sits in a lane that does not own its target"
        );
        debug_assert_eq!(
            self.lanes.iter().map(|l| l.calendar.len()).sum::<usize>(),
            pending_before,
            "rebalance lost or duplicated pending events"
        );
    }

    /// Opens an async tick: lands the tick boundary's membership
    /// transitions, in node order, with the join wake jitter drawn
    /// from the joining node's own stream so the draw is shard-count
    /// invariant. A departing node's commitment leaves the popularity
    /// counts, its history and pending attempt are wiped (a rejoiner
    /// remembers nothing), and a leave bumps its incarnation so
    /// wake-ups scheduled in its old life die on arrival. A
    /// (re)joining node enters bootstrapping and gets a jittered boot
    /// wake-up; everything after that is the ordinary protocol. The
    /// very first tick seeds every present node's epoch loop; from
    /// then on each node perpetually re-schedules its own wake-ups.
    fn begin_async_tick(&mut self, ctx: &Ctx, members: &MembershipTracker) {
        for &(node, kind) in members.recent() {
            let lane = &mut self.lanes[self.map.shard_of(node as usize)];
            let local = (node - lane.base) as usize;
            let nodes = &mut lane.nodes;
            match kind {
                Transition::Leave | Transition::Crash => {
                    if kind == Transition::Leave {
                        nodes.incs[local] = nodes.incs[local].wrapping_add(1);
                    }
                    nodes.choices[local] = NO_CHOICE;
                    nodes.back[local] = NO_CHOICE;
                    nodes.pending[local] = Pending {
                        attempt: 0,
                        resolved: true,
                    };
                    nodes.boot[local] = false;
                }
                Transition::Join | Transition::Rejoin => {
                    nodes.boot[local] = true;
                    // The seeding loop below covers nodes present from
                    // the start; later (re)joins schedule their own
                    // boot wake here.
                    if ctx.t > 1 {
                        let at = self.async_clock + nodes.rngs[local].gen_range(0..WAKE_SPREAD);
                        let inc = nodes.incs[local];
                        lane.push_from(node, at, Event::Wake { node, inc }, ctx);
                    }
                }
            }
        }
        if ctx.t == 1 {
            for lane in &mut self.lanes {
                lane.wake_present(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, src: u32, seq: u32) -> Entry<u32> {
        Entry {
            at,
            src,
            seq,
            payload: src * 1000 + seq,
        }
    }

    #[test]
    fn calendar_pops_in_time_then_src_seq_order() {
        let mut cal = Calendar::new();
        cal.push(entry(5, 2, 0));
        cal.push(entry(3, 9, 1));
        cal.push(entry(5, 1, 7));
        cal.push(entry(5, 2, 1));
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.next_time(0), Some(3));
        let due = cal.take_due(3);
        assert_eq!(due.len(), 1);
        cal.recycle(due);
        assert_eq!(cal.next_time(4), Some(5));
        let due = cal.take_due(5);
        let keys: Vec<(u32, u32)> = due.iter().map(|e| (e.src, e.seq)).collect();
        assert_eq!(keys, vec![(1, 7), (2, 0), (2, 1)]);
        assert!(cal.is_empty());
    }

    #[test]
    fn calendar_take_due_on_empty_slot_is_empty() {
        let mut cal = Calendar::<u32>::new();
        cal.push(entry(10, 0, 0));
        assert!(cal.take_due(9).is_empty());
        assert_eq!(cal.due_len(9), 0);
        assert_eq!(cal.due_len(10), 1);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn calendar_ring_wraps_across_rotations() {
        let mut cal = Calendar::<u32>::new();
        // Three full rotations of pushes one slot ahead of the cursor.
        for step in 0..(3 * RING_SLOTS as u64) {
            cal.push(entry(step + 1, 0, step as u32));
            let due = cal.take_due(step + 1);
            assert_eq!(due.len(), 1, "step {step}");
            assert_eq!(due[0].seq, step as u32);
            cal.recycle(due);
        }
        assert!(cal.is_empty());
    }

    /// Pops every pending entry, window by window from `from`.
    fn pop_all<E: Copy>(cal: &mut Calendar<E>, from: u64) -> Vec<Entry<E>> {
        let mut out = Vec::new();
        let mut cursor = from;
        while let Some(t) = cal.next_time(cursor) {
            let due = cal.take_due(t);
            out.extend_from_slice(&due);
            cal.recycle(due);
            cursor = t + 1;
        }
        out
    }

    fn sorted(mut entries: Vec<Entry<u32>>) -> Vec<Entry<u32>> {
        entries.sort_by_key(|e| (e.at, e.src, e.seq));
        entries
    }

    #[test]
    fn extract_moves_exactly_the_picked_entries_and_keeps_pop_order() {
        let mut rng = SplitMix64::new(9);
        let mut cal = Calendar::new();
        let mut all = Vec::new();
        let mut seqs = [0u32; 40];
        for _ in 0..2_000 {
            let src = (rng.next_u64() % 40) as u32;
            let e = entry(rng.next_u64() % 100, src, seqs[src as usize]);
            seqs[src as usize] += 1;
            cal.push(e);
            all.push(e);
        }
        let picked = |e: &Entry<u32>| e.src.is_multiple_of(3);
        let mut out = vec![entry(0, 99, 0)];
        cal.extract(picked, &mut out);
        // Appended after what `out` already held.
        assert_eq!(out.remove(0), entry(0, 99, 0));
        assert!(out.iter().all(picked));
        assert_eq!(out.len(), all.iter().filter(|e| picked(e)).count());
        assert_eq!(cal.len() + out.len(), all.len());
        assert_eq!(cal.entries().count(), cal.len());

        let rest: Vec<_> = all.iter().copied().filter(|e| !picked(e)).collect();
        assert_eq!(pop_all(&mut cal.clone(), 0), sorted(rest));
        for e in out {
            cal.push(e);
        }
        assert_eq!(pop_all(&mut cal, 0), sorted(all));
        assert!(cal.is_empty());
    }

    #[test]
    fn recycled_buckets_keep_bounded_capacity() {
        let capacity = |cal: &Calendar<u32>| {
            cal.buckets.iter().map(Vec::capacity).sum::<usize>() + cal.spare.capacity()
        };
        let bound = (RING_SLOTS + 1) * SPARE_CAPACITY;
        let mut cal = Calendar::new();
        for i in 0..100_000u32 {
            cal.push(entry(0, i / 8, i % 8));
        }
        let due = cal.take_due(0);
        assert_eq!(due.len(), 100_000);
        cal.recycle(due);
        assert!(capacity(&cal) <= bound, "{} > {bound}", capacity(&cal));
        for t in 1..=RING_SLOTS as u64 {
            for i in 0..8 {
                cal.push(entry(t, i, 0));
            }
            let due = cal.take_due(t);
            assert_eq!(due.len(), 8);
            cal.recycle(due);
            assert!(
                capacity(&cal) <= bound,
                "t={t}: {} > {bound}",
                capacity(&cal)
            );
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn node_stream_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| node_stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(node_stream_seed(1, 0), node_stream_seed(2, 0));
    }

    /// Within a window a node settles its own timers before the mail
    /// due there, whatever the senders' ids. Node 1's last retry times
    /// out at the same slot as node 0's query reaches it. Timers
    /// first, node 1 falls back, completes its epoch and answers the
    /// query as a current peer. Answered first — in plain `(src, seq)`
    /// order or mail before timers — the query would find node 1 one
    /// epoch behind and withhold the reply as stale under `Epochs(0)`.
    #[test]
    fn window_handles_timers_before_mail() {
        let params = Params::new(2, 0.65).unwrap();
        let cfg = DistConfig::new(params, 2);
        let members = MembershipTracker::new(cfg.faults(), 2);
        let engine = ShardedEngine::new(&cfg, 7, 1, &members);
        let ctx = Ctx {
            params,
            mode: Mode::Async(crate::StalenessBound::Epochs(0)),
            n: 2,
            m: 2,
            map: engine.map.clone(),
            mu: params.mu(),
            drop_prob: 0.0,
            has_faults: false,
            t: 1,
            lookahead: 1,
            rewards: vec![true, false],
            present: Arc::new(vec![true; 2]),
        };
        let mut lane = engine.lanes.into_iter().next().unwrap();
        lane.nodes.choices[1] = 0;
        lane.nodes.epochs = vec![5, 4];
        lane.nodes.pending[1] = Pending {
            attempt: MAX_QUERY_RETRIES,
            resolved: false,
        };
        let at = 10;
        let timeout = Event::Timeout {
            node: 1,
            attempt: MAX_QUERY_RETRIES,
            epoch: 5,
        };
        let query = Event::QueryArrive {
            from: 0,
            to: 1,
            epoch: 6,
        };
        for (src, payload) in [(1, timeout), (0, query)] {
            lane.calendar.push(Entry {
                at,
                src,
                seq: 0,
                payload,
            });
        }
        lane.run_window(at, &ctx);
        assert_eq!(lane.rm.fallbacks, 1);
        assert_eq!(
            lane.rm.stale_replies, 0,
            "the query went before the timeout"
        );
        assert_eq!(lane.nodes.epochs[1], 5);
    }

    #[test]
    fn scheduler_kind_displays() {
        assert_eq!(
            SchedulerKind::ShardedCalendar { shards: 4 }.to_string(),
            "sharded-calendar(4)"
        );
    }
}
