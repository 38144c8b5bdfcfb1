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
//! with latency `l` becomes due at `max(now + l, block_end(now))` —
//! never inside the sender's current block. The adjustment applies to
//! every message, same-shard or cross-shard, so it is a property of
//! the *trajectory*, not of the partition: for a fixed K the results
//! stay byte-identical across shard counts and thread counts. At the
//! default `K = 1`, `block_end(now) = now + 1 <= now + l`, so the
//! adjustment is the identity and existing seeds replay bit-for-bit.
//! `K` is capped at [`MAX_LOOKAHEAD`]`= MAX_MESSAGE_LATENCY`, which
//! keeps two invariants intact: no adjusted delay exceeds the
//! protocol's existing latency ceiling (so the calendar ring horizon
//! is unchanged and `Calendar::push` cannot hit its ring-collision
//! panic), and a query round trip still always beats its retry
//! timeout (`2·max(l, K) + 2·DELIVER_DELAY < RETRY_TIMEOUT`), so the
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
//!   events in ascending `(src, seq)` order, so the total order within
//!   each window is fixed no matter which mailbox an event travelled
//!   through or how many shards exist.
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
//! leaves the lane's popularity counts and its pending attempt is
//! wiped; a (re)joining node enters bootstrapping and re-learns a
//! commitment through the ordinary query/reply protocol — no state
//! transfer, no new message types. Because churn skews the load of a
//! fixed node→shard split, the engine also **rebalances ownership
//! online**: on any tick whose boundary carries membership
//! transitions, lane boundaries are recomputed to even out *present*
//! nodes and each migrating node's full state (choices, inbox, local
//! epoch, RNG stream, pending calendar entries) moves to its new
//! lane. The move happens only between windows — when cross-shard
//! mailboxes are provably empty — and the same per-node-stream +
//! intrinsic-key argument that makes the partition invisible to the
//! protocol makes rebalancing semantically a no-op: byte-identity
//! across shard counts holds even while ownership shifts under churn.
//!
//! [`FaultPlan`]: crate::FaultPlan

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_core::Params;
use sociolearn_sim::WorkerPool;

use crate::cast::index_u32;
use crate::event::{
    Event, Mode, Msg, Pending, ASYNC_EPOCH_PERIOD, ASYNC_WAKE_JITTER, DELIVER_DELAY,
    MAX_MESSAGE_LATENCY, RETRY_TIMEOUT, WAKE_SPREAD,
};
use crate::soa::{AlignedU32s, AlignedU64s};
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
// plus an inbox Deliver hop per leg) must still preempt the sender's
// retry timeout, or lookahead would change the retry/fallback law.
const _: () = assert!(2 * MAX_MESSAGE_LATENCY + 2 * DELIVER_DELAY < RETRY_TIMEOUT);

/// The absolute-time end of the lookahead block containing `now`:
/// the next multiple of `lookahead` strictly after `now`.
#[inline]
fn block_end_of(now: u64, lookahead: u64) -> u64 {
    (now / lookahead + 1) * lookahead
}

/// The due time of a message sent at `now` with `latency`: deferred
/// to the sender's block boundary under lookahead (the identity when
/// `lookahead == 1`, since `latency >= 1`). Partition-independent —
/// it applies whether or not the message crosses shards — which is
/// what keeps trajectories byte-identical across shard counts.
#[inline]
fn msg_at(now: u64, latency: u64, ctx: &Ctx) -> u64 {
    (now + latency).max(block_end_of(now, ctx.lookahead))
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
    /// Recycled bucket storage, so steady-state windows allocate
    /// nothing.
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
    /// [`recycle`](Calendar::recycle) to keep the queue
    /// allocation-free in steady state.
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
    /// so its capacity is reused by a later window.
    pub fn recycle(&mut self, mut bucket: Vec<Entry<E>>) {
        bucket.clear();
        if bucket.capacity() > self.spare.capacity() {
            self.spare = bucket;
        }
    }

    /// Removes and returns every pending entry, in no particular
    /// order. Used when shard ownership is rebalanced: the drained
    /// entries are re-pushed into their new owners' calendars, and
    /// [`take_due`](Calendar::take_due) re-derives the deterministic
    /// order from the intrinsic keys.
    pub fn drain_all(&mut self) -> Vec<Entry<E>> {
        let mut out = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            out.append(bucket);
        }
        self.len = 0;
        out
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

/// SplitMix64 finalizer used to derive per-node seeds from the root
/// seed: adjacent node indices map to decorrelated stream seeds, and
/// `SmallRng::seed_from_u64` expands each another SplitMix64 round.
fn node_stream_seed(root: u64, node: usize) -> u64 {
    let mut z = root
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The node an event is processed at — the shard-routing key.
fn event_target(ev: &Event) -> u32 {
    match ev {
        Event::Wake { node, .. }
        | Event::ReplyArrive { node, .. }
        | Event::Deliver { node }
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
    queue_bound: usize,
    /// The 1-based runtime round (the membership clock).
    t: u64,
    /// Lookahead block width K (windows per barrier).
    lookahead: u64,
    rewards: Vec<bool>,
    /// Per-node presence this round, indexed by global node id — a
    /// snapshot of `MembershipTracker::is_present` maintained
    /// incrementally by the engine so worker threads never touch the
    /// tracker itself.
    present: Arc<Vec<bool>>,
}

/// One shard: the full per-node state of a contiguous node range, its
/// calendar, and one outbound mailbox per peer shard.
///
/// The per-node scalars swept every window — commitments, epochs,
/// sequence counters — live in cache-line-aligned struct-of-arrays
/// ([`AlignedU32s`]/[`AlignedU64s`]): each lane's arrays start on
/// their own 64-byte line (no false sharing between lanes on worker
/// threads) and the inner loops stream whole lines.
#[derive(Debug, Clone)]
struct ShardLane {
    index: usize,
    /// First global node id owned by this lane.
    base: u32,
    // Per-node state, indexed by `global - base`.
    choices: AlignedU32s,
    back: AlignedU32s,
    epochs: AlignedU64s,
    last_wake: AlignedU64s,
    pending: Vec<Pending>,
    inboxes: Vec<VecDeque<Msg>>,
    rngs: Vec<SmallRng>,
    seqs: AlignedU32s,
    /// Per-node incarnation counters, bumped on every leave so a
    /// wake-up scheduled in an earlier life dies on arrival (async
    /// mode; quiesced epochs clear their schedule so the tag is
    /// inert there).
    incs: AlignedU32s,
    /// Whether each node is bootstrapping — (re)joined and not yet
    /// through its first epoch decision (async mode).
    boot: Vec<bool>,
    /// Number of set flags in `boot`, kept incrementally.
    boot_count: u64,
    /// Commitment counts per option over this lane's nodes.
    counts: Vec<u64>,
    calendar: Calendar<Event>,
    /// Per-destination-shard mailboxes, drained at window boundaries.
    outboxes: Vec<Vec<Entry<Event>>>,
    /// This tick's counter contributions (summed across lanes).
    rm: RoundMetrics,
    max_queue_depth: usize,
}

impl ShardLane {
    fn len(&self) -> usize {
        self.choices.len()
    }

    /// Tags and routes an event produced by global node `src`: its own
    /// calendar when the target is local, the matching mailbox when it
    /// is not.
    fn push_from(&mut self, src: u32, at: u64, ev: Event, ctx: &Ctx) {
        let local = (src - self.base) as usize;
        let seq = self.seqs[local];
        self.seqs[local] = seq.wrapping_add(1);
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
        self.rngs[local].gen_range(1..=MAX_MESSAGE_LATENCY)
    }

    /// Whether a message sent by `local` is lost on the link.
    fn link_drops(&mut self, local: usize, ctx: &Ctx) -> bool {
        ctx.drop_prob > 0.0 && self.rngs[local].gen_bool(ctx.drop_prob)
    }

    /// Offers `msg` to a local node's bounded inbox; schedules the
    /// matching `Deliver` on success, counts a backpressure drop on
    /// overflow.
    fn enqueue(&mut self, local: usize, msg: Msg, now: u64, ctx: &Ctx) {
        let inbox = &mut self.inboxes[local];
        if inbox.len() >= ctx.queue_bound {
            self.rm.queue_drops += 1;
            return;
        }
        inbox.push_back(msg);
        self.max_queue_depth = self.max_queue_depth.max(inbox.len());
        let node = self.base + index_u32(local);
        self.push_from(node, now + DELIVER_DELAY, Event::Deliver { node }, ctx);
    }

    /// Replaces a local node's commitment, keeping the lane's counts
    /// in sync (the async path maintains counts incrementally).
    fn set_commit(&mut self, local: usize, new: NodeState) {
        let old = self.choices[local];
        if old != NO_CHOICE {
            self.counts[old as usize] -= 1;
        }
        if new != NO_CHOICE {
            self.counts[new as usize] += 1;
        }
        self.choices[local] = new;
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
        debug_assert!(!self.pending[local].resolved, "node resolved twice");
        self.pending[local].resolved = true;
        let adopt_p = ctx
            .params
            .adopt_probability(ctx.rewards[considered as usize]);
        // A quiesced epoch starts every node uncommitted, so this
        // replaces `NO_CHOICE`; an async commitment is replaced in
        // place.
        let superseded = self.choices[local];
        if self.rngs[local].gen_bool(adopt_p) {
            self.set_commit(local, considered);
            self.rm.committed += 1;
        } else {
            self.set_commit(local, NO_CHOICE);
        }
        if ctx.mode == Mode::Quiesced {
            return;
        }
        if self.boot[local] {
            // First epoch decision after a (re)join: the bootstrap is
            // over, whatever stage 1 produced.
            self.boot[local] = false;
            self.boot_count -= 1;
        }
        // The superseded commitment becomes the one-slot history peers
        // can still be served from.
        self.back[local] = superseded;
        self.epochs[local] += 1;
        // Next local epoch: one period after the last wake-up, or
        // immediately (plus jitter) if this epoch overran the period —
        // that overrun is how slow nodes drift behind their peers
        // (they catch back up by running epochs back-to-back once the
        // retry storm passes).
        let cadence = self.last_wake[local] + ASYNC_EPOCH_PERIOD;
        let at = cadence.max(now + 1) + self.rngs[local].gen_range(0..ASYNC_WAKE_JITTER);
        let node = self.base + index_u32(local);
        let inc = self.incs[local];
        self.push_from(node, at, Event::Wake { node, inc }, ctx);
    }

    /// Issues query `attempt` for a node (or the uniform fallback once
    /// the retry budget is spent). `attempt == 1` is the stage-1 entry
    /// point and may take the µ-exploration branch instead.
    fn start_attempt(&mut self, local: usize, attempt: u32, now: u64, ctx: &Ctx) {
        let node = self.base + index_u32(local);
        if attempt == 1 && self.rngs[local].gen_bool(ctx.mu) {
            self.rm.explorations += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide(local, considered, now, ctx);
            return;
        }
        if attempt > MAX_QUERY_RETRIES || ctx.n == 1 {
            // Retry budget spent (or no peers to ask at all): uniform
            // fallback, exactly as in the round-synchronous runtime.
            self.rm.fallbacks += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide(local, considered, now, ctx);
            return;
        }
        self.pending[local].attempt = attempt;
        self.rm.queries_sent += 1;
        // Ask a uniformly random *other* node what it used last epoch.
        let g = node as usize;
        let mut peer = self.rngs[local].gen_range(0..ctx.n - 1);
        if peer >= g {
            peer += 1;
        }
        // Query and timeout carry the local epoch that issues them: an
        // async calendar is never cleared, so a timeout abandoned by an
        // earlier epoch may surface later, and the responder measures
        // staleness against the querier's epoch. Quiesced epochs never
        // advance `epochs`, so there the tag is a constant.
        let epoch = self.epochs[local] + 1;
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

    /// Pops and handles the head of a node's inbox.
    fn deliver(&mut self, local: usize, now: u64, ctx: &Ctx) {
        let Some(msg) = self.inboxes[local].pop_front() else {
            return;
        };
        match msg {
            Msg::Query { from, epoch } => {
                let option = match ctx.mode {
                    // Answer with the option committed last epoch.
                    Mode::Quiesced => self.back[local],
                    Mode::Async(bound) => {
                        // The querier at local epoch `e` would, under
                        // synchronized execution, copy information
                        // committed at epoch `e - 1`. Serve the
                        // snapshot nearest that epoch: the latest
                        // commitment if the responder is at or behind
                        // the requested epoch (staleness = the gap),
                        // else the one-slot history (a responder that
                        // already completed the requested epoch still
                        // holds what it committed then; one that raced
                        // further ahead serves the oldest it has —
                        // fresher than asked, never stale). Withhold
                        // the reply when the served information is
                        // staler than the bound.
                        let want = epoch.saturating_sub(1);
                        let r = self.epochs[local];
                        let (option, stale) = if want >= r {
                            (self.choices[local], want - r)
                        } else {
                            (self.back[local], 0)
                        };
                        if option != NO_CHOICE && !bound.allows(stale) {
                            self.rm.stale_replies += 1;
                            return;
                        }
                        option
                    }
                };
                // A node that sat that epoch out has nothing to report
                // and stays silent; the querier's timeout drives the
                // retry.
                if option != NO_CHOICE && !self.link_drops(local, ctx) {
                    let at = msg_at(now, self.latency(local), ctx);
                    let node = self.base + index_u32(local);
                    self.push_from(node, at, Event::ReplyArrive { node: from, option }, ctx);
                }
            }
            Msg::Reply { option } => {
                if self.pending[local].resolved {
                    // A late duplicate (cannot normally happen: the
                    // timeout window exceeds the worst-case round
                    // trip), ignored for safety.
                    return;
                }
                self.rm.replies_received += 1;
                self.decide(local, option, now, ctx);
            }
        }
    }

    /// Resets the lane for a fresh quiesced epoch and wakes its
    /// present nodes at per-node jittered times. A node that just
    /// (re)joined has `back == NO_CHOICE` (absent epochs write
    /// NO_CHOICE) and bootstraps through the ordinary query path.
    fn begin_epoch(&mut self, ctx: &Ctx) {
        std::mem::swap(&mut self.choices, &mut self.back);
        self.counts.fill(0);
        debug_assert!(self.calendar.is_empty(), "previous epoch left events");
        for local in 0..self.len() {
            self.choices[local] = NO_CHOICE;
            debug_assert!(self.inboxes[local].is_empty(), "previous epoch left mail");
            if !ctx.present[self.base as usize + local] {
                // An absent node answers nothing: its snapshot slot is
                // cleared so a query landing here finds no commitment.
                self.back[local] = NO_CHOICE;
                self.pending[local] = Pending {
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
        for local in 0..self.len() {
            let node = self.base + index_u32(local);
            if ctx.present[node as usize] {
                let at = self.rngs[local].gen_range(0..WAKE_SPREAD);
                let inc = self.incs[local];
                self.push_from(node, at, Event::Wake { node, inc }, ctx);
            }
        }
    }

    /// Handles one due event. An absent (crashed or departed) node
    /// takes part in nothing: messages addressed to it are swallowed
    /// — the querier's timeout drives the retry — and its own
    /// wake-ups, deliveries, and timeouts lapse. Quiesced membership
    /// changes only at epoch boundaries, so there the checks only
    /// ever swallow queries to absent peers.
    fn handle(&mut self, entry: Entry<Event>, now: u64, ctx: &Ctx) {
        let present = |node: u32| !ctx.has_faults || ctx.present[node as usize];
        match entry.payload {
            Event::Wake { node, inc } => {
                let local = (node - self.base) as usize;
                // The incarnation tag kills wake-ups scheduled before
                // a leave: they are the only events whose horizon
                // outlives a one-round absence.
                if present(node) && inc == self.incs[local] {
                    self.pending[local] = Pending::default();
                    self.last_wake[local] = now;
                    self.start_attempt(local, 1, now, ctx);
                }
            }
            Event::QueryArrive { from, to, epoch } => {
                if present(to) {
                    self.enqueue(
                        (to - self.base) as usize,
                        Msg::Query { from, epoch },
                        now,
                        ctx,
                    );
                }
            }
            Event::ReplyArrive { node, option } => {
                if present(node) {
                    self.enqueue((node - self.base) as usize, Msg::Reply { option }, now, ctx);
                }
            }
            Event::Deliver { node } => {
                let local = (node - self.base) as usize;
                if present(node) {
                    self.deliver(local, now, ctx);
                } else {
                    // Keep deliveries 1:1 with enqueues even for the
                    // dead.
                    self.inboxes[local].pop_front();
                }
            }
            Event::Timeout {
                node,
                attempt,
                epoch,
            } => {
                let local = (node - self.base) as usize;
                let p = self.pending[local];
                // The epoch tag rejects timeouts abandoned by an
                // earlier local epoch.
                if present(node)
                    && !p.resolved
                    && p.attempt == attempt
                    && self.epochs[local] + 1 == epoch
                {
                    self.start_attempt(local, attempt + 1, now, ctx);
                }
            }
        }
    }

    /// Processes every event due at `now`, in `(src, seq)` order.
    fn run_window(&mut self, now: u64, ctx: &Ctx) {
        let due = self.calendar.take_due(now);
        for &entry in &due {
            self.handle(entry, now, ctx);
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
    /// Per-node presence snapshot, maintained incrementally from
    /// membership transitions at every tick boundary and shared with
    /// lane jobs via the tick context. Clones of the engine share it
    /// until the next transition (`Arc::make_mut` copies on write).
    present: Arc<Vec<bool>>,
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
        let lane_count = lane_count(n, shards);
        let map = ShardMap::balanced(n, lane_count, members);
        debug_assert_eq!(map.lanes(), lane_count);
        let lanes = (0..lane_count)
            .map(|index| {
                let base = map.base_of(index);
                let len = map.end_of(index) - base;
                let mut counts = vec![0u64; m];
                let choices: AlignedU32s = (base..base + len)
                    .map(|i| {
                        if members.in_initial_fleet(i) {
                            let c = crate::uniform_start_choice(i, m);
                            counts[c as usize] += 1;
                            c
                        } else {
                            NO_CHOICE
                        }
                    })
                    .collect();
                ShardLane {
                    index,
                    base: index_u32(base),
                    choices,
                    back: AlignedU32s::with_len(len, NO_CHOICE),
                    epochs: AlignedU64s::with_len(len, 0),
                    last_wake: AlignedU64s::with_len(len, 0),
                    pending: vec![Pending::default(); len],
                    inboxes: (0..len).map(|_| VecDeque::new()).collect(),
                    rngs: (0..len)
                        .map(|local| SmallRng::seed_from_u64(node_stream_seed(seed, base + local)))
                        .collect(),
                    seqs: AlignedU32s::with_len(len, 0),
                    incs: AlignedU32s::with_len(len, 0),
                    boot: vec![false; len],
                    boot_count: 0,
                    counts,
                    calendar: Calendar::new(),
                    outboxes: (0..lane_count).map(|_| Vec::new()).collect(),
                    rm: RoundMetrics::default(),
                    max_queue_depth: 0,
                }
            })
            .collect();
        let present = Arc::new((0..n).map(|i| members.is_present(i)).collect());
        ShardedEngine {
            map,
            lanes,
            async_clock: 0,
            rebalances: 0,
            present,
            pool: None,
        }
    }

    /// `node`'s completed local epoch counter.
    pub(crate) fn epoch_of(&self, node: usize) -> u64 {
        let lane = &self.lanes[self.map.shard_of(node)];
        lane.epochs[node - lane.base as usize]
    }

    /// Max-minus-min completed local epoch over present nodes.
    pub(crate) fn epoch_spread(&self, members: &MembershipTracker) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for lane in &self.lanes {
            for (local, &e) in lane.epochs.iter().enumerate() {
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

    /// Sums the per-lane commitment counts into `out`.
    pub(crate) fn write_counts(&self, out: &mut [u64]) {
        out.fill(0);
        for lane in &self.lanes {
            for (slot, &c) in out.iter_mut().zip(&lane.counts) {
                *slot += c;
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

    /// The deepest any inbox has ever been.
    pub(crate) fn max_queue_depth(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.max_queue_depth)
            .max()
            .unwrap_or(0)
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
            rm.queue_drops += lane.rm.queue_drops;
            rm.stale_replies += lane.rm.stale_replies;
        }
        rm
    }

    /// One tick under `mode`: a full epoch run to quiescence, or one
    /// async epoch-period window of virtual time. A tick boundary
    /// carrying membership transitions first rebalances shard
    /// ownership to the new present-node load.
    #[allow(clippy::too_many_arguments)] // the runtime's full tick context, assembled in one place
    pub(crate) fn tick(
        &mut self,
        mode: Mode,
        cfg: &DistConfig,
        queue_bound: usize,
        members: &MembershipTracker,
        t: u64,
        rewards: &[bool],
        tuning: &ExecTuning,
    ) -> RoundMetrics {
        if !members.recent().is_empty() {
            self.refresh_present(members);
            if self.lanes.len() > 1 {
                self.rebalance(members, cfg.num_nodes());
            }
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
            queue_bound,
            t,
            rewards: rewards.to_vec(),
            lookahead: tuning.lookahead,
            present: Arc::clone(&self.present),
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
                        .all(|lane| lane.pending.iter().all(|p| p.resolved)),
                    "epoch ended with unresolved nodes"
                );
                // With the quiescence barrier, every (re)join
                // bootstraps and resolves within this very epoch: the
                // gauge is the inflow.
                rm.bootstrapping = rm.joins + rm.rejoins;
            }
            Mode::Async(_) => {
                self.async_clock = end;
                rm.bootstrapping = self.lanes.iter().map(|l| l.boot_count).sum();
            }
        }
        rm
    }

    /// Applies this tick's membership transitions to the engine's
    /// presence snapshot — the lane-visible view shipped to worker
    /// threads inside [`Ctx`]. Maintained incrementally so a tick
    /// without churn shares the previous `Arc` and copies nothing.
    fn refresh_present(&mut self, members: &MembershipTracker) {
        let present = Arc::make_mut(&mut self.present);
        for &(node, kind) in members.recent() {
            present[node as usize] = matches!(kind, Transition::Join | Transition::Rejoin);
        }
        debug_assert!(
            (0..present.len()).all(|i| present[i] == members.is_present(i)),
            "presence snapshot drifted from the membership tracker"
        );
    }

    /// Recomputes lane boundaries to even out *present* nodes and
    /// migrates each moving node's full state — commitment, inbox,
    /// local epoch, RNG stream, incarnation, and pending calendar
    /// entries — to its new owner. Runs only between ticks, where
    /// cross-shard outboxes are provably empty, so nothing is in
    /// flight mid-move; per-node RNG streams and intrinsic event keys
    /// make the new partition produce byte-identical results.
    fn rebalance(&mut self, members: &MembershipTracker, n: usize) {
        let new_map = ShardMap::balanced(n, self.lanes.len(), members);
        if new_map == self.map {
            return;
        }
        self.rebalances += 1;
        let lane_count = self.lanes.len();
        let m = self.lanes[0].counts.len();
        let depth_watermark = self.max_queue_depth();
        let mut entries: Vec<Entry<Event>> = Vec::new();
        let mut choices: Vec<u32> = Vec::with_capacity(n);
        let mut back: Vec<u32> = Vec::with_capacity(n);
        let mut epochs: Vec<u64> = Vec::with_capacity(n);
        let mut last_wake: Vec<u64> = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        let mut seqs: Vec<u32> = Vec::with_capacity(n);
        let mut incs: Vec<u32> = Vec::with_capacity(n);
        let mut boot = Vec::with_capacity(n);
        // Lanes own ascending contiguous ranges, so appending in lane
        // order flattens back to global node order. The aligned
        // struct-of-arrays fields flatten through plain `Vec`s and
        // re-chunk on the collect below.
        for mut lane in std::mem::take(&mut self.lanes) {
            debug_assert!(
                lane.outboxes.iter().all(Vec::is_empty),
                "rebalance crossed a window with undelivered mail"
            );
            entries.append(&mut lane.calendar.drain_all());
            choices.extend(lane.choices.drain_all());
            back.extend(lane.back.drain_all());
            epochs.extend(lane.epochs.drain_all());
            last_wake.extend(lane.last_wake.drain_all());
            pending.append(&mut lane.pending);
            inboxes.append(&mut lane.inboxes);
            rngs.append(&mut lane.rngs);
            seqs.extend(lane.seqs.drain_all());
            incs.extend(lane.incs.drain_all());
            boot.append(&mut lane.boot);
        }
        let mut choices = choices.into_iter();
        let mut back = back.into_iter();
        let mut epochs = epochs.into_iter();
        let mut last_wake = last_wake.into_iter();
        let mut pending = pending.into_iter();
        let mut inboxes = inboxes.into_iter();
        let mut rngs = rngs.into_iter();
        let mut seqs = seqs.into_iter();
        let mut incs = incs.into_iter();
        let mut boot = boot.into_iter();
        self.lanes = (0..lane_count)
            .map(|index| {
                let base = new_map.base_of(index);
                let len = new_map.end_of(index) - base;
                let lane_choices: AlignedU32s = choices.by_ref().take(len).collect();
                let mut counts = vec![0u64; m];
                for &c in lane_choices.iter() {
                    if c != NO_CHOICE {
                        counts[c as usize] += 1;
                    }
                }
                let lane_boot: Vec<bool> = boot.by_ref().take(len).collect();
                let boot_count = lane_boot.iter().filter(|&&b| b).count() as u64;
                ShardLane {
                    index,
                    base: index_u32(base),
                    choices: lane_choices,
                    back: back.by_ref().take(len).collect(),
                    epochs: epochs.by_ref().take(len).collect(),
                    last_wake: last_wake.by_ref().take(len).collect(),
                    pending: pending.by_ref().take(len).collect(),
                    inboxes: inboxes.by_ref().take(len).collect(),
                    rngs: rngs.by_ref().take(len).collect(),
                    seqs: seqs.by_ref().take(len).collect(),
                    incs: incs.by_ref().take(len).collect(),
                    boot: lane_boot,
                    boot_count,
                    counts,
                    calendar: Calendar::new(),
                    outboxes: (0..lane_count).map(|_| Vec::new()).collect(),
                    rm: RoundMetrics::default(),
                    max_queue_depth: 0,
                }
            })
            .collect();
        // The depth gauge is an engine-wide high-water mark; park it
        // on the first lane so `max_queue_depth()` keeps reporting it.
        self.lanes[0].max_queue_depth = depth_watermark;
        self.map = new_map;
        for entry in entries {
            let owner = self.map.shard_of(event_target(&entry.payload) as usize);
            self.lanes[owner].calendar.push(entry);
        }
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
            match kind {
                Transition::Leave | Transition::Crash => {
                    if kind == Transition::Leave {
                        lane.incs[local] = lane.incs[local].wrapping_add(1);
                    }
                    if lane.choices[local] != NO_CHOICE {
                        lane.set_commit(local, NO_CHOICE);
                    }
                    lane.back[local] = NO_CHOICE;
                    lane.pending[local] = Pending {
                        attempt: 0,
                        resolved: true,
                    };
                    if lane.boot[local] {
                        lane.boot[local] = false;
                        lane.boot_count -= 1;
                    }
                }
                Transition::Join | Transition::Rejoin => {
                    if !lane.boot[local] {
                        lane.boot[local] = true;
                        lane.boot_count += 1;
                    }
                    // The seeding loop below covers nodes present from
                    // the start; later (re)joins schedule their own
                    // boot wake here.
                    if ctx.t > 1 {
                        let at = self.async_clock + lane.rngs[local].gen_range(0..WAKE_SPREAD);
                        let inc = lane.incs[local];
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

    #[test]
    fn node_stream_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| node_stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(node_stream_seed(1, 0), node_stream_seed(2, 0));
    }

    #[test]
    fn scheduler_kind_displays() {
        assert_eq!(
            SchedulerKind::ShardedCalendar { shards: 4 }.to_string(),
            "sharded-calendar(4)"
        );
    }
}
