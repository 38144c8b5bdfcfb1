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
//! is a linear walk of one bucket. A slot holds one virtual time at a
//! time, so it stores that time once and each of its items only
//! `(src, seq, payload)`: 24 bytes for the engine's events, against the
//! 32 of a full [`Entry`]. On top of the calendar, the fleet
//! is **sharded** by striping: node `i` lives in shard `i % shards`.
//! Each shard owns the per-node state of its stripe, receives every
//! event targeted at one of its nodes, and advances its own local
//! event stream one time window at a time, handing cross-shard
//! messages to per-shard-pair mailboxes that change hands at window
//! boundaries: each outbox trades places with its destination's
//! inbox, and the receiving shard files that mail into its own
//! calendar when it runs its next window. Shards run on a persistent
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
//! mailboxes change hands once at the block barrier — a buffer swap
//! per non-empty mailbox, so the driver thread moves no entries; each
//! lane files its inbound mail at the start of its next block, on
//! whichever thread runs it. What makes that
//! sound is a *message due-time adjustment*: a message sent at `now`
//! with latency `l` is due at `max(now + l, block_end(now))` plus the
//! fixed `DELIVER_DELAY` — never inside the sender's current block.
//! The adjustment applies to every message, same-shard or
//! cross-shard, so it is a property of the *trajectory*, not of the
//! partition: for a fixed K the results stay byte-identical across
//! shard counts and thread counts. At the default `K = 1`,
//! `block_end(now) = now + 1 <= now + l`, so the adjustment is the
//! identity and existing seeds replay bit-for-bit. A lane computes its
//! window's block end once, when it opens the window, and `msg_at`
//! reads it from the lane, so no message divides by K.
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
//! A one-lane engine has no barrier: no other lane sends it mail, so
//! it runs each tick as one block. Its windows still run in time order
//! and `msg_at` still defers every message to its K-block end, so its
//! trajectory is the one K-window blocks give at any lane count, even
//! where a tick ends inside a block.
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
//!   sequence number)` key. Within a window, a shard handles its due
//!   events target by target in ascending node order: each target's
//!   timers (`Wake`, `Timeout`) by `seq`, then its mail
//!   (`QueryArrive`, `ReplyArrive`) by `(src, seq)`. Each target's
//!   order is thus fixed by the intrinsic keys alone, no matter which
//!   mailbox an event travelled through or how many shards exist, and
//!   a node handles its own timers before the mail that reached it in
//!   the same window. An event touches only its target's state and
//!   schedules nothing into the current window, so the order *across*
//!   targets does not matter; ascending order just sweeps the lane's
//!   per-node table front to back, since a lane's rows hold its nodes
//!   in ascending order.
//! * Randomness comes from **per-node RNG streams** split from the
//!   root seed (one `SmallRng` per node, seeded via a SplitMix64
//!   derivation). A node draws only from its own stream, so regrouping
//!   nodes into different shard counts cannot reorder anyone's draws.
//! * Every event the protocol schedules has a strictly positive
//!   delay, and under lookahead K every *message* is additionally
//!   deferred to the sender's block boundary. The one event a lane
//!   schedules for another node that is not a message — the timeout a
//!   responder that sends no reply schedules for its querier — is due
//!   [`RETRY_TIMEOUT`] after the query was sent, past the responder's
//!   block. So nothing produced inside a K-window block can be due in
//!   another lane in that same block — mail handed over at the
//!   barrier and filed when the next block starts always arrives in
//!   time, and shards never need to peek at each other mid-block.
//!   Each mailbox carries its earliest due time across the barrier,
//!   so the engine schedules the next block exactly without scanning
//!   the mail.
//!
//! Together these give the invariant the proptest suite pins down:
//! for a fixed seed, ticks produce **byte-identical metrics and
//! distributions for any shard count**, and the law of the process
//! matches the finite-population dynamics (KS-tested in
//! `tests/equivalence.rs`).
//!
//! # Membership churn
//!
//! Scripted joins, leaves, and rejoins (the [`FaultPlan`] membership
//! builders) land at tick boundaries: a departing node's commitment
//! and pending attempt are wiped; a (re)joining node enters
//! bootstrapping and re-learns a commitment through the ordinary
//! query/reply protocol — no state transfer, no new message types.
//! The partition never changes. Every bulk builder scripts a
//! contiguous id range (a rolling restart batch, a flash crowd's last
//! ids, a lost region), and striping spreads any contiguous range over
//! the lanes within one node of evenly, so churn cannot leave one lane
//! much heavier than the rest, and the barrier, which waits for the
//! heaviest lane, stays cheap without moving any node. Peers are
//! chosen uniformly at random, so every partition carries the same
//! share of cross-lane mail; balance is all a partition decides.
//!
//! [`FaultPlan`]: crate::FaultPlan
//!
//! # Per-node state
//!
//! Everything a node carries — commitment and one-slot history,
//! local epoch, pending attempt, RNG stream, sequence and incarnation
//! counters — is one row of a struct-of-arrays table, `Nodes`, of
//! fixed width: a message is handled the moment it is due, so no
//! node keeps a mailbox. Each lane builds its own table when the
//! engine is built, node `i` at row `i / shards`, and keeps it for the
//! engine's life. Routing an event to its lane and row takes two
//! multiplications by a reciprocal of the lane count that [`ShardMap`]
//! computes once, not a division, and a message's due time reads the
//! window's block end from the lane, so scheduling an event divides by
//! nothing. Apart from that block end, nothing is cached per lane: the
//! option histogram and the bootstrapping gauge are counted from the
//! tables once per tick. What a node has in flight costs 24 bytes per
//! event in a calendar slot and 32 in a mailbox; a handler stores
//! those bytes straight from registers, since the routing path is
//! forced inline (see `ShardLane::route`).

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
use crate::shell::{stage_one, RoundShell, Sample};
use crate::{MembershipTracker, NodeState, RoundMetrics, Transition, MAX_QUERY_RETRIES, NO_CHOICE};

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

/// Most items a recycled bucket keeps as capacity: 6 KiB per slot for
/// the engine's 24-byte slot items, so at most 0.75 MiB of idle
/// capacity per [`RING_SLOTS`]-slot ring.
///
/// Windows of up to this many items stay allocation-free. Larger ones
/// regrow their slot: a lane of an 8-shard fleet at N = 1e5 takes
/// windows of about 740 items, so its slot grows from 256 to 1,024
/// items, two regrowths per window. Measured on perfbench, 2-core
/// host, when a bucket held 40-byte entries:
///
/// * Without the bound, taking a window hands every slot the previous
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
// A responder that sends no reply schedules the querier's timeout when
// the query arrives. That timeout must fall past the responder's
// current lookahead block, so the block barrier delivers it to the
// querier's lane in time.
const _: () = assert!(RETRY_TIMEOUT >= MAX_MESSAGE_LATENCY + DELIVER_DELAY + MAX_LOOKAHEAD);
// A query and a timeout carry their attempt, and a query its timeout's
// wait, as `u8`s...
const _: () = assert!(MAX_QUERY_RETRIES as u64 <= u8::MAX as u64);
const _: () = assert!(RETRY_TIMEOUT <= u8::MAX as u64);
// ...so the event stays 16 bytes, an entry in a mailbox 32, and an item
// in a calendar slot, which leaves its time to the slot, 24.
const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(std::mem::size_of::<Entry<Event>>() == 32);
const _: () = assert!(std::mem::size_of::<Item<Event>>() == 24);

/// The absolute-time end of the lookahead block containing `now`:
/// the next multiple of `lookahead` strictly after `now`.
#[inline]
fn block_end_of(now: u64, lookahead: u64) -> u64 {
    (now / lookahead + 1) * lookahead
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
    /// default). Node `i` lives in shard `i % shards`. `shards` is
    /// clamped to the fleet size; randomness is split into per-node
    /// streams, so results are byte-identical across shard counts.
    ShardedCalendar {
        /// Number of shards (at least 1), each holding every
        /// `shards`-th node.
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

/// An [`Entry`] as a [`Calendar`] slot stores it: without its `at`,
/// which the slot keeps once for all of its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Item<E> {
    pub(crate) src: u32,
    pub(crate) seq: u32,
    pub(crate) payload: E,
}

impl<E> Item<E> {
    /// The packed `(src, seq)` tie-break key: within one time slot,
    /// items pop in ascending order of this key.
    fn order_key(&self) -> u64 {
        (u64::from(self.src) << 32) | u64::from(self.seq)
    }

    /// The entry this item stands for in a slot of time `at`.
    fn at(self, at: u64) -> Entry<E> {
        Entry {
            at,
            src: self.src,
            seq: self.seq,
            payload: self.payload,
        }
    }
}

/// One ring slot of a [`Calendar`]: the items due at one virtual time.
#[derive(Debug, Clone)]
struct Slot<E> {
    /// The virtual time of `items`; left over from an earlier rotation
    /// while `items` is empty.
    at: u64,
    items: Vec<Item<E>>,
}

/// A fixed-ring calendar queue: `O(1)` amortized enqueue, bucket-walk
/// dequeue, deterministic `(time, src, seq)` pop order.
///
/// Each ring slot stores its virtual time once, next to its items, so
/// an item carries only `(src, seq, payload)`;
/// [`take_due`](Calendar::take_due) hands the items back as full
/// [`Entry`]s.
///
/// A window's vector handed back through [`recycle`](Calendar::recycle)
/// becomes the storage of the next window `take_due` returns, and a
/// slot's own storage that of the next slot a window empties; each is
/// shrunk to a capacity of at most 256 items first. Windows of up to
/// 256 items allocate nothing; a larger window regrows its slot as its
/// items arrive. So an empty slot never holds more than 256 items of
/// capacity, however large an earlier window was.
///
/// The caller must keep every pending entry within one ring rotation
/// ([`RING_SLOTS`] virtual-time units) of the earliest pending entry —
/// the event runtime guarantees this by construction (all protocol
/// delays are shorter than the ring), and `push` checks it.
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
    /// `RING_SLOTS` slots indexed by `time % RING_SLOTS`; each holds
    /// items for exactly one virtual time at any moment.
    slots: Vec<Slot<E>>,
    /// Recycled slot storage, at most [`SPARE_CAPACITY`] items wide,
    /// handed to the next slot a window empties.
    spare: Vec<Item<E>>,
    /// Recycled [`take_due`](Calendar::take_due) storage, at most
    /// [`SPARE_CAPACITY`] entries wide.
    spare_due: Vec<Entry<E>>,
    /// Total pending items.
    len: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

/// Keeps `drained`'s storage as `spare` when it is larger, after
/// shrinking it to at most [`SPARE_CAPACITY`] elements, so one large
/// window cannot leave a window-sized buffer circulating through every
/// ring slot.
fn keep_spare<T>(spare: &mut Vec<T>, mut drained: Vec<T>) {
    drained.clear();
    drained.shrink_to(SPARE_CAPACITY);
    if drained.capacity() > spare.capacity() {
        *spare = drained;
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            slots: (0..RING_SLOTS)
                .map(|_| Slot {
                    at: 0,
                    items: Vec::new(),
                })
                .collect(),
            spare: Vec::new(),
            spare_due: Vec::new(),
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

    /// The slot of virtual time `at`.
    fn slot(&self, at: u64) -> &Slot<E> {
        &self.slots[(at as usize) & (RING_SLOTS - 1)]
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
    /// guard, one comparison against the slot's time, stays on in
    /// release builds.
    //
    // Forced inline so the engine's handlers store an entry straight
    // from registers: out of line, the caller spills it field by field
    // and this reloads it in wider words that cannot be forwarded from
    // those stores, a stall on every scheduled event (see
    // `ShardLane::route`).
    #[inline(always)]
    pub fn push(&mut self, entry: Entry<E>) {
        let Entry {
            at,
            src,
            seq,
            payload,
        } = entry;
        let index = (at as usize) & (RING_SLOTS - 1);
        let slot = &mut self.slots[index];
        assert!(
            slot.items.is_empty() || slot.at == at,
            "calendar ring collision: slot {index} holds t={} but got t={at}",
            slot.at,
        );
        slot.at = at;
        slot.items.push(Item { src, seq, payload });
        self.len += 1;
    }

    /// Entries due exactly at `now`, without removing them.
    pub fn due_len(&self, now: u64) -> usize {
        let slot = self.slot(now);
        if slot.at == now {
            slot.items.len()
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
        let mut items = self.take_window(now);
        if items.is_empty() {
            return Vec::new();
        }
        items.sort_unstable_by_key(Item::order_key);
        let mut due = std::mem::take(&mut self.spare_due);
        due.extend(items.drain(..).map(|item| item.at(now)));
        self.recycle_window(items);
        due
    }

    /// The items due at `now` in push order, for a caller that imposes
    /// its own order; empty when nothing is due. Hand the vector back
    /// through [`recycle_window`](Calendar::recycle_window).
    pub(crate) fn take_window(&mut self, now: u64) -> Vec<Item<E>> {
        let slot = &mut self.slots[(now as usize) & (RING_SLOTS - 1)];
        if slot.items.is_empty() || slot.at != now {
            return Vec::new();
        }
        let due = std::mem::replace(&mut slot.items, std::mem::take(&mut self.spare));
        self.len -= due.len();
        due
    }

    /// Returns a drained vector from [`take_due`](Calendar::take_due)
    /// so a later `take_due` reuses its storage. The vector is cleared
    /// and shrunk to a capacity of at most 256 entries first.
    pub fn recycle(&mut self, due: Vec<Entry<E>>) {
        keep_spare(&mut self.spare_due, due);
    }

    /// [`recycle`](Calendar::recycle) for a vector from
    /// [`take_window`](Calendar::take_window): it becomes the storage
    /// of the next slot a window empties.
    pub(crate) fn recycle_window(&mut self, window: Vec<Item<E>>) {
        keep_spare(&mut self.spare, window);
    }

    /// Every pending entry, in no particular order.
    #[cfg(test)]
    fn entries(&self) -> impl Iterator<Item = Entry<E>> + '_
    where
        E: Copy,
    {
        self.slots
            .iter()
            .flat_map(|slot| slot.items.iter().map(|item| item.at(slot.at)))
    }

    /// The earliest pending virtual time at or after `from`, scanning
    /// at most one ring rotation. `None` when the calendar is empty.
    pub fn next_time(&self, from: u64) -> Option<u64> {
        self.next_time_before(from, u64::MAX)
    }

    /// [`next_time`](Calendar::next_time) restricted to times before
    /// `until`: the scan stops there, so a caller that only wants a time
    /// earlier than one it already holds peeks at no slot past it.
    pub(crate) fn next_time_before(&self, from: u64, until: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for offset in 0..until.saturating_sub(from).min(RING_SLOTS as u64) {
            let t = from + offset;
            let slot = self.slot(t);
            if !slot.items.is_empty() {
                debug_assert_eq!(slot.at, t, "pending entry outside the ring window");
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

/// The leading part of an event's handling order in its lane, `row <<
/// 1 | is_mail`: its target's row in the lane's table, then whether it
/// is mail from another node rather than a timer (`Wake`, `Timeout`)
/// the target set for itself.
fn row_then_mail(ev: &Event, map: ShardMap) -> u64 {
    let (node, mail) = match *ev {
        Event::Wake { node, .. } | Event::Timeout { node, .. } => (node, 0),
        Event::QueryArrive { to: node, .. } | Event::ReplyArrive { node, .. } => (node, 1),
    };
    (map.row_of(node) as u64) << 1 | mail
}

/// The low half of an [`order_window`] word: the item's index in its
/// window.
const INDEX_MASK: u64 = (1 << 32) - 1;

/// The buffers [`order_window`] fills, reused from window to window.
#[derive(Debug, Clone, Default)]
struct WindowOrder {
    /// The window in handling order, one `key << 32 | index` word per
    /// item: its [`row_then_mail`] key and its index in the window.
    order: Vec<u64>,
    /// Each item's word, in window order.
    words: Vec<u64>,
    /// Bucket offsets of the counting scatter.
    starts: Vec<usize>,
}

/// Writes `window` — the items due at one virtual time in a lane of
/// `map` holding `rows` nodes — to `buf.order` in handling order, as
/// `key << 32 | index` words that point into the window: targets
/// ascending; within a target, its timers by `seq` (a timer's `src` is
/// its target), then its mail by `(src, seq)`.
///
/// Each target sees its own events in the order a timers-then-mail,
/// `(src, seq)`-ordered sweep of the window gives it, which is all
/// the trajectory depends on: a handler touches only its target's
/// state and schedules nothing into the current window. Sweeping
/// targets in ascending order walks the lane's [`Nodes`] columns front
/// to back.
///
/// One counting scatter on the high bits of the target's row, into
/// about one bucket per item and never more than one per node, then
/// one insertion pass over 8-byte words. Buckets are in target order,
/// so the pass only sorts within a bucket; a bucket holds about one
/// item, and a target only a few per window. Only words with equal
/// keys look at their items, for the `(src, seq)` tie-break. Each
/// item's key is computed once, since matching on the event kind is
/// the costly part of a key.
fn order_window(window: &[Item<Event>], map: ShardMap, rows: usize, buf: &mut WindowOrder) {
    let WindowOrder {
        order,
        words,
        starts,
    } = buf;
    order.clear();
    if window.is_empty() {
        return;
    }
    // A key, `row << 1 | is_mail`, and an index share one word.
    assert!(
        rows <= 1 << 31 && window.len() as u64 <= INDEX_MASK + 1,
        "a window of {} items over {rows} rows overflows its order words",
        window.len(),
    );
    let row_bits = rows.next_power_of_two().trailing_zeros();
    let bucket_bits = window
        .len()
        .next_power_of_two()
        .trailing_zeros()
        .min(row_bits);
    // Above the index, a word's low bit is `is_mail`; the bits above
    // that are the row.
    let shift = 32 + row_bits - bucket_bits + 1;
    words.clear();
    words.extend(
        window
            .iter()
            .enumerate()
            .map(|(i, e)| row_then_mail(&e.payload, map) << 32 | i as u64),
    );
    starts.clear();
    starts.resize((1 << bucket_bits) + 1, 0);
    for &w in words.iter() {
        starts[(w >> shift) as usize + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    order.resize(window.len(), 0);
    for &w in words.iter() {
        let slot = &mut starts[(w >> shift) as usize];
        order[*slot] = w;
        *slot += 1;
    }
    let tie_key = |w: u64| window[(w & INDEX_MASK) as usize].order_key();
    let after = |a: u64, b: u64| {
        let (ka, kb) = (a >> 32, b >> 32);
        ka > kb || (ka == kb && tie_key(a) > tie_key(b))
    };
    for i in 1..order.len() {
        let w = order[i];
        let mut j = i;
        while j > 0 && after(order[j - 1], w) {
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = w;
    }
}

/// The node→lane partition: node `i` lives in lane `i % lanes`, at
/// row `i / lanes` of that lane's [`Nodes`]. Fixed for the engine's
/// life.
///
/// Striping keeps the lanes' loads even without moving anything: every
/// churn pattern the [`FaultPlan`](crate::FaultPlan) bulk builders
/// script covers a contiguous id range, and any contiguous range puts
/// the same number of nodes, within one, in every lane. Peers are
/// chosen uniformly, so no partition carries less cross-lane mail
/// than another.
///
/// Every event is routed by its target's lane and handled at its row,
/// so the map divides by the lane count several times per event. It
/// does so without a division instruction: Lemire, Kaser and Kurz's
/// direct remainder and quotient ("Faster Remainder by Direct
/// Computation", 2019) multiply by `ceil(2^64 / lanes)` and are exact
/// for every `u32` node id and lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardMap {
    lanes: u32,
    /// `ceil(2^64 / lanes)`; 0 for one lane, whose map is the identity.
    recip: u64,
}

impl ShardMap {
    /// The partition of `n` nodes into `shards` lanes, clamped to
    /// `1..=n`.
    pub(crate) fn new(n: usize, shards: usize) -> Self {
        let lanes = index_u32(shards.clamp(1, n));
        let recip = if lanes == 1 {
            0
        } else {
            u64::MAX / u64::from(lanes) + 1
        };
        ShardMap { lanes, recip }
    }

    /// Number of lanes.
    pub(crate) fn lanes(self) -> usize {
        self.lanes as usize
    }

    /// The lane holding `node`: `node % lanes`.
    #[inline]
    fn lane_of(self, node: u32) -> usize {
        if self.lanes == 1 {
            return 0;
        }
        // The fraction `node / lanes - row` in 64 bits, scaled by the
        // lane count.
        let fraction = self.recip.wrapping_mul(u64::from(node));
        ((u128::from(fraction) * u128::from(self.lanes)) >> 64) as usize
    }

    /// `node`'s row in its lane's table: `node / lanes`.
    #[inline]
    fn row_of(self, node: u32) -> usize {
        if self.lanes == 1 {
            return node as usize;
        }
        ((u128::from(self.recip) * u128::from(node)) >> 64) as usize
    }

    /// The node at `row` of `lane`'s table.
    #[inline]
    fn node_at(self, lane: usize, row: usize) -> u32 {
        index_u32(row) * self.lanes + index_u32(lane)
    }

    /// Appends each lane's count of `present` nodes to `out`, in lane
    /// order.
    pub(crate) fn write_loads(self, present: &[bool], out: &mut Vec<usize>) {
        let start = out.len();
        out.resize(start + self.lanes(), 0);
        for (node, &p) in present.iter().enumerate() {
            out[start + self.lane_of(index_u32(node))] += usize::from(p);
        }
    }
}

/// Execution-tuning knobs the [`EventRuntime`](crate::EventRuntime)
/// hands the engine when it builds it: none of them changes results,
/// only where and in how large blocks the work runs (`lookahead`
/// changes the trajectory — deliberately — but never varies with
/// `threads` or `parallel_threshold`).
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

/// A lane's per-node state table: one `Vec` per field, all of the same
/// length, indexed by the node's row ([`ShardMap::row_of`]).
/// Struct-of-arrays because a lane's sweeps touch a few fields of many
/// nodes; one struct per node was measured slower on the churning
/// async fleet.
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
}

/// One shard: the [`Nodes`] of its stripe of the fleet, its calendar,
/// and one outbound and one inbound mailbox per peer shard.
#[derive(Debug, Clone)]
struct ShardLane {
    index: usize,
    /// The partition, to map node ids to rows and back.
    map: ShardMap,
    /// Per-node state, indexed by row.
    nodes: Nodes,
    calendar: Calendar<Event>,
    /// Per-destination-shard mail sent during the current block, as
    /// full entries: mail of many due times shares a box, and filing
    /// it needs each one's time. The block barrier swaps each non-empty
    /// one with the destination's drained inbox.
    outboxes: Vec<Vec<Entry<Event>>>,
    /// The earliest `at` in each outbox; `u64::MAX` when it is empty.
    outbox_at: Vec<u64>,
    /// Per-source-shard mail handed over at the last barrier, filed
    /// into the calendar when this lane runs its next block.
    inboxes: Vec<Vec<Entry<Event>>>,
    /// The earliest `at` in any inbox; `u64::MAX` when all are empty.
    inbox_at: u64,
    /// The current window in handling order.
    order: WindowOrder,
    /// The unclipped end of the lookahead block holding the window
    /// being handled, which [`msg_at`](ShardLane::msg_at) defers every
    /// message to: set once per window, so no message divides by K.
    /// 0, never a block end, between windows.
    window_block_end: u64,
    /// This tick's counter contributions (summed across lanes).
    rm: RoundMetrics,
}

impl ShardLane {
    /// Lane `index` of `map` holding `nodes`, with an empty calendar
    /// and empty mailboxes.
    fn new(index: usize, map: ShardMap, nodes: Nodes) -> Self {
        let lanes = map.lanes();
        ShardLane {
            index,
            map,
            nodes,
            calendar: Calendar::new(),
            outboxes: (0..lanes).map(|_| Vec::new()).collect(),
            outbox_at: vec![u64::MAX; lanes],
            inboxes: (0..lanes).map(|_| Vec::new()).collect(),
            inbox_at: u64::MAX,
            order: WindowOrder::default(),
            window_block_end: 0,
            rm: RoundMetrics::default(),
        }
    }

    /// The node at `row` of this lane's table.
    fn node(&self, row: usize) -> u32 {
        self.map.node_at(self.index, row)
    }

    /// Tags and routes an event produced by global node `src`: its own
    /// calendar when the target is local, the matching mailbox when it
    /// is not.
    ///
    /// Forced inline, like [`route`](ShardLane::route) and
    /// [`Calendar::push`], for the reason `route` gives.
    #[inline(always)]
    fn push_from(&mut self, src: u32, at: u64, ev: Event) {
        let seq = self.next_seq(src);
        self.route(Entry {
            at,
            src,
            seq,
            payload: ev,
        });
    }

    /// Takes the next sequence number of local node `src`.
    fn next_seq(&mut self, src: u32) -> u32 {
        let local = self.map.row_of(src);
        let seq = self.nodes.seqs[local];
        self.nodes.seqs[local] = seq.wrapping_add(1);
        seq
    }

    /// Routes an already tagged entry: to this lane's calendar when
    /// its target is local, else to the matching outbox, whose earliest
    /// due time it keeps.
    ///
    /// Forced inline, with [`push_from`](ShardLane::push_from) and
    /// [`Calendar::push`], so an entry goes from the handler's registers
    /// straight into its slot or outbox. Out of line, the handler
    /// writes the entry to the stack field by field (a tag byte, `u32`s,
    /// `u8`s) and the callee reloads it with 8- and 16-byte loads, which
    /// the CPU cannot forward from the narrower pending stores: every
    /// scheduled event stalls on its own stores. In a sampling profile
    /// that reload was the hottest instruction of both the churning
    /// 1e5-node fleet and a 256-node one-lane fleet, at about 8% of
    /// samples each. A plain `#[inline]` hint left `route` out of line
    /// and the stall in place.
    #[inline(always)]
    fn route(&mut self, entry: Entry<Event>) {
        let shard = self.map.lane_of(event_target(&entry.payload));
        if shard == self.index {
            self.calendar.push(entry);
        } else {
            self.outbox_at[shard] = self.outbox_at[shard].min(entry.at);
            self.outboxes[shard].push(entry);
        }
    }

    /// Files the mail the last barrier handed over into this lane's
    /// calendar. `start` is the first time the lane runs next: no
    /// message is due before it, since the barrier that delivered the
    /// mail closed the block it was sent in.
    fn take_inbound(&mut self, start: u64) {
        if self.inbox_at == u64::MAX {
            return;
        }
        let mut earliest = u64::MAX;
        for inbox in &mut self.inboxes {
            for entry in inbox.drain(..) {
                debug_assert!(entry.at >= start, "mail due before the block that files it");
                earliest = earliest.min(entry.at);
                self.calendar.push(entry);
            }
        }
        debug_assert_eq!(earliest, self.inbox_at, "inbox_at is not the earliest mail");
        self.inbox_at = u64::MAX;
    }

    /// Pending entries in the calendar and both mailbox sets.
    fn pending(&self) -> usize {
        let mail = |boxes: &[Vec<Entry<Event>>]| boxes.iter().map(Vec::len).sum::<usize>();
        self.calendar.len() + mail(&self.outboxes) + mail(&self.inboxes)
    }

    /// The time a message sent at `now` with `latency` is handled at
    /// its receiver: its link arrival, deferred to the end of the
    /// sender's lookahead block (the identity when `lookahead == 1`,
    /// since `latency >= 1`), plus [`DELIVER_DELAY`].
    /// Partition-independent — it applies whether or not the message
    /// crosses shards — which is what keeps trajectories byte-identical
    /// across shard counts. Only a handler sends messages, so `now` is
    /// the window being handled and the block end is the lane's.
    #[inline]
    fn msg_at(&self, now: u64, latency: u64, ctx: &Ctx) -> u64 {
        debug_assert_eq!(
            self.window_block_end,
            block_end_of(now, ctx.lookahead),
            "message sent outside the window being handled"
        );
        (now + latency).max(self.window_block_end) + DELIVER_DELAY
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
        let node = self.node(local);
        let inc = self.nodes.incs[local];
        self.push_from(node, at, Event::Wake { node, inc });
    }

    /// Runs [`stage_one`] for a node at query `attempt`: decides on an
    /// explored or fallback option at once, or sends the query to the
    /// drawn peer. `attempt == 1` is the stage-1 entry point.
    fn start_attempt(&mut self, local: usize, attempt: u32, now: u64, ctx: &Ctx) {
        let node = self.node(local);
        let (rng, rm) = (&mut self.nodes.rngs[local], &mut self.rm);
        let peer = match stage_one(rng, &ctx.params, ctx.n, node as usize, attempt, rm) {
            Sample::Consider(option) => return self.decide(local, option, now, ctx),
            Sample::Ask(peer) => peer,
        };
        self.nodes.pending[local].attempt = attempt;
        let attempt = u8::try_from(attempt).expect("MAX_QUERY_RETRIES fits in a u8");
        // Query and timeout carry the local epoch that issues them: an
        // async calendar is never cleared, so a timeout abandoned by an
        // earlier epoch may surface later, and the responder measures
        // staleness against the querier's epoch. Quiesced epochs never
        // advance `epochs`, so there the tag is a constant.
        let epoch = self.nodes.epochs[local] + 1;
        // The retry clock starts now, reply or no reply. Its timeout
        // takes its sequence number now, but is scheduled only by
        // whichever side first learns that no reply is coming: here,
        // if the link drops the query; else the responder, if it sends
        // no reply. An answered query's timeout would find its
        // querier resolved, so it is never scheduled.
        let timeout = Entry {
            at: now + RETRY_TIMEOUT,
            src: node,
            seq: self.next_seq(node),
            payload: Event::Timeout {
                node,
                attempt,
                epoch,
            },
        };
        if self.link_drops(local, ctx) {
            self.route(timeout);
            return;
        }
        let latency = self.latency(local);
        let at = self.msg_at(now, latency, ctx);
        let query = Event::QueryArrive {
            to: index_u32(peer),
            epoch,
            attempt,
            wait: u8::try_from(timeout.at - at).expect("RETRY_TIMEOUT fits in a u8"),
        };
        self.push_from(node, at, query);
    }

    /// Answers `from`'s query, tagged with the querier's local
    /// `epoch`, at a local node. Returns whether a reply was sent.
    fn answer(&mut self, local: usize, from: u32, epoch: u64, now: u64, ctx: &Ctx) -> bool {
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
                    return false;
                }
                option
            }
        };
        // A node that sat that epoch out has nothing to report and
        // stays silent; the querier's timeout drives the retry.
        if option == NO_CHOICE || self.link_drops(local, ctx) {
            return false;
        }
        let latency = self.latency(local);
        let at = self.msg_at(now, latency, ctx);
        let node = self.node(local);
        self.push_from(node, at, Event::ReplyArrive { node: from, option });
        true
    }

    /// Resets the lane for a fresh quiesced epoch and wakes its
    /// present nodes at per-node jittered times. A node that just
    /// (re)joined has `back == NO_CHOICE` (absent epochs write
    /// NO_CHOICE) and bootstraps through the ordinary query path.
    fn begin_epoch(&mut self, ctx: &Ctx) {
        std::mem::swap(&mut self.nodes.choices, &mut self.nodes.back);
        debug_assert_eq!(self.pending(), 0, "previous epoch left events");
        for local in 0..self.nodes.len() {
            self.nodes.choices[local] = NO_CHOICE;
            if !ctx.present[self.node(local) as usize] {
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
            let node = self.node(local);
            if ctx.present[node as usize] {
                let at = self.nodes.rngs[local].gen_range(0..WAKE_SPREAD);
                let inc = self.nodes.incs[local];
                self.push_from(node, at, Event::Wake { node, inc });
            }
        }
    }

    /// Handles one due event. An absent (crashed or departed) node
    /// takes part in nothing: messages addressed to it are swallowed
    /// — the querier's timeout drives the retry — and its own
    /// wake-ups and timeouts lapse. Quiesced membership changes only
    /// at epoch boundaries, so there the checks only ever swallow
    /// queries to absent peers.
    fn handle(&mut self, item: Item<Event>, now: u64, ctx: &Ctx) {
        let present = |node: u32| !ctx.has_faults || ctx.present[node as usize];
        match item.payload {
            Event::Wake { node, inc } => {
                let local = self.map.row_of(node);
                // The incarnation tag kills wake-ups scheduled before
                // a leave: they are the only events whose horizon
                // outlives a one-round absence.
                if present(node) && inc == self.nodes.incs[local] {
                    self.nodes.pending[local] = Pending::default();
                    self.nodes.last_wake[local] = now;
                    self.start_attempt(local, 1, now, ctx);
                }
            }
            Event::QueryArrive {
                to,
                epoch,
                attempt,
                wait,
            } => {
                // A node sends only its own queries.
                let from = item.src;
                let replied =
                    present(to) && self.answer(self.map.row_of(to), from, epoch, now, ctx);
                if !replied {
                    // No reply is coming: schedule the querier's
                    // timeout, the entry it would have pushed at send
                    // time. `RETRY_TIMEOUT` puts it past this lookahead
                    // block, so the barrier delivers a cross-lane one
                    // in time.
                    self.route(Entry {
                        at: now + u64::from(wait),
                        src: from,
                        seq: item.seq.wrapping_sub(1),
                        payload: Event::Timeout {
                            node: from,
                            attempt,
                            epoch,
                        },
                    });
                }
            }
            Event::ReplyArrive { node, option } => {
                let local = self.map.row_of(node);
                let resolved = self.nodes.pending[local].resolved;
                // A reply always lands before its attempt's timeout,
                // and nothing else resolves a node with a query out —
                // which is why an answered query needs no timeout.
                debug_assert!(!present(node) || !resolved, "reply to a resolved node");
                if present(node) && !resolved {
                    self.rm.replies_received += 1;
                    self.decide(local, option, now, ctx);
                }
            }
            Event::Timeout {
                node,
                attempt,
                epoch,
            } => {
                let local = self.map.row_of(node);
                let p = self.nodes.pending[local];
                // The epoch tag rejects timeouts abandoned by an
                // earlier local epoch.
                if present(node)
                    && !p.resolved
                    && p.attempt == u32::from(attempt)
                    && self.nodes.epochs[local] + 1 == epoch
                {
                    self.start_attempt(local, p.attempt + 1, now, ctx);
                }
            }
        }
    }

    /// Processes every event due at `now` in the handling order of
    /// [`order_window`]: target by target, each target's timers
    /// (`Wake`, `Timeout`) by `seq`, then its mail (`QueryArrive`,
    /// `ReplyArrive`) by `(src, seq)`. So a node settles its own
    /// timers — a retry, a fallback decision, the start of an epoch —
    /// before it answers or consumes the mail due in the same window,
    /// whatever the senders' ids.
    fn run_window(&mut self, now: u64, ctx: &Ctx) {
        let window = self.calendar.take_window(now);
        let mut buf = std::mem::take(&mut self.order);
        order_window(&window, self.map, self.nodes.len(), &mut buf);
        self.window_block_end = block_end_of(now, ctx.lookahead);
        for &w in &buf.order {
            self.handle(window[(w & INDEX_MASK) as usize], now, ctx);
        }
        self.window_block_end = 0;
        self.calendar.recycle_window(window);
        self.order = buf;
    }

    /// Files the mail handed over at the last barrier, then processes
    /// every window in `[start, block_end)` this lane has events for,
    /// touching nothing outside the lane — the unit of work a worker
    /// thread executes between barriers. Sound because the `msg_at`
    /// deferral guarantees no event another lane produces inside the
    /// block is due before `block_end`. The lane's own events are
    /// filed straight into its calendar, so the time-ordered walk finds
    /// those due inside the block: that is how a one-lane engine runs
    /// a whole tick as one block.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Ctx) {
        self.take_inbound(start);
        let mut cursor = start;
        while let Some(w) = self.calendar.next_time_before(cursor, block_end) {
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
    /// The striped node→lane partition.
    map: ShardMap,
    lanes: Vec<ShardLane>,
    /// Virtual time already consumed by async ticks.
    async_clock: u64,
    /// The execution knobs, with `threads` resolved: never 0, and 1
    /// for a one-lane engine, which never fans out.
    tuning: ExecTuning,
    /// Persistent worker threads for dense blocks, created lazily at
    /// first fan-out (an `Arc` so a cloned engine — the twin-runtime
    /// test pattern — shares rather than respawns; the pool
    /// serializes submissions internally).
    pool: Option<Arc<WorkerPool>>,
}

impl ShardedEngine {
    /// Builds the engine for `shell`'s fleet: exactly `min(shards, n)`
    /// lanes, node `i` in lane `i % lanes` holding its
    /// [`start_choice`](RoundShell::start_choice), with one RNG stream
    /// per node split from `seed`. The auto thread count is resolved
    /// here, once: `available_parallelism` is an OS query.
    pub(crate) fn new(shell: &RoundShell, seed: u64, shards: usize, tuning: &ExecTuning) -> Self {
        let n = shell.cfg.num_nodes();
        let map = ShardMap::new(n, shards);
        let lanes = (0..map.lanes())
            .map(|index| {
                let ids = (index..n).step_by(map.lanes());
                let rows = ids.len();
                let nodes = Nodes {
                    choices: ids.clone().map(|i| shell.start_choice(i)).collect(),
                    back: vec![NO_CHOICE; rows],
                    epochs: vec![0; rows],
                    last_wake: vec![0; rows],
                    pending: vec![Pending::default(); rows],
                    rngs: ids
                        .map(|i| SmallRng::seed_from_u64(node_stream_seed(seed, i)))
                        .collect(),
                    seqs: vec![0; rows],
                    incs: vec![0; rows],
                    boot: vec![false; rows],
                };
                ShardLane::new(index, map, nodes)
            })
            .collect();
        let threads = if map.lanes() > 1 {
            effective_threads(tuning.threads)
        } else {
            1
        };
        ShardedEngine {
            map,
            lanes,
            async_clock: 0,
            tuning: ExecTuning { threads, ..*tuning },
            pool: None,
        }
    }

    /// `node`'s completed local epoch counter.
    pub(crate) fn epoch_of(&self, node: usize) -> u64 {
        let node = index_u32(node);
        self.lanes[self.map.lane_of(node)].nodes.epochs[self.map.row_of(node)]
    }

    /// Max-minus-min completed local epoch over present nodes.
    pub(crate) fn epoch_spread(&self, members: &MembershipTracker) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for lane in &self.lanes {
            for (local, &e) in lane.nodes.epochs.iter().enumerate() {
                if members.is_present(lane.node(local) as usize) {
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
        // `NO_CHOICE` lands in a spill bin past the last option, so each
        // node costs one increment and no branch: about half of a
        // churning async fleet sits uncommitted at any moment, so a
        // branch on it would be a coin flip.
        let m = out.len();
        let mut bins = vec![0u64; m + 1];
        for lane in &self.lanes {
            for &c in &lane.nodes.choices {
                bins[(c as usize).min(m)] += 1;
            }
        }
        out.copy_from_slice(&bins[..m]);
    }

    /// The earliest pending virtual time at or after `from`, across
    /// all lanes' calendars and inboxes. Each calendar is scanned only
    /// up to the earliest time found so far.
    fn next_window(&self, from: u64) -> Option<u64> {
        let mut next = u64::MAX;
        for lane in &self.lanes {
            debug_assert!(lane.inbox_at >= from, "mail pending before the cursor");
            next = next.min(lane.inbox_at);
            if let Some(t) = lane.calendar.next_time_before(from, next) {
                next = t;
            }
        }
        (next != u64::MAX).then_some(next)
    }

    /// Runs one K-window lookahead block `[start, block_end)` on every
    /// lane — on the persistent worker pool when dense, in-thread when
    /// sparse (identical results either way) — then hands the
    /// cross-shard mail over at the barrier: each non-empty outbox
    /// trades places with its destination's inbox, which that lane
    /// drained when it ran this block, so the barrier moves buffers,
    /// not entries. Each lane files its own inbound mail at the start
    /// of its next block, on whichever thread runs it.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Arc<Ctx>) {
        // One lane sends no cross-lane mail and never fans out, so its
        // block needs neither the estimate nor the barrier: the block
        // may be a whole tick, up to `u64::MAX` for a quiesced one, and
        // no per-slot walk may span it.
        if let [lane] = &mut self.lanes[..] {
            lane.run_block(start, block_end, ctx);
            return;
        }
        // The fan-out estimate counts calendars only: counting whole
        // inboxes as due would fan out blocks whose mail is mostly due
        // later, which costs small K = 1 fleets more than it saves.
        let due: usize = self.lanes.iter().map(|l| l.due_in(start, block_end)).sum();
        let threads = self.tuning.threads;
        if threads > 1 && due >= self.tuning.parallel_threshold {
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
        // Block barrier: hand cross-shard mail over. Filing order does
        // not matter — `run_window` re-derives the handling order from
        // the intrinsic keys — and the earliest due time travels with
        // the buffer, so the schedule stays exact without a scan.
        for src in 0..self.lanes.len() {
            for dst in 0..self.lanes.len() {
                if src == dst || self.lanes[src].outboxes[dst].is_empty() {
                    continue;
                }
                let mail = std::mem::take(&mut self.lanes[src].outboxes[dst]);
                let at = std::mem::replace(&mut self.lanes[src].outbox_at[dst], u64::MAX);
                let to = &mut self.lanes[dst];
                debug_assert!(to.inboxes[src].is_empty(), "barrier found undrained mail");
                to.inbox_at = to.inbox_at.min(at);
                let drained = std::mem::replace(&mut to.inboxes[src], mail);
                self.lanes[src].outboxes[dst] = drained;
            }
        }
    }

    /// Adds the lanes' per-tick counters to `rm`.
    fn collect_rm(&self, rm: &mut RoundMetrics) {
        for lane in &self.lanes {
            rm.committed += lane.rm.committed;
            rm.queries_sent += lane.rm.queries_sent;
            rm.replies_received += lane.rm.replies_received;
            rm.fallbacks += lane.rm.fallbacks;
            rm.explorations += lane.rm.explorations;
            rm.stale_replies += lane.rm.stale_replies;
        }
    }

    /// One tick under `mode`, the round `rm` was opened for by `shell`:
    /// a full epoch run to quiescence, or one async epoch-period window
    /// of virtual time. Adds the tick's protocol counters to `rm`, and
    /// in async mode replaces its barriered bootstrapping gauge with
    /// the nodes still bootstrapping.
    pub(crate) fn tick(
        &mut self,
        mode: Mode,
        shell: &RoundShell,
        rewards: &[bool],
        rm: &mut RoundMetrics,
    ) {
        let members = &shell.members;
        let ctx = Arc::new(Ctx {
            params: *shell.cfg.params(),
            mode,
            n: shell.cfg.num_nodes(),
            drop_prob: shell.cfg.faults().drop_prob(),
            has_faults: members.any_scheduled(),
            t: rm.round,
            rewards: rewards.to_vec(),
            lookahead: self.tuning.lookahead,
            present: Arc::clone(members.present()),
        });
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
            // tick's metrics window. One lane has no barrier to hold,
            // so its block is the rest of the tick (see "Lookahead" in
            // the module docs).
            let block_end = if self.lanes.len() == 1 {
                end
            } else {
                block_end_of(w, self.tuning.lookahead).min(end)
            };
            self.run_block(w, block_end, &ctx);
            cursor = block_end;
        }
        self.collect_rm(rm);
        match mode {
            // With the quiescence barrier, every (re)join bootstraps
            // and resolves within this very epoch: the shell's gauge
            // stands.
            Mode::Quiesced => debug_assert!(
                self.lanes
                    .iter()
                    .all(|lane| lane.nodes.pending.iter().all(|p| p.resolved)),
                "epoch ended with unresolved nodes"
            ),
            Mode::Async(_) => {
                self.async_clock = end;
                rm.bootstrapping = self
                    .lanes
                    .iter()
                    .map(|l| l.nodes.boot.iter().filter(|&&b| b).count() as u64)
                    .sum();
            }
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
            let lane = &mut self.lanes[self.map.lane_of(node)];
            let local = self.map.row_of(node);
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
                        lane.push_from(node, at, Event::Wake { node, inc });
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
    use crate::DistConfig;

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
        assert_eq!(due, [entry(3, 9, 1)]);
        cal.recycle(due);
        assert_eq!(cal.next_time(4), Some(5));
        let due = cal.take_due(5);
        let keys: Vec<(u32, u32)> = due.iter().map(|e| (e.src, e.seq)).collect();
        assert_eq!(keys, vec![(1, 7), (2, 0), (2, 1)]);
        assert!(due.iter().all(|e| e.at == 5), "{due:?}");
        assert!(due.iter().all(|e| e.payload == e.src * 1000 + e.seq));
        assert!(cal.is_empty());
    }

    /// The one-rotation contract is checked, in release builds too: an
    /// entry whose slot still holds another time panics instead of
    /// joining that time's window.
    #[test]
    #[should_panic(expected = "calendar ring collision")]
    fn calendar_push_one_rotation_ahead_collides() {
        let mut cal = Calendar::new();
        cal.push(entry(9, 0, 0));
        cal.push(entry(9 + RING_SLOTS as u64, 0, 1));
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
    fn recycled_buckets_keep_bounded_capacity() {
        // Item storage in the slots and their spare; the recycled
        // `take_due` storage is bounded on its own.
        let capacity = |cal: &Calendar<u32>| {
            assert!(cal.spare_due.capacity() <= SPARE_CAPACITY);
            cal.slots.iter().map(|s| s.items.capacity()).sum::<usize>() + cal.spare.capacity()
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
        let engine = two_node_engine(1);
        let ctx = hand_ctx(
            Mode::Async(crate::StalenessBound::Epochs(0)),
            0.0,
            vec![true; 2],
        );
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
            attempt: u8::try_from(MAX_QUERY_RETRIES).unwrap(),
            epoch: 5,
        };
        // From node 0, the entry's `src`.
        let query = Event::QueryArrive {
            to: 1,
            epoch: 6,
            attempt: 1,
            wait: 10,
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

    /// A two-node fleet on `shards` shards and one thread, ready to
    /// drive by hand.
    fn two_node_engine(shards: usize) -> ShardedEngine {
        let shell = RoundShell::new(DistConfig::new(Params::new(2, 0.65).unwrap(), 2));
        let tuning = ExecTuning {
            threads: 1,
            ..ExecTuning::default()
        };
        ShardedEngine::new(&shell, 7, shards, &tuning)
    }

    /// A tick context for driving a lane by hand.
    fn hand_ctx(mode: Mode, drop_prob: f64, present: Vec<bool>) -> Ctx {
        let params = Params::new(2, 0.65).unwrap();
        Ctx {
            params,
            mode,
            n: present.len(),
            drop_prob,
            has_faults: present.contains(&false),
            t: 1,
            lookahead: 1,
            rewards: vec![true, false],
            present: Arc::new(present),
        }
    }

    /// Every `Timeout` pending in `lanes`' calendars and mailboxes.
    fn pending_timeouts(lanes: &[ShardLane]) -> Vec<Entry<Event>> {
        lanes
            .iter()
            .flat_map(|lane| {
                lane.calendar
                    .entries()
                    .chain(lane.outboxes.iter().flatten().copied())
                    .chain(lane.inboxes.iter().flatten().copied())
            })
            .filter(|e| matches!(e.payload, Event::Timeout { .. }))
            .collect()
    }

    /// How a query fares in [`only_unanswered_queries_schedule_a_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Answered,
        QueryDropped,
        ResponderAbsent,
        NoChoice,
        Stale,
        ReplyDropped,
    }

    /// Node 0, on lane 0, queries node 1, on lane 1. An answered query
    /// leaves no timeout anywhere. Every other fate leaves exactly the
    /// timeout a querier that scheduled it at send time would have: in
    /// the querier's own calendar when the link drops the query, else
    /// in the responder's mailbox to the querier's lane.
    #[test]
    fn only_unanswered_queries_schedule_a_timeout() {
        use Fate::*;
        for fate in [
            Answered,
            QueryDropped,
            ResponderAbsent,
            NoChoice,
            Stale,
            ReplyDropped,
        ] {
            let engine = two_node_engine(2);
            let mode = if fate == Stale {
                Mode::Async(crate::StalenessBound::Epochs(0))
            } else {
                Mode::Quiesced
            };
            let drop_prob = if matches!(fate, QueryDropped | ReplyDropped) {
                1.0
            } else {
                0.0
            };
            let ctx = hand_ctx(mode, drop_prob, vec![true, fate != ResponderAbsent]);
            let mut lanes = engine.lanes;
            assert_eq!(lanes.len(), 2);
            // The query carries epoch 6. Quiesced, the responder serves
            // `back`; async, it serves `choices`, with 2 epochs of
            // staleness when it stands at epoch 3.
            lanes[0].nodes.epochs[0] = 5;
            lanes[1].nodes.epochs[0] = if fate == Stale { 3 } else { 5 };
            lanes[1].nodes.choices[0] = 1;
            lanes[1].nodes.back[0] = if fate == NoChoice { NO_CHOICE } else { 1 };
            let (now, attempt) = (10, 2u8);
            let seq = lanes[0].nodes.seqs[0];
            let at_send = Entry {
                at: now + RETRY_TIMEOUT,
                src: 0,
                seq,
                payload: Event::Timeout {
                    node: 0,
                    attempt,
                    epoch: 6,
                },
            };
            if fate == ReplyDropped {
                // Total loss would drop the query too: hand over the
                // query the querier, node 0, sends on a clean link.
                let at = now + 4;
                lanes[1].calendar.push(Entry {
                    at,
                    src: 0,
                    seq: seq + 1,
                    payload: Event::QueryArrive {
                        to: 1,
                        epoch: 6,
                        attempt: 2,
                        wait: 15,
                    },
                });
            } else {
                // Sent from inside the window at `now`, as `run_window`
                // opens it.
                lanes[0].window_block_end = block_end_of(now, ctx.lookahead);
                lanes[0].start_attempt(0, u32::from(attempt), now, &ctx);
                for entry in std::mem::take(&mut lanes[0].outboxes[1]) {
                    lanes[1].calendar.push(entry);
                }
            }
            lanes[1].run_block(now, now + RETRY_TIMEOUT, &ctx);
            let replies = lanes[1].outboxes[0]
                .iter()
                .filter(|e| matches!(e.payload, Event::ReplyArrive { node: 0, .. }))
                .count();
            let timeouts = pending_timeouts(&lanes);
            if fate == Answered {
                assert_eq!(replies, 1);
                assert!(timeouts.is_empty(), "{timeouts:?}");
                continue;
            }
            assert_eq!(replies, 0, "{fate:?}");
            assert_eq!(timeouts, [at_send], "{fate:?}");
            let routed = if fate == QueryDropped {
                lanes[0].calendar.entries().next()
            } else {
                lanes[1].outboxes[0].first().copied()
            };
            assert_eq!(routed, Some(at_send), "{fate:?}");
        }
    }

    /// Node 0, on lane 0, times out and re-queries node 1, on lane 1.
    /// After that block's barrier the query, waiting in lane 1's inbox,
    /// is the only pending event: the schedule must find it there and
    /// run the next block exactly at its due time, and the reply must
    /// come back through lane 0's inbox the same way.
    #[test]
    fn mail_waiting_only_in_an_inbox_is_run_on_time() {
        let mut engine = two_node_engine(2);
        let ctx = Arc::new(hand_ctx(Mode::Quiesced, 0.0, vec![true; 2]));
        engine.lanes[1].nodes.back[0] = 1;
        engine.lanes[0].nodes.pending[0] = Pending {
            attempt: 1,
            resolved: false,
        };
        engine.lanes[0].nodes.seqs[0] = 1;
        let timeout = Event::Timeout {
            node: 0,
            attempt: 1,
            epoch: 1,
        };
        engine.lanes[0].calendar.push(Entry {
            at: 10,
            src: 0,
            seq: 0,
            payload: timeout,
        });

        // Drives block by block, as `tick` does at K = 1, and returns
        // the block that ran and the mail its barrier handed over.
        let step = |engine: &mut ShardedEngine, from: u64| {
            let w = engine.next_window(from).expect("an event is pending");
            engine.run_block(w, w + 1, &ctx);
            let mail: Vec<_> = engine
                .lanes
                .iter()
                .flat_map(|l| l.inboxes.iter().flatten())
                .copied()
                .collect();
            assert!(engine.lanes.iter().all(|l| l.calendar.is_empty()));
            (w, mail)
        };

        let (w, mail) = step(&mut engine, 0);
        assert_eq!(w, 10);
        let [query] = mail[..] else {
            panic!("want one query in flight, got {mail:?}")
        };
        assert!(matches!(query.payload, Event::QueryArrive { to: 1, .. }));
        assert!(query.at > w + 1);
        assert_eq!(engine.lanes[1].inbox_at, query.at);
        assert_eq!(engine.lanes[0].inbox_at, u64::MAX);

        let (w, mail) = step(&mut engine, w + 1);
        assert_eq!(w, query.at);
        let [reply] = mail[..] else {
            panic!("want one reply in flight, got {mail:?}")
        };
        assert_eq!(reply.payload, Event::ReplyArrive { node: 0, option: 1 });
        assert_eq!(engine.lanes[0].inbox_at, reply.at);

        let (w, mail) = step(&mut engine, w + 1);
        assert_eq!(w, reply.at);
        assert!(mail.is_empty());
        assert_eq!(engine.lanes[0].rm.replies_received, 1);
        assert!(engine.lanes[0].nodes.pending[0].resolved);
        assert_eq!(engine.next_window(w + 1), None);
    }

    fn is_mail(e: &Item<Event>) -> bool {
        matches!(
            e.payload,
            Event::QueryArrive { .. } | Event::ReplyArrive { .. }
        )
    }

    /// The explicit handling key `(target, is_mail, src, seq)`.
    fn reference_key(e: &Item<Event>) -> (u32, bool, u32, u32) {
        (event_target(&e.payload), is_mail(e), e.src, e.seq)
    }

    /// `len` random window items targeting rows `0..rows` of `lane`
    /// (all row 0 when `one_target`): timers from their target, mail
    /// from anywhere in the fleet, keys `(src, seq)` unique.
    fn random_window(
        rng: &mut SplitMix64,
        len: usize,
        map: ShardMap,
        lane: usize,
        rows: usize,
        one_target: bool,
    ) -> Vec<Item<Event>> {
        let fleet = (map.lanes() * rows) as u64;
        (0..len)
            .map(|i| {
                let row = if one_target {
                    0
                } else {
                    (rng.next_u64() % rows as u64) as usize
                };
                let node = map.node_at(lane, row);
                let sender = (rng.next_u64() % fleet) as u32;
                let (src, payload) = match rng.next_u64() % 4 {
                    0 => (node, Event::Wake { node, inc: 0 }),
                    1 => (
                        node,
                        Event::Timeout {
                            node,
                            attempt: 1,
                            epoch: 1,
                        },
                    ),
                    2 => (
                        sender,
                        Event::QueryArrive {
                            to: node,
                            epoch: 1,
                            attempt: 1,
                            wait: 10,
                        },
                    ),
                    _ => (sender, Event::ReplyArrive { node, option: 0 }),
                };
                // Random high bits, unique low bits.
                let seq = (rng.next_u64() as u32 & !0xFFFF) | i as u32;
                Item { src, seq, payload }
            })
            .collect()
    }

    #[test]
    fn order_window_matches_the_reference_orders() {
        let mut rng = SplitMix64::new(23);
        let mut buf = WindowOrder::default();
        // (window length, lanes, lane, rows, one target)
        let shapes = [
            (0, 1, 0, 16, false),
            (1, 1, 0, 16, false),
            (1, 41, 40, 1, false),
            (25, 1, 0, 1, false),
            (60, 4, 3, 40, true),
            (30, 5, 1, 200, false),
            (900, 8, 3, 12_500, false),
            (2_000, 1, 0, 500, false),
            (2_000, 3, 2, 500, false),
            (40, 7, 6, 100_000, false),
        ];
        for (len, lanes, lane, rows, one_target) in shapes {
            let map = ShardMap::new(lanes * rows, lanes);
            assert_eq!(map.lanes(), lanes);
            for _ in 0..10 {
                let window = random_window(&mut rng, len, map, lane, rows, one_target);
                order_window(&window, map, rows, &mut buf);
                // Every word keys the item it points at.
                for &w in &buf.order {
                    let item = &window[(w & INDEX_MASK) as usize];
                    assert_eq!(w >> 32, row_then_mail(&item.payload, map));
                }
                let out: Vec<_> = buf
                    .order
                    .iter()
                    .map(|&w| window[(w & INDEX_MASK) as usize])
                    .collect();
                let mut want = window.clone();
                want.sort_by_key(reference_key);
                let shape = format!("len {len}, lane {lane} of {lanes}, rows {rows}");
                assert_eq!(out, want, "{shape}");
                // Per target, the order of a timers-then-mail sweep of
                // the window in `(src, seq)` order.
                let mut by_key = window.clone();
                by_key.sort_by_key(|e| (e.src, e.seq));
                let sweep: Vec<_> = [false, true]
                    .into_iter()
                    .flat_map(|mail| by_key.iter().filter(move |e| is_mail(e) == mail))
                    .collect();
                let mut targets: Vec<u32> =
                    window.iter().map(|e| event_target(&e.payload)).collect();
                targets.sort_unstable();
                targets.dedup();
                for target in targets {
                    let of = |e: &&Item<Event>| event_target(&e.payload) == target;
                    assert!(
                        out.iter().filter(of).eq(sweep.iter().copied().filter(of)),
                        "target {target}, {shape}"
                    );
                }
            }
        }
    }

    /// Striping puts node `i` at row `i / lanes` of lane `i % lanes`,
    /// and spreads any contiguous id range over the lanes within one
    /// node of evenly. The reciprocal maps agree with `%` and `/` at
    /// the edges of every lane count up to 64 and on random ids.
    #[test]
    fn striping_maps_nodes_to_rows_and_balances_ranges() {
        let map = ShardMap::new(100, 8);
        for node in 0..100u32 {
            let (lane, row) = (map.lane_of(node), map.row_of(node));
            assert_eq!(map.node_at(lane, row), node);
            assert_eq!(lane, node as usize % 8);
        }
        let mut rng = SplitMix64::new(64);
        for lanes in 1..=64u32 {
            let map = ShardMap::new(u32::MAX as usize, lanes as usize);
            assert_eq!(map.lanes(), lanes as usize);
            let edges = [0, 1, lanes - 1, lanes, lanes + 1, u32::MAX - 1, u32::MAX];
            let random = (0..1_000).map(|_| rng.next_u64() as u32);
            for node in edges.into_iter().chain(random) {
                let (lane, row) = (map.lane_of(node), map.row_of(node));
                assert_eq!(lane, (node % lanes) as usize, "{node} % {lanes}");
                assert_eq!(row, (node / lanes) as usize, "{node} / {lanes}");
                assert_eq!(map.node_at(lane, row), node, "{node} on {lanes} lanes");
            }
        }
        assert_eq!(ShardMap::new(3, 16).lanes(), 3, "clamped to the fleet");
        assert_eq!(ShardMap::new(3, 0).lanes(), 1, "at least one lane");
        for (lo, hi) in [(0, 100), (3, 4), (17, 60), (90, 100)] {
            let present: Vec<bool> = (0..100).map(|i| (lo..hi).contains(&i)).collect();
            let mut loads = vec![7];
            map.write_loads(&present, &mut loads);
            assert_eq!(loads.remove(0), 7, "appended after what `out` held");
            assert_eq!(loads.iter().sum::<usize>(), hi - lo);
            let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
            assert!(spread <= 1, "{lo}..{hi}: {loads:?}");
        }
    }

    #[test]
    fn scheduler_kind_displays() {
        assert_eq!(
            SchedulerKind::ShardedCalendar { shards: 4 }.to_string(),
            "sharded-calendar(4)"
        );
    }
}
