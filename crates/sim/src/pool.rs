//! The crate's one thread-team work distribution, and the persistent
//! pool built on it.
//!
//! A `Batch` holds one batch of independent items split into chunk
//! cells, a stealing cursor that hands the chunks out, a slot for the
//! first panic payload, and the mapping closure. Any number of threads
//! may call `Batch::run_next` until it returns `false`;
//! `Batch::take_results` then resumes the first panic or returns the
//! results in input order. Two drivers run it:
//!
//! - [`parallel_map`](crate::parallel_map) spawns a scoped thread team
//!   per call, which is the right shape for one-shot experiment
//!   fan-out and lets the closure borrow from the caller's stack.
//! - [`WorkerPool`] parks a fixed team of named threads on a condvar
//!   between batches, so a batch submission costs a wakeup instead of
//!   `threads` thread spawns. That suits a hot loop that fans out
//!   thousands of times per second (the sharded calendar engine
//!   dispatches its shard lanes once per lookahead block).
//!
//! The price of persistence is `'static` bounds: jobs outlive the
//! submitting stack frame from the worker threads' point of view, so
//! items, results, and the closure must own their data (`Arc` shared
//! context is the usual pattern). Callers that need to borrow locals
//! should keep using [`parallel_map`](crate::parallel_map).
//!
//! Determinism: both drivers only change *where* each item is
//! computed, never the result — results come back in input order and
//! the closure receives owned items, so a pure closure yields
//! byte-identical output for any thread count.
//!
//! # Example
//!
//! ```
//! use sociolearn_sim::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map((0u64..100).collect(), |x| x * x);
//! assert_eq!(squares[7], 49);
//! // The same pool serves any number of batches, of any type.
//! let labels = pool.map(vec!["a", "b"], |s| s.to_uppercase());
//! assert_eq!(labels, ["A", "B"]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Work-stealing granularity: how many chunks each thread's fair
/// share is split into. Oversubscription lets the stealing cursor
/// rebalance heterogeneous item costs while keeping the number of
/// handoff cells O(threads), independent of the item count.
const CHUNKS_PER_THREAD: usize = 8;

/// A type-erased in-flight batch, as the pool's parked workers see
/// it: they claim and run chunks until the cursor is exhausted.
trait BatchRun: Send + Sync {
    /// Claims and runs one chunk; `false` when no chunks remain.
    fn run_next(&self) -> bool;
    /// Whether every claimed chunk has also finished.
    fn is_done(&self) -> bool;
}

/// One contiguous run of items, handed to whichever thread claims it.
struct ChunkCell<T, R> {
    input: Vec<T>,
    output: Vec<R>,
}

/// One batch of work: the chunk cells, the stealing cursor, the panic
/// slot, and the mapping closure.
pub(crate) struct Batch<T, R, F> {
    len: usize,
    cursor: AtomicUsize,
    /// Chunks not yet *finished* (the cursor tracks chunks *claimed*).
    remaining: AtomicUsize,
    cells: Vec<Mutex<ChunkCell<T, R>>>,
    /// First panic payload out of the closure, resumed by
    /// `take_results` once the batch settles.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    f: F,
}

impl<T, R, F> Batch<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Splits `items` into chunk cells sized for `threads` threads.
    pub(crate) fn new(items: Vec<T>, threads: usize, f: F) -> Self {
        let len = items.len();
        let chunk_len = len.div_ceil(threads * CHUNKS_PER_THREAD).max(1);
        let mut items = items.into_iter();
        let mut cells = Vec::with_capacity(len.div_ceil(chunk_len));
        loop {
            let input: Vec<T> = items.by_ref().take(chunk_len).collect();
            if input.is_empty() {
                break;
            }
            cells.push(Mutex::new(ChunkCell {
                input,
                output: Vec::new(),
            }));
        }
        Batch {
            len,
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(cells.len()),
            cells,
            panic: Mutex::new(None),
            f,
        }
    }

    /// Claims and runs one chunk; `false` when no chunks remain.
    pub(crate) fn run_next(&self) -> bool {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = self.cells.get(idx) else {
            return false;
        };
        let input = {
            let mut guard = cell.lock().expect("batch chunk poisoned");
            std::mem::take(&mut guard.input)
        };
        // The closure runs outside the cell lock so a panicking job
        // cannot poison the cell; the payload is parked and resumed
        // by `take_results` after the batch settles.
        match catch_unwind(AssertUnwindSafe(|| {
            input.into_iter().map(&self.f).collect::<Vec<R>>()
        })) {
            Ok(out) => cell.lock().expect("batch chunk poisoned").output = out,
            Err(payload) => {
                let mut slot = self.panic.lock().expect("batch panic slot poisoned");
                slot.get_or_insert(payload);
            }
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        true
    }

    /// Whether every claimed chunk has also finished.
    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Resumes the first panic out of the closure, if any; otherwise
    /// returns the results in input order. Call once every chunk has
    /// finished.
    pub(crate) fn take_results(&self) -> Vec<R> {
        if let Some(payload) = self.panic.lock().expect("batch panic slot poisoned").take() {
            resume_unwind(payload);
        }
        let mut out = Vec::with_capacity(self.len);
        for cell in &self.cells {
            out.append(&mut cell.lock().expect("batch chunk poisoned").output);
        }
        out
    }
}

impl<T, R, F> BatchRun for Batch<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    fn run_next(&self) -> bool {
        Batch::run_next(self)
    }

    fn is_done(&self) -> bool {
        Batch::is_done(self)
    }
}

/// Shared pool state: the published batch and its epoch, guarded by
/// one mutex with two condvars (work arrival, batch completion).
struct PoolState {
    batch: Option<Arc<dyn BatchRun>>,
    epoch: u64,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    batch_done: Condvar,
}

/// A fixed team of persistent worker threads executing batches of
/// independent items with a stealing cursor. See the module docs
/// above for the contrast with `parallel_map`.
///
/// `map` serializes internally: concurrent submissions from clones of
/// an `Arc<WorkerPool>` queue up rather than interleave. Jobs must
/// not submit to the same pool they run on (the pool is not
/// re-entrant); dropping the pool joins every worker.
pub struct WorkerPool {
    threads: usize,
    shared: Arc<PoolShared>,
    /// Serializes submitters: one batch in flight at a time.
    submit_lock: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let batch = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(b) = &state.batch {
                        seen_epoch = state.epoch;
                        break Arc::clone(b);
                    }
                }
                state = shared.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        while batch.run_next() {}
        // Re-acquiring the state lock before notifying pairs with the
        // submitter's check-then-wait, so the completion wakeup cannot
        // be lost. The last chunk's finisher always reaches this point
        // after its final (empty) `run_next`.
        let _state = shared.state.lock().expect("pool state poisoned");
        if batch.is_done() {
            shared.batch_done.notify_all();
        }
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total execution threads. The
    /// submitting thread participates in every batch, so `threads - 1`
    /// workers are spawned; `threads <= 1` spawns none and `map` runs
    /// inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            batch_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sociolearn-pool-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            threads,
            shared,
            submit_lock: Mutex::new(()),
            workers,
        }
    }

    /// Total execution threads (workers plus the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel across the pool, and
    /// returns the results in input order. The submitting thread
    /// works alongside the pool's threads and blocks until the batch
    /// settles.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, the first payload is resumed on the
    /// submitting thread after the rest of the batch settles; the
    /// pool itself stays usable.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        if items.len() <= 1 || self.threads <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Poison-tolerant: the guard carries no data, it only
        // serializes submitters, and an unwinding submitter (panic
        // resumed below) must not wedge the pool for later batches.
        let serial = self
            .submit_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());

        let batch = Arc::new(Batch::new(items, self.threads, f));
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.epoch += 1;
            state.batch = Some(Arc::clone(&batch) as Arc<dyn BatchRun>);
            self.shared.work_ready.notify_all();
        }
        while batch.run_next() {}
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            while !batch.is_done() {
                state = self
                    .shared
                    .batch_done
                    .wait(state)
                    .expect("pool state poisoned");
            }
            state.batch = None;
        }

        drop(serial);
        batch.take_results()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The message a panic payload carries (`panic!` with or without
    /// format arguments), or `""` for any other payload type.
    pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map((0u64..1000).collect(), |x| x * 2);
        assert_eq!(out, (0u64..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn heterogeneous_load_keeps_order() {
        let pool = WorkerPool::new(4);
        // Early items are much slower than late ones, forcing steals.
        let out = pool.map((0usize..200).collect(), |i| {
            let spin = if i < 8 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn pool_is_reusable_across_batches_and_types() {
        let pool = WorkerPool::new(3);
        for round in 0u64..20 {
            let out = pool.map((0u64..64).collect(), move |x| x + round);
            assert_eq!(out[5], 5 + round);
        }
        let strings = pool.map(vec![1, 2, 3], |x: i32| format!("#{x}"));
        assert_eq!(strings, ["#1", "#2", "#3"]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.workers.is_empty());
        assert_eq!(pool.map(vec![1, 2, 3], |x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0u32..100).collect(), |x| {
                assert!(x != 37, "boom on 37");
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("boom on 37"), "original payload: {msg}");
        // The pool keeps working after a poisoned batch.
        assert_eq!(pool.map(vec![1u32, 2], |x| x * 10), vec![10, 20]);
    }

    #[test]
    fn concurrent_submitters_serialize() {
        let pool = Arc::new(WorkerPool::new(4));
        let mut handles = Vec::new();
        for t in 0u64..4 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                p.map((0u64..256).collect(), move |x| x * (t + 1))
            }));
        }
        for (t, h) in handles.into_iter().enumerate() {
            let out = h.join().expect("submitter thread");
            assert_eq!(out[3], 3 * (t as u64 + 1));
        }
    }

    #[test]
    fn results_match_serial_for_any_thread_count() {
        let serial: Vec<u64> = (0u64..500).map(|x| x.wrapping_mul(x) ^ 0xabcd).collect();
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let out = pool.map((0u64..500).collect(), |x| x.wrapping_mul(x) ^ 0xabcd);
            assert_eq!(out, serial, "threads={threads}");
        }
    }
}
