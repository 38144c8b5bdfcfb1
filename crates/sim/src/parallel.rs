//! Scoped parallel map and deterministic replication.
//!
//! [`parallel_map`] runs the crate's one work distribution (the
//! chunked stealing-cursor batch in `pool.rs`, shared with
//! [`WorkerPool`](crate::WorkerPool)) on a scoped thread team spawned
//! per call, so its closure may borrow from the caller's stack.

use crate::pool::Batch;
use crate::seeds::SeedTree;

/// Applies `f` to every item on a scoped thread team (one thread per
/// available core, capped by the item count; the caller is one of
/// them). Order of results matches the input order.
///
/// Work is handed out as chunks of the input claimed through a single
/// atomic cursor, so fast threads steal from slow ones; the only
/// synchronization on the hot path is one `fetch_add` plus two
/// handoff-cell locks per *chunk*, never per item.
///
/// A panic in `f` propagates to the caller, with its original
/// payload, once every thread has stopped.
///
/// # Example
///
/// ```
/// let squares = sociolearn_sim::parallel_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let batch = Batch::new(items, threads, f);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| while batch.run_next() {});
        }
        while batch.run_next() {}
    });
    batch.take_results()
}

/// Runs `reps` independent replications of `f` in parallel, passing
/// each a deterministic seed derived from `base_seed`. Results come
/// back in replication order regardless of scheduling.
///
/// # Example
///
/// ```
/// let outs = sociolearn_sim::replicate(4, 99, |seed| seed);
/// let again = sociolearn_sim::replicate(4, 99, |seed| seed);
/// assert_eq!(outs, again); // deterministic seed derivation
/// ```
pub fn replicate<R, F>(reps: u64, base_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let tree = SeedTree::new(base_seed);
    let seeds: Vec<u64> = (0..reps).map(|i| tree.child(i)).collect();
    parallel_map(seeds, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..500u32).collect(), |x| x * 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 * 2);
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn replicate_seeds_distinct_and_stable() {
        let seeds = replicate(32, 7, |s| s);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), 32);
        assert_eq!(seeds, replicate(32, 7, |s| s));
        assert_ne!(seeds, replicate(32, 8, |s| s));
    }

    #[test]
    fn order_pinned_under_contended_heterogeneous_load() {
        // Regression for the de-locked work distribution: item costs
        // span three orders of magnitude and the expensive ones are
        // front-loaded, so chunks finish far out of claim order and
        // the stealing cursor constantly rebalances. Results must
        // still come back in exact input order.
        fn cook(i: u64) -> (u64, u64) {
            let spins = if i.is_multiple_of(7) { 20_000 } else { 20 };
            let mut acc = i;
            for k in 0..spins {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            }
            (i, acc)
        }
        let n = 2_000u64;
        let out = parallel_map((0..n).collect(), cook);
        let expected: Vec<(u64, u64)> = (0..n).map(cook).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..100u32).collect::<Vec<_>>(), |x| {
                assert_ne!(x, 57, "boom");
                x
            })
        });
        let payload = caught.expect_err("a panicking worker must fail the map");
        // The closure's own payload, not the scope's generic
        // "a scoped thread panicked".
        let msg = crate::pool::tests::panic_message(payload.as_ref());
        assert!(msg.contains("boom"), "original payload: {msg}");
    }

    #[test]
    fn actually_runs_concurrently_or_at_least_correctly() {
        // Heavier closure to exercise the pool; correctness check only.
        let out = parallel_map((0..64u64).collect(), |x| {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i * x);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], 0);
    }
}
