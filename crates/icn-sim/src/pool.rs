//! The crate's one fan-out, and the only file where ICN203 allows thread
//! spawns and locks.
//!
//! [`ordered_map`] evaluates `f(0..n)` across scoped threads and returns
//! the results in index order. It serves every batch caller:
//! [`crate::run_parallel`] over whole simulations and `icn-explore` over
//! candidate chunks. One simulation always steps on its caller's thread
//! (see [`crate::Engine`]).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a thread budget: `0` means one thread per available core,
/// anything else is taken literally (minimum 1).
#[must_use]
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

/// Evaluate `f(0..n)` on up to `threads` threads (resolved by
/// [`resolve_threads`]) and return the results in index order.
///
/// With one thread or at most one item, `f` runs inline on the caller
/// with no spawn and no lock. Otherwise scoped threads (the caller is one
/// of them) claim indices from a shared counter, and each keeps its
/// results until the join places them by index — so the output never
/// depends on which thread ran an item or when it finished. A panic in
/// any item re-raises on the caller with its original payload.
pub fn ordered_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return done;
            }
            done.push((index, f(index)));
        }
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim)).collect();
        let mine = claim();
        let theirs = workers.into_iter().flat_map(|worker| {
            worker
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
        });
        for (index, result) in mine.into_iter().chain(theirs) {
            slots[index] = Some(result);
        }
    });
    // The counter hands out every index below `n` exactly once and every
    // claimed result is placed before the scope ends, so no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn ordered_map_keeps_index_order_when_later_items_finish_first() {
        // Item 0 cannot finish until every other item has, so with two
        // threads the results arrive in reverse of index order.
        let n = 16;
        let finished = AtomicUsize::new(0);
        let out = ordered_map(n, 2, |i| {
            if i == 0 {
                while finished.load(Ordering::Acquire) < n - 1 {
                    std::thread::yield_now();
                }
            }
            finished.fetch_add(1, Ordering::AcqRel);
            i * 10
        });
        assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_map_of_nothing_is_empty() {
        for threads in [0, 1, 4] {
            assert!(ordered_map(0, threads, |i| i).is_empty());
        }
    }

    #[test]
    fn ordered_map_with_more_threads_than_items() {
        assert_eq!(ordered_map(3, 16, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn ordered_map_with_one_thread_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let ids = ordered_map(8, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn ordered_map_item_panic_reraises_on_the_caller() {
        for threads in [1, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_map(8, threads, |i| assert!(i != 5, "item five failed"))
            }))
            .expect_err("an item panic must reach the caller");
            let message = caught
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| caught.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("item five failed"), "threads={threads}");
        }
    }
}
