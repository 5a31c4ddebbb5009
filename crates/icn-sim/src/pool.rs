//! The crate's one fan-out, and the only file where ICN203 allows thread
//! spawns (`clippy.toml` disallows them everywhere else in the crate).
//!
//! [`fold_by_worker`] spawns its workers once and lets each fold the
//! indices it claims from one shared counter into its own accumulator.
//! [`ordered_map`] is that fold with a list of `(index, result)` pairs
//! for an accumulator, placed back in index order at the join. Between
//! them they serve every batch caller: [`crate::run_parallel`] over whole
//! simulations, and `icn-explore` over candidate chunks (one frontier per
//! worker) and spot-check simulations. One simulation always steps on its
//! caller's thread (see [`crate::Engine`]).

#![expect(
    clippy::disallowed_methods,
    reason = "the crate's one fan-out: the scoped threads that fold_by_worker spawns"
)]

use std::ops::ControlFlow;
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

/// Fold the indices `0..n` into one accumulator per worker, on up to
/// `threads` threads (resolved by [`resolve_threads`]), and return the
/// accumulators in worker order.
///
/// `init(w)` builds worker `w`'s accumulator. Worker 0 is the caller
/// itself; the other `threads − 1` are scoped threads spawned once, for
/// the whole fold. Every worker claims indices from one shared counter,
/// in increasing order, and calls `fold(&mut accumulator, index)` on
/// each, so until a fold breaks every index below `n` is folded exactly
/// once, by whichever worker claimed it. With one thread or at most one
/// index, the fold runs inline on the caller with no spawn, into a single
/// accumulator.
///
/// A fold that returns [`ControlFlow::Break`] ends the claims: no worker
/// claims another index, and each finishes the one it is folding. A panic
/// in any fold re-raises on the caller with its original payload, once
/// every worker has stopped.
pub fn fold_by_worker<A: Send>(
    n: usize,
    threads: usize,
    init: impl Fn(usize) -> A + Sync,
    fold: impl Fn(&mut A, usize) -> ControlFlow<()> + Sync,
) -> Vec<A> {
    let threads = resolve_threads(threads).min(n).max(1);
    let next = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut accumulator = init(worker);
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return accumulator;
            }
            if fold(&mut accumulator, index).is_break() {
                // Every later claim reads an index at or past `n`.
                next.fetch_max(n, Ordering::Relaxed);
                return accumulator;
            }
        }
    };
    if threads == 1 {
        return vec![work(0)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = (1..threads)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut accumulators = vec![work(0)];
        accumulators.extend(workers.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
        }));
        accumulators
    })
}

/// Evaluate `f(0..n)` on up to `threads` threads (resolved by
/// [`resolve_threads`]) and return the results in index order.
///
/// With one thread or at most one item, `f` runs inline on the caller
/// with no spawn and no lock. Otherwise [`fold_by_worker`]'s workers
/// (the caller is one of them) claim indices from a shared counter, and
/// each keeps its results until the join places them by index — so the
/// output never depends on which thread ran an item or when it finished.
/// A panic in any item re-raises on the caller with its original payload.
pub fn ordered_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    if resolve_threads(threads).min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    let done = fold_by_worker(
        n,
        threads,
        |_| Vec::new(),
        |done, index| {
            done.push((index, f(index)));
            ControlFlow::Continue(())
        },
    );
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (index, result) in done.into_iter().flatten() {
        slots[index] = Some(result);
    }
    // Every index below `n` is folded exactly once, so no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

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
    fn fold_by_worker_folds_each_index_exactly_once() {
        let n = 1000;
        for threads in [1, 2, 4] {
            let folded = fold_by_worker(
                n,
                threads,
                |_| Vec::new(),
                |seen, index| {
                    seen.push(index);
                    ControlFlow::Continue(())
                },
            );
            let mut all: Vec<usize> = folded.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn fold_by_worker_returns_accumulators_in_worker_order() {
        let caller = std::thread::current().id();
        let workers = fold_by_worker(
            64,
            4,
            |worker| (worker, std::thread::current().id()),
            |_, _| ControlFlow::Continue(()),
        );
        let order: Vec<usize> = workers.iter().map(|&(worker, _)| worker).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        // Worker 0 is the caller; the others are threads of their own.
        assert_eq!(workers[0].1, caller);
        let mut ids: Vec<_> = workers.iter().map(|&(_, id)| format!("{id:?}")).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn fold_by_worker_with_one_thread_runs_inline() {
        let caller = std::thread::current().id();
        for (n, threads) in [(8, 1), (1, 4), (0, 4)] {
            let folded = fold_by_worker(
                n,
                threads,
                |_| Vec::new(),
                |ids, _| {
                    ids.push(std::thread::current().id());
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(folded.len(), 1, "n={n} threads={threads}");
            assert_eq!(folded[0].len(), n);
            assert!(folded[0].iter().all(|&id| id == caller));
        }
    }

    #[test]
    fn fold_by_worker_break_ends_every_workers_claims() {
        // One thread: indices are folded in order up to the break.
        let folded = fold_by_worker(
            100,
            1,
            |_| Vec::new(),
            |seen, index| {
                seen.push(index);
                if index == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(folded, [vec![0, 1, 2, 3]]);
        // Two threads: index 0 is claimed first, by either worker, and
        // its fold breaks; every other fold waits for that break, so the
        // claims end long before the last index.
        let n = 1_000_000;
        let broke = AtomicBool::new(false);
        let folded = fold_by_worker(
            n,
            2,
            |_| 0usize,
            |count, index| {
                *count += 1;
                if index == 0 {
                    broke.store(true, Ordering::Release);
                    return ControlFlow::Break(());
                }
                while !broke.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                ControlFlow::Continue(())
            },
        );
        let total: usize = folded.iter().sum();
        assert!(
            total >= 1 && total < n,
            "{total} of {n} folded after a break"
        );
    }

    #[test]
    fn fold_by_worker_panic_reraises_on_the_caller() {
        for threads in [1, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fold_by_worker(
                    8,
                    threads,
                    |_| (),
                    |(), index| {
                        assert!(index != 5, "index five failed");
                        ControlFlow::Continue(())
                    },
                )
            }))
            .expect_err("a fold panic must reach the caller");
            assert_eq!(
                panic_message(&*caught),
                Some("index five failed"),
                "threads={threads}"
            );
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
    }

    #[test]
    fn ordered_map_item_panic_reraises_on_the_caller() {
        for threads in [1, 2, 4] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ordered_map(8, threads, |i| assert!(i != 5, "item five failed"))
            }))
            .expect_err("an item panic must reach the caller");
            assert_eq!(
                panic_message(&*caught),
                Some("item five failed"),
                "threads={threads}"
            );
        }
    }
}
