//! Vendored mini-rayon: a scoped work-sharing pool with a determinism
//! contract.
//!
//! This build environment has no registry access, so the workspace carries
//! its own minimal data-parallelism layer instead of depending on `rayon`.
//! The design goals, in order:
//!
//! 1. **Determinism.** Both entry points identify work by *task index*:
//!    [`join_workers`] returns its results in task order and
//!    [`Parallelism::for_each_owned`] hands every task its index, so callers
//!    place results by index and combine them in a fixed order. The output of
//!    a parallel call is then byte-identical to its sequential counterpart
//!    for any thread count — including bitwise-identical floating point,
//!    because the per-task computation and the combination order never
//!    change. Only scheduling (which worker computes which task when) varies.
//! 2. **Safety.** The whole crate is `forbid(unsafe_code)`; work distribution
//!    uses an atomic cursor over `Mutex<Option<T>>` task slots and
//!    [`std::thread::scope`] for borrowing, never raw pointers.
//! 3. **Graceful sequential fallback.** At [`Parallelism::sequential`]
//!    (`threads == 1`), and for a single task, both entry points run a plain
//!    loop on the calling thread: no threads are spawned, no slots are
//!    allocated, and allocation-free callers stay allocation-free.
//!
//! The pool is *scoped*: worker threads live only for the duration of one
//! call (there is no global pool to configure or leak).
//!
//! Where each entry point is used in this workspace: `capprox`'s operator
//! evaluations fan per-tree tasks through [`Parallelism::for_each_owned`],
//! and `maxflow`'s `par_max_flow_batch` gives each worker of a
//! [`join_workers`] team its own scratch and a fixed stripe of blocks. The
//! CONGEST simulator has no parallel layer: its round and message counts do
//! not depend on how a round's nodes are scheduled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Compile-time `Send + Sync` assertion helper: instantiate it for a type in
/// a `const` to pin the type's thread-shareability, so a future field (a
/// `RefCell`, a raw pointer) can't silently revoke what the parallel layers
/// rely on:
///
/// ```
/// struct SharedAcrossWorkers(Vec<f64>);
/// const _: fn() = parallel::assert_send_sync::<SharedAcrossWorkers>;
/// ```
pub fn assert_send_sync<T: Send + Sync>() {}

/// Degree of parallelism for the workspace's parallel entry points.
///
/// A plain, copyable thread-count wrapper: `threads == 1` means "run
/// sequentially on the calling thread" (guaranteed no spawning), `threads > 1`
/// means "share work across this many workers, counting the calling thread".
/// The determinism contract (results byte-identical to `threads == 1`) holds
/// for every value; the thread count is a *performance* knob, never a
/// *semantics* knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Default for Parallelism {
    /// Defaults to sequential execution: parallelism is strictly opt-in so
    /// that existing single-threaded callers (and their zero-allocation
    /// guarantees) are unaffected.
    fn default() -> Self {
        Parallelism::sequential()
    }
}

impl Parallelism {
    /// Sequential execution on the calling thread (`threads == 1`).
    pub fn sequential() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// Execution on `n` workers; `n == 0` is clamped to 1 (sequential).
    pub fn with_threads(n: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// One worker per hardware thread reported by the OS
    /// ([`std::thread::available_parallelism`]), falling back to sequential
    /// when the count is unavailable.
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured worker count (including the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// `true` when the configuration runs on the calling thread only.
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }

    /// Consumes `tasks`, invoking `f(index, task)` once per task, sharing the
    /// tasks across the configured workers. Tasks are claimed dynamically (an
    /// atomic cursor), so the assignment of tasks to workers is
    /// scheduling-dependent — `f` must not rely on it. Item order as observed
    /// by any single worker is ascending in index.
    pub fn for_each_owned<T, F>(&self, tasks: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        let workers = self.threads().min(tasks.len());
        if workers <= 1 {
            for (i, t) in tasks.into_iter().enumerate() {
                f(i, t);
            }
            return;
        }
        let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let task = slot
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each slot is claimed exactly once");
            f(i, task);
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
    }
}

/// Runs one dedicated thread per task, concurrently, and returns the results
/// in task order. Unlike [`Parallelism::for_each_owned`], which lets workers
/// claim tasks as they go, every task here has a thread of its own for its
/// whole lifetime, so task `i` can own per-worker state (a scratch buffer, a
/// fixed stripe of the work) that no other task touches. A worker's panic is
/// re-raised on the caller with its original payload.
///
/// A single task runs inline on the calling thread without spawning.
pub fn join_workers<T, R, F>(tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if tasks.len() <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut rest = tasks.into_iter();
        let first = rest.next().expect("len checked above");
        let handles: Vec<_> = rest
            .enumerate()
            .map(|(offset, task)| s.spawn(move || f(offset + 1, task)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, first));
        for h in handles {
            // Propagate a worker's panic with its original payload rather
            // than a generic join error.
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_is_sequential_and_with_threads_clamps() {
        assert!(Parallelism::default().is_sequential());
        assert_eq!(Parallelism::with_threads(0).threads(), 1);
        assert_eq!(Parallelism::with_threads(4).threads(), 4);
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn for_each_owned_consumes_each_task_once() {
        let counter = AtomicU64::new(0);
        let tasks: Vec<u64> = (0..100).collect();
        Parallelism::with_threads(4).for_each_owned(tasks, |i, t| {
            assert_eq!(i as u64, t);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn join_workers_runs_all_tasks_concurrently() {
        // Tasks synchronize on a barrier: this only completes if all of them
        // run at the same time (a work-sharing pool would deadlock here).
        let barrier = std::sync::Barrier::new(4);
        let results = join_workers(vec![10, 20, 30, 40], |i, t| {
            barrier.wait();
            (i, t)
        });
        assert_eq!(results, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn join_workers_propagates_the_original_panic_payload() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            join_workers(vec![0u8, 1], |i, _| {
                if i == 1 {
                    panic!("original worker panic");
                }
            });
        }));
        let payload = caught.expect_err("worker panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("original worker panic"), "got: {message}");
    }

    #[test]
    fn sequential_paths_spawn_nothing_and_match() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        Parallelism::sequential().for_each_owned(vec![3u8, 4, 5], |i, t| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().unwrap().push((i, t));
        });
        assert_eq!(seen.into_inner().unwrap(), vec![(0, 3), (1, 4), (2, 5)]);
        let one = join_workers(vec![7u8], |i, t| {
            assert_eq!(std::thread::current().id(), caller);
            (i, t)
        });
        assert_eq!(one, vec![(0, 7)]);
    }
}
