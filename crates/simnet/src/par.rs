//! Deterministic fork–join parallelism for embarrassingly-parallel sweeps.
//!
//! The paper's evaluation (§5) is a grid of *independent* simulation cells
//! — algorithms × loads × frequencies × skews × seeds — and every cell
//! derives all of its randomness from its own seed. That makes the sweep
//! trivially parallel *as long as the harness preserves two properties*:
//!
//! 1. **Input-order results.** [`par_map_indexed`] fans jobs over a scoped
//!    worker pool but returns results in input order, so downstream
//!    serialization is byte-identical to the serial run at any thread
//!    count.
//! 2. **No shared mutable state.** Jobs receive `&T` and produce `R`; the
//!    only coordination is an atomic job counter. Nothing about scheduling
//!    order can leak into a job's output.
//!
//! The pool is hermetic: plain `std::thread::scope` workers, no external
//! crates (the build is offline), no globals, no channels. Workers pull
//! jobs from an atomic counter, so long and short cells interleave without
//! static partitioning skew.
//!
//! Thread budget: [`thread_budget`] honours the `QA_THREADS` env var
//! (default: all available cores); a budget of `1` runs every job inline
//! on the caller thread — exactly the old serial behaviour, no threads
//! spawned.
//!
//! Panics in a job propagate to the caller when the scope joins (the
//! remaining workers finish their current job first).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses a `QA_THREADS`-style value. `None`, empty, unparsable or zero
/// fall back to `default`.
fn parse_threads(value: Option<&str>, default: usize) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => default,
    }
}

/// The number of worker threads sweeps should use: `QA_THREADS` when set
/// to a positive integer, otherwise all available cores (and 1 when even
/// that is unknown).
///
/// The core count is probed once and cached: `available_parallelism`
/// re-reads cgroup limits from the filesystem on every call (~20 µs),
/// which matters to callers on per-run construction paths. The env var is
/// still read every call so tests can vary `QA_THREADS` at runtime.
pub fn thread_budget() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    let default =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    parse_threads(std::env::var("QA_THREADS").ok().as_deref(), default)
}

/// Maps `f` over `items` on up to [`thread_budget`] worker threads,
/// returning results in input order. See [`par_map_indexed_with`].
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_with(thread_budget(), items, f)
}

/// Maps `f(index, item)` over `items` on `min(threads, items.len())`
/// scoped workers and returns the results **in input order**.
///
/// * `threads == 1` (or a single item) runs everything inline on the
///   caller thread — byte-for-byte the serial loop, no threads spawned.
/// * Workers claim jobs from a shared atomic counter, so a slow cell never
///   stalls the rest of a static chunk.
/// * A panicking job panics this call when the scope joins; the other
///   workers finish the job they already claimed and stop.
///
/// # Panics
/// Panics if `threads == 0`, or propagates the first job panic.
pub fn par_map_indexed_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    assert!(threads >= 1, "thread budget must be at least 1");
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // One slot per job; each slot is written exactly once by whichever
    // worker claimed the job. A per-slot mutex keeps this safe without
    // `unsafe`; with cell granularity of whole simulation runs the lock
    // cost is unmeasurable.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let slots_ref = &slots;
    let next_ref = &next;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots_ref[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job filled its slot")
        })
        .collect()
}

/// Runs `f(offset, chunk)` over contiguous chunks of `items`, one chunk
/// per worker, mutating in place. `offset` is the index of the chunk's
/// first element in `items`.
///
/// This is the intra-run counterpart of [`par_map_indexed_with`]: where
/// that fans out whole simulation cells, this fans the *independent
/// per-element updates inside one run* (the sharded engine stepping each
/// shard through a period). Because every element is visited exactly
/// once and elements share nothing, the result is identical at any thread
/// count — the split only decides which worker performs which update.
///
/// * `threads == 1` (or an empty/singleton slice) runs inline on the
///   caller thread: byte-for-byte the serial loop, no threads spawned.
/// * A panicking chunk panics this call when the scope joins.
///
/// # Panics
/// Panics if `threads == 0`, or propagates the first chunk panic.
pub fn par_for_each_chunk_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(threads >= 1, "thread budget must be at least 1");
    let n = items.len();
    if threads == 1 || n <= 1 {
        f(0, items);
        return;
    }
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, part) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || f(c * chunk, part));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 8, 64] {
            let out = par_map_indexed_with(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u32; 0] = [];
        let out = par_map_indexed_with(8, &items, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        // One item must not spawn workers: the job observes the caller's
        // thread id.
        let caller = std::thread::current().id();
        let out = par_map_indexed_with(8, &[7u32], |i, &x| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn thread_budget_one_is_the_serial_loop() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..16).collect();
        let out = par_map_indexed_with(1, &items, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn job_panic_propagates_to_caller() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_indexed_with(4, &items, |_, &x| {
                if x == 13 {
                    panic!("unlucky job");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn parallel_matches_serial_for_borrowing_jobs() {
        // Jobs that borrow caller state (the common sweep shape: a shared
        // &Scenario) still compile and agree with the serial run.
        let base = [10u64, 20, 30];
        let items: Vec<usize> = (0..100).collect();
        let serial = par_map_indexed_with(1, &items, |i, &x| base[x % base.len()] + i as u64);
        let parallel = par_map_indexed_with(8, &items, |i, &x| base[x % base.len()] + i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parse_threads_handles_garbage_and_zero() {
        assert_eq!(parse_threads(None, 6), 6);
        assert_eq!(parse_threads(Some(""), 6), 6);
        assert_eq!(parse_threads(Some("banana"), 6), 6);
        assert_eq!(parse_threads(Some("0"), 6), 6);
        assert_eq!(parse_threads(Some("1"), 6), 1);
        assert_eq!(parse_threads(Some(" 12 "), 6), 12);
    }

    #[test]
    fn thread_budget_is_positive() {
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn chunked_mutation_visits_every_element_once() {
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..257).collect();
            par_for_each_chunk_mut(threads, &mut items, |offset, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    assert_eq!(*x, (offset + j) as u64);
                    *x = *x * 2 + 1;
                }
            });
            let expect: Vec<u64> = (0..257).map(|x| x * 2 + 1).collect();
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunked_mutation_single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let mut items = [1u32, 2, 3];
        par_for_each_chunk_mut(1, &mut items, |_, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            chunk.iter_mut().for_each(|x| *x += 1);
        });
        assert_eq!(items, [2, 3, 4]);
    }

    #[test]
    fn chunked_mutation_empty_slice_is_a_noop() {
        let mut items: [u32; 0] = [];
        par_for_each_chunk_mut(4, &mut items, |_, _| {});
    }
}
