//! # kpa-pool — in-repo deterministic parallel slice sweeps
//!
//! The paper's global questions — the `Kᵢ` and `Prᵢ ≥ α` sweeps of
//! model checking, betting-game safety (Theorems 7–9) and asynchrony
//! cut bounds (Proposition 10) — are independent sweeps over disjoint
//! slices of a flat list: the dense point universe or an agent's class
//! list. This crate runs them through one primitive, [`par_map_chunks`],
//! built only on `std` (no external dependencies, builds `--offline`).
//!
//! ## Determinism contract
//!
//! Parallel results are **bit-identical to serial** results:
//!
//! * Slice boundaries are a fixed function of `(len, min_chunk,
//!   threads)`; scheduling only changes *which worker* runs a slice.
//! * Partials come back in slice order, and callers combine them in
//!   that order (never completion order).
//! * The workspace's reductions are exact and associative (bitset
//!   union/intersection, exact `Rat` sums, `bool` and/or, min/max), so
//!   the boundary differences between widths cannot change the result.
//!
//! `tests/parallel_differential.rs` checks the contract end to end at
//! several widths, with seeded per-slice sleeps that scramble
//! completion order.
//!
//! ## Configuration and scheduling
//!
//! The width is a [`with_threads`] override, else `KPA_THREADS` (`0` or
//! unset = auto), else [`std::thread::available_parallelism`]. At width
//! 1, or with one slice, the slices run inline on the caller: no
//! threads, no locks. Otherwise the caller and scoped workers
//! ([`std::thread::scope`], so slices borrow the caller's stack without
//! `unsafe`) claim slice indices from one shared atomic cursor until it
//! passes the last slice. Nested calls from inside a worker run
//! serially, so composed sweeps cannot oversubscribe the machine.
//!
//! ## Observability
//!
//! While `kpa-trace` is enabled the pool records `pool.tasks` (slices
//! run by parallel workers), `pool.steals` (those run away from their
//! home worker under a contiguous deal), `pool.serial_tasks` (slices
//! run inline), the `pool.chunks` / `pool.chunk_size` histograms, the
//! per-worker `pool.busy_ns` / `pool.idle_ns` histograms and a
//! `pool.chunk_ns` span per parallel slice. Workers inherit the
//! caller's ambient trace id, so their spans stitch into the caller's
//! request tree. Disabled, tracing costs one relaxed load per call or
//! worker.
//!
//! # Examples
//!
//! ```
//! use kpa_pool::{par_map_chunks, with_threads};
//!
//! // Sum of squares over fixed slices run by up to 4 workers;
//! // partials come back in slice order.
//! let partials = with_threads(4, || {
//!     par_map_chunks(1_000, 64, |r| r.map(|i| i * i).sum::<usize>())
//! });
//! let total: usize = partials.iter().sum();
//! assert_eq!(total, (0..1_000).map(|i| i * i).sum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::LocalKey;

/// Hard cap on the worker count (guards against absurd `KPA_THREADS`).
pub const MAX_THREADS: usize = 64;

/// Maximum slices per worker in [`par_map_chunks`]: enough slack for
/// the shared cursor to balance uneven slices without making the
/// per-slice overhead visible.
const CHUNKS_PER_THREAD: usize = 4;

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Whether the current thread is executing inside a pool worker
    /// (nested parallel calls then run serially).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide default worker count: `KPA_THREADS` if set to a
/// positive integer (`0` and garbage mean "auto"), else
/// [`std::thread::available_parallelism`], capped at [`MAX_THREADS`].
/// The environment is read once; [`with_threads`] varies the count.
#[must_use]
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let from_env = std::env::var("KPA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        from_env
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .min(MAX_THREADS)
    })
}

/// The worker count [`par_map_chunks`] would use right now: `1` inside
/// a pool worker, else the innermost [`with_threads`] override, else
/// [`default_threads`].
#[must_use]
pub fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    THREAD_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_threads)
}

/// Runs `f` with the pool worker count pinned to `threads` (clamped to
/// `1..=MAX_THREADS`) on this thread of control, restoring the previous
/// setting afterwards (also on panic). Overrides nest.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    with_local(&THREAD_OVERRIDE, Some(threads.clamp(1, MAX_THREADS)), f)
}

/// Splits `0..len` into `chunks` contiguous slices, maps `f` over them
/// on up to [`current_threads`] workers, and returns the partials in
/// slice order. `chunks` is `len / min_chunk` clamped to
/// `[1, threads · 4]` (none for an empty input), and slice `k` is
/// `k·len/chunks .. (k+1)·len/chunks`, so tiny inputs run inline as one
/// slice. A panic inside `f` propagates to the caller.
pub fn par_map_chunks<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let threads = current_threads();
    let chunks = (len / min_chunk.max(1)).clamp(1, threads * CHUNKS_PER_THREAD);
    // What the splitter chose — the observable input to any
    // `min_chunk` tuning. Boundaries are unaffected.
    kpa_trace::record!("pool.chunks", chunks);
    kpa_trace::record!("pool.chunk_size", len / chunks);
    let slice = |k: usize| f(k * len / chunks..(k + 1) * len / chunks);
    let workers = threads.min(chunks);
    if workers == 1 {
        // The serial fallback: no threads, no locks.
        kpa_trace::count!("pool.serial_tasks", chunks as u64);
        return (0..chunks).map(slice).collect();
    }
    let cursor = AtomicUsize::new(0);
    // Marking workers makes nested calls inside a slice run serially.
    let run = |w| {
        with_local(&IN_WORKER, true, || {
            claim_slices(w, workers, chunks, &cursor, &slice)
        })
    };
    // Spawned workers carry the caller's request id into their chunk
    // spans; the caller runs as worker 0 and keeps its own.
    let ambient = kpa_trace::enabled().then(kpa_trace::current_trace_id);
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let run = &run;
                scope.spawn(move || {
                    let _req = ambient.map(kpa_trace::ambient_guard);
                    run(w)
                })
            })
            .collect();
        let mut done = run(0);
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, partial)| partial).collect()
}

/// One worker's loop: claim the next slice index from the shared
/// cursor and run it, until the cursor passes the last slice. Returns
/// the `(index, partial)` pairs this worker produced.
fn claim_slices<T>(
    w: usize,
    workers: usize,
    chunks: usize,
    cursor: &AtomicUsize,
    slice: &impl Fn(usize) -> T,
) -> Vec<(usize, T)> {
    // Per-worker stats, accumulated locally and flushed to the trace
    // registry once at exit. The clock is only read while tracing is on.
    let trace = kpa_trace::enabled();
    let started = trace.then(std::time::Instant::now);
    let (mut stolen, mut busy_ns) = (0u64, 0u64);
    let mut done = Vec::new();
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        if k >= chunks {
            break;
        }
        let t0 = trace.then(std::time::Instant::now);
        let partial = {
            // The slice-grain record any chunk-size tuning reads.
            let _chunk = kpa_trace::span!("pool.chunk_ns");
            slice(k)
        };
        if let Some(t0) = t0 {
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
        // The home worker a contiguous deal (worker `v` owning slices
        // `v·chunks/workers .. (v+1)·chunks/workers`) gives slice `k`.
        if ((k + 1) * workers - 1) / chunks != w {
            stolen += 1;
        }
        done.push((k, partial));
    }
    if let Some(started) = started {
        kpa_trace::count!("pool.tasks", done.len() as u64);
        kpa_trace::count!("pool.steals", stolen);
        kpa_trace::record!("pool.busy_ns", busy_ns);
        let total_ns = started.elapsed().as_nanos() as u64;
        kpa_trace::record!("pool.idle_ns", total_ns.saturating_sub(busy_ns));
    }
    done
}

/// Runs `f` with the thread-local `key` set to `value`, restoring the
/// previous value afterwards (also on panic).
fn with_local<C: Copy, T>(key: &'static LocalKey<Cell<C>>, value: C, f: impl FnOnce() -> T) -> T {
    struct Restore<C: Copy + 'static>(&'static LocalKey<Cell<C>>, C);
    impl<C: Copy> Drop for Restore<C> {
        fn drop(&mut self) {
            self.0.with(|c| c.set(self.1));
        }
    }
    let _restore = Restore(key, key.with(|c| c.replace(value)));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn serial_width_runs_inline() {
        let caller = std::thread::current().id();
        let out = with_threads(1, || {
            par_map_chunks(100, 1, |r| {
                assert_eq!(std::thread::current().id(), caller);
                r.len()
            })
        });
        assert_eq!(out, vec![25; 4]);
    }

    #[test]
    fn par_map_chunks_covers_the_range_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for len in [0usize, 1, 7, 64, 1000] {
                let chunks = with_threads(threads, || {
                    par_map_chunks(len, 8, |r| r.collect::<Vec<usize>>())
                });
                let flat: Vec<usize> = chunks.into_iter().flatten().collect();
                assert_eq!(
                    flat,
                    (0..len).collect::<Vec<_>>(),
                    "threads={threads} len={len}"
                );
            }
        }
    }

    #[test]
    fn chunk_boundaries_are_fixed_and_ordered() {
        // Non-commutative reduction (concatenation) must equal serial.
        let serial: String = (0..257).map(|i| format!("{i},")).collect();
        let parallel: String = with_threads(4, || {
            par_map_chunks(257, 16, |r| r.map(|i| format!("{i},")).collect::<String>())
        })
        .concat();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn completion_order_cannot_reach_the_result() {
        for threads in [2, 3, 4, 7] {
            // One index per slice, as many slices as the width allows.
            let chunks = threads * CHUNKS_PER_THREAD;
            let serial: String = (0..chunks).map(|i| format!("{i},")).collect();
            let parallel = with_threads(threads, || {
                par_map_chunks(chunks, 1, |r| {
                    // Slice k sleeps (chunks − k)·200 µs, so later
                    // slices finish first.
                    let wait = 200 * (chunks - r.start) as u64;
                    std::thread::sleep(Duration::from_micros(wait));
                    r.map(|i| format!("{i},")).collect::<String>()
                })
            })
            .concat();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_parallel_calls_run_serially() {
        let inner = with_threads(4, || {
            par_map_chunks(8, 1, |_| {
                // Inside a worker the ambient width must be serial.
                assert_eq!(current_threads(), 1);
                par_map_chunks(100, 1, |r| r.len()).len()
            })
        });
        // A serial nested call makes at most 1·4 slices.
        assert!(inner.iter().all(|&n| n == 4), "{inner:?}");
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = current_threads();
        let inner = with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, current_threads)
        });
        assert_eq!(inner, 2);
        assert_eq!(current_threads(), ambient);
        // Zero is clamped to one, and widths above the cap to the cap.
        assert_eq!(with_threads(0, current_threads), 1);
        assert_eq!(with_threads(MAX_THREADS + 9, current_threads), MAX_THREADS);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(with_threads(4, || par_map_chunks(0, 8, |r| r.len())).is_empty());
    }

    #[test]
    fn chunk_count_respects_bounds() {
        let count = |threads, len, min_chunk| {
            with_threads(threads, || par_map_chunks(len, min_chunk, |r| r.len())).len()
        };
        assert_eq!(count(4, 7, 8), 1); // below min_chunk: one slice
        assert_eq!(count(4, 1_000_000, 1), 16); // capped at 4/worker
        assert_eq!(count(4, 100, 8), 12);
        // min_chunk of zero is treated as one.
        assert_eq!(count(4, 3, 0), 3);
    }

    #[test]
    fn slice_panics_propagate() {
        for threads in [1, 4] {
            let result = std::panic::catch_unwind(|| {
                with_threads(threads, || {
                    par_map_chunks(64, 1, |r| {
                        assert!(!r.contains(&13), "injected failure");
                        r.len()
                    })
                })
            });
            assert!(result.is_err(), "threads={threads}: panic must propagate");
        }
    }
}
