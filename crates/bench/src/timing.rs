//! Minimal timing harness for the `[[bench]]` targets.
//!
//! The build is hermetic (no external benchmark framework), so the
//! benches are plain `main()` binaries timed with [`std::time`]. Each
//! measurement runs one warm-up pass and reports the best of `reps`
//! timed passes — the usual "minimum is the least noisy estimator of
//! the true cost" convention.

use std::time::{Duration, Instant};

/// Number of timed repetitions: quick by default, longer sweeps under
/// `--features bench`.
#[must_use]
pub fn default_reps() -> u32 {
    if cfg!(feature = "bench") {
        10
    } else {
        3
    }
}

/// Times `f` (best of `reps` passes after one warm-up), prints a row
/// `label  best-time`, and returns the best duration.
pub fn bench_time<T>(label: &str, reps: u32, mut f: impl FnMut() -> T) -> Duration {
    bench_time_with(label, reps, || (), |()| f())
}

/// As [`bench_time`], but every pass (the warm-up included) first
/// builds a fresh input with `setup` outside the timed window, and
/// drops the input and the result outside it too: for rows that must
/// start cold, such as a query against a fresh `ModelArtifact`, whose
/// set-up is not what the row measures.
pub fn bench_time_with<S, T>(
    label: &str,
    reps: u32,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&S) -> T,
) -> Duration {
    std::hint::black_box(f(&setup()));
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let input = setup();
        let t0 = Instant::now();
        let out = std::hint::black_box(f(&input));
        best = best.min(t0.elapsed());
        drop(out);
    }
    println!("{label:<48} {best:>12.2?}");
    best
}
