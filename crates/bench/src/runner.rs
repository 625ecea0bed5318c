//! Parallel Monte-Carlo runner.
//!
//! Each run `r` draws its RNG from `derive_stream(seed, r)`, so the result
//! vector is a pure function of `(seed, runs)` — identical no matter how
//! many worker threads execute it.

// lint:allow-file(panic-freedom): bench plumbing; a poisoned timing mutex means a worker already panicked and the run is void

use free_gap_noise::rng::derive_stream;
use rand::rngs::StdRng;

/// Executes `runs` independent simulations of `body` in parallel and
/// returns their outputs in run order.
///
/// Work is statically chunked across threads; because run `r` always uses
/// `derive_stream(seed, r)`, the chunking (and thread count) cannot affect
/// the results. Runs are homogeneous in cost, so static chunking balances
/// well.
#[inline]
pub fn parallel_runs<T, F>(runs: usize, seed: u64, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    parallel_runs_with_state(runs, seed, || (), |r, rng, ()| body(r, rng))
}

/// [`parallel_runs`] with per-worker mutable state: `init` runs once on each
/// worker thread and the resulting state is threaded through every run that
/// worker executes.
///
/// This is the hook the batched mechanism paths need — a worker creates its
/// scratch buffers ([`free_gap_core::scratch`]) once and reuses them across
/// its whole chunk, so the Monte-Carlo loop allocates O(threads) buffers
/// instead of O(runs). Determinism: results depend only on `(seed, runs)`,
/// never on the worker count or chunking, **provided the body follows the
/// stream discipline of [`free_gap_core::scratch`]** — state carries no RNG
/// and run `r` always draws from `derive_stream(seed, r)`, but a
/// `ScratchDraws` run buffers a state-dependent amount of lookahead
/// from the stream it is given, so it must be the *last* consumer of that
/// stream (derive per-call sub-streams when one run executes several
/// mechanisms).
///
/// Results are collected per worker chunk (no `Option` placeholders, no
/// second validation pass) and concatenated in run order.
pub fn parallel_runs_with_state<T, S, I, F>(runs: usize, seed: u64, init: I, body: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut StdRng, &mut S) -> T + Sync,
{
    if runs == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = workers.min(runs);
    let chunk_size = runs.div_ceil(workers);
    // Rounding up can make the last chunk start beyond `runs` (e.g. 9 runs
    // on 8 workers → chunks of 2 cover 9 in 5 chunks); spawn only workers
    // with a non-empty range.
    let active_workers = runs.div_ceil(chunk_size);
    let (init, body) = (&init, &body);

    let chunks: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..active_workers)
            .map(|w| {
                scope.spawn(move || {
                    let start = w * chunk_size;
                    let end = ((w + 1) * chunk_size).min(runs);
                    let mut out = Vec::with_capacity(end - start);
                    let mut state = init();
                    for r in start..end {
                        let mut rng = derive_stream(seed, r as u64);
                        out.push(body(r, &mut rng, &mut state));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut results = Vec::with_capacity(runs);
    for chunk in chunks {
        results.extend(chunk);
    }
    results
}

/// Mean and standard error of a slice of observations.
#[inline]
pub fn mean_and_stderr(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_in_run_order_and_deterministic() {
        let a = parallel_runs(64, 9, |r, rng| (r, rng.gen::<u64>()));
        let b = parallel_runs(64, 9, |r, rng| (r, rng.gen::<u64>()));
        assert_eq!(a, b);
        for (i, (r, _)) in a.iter().enumerate() {
            assert_eq!(i, *r);
        }
        // Different seeds give different streams.
        let c = parallel_runs(64, 10, |r, rng| (r, rng.gen::<u64>()));
        assert_ne!(a, c);
    }

    #[test]
    fn uneven_chunking_covers_all_runs() {
        // 9 runs with ceil-division chunking used to leave a worker with an
        // empty (underflowing) range on multi-core hosts; the result must be
        // complete and ordered for every runs/worker combination. Thread
        // count is environmental, so exercise the arithmetic across a spread
        // of run counts.
        for runs in [1usize, 2, 3, 7, 9, 15, 16, 17, 63, 64, 65] {
            let out = parallel_runs(runs, 11, |r, _| r);
            assert_eq!(out, (0..runs).collect::<Vec<_>>(), "runs = {runs}");
        }
    }

    #[test]
    fn zero_runs_is_empty() {
        let out: Vec<u8> = parallel_runs(0, 1, |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn single_run_works() {
        let out = parallel_runs(1, 2, |r, _| r + 10);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn with_state_matches_stateless_and_reuses_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let stateless = parallel_runs(64, 5, |r, rng| (r, rng.gen::<u64>()));
        let stateful = parallel_runs_with_state(
            64,
            5,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::new()
            },
            |r, rng, buf| {
                buf.push(0); // state persists across a worker's runs
                (r, rng.gen::<u64>())
            },
        );
        assert_eq!(stateless, stateful);
        let workers = inits.load(Ordering::Relaxed);
        assert!(
            (1..=64).contains(&workers),
            "one init per worker, got {workers}"
        );
    }

    #[test]
    fn mean_and_stderr_basics() {
        let (m, se) = mean_and_stderr(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(se, 0.0);
        let (m, se) = mean_and_stderr(&[0.0, 2.0]);
        assert_eq!(m, 1.0);
        assert!((se - 1.0).abs() < 1e-12);
        assert_eq!(mean_and_stderr(&[]), (0.0, 0.0));
    }
}
