//! Stand-alone timings of single layers, each calling one public function
//! of a crate in a loop: the fast generator and the tape of
//! `free-gap-noise`, the per-mechanism calls of `free-gap-core`, and the
//! ledger and session of `free-gap-serve`.

use crate::mc::{EPSILON, K};
use crate::serve::{grid, rank_threshold, serving_queries, ROTATE_EVERY};
use crate::stats::median;
use free_gap_core::api::{CallScratch, Mechanism, MechanismOutput, QuerySlice};
use free_gap_core::sparse_vector::SparseVectorWithGap;
use free_gap_noise::rng::{derive_fast_stream, derive_stream, fast_rng_from_seed};
use free_gap_noise::{BlockBuffer, Laplace};
use free_gap_serve::{BudgetLedger, SvtSession};
use rand::RngCore;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per layer; each layer reports the median.
const REPS: usize = 7;

/// Median over `REPS` repetitions of `body`'s time divided by `per`.
fn median_ns_per(per: usize, mut body: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&times)
}

/// `FastRng::next_u64`, nanoseconds per word.
pub fn fast_rng_ns(seed: u64) -> f64 {
    let mut rng = fast_rng_from_seed(seed);
    let draws = 1 << 23;
    median_ns_per(draws, || {
        let mut acc = 0u64;
        for _ in 0..draws {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    })
}

/// `BlockBuffer::next` with one cached Laplace under `StdRng` — the scalar
/// tape Algorithm 2 draws from; nanoseconds per draw.
pub fn tape_ns(seed: u64) -> f64 {
    let lap = Laplace::new(2.0 * K as f64 / EPSILON).expect("positive scale");
    let mut rng = derive_stream(seed, 8);
    let mut tape = BlockBuffer::new();
    let draws = 1 << 19;
    median_ns_per(draws, || {
        tape.begin();
        let mut acc = 0.0;
        for _ in 0..draws {
            acc += tape.next(&lap, &mut rng);
        }
        black_box(acc);
    })
}

/// `AnyMechanism::call_batched` of each grid mechanism on the serving
/// workload, one derived `FastRng` stream per call as the server draws
/// them; `(name, microseconds per call)`.
pub fn call_us(seed: u64) -> Vec<(&'static str, f64)> {
    let queries = serving_queries(seed);
    let grid = grid(rank_threshold(&queries)).expect("valid grid");
    let req = QuerySlice::new(&queries);
    let calls = 400;
    grid.iter()
        .map(|m| {
            let mut scratch = CallScratch::new();
            let mut out = MechanismOutput::new_for(m);
            let mut stream = 0u64;
            let mut batch = || {
                for _ in 0..calls {
                    stream += 1;
                    let mut rng = derive_fast_stream(seed, stream);
                    m.call_batched(&req, &mut rng, &mut scratch, &mut out)
                        .expect("valid call");
                    black_box(&out);
                }
            };
            batch();
            (m.name(), median_ns_per(calls, batch) / 1e3)
        })
        .collect()
}

/// A fresh `BudgetLedger` replaying a recorded sequence of debits and
/// releases: `(debit ns, release ns)` per operation. Debits are timed as
/// one pass in order; releases then as a second pass over the result, so
/// every release fits.
pub fn ledger_ns(ops: &[(bool, f64)], total: f64) -> (f64, f64) {
    let debits: Vec<f64> = ops.iter().filter(|o| o.0).map(|o| o.1).collect();
    let releases: Vec<f64> = ops.iter().filter(|o| !o.0).map(|o| o.1).collect();
    let mut debit = Vec::new();
    let mut release = Vec::new();
    for _ in 0..REPS {
        let ledger = BudgetLedger::new(total).expect("positive budget");
        let t0 = Instant::now();
        for &d in &debits {
            black_box(ledger.try_debit(d)).ok();
        }
        let t1 = Instant::now();
        for &r in &releases {
            black_box(ledger.release(r)).ok();
        }
        let t2 = Instant::now();
        debit.push((t1 - t0).as_nanos() as f64 / debits.len().max(1) as f64);
        release.push((t2 - t1).as_nanos() as f64 / releases.len().max(1) as f64);
    }
    (median(&debit), median(&release))
}

/// `SvtSession::feed` outside the server: sessions of the
/// `serve-sessions` shape each fed the `ROTATE_EVERY - 1` four-query
/// slices a slot gets between rotations; microseconds per feed.
pub fn session_feed_us(seed: u64, svt: SparseVectorWithGap) -> f64 {
    let queries = serving_queries(seed);
    let sessions = 512;
    let feeds = ROTATE_EVERY - 1;
    let mut decisions = Vec::new();
    let mut round = 0u64;
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            round += 1;
            let mut open: Vec<SvtSession> = (0..sessions)
                .map(|i| SvtSession::open(svt, derive_fast_stream(seed ^ round, i as u64), 0))
                .collect();
            let t0 = Instant::now();
            for f in 0..feeds {
                for (i, s) in open.iter_mut().enumerate() {
                    let start = ((i + f) * 3) % (queries.len() - 4);
                    decisions.clear();
                    s.feed(&queries[start..start + 4], 1, &mut decisions);
                    black_box(&decisions);
                }
            }
            t0.elapsed().as_nanos() as f64 / (sessions * feeds) as f64 / 1e3
        })
        .collect();
    median(&times)
}
