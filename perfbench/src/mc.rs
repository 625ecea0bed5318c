//! The two Monte-Carlo workloads: the §5.2 select-then-measure protocol
//! (`mc-topk-gap`) and Algorithm 2 (`mc-svt-adaptive`), each one run per
//! op on one thread with its own `StdRng` stream.

use crate::calib::Speed;
use crate::counting::CountingRng;
use crate::stats::{mean_and_stderr, Hist};
use crate::{Interleaved, Window};
use free_gap_core::api::{AnyMechanism, CallScratch, MechanismOutput, QuerySlice};
use free_gap_core::laplace_mech::LaplaceMechanism;
use free_gap_core::noisy_max::{NoisyTopKWithGap, TopKOutput};
use free_gap_core::pipelines::{topk_select_measure_scratch, PipelineScratch, TopKPipelineResult};
use free_gap_core::postprocess::{blue_estimates, blue_variance_ratio, BlueInput};
use free_gap_core::sparse_vector::AdaptiveSparseVector;
use free_gap_core::{DrawProvider, MechanismError, QueryAnswers, RngDraws, TopKScratch};
use free_gap_noise::rng::{derive_stream, derive_stream_seed, splitmix64};
use free_gap_noise::{ContinuousDistribution, Laplace};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries per run.
pub const N: usize = 100_000;
/// Answers selected per run.
pub const K: usize = 10;
/// Total budget per run (half selects, half measures in `mc-topk-gap`).
pub const EPSILON: f64 = 0.7;
/// Run index of the untimed warm-up op (never used by a timed op).
const WARM_RUN: u64 = u64::MAX;

/// The generated counts and per-run stream root shared by both workloads.
#[derive(Debug, Clone)]
pub struct McInputs {
    /// `N` shuffled Zipf-like counts (monotone counting queries).
    pub answers: QueryAnswers,
    /// The count at descending rank `4K`: Algorithm 2's threshold.
    pub threshold: f64,
    run_seed: u64,
}

impl McInputs {
    /// Builds the inputs of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = derive_stream(seed, 1);
        let mut values: Vec<f64> = (0..N)
            .map(|j| (1e6 / (j + 1) as f64 + rng.gen_range(0.0..20.0)).round())
            .collect();
        values.shuffle(&mut rng);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        Self {
            threshold: sorted[4 * K],
            answers: QueryAnswers::counting(values),
            run_seed: derive_stream_seed(seed, 2),
        }
    }

    /// The `StdRng` stream of run `run` — the `derive_stream(seed, run)`
    /// discipline of the `repro` figure runs.
    pub fn stream(&self, run: u64) -> rand::rngs::StdRng {
        derive_stream(self.run_seed, run)
    }
}

/// Times `op` over consecutive runs from `*next_run` on until `seconds`
/// have passed, advancing `*next_run`. `op` returns the latency of its
/// timed span and whether its output checks passed; it does its checks
/// outside that span. Latencies and the window's time are scaled to the
/// reference machine speed (see [`crate::calib`]); calibration probes
/// between ops are left out of the window's time.
fn run_window(
    seconds: f64,
    next_run: &mut u64,
    mut op: impl FnMut(u64) -> (Duration, bool),
) -> Window {
    let mut hist = Hist::new();
    let mut failed = 0;
    let mut speed = Speed::new();
    let mut busy = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let first = *next_run;
    loop {
        let t0 = Instant::now();
        let (span, ok) = op(*next_run);
        let t1 = Instant::now();
        // An op outlasts the probe interval, so this probes right after it:
        // a slow stretch that hit the op is still on when the probe runs.
        speed.tick();
        let factor = speed.factor();
        hist.record((span.as_nanos() as f64 / factor) as u64);
        busy += (t1 - t0).as_secs_f64() / factor;
        failed += u64::from(!ok);
        *next_run += 1;
        if t1 >= deadline {
            break;
        }
    }
    Window::new(*next_run - first, failed, busy, hist)
}

/// Serves every run in each of `modes` modes in turn (`op(run, mode)`;
/// mode 0 untraced, mode 1 traced, further modes layer probes) until
/// `seconds` have passed, so machine drift hits every mode alike. Each
/// mode's window counts only the wall time of its own iterations.
fn interleaved_window(
    seconds: f64,
    modes: usize,
    mut op: impl FnMut(u64, usize) -> (Duration, bool),
) -> Vec<Window> {
    let mut hists: Vec<Hist> = (0..modes).map(|_| Hist::new()).collect();
    let mut failed = vec![0u64; modes];
    let mut busy = vec![Duration::ZERO; modes];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut run = 0u64;
    loop {
        for mode in 0..modes {
            let t0 = Instant::now();
            let (span, ok) = op(run, mode);
            busy[mode] += t0.elapsed();
            hists[mode].record(span.as_nanos() as u64);
            failed[mode] += u64::from(!ok);
        }
        run += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    hists
        .into_iter()
        .zip(failed)
        .zip(busy)
        .map(|((hist, failed), busy)| Window::new(run, failed, busy.as_secs_f64(), hist))
        .collect()
}

fn split_modes(mut windows: Vec<Window>) -> (Interleaved, Vec<Window>) {
    let probes = windows.split_off(2);
    let traced = windows.pop().expect("a traced mode");
    let plain = windows.pop().expect("an untraced mode");
    (Interleaved { plain, traced }, probes)
}

/// Selected indices are `K` distinct queries in range, and every estimate
/// is finite.
fn topk_result_ok(r: &TopKPipelineResult) -> bool {
    let distinct = r
        .indices
        .iter()
        .enumerate()
        .all(|(i, a)| *a < N && !r.indices[..i].contains(a));
    r.indices.len() == K && distinct && r.measurements.iter().chain(&r.blue).all(|v| v.is_finite())
}

/// Squared-error sums of BLUE and direct estimates, one pair per run.
#[derive(Debug, Default)]
pub struct MseCheck {
    runs: Vec<(f64, f64)>,
}

/// Batches the MSE ratio is averaged over for its standard error.
const MSE_BATCHES: usize = 20;
/// Standard errors the empirical ratio may sit from Corollary 1.
const MSE_Z: f64 = 6.0;

impl MseCheck {
    fn add(&mut self, r: &TopKPipelineResult) {
        let sse = |est: &[f64]| -> f64 {
            est.iter()
                .zip(&r.truths)
                .map(|(e, t)| (e - t).powi(2))
                .sum()
        };
        self.runs.push((sse(&r.blue), sse(&r.measurements)));
    }

    /// Checks that the pooled BLUE-to-direct MSE ratio lies within
    /// `MSE_Z` batch-means standard errors of Corollary 1's
    /// `blue_variance_ratio(K, 1)`. Returns the ratio and the theory.
    pub fn verdict(&self) -> Result<(f64, f64), String> {
        let theory = blue_variance_ratio(K, 1.0);
        if self.runs.len() < 5 * MSE_BATCHES {
            return Err(format!(
                "MSE ratio check needs at least {} runs, got {}",
                5 * MSE_BATCHES,
                self.runs.len()
            ));
        }
        let per = self.runs.len() / MSE_BATCHES;
        let ratio_of = |runs: &[(f64, f64)]| {
            let (imp, base) = runs
                .iter()
                .fold((0.0, 0.0), |(a, b), (i, d)| (a + i, b + d));
            imp / base
        };
        let batches: Vec<f64> = self.runs.chunks_exact(per).map(ratio_of).collect();
        let (_, se) = mean_and_stderr(&batches);
        let ratio = ratio_of(&self.runs);
        if (ratio - theory).abs() > MSE_Z * se {
            return Err(format!(
                "BLUE/direct MSE ratio {ratio:.4} is {:.1} standard errors from Corollary 1's {theory:.4} ({} estimates)",
                (ratio - theory).abs() / se,
                self.runs.len() * K
            ));
        }
        Ok((ratio, theory))
    }
}

/// `mc-topk-gap`: Noisy-Top-K-with-Gap at ε/2, Laplace measurement at ε/2,
/// BLUE — `topk_select_measure_scratch` exactly as `repro fig1`/`fig2`
/// run it.
pub struct TopKBench {
    inputs: McInputs,
    next_run: u64,
    mse: MseCheck,
    scratch: PipelineScratch,
    topk: TopKScratch,
    top: TopKOutput,
    selector: NoisyTopKWithGap,
    meas_scale: f64,
}

/// Per-op span sums of the traced `mc-topk-gap` run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TopKSpans {
    /// Ops traced.
    pub ops: u64,
    /// Selection (Noisy-Top-K-with-Gap), nanoseconds.
    pub select_ns: f64,
    /// Laplace measurement of the selected queries, nanoseconds.
    pub measure_ns: f64,
    /// BLUE postprocessing, nanoseconds.
    pub blue_ns: f64,
    /// Probe: `Laplace::fill_into_offset` over the `N` counts, nanoseconds.
    pub fill_ns: f64,
    /// Probe: `N` raw `StdRng` words, nanoseconds.
    pub raw_ns: f64,
}

impl TopKBench {
    /// Builds the inputs and warms the scratch buffers with one untimed op.
    pub fn setup(seed: u64) -> Result<Self, MechanismError> {
        let mut bench = Self {
            inputs: McInputs::new(seed),
            next_run: 0,
            mse: MseCheck::default(),
            scratch: PipelineScratch::new(),
            topk: TopKScratch::new(),
            top: TopKOutput { items: Vec::new() },
            selector: NoisyTopKWithGap::new(K, EPSILON / 2.0, true)?,
            meas_scale: LaplaceMechanism::new(EPSILON / 2.0)?.scale() * K as f64,
        };
        bench.op(WARM_RUN)?;
        bench.traced_op(
            &mut bench.inputs.stream(WARM_RUN),
            &mut TopKSpans::default(),
        )?;
        Ok(bench)
    }

    /// One run through the pipeline entry point.
    pub fn op(&mut self, run: u64) -> Result<TopKPipelineResult, MechanismError> {
        let mut rng = self.inputs.stream(run);
        topk_select_measure_scratch(
            &self.inputs.answers,
            K,
            EPSILON,
            &mut rng,
            &mut self.scratch,
        )
    }

    /// The same run with a span around each stage the pipeline composes
    /// (select, measure, BLUE). Bit-identical to
    /// [`op`](Self::op): the stages draw through the same stream in the
    /// same order (`N` selection draws, then `K` measurement draws).
    pub fn traced_op<R: RngCore>(
        &mut self,
        rng: &mut R,
        spans: &mut TopKSpans,
    ) -> Result<TopKPipelineResult, MechanismError> {
        let answers = &self.inputs.answers;
        let t0 = Instant::now();
        self.selector
            .run_with_scratch_into(answers, rng, &mut self.topk, &mut self.top)?;
        let indices = self.top.indices();
        let gaps = self.top.gaps();
        let truths: Vec<f64> = indices.iter().map(|&i| answers.values()[i]).collect();
        let t1 = Instant::now();
        let mut measurements = Vec::new();
        RngDraws::new(rng).fill_offset(&truths, self.meas_scale, &mut measurements);
        let t2 = Instant::now();
        let blue = blue_estimates(&BlueInput {
            measurements: &measurements,
            gaps: &gaps[..K - 1],
            lambda: 1.0,
        })?;
        let t3 = Instant::now();
        spans.ops += 1;
        spans.select_ns += (t1 - t0).as_nanos() as f64;
        spans.measure_ns += (t2 - t1).as_nanos() as f64;
        spans.blue_ns += (t3 - t2).as_nanos() as f64;
        Ok(TopKPipelineResult {
            indices,
            gaps,
            measurements,
            blue,
            truths,
        })
    }

    /// Untraced window, continuing from the previous window's runs. Each
    /// op's indices are checked; the squared errors pool for
    /// [`check_mse`](Self::check_mse).
    pub fn window(&mut self, seconds: f64) -> Window {
        let mut next_run = self.next_run;
        let window = run_window(seconds, &mut next_run, |run| {
            let t0 = Instant::now();
            let result = self.op(run);
            let span = t0.elapsed();
            let ok = match &result {
                Ok(r) => {
                    self.mse.add(r);
                    topk_result_ok(r)
                }
                Err(_) => false,
            };
            (span, ok)
        });
        self.next_run = next_run;
        window
    }

    /// The MSE-ratio check over every untraced window so far.
    pub fn check_mse(&self) -> Result<(), String> {
        self.mse.verdict().map(|_| ())
    }

    /// Traced window: each run is served untraced, then traced (with
    /// stage spans, checked bit-for-bit against the untraced output), then
    /// as two layer probes on the same stream — the `N`-value Laplace fill
    /// alone and `N` raw generator words — so machine drift hits the
    /// stages and the probes alike.
    pub fn traced_window(&mut self, seconds: f64) -> (Interleaved, TopKSpans) {
        let mut spans = TopKSpans::default();
        let mut mse = MseCheck::default();
        let mut last = None;
        let lap = Laplace::new(self.selector.scale()).expect("validated scale");
        let mut noisy = vec![0.0; N];
        let modes = interleaved_window(seconds, 4, |run, mode| {
            let mut rng = self.inputs.stream(run);
            let t0 = Instant::now();
            match mode {
                0 => {
                    let result = self.op(run);
                    let span = t0.elapsed();
                    let ok = result.as_ref().is_ok_and(topk_result_ok);
                    if let Ok(r) = &result {
                        mse.add(r);
                    }
                    last = result.ok();
                    (span, ok)
                }
                1 => {
                    let result = self.traced_op(&mut rng, &mut spans);
                    let span = t0.elapsed();
                    (span, result.is_ok() && result.ok() == last)
                }
                2 => {
                    lap.fill_into_offset(&mut rng, self.inputs.answers.values(), &mut noisy);
                    (
                        t0.elapsed(),
                        black_box(&noisy).iter().all(|v| v.is_finite()),
                    )
                }
                _ => {
                    let words = (0..N).fold(0u64, |acc, _| acc ^ rng.next_u64());
                    (t0.elapsed(), black_box(words) != 0)
                }
            }
        });
        let (mut both, probes) = split_modes(modes);
        both.plain.check(mse.verdict().map(|_| ()));
        spans.fill_ns = probes[0].hist.mean_ns() * probes[0].ops as f64;
        spans.raw_ns = probes[1].hist.mean_ns() * probes[1].ops as f64;
        (both, spans)
    }

    /// Mean raw generator words per op over runs `0..runs`, drawn through
    /// a counting generator outside any timed span (the wrapper's own
    /// cost would otherwise inflate the spans).
    pub fn words_per_op(&mut self, runs: u64) -> Result<f64, MechanismError> {
        let mut words = 0;
        for run in 0..runs {
            let mut rng = CountingRng::new(self.inputs.stream(run));
            self.traced_op(&mut rng, &mut TopKSpans::default())?;
            words += rng.words();
        }
        Ok(words as f64 / runs as f64)
    }
}

/// `mc-svt-adaptive`: Algorithm 2 through `AnyMechanism::call_batched`
/// over all `N` counts, threshold at descending rank `4K`.
///
/// How far the run scans depends on where the few above-threshold counts
/// sit in the query order, so one fixed order would make the cost per run
/// a property of the seed. Each run therefore reads the shuffled counts
/// from its own rotation: the same counts, a different starting point.
pub struct SvtBench {
    inputs: McInputs,
    /// The shuffled counts followed by all but the last of them again, so
    /// every rotation is one contiguous slice.
    ring: Vec<f64>,
    next_run: u64,
    mechanism: AnyMechanism,
    scratch: CallScratch,
    out: MechanismOutput,
}

/// Per-op sums of the traced `mc-svt-adaptive` run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SvtSpans {
    /// Ops traced.
    pub ops: u64,
    /// The `call_batched` span, nanoseconds.
    pub call_ns: f64,
    /// Queries the mechanism processed before halting.
    pub scanned: u64,
}

impl SvtBench {
    /// Builds the inputs and warms the scratch buffers with one untimed op.
    pub fn setup(seed: u64) -> Result<Self, MechanismError> {
        let inputs = McInputs::new(seed);
        let mechanism: AnyMechanism =
            AdaptiveSparseVector::new(K, EPSILON, inputs.threshold, true)?.into();
        let values = inputs.answers.values();
        let ring = values.iter().chain(&values[..N - 1]).copied().collect();
        let mut bench = Self {
            out: MechanismOutput::new_for(&mechanism),
            inputs,
            ring,
            next_run: 0,
            mechanism,
            scratch: CallScratch::new(),
        };
        bench.op(WARM_RUN, &mut derive_stream(0, WARM_RUN))?;
        Ok(bench)
    }

    /// Run `run` on `rng`; the output stays in `self.out`.
    pub fn op<R: RngCore>(&mut self, run: u64, rng: &mut R) -> Result<(), MechanismError> {
        let start = (splitmix64(&mut run.clone()) % N as u64) as usize;
        let req = QuerySlice::new(&self.ring[start..start + N]);
        self.mechanism
            .call_batched(&req, rng, &mut self.scratch, &mut self.out)
    }

    /// `spent ≤ ε` on the last op, and it processed at least one query.
    fn output_ok(&self) -> bool {
        match &self.out {
            MechanismOutput::Adaptive(o) => o.spent <= o.epsilon && !o.outcomes.is_empty(),
            _ => false,
        }
    }

    fn scanned(&self) -> u64 {
        match &self.out {
            MechanismOutput::Adaptive(o) => o.outcomes.len() as u64,
            _ => 0,
        }
    }

    /// Untraced window, continuing from the previous window's runs.
    pub fn window(&mut self, seconds: f64) -> Window {
        let mut next_run = self.next_run;
        let window = run_window(seconds, &mut next_run, |run| {
            let t0 = Instant::now();
            let mut rng = self.inputs.stream(run);
            let result = self.op(run, &mut rng);
            let span = t0.elapsed();
            (span, result.is_ok() && self.output_ok())
        });
        self.next_run = next_run;
        window
    }

    /// Traced window: each run is served untraced and then traced (the
    /// call span plus the queries scanned), so drift hits both alike.
    pub fn traced_window(&mut self, seconds: f64) -> (Interleaved, SvtSpans) {
        let mut spans = SvtSpans::default();
        let modes = interleaved_window(seconds, 2, |run, mode| {
            let mut rng = self.inputs.stream(run);
            let t0 = Instant::now();
            let result = self.op(run, &mut rng);
            let span = t0.elapsed();
            if mode == 1 {
                spans.ops += 1;
                spans.call_ns += span.as_nanos() as f64;
                spans.scanned += self.scanned();
            }
            (span, result.is_ok() && self.output_ok())
        });
        (split_modes(modes).0, spans)
    }

    /// Mean raw generator words per op over runs `0..runs`, counted
    /// outside any timed span.
    pub fn words_per_op(&mut self, runs: u64) -> Result<f64, MechanismError> {
        let mut words = 0;
        for run in 0..runs {
            let mut rng = CountingRng::new(self.inputs.stream(run));
            self.op(run, &mut rng)?;
            words += rng.words();
        }
        Ok(words as f64 / runs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed() -> u64 {
        11
    }

    #[test]
    fn topk_op_is_bit_identical_with_the_counting_generator_and_spans() {
        let mut bench = TopKBench::setup(seed()).unwrap();
        for run in 0..3 {
            let plain = bench.op(run).unwrap();
            let mut rng = CountingRng::new(bench.inputs.stream(run));
            let traced = bench
                .traced_op(&mut rng, &mut TopKSpans::default())
                .unwrap();
            assert_eq!(plain, traced);
            assert!(topk_result_ok(&plain));
            // N selection draws plus K measurement draws, one word each.
            assert_eq!(rng.words(), (N + K) as u64);
        }
    }

    #[test]
    fn svt_op_is_bit_identical_with_the_counting_generator() {
        let mut bench = SvtBench::setup(seed()).unwrap();
        for run in 0..3 {
            bench.op(run, &mut bench.inputs.stream(run)).unwrap();
            let plain = bench.out.clone();
            let mut counted = CountingRng::new(bench.inputs.stream(run));
            bench.op(run, &mut counted).unwrap();
            assert_eq!(plain, bench.out);
            assert!(bench.output_ok());
            assert!(counted.words() >= bench.scanned());
        }
    }

    #[test]
    fn mse_check_accepts_the_pipeline_and_rejects_a_broken_estimate() {
        let mut bench = TopKBench::setup(seed()).unwrap();
        let mut good = MseCheck::default();
        let mut broken = MseCheck::default();
        for run in 0..400 {
            let r = bench.op(run).unwrap();
            good.add(&r);
            // Dropping the gaps makes BLUE the direct measurement: ratio 1.
            let mut no_gain = r.clone();
            no_gain.blue = no_gain.measurements.clone();
            broken.add(&no_gain);
        }
        good.verdict().unwrap();
        assert!(broken.verdict().is_err());
    }
}
