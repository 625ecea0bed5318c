//! Provider equivalence: every mechanism runs as one core reached through
//! `Mechanism::call`, and an execution path is only the draw provider the
//! caller hands in. On an identically seeded stream every path must produce
//! **bit-for-bit** the same output:
//!
//! * the recording `TapeSource` (the alignment checker's tape: one
//!   per-draw sample per request, never a batched fill) vs `RngDraws`
//!   (batched, draw-exact) vs `ScratchDraws` (the blocked noise tape, with
//!   lookahead);
//! * a query slice through `call` vs the lazy
//!   `*_streaming_with_scratch_into` entry over an iterator of the same
//!   queries.
//!
//! This is the contract that lets the bench harness, Monte-Carlo loops and
//! streaming servers use the fast providers while the paper-protocol
//! experiments and the alignment checker keep their numbers: every path is
//! the same mechanism, not implementations that merely agree in
//! distribution.
//!
//! The suite also proves the streaming entries' *laziness*, the
//! privacy-relevant property of Algorithm 2's online form: once the
//! mechanism halts (k-th ⊤, answer limit, or exhausted budget), no further
//! query is ever pulled from the stream — asserted with iterators that
//! panic when over-consumed.

use free_gap_alignment::TapeSource;
use free_gap_core::exponential_mech::ExponentialMechanism;
use free_gap_core::noisy_max::{ClassicNoisyTopK, DiscreteNoisyTopKWithGap, NoisyTopKWithGap};
use free_gap_core::sparse_vector::{
    AdaptiveSparseVector, AdaptiveSvOutput, ClassicSparseVector, DiscreteSparseVectorWithGap,
    MultiBranchAdaptiveSparseVector, MultiBranchSvOutput, SparseVectorWithGap, SvOutput,
};
use free_gap_core::staircase_mech::StaircaseMechanism;
use free_gap_core::{
    ExponentialTopK, Mechanism, MechanismOutput, QueryAnswers, QuerySlice, RngDraws, ScratchDraws,
    SvtScratch, TopKScratch,
};
use free_gap_noise::rng::derive_stream;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Wraps an iterator with a hard pull budget: the `allowed + 1`-th call to
/// `next` panics. Used to prove a streaming mechanism never observes a query
/// past its halting point.
struct PanicAfter<I> {
    inner: I,
    allowed: usize,
}

impl<I> PanicAfter<I> {
    fn new(inner: I, allowed: usize) -> Self {
        Self { inner, allowed }
    }
}

impl<I: Iterator<Item = f64>> Iterator for PanicAfter<I> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        assert!(
            self.allowed > 0,
            "query stream pulled after the mechanism must have halted"
        );
        self.allowed -= 1;
        self.inner.next()
    }
}

/// A mid-sized monotone workload with a mix of clear winners, near-ties and
/// noise-level entries, regenerated deterministically per seed.
fn workload(seed: u64, n: usize) -> QueryAnswers {
    let mut rng = derive_stream(seed, 999);
    let values: Vec<f64> = (0..n)
        .map(|i| {
            let base = (n - i) as f64 * 0.37;
            base + rng.gen_range(0.0..30.0)
        })
        .collect();
    QueryAnswers::counting(values)
}

/// The integer-lattice (`γ = 1`) projection of [`workload`], for the
/// finite-precision mechanisms.
fn integer_workload(seed: u64, n: usize) -> QueryAnswers {
    QueryAnswers::counting(
        workload(seed, n)
            .values()
            .iter()
            .map(|v| v.round())
            .collect(),
    )
}

/// One `Mechanism::call` through the reference provider, a recording
/// `TapeSource` on `rng`. Its `fill` is the trait's per-draw loop, so the
/// batched `RngDraws` fill is compared against an independent sampler.
fn via_tape<M: Mechanism>(m: &M, answers: &QueryAnswers, rng: &mut StdRng) -> MechanismOutput {
    let mut out = MechanismOutput::Indices(Vec::new());
    m.call(
        &QuerySlice::from_answers(answers),
        &mut TapeSource::record(rng),
        &mut TopKScratch::new(),
        &mut out,
    )
    .unwrap();
    out
}

/// Exact equality, down to the bits of every float (`digest` hashes
/// `to_bits`, so `-0.0` vs `0.0` would not slip through `PartialEq`).
fn assert_bits_eq(expect: &MechanismOutput, got: &MechanismOutput, what: &str) {
    assert_eq!(expect, got, "{what}");
    assert_eq!(expect.digest(0), got.digest(0), "{what}: bits differ");
}

/// Asserts that `RngDraws` and `ScratchDraws` reproduce the `TapeSource`
/// reference on `runs` derived streams of `stream` (scratch and output
/// buffers reused across runs, as a Monte-Carlo loop reuses them), and
/// returns the reference outputs.
fn assert_providers_agree<M: Mechanism>(
    m: &M,
    answers: &QueryAnswers,
    stream: u64,
    runs: u64,
) -> Vec<MechanismOutput> {
    let req = QuerySlice::from_answers(answers);
    let (mut topk, mut tape) = (TopKScratch::new(), SvtScratch::new());
    let mut out = MechanismOutput::Indices(Vec::new());
    (0..runs)
        .map(|run| {
            let expect = via_tape(m, answers, &mut derive_stream(stream, run));
            let mut rng = derive_stream(stream, run);
            m.call(&req, &mut RngDraws::new(&mut rng), &mut topk, &mut out)
                .unwrap();
            assert_bits_eq(&expect, &out, &format!("{} run {run} (RngDraws)", m.name()));
            let mut rng = derive_stream(stream, run);
            m.call(
                &req,
                &mut ScratchDraws::new(&mut tape, &mut rng),
                &mut topk,
                &mut out,
            )
            .unwrap();
            assert_bits_eq(
                &expect,
                &out,
                &format!("{} run {run} (ScratchDraws)", m.name()),
            );
            expect
        })
        .collect()
}

/// Asserts that a lazy streaming entry (`stream_run`, handed run `run`'s
/// derived stream) reproduces each reference output of the slice call.
fn assert_stream_matches(
    expect: &[MechanismOutput],
    stream: u64,
    mut stream_run: impl FnMut(&mut StdRng) -> MechanismOutput,
) {
    for (run, expect) in expect.iter().enumerate() {
        let got = stream_run(&mut derive_stream(stream, run as u64));
        assert_bits_eq(expect, &got, &format!("run {run} (streaming)"));
    }
}

/// The lazy SVT entry of a `SvOutput` mechanism over `answers`, into a
/// reused output. `$done` finishes the call's return value: nothing for the
/// infallible classic entries, `.unwrap()` for the discrete one (which
/// builds its noise per run).
macro_rules! sv_stream {
    ($m:expr, $answers:expr $(, $done:ident)?) => {{
        let (m, answers) = (&$m, &$answers);
        let (mut scratch, mut out) = (SvtScratch::new(), SvOutput { above: Vec::new() });
        move |rng: &mut StdRng| {
            m.run_streaming_with_scratch_into(
                answers.values().iter().copied(),
                rng,
                &mut scratch,
                &mut out,
            )
            $(.$done())?;
            MechanismOutput::SparseVector(out.clone())
        }
    }};
}

fn adaptive_out() -> AdaptiveSvOutput {
    AdaptiveSvOutput {
        outcomes: Vec::new(),
        spent: 0.0,
        epsilon: 0.0,
    }
}

fn multi_branch_out() -> MultiBranchSvOutput {
    MultiBranchSvOutput {
        outcomes: Vec::new(),
        spent: 0.0,
        epsilon: 0.0,
    }
}

#[test]
fn topk_with_gap_scratch_is_bit_identical() {
    let m = NoisyTopKWithGap::new(10, 0.7, true).unwrap();
    assert_providers_agree(&m, &workload(1, 400), 42, 200);
}

#[test]
fn classic_topk_scratch_is_bit_identical() {
    let m = ClassicNoisyTopK::new(5, 1.1, false).unwrap();
    assert_providers_agree(&m, &workload(2, 250), 7, 200);
}

#[test]
fn classic_svt_all_four_paths_are_bit_identical() {
    let answers = workload(3, 500);
    let threshold = answers.values()[30];
    let m = ClassicSparseVector::new(8, 0.7, threshold, true).unwrap();
    let expect = assert_providers_agree(&m, &answers, 11, 200);
    assert_stream_matches(&expect, 11, sv_stream!(m, answers));
}

#[test]
fn svt_with_gap_all_four_paths_are_bit_identical() {
    let answers = workload(4, 500);
    let threshold = answers.values()[25];
    let m = SparseVectorWithGap::new(6, 0.9, threshold, true).unwrap();
    let expect = assert_providers_agree(&m, &answers, 13, 200);
    assert_stream_matches(&expect, 13, sv_stream!(m, answers));
}

#[test]
fn adaptive_svt_all_four_paths_are_bit_identical() {
    let answers = workload(5, 600);
    let threshold = answers.values()[40];
    let m = AdaptiveSparseVector::new(8, 0.7, threshold, true).unwrap();
    let expect = assert_providers_agree(&m, &answers, 17, 200);
    let (mut scratch, mut out) = (SvtScratch::new(), adaptive_out());
    assert_stream_matches(&expect, 17, |rng| {
        m.run_streaming_with_scratch_into(
            answers.values().iter().copied(),
            rng,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        MechanismOutput::Adaptive(out.clone())
    });
}

#[test]
fn multi_branch_all_four_paths_are_bit_identical() {
    let answers = workload(6, 400);
    let threshold = answers.values()[30];
    let (mut scratch, mut out) = (SvtScratch::new(), multi_branch_out());
    for branches in [1usize, 2, 3, 5] {
        let m = MultiBranchAdaptiveSparseVector::new(6, 0.7, threshold, true, branches).unwrap();
        let expect = assert_providers_agree(&m, &answers, 23, 100);
        assert_stream_matches(&expect, 23, |rng| {
            m.run_streaming_with_scratch_into(
                answers.values().iter().copied(),
                rng,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            MechanismOutput::MultiBranch(out.clone())
        });
    }
}

#[test]
fn discrete_topk_scratch_is_bit_identical() {
    let m = DiscreteNoisyTopKWithGap::new(8, 0.9, true).unwrap();
    assert_providers_agree(&m, &integer_workload(7, 350), 47, 200);
}

#[test]
fn discrete_svt_all_four_paths_are_bit_identical() {
    let answers = integer_workload(8, 500);
    let threshold = answers.values()[30];
    let m = DiscreteSparseVectorWithGap::new(6, 0.8, threshold, true).unwrap();
    let expect = assert_providers_agree(&m, &answers, 53, 200);
    assert_stream_matches(&expect, 53, sv_stream!(m, answers, unwrap));
    // The lattice survives every path: gaps are exact multiples of γ = 1.
    for (run, out) in expect.iter().enumerate() {
        let MechanismOutput::SparseVector(sv) = out else {
            panic!("discrete SVT output shape");
        };
        for (_, gap) in sv.gaps() {
            assert_eq!(gap.fract(), 0.0, "run {run}: off-lattice gap {gap}");
        }
    }
}

#[test]
fn discrete_svt_streaming_never_pulls_past_the_kth_top() {
    // The discrete mirror of the continuous laziness proof: every query
    // towers over the integer threshold at tiny noise, so each pull is a
    // certain ⊤ — the mechanism must pull exactly k queries from an
    // endless stream and halt without observing another one, even though
    // the block buffer draws noise ahead of the stream.
    let k = 3usize;
    let m = DiscreteSparseVectorWithGap::new(k, 50.0, 10.0, true).unwrap();
    let (mut scratch, mut out) = (SvtScratch::new(), SvOutput { above: Vec::new() });
    for run in 0..25u64 {
        m.run_streaming_with_scratch_into(
            PanicAfter::new(std::iter::repeat(1e9), k),
            &mut derive_stream(59, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.answered(), k, "run {run}");
    }
}

#[test]
fn discrete_svt_streaming_finite_stream_matches_materialized() {
    // A finite stream that ends before k ⊤s are found: the streaming entry
    // must drain it and agree with the materialized run, including when the
    // block buffer's noise lookahead extends past the stream's end.
    let answers = integer_workload(9, 40);
    let threshold = 1e12_f64; // nothing ever clears it
    let m = DiscreteSparseVectorWithGap::new(5, 0.8, threshold, true).unwrap();
    let expect = assert_providers_agree(&m, &answers, 61, 50);
    for out in &expect {
        let MechanismOutput::SparseVector(sv) = out else {
            panic!("discrete SVT output shape");
        };
        assert_eq!(sv.answered(), 0);
        assert_eq!(sv.processed(), answers.len());
    }
    assert_stream_matches(&expect, 61, sv_stream!(m, answers, unwrap));
}

#[test]
fn adaptive_svt_scratch_honors_answer_limit() {
    let answers = QueryAnswers::counting(vec![1e7; 200]);
    let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
        .unwrap()
        .with_answer_limit(10);
    for out in assert_providers_agree(&m, &answers, 19, 50) {
        let MechanismOutput::Adaptive(a) = out else {
            panic!("adaptive output shape");
        };
        assert_eq!(a.answered(), 10);
    }
}

#[test]
fn adaptive_answer_limit_edge_cases_agree_on_every_path() {
    // Regression guard for the answer-limit handling that used to exist
    // twice (dyn: `is_some_and`, scratch: `unwrap_or(usize::MAX)`): limits
    // 0 and 1 must behave identically on every provider and the streaming
    // entry, including the degenerate never-answer case.
    let answers = QueryAnswers::counting(vec![1e7; 50]);
    let (mut scratch, mut out) = (SvtScratch::new(), adaptive_out());
    for limit in [0usize, 1] {
        let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
            .unwrap()
            .with_answer_limit(limit);
        let expect = assert_providers_agree(&m, &answers, 29, 20);
        for (run, e) in expect.iter().enumerate() {
            let MechanismOutput::Adaptive(a) = e else {
                panic!("adaptive output shape");
            };
            assert_eq!(a.answered(), limit, "limit {limit}, run {run}");
            // limit 0 must stop before processing any query at all.
            assert_eq!(a.outcomes.len(), limit, "limit {limit}, run {run}");
        }
        assert_stream_matches(&expect, 29, |rng| {
            m.run_streaming_with_scratch_into(
                answers.values().iter().copied(),
                rng,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            MechanismOutput::Adaptive(out.clone())
        });
    }
}

#[test]
fn classic_svt_streaming_never_pulls_past_the_kth_top() {
    // Every query towers over the threshold at tiny noise, so each pull is a
    // certain ⊤: the mechanism must pull exactly k queries from an endless
    // stream and then halt without observing another one.
    let k = 3usize;
    let m = ClassicSparseVector::new(k, 50.0, 10.0, true).unwrap();
    let (mut scratch, mut out) = (SvtScratch::new(), SvOutput { above: Vec::new() });
    for run in 0..25u64 {
        m.run_streaming_with_scratch_into(
            PanicAfter::new(std::iter::repeat(1e9), k),
            &mut derive_stream(31, run),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.answered(), k, "run {run}");
    }
}

#[test]
fn adaptive_streaming_never_pulls_past_budget_exhaustion() {
    // Replay a materialized run to learn exactly how many queries the
    // budget admits, then prove the streaming entry pulls not one more
    // from an endless stream.
    let m = AdaptiveSparseVector::new(5, 0.7, 10.0, true).unwrap();
    let answers = QueryAnswers::counting(vec![1e9; 500]);
    let (mut scratch, mut out) = (SvtScratch::new(), adaptive_out());
    for run in 0..25u64 {
        let materialized = via_tape(&m, &answers, &mut derive_stream(37, run));
        let MechanismOutput::Adaptive(a) = &materialized else {
            panic!("adaptive output shape");
        };
        let processed = a.outcomes.len();
        assert!(processed < 500, "budget must stop before the stream ends");
        m.run_streaming_with_scratch_into(
            PanicAfter::new(std::iter::repeat(1e9), processed),
            &mut derive_stream(37, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(a, &out, "run {run}");
    }
}

#[test]
fn adaptive_streaming_answer_limit_caps_stream_pulls() {
    // With an answer limit and certain ⊤s, exactly `limit` pulls happen.
    let limit = 5usize;
    let m = AdaptiveSparseVector::new(10, 0.7, 10.0, true)
        .unwrap()
        .with_answer_limit(limit);
    let (mut scratch, mut out) = (SvtScratch::new(), adaptive_out());
    for run in 0..25u64 {
        m.run_streaming_with_scratch_into(
            PanicAfter::new(std::iter::repeat(1e9), limit),
            &mut derive_stream(41, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(out.answered(), limit, "run {run}");
    }
}

#[test]
fn multi_branch_streaming_never_pulls_past_budget_exhaustion() {
    let m = MultiBranchAdaptiveSparseVector::new(4, 0.7, 10.0, true, 3).unwrap();
    let answers = QueryAnswers::counting(vec![1e9; 500]);
    let (mut scratch, mut out) = (SvtScratch::new(), multi_branch_out());
    for run in 0..25u64 {
        let materialized = via_tape(&m, &answers, &mut derive_stream(43, run));
        let MechanismOutput::MultiBranch(mb) = &materialized else {
            panic!("multi-branch output shape");
        };
        let processed = mb.outcomes.len();
        assert!(processed < 500, "budget must stop before the stream ends");
        m.run_streaming_with_scratch_into(
            PanicAfter::new(std::iter::repeat(1e9), processed),
            &mut derive_stream(43, run),
            &mut scratch,
            &mut out,
        )
        .unwrap();
        assert_eq!(mb, &out, "run {run}");
    }
}

#[test]
fn exponential_mechanism_all_four_paths_are_bit_identical() {
    // The Gumbel race through every provider and over a lazy stream: same
    // draws, same total order — the selections must agree index-for-index
    // on every stream, for Top-K and for the argmax (k = 1).
    let base = ExponentialMechanism::new(0.9, true).unwrap();
    let answers = workload(7, 400);
    let (mut scratch, mut out) = (TopKScratch::new(), Vec::new());
    for k in [10, 1] {
        let m = ExponentialTopK::new(base, k).unwrap();
        let expect = assert_providers_agree(&m, &answers, 52, 200);
        assert_stream_matches(&expect, 52, |rng| {
            base.run_top_k_streaming_with_scratch_into(
                answers.values().iter().copied(),
                k,
                rng,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            MechanismOutput::Indices(out.clone())
        });
    }
}

#[test]
fn staircase_measurement_all_four_paths_are_bit_identical() {
    let m = StaircaseMechanism::new(1.3).unwrap();
    let answers = workload(9, 300);
    let expect = assert_providers_agree(&m, &answers, 53, 200);
    let (mut scratch, mut out) = (SvtScratch::new(), Vec::new());
    assert_stream_matches(&expect, 53, |rng| {
        m.measure_split_streaming_with_scratch_into(
            answers.values().iter().copied(),
            answers.len(),
            rng,
            &mut scratch,
            &mut out,
        )
        .unwrap();
        MechanismOutput::Measurements(out.clone())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_fast_paths_match_on_random_workloads(
        n in 12usize..120,
        k in 1usize..6,
        seed in 0u64..50_000,
        monotone in proptest::bool::ANY,
        threshold_rank in 2usize..10,
        branches in 1usize..5,
    ) {
        let base = workload(seed, n);
        let answers = if monotone {
            base
        } else {
            QueryAnswers::general(base.values().to_vec())
        };
        let mut sorted: Vec<f64> = answers.values().to_vec();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let threshold = sorted[threshold_rank.min(n - 1)];
        // Finite-precision variants on the integer projection of the same
        // workload (counting semantics keep the lattice at γ = 1).
        let int_answers = QueryAnswers::counting(
            answers.values().iter().map(|v| v.round()).collect());
        let int_threshold = threshold.round();

        // Every provider, on a distinct sub-stream per mechanism.
        assert_providers_agree(
            &NoisyTopKWithGap::new(k, 0.8, monotone).unwrap(), &answers, seed ^ 0x10, 1);
        assert_providers_agree(
            &ClassicNoisyTopK::new(k, 0.8, monotone).unwrap(), &answers, seed ^ 0x11, 1);
        assert_providers_agree(
            &DiscreteNoisyTopKWithGap::new(k, 0.8, monotone).unwrap(),
            &int_answers,
            seed ^ 0x15,
            1,
        );
        let stair = StaircaseMechanism::new(0.8).unwrap();
        let stair_expect = assert_providers_agree(&stair, &answers, seed ^ 0x18, 1);

        // The SVT family, plus each lazy streaming entry.
        let mut svt_scratch = SvtScratch::new();
        let svt = SparseVectorWithGap::new(k, 0.8, threshold, monotone).unwrap();
        let expect = assert_providers_agree(&svt, &answers, seed ^ 0x12, 1);
        assert_stream_matches(&expect, seed ^ 0x12, sv_stream!(svt, answers));

        let classic = ClassicSparseVector::new(k, 0.8, threshold, monotone).unwrap();
        let expect = assert_providers_agree(&classic, &answers, seed ^ 0x13, 1);
        assert_stream_matches(&expect, seed ^ 0x13, sv_stream!(classic, answers));

        let adaptive = AdaptiveSparseVector::new(k, 0.8, threshold, monotone).unwrap();
        let expect = assert_providers_agree(&adaptive, &answers, seed ^ 0x14, 1);
        let mut out = adaptive_out();
        assert_stream_matches(&expect, seed ^ 0x14, |rng| {
            adaptive.run_streaming_with_scratch_into(
                answers.values().iter().copied(), rng, &mut svt_scratch, &mut out)
                .unwrap();
            MechanismOutput::Adaptive(out.clone())
        });

        let multi =
            MultiBranchAdaptiveSparseVector::new(k, 0.8, threshold, monotone, branches).unwrap();
        let expect = assert_providers_agree(&multi, &answers, seed ^ 0x19, 1);
        let mut out = multi_branch_out();
        assert_stream_matches(&expect, seed ^ 0x19, |rng| {
            multi.run_streaming_with_scratch_into(
                answers.values().iter().copied(), rng, &mut svt_scratch, &mut out)
                .unwrap();
            MechanismOutput::MultiBranch(out.clone())
        });

        let disc_svt =
            DiscreteSparseVectorWithGap::new(k, 0.8, int_threshold, monotone).unwrap();
        let expect = assert_providers_agree(&disc_svt, &int_answers, seed ^ 0x16, 1);
        assert_stream_matches(&expect, seed ^ 0x16, sv_stream!(disc_svt, int_answers, unwrap));

        let expo = ExponentialMechanism::new(0.8, monotone).unwrap();
        let mut topk_scratch = TopKScratch::new();
        let mut indices = Vec::new();
        let expect = assert_providers_agree(
            &ExponentialTopK::new(expo, k).unwrap(), &answers, seed ^ 0x17, 1);
        assert_stream_matches(&expect, seed ^ 0x17, |rng| {
            expo.run_top_k_streaming_with_scratch_into(
                answers.values().iter().copied(), k, rng, &mut topk_scratch, &mut indices)
                .unwrap();
            MechanismOutput::Indices(indices.clone())
        });
        let mut measured = Vec::new();
        assert_stream_matches(&stair_expect, seed ^ 0x18, |rng| {
            stair.measure_split_streaming_with_scratch_into(
                answers.values().iter().copied(),
                answers.len(),
                rng,
                &mut svt_scratch,
                &mut measured)
                .unwrap();
            MechanismOutput::Measurements(measured.clone())
        });
    }
}
