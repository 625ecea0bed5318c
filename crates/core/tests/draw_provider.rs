//! Stream discipline of the draw providers (README.md invariant): however a
//! provider buffers internally, the sequence of draws it *serves* is
//! bit-identical to a sequential sampling loop over the requested noise
//! specs on the same RNG stream.
//!
//! The proptest drives the alignment checker's recording [`TapeSource`],
//! the blocked scratch provider ([`ScratchDraws`]) and the draw-exact
//! monomorphic provider ([`RngDraws`]) through **random interleavings** of every draw
//! shape — single `next()`, `peek()` of Algorithm 2's pairs and of
//! `m`-tuples, and `fill()` — over every noise family (continuous and
//! discrete Laplace, Gumbel, Exponential, staircase; single-family tuples
//! and mixed ones), over identically seeded streams, and asserts every
//! consumed draw matches the sequential reference bit-for-bit. This is the
//! property that lets one mechanism core swap providers freely: the
//! alignment checker sees the same tape the reference loop would record,
//! and the scratch path's block lookahead is invisible in the served
//! values. Mixing families in one interleaving is exactly what the scratch
//! provider's raw-uniform tape exists for: a continuous and a discrete draw
//! must come out of the *same* buffered stream in sequential order.

use free_gap_alignment::TapeSource;
use free_gap_core::draw::{DrawProvider, ParallelDraws, RngDraws, ScratchDraws};
use free_gap_core::SvtScratch;
use free_gap_noise::rng::{derive_fast_stream, rng_from_seed};
use free_gap_noise::{
    ContinuousDistribution, DiscreteDistribution, DiscreteLaplace, Exponential, Gumbel, Laplace,
    Noise, Staircase,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// One step of a provider interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// `next(noise)`.
    Next(Noise),
    /// `peek(noises)` + consumption of up to `take` whole tuples (bounded by
    /// the provider's slab; draw-exact providers expose one).
    Peek(Vec<Noise>, usize),
    /// `fill` over `len` zero offsets (the Noisy-Max / measurement batch
    /// shape).
    Fill(usize, Noise),
}

impl Op {
    /// The same op with multi-tuple consumption disabled, so every provider
    /// consumes identically.
    fn single(&self) -> Op {
        match self {
            Op::Peek(noises, _) => Op::Peek(noises.clone(), 1),
            other => other.clone(),
        }
    }
}

/// Positive, finite scales spanning what mechanisms actually request.
const SCALES: [f64; 5] = [0.25, 1.0, 2.0, 7.5, 40.0];
/// Discrete per-unit rates (ε' in the Appendix-A.1 notation).
const RATES: [f64; 4] = [0.1, 0.4, 1.0, 2.5];
/// Lattice steps.
const GAMMAS: [f64; 2] = [0.5, 1.0];
/// Stair-split parameters for the staircase ops (must lie in (0, 1)).
const SPLITS: [f64; 2] = [0.3, 0.7];

fn laplace(rng: &mut StdRng) -> Noise {
    Noise::Laplace(Laplace::new(SCALES[rng.gen_range(0..SCALES.len())]).unwrap())
}

fn discrete(rng: &mut StdRng, gamma: f64) -> Noise {
    let rate = RATES[rng.gen_range(0..RATES.len())];
    Noise::DiscreteLaplace(DiscreteLaplace::new(rate, gamma).unwrap())
}

fn gamma(rng: &mut StdRng) -> f64 {
    GAMMAS[rng.gen_range(0..GAMMAS.len())]
}

/// The staircase the ops request: unit sensitivity.
fn staircase(rng: &mut StdRng) -> Noise {
    let eps = RATES[rng.gen_range(0..RATES.len())];
    let split = SPLITS[rng.gen_range(0..SPLITS.len())];
    Noise::Staircase(Staircase::new(eps, 1.0, split).unwrap())
}

/// A spec of any family a tuple slot may hold (every one-uniform family:
/// all but the staircase).
fn slot_noise(rng: &mut StdRng) -> Noise {
    let beta = SCALES[rng.gen_range(0..SCALES.len())];
    match rng.gen_range(0..4) {
        0 => laplace(rng),
        1 => {
            let g = gamma(rng);
            discrete(rng, g)
        }
        2 => Noise::Gumbel(Gumbel::new(beta).unwrap()),
        _ => Noise::Exp(Exponential::new(beta).unwrap()),
    }
}

/// Deterministically expands `(seed, count)` into an op interleaving — the
/// vendored proptest generates the raw numbers, this builds the structure.
/// Every shape the mechanism cores use appears: Laplace draws, pairs,
/// `m`-tuples and fills; their discrete twins; Gumbel/Exponential draws and
/// fills; staircase draws and fills; plus mixed-family tuples.
fn random_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = free_gap_noise::rng::derive_stream(seed, 0x0D5);
    let rng = &mut rng;
    (0..count)
        .map(|_| match rng.gen_range(0..13) {
            0 => Op::Next(laplace(rng)),
            1 => Op::Peek(vec![laplace(rng), laplace(rng)], 1),
            2 => {
                let m = rng.gen_range(1..6);
                let noises = (0..m).map(|_| laplace(rng)).collect();
                Op::Peek(noises, rng.gen_range(1..4))
            }
            3 => Op::Fill(rng.gen_range(1..12), laplace(rng)),
            4 => {
                let g = gamma(rng);
                Op::Next(discrete(rng, g))
            }
            5 => {
                let g = gamma(rng);
                Op::Peek(vec![discrete(rng, g), discrete(rng, g)], 1)
            }
            6 => {
                let m = rng.gen_range(1..6);
                let g = gamma(rng);
                let noises = (0..m).map(|_| discrete(rng, g)).collect();
                Op::Peek(noises, rng.gen_range(1..4))
            }
            7 => {
                let g = gamma(rng);
                Op::Fill(rng.gen_range(1..12), discrete(rng, g))
            }
            8 => {
                let beta = SCALES[rng.gen_range(0..SCALES.len())];
                let gumbel = Noise::Gumbel(Gumbel::new(beta).unwrap());
                if rng.gen_range(0..2) == 0 {
                    Op::Next(gumbel)
                } else {
                    Op::Fill(rng.gen_range(1..8), gumbel)
                }
            }
            9 => {
                let beta = SCALES[rng.gen_range(0..SCALES.len())];
                Op::Next(Noise::Exp(Exponential::new(beta).unwrap()))
            }
            10 => Op::Next(staircase(rng)),
            11 => Op::Fill(rng.gen_range(1..8), staircase(rng)),
            _ => {
                let m = rng.gen_range(1..5);
                let noises = (0..m).map(|_| slot_noise(rng)).collect();
                Op::Peek(noises, rng.gen_range(1..4))
            }
        })
        .collect()
}

/// Serves `ops` through `provider`, returning every consumed draw with the
/// spec it was served for, in consumption order.
fn serve<P: DrawProvider>(ops: &[Op], provider: &mut P) -> Vec<(Noise, f64)> {
    let mut served = Vec::new();
    provider.begin();
    for op in ops {
        match op {
            Op::Next(noise) => served.push((*noise, provider.next(*noise))),
            Op::Peek(noises, take) => {
                let m = noises.len();
                let slab = provider.peek(noises);
                assert!(slab.len() >= m && slab.len().is_multiple_of(m));
                let tuples = (slab.len() / m).min(*take);
                for t in 0..tuples {
                    for (b, noise) in noises.iter().enumerate() {
                        served.push((*noise, slab[t * m + b]));
                    }
                }
                provider.consume(tuples * m);
            }
            Op::Fill(len, noise) => {
                let base = vec![0.0f64; *len];
                let mut out = Vec::new();
                provider.fill(&base, *noise, &mut out);
                // Zero offsets: each output element IS the served draw.
                served.extend(out.iter().map(|v| (*noise, *v)));
            }
        }
    }
    served
}

/// Asserts `served` equals a sequential per-draw sampling loop at the
/// consumed request parameters on a fresh stream from `seed` — the
/// stream-discipline invariant, per provider.
fn assert_sequential(label: &str, served: &[(Noise, f64)], seed: u64) {
    assert_sequential_on(label, served, rng_from_seed(seed));
}

/// [`assert_sequential`] against an arbitrary reference stream — the
/// per-block providers serve their scalar draws from a *derived*
/// sub-stream, not `rng_from_seed(seed)` directly.
fn assert_sequential_on<R: Rng>(label: &str, served: &[(Noise, f64)], mut rng: R) {
    for (i, (want, value)) in served.iter().enumerate() {
        // Each family's own sampler: the reference is independent of the
        // spec's dispatch.
        let expect = match want {
            Noise::Laplace(d) => d.sample(&mut rng),
            Noise::DiscreteLaplace(d) => d.sample_value(&mut rng),
            Noise::Gumbel(d) => d.sample(&mut rng),
            Noise::Exp(d) => d.sample(&mut rng),
            Noise::Staircase(d) => d.sample(&mut rng),
        };
        assert_eq!(
            value.to_bits(),
            expect.to_bits(),
            "{label}: draw {i} for {want:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any interleaving of the draw shapes and noise families consumes
    /// the underlying RNG stream in sequential order on every provider, and
    /// the recording tape source consumes it in exactly the same order as
    /// the scratch provider.
    #[test]
    fn interleavings_serve_identical_streams(
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..40,
        seed in 0u64..100_000,
    ) {
        let ops = random_ops(ops_seed, op_count);
        // Per-provider invariant: consumed draws == sequential sampling at
        // the consumed scales (providers may differ in how many tuples they
        // expose per peek, so each is checked against its own consumption).
        let mut tape_rng = rng_from_seed(seed);
        let tape_served = serve(&ops, &mut TapeSource::record(&mut tape_rng));
        assert_sequential("tape source", &tape_served, seed);

        let mut plain_rng = rng_from_seed(seed);
        let plain_served = serve(&ops, &mut RngDraws::new(&mut plain_rng));
        assert_sequential("rng provider", &plain_served, seed);

        let mut scratch = SvtScratch::new();
        let mut scratch_rng = rng_from_seed(seed);
        let scratch_served =
            serve(&ops, &mut ScratchDraws::new(&mut scratch, &mut scratch_rng));
        assert_sequential("scratch provider", &scratch_served, seed);

        // The two draw-exact providers consume identically: element-wise
        // bit equality.
        prop_assert_eq!(tape_served.len(), plain_served.len());
        for (i, (a, b)) in tape_served.iter().zip(&plain_served).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "tape vs rng, draw {i}");
        }

        // With multi-tuple consumption disabled every provider consumes the
        // same draws — the tape↔scratch order equivalence, element for
        // element.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        let mut tape_rng = rng_from_seed(seed);
        let tape_single = serve(&single_ops, &mut TapeSource::record(&mut tape_rng));
        let mut scratch = SvtScratch::new();
        let mut scratch_rng = rng_from_seed(seed);
        let scratch_single =
            serve(&single_ops, &mut ScratchDraws::new(&mut scratch, &mut scratch_rng));
        prop_assert_eq!(tape_single.len(), scratch_single.len());
        for (i, (a, b)) in tape_single.iter().zip(&scratch_single).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "tape vs scratch, draw {i}");
        }
    }

    /// The per-block provider is thread-invariant: [`ParallelDraws`] at 2
    /// and 4 threads serves bit-identical streams to the sequential
    /// reference (`threads = 1`, the sequential block engines) through any
    /// interleaving of the draw shapes, a reset provider
    /// replays a fresh one exactly, and the scalar draws obey the usual
    /// stream discipline on the reserved scalar sub-stream
    /// (`derive_fast_stream(seed, SCALAR_STREAM)`).
    #[test]
    fn block_providers_are_thread_invariant(
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..40,
        seed in 0u64..100_000,
    ) {
        let ops = random_ops(ops_seed, op_count);
        // Both providers run the same internal tape, so slab sizes (and
        // hence multi-tuple consumption) agree — no `single()` needed.
        let mut seq = ParallelDraws::new(seed, 1);
        let seq_served = serve(&ops, &mut seq);
        for threads in [2usize, 4] {
            let mut par = ParallelDraws::new(seed, threads);
            let par_served = serve(&ops, &mut par);
            prop_assert_eq!(seq_served.len(), par_served.len());
            for (i, (a, b)) in seq_served.iter().zip(&par_served).enumerate() {
                assert_eq!(
                    a.1.to_bits(),
                    b.1.to_bits(),
                    "seq vs {threads}-thread par, draw {i}"
                );
            }
        }

        // Rebinding to the same run seed replays the stream exactly —
        // buffer history from the first serve is invisible. Single-tuple
        // consumption, as in `scratch_reuse_is_invisible`: warm tape state
        // may expose larger (value-identical) slabs per peek.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        seq.reset(seed);
        let reset_served = serve(&single_ops, &mut seq);
        let mut fresh = ParallelDraws::new(seed, 1);
        let fresh_served = serve(&single_ops, &mut fresh);
        prop_assert_eq!(fresh_served.len(), reset_served.len());
        for (i, (a, b)) in fresh_served.iter().zip(&reset_served).enumerate() {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "fresh vs reset, draw {i}");
        }

        // Bulk fills consume block streams, not the scalar stream, so an
        // interleaving without them must match sequential sampling on the
        // scalar sub-stream alone.
        let scalar_ops: Vec<Op> = ops
            .iter()
            .filter(|op| !matches!(op, Op::Fill(..)))
            .cloned()
            .collect();
        let mut scalar_provider = ParallelDraws::new(seed, 1);
        let scalar_served = serve(&scalar_ops, &mut scalar_provider);
        assert_sequential_on(
            "block scalar stream",
            &scalar_served,
            derive_fast_stream(seed, free_gap_noise::par::SCALAR_STREAM),
        );
    }

    /// A scratch provider reused across runs (dirty block state, stale
    /// prediction, a stale peeked slab) still serves the same
    /// stream as a fresh one: `begin` fully isolates runs.
    #[test]
    fn scratch_reuse_is_invisible(
        warm_seed in 0u64..1_000_000,
        warm_count in 0usize..20,
        ops_seed in 0u64..1_000_000,
        op_count in 1usize..20,
        seed in 0u64..100_000,
    ) {
        let warm_ops = random_ops(warm_seed, warm_count);
        let ops = random_ops(ops_seed, op_count);
        let mut dirty = SvtScratch::new();
        {
            let mut warm_rng = rng_from_seed(seed.wrapping_add(1));
            serve(&warm_ops, &mut ScratchDraws::new(&mut dirty, &mut warm_rng));
        }
        // Single-tuple consumption so the dirty and fresh runs consume
        // identically regardless of history-dependent slab sizes.
        let single_ops: Vec<Op> = ops.iter().map(Op::single).collect();
        let mut dirty_rng = rng_from_seed(seed);
        let dirty_served =
            serve(&single_ops, &mut ScratchDraws::new(&mut dirty, &mut dirty_rng));
        assert_sequential("dirty scratch", &dirty_served, seed);

        let mut fresh = SvtScratch::new();
        let mut fresh_rng = rng_from_seed(seed);
        let fresh_served =
            serve(&single_ops, &mut ScratchDraws::new(&mut fresh, &mut fresh_rng));

        prop_assert_eq!(dirty_served.len(), fresh_served.len());
        for i in 0..dirty_served.len() {
            assert_eq!(
                dirty_served[i].1.to_bits(),
                fresh_served[i].1.to_bits(),
                "draw {i}"
            );
        }
    }
}
