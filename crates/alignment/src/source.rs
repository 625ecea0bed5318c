//! Noise sources: the sampling interface mechanisms draw through.
//!
//! Mechanisms take `&mut dyn NoiseSource` instead of an RNG directly and
//! request every draw as one [`Noise`] spec — the family is a parameter of
//! the draw. In production they are driven by a [`RecordingSource`] (fresh
//! samples; the recording costs one `Vec` push per draw). In alignment
//! checks the *same mechanism code* is re-run against a [`ReplaySource`]
//! loaded with the aligned tape `H' = φ(H)`, which also verifies that the
//! second execution requests draws with exactly the same families and
//! scales in exactly the same order — any divergence means the alignment changed the draw
//! structure and the Definition-6 cost accounting would be meaningless.

use crate::tape::{DrawKind, NoiseTape};
use free_gap_noise::{DiscreteDistribution, Noise};
use rand::rngs::StdRng;

/// The sampling interface used by alignable mechanisms.
pub trait NoiseSource {
    /// Draws one variate from `noise` (any family; see [`Noise`]).
    ///
    /// # Panics
    /// Replay sources panic when the requested family or scale differs
    /// from the recorded draw (see module docs).
    fn draw(&mut self, noise: &Noise) -> f64;

    /// Number of draws served so far.
    fn draws_taken(&self) -> usize;
}

/// The recorded Definition-6 scale `αᵢ` and family of a draw from `noise`.
///
/// Laplace, Gumbel and Exponential record their scale; discrete Laplace
/// records `1/ε` (so a shift of `Δ` costs `ε·|Δ|`, the discrete analogue of
/// the Laplace accounting); the staircase records `Δ/ε`. Gumbel,
/// Exponential and staircase draws carry no Definition-6 accounting (see
/// [`DrawKind`]) — replay verifies their family and scale only.
fn draw_record(noise: &Noise) -> (f64, DrawKind) {
    match noise {
        Noise::Laplace(d) => (d.scale(), DrawKind::Laplace),
        Noise::DiscreteLaplace(d) => (
            1.0 / d.epsilon(),
            DrawKind::DiscreteLaplace { gamma: d.base() },
        ),
        Noise::Gumbel(d) => (d.scale(), DrawKind::Gumbel),
        Noise::Exp(d) => (d.scale(), DrawKind::Exponential),
        Noise::Staircase(d) => (
            d.sensitivity() / d.epsilon(),
            DrawKind::Staircase {
                sensitivity: d.sensitivity(),
                gamma: d.gamma(),
            },
        ),
    }
}

/// Samples fresh noise from an RNG and records every draw.
pub struct RecordingSource<'a> {
    rng: &'a mut StdRng,
    tape: NoiseTape,
}

impl<'a> RecordingSource<'a> {
    /// Creates a recording source backed by `rng`.
    pub fn new(rng: &'a mut StdRng) -> Self {
        Self {
            rng,
            tape: NoiseTape::new(),
        }
    }

    /// Consumes the source, returning the recorded tape.
    pub fn into_tape(self) -> NoiseTape {
        self.tape
    }

    /// The tape recorded so far.
    pub fn tape(&self) -> &NoiseTape {
        &self.tape
    }
}

impl NoiseSource for RecordingSource<'_> {
    fn draw(&mut self, noise: &Noise) -> f64 {
        let v = noise.sample(self.rng);
        let (scale, kind) = draw_record(noise);
        self.tape.push_kind(v, scale, kind);
        v
    }

    fn draws_taken(&self) -> usize {
        self.tape.len()
    }
}

/// Samples fresh noise without recording — the zero-overhead production
/// path. Use [`RecordingSource`] only when a tape is actually needed.
pub struct SamplingSource<'a> {
    rng: &'a mut StdRng,
    count: usize,
}

impl<'a> SamplingSource<'a> {
    /// Creates a sampling source backed by `rng`.
    pub fn new(rng: &'a mut StdRng) -> Self {
        Self { rng, count: 0 }
    }
}

impl NoiseSource for SamplingSource<'_> {
    fn draw(&mut self, noise: &Noise) -> f64 {
        self.count += 1;
        noise.sample(self.rng)
    }

    fn draws_taken(&self) -> usize {
        self.count
    }
}

/// Replays a pre-built (typically aligned) tape, verifying draw structure.
pub struct ReplaySource {
    tape: NoiseTape,
    cursor: usize,
    overrun: usize,
}

impl ReplaySource {
    /// Creates a replay source over `tape`.
    pub fn new(tape: NoiseTape) -> Self {
        Self {
            tape,
            cursor: 0,
            overrun: 0,
        }
    }

    /// Number of unconsumed draws remaining.
    pub fn remaining(&self) -> usize {
        self.tape.len() - self.cursor
    }

    /// Draws requested *beyond* the tape's end. Non-zero means the aligned
    /// execution took a longer path than the original — a divergence the
    /// checker reports (broken alignments do this when a decision flips and
    /// the replayed run keeps going past the original stopping point).
    pub fn overrun(&self) -> usize {
        self.overrun
    }

    /// True when every recorded draw has been consumed — the paper's
    /// condition (ii) of Lemma 1 (the number of variables used is determined
    /// by the output) implies a complete replay must drain the tape.
    pub fn fully_consumed(&self) -> bool {
        self.remaining() == 0
    }
}

impl ReplaySource {
    /// Shared replay step: validates scale and family, returns the value.
    fn next_draw(&mut self, scale: f64, kind: DrawKind) -> f64 {
        if self.cursor >= self.tape.len() {
            self.overrun += 1;
            return 0.0;
        }
        let d = self.tape.draw(self.cursor);
        assert!(
            (d.scale - scale).abs() <= 1e-12 * d.scale.max(scale).max(1.0),
            "draw {}: aligned execution requested scale {scale} but original drew at {}",
            self.cursor,
            d.scale
        );
        assert!(
            d.kind == kind,
            "draw {}: aligned execution requested {kind:?} but original drew {:?}",
            self.cursor,
            d.kind
        );
        self.cursor += 1;
        d.value
    }
}

impl NoiseSource for ReplaySource {
    /// Returns the next recorded draw. Past the tape's end, records the
    /// overrun and returns 0.0 — the run's output is already known to
    /// diverge at that point, so the value is immaterial; the checker turns
    /// a non-zero [`overrun`](ReplaySource::overrun) into an error.
    fn draw(&mut self, noise: &Noise) -> f64 {
        let (scale, kind) = draw_record(noise);
        self.next_draw(scale, kind)
    }

    fn draws_taken(&self) -> usize {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;
    use free_gap_noise::{ContinuousDistribution, Exponential, Gumbel, Laplace, Staircase};

    fn lap(scale: f64) -> Noise {
        Noise::Laplace(Laplace::new(scale).unwrap())
    }

    #[test]
    fn recording_source_records_all_draws() {
        let mut rng = rng_from_seed(1);
        let mut src = RecordingSource::new(&mut rng);
        let a = src.draw(&lap(1.0));
        let b = src.draw(&lap(2.0));
        assert_eq!(src.draws_taken(), 2);
        let tape = src.into_tape();
        assert_eq!(tape.len(), 2);
        assert_eq!(tape.value(0), a);
        assert_eq!(tape.value(1), b);
        assert_eq!(tape.draw(0).scale, 1.0);
        assert_eq!(tape.draw(1).scale, 2.0);
    }

    #[test]
    fn recording_matches_direct_sampling() {
        // Same rng stream => same values as sampling the distribution directly.
        let mut rng1 = rng_from_seed(9);
        let mut rng2 = rng_from_seed(9);
        let mut src = RecordingSource::new(&mut rng1);
        let v = src.draw(&lap(3.0));
        let direct = Laplace::new(3.0).unwrap().sample(&mut rng2);
        assert_eq!(v, direct);
    }

    #[test]
    fn sampling_source_matches_recording_stream() {
        let mut rng1 = rng_from_seed(6);
        let mut rng2 = rng_from_seed(6);
        let mut fast = SamplingSource::new(&mut rng1);
        let mut rec = RecordingSource::new(&mut rng2);
        for scale in [1.0, 2.0, 0.5] {
            assert_eq!(fast.draw(&lap(scale)), rec.draw(&lap(scale)));
        }
        assert_eq!(fast.draws_taken(), 3);
    }

    #[test]
    fn baseline_families_record_and_replay() {
        // Gumbel/Exponential/Staircase draws: recording matches direct
        // sampling, the tape carries the right kinds, and replay verifies
        // family fidelity.
        let mut rng1 = rng_from_seed(17);
        let mut rng2 = rng_from_seed(17);
        let mut rec = RecordingSource::new(&mut rng1);
        let g = rec.draw(&Noise::Gumbel(Gumbel::new(2.0).unwrap()));
        let e = rec.draw(&Noise::Exp(Exponential::new(0.5).unwrap()));
        let s = rec.draw(&Noise::Staircase(Staircase::new(1.0, 1.0, 0.25).unwrap()));
        assert_eq!(g, Gumbel::new(2.0).unwrap().sample(&mut rng2));
        assert_eq!(e, Exponential::new(0.5).unwrap().sample(&mut rng2));
        assert_eq!(s, Staircase::new(1.0, 1.0, 0.25).unwrap().sample(&mut rng2));
        let tape = rec.into_tape();
        assert_eq!(tape.draw(0).kind, DrawKind::Gumbel);
        assert_eq!(tape.draw(1).kind, DrawKind::Exponential);
        assert_eq!(
            tape.draw(2).kind,
            DrawKind::Staircase {
                sensitivity: 1.0,
                gamma: 0.25
            }
        );
        let mut replay = ReplaySource::new(tape);
        assert_eq!(replay.draw(&Noise::Gumbel(Gumbel::new(2.0).unwrap())), g);
        assert_eq!(replay.draw(&Noise::Exp(Exponential::new(0.5).unwrap())), e);
        assert_eq!(
            replay.draw(&Noise::Staircase(Staircase::new(1.0, 1.0, 0.25).unwrap())),
            s
        );
        assert!(replay.fully_consumed());
    }

    #[test]
    fn discrete_draws_record_the_reciprocal_rate() {
        use free_gap_noise::DiscreteLaplace;
        let noise = Noise::DiscreteLaplace(DiscreteLaplace::new(0.4, 0.5).unwrap());
        let mut rng = rng_from_seed(3);
        let mut rec = RecordingSource::new(&mut rng);
        let v = rec.draw(&noise);
        let d = rec.tape().draw(0);
        assert_eq!(d.scale, 1.0 / 0.4);
        assert_eq!(d.kind, DrawKind::DiscreteLaplace { gamma: 0.5 });
        let mut replay = ReplaySource::new(rec.into_tape());
        assert_eq!(replay.draw(&noise), v);
    }

    #[test]
    #[should_panic(expected = "requested")]
    fn replay_panics_on_family_divergence() {
        let mut tape = NoiseTape::new();
        tape.push_kind(0.0, 1.0, DrawKind::Gumbel);
        let mut src = ReplaySource::new(tape);
        src.draw(&Noise::Exp(Exponential::new(1.0).unwrap()));
    }

    #[test]
    fn replay_returns_tape_values_in_order() {
        let mut tape = NoiseTape::new();
        tape.push(0.25, 1.0);
        tape.push(-1.5, 2.0);
        let mut src = ReplaySource::new(tape);
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.draw(&lap(1.0)), 0.25);
        assert_eq!(src.draw(&lap(2.0)), -1.5);
        assert!(src.fully_consumed());
    }

    #[test]
    fn replay_records_overrun_past_tape_end() {
        let mut src = ReplaySource::new(NoiseTape::new());
        assert_eq!(src.overrun(), 0);
        assert_eq!(src.draw(&lap(1.0)), 0.0);
        assert_eq!(src.draw(&lap(1.0)), 0.0);
        assert_eq!(src.overrun(), 2);
        assert_eq!(src.draws_taken(), 0);
    }

    #[test]
    #[should_panic(expected = "requested scale")]
    fn replay_panics_on_scale_divergence() {
        let mut tape = NoiseTape::new();
        tape.push(0.0, 1.0);
        let mut src = ReplaySource::new(tape);
        src.draw(&lap(2.0));
    }
}
