//! The tape source: the one noise source the alignment checker drives a
//! mechanism through.
//!
//! A [`TapeSource`] either *records* — samples fresh noise from a `StdRng`
//! and appends every draw to a [`NoiseTape`] — or *replays* a pre-built
//! (typically aligned) tape `H' = φ(H)`. Mechanisms request every draw as
//! one [`Noise`] spec, so the family is a parameter of the draw, and the
//! *same mechanism code* runs in both modes (core implements its
//! `DrawProvider` trait for this type). Replay also verifies that the
//! second execution requests draws with exactly the same families and
//! scales in exactly the same order: any divergence means the alignment
//! changed the draw structure and the Definition-6 cost accounting would be
//! meaningless, so the first one is recorded as a [`DrawMismatch`] for the
//! checker to report.

use crate::tape::{DrawKind, NoiseTape};
use free_gap_noise::{DiscreteDistribution, Noise};
use rand::rngs::StdRng;

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

/// The first replayed draw whose requested family or scale differs from
/// the recorded one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrawMismatch {
    /// Position of the draw on the tape.
    pub index: usize,
    /// Scale the original run drew with.
    pub recorded_scale: f64,
    /// Family the original run drew from.
    pub recorded_kind: DrawKind,
    /// Scale the replayed run requested.
    pub requested_scale: f64,
    /// Family the replayed run requested.
    pub requested_kind: DrawKind,
}

/// Records fresh noise from an RNG, or replays a tape while checking the
/// draw structure (see the [module docs](self)).
pub struct TapeSource<'a> {
    /// `Some` while recording; `None` while replaying.
    rng: Option<&'a mut StdRng>,
    tape: NoiseTape,
    cursor: usize,
    overrun: usize,
    mismatch: Option<DrawMismatch>,
    /// Backing store for [`draw_tuple`](Self::draw_tuple).
    tuple: Vec<f64>,
}

impl<'a> TapeSource<'a> {
    /// A recording source: fresh samples from `rng`, each appended to the
    /// tape.
    pub fn record(rng: &'a mut StdRng) -> Self {
        Self::new(Some(rng), NoiseTape::new())
    }

    /// A replaying source over `tape`.
    pub fn replay(tape: NoiseTape) -> Self {
        Self::new(None, tape)
    }

    fn new(rng: Option<&'a mut StdRng>, tape: NoiseTape) -> Self {
        Self {
            rng,
            tape,
            cursor: 0,
            overrun: 0,
            mismatch: None,
            tuple: Vec::new(),
        }
    }

    /// Draws one variate from `noise` (any family; see [`Noise`]).
    ///
    /// Recording samples and appends it. Replaying returns the next tape
    /// value; a family or scale that differs from the recorded draw is
    /// kept as the first [`mismatch`](Self::mismatch), and past the tape's
    /// end the draw counts as an [`overrun`](Self::overrun) and returns
    /// 0.0. In both cases the run's output is already known to diverge, so
    /// the value served is immaterial.
    pub fn draw(&mut self, noise: &Noise) -> f64 {
        let (scale, kind) = draw_record(noise);
        if let Some(rng) = self.rng.as_deref_mut() {
            let value = noise.sample(rng);
            self.tape.push_kind(value, scale, kind);
            self.cursor += 1;
            return value;
        }
        if self.cursor >= self.tape.len() {
            self.overrun += 1;
            return 0.0;
        }
        let d = self.tape.draw(self.cursor);
        let same_scale = (d.scale - scale).abs() <= 1e-12 * d.scale.max(scale).max(1.0);
        if self.mismatch.is_none() && !(same_scale && d.kind == kind) {
            self.mismatch = Some(DrawMismatch {
                index: self.cursor,
                recorded_scale: d.scale,
                recorded_kind: d.kind,
                requested_scale: scale,
                requested_kind: kind,
            });
        }
        self.cursor += 1;
        d.value
    }

    /// Draws one tuple, slot `b` from `noises[b]`, in slot order, and
    /// borrows the values.
    pub fn draw_tuple(&mut self, noises: &[Noise]) -> &[f64] {
        self.tuple.clear();
        for noise in noises {
            let value = self.draw(noise);
            self.tuple.push(value);
        }
        &self.tuple
    }

    /// Number of unconsumed draws remaining on a replayed tape (0 while
    /// recording).
    pub fn remaining(&self) -> usize {
        self.tape.len() - self.cursor
    }

    /// Draws requested *beyond* a replayed tape's end. Non-zero means the
    /// aligned execution took a longer path than the original — a
    /// divergence the checker reports (broken alignments do this when a
    /// decision flips and the replayed run keeps going past the original
    /// stopping point).
    pub fn overrun(&self) -> usize {
        self.overrun
    }

    /// The first replayed draw that requested a different family or scale
    /// than the tape recorded, if any.
    pub fn mismatch(&self) -> Option<DrawMismatch> {
        self.mismatch
    }

    /// True when every recorded draw has been consumed — the paper's
    /// condition (ii) of Lemma 1 (the number of variables used is determined
    /// by the output) implies a complete replay must drain the tape.
    pub fn fully_consumed(&self) -> bool {
        self.remaining() == 0
    }

    /// The tape recorded (or being replayed).
    pub fn tape(&self) -> &NoiseTape {
        &self.tape
    }

    /// Consumes the source, returning its tape.
    pub fn into_tape(self) -> NoiseTape {
        self.tape
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
        let mut src = TapeSource::record(&mut rng);
        let a = src.draw(&lap(1.0));
        let b = src.draw(&lap(2.0));
        assert!(src.fully_consumed());
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
        let mut src = TapeSource::record(&mut rng1);
        let v = src.draw(&lap(3.0));
        let direct = Laplace::new(3.0).unwrap().sample(&mut rng2);
        assert_eq!(v, direct);
    }

    #[test]
    fn baseline_families_record_and_replay() {
        // Gumbel/Exponential/Staircase draws: recording matches direct
        // sampling, the tape carries the right kinds, and replay verifies
        // family fidelity.
        let mut rng1 = rng_from_seed(17);
        let mut rng2 = rng_from_seed(17);
        let mut rec = TapeSource::record(&mut rng1);
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
        let mut replay = TapeSource::replay(tape);
        assert_eq!(replay.draw(&Noise::Gumbel(Gumbel::new(2.0).unwrap())), g);
        assert_eq!(replay.draw(&Noise::Exp(Exponential::new(0.5).unwrap())), e);
        assert_eq!(
            replay.draw(&Noise::Staircase(Staircase::new(1.0, 1.0, 0.25).unwrap())),
            s
        );
        assert!(replay.fully_consumed());
        assert_eq!(replay.mismatch(), None);
    }

    #[test]
    fn discrete_draws_record_the_reciprocal_rate() {
        use free_gap_noise::DiscreteLaplace;
        let noise = Noise::DiscreteLaplace(DiscreteLaplace::new(0.4, 0.5).unwrap());
        let mut rng = rng_from_seed(3);
        let mut rec = TapeSource::record(&mut rng);
        let v = rec.draw(&noise);
        let d = rec.tape().draw(0);
        assert_eq!(d.scale, 1.0 / 0.4);
        assert_eq!(d.kind, DrawKind::DiscreteLaplace { gamma: 0.5 });
        let mut replay = TapeSource::replay(rec.into_tape());
        assert_eq!(replay.draw(&noise), v);
    }

    #[test]
    fn replay_records_family_divergence() {
        let mut tape = NoiseTape::new();
        tape.push_kind(0.0, 1.0, DrawKind::Gumbel);
        tape.push_kind(0.5, 1.0, DrawKind::Gumbel);
        let mut src = TapeSource::replay(tape);
        let gumbel = Noise::Gumbel(Gumbel::new(1.0).unwrap());
        assert_eq!(src.draw(&gumbel), 0.0);
        src.draw(&Noise::Exp(Exponential::new(1.0).unwrap()));
        // A later divergence does not replace the first.
        src.draw(&lap(3.0));
        assert_eq!(
            src.mismatch(),
            Some(DrawMismatch {
                index: 1,
                recorded_scale: 1.0,
                recorded_kind: DrawKind::Gumbel,
                requested_scale: 1.0,
                requested_kind: DrawKind::Exponential,
            })
        );
    }

    #[test]
    fn replay_returns_tape_values_in_order() {
        let mut tape = NoiseTape::new();
        tape.push(0.25, 1.0);
        tape.push(-1.5, 2.0);
        let mut src = TapeSource::replay(tape);
        assert_eq!(src.remaining(), 2);
        assert_eq!(src.draw(&lap(1.0)), 0.25);
        assert_eq!(src.draw(&lap(2.0)), -1.5);
        assert!(src.fully_consumed());
        assert_eq!(src.mismatch(), None);
    }

    #[test]
    fn replay_records_overrun_past_tape_end() {
        let mut src = TapeSource::replay(NoiseTape::new());
        assert_eq!(src.overrun(), 0);
        assert_eq!(src.draw(&lap(1.0)), 0.0);
        assert_eq!(src.draw(&lap(1.0)), 0.0);
        assert_eq!(src.overrun(), 2);
        assert_eq!(src.remaining(), 0);
        assert_eq!(src.mismatch(), None);
    }

    #[test]
    fn replay_records_scale_divergence() {
        let mut tape = NoiseTape::new();
        tape.push(0.75, 1.0);
        let mut src = TapeSource::replay(tape);
        assert_eq!(src.draw(&lap(2.0)), 0.75);
        assert!(src.fully_consumed());
        assert_eq!(
            src.mismatch(),
            Some(DrawMismatch {
                index: 0,
                recorded_scale: 1.0,
                recorded_kind: DrawKind::Laplace,
                requested_scale: 2.0,
                requested_kind: DrawKind::Laplace,
            })
        );
    }
}
