//! R1 power-check fixture — a provider-generic core that also holds the
//! alignment checker's `TapeSource` and draws from it directly.
//!
//! Every draw a core makes must come through its provider: that is what
//! lets one core run on the reference path, the blocked tape, the
//! per-block layout and the record/replay tape with bit-identical results.
//! A direct `tape.draw(…)` beside the provider consumes a stream the
//! provider does not see, so the recorded tape no longer matches what the
//! core served, and the scratch path (which has no tape at all) cannot
//! reproduce it.

fn run_core<P: DrawProvider>(
    provider: &mut P,
    tape: &mut TapeSource<'_>,
    noises: &[Noise],
    threshold: f64,
) -> f64 {
    let rho = provider.next(noises[0]);
    rho + threshold + tape.draw(&noises[0]) + tape.draw_tuple(noises)[0]
}

/// The same leak through a recorder the core builds for itself.
fn measure_core<P: DrawProvider>(provider: &mut P, rng: &mut StdRng, noise: Noise) -> f64 {
    let mut recorder = TapeSource::record(rng);
    provider.next(noise) + recorder.draw(&noise)
}
