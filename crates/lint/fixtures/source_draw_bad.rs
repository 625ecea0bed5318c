//! R1 power-check fixture — a provider-generic core that also holds a
//! `NoiseSource` and draws from it directly.
//!
//! Every draw a core makes must come through its provider: that is what
//! lets one core run on the dyn reference, the blocked tape and the
//! per-block layout with bit-identical results. A direct `source.draw(…)`
//! beside the provider consumes a stream the provider does not see, so the
//! recorded tape no longer matches what the core served, and the scratch
//! path (which has no source at all) cannot reproduce it.

fn run_core<P: DrawProvider>(
    provider: &mut P,
    source: &mut dyn NoiseSource,
    noise: Noise,
    threshold: f64,
) -> f64 {
    let rho = provider.next(noise);
    rho + threshold + source.draw(&noise)
}
