//! R1 power-check fixture — the shipped fix. Must lint clean.
//!
//! Every family is served from the shared raw-uniform tape, and the
//! provider-generic core draws only through `DrawProvider` methods. The
//! draw-exact providers (`RngDraws`, `TapeSource`) legitimately sample
//! directly — the rule must not fire on them.

impl<R: Rng + ?Sized> DrawProvider for ScratchDraws<'_, R> {
    #[inline]
    fn next(&mut self, noise: Noise) -> f64 {
        // Served from the shared raw-uniform tape: any buffered lookahead
        // is consumed first, so discrete and continuous draws interleave
        // without breaking the stream discipline.
        self.scratch.next(self.rng, noise)
    }
}

impl<'a, R: Rng + ?Sized> DrawProvider for RngDraws<'a, R> {
    fn next(&mut self, noise: Noise) -> f64 {
        // Draw-exact by design: this provider IS the raw stream.
        noise.sample(self.rng)
    }

    fn fill(&mut self, base: &[f64], noise: Noise, out: &mut Vec<f64>) {
        out.resize(base.len(), 0.0);
        noise.fill_into_offset(self.rng, base, out);
    }
}

/// Provider-generic core drawing exclusively through the provider.
fn run_core<P: DrawProvider>(provider: &mut P, threshold: f64, noise: Noise) -> f64 {
    let rho = provider.next(noise);
    let eta = provider.next(noise);
    rho + eta + threshold
}

/// Out-of-scope helper: free functions without a provider bound may touch
/// RNGs (this is where RngDraws itself gets built).
fn seed_stream(seed: u64) -> FastRng {
    rng_from_seed(seed)
}
