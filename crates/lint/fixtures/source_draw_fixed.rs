//! R1 power-check fixture — the shipped shape. Must lint clean.
//!
//! The core draws only through its provider; the dyn source reaches it
//! wrapped in the `SourceDraws` adapter, whose draw-exact forwarding is
//! exempt from the rule.

fn run_core<P: DrawProvider>(provider: &mut P, noise: Noise, threshold: f64) -> f64 {
    let rho = provider.next(noise);
    rho + threshold + provider.next(noise)
}

impl DrawProvider for SourceDraws<'_> {
    fn next(&mut self, noise: Noise) -> f64 {
        self.source.draw(&noise)
    }
}
