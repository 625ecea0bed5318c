//! R1 power-check fixture — the shipped shape. Must lint clean.
//!
//! The core draws only through its provider; the record/replay tape
//! reaches it as a provider itself, through the `DrawProvider` impl for
//! `TapeSource`, whose draw-exact forwarding is exempt from the rule.

fn run_core<P: DrawProvider>(provider: &mut P, noises: &[Noise], threshold: f64) -> f64 {
    let rho = provider.next(noises[0]);
    rho + threshold + provider.next(noises[0]) + provider.peek(noises)[0]
}

impl DrawProvider for TapeSource<'_> {
    fn next(&mut self, noise: Noise) -> f64 {
        self.draw(&noise)
    }

    fn peek(&mut self, noises: &[Noise]) -> &[f64] {
        check_tuple(noises);
        self.draw_tuple(noises)
    }
}
