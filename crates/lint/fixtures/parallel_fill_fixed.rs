//! R1 power-check fixture — the shipped per-block fill. Must lint clean.
//!
//! Bulk fills reserve the run's next block indices and delegate to the
//! block engine, which derives one sub-stream per block index; scalar
//! draws ride the reserved scalar stream through the internal tape. No
//! method of the provider touches a raw generator.

impl DrawProvider for ParallelDraws {
    fn fill(&mut self, base: &[f64], noise: Noise, out: &mut Vec<f64>) {
        out.resize(base.len(), 0.0);
        let first = self.next_block;
        self.next_block = first.wrapping_add(par::blocks_for(base.len()));
        let (seed, threads) = (self.run_seed, self.threads);
        // (The Gumbel, Exponential and staircase arms are the same call.)
        match noise {
            Noise::Laplace(d) => par::par_fill_offset_blocks(&d, seed, first, threads, base, out),
            Noise::DiscreteLaplace(d) => {
                par::par_fill_values_offset_blocks(&d, seed, first, threads, base, out);
            }
        }
    }

    fn next(&mut self, noise: Noise) -> f64 {
        self.tape.next(&mut self.scalar_rng, noise)
    }
}
