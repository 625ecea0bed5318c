//! One noise spec for every draw: the family is a parameter of the draw.
//!
//! The paper's free gaps do not depend on which noise family the selection
//! draws, so the draw interfaces above this crate (the draw providers of
//! `free-gap-core`, the alignment crate's noise sources) take a [`Noise`]
//! value instead of carrying one method per family. A `Noise` wraps an
//! already-constructed distribution: it is validated once, where a mechanism
//! derives its parameters, and every draw after that is infallible.
//!
//! Every family here is a pure transform of a fixed number of uniforms
//! ([`uniforms`](Noise::uniforms)): one for Laplace, discrete Laplace,
//! Gumbel and Exponential, four for the staircase. That is what lets the
//! raw-uniform tape ([`crate::BlockBuffer`]) serve any interleaving of
//! families in sequential draw order.

use crate::traits::{ContinuousDistribution, DiscreteDistribution, SingleUniform};
use crate::{DiscreteLaplace, Exponential, Gumbel, Laplace, Staircase};
use rand::Rng;

/// A validated noise distribution of any family a mechanism draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// Zero-mean `Lap(b)`.
    Laplace(Laplace),
    /// Discrete Laplace over the lattice `{kγ}`.
    DiscreteLaplace(DiscreteLaplace),
    /// Standard-shape (location 0) Gumbel — the exponential-mechanism race.
    Gumbel(Gumbel),
    /// One-sided exponential.
    Exp(Exponential),
    /// Geng–Viswanath staircase.
    Staircase(Staircase),
}

impl Noise {
    /// One draw. Consumes [`uniforms`](Self::uniforms) uniforms of `rng`,
    /// bit-identical to the family's own sampler. Always inlined, so a call
    /// with a spec of known family compiles to that family's sampler alone.
    #[inline(always)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Noise::Laplace(d) => d.sample(rng),
            Noise::DiscreteLaplace(d) => d.sample_value(rng),
            Noise::Gumbel(d) => d.sample(rng),
            Noise::Exp(d) => d.sample(rng),
            Noise::Staircase(d) => d.sample(rng),
        }
    }

    /// Fused offset fill `out[i] = base[i] + draw`, one draw per element in
    /// index order through the family's batched sampler. Bit-identical to a
    /// [`sample`](Self::sample) loop on the same stream.
    ///
    /// # Panics
    /// Panics if `base` and `out` have different lengths.
    #[inline]
    pub fn fill_into_offset<R: Rng + ?Sized>(&self, rng: &mut R, base: &[f64], out: &mut [f64]) {
        match self {
            Noise::Laplace(d) => d.fill_into_offset(rng, base, out),
            Noise::DiscreteLaplace(d) => d.fill_values_into_offset(rng, base, out),
            Noise::Gumbel(d) => d.fill_into_offset(rng, base, out),
            Noise::Exp(d) => d.fill_into_offset(rng, base, out),
            Noise::Staircase(d) => d.fill_into_offset(rng, base, out),
        }
    }

    /// Uniforms one draw consumes: 4 for the staircase's four-variable
    /// representation, 1 for every other family.
    #[inline]
    pub fn uniforms(&self) -> usize {
        match self {
            Noise::Staircase(_) => Staircase::URANDS,
            _ => 1,
        }
    }

    /// One draw as a pure transform of `u[..self.uniforms()]` — the hook the
    /// raw-uniform tape serves every family through. `sample(rng)` equals
    /// `from_uniforms` over the next `uniforms()` uniforms of `rng`.
    ///
    /// # Panics
    /// Panics if `u` holds fewer than [`uniforms`](Self::uniforms) values.
    #[inline]
    pub fn from_uniforms(&self, u: &[f64]) -> f64 {
        match self {
            Noise::Laplace(d) => d.sample_from_uniform(u[0]),
            Noise::DiscreteLaplace(d) => d.value_from_uniform(u[0]),
            Noise::Gumbel(d) => d.sample_from_uniform(u[0]),
            Noise::Exp(d) => d.sample_from_uniform(u[0]),
            Noise::Staircase(d) => d.sample_from_uniforms([u[0], u[1], u[2], u[3]]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn all() -> [Noise; 5] {
        [
            Noise::Laplace(Laplace::new(2.5).unwrap()),
            Noise::DiscreteLaplace(DiscreteLaplace::new(0.4, 0.5).unwrap()),
            Noise::Gumbel(Gumbel::new(1.5).unwrap()),
            Noise::Exp(Exponential::new(0.7).unwrap()),
            Noise::Staircase(Staircase::new(0.8, 1.0, 0.3).unwrap()),
        ]
    }

    #[test]
    fn sample_matches_from_uniforms_bitwise() {
        for noise in all() {
            let mut a = rng_from_seed(4);
            let mut b = rng_from_seed(4);
            for _ in 0..200 {
                let u: Vec<f64> = (0..noise.uniforms()).map(|_| b.gen()).collect();
                let (x, y) = (noise.sample(&mut a), noise.from_uniforms(&u));
                assert_eq!(x.to_bits(), y.to_bits(), "{noise:?}");
            }
        }
    }

    #[test]
    fn fill_into_offset_matches_sample_loop_bitwise() {
        let base: Vec<f64> = (0..700).map(|i| i as f64 * 0.5 - 9.0).collect();
        for noise in all() {
            let mut fused = vec![0.0; base.len()];
            noise.fill_into_offset(&mut rng_from_seed(8), &base, &mut fused);
            let mut rng = rng_from_seed(8);
            for (i, (&b, &f)) in base.iter().zip(&fused).enumerate() {
                let want = b + noise.sample(&mut rng);
                assert_eq!(want.to_bits(), f.to_bits(), "{noise:?} slot {i}");
            }
        }
    }
}
