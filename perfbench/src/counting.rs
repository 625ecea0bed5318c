//! A generator wrapper that counts the raw words drawn through it.

use rand::RngCore;

/// Forwards to `inner` and counts every `next_u32`/`next_u64` call, so a
/// run's exact RNG consumption can be read off without touching the
/// program. Byte fills go through the trait's default, which draws
/// `next_u64` and is counted there.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    words: u64,
}

impl<R> CountingRng<R> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: R) -> Self {
        Self { inner, words: 0 }
    }

    /// Words drawn so far.
    pub fn words(&self) -> u64 {
        self.words
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use free_gap_noise::rng::rng_from_seed;

    #[test]
    fn counts_words_and_forwards_the_stream() {
        let mut plain = rng_from_seed(9);
        let mut counted = CountingRng::new(rng_from_seed(9));
        for _ in 0..5 {
            assert_eq!(plain.next_u64(), counted.next_u64());
        }
        assert_eq!(plain.next_u32(), counted.next_u32());
        assert_eq!(counted.words(), 6);
    }
}
