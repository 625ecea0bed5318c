//! Machine-speed calibration for the end-to-end timings.
//!
//! On a shared machine the speed available to one thread drifts by ±20%
//! for seconds at a time as neighbours come and go, and a whole run can
//! land in a slow stretch. The benchmark therefore interleaves a fixed
//! calibration loop with the ops it times (about every 200 µs of work) and
//! scales each timing by how fast that loop ran just then: a timing is
//! reported as it would read on a machine where one loop iteration takes
//! [`REFERENCE_NS_PER_ITER`]. The loop is the benchmark's own code (a
//! SplitMix64 step and one `ln`), so no change to the repository's crates
//! can move it; only the machine can.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The iteration time every scaled timing is reported against.
pub const REFERENCE_NS_PER_ITER: f64 = 10.0;
/// Iterations per probe (about 10 µs).
const PROBE_ITERS: u32 = 1000;
/// Work between probes.
const PROBE_EVERY: Duration = Duration::from_micros(200);
/// Weight of the newest probe in the running estimate. Slow stretches can
/// be a few milliseconds long, so the estimate follows probes closely.
const SMOOTHING: f64 = 1.0 / 2.0;

/// One run of the calibration loop: nanoseconds per iteration.
pub fn probe(salt: u64) -> f64 {
    let t0 = Instant::now();
    let mut state = salt;
    let mut acc = 0.0f64;
    for _ in 0..PROBE_ITERS {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        acc += ((z >> 11) as f64 + 1.0).ln();
    }
    black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(PROBE_ITERS)
}

/// The machine's current speed, from probes taken as work goes on.
#[derive(Debug, Clone)]
pub struct Speed {
    ns_per_iter: f64,
    next_probe: Instant,
    probes: u64,
}

impl Speed {
    /// Starts from the mean of a few probes.
    pub fn new() -> Self {
        let ns_per_iter = (0..8).map(probe).sum::<f64>() / 8.0;
        Self {
            ns_per_iter,
            next_probe: Instant::now() + PROBE_EVERY,
            probes: 8,
        }
    }

    /// How much slower than the reference the machine runs now: divide a
    /// measured time by it, or multiply a measured rate.
    pub fn factor(&self) -> f64 {
        self.ns_per_iter / REFERENCE_NS_PER_ITER
    }

    /// Probes when due and returns the time the probe took, which the
    /// caller leaves out of its measured work.
    pub fn tick(&mut self) -> Duration {
        let now = Instant::now();
        if now < self.next_probe {
            return Duration::ZERO;
        }
        self.probes += 1;
        self.ns_per_iter += (probe(self.probes) - self.ns_per_iter) * SMOOTHING;
        let done = Instant::now();
        self.next_probe = done + PROBE_EVERY;
        done - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_and_factor_are_positive_and_finite() {
        let mut speed = Speed::new();
        assert!(speed.factor().is_finite() && speed.factor() > 0.0);
        std::thread::sleep(PROBE_EVERY);
        assert!(speed.tick() > Duration::ZERO);
        assert_eq!(speed.tick(), Duration::ZERO);
    }
}
