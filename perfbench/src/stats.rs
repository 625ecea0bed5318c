//! Latency histogram and order statistics.
//!
//! Latencies go into a fixed-size histogram rather than a sample vector,
//! so the process's peak memory does not grow with throughput (a faster
//! build would otherwise read as a memory regression). It is small (60 KB)
//! so that recording a sample stays in cache.

/// Values below this many nanoseconds get exact 1-ns buckets.
const LINEAR_NS: u64 = 1 << LINEAR_EXP;
const LINEAR_EXP: u32 = 12;
/// Log-spaced sub-buckets per power of two above [`LINEAR_NS`] (2^7: under
/// 0.8% relative width, interpolated by rank inside the bucket).
const SUB_BITS: u32 = 7;
/// First power of two above the histogram's range (2^40 ns ≈ 18 minutes).
const MAX_EXP: u32 = 40;

/// Samples beyond a reported percentile needed before it is trusted.
const MIN_TAIL_SAMPLES: u64 = 10;

/// Latency histogram over nanoseconds.
#[derive(Debug, Clone)]
pub struct Hist {
    linear: Vec<u64>,
    log: Vec<u64>,
    count: u64,
    sum_ns: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            linear: vec![0; LINEAR_NS as usize],
            log: vec![0; ((MAX_EXP - LINEAR_EXP) as usize) << SUB_BITS],
            count: 0,
            sum_ns: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        if ns < LINEAR_NS {
            self.linear[ns as usize] += 1;
        } else {
            let exp = (63 - ns.leading_zeros()).min(MAX_EXP - 1);
            let sub = (ns.min((1 << MAX_EXP) - 1) >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
            self.log[(((exp - LINEAR_EXP) as usize) << SUB_BITS) + sub as usize] += 1;
        }
        self.count += 1;
        self.sum_ns += ns as f64;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.linear.iter_mut().zip(&other.linear) {
            *a += b;
        }
        for (a, b) in self.log.iter_mut().zip(&other.log) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    /// `(lower edge, width)` of every bucket, in order, with its count.
    fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let linear = self
            .linear
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64, 1.0, c));
        let log = self.log.iter().enumerate().map(|(i, &c)| {
            let exp = LINEAR_EXP + (i >> SUB_BITS) as u32;
            let width = (1u64 << (exp - SUB_BITS)) as f64;
            let lo = (1u64 << exp) as f64 + (i & ((1 << SUB_BITS) - 1)) as f64 * width;
            (lo, width, c)
        });
        linear.chain(log)
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds, by nearest rank,
    /// interpolated inside its bucket. Errors when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it, since such a tail value
    /// is one or two outliers.
    pub fn percentile(&self, q: f64) -> Result<f64, String> {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let beyond = self.count.saturating_sub(rank);
        if self.count == 0 || beyond < MIN_TAIL_SAMPLES {
            return Err(format!(
                "p{} needs at least {MIN_TAIL_SAMPLES} samples beyond it; have {} of {}",
                q * 100.0,
                beyond,
                self.count
            ));
        }
        let mut before = 0u64;
        for (lo, width, c) in self.buckets() {
            if c > 0 && before + c >= rank {
                let within = (rank - before) as f64 - 0.5;
                return Ok(lo + width * within / c as f64);
            }
            before += c;
        }
        unreachable!("rank {rank} is within count {}", self.count)
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Mean and standard error of a sample of at least two values.
pub fn mean_and_stderr(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_give_exact_ranks() {
        let mut h = Hist::new();
        for ns in 1..=1000 {
            h.record(ns);
        }
        // Rank 500 sits alone in the 500-ns bucket: its midpoint.
        assert_eq!(h.percentile(0.5).unwrap(), 500.5);
        assert_eq!(h.percentile(0.99).unwrap(), 990.5);
        assert_eq!(h.mean_ns(), 500.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut h = Hist::new();
        for ns in 0..999 {
            h.record(ns);
        }
        // 999 samples: rank 990 leaves only 9 beyond p99.
        assert!(h.percentile(0.99).is_err());
        h.record(5);
        assert!(h.percentile(0.99).is_ok());
        assert!(Hist::new().percentile(0.5).is_err());
    }

    #[test]
    fn log_buckets_bound_the_relative_error() {
        let mut h = Hist::new();
        let values: Vec<u64> = (0..5000u64).map(|i| 100_000 + i * 997).collect();
        for &v in &values {
            h.record(v);
        }
        let p50 = h.percentile(0.5).unwrap();
        let exact = values[2499] as f64;
        assert!(
            (p50 - exact).abs() / exact < 1.0 / 128.0,
            "{p50} vs {exact}"
        );
        // The top of the range saturates instead of indexing out of bounds.
        h.record(u64::MAX);
        assert_eq!(h.count(), 5001);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        for ns in 0..600 {
            a.record(ns);
            b.record(ns + 600);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1200);
        assert_eq!(a.percentile(0.5).unwrap(), 599.5);
    }

    #[test]
    fn median_and_stderr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (m, se) = mean_and_stderr(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, 2.5);
        // Sample variance 5/3 over n = 4.
        assert!((se - (5.0f64 / 12.0).sqrt()).abs() < 1e-15);
    }
}
