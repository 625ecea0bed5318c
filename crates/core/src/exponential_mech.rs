//! Exponential mechanism for private selection (McSherry & Talwar) — the
//! related-work baseline of §2.
//!
//! Selects index `i` with probability proportional to `exp(ε·qᵢ/(2Δ))`
//! (`exp(ε·qᵢ/Δ)` for monotone workloads, matching the Noisy-Max factor-two
//! convention). Implemented via the Gumbel-max trick — `argmaxᵢ (ε·qᵢ/(cΔ) +
//! Gumbelᵢ)` has exactly the softmax distribution — which keeps the
//! per-query work `O(1)` and numerically stable for large scores.
//!
//! ## Execution paths
//!
//! The Gumbel race exists once, generic over the
//! [`DrawProvider`] noise comes through: one standard-Gumbel draw per query
//! in stream order, scores `qᵢ·t + Gᵢ` compared under the `f64` **total
//! order** (ties to the smaller index), the `k` best kept in a `k`-sized
//! insertion buffer (`O(n·k)` with tiny constants, `O(k)` memory). It is
//! reached through [`ExponentialTopK`](crate::api::ExponentialTopK)'s
//! [`Mechanism::call`](crate::api::Mechanism::call) with any provider, and
//! over a lazy query stream through
//! [`run_top_k_streaming_with_scratch_into`](ExponentialMechanism::run_top_k_streaming_with_scratch_into).
//! (Selection must see every query, so unlike SVT the stream is always
//! fully consumed.) The intra-run parallel path
//! ([`AnyMechanism::call_par`](crate::api::AnyMechanism::call_par)) scores
//! every query in one batched fill and replays the same insertion rule.
//!
//! Workloads are validated up front: a NaN or infinite utility is a typed
//! [`MechanismError::NonFiniteUtility`], never a sort panic or a silent
//! mis-selection.

use crate::answers::QueryAnswers;
use crate::draw::{DrawProvider, RngDraws};
use crate::error::{require_epsilon, MechanismError};
use crate::scratch::TopKScratch;
use free_gap_noise::{Gumbel, Noise};
use rand::Rng;
use std::cmp::Ordering;

/// Exponential-mechanism selection over sensitivity-1 utility queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialMechanism {
    epsilon: f64,
    monotonic: bool,
}

impl ExponentialMechanism {
    /// Creates the mechanism with budget `epsilon`.
    pub fn new(epsilon: f64, monotonic: bool) -> Result<Self, MechanismError> {
        Ok(Self {
            epsilon: require_epsilon(epsilon)?,
            monotonic,
        })
    }

    /// The privacy budget `ε` one selection costs.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The softmax temperature exponent applied to each utility:
    /// `ε/2` in general, `ε` for monotone utilities.
    pub fn exponent(&self) -> f64 {
        if self.monotonic {
            self.epsilon
        } else {
            self.epsilon / 2.0
        }
    }

    /// Selection probabilities (softmax of the scaled utilities), computed
    /// with the max-subtraction trick for stability.
    ///
    /// Rejects empty workloads and non-finite utilities: with a `-∞`
    /// utility the max-subtraction `q - m` degenerates to `-∞ - -∞ = NaN`
    /// when every utility is `-∞`, and a `+∞`/NaN poisons the
    /// normalization — all-NaN "probabilities" used to come back silently.
    pub fn probabilities(&self, answers: &QueryAnswers) -> Result<Vec<f64>, MechanismError> {
        answers.require_len(1)?;
        Self::require_finite(answers.values())?;
        let t = self.exponent();
        let m = answers
            .values()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, |a, b| {
                if a.total_cmp(&b).is_ge() {
                    a
                } else {
                    b
                }
            });
        let weights: Vec<f64> = answers
            .values()
            .iter()
            .map(|q| ((q - m) * t).exp())
            .collect();
        // With finite utilities the max term contributes exp(0) = 1, so the
        // total is at least 1 and the division cannot produce NaN.
        let total: f64 = weights.iter().sum();
        Ok(weights.into_iter().map(|w| w / total).collect())
    }

    /// Validates every utility is finite (the selection races and the
    /// softmax are undefined otherwise).
    fn require_finite(values: &[f64]) -> Result<(), MechanismError> {
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() {
                return Err(MechanismError::NonFiniteUtility { index, value });
            }
        }
        Ok(())
    }

    /// Validates the Top-K configuration against the workload size.
    pub(crate) fn require_top_k_len(len: usize, k: usize) -> Result<(), MechanismError> {
        if k > len {
            return Err(MechanismError::InvalidK {
                k,
                requirement: "k must not exceed the workload size",
            });
        }
        Ok(())
    }

    /// Scores one query: `q·t + standard Gumbel` — the Gumbel-max race
    /// entry, the one place the score arithmetic exists (every path shares
    /// it, so the reference sort and the insertion race are bit-comparable).
    #[inline]
    fn score<P: DrawProvider>(
        t: f64,
        index: usize,
        q: f64,
        provider: &mut P,
    ) -> Result<f64, MechanismError> {
        if !q.is_finite() {
            return Err(MechanismError::NonFiniteUtility { index, value: q });
        }
        Ok(q * t + provider.next(Noise::Gumbel(Gumbel::standard())))
    }

    /// The single copy of the Gumbel-max race, generic over the
    /// [`DrawProvider`] noise comes through and lazy over the query stream:
    /// one standard-Gumbel draw per query in stream order, maintaining the
    /// `k` best `(score, index)` pairs in `scores`/`top` (descending under
    /// the `f64` total order, ties to the smaller index — exactly the
    /// reference sort's order). Returns the number of queries processed.
    ///
    /// `O(k)` memory: this is both the batched fast path (`k`-sized
    /// insertion buffer instead of an `n`-sized sort) and the streaming
    /// path (the query vector is never materialized).
    pub(crate) fn race_core<P: DrawProvider, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        k: usize,
        provider: &mut P,
        scores: &mut Vec<f64>,
        top: &mut Vec<usize>,
    ) -> Result<usize, MechanismError> {
        provider.begin();
        let t = self.exponent();
        scores.clear();
        top.clear();
        // The buffer never holds more than min(k, processed) + 1 entries;
        // cap the pre-reservation so a streaming caller's oversized `k`
        // (validated only at end-of-stream) cannot trigger a huge
        // allocation before the stream is drained.
        let reserve = k.saturating_add(1).min(1024);
        scores.reserve(reserve);
        top.reserve(reserve);
        let mut processed = 0usize;
        for q in queries {
            let index = processed;
            processed += 1;
            let s = Self::score(t, index, q, provider)?;
            // One draw per query even when k = 0 (or the buffer is full and
            // the score loses): the race consumes the stream exactly like
            // the materializing reference.
            if k == 0 || (top.len() == k && s.total_cmp(&scores[k - 1]) != Ordering::Greater) {
                continue;
            }
            let pos = scores.partition_point(|v| v.total_cmp(&s) != Ordering::Less);
            scores.insert(pos, s);
            top.insert(pos, index);
            if top.len() > k {
                scores.pop();
                top.pop();
            }
        }
        Ok(processed)
    }

    /// The intra-run parallel race: all utilities are validated up front,
    /// every score `qᵢ·t + Gumbelᵢ` is produced in one batched
    /// [`fill`](DrawProvider::fill) (split
    /// across a per-block provider's threads), and the race's insertion
    /// rule replays over the precomputed scores in index order — the exact
    /// `f64`-total-order rule of `race_core`, so the result is
    /// bit-identical for any thread count of the same provider family.
    /// (Per-chunk reduce is deliberately *not* used here: the race orders
    /// by `total_cmp`, not the Noisy-Max `>=` rule.)
    pub(crate) fn race_par_core<P: DrawProvider>(
        &self,
        values: &[f64],
        k: usize,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), MechanismError> {
        Self::require_top_k_len(values.len(), k)?;
        Self::require_finite(values)?;
        provider.begin();
        let t = self.exponent();
        scratch.aux.clear();
        scratch.aux.extend(values.iter().map(|q| q * t));
        provider.fill(
            &scratch.aux,
            Noise::Gumbel(Gumbel::standard()),
            &mut scratch.noisy,
        );
        // The race's insertion rule over the precomputed scores: `out`
        // holds the k best indices, descending under the total order, ties
        // to the smaller index (identical to `race_core`, which compares
        // against its parallel sorted-score buffer — same values either way).
        out.clear();
        out.reserve(k.saturating_add(1).min(1024));
        for i in 0..scratch.noisy.len() {
            let s = scratch.noisy[i];
            if k == 0
                || (out.len() == k && s.total_cmp(&scratch.noisy[out[k - 1]]) != Ordering::Greater)
            {
                continue;
            }
            let pos = out.partition_point(|&j| scratch.noisy[j].total_cmp(&s) != Ordering::Less);
            out.insert(pos, i);
            if out.len() > k {
                out.pop();
            }
        }
        Ok(())
    }

    /// The lazy streaming entry: the race over `queries` through
    /// [`RngDraws`] with [`TopKScratch`]'s reused buffers, writing the
    /// selected indices into `out`. The workload-size check moves to the
    /// end of the stream (a stream shorter than `k` is
    /// [`MechanismError::NotEnoughQueries`]).
    pub fn run_top_k_streaming_with_scratch_into<R: Rng + ?Sized, I: IntoIterator<Item = f64>>(
        &self,
        queries: I,
        k: usize,
        rng: &mut R,
        scratch: &mut TopKScratch,
        out: &mut Vec<usize>,
    ) -> Result<(), MechanismError> {
        let processed = self.race_core(
            queries,
            k,
            &mut RngDraws::new(rng),
            &mut scratch.noisy,
            &mut scratch.top,
        )?;
        if processed < k {
            return Err(MechanismError::NotEnoughQueries {
                got: processed,
                need: k,
            });
        }
        out.clear();
        out.extend_from_slice(&scratch.top);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::testing::reference;
    use crate::api::ExponentialTopK;
    use crate::draw::RngDraws;
    use free_gap_noise::rng::rng_from_seed;

    fn workload() -> QueryAnswers {
        QueryAnswers::counting(vec![5.0, 3.0, 1.0])
    }

    #[test]
    fn validation() {
        assert!(ExponentialMechanism::new(0.0, true).is_err());
        assert_eq!(
            ExponentialMechanism::new(1.0, true).unwrap().exponent(),
            1.0
        );
        assert_eq!(
            ExponentialMechanism::new(1.0, false).unwrap().exponent(),
            0.5
        );
    }

    #[test]
    fn probabilities_sum_to_one_and_order_by_utility() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        let p = m.probabilities(&workload()).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
        // Softmax ratio: p0/p1 = e^{(5-3)·1} = e².
        assert!((p[0] / p[1] - 2f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn probabilities_reject_degenerate_workloads() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        // Regression: all-(-inf) utilities used to return all-NaN
        // "probabilities" (the `q - m` max-subtraction yields -inf - -inf).
        let all_neg_inf = QueryAnswers::counting(vec![f64::NEG_INFINITY; 3]);
        assert!(matches!(
            m.probabilities(&all_neg_inf),
            Err(MechanismError::NonFiniteUtility { index: 0, .. })
        ));
        let with_nan = QueryAnswers::counting(vec![1.0, f64::NAN, 2.0]);
        assert!(matches!(
            m.probabilities(&with_nan),
            Err(MechanismError::NonFiniteUtility { index: 1, .. })
        ));
        assert!(matches!(
            m.probabilities(&QueryAnswers::counting(vec![])),
            Err(MechanismError::NotEnoughQueries { .. })
        ));
    }

    fn top_k(m: ExponentialMechanism, k: usize) -> ExponentialTopK {
        ExponentialTopK::new(m, k).unwrap()
    }

    #[test]
    fn gumbel_sampler_matches_softmax() {
        let m = top_k(ExponentialMechanism::new(0.8, true).unwrap(), 1);
        let p = m.mechanism().probabilities(&workload()).unwrap();
        let mut rng = rng_from_seed(50);
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[reference(&m, &workload(), &mut rng).unwrap().into_indices()[0]] += 1;
        }
        for i in 0..3 {
            let emp = counts[i] as f64 / n as f64;
            let sigma = (p[i] * (1.0 - p[i]) / n as f64).sqrt();
            assert!((emp - p[i]).abs() < 5.0 * sigma, "i={i}: {emp} vs {}", p[i]);
        }
    }

    #[test]
    fn top_k_returns_distinct_indices() {
        let m = top_k(ExponentialMechanism::new(1.0, true).unwrap(), 2);
        let mut rng = rng_from_seed(51);
        let sel = reference(&m, &workload(), &mut rng).unwrap().into_indices();
        assert_eq!(sel.len(), 2);
        assert_ne!(sel[0], sel[1]);
    }

    #[test]
    fn empty_workload_is_a_typed_error() {
        // Regression: used to be an `assert!` panic.
        let base = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(matches!(
            reference(
                &top_k(base, 1),
                &QueryAnswers::counting(vec![]),
                &mut rng_from_seed(1)
            ),
            Err(MechanismError::InvalidK { k: 1, .. })
        ));
        assert!(matches!(
            base.run_top_k_streaming_with_scratch_into(
                std::iter::empty(),
                1,
                &mut rng_from_seed(1),
                &mut TopKScratch::new(),
                &mut Vec::new(),
            ),
            Err(MechanismError::NotEnoughQueries { got: 0, need: 1 })
        ));
    }

    #[test]
    fn oversized_k_is_a_typed_error() {
        // Regression: used to be an `assert!` panic on the materialized
        // path; the streaming path reports it at end-of-stream.
        let base = ExponentialMechanism::new(1.0, true).unwrap();
        assert!(matches!(
            reference(&top_k(base, 4), &workload(), &mut rng_from_seed(1)),
            Err(MechanismError::InvalidK { k: 4, .. })
        ));
        assert!(matches!(
            base.run_top_k_streaming_with_scratch_into(
                workload().values().iter().copied(),
                4,
                &mut rng_from_seed(1),
                &mut TopKScratch::new(),
                &mut Vec::new(),
            ),
            Err(MechanismError::NotEnoughQueries { got: 3, need: 4 })
        ));
    }

    #[test]
    fn nan_utility_is_a_typed_error_on_every_path() {
        // Regression: a NaN score used to panic `partial_cmp().unwrap()` in
        // the reference sort and silently lose every `>` comparison in the
        // single-index race (mis-selecting index 0 regardless of the race).
        let base = ExponentialMechanism::new(1.0, true).unwrap();
        let bad = QueryAnswers::counting(vec![1.0, f64::NAN, 3.0]);
        for k in [1, 2] {
            assert!(matches!(
                reference(&top_k(base, k), &bad, &mut rng_from_seed(2)),
                Err(MechanismError::NonFiniteUtility { index: 1, .. })
            ));
        }
        let inf = QueryAnswers::counting(vec![1.0, 2.0, f64::INFINITY]);
        assert!(matches!(
            base.run_top_k_streaming_with_scratch_into(
                inf.values().iter().copied(),
                1,
                &mut rng_from_seed(2),
                &mut TopKScratch::new(),
                &mut Vec::new(),
            ),
            Err(MechanismError::NonFiniteUtility { index: 2, .. })
        ));
    }

    #[test]
    fn k_zero_selects_nothing() {
        let m = ExponentialMechanism::new(1.0, true).unwrap();
        for answers in [workload(), QueryAnswers::counting(vec![])] {
            let mut out = vec![7];
            m.run_top_k_streaming_with_scratch_into(
                answers.values().iter().copied(),
                0,
                &mut rng_from_seed(3),
                &mut TopKScratch::new(),
                &mut out,
            )
            .unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn race_matches_the_reference_sort_on_the_same_stream() {
        // The one-shot Gumbel race as usually stated: materialize every
        // score from the same draws and sort (descending, total order, ties
        // to the smaller index). The insertion race must select exactly the
        // sort's prefix.
        let base = ExponentialMechanism::new(0.9, false).unwrap();
        let answers = QueryAnswers::general(vec![5.0, 3.0, 5.0, 1.0, 4.0, 2.0]);
        for k in 1..=answers.len() {
            for seed in 0..20 {
                let mut rng = rng_from_seed(seed);
                let mut provider = RngDraws::new(&mut rng);
                provider.begin();
                let t = base.exponent();
                let mut scores: Vec<(f64, usize)> = answers
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| {
                        (
                            ExponentialMechanism::score(t, i, q, &mut provider).unwrap(),
                            i,
                        )
                    })
                    .collect();
                scores.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let expect: Vec<usize> = scores.iter().take(k).map(|&(_, i)| i).collect();
                let got = reference(&top_k(base, k), &answers, &mut rng_from_seed(seed))
                    .unwrap()
                    .into_indices();
                assert_eq!(got, expect, "k {k}, seed {seed}");
            }
        }
    }
}
