//! One module per paper artifact (figure/table) plus ablations.

pub mod ablations;
pub mod datasets;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;

use free_gap_core::pipelines::{svt_select_measure, SvtPipelineResult};
use free_gap_core::{
    AnyMechanism, CallScratch, DrawProvider, MechanismError, MechanismOutput, QueryAnswers,
    QuerySlice, RngDraws, ScratchDraws, SvtScratch,
};
use free_gap_noise::rng::rng_from_seed;
use rand::rngs::StdRng;
use rand::Rng;

/// The §6.2 select-then-measure pipeline on the blocked [`ScratchDraws`]
/// tape, as the figure loops run it. SVT's draw count is data-dependent
/// and the tape buffers lookahead, so the measurement noise comes from a
/// sub-stream split off *before* the selection (the stream discipline of
/// `free_gap_core::scratch`): outputs are a pure function of `rng`.
pub(crate) fn svt_select_measure_on_tape(
    answers: &QueryAnswers,
    k: usize,
    epsilon: f64,
    threshold: f64,
    rng: &mut StdRng,
    scratch: &mut SvtScratch,
) -> Result<SvtPipelineResult, MechanismError> {
    let mut meas_rng = rng_from_seed(rng.gen::<u64>());
    let mut provider = ScratchDraws::new(scratch, rng);
    svt_select_measure(
        answers,
        k,
        epsilon,
        threshold,
        &mut provider,
        |_, truths, scale| {
            let mut out = Vec::new();
            RngDraws::new(&mut meas_rng).fill_offset(truths, scale, &mut out);
            out
        },
    )
}

/// One run of `mechanism` over the whole workload on the batched fast
/// path ([`AnyMechanism::call_batched`]), into a fresh output.
pub(crate) fn call_batched<R: Rng + ?Sized>(
    mechanism: impl Into<AnyMechanism>,
    answers: &QueryAnswers,
    rng: &mut R,
    scratch: &mut CallScratch,
) -> Result<MechanismOutput, MechanismError> {
    let mechanism = mechanism.into();
    let mut out = MechanismOutput::new_for(&mechanism);
    mechanism.call_batched(&QuerySlice::from_answers(answers), rng, scratch, &mut out)?;
    Ok(out)
}

/// Seed salt per dataset so Monte-Carlo streams differ across panels that
/// share all other parameters.
pub(crate) fn dataset_salt(ds: free_gap_data::Dataset) -> u64 {
    match ds {
        free_gap_data::Dataset::BmsPos => 0x1000_0000_0000,
        free_gap_data::Dataset::Kosarak => 0x2000_0000_0000,
        free_gap_data::Dataset::T40I10D100K => 0x3000_0000_0000,
    }
}

/// The k-grid of Figures 1, 3 and 4: `k ∈ {2, 4, …, 24}`.
pub fn k_grid() -> Vec<usize> {
    (1..=12).map(|i| 2 * i).collect()
}

/// The ε-grid of Figure 2: `ε ∈ {0.1, 0.3, …, 1.5}`.
pub fn epsilon_grid() -> Vec<f64> {
    (0..8).map(|i| 0.1 + 0.2 * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_match_paper_axes() {
        let ks = k_grid();
        assert_eq!(ks.first(), Some(&2));
        assert_eq!(ks.last(), Some(&24));
        let es = epsilon_grid();
        assert_eq!(es.len(), 8);
        assert!((es[0] - 0.1).abs() < 1e-12);
        assert!((es[7] - 1.5).abs() < 1e-12);
    }
}
