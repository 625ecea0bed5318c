//! R4 power-check fixture tree — a complete taxonomy. Must lint clean.

/// Complete: a conversion into the dispatch enum, a grid row for its name
/// and an equivalence entry.
impl Mechanism for GoodMechanism {
    fn name(&self) -> &'static str {
        "GoodMechanism"
    }

    fn cost(&self) -> f64 {
        self.epsilon
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        _scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.run_core(req.values(), provider, out.sparse_vector_mut());
        Ok(())
    }
}

impl From<GoodMechanism> for AnyMechanism {
    fn from(m: GoodMechanism) -> Self {
        Self::Good(m)
    }
}

/// A wrapper type whose grid name is its base mechanism's (the type and
/// the `name()` literal may differ; the grid row follows the name).
impl Mechanism for PeeledTopK {
    fn name(&self) -> &'static str {
        "PeeledMechanism"
    }

    fn cost(&self) -> f64 {
        self.k as f64 * self.epsilon
    }

    fn call<P: DrawProvider>(
        &self,
        req: &QuerySlice<'_>,
        provider: &mut P,
        scratch: &mut TopKScratch,
        out: &mut MechanismOutput,
    ) -> Result<(), MechanismError> {
        self.race_core(req.values(), provider, scratch, out.indices_mut())
    }
}

impl From<PeeledTopK> for AnyMechanism {
    fn from(m: PeeledTopK) -> Self {
        Self::Peeled(m)
    }
}

/// The dispatcher itself is not a mechanism: its computed `name()` is
/// skipped.
impl Mechanism for AnyMechanism {
    fn name(&self) -> &'static str {
        match self {
            Self::Good(m) => m.name(),
            Self::Peeled(m) => m.name(),
        }
    }
}

/// An attack target with inherent entry points only: outside the taxonomy.
impl LeakyZooVariant {
    pub fn run_with_scratch_into<R: Rng + ?Sized>(
        &self,
        answers: &QueryAnswers,
        rng: &mut R,
        scratch: &mut SvtScratch,
        out: &mut SvOutput,
    ) {
        self.run_leaky_core(answers, &mut ScratchDraws::new(scratch, rng), out)
    }
}
