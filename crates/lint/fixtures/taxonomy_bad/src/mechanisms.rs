//! R4 power-check fixture tree — every way the taxonomy can go incomplete.

/// Implements `Mechanism` but has no `AnyMechanism` conversion and no
/// equivalence entry: the bench grid lists it, yet neither the grid's
/// dispatch loop nor the server can reach it, and nothing proves its
/// providers agree.
impl Mechanism for BadMechanism {
    fn name(&self) -> &'static str {
        "BadMechanism"
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

/// Converts and has an equivalence entry — but its name was never declared
/// in `MECHANISM_PATHS`, so bench-check cannot guard its cells.
impl Mechanism for UnbenchedMechanism {
    fn name(&self) -> &'static str {
        "UnbenchedMechanism"
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
        self.run_core(req.values(), provider, out.measurements_mut());
        Ok(())
    }
}

impl From<UnbenchedMechanism> for AnyMechanism {
    fn from(m: UnbenchedMechanism) -> Self {
        Self::Unbenched(m)
    }
}

/// A dispatch variant with no `Mechanism` impl behind it.
impl From<OrphanMechanism> for AnyMechanism {
    fn from(m: OrphanMechanism) -> Self {
        Self::Orphan(m)
    }
}
