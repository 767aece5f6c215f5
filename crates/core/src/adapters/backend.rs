//! The package-specific half of an adapter. The items are `pub` so they
//! can bound the public [`super::Adapter`], but this module is private:
//! the set of backends is closed to the four packages in this crate.

use rcomm::Communicator;
use rsparse::CsrMatrix;

use crate::error::{LisiError, LisiResult};
use crate::state::LisiState;

/// What one right-hand-side column's solve reports to the status fold.
#[derive(Debug)]
pub struct Column {
    /// The package's convergence verdict for this column.
    pub converged: bool,
    /// Iterations (cycles for multigrid, 0 for direct solves).
    pub iterations: usize,
    /// Final residual norm the package reports.
    pub residual: f64,
    /// Package reason code (positive = converged).
    pub reason: i32,
    /// CG Lanczos condition-number estimate, when the package makes one.
    pub cond_estimate: Option<f64>,
    /// ‖b − A·x₀‖₂ at entry, when the package reports it.
    pub initial_residual: Option<f64>,
}

/// The configured solver labels a backend reports to the solve ledger.
#[derive(Debug, Default)]
pub struct LedgerLabels {
    /// Solver name, if the package is iterative.
    pub ksp: Option<String>,
    /// Preconditioner (or smoother) name, if any.
    pub pc: Option<String>,
    /// Relative tolerance the solve targets, if configured.
    pub rtol: Option<f64>,
}

/// The package-specific half of an adapter. [`Adapter`] calls these in
/// a fixed order: `plan` (rank-local, before admission), then `setup`
/// or `setup_matrix_free` on a cold solve, then `bind` once per solve
/// and `solve_column` per right-hand side (or `solve_batch` once).
pub trait Backend: Default + Send + Sync + 'static {
    /// Package name: `get_all`'s `package=` line, the session-cache key
    /// and the ledger's backend column.
    const NAME: &'static str;
    /// Display name used in non-convergence errors.
    const LABEL: &'static str;
    /// Package configuration translated from the generic options.
    type Plan;
    /// Setup product the session cache keeps per fingerprint.
    type Artifact: Send + Sync + 'static;
    /// A solver bound to an artifact for one solve.
    type Solver<'a>
    where
        Self: 'a;

    /// Validate and translate the options. Rank-local, so a bad key
    /// fails on every rank before any collective.
    fn plan(&self, st: &LisiState) -> LisiResult<Self::Plan>;

    /// Cold setup of an assembled system: the artifact and its
    /// approximate byte bill for the session cache.
    fn setup(
        &self,
        st: &LisiState,
        comm: &Communicator,
        plan: &Self::Plan,
        matrix: &CsrMatrix,
    ) -> LisiResult<(Self::Artifact, usize)>;

    /// Setup over the application's `MatrixFree` port. Packages that
    /// need assembled entries refuse matrix-free mode in `plan`.
    fn setup_matrix_free(
        &self,
        _st: &LisiState,
        _comm: &Communicator,
        _plan: &Self::Plan,
    ) -> LisiResult<Self::Artifact> {
        Err(LisiError::Unsupported(format!(
            "{} cannot run matrix-free",
            Self::LABEL
        )))
    }

    /// Bind the plan to the artifact: work shared by every column.
    fn bind<'a>(
        &'a self,
        st: &'a LisiState,
        comm: &Communicator,
        plan: Self::Plan,
        artifact: &'a Self::Artifact,
    ) -> LisiResult<Self::Solver<'a>>;

    /// Solve one column `b` into `x` (whose entry is the initial guess).
    fn solve_column(
        solver: &mut Self::Solver<'_>,
        comm: &Communicator,
        b: &[f64],
        x: &mut [f64],
    ) -> LisiResult<Column>;

    /// Solve all `n_rhs` columns in one fused call, if the package has a
    /// batched driver; `None` runs `solve_column` per column instead.
    fn solve_batch(
        _solver: &mut Self::Solver<'_>,
        _comm: &Communicator,
        _rhs: &[f64],
        _solution: &mut [f64],
        _n_rhs: usize,
    ) -> Option<LisiResult<Vec<Column>>> {
        None
    }

    /// The labels this solve reports to the ledger.
    fn ledger_labels(st: &LisiState) -> LedgerLabels;
}
