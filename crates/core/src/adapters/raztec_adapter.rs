//! The RAztec (Trilinos/AztecOO-like) backend: LISI's generic keys are
//! translated to Aztec option enums, and matrix-free solves ride on
//! RAztec's own `RowMatrix` virtual-matrix trait.

use std::sync::Arc;

use raztec::{
    AztecOO, AztecOptions, AzConv, AzPrecond, AzSolver, AzWhy, CrsMatrix, Map, RowMatrix, Vector,
};
use rcomm::Communicator;
use rsparse::CsrMatrix;

use super::{Backend, Column, LedgerLabels};
use crate::error::{LisiError, LisiResult};
use crate::service;
use crate::state::LisiState;
use crate::traits::MatrixFreePort;
use crate::types::OperatorId;

/// LISI over the RAztec iterative package.
pub type RaztecAdapter = super::Adapter<Raztec>;

/// The RAztec package behind [`RaztecAdapter`].
#[derive(Default)]
pub struct Raztec;

/// Session-cached setup: the imported `CrsMatrix` (whose construction
/// includes the off-rank column import plan), which also carries the
/// row map. Matrix-free operators are built fresh per solve — a user
/// closure has no fingerprint — so only assembled systems land in the
/// cache.
pub type RaztecArtifact = Box<dyn RowMatrix + Send + Sync>;

/// A `RowMatrix` that forwards multiplications to the application's
/// `MatrixFree` port — RAztec's native matrix-free mechanism (the
/// `Epetra_RowMatrix` route the paper cites in §5.5).
struct MfRowMatrix {
    map: Map,
    port: Arc<dyn MatrixFreePort>,
}

impl RowMatrix for MfRowMatrix {
    fn row_map(&self) -> &Map {
        &self.map
    }

    fn apply(
        &self,
        _comm: &Communicator,
        x: &Vector,
        y: &mut Vector,
    ) -> raztec::AztecResult<()> {
        self.port
            .mat_mult(OperatorId::Matrix, x.values(), y.values_mut())
            .map_err(|e| raztec::AztecError::Sparse(e.to_string()))
    }
}

fn aztec_options(state: &LisiState) -> LisiResult<AztecOptions> {
    let mut opts = AztecOptions::default();
    if let Some(s) = state.options.get_first(&["solver", "az_solver"]) {
        opts.solver = AzSolver::parse(&s).map_err(LisiError::from)?;
    }
    if let Some(p) = state.options.get_first(&["preconditioner", "az_precond"]) {
        opts.precond = AzPrecond::parse(&p).map_err(LisiError::from)?;
    }
    if let AzPrecond::Neumann { .. } = opts.precond {
        if let Some(ord) = state.options.get_parsed::<usize>("poly_ord") {
            opts.precond = AzPrecond::Neumann { order: ord };
        }
    }
    if let Some(t) = state.options.get_first(&["tol", "az_tol"]) {
        opts.tol = t
            .parse()
            .map_err(|_| LisiError::BadParameter { key: "tol".into(), reason: t.clone() })?;
    }
    if let Some(m) = state.options.get_first(&["maxits", "az_max_iter"]) {
        opts.max_iter = m.parse().map_err(|_| LisiError::BadParameter {
            key: "maxits".into(),
            reason: m.clone(),
        })?;
    }
    if let Some(k) = state.options.get_first(&["restart", "az_kspace"]) {
        opts.kspace = k.parse().map_err(|_| LisiError::BadParameter {
            key: "restart".into(),
            reason: k.clone(),
        })?;
    }
    if let Some(w) = state.options.get_first(&["stagnation_window", "az_stagnation_window"])
    {
        opts.stall_window = w.parse().map_err(|_| LisiError::BadParameter {
            key: "stagnation_window".into(),
            reason: w.clone(),
        })?;
    }
    if let Some(c) = state.options.get("conv") {
        opts.conv = match c.as_str() {
            "r0" => AzConv::R0,
            "rhs" => AzConv::Rhs,
            other => {
                return Err(LisiError::BadParameter {
                    key: "conv".into(),
                    reason: other.into(),
                })
            }
        };
    }
    Ok(opts)
}

impl Backend for Raztec {
    const NAME: &'static str = "raztec";
    const LABEL: &'static str = "RAztec";
    type Plan = AztecOptions;
    type Artifact = RaztecArtifact;
    type Solver<'a> = (AztecOO<'a>, &'a Map);

    fn plan(&self, st: &LisiState) -> LisiResult<AztecOptions> {
        aztec_options(st)
    }

    fn setup(
        &self,
        st: &LisiState,
        comm: &Communicator,
        _plan: &AztecOptions,
        matrix: &CsrMatrix,
    ) -> LisiResult<(RaztecArtifact, usize)> {
        let partition = st.build_partition()?;
        let bytes = service::approx_csr_bytes(matrix.nnz(), partition.local_rows(comm.rank()));
        let map = Map::from_partition(partition, comm.rank());
        let crs = CrsMatrix::from_local_rows(comm, map, matrix.clone())?;
        Ok((Box::new(crs), bytes))
    }

    fn setup_matrix_free(
        &self,
        st: &LisiState,
        comm: &Communicator,
        _plan: &AztecOptions,
    ) -> LisiResult<RaztecArtifact> {
        let map = Map::from_partition(st.build_partition()?, comm.rank());
        let port = super::require_matrix_free(st)?;
        Ok(Box::new(MfRowMatrix { map, port }))
    }

    fn bind<'a>(
        &'a self,
        _st: &'a LisiState,
        _comm: &Communicator,
        plan: AztecOptions,
        artifact: &'a RaztecArtifact,
    ) -> LisiResult<(AztecOO<'a>, &'a Map)> {
        let mut az = AztecOO::new(artifact.as_ref());
        az.set_options(plan);
        Ok((az, artifact.row_map()))
    }

    fn solve_column(
        (az, map): &mut (AztecOO<'_>, &Map),
        comm: &Communicator,
        b: &[f64],
        x: &mut [f64],
    ) -> LisiResult<Column> {
        let b = Vector::from_values((*map).clone(), b.to_vec())?;
        let mut xv = Vector::from_values((*map).clone(), x.to_vec())?;
        let stat = az.iterate(comm, &b, &mut xv)?;
        x.copy_from_slice(xv.values());
        Ok(Column {
            converged: stat.why.converged(),
            iterations: stat.its,
            residual: stat.true_residual,
            reason: match stat.why {
                AzWhy::Normal => 1,
                AzWhy::Maxits => -1,
                AzWhy::Breakdown => -2,
                AzWhy::Ill => -3,
                AzWhy::Stagnated => -4,
            },
            cond_estimate: None,
            initial_residual: None,
        })
    }

    fn ledger_labels(st: &LisiState) -> LedgerLabels {
        LedgerLabels {
            ksp: st.options.get_first(&["solver", "az_solver"]),
            pc: st.options.get_first(&["preconditioner", "az_precond"]),
            rtol: st.options.get_first(&["tol", "az_tol"]).and_then(|v| v.parse().ok()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SparseSolverPort;
    use crate::status::{SolveReport, STATUS_LEN};
    use rcomm::Universe;
    use rsparse::BlockRowPartition;

    #[test]
    fn solves_the_paper_problem_in_parallel() {
        let man = rmesh::manufactured::paper_manufactured(9);
        let n = man.exact.len();
        for p in [1usize, 3] {
            let a = man.matrix.clone();
            let b = man.rhs.clone();
            let out = Universe::run(p, |comm| {
                let part = BlockRowPartition::even(n, comm.size());
                let range = part.range(comm.rank());
                let local = a.row_block(range.start, range.end).unwrap();
                let solver = RaztecAdapter::new();
                solver.initialize(comm.dup().unwrap()).unwrap();
                solver.set_start_row(range.start).unwrap();
                solver.set_local_rows(range.len()).unwrap();
                solver.set_global_cols(n).unwrap();
                solver.set("solver", "gmres").unwrap();
                solver.set("preconditioner", "jacobi").unwrap();
                solver.set_double("tol", 1e-10).unwrap();
                solver
                    .setup_matrix(
                        local.values(),
                        local.row_ptr(),
                        local.col_idx(),
                        crate::SparseStruct::Csr,
                    )
                    .unwrap();
                solver.setup_rhs(&b[range.clone()], 1).unwrap();
                let mut x = vec![0.0; range.len()];
                let mut status = [0.0; STATUS_LEN];
                solver.solve(&mut x, &mut status).unwrap();
                (SolveReport::from_slice(&status), comm.allgatherv(&x).unwrap())
            });
            let (rep, full) = &out[0];
            assert!(rep.converged, "p = {p}");
            assert!(man.error_inf(full) < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn aztec_specific_keys_are_honoured() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("solver", "bicgstab");
                o.set("preconditioner", "neumann");
                o.set_int("poly_ord", 5);
                o.set("conv", "rhs");
                o.set_int("restart", 17);
                o
            },
            ..LisiState::default()
        };
        let opts = aztec_options(&st).unwrap();
        assert_eq!(opts.solver, AzSolver::BiCgStab);
        assert_eq!(opts.precond, AzPrecond::Neumann { order: 5 });
        assert_eq!(opts.conv, AzConv::Rhs);
        assert_eq!(opts.kspace, 17);
    }

    #[test]
    fn bad_parameter_values_are_reported() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("tol", "very-small-please");
                o
            },
            ..LisiState::default()
        };
        assert!(matches!(
            aztec_options(&st),
            Err(LisiError::BadParameter { .. })
        ));
        let st2 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("conv", "vibes");
                o
            },
            ..LisiState::default()
        };
        assert!(aztec_options(&st2).is_err());
    }

    #[test]
    fn matrix_free_uses_the_rowmatrix_route() {
        struct Identity {
            n: usize,
        }
        impl MatrixFreePort for Identity {
            fn mat_mult(
                &self,
                _id: OperatorId,
                x: &[f64],
                y: &mut [f64],
            ) -> LisiResult<()> {
                assert_eq!(x.len(), self.n);
                y.copy_from_slice(x);
                Ok(())
            }
        }
        let n = 8;
        let out = Universe::run(1, |comm| {
            let solver = RaztecAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set_matrix_free(Arc::new(Identity { n }));
            solver.set_bool("matrix_free", true).unwrap();
            solver.set("solver", "cg").unwrap();
            solver.set("preconditioner", "none").unwrap();
            let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
            solver.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        });
        // Identity system: x = b.
        assert_eq!(out[0], (0..n).map(|i| i as f64).collect::<Vec<_>>());
    }
}
