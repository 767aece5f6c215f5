//! The RMG (multigrid) backend — the multilevel member of the family
//! (paper §2.2 "multilevel method support"). The operator must be a
//! square-grid discretization (`global_cols = m²`); the hierarchy is
//! rebuilt per matrix epoch. The coarse solver is pluggable, which is how
//! the recursion demo (`examples/multigrid_recursion.rs`) nests one LISI
//! solver inside another (paper §5.2e).

use std::sync::Arc;

use parking_lot::Mutex;
use rcomm::Communicator;
use rmg::{CoarseOperator, CoarseSolver, CycleType, Hierarchy, MgConfig, RmgSolver, Smoother};
use rsparse::{BlockRowPartition, CsrMatrix};

use super::{Backend, Column, LedgerLabels};
use crate::error::{LisiError, LisiResult};
use crate::service;
use crate::state::LisiState;

/// LISI over the RMG geometric multigrid package.
pub type RmgAdapter = super::Adapter<Rmg>;

/// Signature of a pluggable coarse-grid solver.
pub type CoarseFn =
    dyn Fn(&CsrMatrix, &[f64]) -> Result<Vec<f64>, String> + Send + Sync + 'static;

/// The RMG package behind [`RmgAdapter`], with its pluggable coarse-grid
/// solver.
#[derive(Default)]
pub struct Rmg {
    coarse: Mutex<Option<Arc<CoarseFn>>>,
}

/// The cycle configuration and the grid side `m` (`global_cols = m²`).
pub struct RmgPlan {
    config: MgConfig,
    side: usize,
}

/// Session-cached setup: the partition and, on rank 0, the prebuilt
/// multigrid hierarchy (the Galerkin coarse operators are by far the
/// expensive part of RMG setup). The hierarchy is independent of the
/// pluggable coarse-grid *solver*, which binds per solve via
/// [`MgConfig`], so caching it is safe even across instances with
/// different coarse callbacks.
pub struct RmgArtifact {
    partition: BlockRowPartition,
    hierarchy: Option<Hierarchy>,
}

/// One solve's multigrid solver — built once on rank 0, which runs
/// every cycle — and the partition the solution scatters over.
pub struct RmgSolve<'a> {
    partition: &'a BlockRowPartition,
    solver: Option<RmgSolver>,
}

impl RmgAdapter {
    /// Plug a coarse-grid solver callback (e.g. another LISI solver —
    /// recursion through the interface).
    pub fn set_coarse_solver(
        &self,
        f: impl Fn(&CsrMatrix, &[f64]) -> Result<Vec<f64>, String> + Send + Sync + 'static,
    ) {
        *self.backend.coarse.lock() = Some(Arc::new(f));
    }
}

fn mg_config(state: &LisiState, coarse: Option<Arc<CoarseFn>>) -> LisiResult<MgConfig> {
    let mut cfg = MgConfig::default();
    if let Some(c) = state.options.get("cycle") {
        cfg.cycle = match c.to_ascii_lowercase().as_str() {
            "v" => CycleType::V,
            "w" => CycleType::W,
            other => {
                return Err(LisiError::BadParameter {
                    key: "cycle".into(),
                    reason: other.into(),
                })
            }
        };
    }
    if let Some(s) = state.options.get("smoother") {
        cfg.smoother = match s.to_ascii_lowercase().as_str() {
            "jacobi" => Smoother::Jacobi {
                omega: state.options.get_parsed::<f64>("omega").unwrap_or(0.8),
            },
            "gs" | "gauss_seidel" => Smoother::GaussSeidel,
            "sgs" | "sym_gs" => Smoother::SymGaussSeidel,
            other => {
                return Err(LisiError::BadParameter {
                    key: "smoother".into(),
                    reason: other.into(),
                })
            }
        };
    }
    if let Some(n) = state.options.get_parsed::<usize>("nu1") {
        cfg.nu1 = n;
    }
    if let Some(n) = state.options.get_parsed::<usize>("nu2") {
        cfg.nu2 = n;
    }
    if let Some(t) = state.options.get_first(&["tol", "rtol"]) {
        cfg.rtol = t
            .parse()
            .map_err(|_| LisiError::BadParameter { key: "tol".into(), reason: t.clone() })?;
    }
    if let Some(m) = state.options.get_first(&["maxits", "max_cycles"]) {
        cfg.max_cycles = m.parse().map_err(|_| LisiError::BadParameter {
            key: "maxits".into(),
            reason: m.clone(),
        })?;
    }
    if let Some(f) = coarse {
        cfg.coarse = CoarseSolver::Callback(Box::new(move |a, b| f(a, b)));
    }
    Ok(cfg)
}

impl Backend for Rmg {
    const NAME: &'static str = "rmg";
    const LABEL: &'static str = "RMG";
    type Plan = RmgPlan;
    type Artifact = RmgArtifact;
    type Solver<'a> = RmgSolve<'a>;

    fn plan(&self, st: &LisiState) -> LisiResult<RmgPlan> {
        if super::matrix_free_requested(st) {
            return Err(LisiError::Unsupported(
                "RMG builds Galerkin coarse operators and needs assembled entries".into(),
            ));
        }
        let n = st.global_cols.unwrap_or(0);
        let side = (n as f64).sqrt().round() as usize;
        if side * side != n {
            return Err(LisiError::Unsupported(format!(
                "RMG requires a square-grid operator; {n} is not a perfect square"
            )));
        }
        Ok(RmgPlan { config: mg_config(st, self.coarse.lock().clone())?, side })
    }

    /// Gather the system to rank 0 (multigrid here is the serial member
    /// of the family; see DESIGN.md) and build the hierarchy once,
    /// amortized across every column and every warm solve.
    fn setup(
        &self,
        st: &LisiState,
        comm: &Communicator,
        plan: &RmgPlan,
        matrix: &CsrMatrix,
    ) -> LisiResult<(RmgArtifact, usize)> {
        let rank = comm.rank();
        let partition = st.build_partition()?;
        let dist =
            rsparse::DistCsrMatrix::from_local_rows(comm, partition.clone(), matrix.clone())?;
        let hierarchy = match dist.gather_to_root(comm, 0)? {
            Some(a) => {
                Some(Hierarchy::build(a, plan.side, CoarseOperator::Galerkin, 20, 1, None)?)
            }
            None => None,
        };
        // The hierarchy's coarse operators sum to O(nnz) × levels; bill
        // rank 0 for the gathered footprint.
        let bytes = if rank == 0 {
            service::approx_csr_bytes(
                matrix.nnz().saturating_mul(comm.size()),
                plan.side * plan.side,
            )
        } else {
            service::approx_csr_bytes(matrix.nnz(), partition.local_rows(rank))
        };
        Ok((RmgArtifact { partition, hierarchy }, bytes))
    }

    fn bind<'a>(
        &'a self,
        _st: &'a LisiState,
        comm: &Communicator,
        plan: RmgPlan,
        artifact: &'a RmgArtifact,
    ) -> LisiResult<RmgSolve<'a>> {
        let solver = if comm.rank() == 0 {
            let hierarchy =
                artifact.hierarchy.clone().expect("root holds the cached hierarchy");
            Some(RmgSolver::new(hierarchy, plan.config)?)
        } else {
            None
        };
        Ok(RmgSolve { partition: &artifact.partition, solver })
    }

    fn solve_column(
        s: &mut RmgSolve<'_>,
        comm: &Communicator,
        b: &[f64],
        x: &mut [f64],
    ) -> LisiResult<Column> {
        let b_full = comm.gatherv(0, b)?;
        let x0_full = comm.gatherv(0, x)?;
        // Rank 0 runs the cycle; outcome (solution + stats) scatters.
        let root_out: Option<(Vec<Vec<f64>>, usize, bool, f64)> = match &s.solver {
            Some(solver) => {
                let mut x = x0_full.expect("root gathered the guess");
                let res = solver.solve(&b_full.expect("root gathered rhs"), &mut x)?;
                let chunks =
                    (0..comm.size()).map(|r| x[s.partition.range(r)].to_vec()).collect();
                Some((chunks, res.cycles, res.converged, res.relative_residual))
            }
            None => None,
        };
        // Share stats, scatter solution.
        let (cycles, ok, rel) = comm.bcast(
            0,
            root_out.as_ref().map(|(_, c, ok, r)| (*c, *ok, *r)).unwrap_or((0, false, 0.0)),
        )?;
        let mine = comm.scatter(0, root_out.map(|(chunks, _, _, _)| chunks))?;
        x.copy_from_slice(&mine);
        Ok(Column {
            converged: ok,
            iterations: cycles,
            residual: rel,
            reason: if ok { 1 } else { -1 },
            cond_estimate: None,
            initial_residual: None,
        })
    }

    fn ledger_labels(st: &LisiState) -> LedgerLabels {
        LedgerLabels {
            ksp: Some("multigrid".into()),
            pc: st.options.get("smoother"),
            rtol: st.options.get_first(&["tol", "rtol"]).and_then(|v| v.parse().ok()),
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

    fn poisson_via_rmg(p: usize, m: usize, opts: &[(&str, &str)]) -> (SolveReport, f64) {
        let a = rsparse::generate::laplacian_2d(m);
        let n = m * m;
        let x_true = rsparse::generate::random_vector(n, 5);
        let b = a.matvec(&x_true).unwrap();
        let out = Universe::run(p, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = RmgAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(range.len()).unwrap();
            solver.set_global_cols(n).unwrap();
            for (k, v) in opts {
                solver.set(k, v).unwrap();
            }
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
        let err = full
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |mx, (g, e)| mx.max((g - e).abs()));
        (*rep, err)
    }

    #[test]
    fn solves_poisson_with_grid_independent_cycles() {
        let (rep7, err7) = poisson_via_rmg(1, 7, &[("tol", "1e-9")]);
        let (rep15, err15) = poisson_via_rmg(1, 15, &[("tol", "1e-9")]);
        assert!(rep7.converged && rep15.converged);
        assert!(err7 < 1e-6 && err15 < 1e-6);
        assert!(rep15.iterations <= rep7.iterations + 3, "mesh-independent cycle count");
    }

    #[test]
    fn parallel_gather_solve_scatter_works() {
        let (rep, err) = poisson_via_rmg(3, 15, &[("tol", "1e-9"), ("cycle", "w")]);
        assert!(rep.converged);
        assert!(err < 1e-6, "err = {err}");
    }

    #[test]
    fn smoother_and_cycle_options_are_validated() {
        let st = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("cycle", "x");
                o
            },
            ..LisiState::default()
        };
        assert!(mg_config(&st, None).is_err());
        let st2 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("smoother", "magic");
                o
            },
            ..LisiState::default()
        };
        assert!(mg_config(&st2, None).is_err());
        let st3 = LisiState {
            options: {
                let mut o = rkrylov::Options::new();
                o.set("cycle", "W");
                o.set("smoother", "sgs");
                o.set_int("nu1", 1);
                o.set_int("nu2", 3);
                o
            },
            ..LisiState::default()
        };
        let cfg = mg_config(&st3, None).unwrap();
        assert_eq!(cfg.cycle, CycleType::W);
        assert_eq!(cfg.nu1, 1);
        assert_eq!(cfg.nu2, 3);
    }

    #[test]
    fn non_square_grid_is_unsupported() {
        let out = Universe::run(1, |comm| {
            let solver = RmgAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(12).unwrap();
            solver.set_global_cols(12).unwrap();
            let a = rsparse::generate::laplacian_1d(12);
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&[1.0; 12], 1).unwrap();
            let mut x = vec![0.0; 12];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap_err()
        });
        assert!(matches!(&out[0], LisiError::Unsupported(_)));
    }

    #[test]
    fn pluggable_coarse_solver_is_called() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let a = rsparse::generate::laplacian_2d(7);
        let n = 49;
        let b = a.matvec(&vec![1.0; n]).unwrap();
        let out = Universe::run(1, move |comm| {
            let solver = RmgAdapter::new();
            let h = Arc::clone(&hits2);
            solver.set_coarse_solver(move |a, b| {
                h.fetch_add(1, Ordering::Relaxed);
                a.to_dense().solve(b).map_err(|e| e.to_string())
            });
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(0).unwrap();
            solver.set_local_rows(n).unwrap();
            solver.set_global_cols(n).unwrap();
            solver
                .setup_matrix(a.values(), a.row_ptr(), a.col_idx(), crate::SparseStruct::Csr)
                .unwrap();
            solver.setup_rhs(&b, 1).unwrap();
            let mut x = vec![0.0; n];
            let mut s = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut s).unwrap();
            SolveReport::from_slice(&s).converged
        });
        assert!(out[0]);
        assert!(hits.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }
}
