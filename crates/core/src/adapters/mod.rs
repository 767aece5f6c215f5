//! The solver-package adapters: each implements [`crate::SparseSolverPort`] over
//! one underlying library, converting LISI's generic inputs and
//! parameters to the package's native forms. This is the reusable "CCA
//! toolkit" the paper's abstract promises — swap the adapter, keep the
//! application.
//!
//! Every adapter is one [`Adapter`] over a package `Backend`. The
//! adapter owns the solve sequence the packages share — admission, the
//! session cache, the setup and solve spans, the status fold and the
//! solve ledger — and the backend supplies only what differs per
//! package: option translation, setup, and the solve of one
//! right-hand-side column.

mod backend;
mod raztec_adapter;
mod rksp_adapter;
mod rmg_adapter;
mod rslu_adapter;

pub use raztec_adapter::RaztecAdapter;
pub use rksp_adapter::RkspAdapter;
pub use rmg_adapter::RmgAdapter;
pub use rslu_adapter::RsluAdapter;

pub(crate) use backend::{Backend, Column, LedgerLabels};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{LisiError, LisiResult};
use crate::service::{self, SessionKey, SolverService};
use crate::state::LisiState;
use crate::status::SolveReport;
use crate::traits::{MatrixFreePort, SparseSolverPort};

/// One LISI adapter: the [`SparseSolverPort`] surface over package
/// backend `B`. [`RkspAdapter`], [`RaztecAdapter`], [`RsluAdapter`] and
/// [`RmgAdapter`] are its four instances.
#[derive(Default)]
pub struct Adapter<B> {
    state: Mutex<LisiState>,
    backend: B,
}

impl<B: Backend> Adapter<B> {
    const PACKAGE_NAME: &'static str = B::NAME;

    /// Fresh, un-initialized adapter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Connect the application's matrix-free port (done by the CCA
    /// component when the `"matrix-free"` uses port is wired).
    pub fn set_matrix_free(&self, port: Arc<dyn MatrixFreePort>) {
        self.state.lock().matrix_free = Some(port);
    }

    /// Solve all right-hand-side columns as one batch regardless of the
    /// `nrhs` option — the explicit multi-RHS entry point (the `nrhs`
    /// option is the declarative twin that makes plain
    /// [`SparseSolverPort::solve`] take this path). Packages with a
    /// batched driver (RKSP) advance all columns in lockstep; the others
    /// share the cached setup across columns.
    pub fn solve_batch(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        self.solve_impl(solution, status, true)
    }

    fn solve_impl(
        &self,
        solution: &mut [f64],
        status: &mut [f64],
        force_batch: bool,
    ) -> LisiResult<()> {
        let st = self.state.lock();
        st.check_solve_buffers(solution, status)?;
        crate::ledger::arm();
        let comm = st.comm()?;
        let rank = comm.rank();
        let plan = self.backend.plan(&st)?;

        // Admission control: each rank takes a ticket, then the cohort
        // agrees — if any peer was refused, everyone returns Busy rather
        // than leaving the refused rank's peers stranded in a collective.
        // Agreement uses allgather, not allreduce: fault plans address
        // allreduce calls by index, and the session layer must not shift
        // the numbering of the solver's own reductions.
        let svc = SolverService::global();
        let ticket = svc.admit();
        let admitted = comm.allgather(ticket.is_ok())?.into_iter().all(|ok| ok);
        if !admitted {
            return Err(ticket.err().unwrap_or_else(|| {
                LisiError::Busy("a peer rank was refused admission".into())
            }));
        }
        let _ticket = ticket.expect("cohort agreed all ranks were admitted");

        // Resolve the artifact: matrix-free operators bypass the session
        // cache (the closure's identity cannot be fingerprinted);
        // assembled systems are keyed by matrix + option fingerprint so a
        // warm session performs zero setup — the "lisi_setup" span is
        // never even opened. The warm/cold decision is collective: a rank
        // whose entry was evicted must not drag its warm peers into a
        // setup collective they would skip.
        let keyed = if matrix_free_requested(&st) {
            None
        } else {
            let (matrix, _) = st.require_system()?;
            let fingerprint = service::fingerprint(
                rank,
                comm.size(),
                st.start_row.unwrap_or(0),
                st.global_cols.unwrap_or(0),
                matrix.row_ptr(),
                matrix.col_idx(),
                matrix.values(),
                &st.options.dump(),
            );
            Some((matrix, SessionKey { backend: B::NAME, rank, size: comm.size(), fingerprint }))
        };
        let hit = match &keyed {
            Some((_, key)) => {
                let hit = svc.lookup::<B::Artifact>(key);
                let warm = comm.allgather(hit.is_some())?.into_iter().all(|h| h);
                svc.record_outcome(warm);
                hit.filter(|_| warm)
            }
            None => None,
        };
        let (artifact, setup_seconds) = match hit {
            Some(artifact) => (artifact, 0.0),
            None => {
                let setup_t = probe::SectionTimer::start("lisi_setup");
                let artifact = match keyed {
                    Some((matrix, key)) => {
                        let (artifact, bytes) = self.backend.setup(&st, comm, &plan, matrix)?;
                        let artifact = Arc::new(artifact);
                        svc.insert(key, Arc::clone(&artifact) as Arc<_>, bytes);
                        artifact
                    }
                    None => Arc::new(self.backend.setup_matrix_free(&st, comm, &plan)?),
                };
                (artifact, setup_t.stop())
            }
        };

        let rhs = st.require_rhs()?;
        let n_rhs = st.n_rhs;
        let local_rows = solution.len() / n_rhs;
        let batch_width: usize =
            st.options.get("nrhs").and_then(|v| v.parse().ok()).unwrap_or(1);
        let batched = force_batch || batch_width >= 2;
        if batched {
            probe::note("batch", format!("nrhs={n_rhs}"));
        }
        let solve_t = probe::SectionTimer::start("lisi_solve");
        let mut solver = self.backend.bind(&st, comm, plan, &artifact)?;
        let fused = if batched {
            B::solve_batch(&mut solver, comm, rhs, solution, n_rhs)
        } else {
            None
        };
        let columns = match fused {
            Some(columns) => columns?,
            None => {
                if batched {
                    probe::add(probe::Counter::RhsBatched, n_rhs as u64);
                }
                let mut columns = Vec::with_capacity(n_rhs);
                for k in 0..n_rhs {
                    let range = k * local_rows..(k + 1) * local_rows;
                    columns.push(B::solve_column(
                        &mut solver,
                        comm,
                        &rhs[range.clone()],
                        &mut solution[range],
                    )?);
                }
                columns
            }
        };

        // Fold the columns: the worst iteration count and residual, and
        // the reason of the first column that failed (of the last column
        // when all converged).
        let mut report = SolveReport {
            converged: true,
            setup_seconds: setup_seconds + st.convert_seconds,
            ..Default::default()
        };
        let (mut cond_estimate, mut initial_residual) = (None, None);
        for c in &columns {
            if report.converged {
                report.reason = c.reason;
            }
            report.converged &= c.converged;
            report.iterations = report.iterations.max(c.iterations);
            report.residual = report.residual.max(c.residual);
            cond_estimate = c.cond_estimate.or(cond_estimate);
            initial_residual = c.initial_residual.or(initial_residual);
        }
        report.solve_seconds = solve_t.stop();
        let labels = B::ledger_labels(&st);
        crate::ledger::emit(
            comm,
            &crate::ledger::SolveInfo {
                backend: B::NAME,
                report: &report,
                ksp: labels.ksp,
                pc: labels.pc,
                rtol: labels.rtol,
                cond_estimate,
                initial_residual,
            },
        );
        report.write_into(status)?;
        if report.converged {
            Ok(())
        } else {
            Err(LisiError::Package(format!(
                "{} did not converge (reason code {})",
                B::LABEL,
                report.reason
            )))
        }
    }
}

/// Implements every [`crate::SparseSolverPort`] method except `solve` by
/// delegating to the implementor's `state: parking_lot::Mutex<LisiState>`
/// field. Expanded for [`Adapter`] and for the resilient driver, which
/// each supply their own `solve`.
macro_rules! lisi_common_methods {
    () => {
        fn initialize(&self, comm: rcomm::Communicator) -> crate::error::LisiResult<()> {
            self.state.lock().comm = Some(comm);
            Ok(())
        }

        fn set_block_size(&self, bs: usize) -> crate::error::LisiResult<()> {
            if bs == 0 {
                return Err(crate::error::LisiError::InvalidInput(
                    "block size must be positive".into(),
                ));
            }
            self.state.lock().block_size = bs;
            Ok(())
        }

        fn set_start_row(&self, start_row: usize) -> crate::error::LisiResult<()> {
            self.state.lock().start_row = Some(start_row);
            Ok(())
        }

        fn set_local_rows(&self, rows: usize) -> crate::error::LisiResult<()> {
            self.state.lock().local_rows = Some(rows);
            Ok(())
        }

        fn set_local_nnz(&self, nnz: usize) -> crate::error::LisiResult<()> {
            self.state.lock().local_nnz = Some(nnz);
            Ok(())
        }

        fn set_global_cols(&self, cols: usize) -> crate::error::LisiResult<()> {
            self.state.lock().global_cols = Some(cols);
            Ok(())
        }

        fn setup_matrix_coo(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(
                values,
                rows,
                columns,
                crate::types::SparseStruct::Coo,
                0,
            )
        }

        fn setup_matrix(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
            structure: crate::types::SparseStruct,
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(values, rows, columns, structure, 0)
        }

        fn setup_matrix_offset(
            &self,
            values: &[f64],
            rows: &[usize],
            columns: &[usize],
            structure: crate::types::SparseStruct,
            offset: usize,
        ) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_matrix(values, rows, columns, structure, offset)
        }

        fn setup_rhs(&self, rhs: &[f64], n_rhs: usize) -> crate::error::LisiResult<()> {
            self.state.lock().ingest_rhs(rhs, n_rhs)
        }

        fn set(&self, key: &str, value: &str) -> crate::error::LisiResult<()> {
            // Reserved key: "probe" switches the process-wide tracing
            // mode through the generic option surface, so applications
            // can enable observability without a LISI interface change
            // (SIDL conformance forbids adding trait methods).
            if key == "probe" {
                let mode = probe::ProbeMode::parse(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "probe".into(),
                        reason: format!(
                            "unknown probe mode '{value}' (expected off|summary|json|chrome|flight)"
                        ),
                    }
                })?;
                probe::set_mode(mode);
                return Ok(());
            }
            // Reserved key: "threads" sets the rank-local thread count
            // used by the threaded kernels (SpMV chunks, level-scheduled
            // triangular solves, blocked reductions). Same rationale as
            // "probe": a process-wide knob every adapter understands
            // without widening the SIDL surface.
            if key == "threads" {
                let n: usize = value.parse().map_err(|_| {
                    crate::error::LisiError::BadParameter {
                        key: "threads".into(),
                        reason: format!("expected a positive thread count, got '{value}'"),
                    }
                })?;
                if n == 0 {
                    return Err(crate::error::LisiError::BadParameter {
                        key: "threads".into(),
                        reason: "thread count must be ≥ 1".into(),
                    });
                }
                rsparse::threads::set_threads(n);
                return Ok(());
            }
            // Reserved key: "trace" arms or disarms causal cross-rank
            // tracing (`probe::trace`) for subsequent solves — the
            // programmatic twin of `RSPARSE_TRACE`. Accepts the usual
            // switch spellings (1|on|true|yes / 0|off|false|no|none).
            if key == "trace" {
                let armed = probe::trace::parse_switch(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "trace".into(),
                        reason: format!(
                            "unknown trace switch '{value}' (expected on|off)"
                        ),
                    }
                })?;
                probe::trace::set_armed(armed);
                return Ok(());
            }
            // Reserved key: "ledger" routes the per-solve efficiency
            // ledger (work models + measured times + convergence
            // analytics) to a path — the programmatic twin of
            // `RSPARSE_LEDGER`. The grammar is infallible: off|0|none
            // disables, 1|on selects the default path, anything else is
            // the target path.
            if key == "ledger" {
                probe::ledger::set_destination(value);
                return Ok(());
            }
            // Reserved key: "format" selects the SpMV storage format the
            // next setupMatrix plans with (csr|sell|bcsr|auto). All
            // formats are bit-identical, so this is purely a performance
            // knob — same process-wide pattern as "probe"/"threads".
            if key == "format" {
                let policy = rsparse::FormatPolicy::parse(value).ok_or_else(|| {
                    crate::error::LisiError::BadParameter {
                        key: "format".into(),
                        reason: format!(
                            "unknown format '{value}' (expected csr|sell|bcsr|auto)"
                        ),
                    }
                })?;
                rsparse::autotune::set_policy(policy);
                return Ok(());
            }
            // Reserved key: "nrhs" opts subsequent solves into the
            // batched multi-RHS path — any value ≥ 2 makes `solve`
            // process all columns of the current right-hand-side block
            // through the batched drivers (one fused reduction / halo
            // exchange per step instead of one per column); 1 restores
            // column-at-a-time solves. Validated here, stored as an
            // ordinary option so it participates in the session
            // fingerprint.
            if key == "nrhs" {
                let n: usize = value.parse().map_err(|_| {
                    crate::error::LisiError::BadParameter {
                        key: "nrhs".into(),
                        reason: format!("expected a positive batch width, got '{value}'"),
                    }
                })?;
                if n == 0 {
                    return Err(crate::error::LisiError::BadParameter {
                        key: "nrhs".into(),
                        reason: "batch width must be ≥ 1".into(),
                    });
                }
                // Falls through: kept in the option table.
            }
            self.state.lock().options.set(key, value);
            Ok(())
        }

        fn set_int(&self, key: &str, value: i64) -> crate::error::LisiResult<()> {
            if key == "threads" || key == "nrhs" {
                return self.set(key, &value.to_string());
            }
            self.state.lock().options.set_int(key, value);
            Ok(())
        }

        fn set_bool(&self, key: &str, value: bool) -> crate::error::LisiResult<()> {
            if key == "trace" {
                probe::trace::set_armed(value);
                return Ok(());
            }
            self.state.lock().options.set_bool(key, value);
            Ok(())
        }

        fn set_double(&self, key: &str, value: f64) -> crate::error::LisiResult<()> {
            self.state.lock().options.set_double(key, value);
            Ok(())
        }

        fn get_all(&self) -> String {
            let st = self.state.lock();
            let mut out = format!("package={}\n", Self::PACKAGE_NAME);
            out.push_str(&st.options.dump());
            out
        }
    };
}
pub(crate) use lisi_common_methods;

impl<B: Backend> SparseSolverPort for Adapter<B> {
    lisi_common_methods!();

    fn solve(&self, solution: &mut [f64], status: &mut [f64]) -> LisiResult<()> {
        self.solve_impl(solution, status, false)
    }
}

/// Fetch the matrix-free port or explain what is missing.
pub(crate) fn require_matrix_free(state: &LisiState) -> LisiResult<Arc<dyn MatrixFreePort>> {
    state.matrix_free.clone().ok_or_else(|| {
        LisiError::BadPhase("matrix_free=true but no MatrixFree port is connected".into())
    })
}

/// Is the matrix-free mode requested?
pub(crate) fn matrix_free_requested(state: &LisiState) -> bool {
    state.options.get_parsed::<bool>("matrix_free").unwrap_or(false)
}
