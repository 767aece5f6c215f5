//! The four workloads and the two call paths each op runs: the LISI port
//! of a CCA solver component, and the native package API.

use std::ops::Range;
use std::sync::Arc;

use cca::Framework;
use lisi::status::STATUS_SETUP_SECONDS;
use lisi::{SolverComponent, SolverService, SparseSolverPort, SparseStruct, STATUS_LEN};
use rcomm::{CommStats, Communicator};
use rdirect::{DistRslu, RsluOptions};
use rkrylov::{Ksp, KspResult, LinearOperator, MatOperator, Preconditioner};
use rmesh::LocalSystem;
use rsparse::{DistCsrMatrix, DistVector};

use crate::trace::{self, TracedOperator, TracedPc};

/// Relative tolerance every iterative workload solves to.
pub const TOL: f64 = 1e-8;
/// The true relative residual ‖b − A·x‖/‖b‖ of an iterative solve may
/// exceed `TOL` by this factor before the op counts as failed: the
/// solvers stop on a recurrence residual, which drifts from the true one.
pub const RESIDUAL_SLACK: f64 = 10.0;
/// True relative residual allowed for the sparse direct solve.
pub const DIRECT_RESIDUAL: f64 = 1e-10;
/// CCA and native solutions must agree to this relative max-norm.
pub const AGREE_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Table1Cold,
    SweepSingle,
    SweepBatched,
    DirectCold,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Table1Cold,
        Kind::SweepSingle,
        Kind::SweepBatched,
        Kind::DirectCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1Cold => "table1_cold",
            Kind::SweepSingle => "sweep_single",
            Kind::SweepBatched => "sweep_batched",
            Kind::DirectCold => "direct_cold",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Interior grid points per side of the paper's PDE.
    pub fn m(self) -> usize {
        match self {
            Kind::Table1Cold => 200,
            _ => 50,
        }
    }

    /// Sweeps keep one wired component and one native operator across
    /// ops; the cold workloads rebuild both in every op.
    pub fn is_sweep(self) -> bool {
        matches!(self, Kind::SweepSingle | Kind::SweepBatched)
    }

    /// Right-hand sides solved per op.
    pub fn rhs_per_op(self) -> usize {
        if self.is_sweep() {
            8
        } else {
            1
        }
    }

    /// Right-hand sides handed to one `setup_rhs` + `solve`: the whole op
    /// for the batched sweep, one column otherwise.
    pub fn group_width(self) -> usize {
        if self == Kind::SweepBatched {
            self.rhs_per_op()
        } else {
            1
        }
    }

    /// Generic LISI parameters, also the native RKSP option database.
    pub fn params(self) -> Vec<(&'static str, String)> {
        let tol = TOL.to_string();
        match self {
            Kind::Table1Cold => vec![
                ("solver", "bicgstab".into()),
                ("preconditioner", "jacobi".into()),
                ("tol", tol),
                ("maxits", "20000".into()),
            ],
            Kind::SweepSingle | Kind::SweepBatched => {
                let mut p = vec![
                    ("solver", "gmres".into()),
                    ("restart", "30".into()),
                    ("preconditioner", "ilu".into()),
                    ("tol", tol),
                    ("maxits", "20000".into()),
                ];
                if self == Kind::SweepBatched {
                    p.push(("nrhs", self.rhs_per_op().to_string()));
                }
                p
            }
            Kind::DirectCold => Vec::new(),
        }
    }

    fn residual_bound(self) -> f64 {
        if self == Kind::DirectCold {
            DIRECT_RESIDUAL
        } else {
            TOL * RESIDUAL_SLACK
        }
    }
}

/// SplitMix64: a tiny, well-mixed, dependency-free generator step.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This rank's rows of the right-hand sides of one op, column-major
/// (`range.len()` rows × `cols`). Entry `(row, col)` is the paper's
/// right-hand side plus seeded noise at 1% of the stencil's h² scale, and
/// depends only on `(seed, input, col, row)`, never on the rank count.
pub fn rhs_block(
    seed: u64,
    input: u64,
    cols: usize,
    m: usize,
    range: Range<usize>,
    base: &[f64],
) -> Vec<f64> {
    let noise = 0.01 / ((m + 1) * (m + 1)) as f64;
    let stream = splitmix64(splitmix64(seed) ^ input.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let mut out = Vec::with_capacity(cols * range.len());
    for col in 0..cols as u64 {
        let col_stream = splitmix64(stream ^ col.wrapping_mul(0x8cb9_2ba7_2f3d_8dd7));
        for (row, b) in range.clone().zip(base) {
            let bits = splitmix64(col_stream ^ row as u64);
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            out.push(b + noise * (2.0 * unit - 1.0));
        }
    }
    out
}

/// One op's result on the CCA path, on this rank.
#[derive(Clone, Default)]
pub struct CcaOut {
    pub seconds: f64,
    pub wire_s: f64,
    pub ingest_s: f64,
    /// Package set-up the port reported for the op's first solve, minus
    /// the `setup_matrix` call: the status slot also counts the port's
    /// own ingest conversion, which runs inside that call.
    pub pkg_setup_s: f64,
    pub solves: usize,
    pub warm_solves: usize,
    pub converged: bool,
    /// Iteration count reported by each `solve` call.
    pub iters: Vec<usize>,
    pub x: Vec<f64>,
    pub error: Option<String>,
}

/// One op's result on the native path, on this rank.
#[derive(Default)]
pub struct NativeOut {
    pub seconds: f64,
    pub converged: bool,
    /// Iterations per solve call, comparable with [`CcaOut::iters`] (a
    /// batched call reports its slowest column, as the port does).
    pub iters: Vec<usize>,
    /// Iterations summed over every right-hand side.
    pub rhs_iters: usize,
    pub x: Vec<f64>,
    /// Traffic on the native communicator during the solve calls.
    pub comm: CommStats,
    pub error: Option<String>,
}

struct CcaSession {
    _framework: Framework,
    port: Arc<dyn SparseSolverPort>,
    setup_matrix_s: f64,
}

enum NativeSession {
    Krylov {
        ksp: Ksp,
        op: MatOperator,
        pc: Box<dyn Preconditioner>,
    },
    Direct {
        dist: DistCsrMatrix,
        solver: Box<DistRslu>,
    },
}

/// Build a framework holding the solver component and an application
/// shell wired to it, and fetch the application's solver port.
fn wire_component(kind: Kind) -> (Framework, Arc<dyn SparseSolverPort>) {
    struct App;
    impl cca::Component for App {
        fn set_services(&mut self, services: &cca::Services) -> cca::CcaResult<()> {
            services.register_uses_port("solver", lisi::SOLVER_PORT_TYPE)
        }
    }
    let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
    let app = fw
        .instantiate("driver", Box::new(App))
        .expect("instantiate the application shell");
    let solver = if kind == Kind::DirectCold {
        fw.instantiate("solver", Box::new(SolverComponent::rslu()))
    } else {
        fw.instantiate("solver", Box::new(SolverComponent::rksp()))
    }
    .expect("instantiate the solver component");
    fw.connect(&app, "solver", &solver, lisi::SOLVER_PORT)
        .expect("connect the solver port");
    let port = fw
        .services(&app)
        .expect("application services")
        .get_port::<Arc<dyn SparseSolverPort>>("solver")
        .expect("fetch the solver port");
    (fw, port)
}

/// Per-rank state of one workload run.
pub struct RankWork<'c> {
    kind: Kind,
    seed: u64,
    comm: &'c Communicator,
    native_comm: Communicator,
    check_comm: Communicator,
    local: LocalSystem,
    /// The benchmark's own copy of the assembled matrix, for checks.
    reference: DistCsrMatrix,
    session: Option<CcaSession>,
    native: Option<NativeSession>,
}

impl<'c> RankWork<'c> {
    pub fn new(kind: Kind, seed: u64, comm: &'c Communicator) -> Self {
        let local = rmesh::paper_problem(kind.m()).assemble_local(comm);
        let native_comm = comm.dup().expect("dup the native communicator");
        let check_comm = comm.dup().expect("dup the check communicator");
        let reference = DistCsrMatrix::from_local_rows(
            &check_comm,
            local.partition.clone(),
            local.matrix.clone(),
        )
        .expect("distribute the reference matrix");
        RankWork {
            kind,
            seed,
            comm,
            native_comm,
            check_comm,
            local,
            reference,
            session: None,
            native: None,
        }
    }

    fn rows(&self) -> Range<usize> {
        self.local.partition.range(self.comm.rank())
    }

    pub fn rhs(&self, input: u64, cols: usize) -> Vec<f64> {
        rhs_block(
            self.seed,
            input,
            cols,
            self.kind.m(),
            self.rows(),
            &self.local.rhs,
        )
    }

    /// Column groups of `rhs` handed to one `setup_rhs` + `solve` each.
    fn groups(&self, rhs: &[f64]) -> Vec<Range<usize>> {
        let k = rhs.len() / self.rows().len();
        let w = self.kind.group_width();
        (0..k).step_by(w).map(|j| j..(j + w).min(k)).collect()
    }

    /// Drop the component and native objects of the previous op, and
    /// clear the process-wide session cache, so the next op starts cold.
    pub fn reset_for_cold_op(&mut self) {
        self.session = None;
        self.native = None;
        self.comm.barrier().expect("barrier");
        if self.comm.rank() == 0 {
            SolverService::global().clear();
        }
        self.comm.barrier().expect("barrier");
    }

    /// The op through the LISI port. `fresh` wires a new component and
    /// ingests the matrix; otherwise the kept session solves.
    pub fn cca_op(&mut self, rhs: &[f64], fresh: bool) -> CcaOut {
        self.comm.barrier().expect("barrier");
        let (mut out, seconds) = trace::timed("op.cca", || self.cca_body(rhs, fresh));
        out.seconds = seconds;
        out
    }

    fn cca_body(&mut self, rhs: &[f64], fresh: bool) -> CcaOut {
        let mut out = CcaOut {
            converged: true,
            ..CcaOut::default()
        };
        let n = self.rows().len();
        let groups = self.groups(rhs);
        if fresh {
            let ((framework, port), wire_s) =
                trace::timed("cca.wire", || wire_component(self.kind));
            let first = groups[0].clone();
            let (ingested, ingest_s) = trace::timed("lisi.ingest", || {
                self.ingest(
                    port.as_ref(),
                    &rhs[first.start * n..first.end * n],
                    first.len(),
                )
            });
            out.wire_s = wire_s;
            out.ingest_s = ingest_s;
            match ingested {
                Ok(setup_matrix_s) => {
                    self.session = Some(CcaSession {
                        _framework: framework,
                        port,
                        setup_matrix_s,
                    })
                }
                Err(e) => {
                    out.error = Some(e.to_string());
                    return out;
                }
            }
        }
        let session = self.session.as_ref().expect("a wired component");
        out.x = vec![0.0; rhs.len()];
        for (g, cols) in groups.iter().enumerate() {
            let block = cols.start * n..cols.end * n;
            if !(fresh && g == 0) {
                let (set, _) = trace::timed("lisi.setup_rhs", || {
                    session.port.setup_rhs(&rhs[block.clone()], cols.len())
                });
                if let Err(e) = set {
                    out.error = Some(e.to_string());
                    return out;
                }
            }
            let mut status = [0.0; STATUS_LEN];
            let (solved, _) = trace::timed("lisi.solve", || {
                session.port.solve(&mut out.x[block], &mut status)
            });
            let report = lisi::SolveReport::from_slice(&status);
            let pkg_setup = status[STATUS_SETUP_SECONDS] - session.setup_matrix_s;
            if g == 0 && fresh {
                out.pkg_setup_s = pkg_setup;
            }
            out.solves += 1;
            if pkg_setup <= 0.0 {
                out.warm_solves += 1;
            }
            out.converged &= report.converged;
            out.iters.push(report.iterations);
            if let Err(e) = solved {
                out.error = Some(e.to_string());
                return out;
            }
        }
        out
    }

    /// `initialize` through the first `setup_rhs`; returns the seconds the
    /// `setup_matrix` call took.
    fn ingest(
        &self,
        port: &dyn SparseSolverPort,
        rhs: &[f64],
        cols: usize,
    ) -> lisi::LisiResult<f64> {
        let rows = self.rows();
        let a = &self.local.matrix;
        port.initialize(self.comm.dup()?)?;
        port.set_start_row(rows.start)?;
        port.set_local_rows(rows.len())?;
        port.set_local_nnz(a.nnz())?;
        port.set_global_cols(self.local.partition.global_rows())?;
        for (k, v) in self.kind.params() {
            port.set(k, &v)?;
        }
        let (set, setup_matrix_s) = trace::timed("lisi.setup_matrix", || {
            port.setup_matrix(a.values(), a.row_ptr(), a.col_idx(), SparseStruct::Csr)
        });
        set?;
        trace::timed("lisi.setup_rhs", || port.setup_rhs(rhs, cols)).0?;
        Ok(setup_matrix_s)
    }

    /// The same op through the native package API. `traced` hands the
    /// Krylov solver forwarding wrappers that time the kernels.
    pub fn native_op(&mut self, rhs: &[f64], fresh: bool, traced: bool) -> NativeOut {
        self.comm.barrier().expect("barrier");
        let (out, seconds) = trace::timed("op.native", || self.native_body(rhs, fresh, traced));
        let mut out = out.unwrap_or_else(|e| NativeOut {
            error: Some(e),
            ..NativeOut::default()
        });
        out.seconds = seconds;
        out
    }

    fn native_body(&mut self, rhs: &[f64], fresh: bool, traced: bool) -> Result<NativeOut, String> {
        let comm = &self.native_comm;
        let partition = &self.local.partition;
        let rank = comm.rank();
        let n = partition.local_rows(rank);
        if fresh {
            let (dist, _) = trace::timed("rsparse.distribute", || {
                DistCsrMatrix::from_local_rows(comm, partition.clone(), self.local.matrix.clone())
            });
            let dist = dist.map_err(|e| e.to_string())?;
            self.native = Some(if self.kind == Kind::DirectCold {
                let mut solver = Box::new(DistRslu::new(RsluOptions::default()));
                trace::timed("rdirect.factorize", || solver.factorize(comm, &dist))
                    .0
                    .map_err(|e| e.to_string())?;
                NativeSession::Direct { dist, solver }
            } else {
                let mut opts = rkrylov::Options::new();
                for (k, v) in self.kind.params() {
                    opts.set(k, &v);
                }
                let ksp = Ksp::from_options(&opts).map_err(|e| e.to_string())?;
                let op = MatOperator::new(dist);
                let (pc, _) = trace::timed("rkrylov.pc_setup", || {
                    if traced {
                        ksp.make_pc(&TracedOperator { inner: &op })
                    } else {
                        ksp.make_pc(&op)
                    }
                });
                NativeSession::Krylov {
                    ksp,
                    op,
                    pc: pc.map_err(|e| e.to_string())?,
                }
            });
        }
        let k = rhs.len() / n;
        let mut out = NativeOut {
            converged: true,
            x: vec![0.0; rhs.len()],
            ..NativeOut::default()
        };
        let before = comm.stats();
        match self.native.as_mut().expect("a native session") {
            NativeSession::Direct { dist, solver } => {
                let b = DistVector::from_local(partition.clone(), rank, rhs.to_vec())
                    .map_err(|e| e.to_string())?;
                let (x, _) =
                    trace::timed("rdirect.solve", || solver.solve(comm, dist.partition(), &b));
                out.x.copy_from_slice(x.map_err(|e| e.to_string())?.local());
                out.iters.push(0);
            }
            NativeSession::Krylov { ksp, op, pc } => {
                let traced_op = TracedOperator { inner: op };
                let traced_pc = TracedPc { inner: pc.as_ref() };
                let (op, pc): (&dyn LinearOperator, &dyn Preconditioner) = if traced {
                    (&traced_op, &traced_pc)
                } else {
                    (op, pc.as_ref())
                };
                let fold = |out: &mut NativeOut, results: &[KspResult]| {
                    for r in results {
                        out.converged &= r.converged();
                        out.rhs_iters += r.iterations;
                    }
                    out.iters
                        .push(results.iter().map(|r| r.iterations).max().unwrap_or(0));
                };
                if self.kind == Kind::SweepBatched {
                    let (res, _) = trace::timed("rkrylov.solve", || {
                        ksp.solve_batch_with_pc(comm, op, pc, rhs, &mut out.x, k)
                    });
                    fold(&mut out, &res.map_err(|e| e.to_string())?);
                } else {
                    for j in 0..k {
                        let b = DistVector::from_local(
                            partition.clone(),
                            rank,
                            rhs[j * n..(j + 1) * n].to_vec(),
                        )
                        .map_err(|e| e.to_string())?;
                        let mut x = DistVector::zeros(partition.clone(), rank);
                        let (res, _) = trace::timed("rkrylov.solve", || {
                            ksp.solve_with_pc(comm, op, pc, &b, &mut x)
                        });
                        fold(&mut out, &[res.map_err(|e| e.to_string())?]);
                        out.x[j * n..(j + 1) * n].copy_from_slice(x.local());
                    }
                }
            }
        }
        out.comm = stats_delta(before, comm.stats());
        Ok(out)
    }

    /// Check one op's outputs; returns the names of the failed checks
    /// (empty when the op is correct). Collective over the cohort.
    pub fn verify(
        &self,
        rhs: &[f64],
        cca: &CcaOut,
        native: &NativeOut,
        cold: bool,
    ) -> Vec<&'static str> {
        let mut failed = Vec::new();
        let mut flag = |name: &'static str, bad: bool| {
            if bad {
                failed.push(name);
            }
        };
        flag("cca_error", cca.error.is_some());
        flag("native_error", native.error.is_some());
        flag("cca_not_converged", !cca.converged);
        flag("native_not_converged", !native.converged);
        flag("iterations_differ", cca.iters != native.iters);
        flag("cca_served_warm", cold && cca.pkg_setup_s <= 0.0);
        let complete = self
            .check_comm
            .allreduce(
                cca.x.len() == rhs.len() && native.x.len() == rhs.len(),
                rcomm::min,
            )
            .expect("allreduce");
        flag("missing_solution", !complete);
        let (cca_res, nat_res, gap) = if complete {
            (
                self.relative_residual(rhs, &cca.x),
                self.relative_residual(rhs, &native.x),
                self.gap(&cca.x, &native.x),
            )
        } else {
            (f64::INFINITY, f64::INFINITY, f64::INFINITY)
        };
        let bound = self.kind.residual_bound();
        flag("cca_residual", cca_res.is_nan() || cca_res > bound);
        flag("native_residual", nat_res.is_nan() || nat_res > bound);
        flag("solutions_disagree", gap.is_nan() || gap > AGREE_TOL);
        // Every rank must count the op the same way.
        let mine = failed.len() as f64;
        let any = self
            .check_comm
            .allreduce(mine, rcomm::max)
            .expect("allreduce");
        if any > 0.0 && failed.is_empty() {
            failed.push("failed_on_peer");
        }
        failed
    }

    /// max over columns of ‖b − A·x‖₂ / ‖b‖₂, recomputed with `rsparse`
    /// from the benchmark's own matrix.
    fn relative_residual(&self, rhs: &[f64], x: &[f64]) -> f64 {
        let comm = &self.check_comm;
        let part = self.reference.partition();
        let n = part.local_rows(comm.rank());
        let mut worst: f64 = 0.0;
        for (b, x) in rhs.chunks(n).zip(x.chunks(n)) {
            let b =
                DistVector::from_local(part.clone(), comm.rank(), b.to_vec()).expect("rhs vector");
            let x = DistVector::from_local(part.clone(), comm.rank(), x.to_vec())
                .expect("solution vector");
            let mut r = self.reference.matvec(comm, &x).expect("reference matvec");
            r.axpy(-1.0, &b).expect("axpy");
            let rel = r.norm2(comm).expect("norm") / b.norm2(comm).expect("norm");
            worst = if rel.is_nan() {
                f64::NAN
            } else {
                worst.max(rel)
            };
        }
        worst
    }

    /// max |x_cca − x_native| / max |x_native| over the whole system.
    fn gap(&self, a: &[f64], b: &[f64]) -> f64 {
        let diff = a
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        let scale = b.iter().map(|q| q.abs()).fold(0.0, f64::max);
        let g = self
            .check_comm
            .allreduce_vec(&[diff, scale], rcomm::max)
            .expect("allreduce");
        g[0] / g[1]
    }

    /// Replay the probes the port's warm path pays on every solve, so the
    /// CCA−native delta can be split: the session fingerprint over this
    /// op's arrays, one admission ticket, and the two cohort allgathers.
    pub fn probe_port_costs(&self) {
        let comm = self.comm;
        let a = &self.local.matrix;
        if let Some(session) = &self.session {
            let dump = session.port.get_all();
            let options = dump.split_once('\n').map_or("", |(_, rest)| rest);
            trace::timed("lisi.fingerprint", || {
                std::hint::black_box(lisi::service::fingerprint(
                    comm.rank(),
                    comm.size(),
                    self.rows().start,
                    self.local.partition.global_rows(),
                    a.row_ptr(),
                    a.col_idx(),
                    a.values(),
                    options,
                ))
            });
        }
        trace::timed("lisi.admit", || drop(SolverService::global().admit()));
        comm.barrier().expect("barrier");
        for _ in 0..2 {
            trace::timed("rcomm.allgather", || {
                comm.allgather(true).expect("allgather")
            });
        }
        comm.barrier().expect("barrier");
        trace::timed("rcomm.allreduce", || {
            comm.allreduce(1.0f64, rcomm::sum).expect("allreduce")
        });
    }

    /// Bytes one SpMV over this rank's rows is modelled to move: values
    /// and column indices per nonzero, the row pointer, the output, and
    /// the input entries the rows read (owned plus ghost).
    pub fn spmv_bytes(&self) -> f64 {
        let a = &self.local.matrix;
        let word = std::mem::size_of::<usize>() as f64;
        let nnz = a.nnz() as f64;
        let rows = a.rows() as f64;
        let ghosts = self.reference.ghost_count() as f64;
        nnz * (8.0 + word) + (rows + 1.0) * word + rows * 8.0 + (rows + ghosts) * 8.0
    }
}

fn stats_delta(a: CommStats, b: CommStats) -> CommStats {
    CommStats {
        sends: b.sends - a.sends,
        bytes_sent: b.bytes_sent - a.bytes_sent,
        allreduces: b.allreduces - a.allreduces,
        ..CommStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(m: usize) -> (Range<usize>, Vec<f64>) {
        let (_, b) = rmesh::paper_problem(m).assemble_global();
        (0..b.len(), b)
    }

    #[test]
    fn one_seed_reproduces_identical_rhs_bits() {
        let (range, b) = base(12);
        let first = rhs_block(7, 3, 8, 12, range.clone(), &b);
        let again = rhs_block(7, 3, 8, 12, range, &b);
        assert!(first
            .iter()
            .zip(&again)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
    }

    #[test]
    fn two_seeds_give_different_rhs_over_the_same_matrix() {
        let (a1, b1) = rmesh::paper_problem(12).assemble_global();
        let (a2, _) = rmesh::paper_problem(12).assemble_global();
        assert_eq!(a1, a2, "the matrix does not depend on the seed");
        let range = 0..b1.len();
        let s1 = rhs_block(1, 0, 2, 12, range.clone(), &b1);
        let s2 = rhs_block(2, 0, 2, 12, range, &b1);
        let differing = s1
            .iter()
            .zip(&s2)
            .filter(|(p, q)| p.to_bits() != q.to_bits())
            .count();
        assert!(
            differing > s1.len() * 9 / 10,
            "only {differing} of {} entries differ",
            s1.len()
        );
    }

    #[test]
    fn rank_slices_concatenate_to_the_serial_block() {
        let (range, b) = base(10);
        let whole = rhs_block(5, 1, 1, 10, range, &b);
        let mid = b.len() / 2;
        let mut split = rhs_block(5, 1, 1, 10, 0..mid, &b[..mid]);
        split.extend(rhs_block(5, 1, 1, 10, mid..b.len(), &b[mid..]));
        assert_eq!(whole, split);
    }
}
