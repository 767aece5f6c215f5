//! The two call paths (native vs CCA/LISI) and the timing machinery.

use std::sync::Arc;

use cca::Framework;
use lisi::{SolverComponent, SparseSolverPort, SOLVER_PORT, SOLVER_PORT_TYPE};
use rcomm::Communicator;
use rsparse::{DistCsrMatrix, DistVector};

use crate::workload::Workload;

/// Which solver package a run exercises (the paper's PETSc / Trilinos /
/// SuperLU triple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Package {
    /// RKSP — the PETSc stand-in.
    Rksp,
    /// RAztec — the Trilinos stand-in.
    Raztec,
    /// RSLU — the SuperLU stand-in.
    Rslu,
}

impl Package {
    /// All three, in the paper's order.
    pub const ALL: [Package; 3] = [Package::Rksp, Package::Raztec, Package::Rslu];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Package::Rksp => "RKSP",
            Package::Raztec => "RAztec",
            Package::Rslu => "RSLU",
        }
    }
}

/// Outcome of one timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Wall seconds of the solve workflow (max over ranks).
    pub seconds: f64,
    /// Iterations reported by the solver (0 for the direct package).
    pub iterations: usize,
    /// Final residual norm.
    pub residual: f64,
    /// Did the solver converge?
    pub converged: bool,
}

/// Synchronized wall-time of `f` on this communicator: barrier, run,
/// allreduce-max of the per-rank elapsed times. Timing goes through
/// [`probe::timed`], so when the probe is enabled the same measurement
/// also lands in the per-rank span table (and chrome trace) under `name`.
fn timed<R>(
    comm: &Communicator,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (f64, R) {
    comm.barrier().expect("barrier");
    let (r, mine) = probe::timed(name, f);
    let max = comm.allreduce(mine, rcomm::max).expect("allreduce");
    (max, r)
}

/// The **non-CCA** path: call the native package APIs directly, exactly
/// as a hand-coupled application would.
pub fn run_native(comm: &Communicator, package: Package, w: &Workload) -> RunResult {
    // Mesh generation is outside the measured region in the paper (it is
    // written to local files before the solve phase starts).
    let local = w.problem().assemble_local(comm);
    let partition = local.partition.clone();
    let rank = comm.rank();

    match package {
        Package::Rksp => {
            let mut opts = rkrylov::Options::new();
            for (k, v) in &w.params {
                opts.set(k, v);
            }
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let dist =
                    DistCsrMatrix::from_local_rows(comm, partition.clone(), local.matrix.clone())
                        .expect("distribute");
                let op = rkrylov::MatOperator::new(dist);
                let ksp = rkrylov::Ksp::from_options(&opts).expect("configure");
                let b = DistVector::from_local(partition.clone(), rank, local.rhs.clone())
                    .expect("rhs");
                setup.stop();
                let _solve = probe::span!("native_solve");
                let mut x = DistVector::zeros(partition.clone(), rank);
                let res = ksp.solve(comm, &op, &b, &mut x).expect("solve");
                (res.iterations, res.final_residual, res.converged())
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
        Package::Raztec => {
            let mut az_opts = raztec::AztecOptions::default();
            for (k, v) in &w.params {
                match k.as_str() {
                    "solver" => az_opts.solver = raztec::AzSolver::parse(v).expect("solver"),
                    "preconditioner" => {
                        az_opts.precond = raztec::AzPrecond::parse(v).expect("precond")
                    }
                    "tol" => az_opts.tol = v.parse().expect("tol"),
                    "maxits" => az_opts.max_iter = v.parse().expect("maxits"),
                    _ => {}
                }
            }
            // Match the LISI convergence convention (‖r‖/‖b‖).
            az_opts.conv = raztec::AzConv::Rhs;
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let map = raztec::Map::from_partition(partition.clone(), rank);
                let a = raztec::CrsMatrix::from_local_rows(comm, map.clone(), local.matrix.clone())
                    .expect("distribute");
                let b = raztec::Vector::from_values(map.clone(), local.rhs.clone()).expect("rhs");
                let mut x = raztec::Vector::new(map);
                let mut az = raztec::AztecOO::new(&a);
                az.set_options(az_opts.clone());
                setup.stop();
                let _solve = probe::span!("native_solve");
                let st = az.iterate(comm, &b, &mut x).expect("solve");
                (st.its, st.true_residual, st.why.converged())
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
        Package::Rslu => {
            let (secs, out) = timed(comm, "native", || {
                let setup = probe::SectionTimer::start("native_setup");
                let dist =
                    DistCsrMatrix::from_local_rows(comm, partition.clone(), local.matrix.clone())
                        .expect("distribute");
                let mut solver = rdirect::DistRslu::new(rdirect::RsluOptions::default());
                solver.factorize(comm, &dist).expect("factorize");
                let b = DistVector::from_local(partition.clone(), rank, local.rhs.clone())
                    .expect("rhs");
                setup.stop();
                let _solve = probe::span!("native_solve");
                let x = solver.solve(comm, &partition, &b).expect("solve");
                let r = {
                    // Residual check so both paths do equivalent work.
                    let ax = dist.matvec(comm, &x).expect("matvec");
                    let mut rr = b.clone();
                    rr.axpy(-1.0, &ax).expect("axpy");
                    rr.norm2(comm).expect("norm")
                };
                (0usize, r, true)
            });
            RunResult { seconds: secs, iterations: out.0, residual: out.1, converged: out.2 }
        }
    }
}

/// Build a framework with one solver component of the requested package
/// plus an application shell, wired together; returns the fetched port.
/// This is the once-per-application wiring cost, outside the measured
/// region (the paper's component instantiation happens at launch).
pub fn wire_component(package: Package) -> (Framework, Arc<dyn SparseSolverPort>) {
    struct App;
    impl cca::Component for App {
        fn set_services(&mut self, services: &cca::Services) -> cca::CcaResult<()> {
            services.register_uses_port("solver", SOLVER_PORT_TYPE)
        }
    }
    let mut fw = Framework::with_registry(cca::sidl::SidlRegistry::lisi());
    let app = fw.instantiate("driver", Box::new(App)).expect("app");
    let solver_id = match package {
        Package::Rksp => fw.instantiate("solver", Box::new(SolverComponent::rksp())),
        Package::Raztec => fw.instantiate("solver", Box::new(SolverComponent::raztec())),
        Package::Rslu => fw.instantiate("solver", Box::new(SolverComponent::rslu())),
    }
    .expect("solver component");
    fw.connect(&app, "solver", &solver_id, SOLVER_PORT).expect("connect");
    let port = fw
        .services(&app)
        .expect("services")
        .get_port::<Arc<dyn SparseSolverPort>>("solver")
        .expect("port");
    (fw, port)
}

/// The **CCA** path: the same workload pushed through the LISI port of a
/// solver component.
pub fn run_cca(comm: &Communicator, package: Package, w: &Workload) -> RunResult {
    let local = w.problem().assemble_local(comm);
    let partition = local.partition.clone();
    let rank = comm.rank();
    let range = partition.range(rank);
    let (_fw, port) = wire_component(package);

    let (secs, out) = timed(comm, "cca", || {
        let setup = probe::SectionTimer::start("cca_setup");
        port.initialize(comm.dup().expect("dup")).expect("initialize");
        port.set_start_row(range.start).expect("start row");
        port.set_local_rows(range.len()).expect("local rows");
        port.set_local_nnz(local.matrix.nnz()).expect("local nnz");
        port.set_global_cols(partition.global_rows()).expect("global cols");
        for (k, v) in &w.params {
            port.set(k, v).expect("param");
        }
        port.setup_matrix(
            local.matrix.values(),
            local.matrix.row_ptr(),
            local.matrix.col_idx(),
            lisi::SparseStruct::Csr,
        )
        .expect("setup matrix");
        port.setup_rhs(&local.rhs, 1).expect("setup rhs");
        setup.stop();
        let _solve = probe::span!("cca_solve");
        let mut x = vec![0.0; range.len()];
        let mut status = [0.0; lisi::STATUS_LEN];
        port.solve(&mut x, &mut status).expect("solve");
        lisi::SolveReport::from_slice(&status)
    });
    RunResult {
        seconds: secs,
        iterations: out.iterations,
        residual: out.residual,
        converged: out.converged,
    }
}

/// Run both paths `reps` times and return
/// `(native seconds, cca seconds, iterations)`. The paper collects ten
/// runs on dedicated cluster nodes and picks the mean; on a shared
/// machine the mean is outlier-dominated, so this harness alternates the
/// execution order every repetition (cancelling warm-up drift) and
/// reports the **median**, documenting the deviation in EXPERIMENTS.md.
pub fn measure_pair(
    comm: &Communicator,
    package: Package,
    w: &Workload,
    reps: usize,
) -> (f64, f64, usize) {
    let mut iters = 0usize;
    let p = alternate(reps, |cca| {
        let r = if cca { run_cca(comm, package, w) } else { run_native(comm, package, w) };
        assert!(r.converged, "benchmark solves must converge");
        iters = iters.max(r.iterations);
        r.seconds
    });
    (p.a, p.b, iters)
}

/// Medians of an order-alternated A/B run ([`alternate`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Paired {
    /// Median seconds of side A.
    pub(crate) a: f64,
    /// Median seconds of side B.
    pub(crate) b: f64,
    /// Median per-pair ratio B/A: B's overhead over A.
    pub(crate) b_over_a: f64,
    /// Median per-pair ratio A/B: B's speedup over A.
    pub(crate) a_over_b: f64,
}

/// Time side A (`run(false)`) against side B (`run(true)`) in `trials`
/// pairs after one untimed warm-up pair. A runs first on even trials
/// and B on odd ones, so a monotone drift in machine load biases
/// neither side, and the per-pair ratios cancel slower drift. `run`
/// returns the seconds of one measurement; the helper only orders and
/// summarises them.
pub(crate) fn alternate(trials: usize, mut run: impl FnMut(bool) -> f64) -> Paired {
    run(false);
    run(true);
    let (mut a, mut b) = (Vec::with_capacity(trials), Vec::with_capacity(trials));
    for t in 0..trials {
        let (ta, tb) = if t % 2 == 0 {
            let ta = run(false);
            (ta, run(true))
        } else {
            let tb = run(true);
            (run(false), tb)
        };
        a.push(ta);
        b.push(tb);
    }
    let mut b_over_a: Vec<f64> = a.iter().zip(&b).map(|(x, y)| y / x).collect();
    let mut a_over_b: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x / y).collect();
    Paired {
        a: median(&mut a),
        b: median(&mut b),
        b_over_a: median(&mut b_over_a),
        a_over_b: median(&mut a_over_b),
    }
}

/// Median of `samples` (sorted in place): the middle value, or the mean
/// of the two middle values for an even count.
pub(crate) fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::paper_workload;
    use rcomm::Universe;

    #[test]
    fn both_paths_solve_and_agree_on_iterations() {
        let w = paper_workload(12);
        for package in Package::ALL {
            let out = Universe::run(2, |comm| {
                let n = run_native(comm, package, &w);
                let c = run_cca(comm, package, &w);
                (n, c)
            });
            let (n, c) = &out[0];
            assert!(n.converged && c.converged, "{package:?}");
            assert!(n.seconds > 0.0 && c.seconds > 0.0);
            // Same algorithm, same substrate → identical iteration counts.
            assert_eq!(n.iterations, c.iterations, "{package:?}");
            if package == Package::Rslu {
                assert_eq!(n.iterations, 0);
            } else {
                assert!(n.iterations > 0);
            }
        }
    }

    #[test]
    fn measure_pair_returns_positive_means() {
        let w = paper_workload(8);
        let out = Universe::run(2, |comm| measure_pair(comm, Package::Rksp, &w, 2));
        let (native, cca_s, iters) = out[0];
        assert!(native > 0.0 && cca_s > 0.0);
        assert!(iters > 0);
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn alternate_swaps_the_order_every_trial() {
        let mut order = Vec::new();
        let p = alternate(3, |b| {
            order.push(b);
            if b { 2.0 } else { 1.0 }
        });
        // Warm-up pair, then A-first, B-first, A-first.
        assert_eq!(order, [false, true, false, true, true, false, false, true]);
        assert_eq!((p.a, p.b, p.b_over_a, p.a_over_b), (1.0, 2.0, 2.0, 0.5));
    }

    #[test]
    fn package_names_are_stable() {
        assert_eq!(Package::Rksp.name(), "RKSP");
        assert_eq!(Package::Raztec.name(), "RAztec");
        assert_eq!(Package::Rslu.name(), "RSLU");
    }
}
