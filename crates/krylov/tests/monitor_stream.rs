//! The streaming `SolveMonitor` path must deliver exactly the data the
//! legacy `keep_history` Vec recorded — and suppress that Vec when a
//! monitor is attached, so history is never allocated twice.

use probe::{ResidualHistory, SolveMonitor};
use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

fn run_solver(
    ksp_type: KspType,
    p: usize,
) -> Vec<(rkrylov::KspResult, rkrylov::KspResult, ResidualHistory)> {
    let n = 36;
    let a = generate::laplacian_2d(6);
    let b = vec![1.0; n];
    Universe::run(p, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let cfg = KspConfig {
            ksp_type,
            pc_type: PcType::Jacobi,
            rtol: 1e-8,
            maxits: 500,
            ..KspConfig::default()
        };
        let ksp = Ksp::new(cfg).unwrap();

        let mut x1 = DistVector::zeros(part.clone(), comm.rank());
        let legacy = ksp.solve(comm, &op, &db, &mut x1).unwrap();

        let mut x2 = DistVector::zeros(part, comm.rank());
        let mut mon = ResidualHistory::new();
        let monitored = ksp.solve_monitored(comm, &op, &db, &mut x2, &mut mon).unwrap();

        (legacy, monitored, mon)
    })
}

#[test]
fn monitored_stream_matches_legacy_history() {
    for ksp_type in [KspType::Cg, KspType::Gmres, KspType::Fgmres, KspType::BiCgStab] {
        for p in [1, 4] {
            for (legacy, monitored, mon) in run_solver(ksp_type, p) {
                assert_eq!(
                    mon.history, legacy.history,
                    "{ksp_type:?} at {p} ranks: monitor must see the same residual stream"
                );
                assert_eq!(mon.iterations, legacy.iterations);
                assert_eq!(mon.final_residual, legacy.final_residual);
                assert_eq!(mon.converged, legacy.converged());
                // The monitored result keeps no duplicate Vec.
                assert!(
                    monitored.history.is_empty(),
                    "{ksp_type:?}: legacy history must be off when a monitor is attached"
                );
                assert_eq!(monitored.iterations, legacy.iterations);
                assert_eq!(monitored.reason, legacy.reason);
            }
        }
    }
}

#[test]
fn per_iteration_collective_counts_are_nondecreasing_and_solve_scoped() {
    let out = run_solver(KspType::Cg, 2);
    for (_, _, mon) in out {
        assert!(!mon.collectives.is_empty());
        // Counts are cumulative within the solve: nondecreasing, starting
        // from this solve's own collectives (not the communicator's
        // lifetime total, which already includes the legacy solve).
        for w in mon.collectives.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let per_iter = mon.collectives[0];
        assert!(
            (1..=4).contains(&per_iter),
            "first iteration should need a handful of allreduces, got {per_iter}"
        );
    }
}

#[test]
fn on_finish_reports_nonconverged_solves_too() {
    #[derive(Default)]
    struct Last {
        finished: Option<(usize, bool)>,
    }
    impl SolveMonitor for Last {
        fn on_finish(&mut self, iterations: usize, _r: f64, converged: bool) {
            self.finished = Some((iterations, converged));
        }
    }

    let n = 100;
    let a = generate::laplacian_2d(10);
    let b = vec![1.0; n];
    let out = Universe::run(1, |comm| {
        let part = BlockRowPartition::even(n, 1);
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), 0, &b).unwrap();
        let mut dx = DistVector::zeros(part, 0);
        let ksp = Ksp::new(KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::None,
            rtol: 1e-14,
            maxits: 3,
            ..KspConfig::default()
        })
        .unwrap();
        let mut mon = Last::default();
        let res = ksp.solve_monitored(comm, &op, &db, &mut dx, &mut mon).unwrap();
        (res.iterations, mon.finished)
    });
    let (iterations, finished) = out[0];
    assert_eq!(iterations, 3);
    assert_eq!(finished, Some((3, false)));
}
