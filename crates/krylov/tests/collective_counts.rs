//! Collective-count contracts of the Krylov schedules on the paper's
//! 5-point problem: CG batches ‖r‖² and r·z into one `allreduce_vec`, and
//! GMRES/FGMRES batch every Arnoldi projection dot into one collective via
//! classical Gram–Schmidt. The counts are absolute bounds.

use rcomm::Universe;
use rkrylov::{Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

/// Solve the 2-D 5-point Laplacian at `p` ranks and return every rank's
/// `(KspResult, allreduce calls made during the solve)`.
fn solve_counted(
    ksp_type: KspType,
    p: usize,
    m: usize,
    restart: usize,
) -> Vec<(rkrylov::KspResult, u64)> {
    let a = generate::laplacian_2d(m);
    let n = a.rows();
    let x_true = generate::random_vector(n, 23);
    let b = a.matvec(&x_true).unwrap();
    Universe::run(p, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type,
            pc_type: PcType::Jacobi,
            rtol: 1e-10,
            maxits: 2000,
            restart,
            ..KspConfig::default()
        })
        .unwrap();
        let before = comm.allreduce_count();
        let res = ksp.solve(comm, &op, &db, &mut dx).unwrap();
        (res, comm.allreduce_count() - before)
    })
}

#[test]
fn cg_makes_three_setup_then_at_most_two_allreduces_per_iteration() {
    for p in [1usize, 4] {
        for (res, count) in solve_counted(KspType::Cg, p, 10, 30) {
            assert!(res.converged(), "p = {p}");
            // Setup costs three reductions (‖b‖, ‖r₀‖, r·z); each
            // iteration costs p·q plus the fused [‖r‖², r·z] pair.
            let its = res.iterations as u64;
            assert!(count > 3, "p = {p}: {count} allreduces");
            assert!(
                count <= 3 + 2 * its,
                "p = {p}: CG must spend ≤ 2 allreduces/iteration after 3 for setup, \
                 measured {count} over {its} iterations"
            );
        }
    }
}

#[test]
fn gmres_and_fgmres_make_two_allreduces_per_inner_iteration() {
    for ksp_type in [KspType::Gmres, KspType::Fgmres] {
        for (p, restart) in [(1usize, 30usize), (3, 30), (3, 5)] {
            for (res, count) in solve_counted(ksp_type, p, 10, restart) {
                assert!(res.converged(), "{ksp_type:?} p = {p} restart = {restart}");
                // Setup: ‖b‖ and ‖r₀‖. Each inner iteration: the batched
                // projection dots and the h_{j+1,j} norm. Each restart:
                // the true-residual norm.
                let its = res.iterations as u64;
                let m = restart as u64;
                let fixed = 2 + 2 * its;
                assert!(
                    (fixed + (its - 1) / m..=fixed + its / m).contains(&count),
                    "{ksp_type:?} p = {p} restart = {restart}: {count} allreduces \
                     over {its} iterations"
                );
            }
        }
    }
}
