//! Where Krylov solves deposit elastic-recovery checkpoints: single-RHS
//! GMRES at restart boundaries, single-RHS CG every `checkpoint_every`
//! iterations, and batched solves (k > 1) never. The checkpoint registry
//! is process-global, so the scenarios run in sequence in one test and no
//! other test in this binary touches the registry.

use rcomm::Universe;
use rkrylov::{checkpoint, Ksp, KspConfig, KspResult, KspType, MatOperator, PcType};
use rsparse::{generate, BlockRowPartition, DistCsrMatrix, DistVector};

const RANKS: usize = 2;

/// Solve the m = 10 Laplacian on `RANKS` ranks with `k` right-hand sides
/// (the single-vector entry when `k == 1`) and return rank 0's results.
fn solve(ksp_type: KspType, restart: usize, checkpoint_every: usize, k: usize) -> Vec<KspResult> {
    let a = generate::laplacian_2d(10);
    let n = a.rows();
    let b = vec![1.0; n];
    let out = Universe::run(RANKS, |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), &a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), &b).unwrap();
        let ksp = Ksp::new(KspConfig {
            ksp_type,
            pc_type: PcType::None,
            rtol: 1e-10,
            maxits: 2000,
            restart,
            checkpoint_every,
            ..KspConfig::default()
        })
        .unwrap();
        if k == 1 {
            let mut dx = DistVector::zeros(part, comm.rank());
            vec![ksp.solve(comm, &op, &db, &mut dx).unwrap()]
        } else {
            let bs = db.local().repeat(k);
            let mut xs = vec![0.0; bs.len()];
            ksp.solve_batch(comm, &op, &bs, &mut xs, k).unwrap()
        }
    });
    out.into_iter().next().unwrap()
}

/// The newest cohort-consistent snapshot's iteration, after checking that
/// every rank's newest deposit is at that iteration with `x` and `r` of
/// its local length.
fn consistent_iteration() -> usize {
    let members: Vec<usize> = (0..RANKS).collect();
    let (iteration, chunks) = checkpoint::latest_consistent(&members).expect("a snapshot");
    let part = BlockRowPartition::even(100, RANKS);
    for (rank, (start_row, x)) in chunks.iter().enumerate() {
        let snap = checkpoint::newest(rank).expect("rank deposited");
        assert_eq!(snap.iteration, iteration);
        assert_eq!(*start_row, part.start_row(rank));
        assert_eq!(x.len(), part.local_rows(rank));
        assert_eq!(snap.r.len(), part.local_rows(rank));
    }
    iteration
}

#[test]
fn single_rhs_solves_deposit_and_batched_solves_do_not() {
    checkpoint::clear_all();
    let res = solve(KspType::Gmres, 5, 5, 1);
    assert!(res[0].converged() && res[0].iterations > 5);
    let it = consistent_iteration();
    assert!(
        it > 0 && it.is_multiple_of(5),
        "GMRES(5) snapshot at iteration {it}"
    );
    assert!(it < res[0].iterations);

    checkpoint::clear_all();
    let res = solve(KspType::Cg, 30, 4, 1);
    assert!(res[0].converged() && res[0].iterations > 4);
    let it = consistent_iteration();
    assert!(
        it > 0 && it.is_multiple_of(4),
        "CG snapshot at iteration {it}"
    );

    checkpoint::clear_all();
    let res = solve(KspType::Gmres, 5, 5, 2);
    assert!(res.iter().all(|r| r.converged() && r.iterations > 5));
    assert!(checkpoint::latest_consistent(&[0, 1]).is_none());
    assert!((0..RANKS).all(|w| checkpoint::newest(w).is_none()));
    checkpoint::clear_all();
}
