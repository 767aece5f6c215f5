//! Cohort-agreed admission: when the session service refuses one rank a
//! ticket, every rank of the cohort returns `LisiError::Busy` from the
//! same solve instead of stranding the admitted ranks inside a
//! collective until the deadlock watchdog fires.
//!
//! The limits are read once, by the first `SolverService::global()`
//! call, so this file holds a single test that sets them first.

use std::time::{Duration, Instant};

use lisi::{
    LisiError, RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SparseSolverPort, SparseStruct,
    STATUS_LEN,
};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition};

/// A backend constructor, boxed behind the port trait.
type MakePort = fn() -> Box<dyn SparseSolverPort>;

#[test]
fn every_rank_gets_busy_when_one_rank_is_refused() {
    // One solve in flight process-wide and no queue: of two rank-threads
    // entering the same solve, exactly one gets a ticket.
    std::env::set_var("RSPARSE_SESSION_MAX_INFLIGHT", "1");
    std::env::set_var("RSPARSE_SESSION_QUEUE", "0");

    let n_side = 6usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b = vec![1.0; n];
    let backends: [(&str, MakePort); 4] = [
        ("rksp", || Box::new(RkspAdapter::new())),
        ("raztec", || Box::new(RaztecAdapter::new())),
        ("rslu", || Box::new(RsluAdapter::new())),
        ("rmg", || Box::new(RmgAdapter::new())),
    ];
    for (name, make) in backends {
        let start = Instant::now();
        let errors = Universe::run(2, |comm| {
            let part = BlockRowPartition::even(n, comm.size());
            let range = part.range(comm.rank());
            let local = a.row_block(range.start, range.end).unwrap();
            let solver = make();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(range.len()).unwrap();
            solver.set_global_cols(n).unwrap();
            solver
                .setup_matrix(
                    local.values(),
                    local.row_ptr(),
                    local.col_idx(),
                    SparseStruct::Csr,
                )
                .unwrap();
            solver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap_err()
        });
        let elapsed = start.elapsed();
        for (rank, e) in errors.iter().enumerate() {
            assert!(
                matches!(e, LisiError::Busy(_)),
                "{name}: rank {rank} got {e}"
            );
            assert_eq!(e.code(), -7, "{name}: rank {rank}");
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "{name}: the cohort agreed on Busy without the deadlock watchdog ({elapsed:?})"
        );
    }
}
