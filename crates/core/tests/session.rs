//! Session-layer acceptance: batched multi-RHS solves are bitwise
//! identical to the equivalent sequence of single solves, and a warm
//! second session performs zero setup (the `lisi_setup` span never
//! opens and the session cache reports a hit on every rank).
//!
//! The service cache is process-global, so every test salts its option
//! table with a unique `session_tag` to keep fingerprints disjoint from
//! concurrently running tests.

use proptest::prelude::*;

use lisi::{
    LisiError, RaztecAdapter, RkspAdapter, RmgAdapter, RsluAdapter, SolveReport,
    SparseSolverPort, SparseStruct, STATUS_LEN,
};
use rcomm::Universe;
use rsparse::{generate, BlockRowPartition, CsrMatrix};

/// Wire `solver` to `comm` over a row block of `a`; returns the block.
fn wire(
    solver: &dyn SparseSolverPort,
    comm: &rcomm::Communicator,
    a: &CsrMatrix,
    n: usize,
    tag: &str,
    opts: &[(&str, &str)],
) -> std::ops::Range<usize> {
    let part = BlockRowPartition::even(n, comm.size());
    let range = part.range(comm.rank());
    let local = a.row_block(range.start, range.end).unwrap();
    solver.initialize(comm.dup().unwrap()).unwrap();
    solver.set_start_row(range.start).unwrap();
    solver.set_local_rows(range.len()).unwrap();
    solver.set_global_cols(n).unwrap();
    solver.set("session_tag", tag).unwrap();
    for (k, v) in opts {
        solver.set(k, v).unwrap();
    }
    solver
        .setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
        .unwrap();
    range
}

/// Solve `k` right-hand sides two ways on `p` ranks — one `solve_batch`
/// call against `k` independent single solves — and return the local
/// solution blocks `(batched, sequential)` per rank.
fn batch_and_sequential(
    p: usize,
    k: usize,
    n_side: usize,
    rhs_full: Vec<f64>,
    tag: String,
    opts: Vec<(String, String)>,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let n = n_side * n_side;
    assert_eq!(rhs_full.len(), k * n);
    let a = generate::laplacian_2d(n_side);
    Universe::run(p, move |comm| {
        let opts: Vec<(&str, &str)> =
            opts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let batched = RkspAdapter::new();
        let range = wire(&batched, comm, &a, n, &tag, &opts);
        let rows = range.len();
        // Column-major local blocks: column j's slice of this rank.
        let mut local_rhs = Vec::with_capacity(k * rows);
        for j in 0..k {
            local_rhs.extend_from_slice(&rhs_full[j * n..][range.clone()]);
        }
        batched.set_int("nrhs", k as i64).unwrap();
        batched.setup_rhs(&local_rhs, k).unwrap();
        let mut x_batch = vec![0.0; k * rows];
        let mut status = [0.0; STATUS_LEN];
        batched.solve_batch(&mut x_batch, &mut status).unwrap();

        let single = RkspAdapter::new();
        wire(&single, comm, &a, n, &tag, &opts);
        let mut x_seq = vec![0.0; k * rows];
        for j in 0..k {
            single.setup_rhs(&local_rhs[j * rows..(j + 1) * rows], 1).unwrap();
            let mut status = [0.0; STATUS_LEN];
            single.solve(&mut x_seq[j * rows..(j + 1) * rows], &mut status).unwrap();
        }
        (x_batch, x_seq)
    })
}

fn assert_bitwise(out: &[(Vec<f64>, Vec<f64>)], ctx: &str) {
    for (rank, (batch, seq)) in out.iter().enumerate() {
        assert_eq!(batch.len(), seq.len());
        for (i, (a, b)) in batch.iter().zip(seq.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: rank {rank} entry {i}: batched {a:e} != sequential {b:e}"
            );
        }
    }
}

fn cg_opts() -> Vec<(String, String)> {
    [("solver", "cg"), ("preconditioner", "jacobi"), ("tol", "1e-10")]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serial: any batch width in {1, 2, 4, 8} with arbitrary finite
    /// right-hand sides reproduces the single-solve bits exactly.
    #[test]
    fn batched_solves_match_single_solves_bitwise_serial(
        ki in 0usize..4,
        seed in proptest::collection::vec(-1.0f64..1.0, 8 * 8 * 8),
    ) {
        let k = [1usize, 2, 4, 8][ki];
        let rhs = seed[..k * 64].to_vec();
        let out = batch_and_sequential(
            1, k, 8, rhs, format!("prop_serial_k{k}"), cg_opts(),
        );
        assert_bitwise(&out, "serial");
    }
}

#[test]
fn batched_solves_match_single_solves_bitwise_on_three_ranks() {
    for k in [2usize, 4, 8] {
        let n = 12 * 12;
        let rhs: Vec<f64> = (0..k * n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
        let out =
            batch_and_sequential(3, k, 12, rhs, format!("dist3_k{k}"), cg_opts());
        assert_bitwise(&out, "three ranks");
    }
}

#[test]
fn batched_solves_match_single_solves_bitwise_with_four_threads() {
    let k = 4;
    let n = 16 * 16;
    let rhs: Vec<f64> = (0..k * n).map(|i| (i as f64).sin()).collect();
    let mut opts = cg_opts();
    opts.push(("threads".into(), "4".into()));
    let out = batch_and_sequential(1, k, 16, rhs, "threads4".into(), opts);
    assert_bitwise(&out, "four threads");
}

/// Direct backend: `solve_batch` reuses one factorization across the
/// whole block and still matches column-by-column solves bitwise.
#[test]
fn rslu_batched_solves_match_single_solves_bitwise() {
    let n_side = 7usize;
    let n = n_side * n_side;
    let k = 3usize;
    let a = generate::laplacian_2d(n_side);
    let rhs_full: Vec<f64> = (0..k * n).map(|i| 1.0 + (i % 5) as f64).collect();
    let out = Universe::run(2, move |comm| {
        let part = BlockRowPartition::even(n, comm.size());
        let range = part.range(comm.rank());
        let local = a.row_block(range.start, range.end).unwrap();
        let rows = range.len();
        let make = || {
            let solver = RsluAdapter::new();
            solver.initialize(comm.dup().unwrap()).unwrap();
            solver.set_start_row(range.start).unwrap();
            solver.set_local_rows(rows).unwrap();
            solver.set_global_cols(n).unwrap();
            solver.set("session_tag", "rslu_batch").unwrap();
            solver
                .setup_matrix(
                    local.values(),
                    local.row_ptr(),
                    local.col_idx(),
                    SparseStruct::Csr,
                )
                .unwrap();
            solver
        };
        let mut local_rhs = Vec::with_capacity(k * rows);
        for j in 0..k {
            local_rhs.extend_from_slice(&rhs_full[j * n..][range.clone()]);
        }
        let batched = make();
        batched.setup_rhs(&local_rhs, k).unwrap();
        let mut x_batch = vec![0.0; k * rows];
        let mut status = [0.0; STATUS_LEN];
        batched.solve_batch(&mut x_batch, &mut status).unwrap();
        let single = make();
        let mut x_seq = vec![0.0; k * rows];
        for j in 0..k {
            single.setup_rhs(&local_rhs[j * rows..(j + 1) * rows], 1).unwrap();
            let mut status = [0.0; STATUS_LEN];
            single.solve(&mut x_seq[j * rows..(j + 1) * rows], &mut status).unwrap();
        }
        (x_batch, x_seq)
    });
    assert_bitwise(&out, "rslu");
}

/// A backend constructor, boxed behind the port trait.
type MakePort = fn() -> Box<dyn SparseSolverPort>;

/// A backend under test: its name, a constructor, and its options.
type BackendCase = (&'static str, MakePort, Vec<(String, String)>);

/// Every LISI backend, each with options it converges under on the
/// square `laplacian_2d` systems below.
fn all_backends() -> Vec<BackendCase> {
    vec![
        ("rksp", || Box::new(RkspAdapter::new()), cg_opts()),
        ("raztec", || Box::new(RaztecAdapter::new()), cg_opts()),
        ("rslu", || Box::new(RsluAdapter::new()), Vec::new()),
        ("rmg", || Box::new(RmgAdapter::new()), vec![("tol".into(), "1e-10".into())]),
    ]
}

/// The tentpole acceptance: a second session over the same system does
/// zero setup, on every backend. The `lisi_setup` span is never opened
/// again, and every rank records exactly one session-cache hit.
#[test]
fn warm_second_session_performs_zero_setup() {
    for (name, make, opts) in all_backends() {
        warm_second_session_performs_zero_setup_on(name, make, opts);
    }
}

fn warm_second_session_performs_zero_setup_on(
    name: &str,
    make: MakePort,
    opts: Vec<(String, String)>,
) {
    let n_side = 10usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let tag = format!("warm_session_{name}");
    let checks = Universe::run(3, move |comm| {
        // Span recording is lazy: force collection on so the test can
        // observe whether a solve opened the `lisi_setup` span at all.
        probe::set_forced(true);
        let opts: Vec<(&str, &str)> =
            opts.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let solve_once = || {
            let solver = make();
            let range = wire(solver.as_ref(), comm, &a, n, &tag, &opts);
            solver.setup_rhs(&b[range.clone()], 1).unwrap();
            let mut x = vec![0.0; range.len()];
            let mut status = [0.0; STATUS_LEN];
            solver.solve(&mut x, &mut status).unwrap();
            x
        };
        let snapshot = || {
            let rep = probe::local_report();
            (
                rep.counter(probe::Counter::SessionCacheHits),
                rep.counter(probe::Counter::SessionCacheMisses),
                rep.span("lisi_setup").map(|s| s.calls).unwrap_or(0),
            )
        };
        let before = snapshot();
        let x_cold = solve_once();
        let after_cold = snapshot();
        let x_warm = solve_once();
        let after_warm = snapshot();
        let bitwise = x_cold
            .iter()
            .zip(x_warm.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        (before, after_cold, after_warm, bitwise)
    });
    for (rank, (before, cold, warm, bitwise)) in checks.iter().enumerate() {
        assert_eq!(cold.1 - before.1, 1, "{name} rank {rank}: cold solve is one miss");
        assert!(cold.2 > before.2, "{name} rank {rank}: cold solve opened lisi_setup");
        assert_eq!(warm.0 - cold.0, 1, "{name} rank {rank}: warm solve is one hit");
        assert_eq!(warm.1, cold.1, "{name} rank {rank}: warm solve is not a miss");
        assert_eq!(
            warm.2, cold.2,
            "{name} rank {rank}: warm solve never opened the lisi_setup span"
        );
        assert!(bitwise, "{name} rank {rank}: warm solve reproduces the cold bits");
    }
}

/// A multi-RHS solve whose first column fails and whose second converges
/// reports the *failing* column's reason code: status and error agree
/// that the solve hit its iteration cap, not that it converged on the
/// zero column.
#[test]
fn multi_rhs_status_reports_the_first_failing_column() {
    let backends: [(&str, MakePort); 2] = [
        ("rksp", || Box::new(RkspAdapter::new())),
        ("raztec", || Box::new(RaztecAdapter::new())),
    ];
    let n_side = 8usize;
    let n = n_side * n_side;
    let a = generate::laplacian_2d(n_side);
    // Column 0 is random (two CG steps cannot solve it); column 1 is zero
    // (converged on entry).
    let mut rhs = generate::random_vector(n, 7);
    rhs.extend(std::iter::repeat_n(0.0, n));
    for (name, make) in backends {
        let out = Universe::run(1, |comm| {
            let opts = [("solver", "cg"), ("preconditioner", "none"), ("maxits", "2")];
            let solver = make();
            wire(solver.as_ref(), comm, &a, n, &format!("first_fail_{name}"), &opts);
            solver.setup_rhs(&rhs, 2).unwrap();
            let mut x = vec![0.0; 2 * n];
            let mut status = [0.0; STATUS_LEN];
            let err = solver.solve(&mut x, &mut status).unwrap_err();
            (SolveReport::from_slice(&status), err)
        });
        let (rep, err) = &out[0];
        assert!(!rep.converged, "{name}: column 0 cannot converge in two steps");
        assert_eq!(rep.reason, -1, "{name}: the status carries column 0's max-iterations reason");
        assert!(matches!(err, LisiError::Package(_)), "{name}: {err}");
        assert!(err.to_string().contains("reason code -1"), "{name}: {err}");
    }
}
