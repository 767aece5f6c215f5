//! The paired A/B guards: a table ([`GUARDS`]) of nine guards, each a
//! workload timed under two arms in order-alternated pairs
//! (`harness::alternate`), and the gate rules that turn each measurement
//! into a `BENCH_*.json` record and a verdict.
//!
//! A two-window A/B (one long window per arm) cannot resolve a 1–2%
//! effect on a shared machine whose load drifts several percent between
//! the windows. Pairing the arms and swapping their order every trial
//! cancels the drift; the median per-pair ratio is the statistic every
//! overhead and speedup target is held to.
//!
//! The gates (`gate_*`) are pure functions: the measurement, the stored
//! record it is compared against where there is one, and the
//! `BENCH_ALLOW_MISSING_BASELINE` flag go in; an [`Outcome`] comes out.
//! Only a bit-identity miss or a missing stored baseline is a hard error.
//! Every timing target only WARNs, because shared machines are noisy.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use lisi::status::STATUS_SETUP_SECONDS;
use lisi::{RkspAdapter, RsluAdapter, SparseSolverPort, SparseStruct, STATUS_LEN};
use probe::ProbeMode;
use rcomm::{Communicator, Universe};
use rkrylov::{Ilu0, Ksp, KspConfig, KspType, MatOperator, PcType};
use rsparse::autotune::{self, Format, FormatMatrix};
use rsparse::{generate, BcsrMatrix, BlockRowPartition, CsrMatrix, DistCsrMatrix, DistVector};
use rsparse::{LevelSchedule, SellMatrix};
use serde_json::Value;

use crate::harness::{alternate, median, Paired};

/// One guard: its CLI name, the order-alternated pairs per A/B
/// measurement, and the function that measures both arms and gates.
pub struct Guard {
    /// Name on the `guards` command line.
    pub name: &'static str,
    /// Alternated pairs per measurement.
    pub trials: usize,
    run: fn(usize, &Env) -> Outcome,
}

impl Guard {
    /// Measure and gate.
    pub fn run(&self, env: &Env) -> Outcome {
        (self.run)(self.trials, env)
    }
}

/// The nine guards, in the order `guards` runs them.
pub const GUARDS: [Guard; 9] = [
    Guard { name: "probe", trials: 150, run: probe_guard },
    Guard { name: "fault", trials: 80, run: fault_guard },
    Guard { name: "flight", trials: 80, run: flight_guard },
    Guard { name: "trace", trials: 80, run: trace_guard },
    Guard { name: "checkpoint", trials: 80, run: checkpoint_guard },
    Guard { name: "ledger", trials: 40, run: ledger_guard },
    Guard { name: "trsv", trials: 60, run: trsv_guard },
    Guard { name: "format", trials: 30, run: format_guard },
    Guard { name: "multirhs", trials: 9, run: multirhs_guard },
];

/// What the guards read besides their own measurement. File paths are
/// relative to the working directory, the repository root.
pub struct Env {
    /// The `BENCH_spmv.json` label this run records under.
    pub label: String,
    /// A missing stored baseline is recorded for next time instead of
    /// failing the run.
    pub allow_missing_baseline: bool,
}

impl Env {
    /// The stored record `file` as this run found it.
    fn stored(&self, file: &str) -> Option<Value> {
        let text = std::fs::read_to_string(file).ok()?;
        Some(serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}")))
    }

    /// This run's criterion `spmv/{serial,dist4}/200` results, which
    /// `scripts/bench_smoke.sh` leaves under `target/criterion-shim/`.
    fn spmv(&self) -> Option<[Spmv; 2]> {
        let read = |variant: &str| {
            let path = format!("target/criterion-shim/spmv_{variant}_200.json");
            let rec: Value = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
            Some(Spmv { mean_ns: rec["mean_ns"].as_f64()?, per_sec: rec["per_sec"].as_f64() })
        };
        Some([read("serial")?, read("dist4")?])
    }
}

/// What one guard produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(file, JSON text)` records to write.
    pub records: Vec<(&'static str, String)>,
    /// Verdict lines.
    pub lines: Vec<String>,
    /// Hard failures; any one fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    fn record(&mut self, file: &'static str, rec: Rec) {
        self.records.push((file, rec.render()));
    }

    /// Verdict line for a percentage that must stay below `target`.
    fn below(&mut self, what: &str, pct: f64, target: f64) -> bool {
        let pass = pct < target;
        self.lines.push(format!("{what}: {pct:+.2}% (target < {target}%) -> {}", verdict(pass)));
        pass
    }

    /// Verdict line for a speedup that must reach `target`.
    fn at_least(&mut self, what: &str, speedup: f64, target: f64) -> bool {
        let pass = speedup >= target;
        let line = format!("{what}: {speedup:.2}x (target >= {target}x) -> {}", verdict(pass));
        self.lines.push(line);
        pass
    }

    /// A stored baseline is missing: recorded for next time when
    /// allowed, otherwise a hard error so the gate cannot silently stop
    /// running.
    fn missing_baseline(&mut self, gate: &str, file: &str, allow: bool) {
        if allow {
            self.lines.push(format!(
                "{gate}: no stored baseline in {file} (recorded one for next time; allowed by \
                 BENCH_ALLOW_MISSING_BASELINE=1)"
            ));
        } else {
            self.errors.push(format!(
                "no stored baseline in {file}; the {gate} gate cannot run. Re-run with \
                 BENCH_ALLOW_MISSING_BASELINE=1 to record a first baseline."
            ));
        }
    }

    fn bit_identity(&mut self, identical: bool, what: &str, reference: &str) {
        if !identical {
            self.errors.push(format!(
                "{what} is NOT bit-identical to {reference} — determinism contract broken."
            ));
        }
    }
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "WARN (noisy machine or a regression)"
    }
}

// --- Measurement -------------------------------------------------------

/// One A/B measurement: the workload label and the alternated medians.
struct Arms {
    workload: String,
    paired: Paired,
}

impl Arms {
    /// Median overhead of B over A in percent, rounded as the records
    /// carry it; the gates compare the rounded value.
    fn overhead_pct(&self) -> f64 {
        fixed(100.0 * (self.paired.b_over_a - 1.0), 4)
    }

    /// Median speedup of B over A, rounded as the records carry it.
    fn speedup(&self) -> f64 {
        fixed(self.paired.a_over_b, 4)
    }

    fn a_ns(&self) -> f64 {
        fixed(self.paired.a * 1e9, 1)
    }

    /// The workload and both medians, keyed `{name}_median_ns` with the
    /// record's names for arm A and arm B.
    fn record(&self, names: [&str; 2]) -> Rec {
        obj([("workload", self.workload.as_str().into())])
            .with(&format!("{}_median_ns", names[0]), self.a_ns())
            .with(&format!("{}_median_ns", names[1]), fixed(self.paired.b * 1e9, 1))
    }
}

/// `x` rounded to `digits` decimals as a `{:.digits$}` print would.
fn fixed(x: f64, digits: usize) -> f64 {
    format!("{x:.digits$}").parse().expect("a formatted float parses")
}

/// Mean seconds per call over `reps` back-to-back calls of `work`.
fn window(reps: usize, mut work: impl FnMut() -> f64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(work());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// The overhead guards' measurement: `arm(on)` sets the arm before each
/// window, and the window times two calls of `work(on)`.
fn two_arm(
    trials: usize,
    workload: &str,
    mut arm: impl FnMut(bool),
    mut work: impl FnMut(bool) -> f64,
) -> Arms {
    let paired = alternate(trials, |on| {
        arm(on);
        window(2, || work(on))
    });
    Arms { workload: workload.into(), paired }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

// --- Workloads ---------------------------------------------------------

const SPMV_BURST: &str = "dist4 m=200 spmv x10";

/// The `spmv/dist4/200` criterion bench's body on the 200×200 Laplacian:
/// distribute over 4 ranks, one allocating matvec, nine in-place ones.
fn spmv_burst(a: &CsrMatrix, x: &[f64]) -> f64 {
    Universe::run(4, |comm| {
        let part = BlockRowPartition::even(a.rows(), comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        let dx = DistVector::from_global(part, comm.rank(), x).unwrap();
        let mut dy = da.matvec(comm, &dx).unwrap();
        for _ in 0..9 {
            da.matvec_into(comm, &dx, &mut dy).unwrap();
        }
        dy.local()[0]
    })[0]
}

fn spmv_problem() -> (CsrMatrix, Vec<f64>) {
    let a = generate::laplacian_2d(200);
    let x = generate::random_vector(a.cols(), 7);
    (a, x)
}

/// The m×m Laplacian with a ones right-hand side, and its workload label.
fn cg_problem(m: usize) -> (CsrMatrix, Vec<f64>, String) {
    let a = generate::laplacian_2d(m);
    let b = vec![1.0; a.rows()];
    (a, b, format!("dist4 m={m} fused cg 40 its"))
}

/// Unpreconditioned fused-reduction CG on 4 ranks for a fixed 40
/// iterations, snapshotting (x, r) every `checkpoint_every` iterations
/// (0 = off); the checkpoint registry is cleared afterwards.
fn fused_cg(a: &CsrMatrix, b: &[f64], checkpoint_every: usize) -> f64 {
    let out = Universe::run(4, |comm| {
        let part = BlockRowPartition::even(a.rows(), comm.size());
        let da = DistCsrMatrix::from_global(comm, part.clone(), a).unwrap();
        let op = MatOperator::new(da);
        let db = DistVector::from_global(part.clone(), comm.rank(), b).unwrap();
        let mut dx = DistVector::zeros(part, comm.rank());
        let ksp = Ksp::new(KspConfig {
            ksp_type: KspType::Cg,
            pc_type: PcType::None,
            rtol: 0.0,
            atol: 0.0,
            maxits: 40,
            keep_history: false,
            checkpoint_every,
            ..KspConfig::default()
        })
        .unwrap();
        ksp.solve(comm, &op, &db, &mut dx).unwrap().final_residual
    })[0];
    rkrylov::checkpoint::clear_all();
    out
}

/// Initialize `port` on this rank's even share of the rows of `a`, set
/// `opts` and hand it the CSR block; returns the rank's row range.
fn wire(
    port: &dyn SparseSolverPort,
    comm: &Communicator,
    a: &CsrMatrix,
    opts: &[(&str, &str)],
) -> Range<usize> {
    let n = a.rows();
    let range = BlockRowPartition::even(n, comm.size()).range(comm.rank());
    let local = a.row_block(range.start, range.end).unwrap();
    port.initialize(comm.dup().unwrap()).unwrap();
    port.set_start_row(range.start).unwrap();
    port.set_local_rows(range.len()).unwrap();
    port.set_global_cols(n).unwrap();
    for (k, v) in opts {
        port.set(k, v).unwrap();
    }
    port.setup_matrix(local.values(), local.row_ptr(), local.col_idx(), SparseStruct::Csr)
        .unwrap();
    range
}

/// One single-RHS `solve` on a wired port; returns the status array.
fn solve_once(port: &dyn SparseSolverPort, b: &[f64], range: Range<usize>) -> [f64; STATUS_LEN] {
    port.setup_rhs(&b[range.clone()], 1).unwrap();
    let mut x = vec![0.0; range.len()];
    let mut status = [0.0; STATUS_LEN];
    port.solve(&mut x, &mut status).unwrap();
    status
}

/// A 4-rank CG+ILU(0) solve through the RKSP adapter, the workload the
/// ledger acceptance test instruments.
fn adapter_cg(a: &CsrMatrix, b: &[f64]) -> f64 {
    Universe::run(4, |comm| {
        let solver = RkspAdapter::new();
        let opts = [("solver", "cg"), ("preconditioner", "ilu"), ("tol", "1e-10")];
        let range = wire(&solver, comm, a, &opts);
        solve_once(&solver, b, range)[2]
    })[0]
}

// --- The guards: measure, then gate ------------------------------------

/// Probe recording cost: the SpMV burst with the probe off vs on.
fn probe_guard(trials: usize, env: &Env) -> Outcome {
    let Some([_, dist4]) = env.spmv() else { return missing_criterion() };
    let (a, x) = spmv_problem();
    let arms = two_arm(
        trials,
        SPMV_BURST,
        |on| probe::set_mode(if on { ProbeMode::Summary } else { ProbeMode::Off }),
        |_| spmv_burst(&a, &x),
    );
    probe::set_mode(ProbeMode::Off);
    probe::reset();
    gate_probe(trials, &arms, dist4.mean_ns)
}

/// Fault-hook cost: disarmed vs armed with a plan that never fires (it
/// names a rank outside the cohort), on the SpMV burst and the m=120
/// fused CG.
fn fault_guard(trials: usize, env: &Env) -> Outcome {
    let Some(fresh) = env.spmv() else { return missing_criterion() };
    let inert = rcomm::FaultPlan::parse("op=allreduce,rank=9999,call=1,kind=error").unwrap();
    let mut arm = |on: bool| {
        if on {
            rcomm::fault::arm(inert.clone());
        } else {
            rcomm::fault::disarm();
        }
    };
    let (a, x) = spmv_problem();
    let spmv = two_arm(trials, SPMV_BURST, &mut arm, |_| spmv_burst(&a, &x));
    let (a, b, label) = cg_problem(120);
    let cg = two_arm(trials, &label, &mut arm, |_| fused_cg(&a, &b, 0));
    rcomm::fault::disarm();
    let stored = env.stored(SPMV_FILE);
    gate_fault(trials, [&spmv, &cg], fresh, stored.as_ref(), &env.label, env.allow_missing_baseline)
}

/// Flight-recorder cost: recorder off vs on over the m=120 fused CG.
fn flight_guard(trials: usize, _env: &Env) -> Outcome {
    let (a, b, label) = cg_problem(120);
    let arms = two_arm(trials, &label, probe::flight::set_enabled, |_| fused_cg(&a, &b, 0));
    probe::flight::set_enabled(true); // the always-on default
    gate_flight(trials, &arms)
}

/// Causal-tracing cost: disarmed vs armed over the m=200 fused CG.
fn trace_guard(trials: usize, env: &Env) -> Outcome {
    let (a, b, label) = cg_problem(200);
    let arm = |on| {
        probe::trace::set_armed(on);
        // Drop the previous window's records so the armed path pays the
        // full append cost instead of running into a saturated budget.
        probe::reset();
    };
    let arms = two_arm(trials, &label, arm, |_| fused_cg(&a, &b, 0));
    probe::trace::set_armed(false);
    let stored = env.stored(TRACE.file);
    gate_stored(&TRACE, trials, &arms, stored.as_ref(), env.allow_missing_baseline)
}

/// Krylov-checkpoint cost: off vs every 10 iterations over the m=120
/// fused CG.
fn checkpoint_guard(trials: usize, env: &Env) -> Outcome {
    let (a, b, label) = cg_problem(120);
    let every = |on| if on { 10 } else { 0 };
    let arms = two_arm(trials, &label, |_| {}, |on| fused_cg(&a, &b, every(on)));
    let stored = env.stored(CHECKPOINT.file);
    gate_stored(&CHECKPOINT, trials, &arms, stored.as_ref(), env.allow_missing_baseline)
}

/// Solve-ledger cost: disarmed vs armed over the adapter CG+ILU(0) solve.
fn ledger_guard(trials: usize, env: &Env) -> Outcome {
    let dir = std::env::temp_dir().join(format!("ledger_guard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for armed-window ledgers");
    let dest = dir.join("solve_ledger.json");
    let dest = dest.to_str().expect("UTF-8 temp path");
    let (a, b, _) = cg_problem(120);
    let arm = |on| {
        probe::ledger::set_destination(if on { dest } else { "off" });
        probe::reset();
    };
    let arms = two_arm(trials, "dist4 m=120 rksp cg+ilu", arm, |_| adapter_cg(&a, &b));
    probe::ledger::clear_destination();
    let _ = std::fs::remove_dir_all(&dir);
    let stored = env.stored(LEDGER.file);
    gate_stored(&LEDGER, trials, &arms, stored.as_ref(), env.allow_missing_baseline)
}

/// Threads of the level-scheduled triangular solve.
const TRSV_THREADS: usize = 4;

/// ILU(0) applies on the paper's m=200 problem: serial sweeps vs
/// level-scheduled sweeps at [`TRSV_THREADS`], ten applies per window.
fn trsv_guard(trials: usize, _env: &Env) -> Outcome {
    let (a, _rhs) = rmesh::paper_problem(200).assemble_global();
    let n = a.rows();
    let ilu = Ilu0::new(&a).expect("ILU(0) factors the mesh problem");
    let r = generate::random_vector(n, 11);
    let (mut z_serial, mut z) = (vec![0.0; n], vec![0.0; n]);
    ilu.solve_local_with(&r, &mut z_serial, 1);
    ilu.solve_local_with(&r, &mut z, TRSV_THREADS);
    let bit_identical = bits_equal(&z_serial, &z);
    let paired = alternate(trials, |scheduled| {
        let threads = if scheduled { TRSV_THREADS } else { 1 };
        window(10, || {
            ilu.solve_local_with(&r, &mut z, threads);
            z[0]
        })
    });
    let m = Trsv {
        threads: TRSV_THREADS,
        host_cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        levels: [
            LevelSchedule::lower(ilu.factor()).levels(),
            LevelSchedule::upper(ilu.factor()).levels(),
        ],
        bit_identical,
        arms: Arms { workload: format!("ilu0 apply m=200 n={n}"), paired },
    };
    gate_trsv(trials, &m)
}

/// Serial SpMV, CSR vs the autotuner's choice, on a dense band, a
/// FEM-style block assembly and a skewed row-length pattern; ten
/// matvecs per window.
fn format_guard(trials: usize, _env: &Env) -> Outcome {
    let matrices = [
        ("banded bw=4", generate::banded(20_000, 4, 1)),
        ("fem-block b=3", generate::fem_block(80, 3, 2)),
        ("skewed 3/80", generate::skewed_csr(20_000, 20_000, 3, 80, 3)),
    ];
    let cases: Vec<FormatCase> = matrices
        .iter()
        .map(|(name, a)| {
            let (rows, cols) = a.shape();
            let x = generate::random_vector(cols, 17);
            let mut y_csr = vec![0.0; rows];
            a.matvec_into(&x, &mut y_csr);
            // Both alternative formats must match CSR bit for bit,
            // whatever the autotuner picks.
            let mut y = vec![f64::NAN; rows];
            SellMatrix::from_csr(a).matvec_into(&x, &mut y);
            let mut bit_identical = bits_equal(&y, &y_csr);
            y.fill(f64::NAN);
            BcsrMatrix::from_csr(a).matvec_into(&x, &mut y);
            bit_identical &= bits_equal(&y, &y_csr);

            let chosen = autotune::choose(a);
            let m = FormatMatrix::build(a, chosen);
            let paired = alternate(trials, |use_chosen| {
                window(10, || {
                    if use_chosen {
                        m.matvec_into(&x, &mut y);
                    } else {
                        a.matvec_into(&x, &mut y);
                    }
                    y[0]
                })
            });
            FormatCase {
                rows,
                nnz: a.nnz(),
                chosen: chosen.name(),
                applicable: chosen != Format::Csr,
                bit_identical,
                arms: Arms { workload: name.to_string(), paired },
            }
        })
        .collect();
    gate_format(trials, &cases)
}

/// Right-hand sides per batched solve.
const MULTIRHS_K: usize = 8;
/// Grid side of the multi-RHS Laplacian.
const MULTIRHS_M: usize = 32;

/// Through the 4-rank RKSP adapter, [`MULTIRHS_K`] single `solve`s vs
/// one `solve_batch` on one shared warm session, so both arms time the
/// solve phase only. Then per trial one cold RSLU setup (a fresh session
/// tag forces the full factorization) and one warm setup on that tag.
fn multirhs_guard(trials: usize, _env: &Env) -> Outcome {
    let (k, n) = (MULTIRHS_K, MULTIRHS_M * MULTIRHS_M);
    let a = generate::laplacian_2d(MULTIRHS_M);
    let rhs: Vec<f64> = (0..k * n).map(|i| 1.0 + ((i % 13) as f64 - 6.0) / 6.0).collect();
    let out = Universe::run(4, |comm| {
        let solver = RkspAdapter::new();
        let opts = [
            ("solver", "cg"),
            ("preconditioner", "jacobi"),
            ("tol", "1e-10"),
            ("session_tag", "multirhs_solve"),
        ];
        let range = wire(&solver, comm, &a, &opts);
        let rows = range.len();
        let local_rhs: Vec<f64> =
            (0..k).flat_map(|j| rhs[j * n..][range.clone()].iter().copied()).collect();
        let run = |batched: bool, x: &mut [f64]| {
            let mut status = [0.0; STATUS_LEN];
            if batched {
                solver.set_int("nrhs", k as i64).unwrap();
                solver.setup_rhs(&local_rhs, k).unwrap();
                solver.solve_batch(x, &mut status).unwrap();
            } else {
                solver.set_int("nrhs", 1).unwrap();
                for j in 0..k {
                    solver.setup_rhs(&local_rhs[j * rows..(j + 1) * rows], 1).unwrap();
                    solver.solve(&mut x[j * rows..(j + 1) * rows], &mut status).unwrap();
                }
            }
        };
        let (mut x_seq, mut x) = (vec![0.0; k * rows], vec![0.0; k * rows]);
        run(false, &mut x_seq);
        run(true, &mut x);
        let bit_identical = bits_equal(&x, &x_seq);
        let paired = alternate(trials, |batched| {
            comm.barrier().unwrap();
            let t0 = Instant::now();
            run(batched, &mut x);
            comm.barrier().unwrap();
            t0.elapsed().as_secs_f64()
        });

        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for trial in 0..trials {
            let tag = format!("multirhs_setup_{trial}");
            let setup_seconds = || {
                let s = RsluAdapter::new();
                let range = wire(&s, comm, &a, &[("session_tag", &tag)]);
                solve_once(&s, &rhs, range)[STATUS_SETUP_SECONDS]
            };
            cold.push(setup_seconds());
            warm.push(setup_seconds());
        }
        (bit_identical, paired, median(&mut cold), median(&mut warm))
    });
    let (bit_identical, paired, cold_s, warm_s) = out[0];
    let workload = format!("adapter cg dist4 n={n} k={k}");
    let arms = Arms { workload, paired };
    gate_multirhs(trials, &MultiRhs { bit_identical, arms, cold_s, warm_s })
}

// --- Gates -------------------------------------------------------------

const SPMV_FILE: &str = "BENCH_spmv.json";

fn missing_criterion() -> Outcome {
    let mut out = Outcome::default();
    out.errors.push(
        "no criterion spmv/{serial,dist4}/200 results under target/criterion-shim/; \
         run scripts/bench_smoke.sh"
            .into(),
    );
    out
}

/// Probe: enabled vs disabled < 2%. The disabled path is the same
/// machine code as the plain `spmv/dist4/200` bench, so the
/// disabled-vs-plain delta crosses two processes and is recorded only
/// as a noise-floor reference.
fn gate_probe(trials: usize, m: &Arms, plain_mean_ns: f64) -> Outcome {
    const TARGET_PCT: f64 = 2.0;
    let mut out = Outcome::default();
    let pct = m.overhead_pct();
    let noise_floor_pct = 100.0 * (m.a_ns() - plain_mean_ns) / plain_mean_ns;
    let pass = out.below("probe overhead (enabled vs disabled)", pct, TARGET_PCT);
    let noise = format!("cross-process noise floor (disabled vs plain): {noise_floor_pct:+.2}%");
    out.lines.push(noise);
    let rec = m
        .record(["disabled", "enabled"])
        .with("trials", trials)
        .with("plain_mean_ns", plain_mean_ns)
        .with("overhead_pct", pct)
        .with("noise_floor_pct", noise_floor_pct)
        .with("target_pct", TARGET_PCT)
        .with("pass", pass);
    out.record("BENCH_probe_overhead.json", rec);
    out
}

/// One criterion `spmv/*/200` result.
#[derive(Clone, Copy)]
struct Spmv {
    mean_ns: f64,
    /// Nonzeros per second.
    per_sec: Option<f64>,
}

/// Fault, and the `BENCH_spmv.json` entry recorded under `label`.
/// No-faults < 1%: the disarmed hook is one relaxed atomic load per
/// call, so this run's criterion throughput is held against the entry
/// the previous run stored under the same label, a missing entry being
/// a missing baseline. Armed-inert < 5% on `m` = [SpMV burst, fused CG].
fn gate_fault(
    trials: usize,
    m: [&Arms; 2],
    fresh: [Spmv; 2],
    stored_spmv: Option<&Value>,
    label: &str,
    allow_missing_baseline: bool,
) -> Outcome {
    const NO_FAULTS_TARGET_PCT: f64 = 1.0;
    const ARMED_TARGET_PCT: f64 = 5.0;
    const VARIANTS: [&str; 2] = ["serial", "dist4"];
    let mut out = Outcome::default();

    let entry = |s: Spmv| {
        let rate = s.per_sec.map_or(Rec::Null, Rec::from);
        obj([("mean_ns", s.mean_ns.into()), ("elements_per_sec", rate)])
    };
    let entry = obj([(VARIANTS[0], entry(fresh[0])), (VARIANTS[1], entry(fresh[1]))]);
    out.lines.push(format!("recorded '{label}' into {SPMV_FILE}:\n{}", entry.render()));
    let spmv = stored_spmv.map_or_else(|| obj([]), Rec::from).with(label, entry);
    for v in VARIANTS {
        let rate = |l: &str| spmv.get(l)?.get(v)?.get("elements_per_sec")?.as_f64();
        if let (Some(pre), Some(post)) = (rate("pre"), rate("post")) {
            out.lines.push(format!("{v}: {:.2}x vs pre", post / pre));
        }
    }

    let baseline_label = format!("stored '{label}'");
    let mut no_faults = obj([("target_pct", NO_FAULTS_TARGET_PCT.into())]);
    let mut compared = false;
    for (v, now) in VARIANTS.into_iter().zip(fresh) {
        let base = stored_spmv.and_then(|s| s[label][v]["elements_per_sec"].as_f64());
        let (Some(base), Some(now)) = (base.filter(|&r| r != 0.0), now.per_sec) else {
            continue;
        };
        let slowdown_pct = 100.0 * (base / now - 1.0);
        let what = format!("no-faults {v} vs {baseline_label} baseline");
        let pass = out.below(&what, slowdown_pct, NO_FAULTS_TARGET_PCT);
        let rec = obj([("baseline_label", baseline_label.as_str().into())])
            .with("baseline_elements_per_sec", base)
            .with("current_elements_per_sec", now)
            .with("slowdown_pct", slowdown_pct)
            .with("pass", pass);
        no_faults = no_faults.with(v, rec);
        compared = true;
    }
    if !compared {
        let gate = format!("no-faults '{label}'");
        out.missing_baseline(&gate, SPMV_FILE, allow_missing_baseline);
    }

    let mut armed = obj([("target_pct", ARMED_TARGET_PCT.into())]).with("trials", trials);
    for (wl, arms) in ["spmv", "fused_cg"].into_iter().zip(m) {
        let pct = arms.overhead_pct();
        let pass = out.below(&format!("armed-inert {wl}"), pct, ARMED_TARGET_PCT);
        let rec = arms.record(["disarmed", "armed_inert"]);
        armed = armed.with(wl, rec.with("overhead_pct", pct).with("pass", pass));
    }
    out.record(SPMV_FILE, spmv);
    let fault = obj([("no_faults", no_faults), ("armed_inert", armed)]);
    out.record("BENCH_fault_overhead.json", fault);
    out
}

/// Flight recorder: on vs off < 2%. The recorder is always on, so its
/// cost rides along on every solve.
fn gate_flight(trials: usize, m: &Arms) -> Outcome {
    const TARGET_PCT: f64 = 2.0;
    let mut out = Outcome::default();
    let pct = m.overhead_pct();
    let pass = out.below("flight recorder on-vs-off (fused_cg)", pct, TARGET_PCT);
    let fused_cg = m.record(["recorder_off", "recorder_on"]);
    let fused_cg = fused_cg.with("overhead_pct", pct).with("pass", pass);
    let rec = obj([("target_pct", TARGET_PCT.into())])
        .with("trials", trials)
        .with("fused_cg", fused_cg);
    out.record("BENCH_flight_overhead.json", rec);
    out
}

/// The record shape the trace, checkpoint and ledger guards share: a
/// paired on-vs-off section, and an off-path section that holds this
/// run's off-arm median against the one the previous run stored.
struct StoredGate {
    /// Record file, which is also the stored baseline.
    file: &'static str,
    name: &'static str,
    /// Keys of the paired section and of the off-path section.
    sections: [&'static str; 2],
    /// Record names of the off arm and the on arm.
    arms: [&'static str; 2],
    /// Paired workload key, for the verdict line.
    workload: &'static str,
    /// Paired overhead target, then off-path slowdown target (percent).
    targets_pct: [f64; 2],
}

/// Causal tracing: armed < 5%; disarmed path < 2% vs stored.
const TRACE: StoredGate = StoredGate {
    file: "BENCH_trace_overhead.json",
    name: "trace",
    sections: ["armed", "disabled"],
    arms: ["disarmed", "armed"],
    workload: "fused_cg",
    targets_pct: [5.0, 2.0],
};

/// Krylov checkpoints: every 10 iterations < 5%; off path < 1% vs stored.
const CHECKPOINT: StoredGate = StoredGate {
    file: "BENCH_checkpoint_overhead.json",
    name: "checkpoint",
    sections: ["every_10", "off"],
    arms: ["off", "ckpt10"],
    workload: "fused_cg",
    targets_pct: [5.0, 1.0],
};

/// Solve ledger: armed < 10%; disarmed path < 2% vs stored.
const LEDGER: StoredGate = StoredGate {
    file: "BENCH_ledger_overhead.json",
    name: "ledger",
    sections: ["armed", "disabled"],
    arms: ["disarmed", "armed"],
    workload: "adapter_cg",
    targets_pct: [10.0, 2.0],
};

/// Gate a [`StoredGate`] guard. The off path is compared across
/// processes, so a miss only WARNs; a missing stored median is a
/// missing baseline.
fn gate_stored(
    g: &StoredGate,
    trials: usize,
    m: &Arms,
    stored: Option<&Value>,
    allow_missing_baseline: bool,
) -> Outcome {
    let [paired_key, off_key] = g.sections;
    let [paired_target, off_target] = g.targets_pct;
    let median_key = format!("{}_median_ns", g.arms[0]);
    let mut out = Outcome::default();

    let gate = format!("{} {off_key}-path", g.name);
    let mut off = obj([("target_pct", off_target.into())]);
    let base = stored.and_then(|s| s[paired_key][median_key.as_str()].as_f64());
    match base.filter(|&b| b != 0.0) {
        Some(base) => {
            let now = m.a_ns();
            let slowdown_pct = 100.0 * (now / base - 1.0);
            let pass = out.below(&format!("{gate} vs stored baseline"), slowdown_pct, off_target);
            off = off
                .with(&format!("baseline_{median_key}"), base)
                .with(&format!("current_{median_key}"), now)
                .with("slowdown_pct", slowdown_pct)
                .with("pass", pass);
        }
        None => out.missing_baseline(&gate, g.file, allow_missing_baseline),
    }

    let pct = m.overhead_pct();
    let what = format!("{} {paired_key} vs {} ({})", g.name, g.arms[0], g.workload);
    let pass = out.below(&what, pct, paired_target);
    let paired = m
        .record(g.arms)
        .with("target_pct", paired_target)
        .with("overhead_pct", pct)
        .with("pass", pass);
    let rec = obj([("trials", trials.into()), (paired_key, paired), (off_key, off)]);
    out.record(g.file, rec);
    out
}

/// The triangular-solve measurement: serial (A) vs scheduled (B).
struct Trsv {
    threads: usize,
    host_cores: usize,
    /// Forward and backward level counts.
    levels: [usize; 2],
    bit_identical: bool,
    arms: Arms,
}

/// Triangular solve: bit-identity is a hard failure on any host. The
/// ≥ 2× speedup is gated only when the host has at least `threads`
/// cores, since a parallel sweep cannot beat a serial one on fewer;
/// otherwise it is recorded with a SKIP.
fn gate_trsv(trials: usize, m: &Trsv) -> Outcome {
    const TARGET_SPEEDUP: f64 = 2.0;
    let mut out = Outcome::default();
    let sufficient_cores = m.host_cores >= m.threads;
    let speedup = m.arms.speedup();
    let met = if sufficient_cores {
        let what = format!("trsv scheduled vs serial at {} threads", m.threads);
        out.at_least(&what, speedup, TARGET_SPEEDUP)
    } else {
        out.lines.push(format!(
            "trsv speedup check SKIPPED: host has {} core(s) < {} threads (measured {speedup:.4}x)",
            m.host_cores, m.threads
        ));
        true
    };
    out.bit_identity(m.bit_identical, "scheduled triangular solve", "the serial sweep");
    let rec = m
        .arms
        .record(["serial", "scheduled"])
        .with("trials", trials)
        .with("threads", m.threads)
        .with("host_cores", m.host_cores)
        .with("sufficient_cores", sufficient_cores)
        .with("levels_fwd", m.levels[0])
        .with("levels_bwd", m.levels[1])
        .with("speedup", speedup)
        .with("bit_identical", m.bit_identical)
        .with("target_speedup", TARGET_SPEEDUP)
        .with("pass", m.bit_identical && met);
    out.record("BENCH_trsv.json", rec);
    out
}

/// One sparse-format workload: CSR (A) vs the autotuner's choice (B).
struct FormatCase {
    rows: usize,
    nnz: usize,
    chosen: &'static str,
    /// The autotuner left CSR, so a speedup is claimed.
    applicable: bool,
    /// SELL and BCSR both match CSR bit for bit.
    bit_identical: bool,
    arms: Arms,
}

/// Sparse formats: bit-identity on every workload is a hard failure.
/// The ≥ 1.2× speedup is gated only where the autotuner left CSR
/// (`applicable`); otherwise it is recorded with a SKIP.
fn gate_format(trials: usize, cases: &[FormatCase]) -> Outcome {
    const TARGET_SPEEDUP: f64 = 1.2;
    let mut out = Outcome::default();
    let mut formats = Vec::new();
    let mut all_pass = true;
    for c in cases {
        let (wl, speedup) = (&c.arms.workload, c.arms.speedup());
        let met = if c.applicable {
            let what = format!("format {} vs csr on {wl}", c.chosen);
            out.at_least(&what, speedup, TARGET_SPEEDUP)
        } else {
            out.lines.push(format!(
                "format check SKIPPED on {wl}: autotuner kept csr (measured {speedup:.4}x)"
            ));
            true
        };
        let what = format!("format '{}' matvec on '{wl}'", c.chosen);
        out.bit_identity(c.bit_identical, &what, "CSR");
        all_pass &= c.bit_identical && met;
        let rec = c
            .arms
            .record(["csr", "chosen"])
            .with("rows", c.rows)
            .with("nnz", c.nnz)
            .with("chosen", c.chosen)
            .with("applicable", c.applicable)
            .with("bit_identical", c.bit_identical)
            .with("speedup", speedup)
            .with("pass", c.bit_identical && met);
        formats.push(rec);
    }
    let rec = obj([("target_speedup", TARGET_SPEEDUP.into())])
        .with("trials", trials)
        .with("formats", Rec::List(formats))
        .with("pass", all_pass);
    out.record("BENCH_format.json", rec);
    out
}

/// The multi-RHS measurement: sequential (A) vs batched (B) solves, and
/// median cold and warm session setup seconds.
struct MultiRhs {
    bit_identical: bool,
    arms: Arms,
    cold_s: f64,
    warm_s: f64,
}

/// Multi-RHS: bit-identity is a hard failure; batched ≥ 1.8× over
/// sequential, and a warm session setup < 5% of a cold one.
fn gate_multirhs(trials: usize, m: &MultiRhs) -> Outcome {
    const TARGET_SPEEDUP: f64 = 1.8;
    const WARM_TARGET_PCT: f64 = 5.0;
    let mut out = Outcome::default();
    let speedup = m.arms.speedup();
    let what = format!("multi-RHS batched vs sequential ({})", m.arms.workload);
    let met = out.at_least(&what, speedup, TARGET_SPEEDUP);
    let warm_pct = fixed(100.0 * m.warm_s / m.cold_s, 4);
    let setup_pass = out.below("warm session setup vs cold", warm_pct, WARM_TARGET_PCT);
    out.bit_identity(m.bit_identical, "batched multi-RHS solve", "the sequential solves");
    let setup = obj([("cold_median_ns", fixed(m.cold_s * 1e9, 1).into())])
        .with("warm_median_ns", fixed(m.warm_s * 1e9, 1))
        .with("warm_over_cold_pct", warm_pct)
        .with("target_pct", WARM_TARGET_PCT)
        .with("pass", setup_pass);
    let rec = m
        .arms
        .record(["sequential", "batched"])
        .with("trials", trials)
        .with("speedup", speedup)
        .with("bit_identical", m.bit_identical)
        .with("setup", setup)
        .with("target_speedup", TARGET_SPEEDUP)
        .with("pass", m.bit_identical && met && setup_pass);
    out.record("BENCH_multirhs.json", rec);
    out
}

// --- Records -----------------------------------------------------------

/// A JSON value that keeps fields in the order they were added (the
/// parser's [`Value`] sorts them), rendered two-space indented.
#[derive(Debug, Clone, PartialEq)]
enum Rec {
    Null,
    Bool(bool),
    Int(i64),
    /// Integral values print with a trailing `.0`.
    Num(f64),
    Str(String),
    List(Vec<Rec>),
    Obj(Vec<(String, Rec)>),
}

fn obj<const N: usize>(fields: [(&str, Rec); N]) -> Rec {
    Rec::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Rec {
    /// This object with `key` set to `value`: replaced in place when
    /// present, appended otherwise.
    fn with(mut self, key: &str, value: impl Into<Rec>) -> Rec {
        let Rec::Obj(fields) = &mut self else { panic!("`with` on a non-object") };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    fn get(&self, key: &str) -> Option<&Rec> {
        match self {
            Rec::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match *self {
            Rec::Num(x) => Some(x),
            _ => None,
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "");
        out
    }

    fn render_into(&self, out: &mut String, indent: &str) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Rec)>) = match self {
            Rec::List(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Rec::Obj(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
            Rec::Null => return out.push_str("null"),
            Rec::Bool(b) => return out.push_str(&b.to_string()),
            Rec::Int(i) => return out.push_str(&i.to_string()),
            Rec::Num(x) if !x.is_finite() => return out.push_str("null"),
            Rec::Num(x) if x.fract() == 0.0 && x.abs() < 1e16 => {
                return out.push_str(&format!("{x:.1}"))
            }
            Rec::Num(x) => return out.push_str(&x.to_string()),
            Rec::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if u32::from(c) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", u32::from(c)))
                        }
                        c => out.push(c),
                    }
                }
                return out.push('"');
            }
        };
        out.push(open);
        let inner = format!("{indent}  ");
        for (i, (key, v)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&inner);
            if let Some(k) = key {
                Rec::Str(k.to_string()).render_into(out, &inner);
                out.push_str(": ");
            }
            v.render_into(out, &inner);
        }
        if !items.is_empty() {
            out.push('\n');
            out.push_str(indent);
        }
        out.push(close);
    }
}

impl From<bool> for Rec {
    fn from(b: bool) -> Rec {
        Rec::Bool(b)
    }
}

impl From<usize> for Rec {
    fn from(n: usize) -> Rec {
        Rec::Int(i64::try_from(n).expect("a count fits in i64"))
    }
}

impl From<f64> for Rec {
    fn from(x: f64) -> Rec {
        Rec::Num(x)
    }
}

impl From<&str> for Rec {
    fn from(s: &str) -> Rec {
        Rec::Str(s.to_string())
    }
}

/// A parsed record: keys come back sorted, numbers as floats.
impl From<&Value> for Rec {
    fn from(v: &Value) -> Rec {
        match v {
            Value::Null => Rec::Null,
            Value::Bool(b) => Rec::Bool(*b),
            Value::Number(x) => Rec::Num(*x),
            Value::String(s) => Rec::Str(s.clone()),
            Value::Array(items) => Rec::List(items.iter().map(Rec::from).collect()),
            Value::Object(map) => {
                Rec::Obj(map.iter().map(|(k, v)| (k.clone(), v.into())).collect())
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn arms(a: f64, b: f64) -> Arms {
        let paired = Paired { a, b, b_over_a: b / a, a_over_b: a / b };
        Arms { workload: "w".into(), paired }
    }

    fn trsv(host_cores: usize, speedup: f64, bit_identical: bool) -> Trsv {
        Trsv {
            threads: 4,
            host_cores,
            levels: [399, 399],
            bit_identical,
            arms: arms(speedup * 1e-3, 1e-3),
        }
    }

    fn format_case(applicable: bool, speedup: f64, bit_identical: bool) -> FormatCase {
        FormatCase {
            rows: 10,
            nnz: 28,
            chosen: if applicable { "bcsr" } else { "csr" },
            applicable,
            bit_identical,
            arms: arms(speedup * 1e-4, 1e-4),
        }
    }

    fn multirhs(bit_identical: bool) -> MultiRhs {
        MultiRhs {
            bit_identical,
            arms: arms(5e-3, 1e-3),
            cold_s: 1e-2,
            warm_s: 1e-5,
        }
    }

    fn spmv_fresh() -> [Spmv; 2] {
        [
            Spmv { mean_ns: 2e5, per_sec: Some(9e8) },
            Spmv { mean_ns: 7e6, per_sec: Some(2.8e7) },
        ]
    }

    fn fault(stored: Option<&Value>, allow: bool) -> Outcome {
        let m = arms(1e-2, 1.01e-2);
        gate_fault(80, [&m, &m], spmv_fresh(), stored, "post", allow)
    }

    /// The record `out` writes to `file`, rendered and parsed back.
    fn written(out: &Outcome, file: &str) -> Value {
        let (_, text) = out.records.iter().find(|(f, _)| *f == file).expect(file);
        serde_json::from_str(text).expect("records render as JSON")
    }

    fn key_paths(v: &Value, path: String, out: &mut Vec<String>) {
        let children: Vec<(String, &Value)> = match v {
            Value::Object(map) => map.iter().map(|(k, c)| (format!("{path}.{k}"), c)).collect(),
            Value::Array(items) => {
                items.iter().enumerate().map(|(i, c)| (format!("{path}[{i}]"), c)).collect()
            }
            _ => return,
        };
        for (p, c) in children {
            out.push(p.clone());
            key_paths(c, p, out);
        }
    }

    fn lookup<'v>(v: &'v Value, path: &str) -> Option<&'v Value> {
        let mut cur = v;
        for part in path.split('.').skip(1) {
            let (key, index) = match part.split_once('[') {
                Some((k, i)) => (k, i.trim_end_matches(']').parse::<usize>().ok()),
                None => (part, None),
            };
            cur = cur.get(key)?;
            if let Some(i) = index {
                cur = cur.get(i)?;
            }
        }
        Some(cur)
    }

    #[test]
    fn bit_identity_misses_are_hard_failures() {
        for (bit, errors) in [(true, 0), (false, 1)] {
            let out = gate_trsv(60, &trsv(8, 3.0, bit));
            assert_eq!(out.errors.len(), errors, "trsv bit_identical={bit}");
            assert_eq!(written(&out, "BENCH_trsv.json")["pass"].as_bool(), Some(bit));

            let cases = [format_case(true, 1.5, true), format_case(false, 1.0, bit)];
            let out = gate_format(30, &cases);
            assert_eq!(out.errors.len(), errors, "format bit_identical={bit}");
            assert_eq!(written(&out, "BENCH_format.json")["pass"].as_bool(), Some(bit));

            let out = gate_multirhs(9, &multirhs(bit));
            assert_eq!(out.errors.len(), errors, "multirhs bit_identical={bit}");
            assert_eq!(written(&out, "BENCH_multirhs.json")["pass"].as_bool(), Some(bit));
        }
    }

    #[test]
    fn speedups_are_skipped_without_cores_or_a_format_change() {
        // Too few cores: a 0.01x "speedup" is recorded, not gated.
        let out = gate_trsv(60, &trsv(2, 0.01, true));
        let rec = written(&out, "BENCH_trsv.json");
        assert_eq!(rec["sufficient_cores"].as_bool(), Some(false));
        assert_eq!(rec["pass"].as_bool(), Some(true));
        assert!(out.lines[0].contains("SKIPPED"), "{:?}", out.lines);
        // Enough cores: the same shortfall fails the pass flag (a WARN).
        let out = gate_trsv(60, &trsv(4, 0.01, true));
        assert_eq!(written(&out, "BENCH_trsv.json")["pass"].as_bool(), Some(false));
        assert!(out.lines[0].contains("WARN") && out.errors.is_empty());

        let out = gate_format(30, &[format_case(false, 0.5, true)]);
        assert_eq!(written(&out, "BENCH_format.json")["pass"].as_bool(), Some(true));
        assert!(out.lines[0].contains("SKIPPED"), "{:?}", out.lines);
        let out = gate_format(30, &[format_case(true, 0.5, true)]);
        assert_eq!(written(&out, "BENCH_format.json")["pass"].as_bool(), Some(false));
        assert!(out.lines[0].contains("WARN") && out.errors.is_empty());
    }

    #[test]
    fn a_missing_stored_baseline_is_an_error_unless_allowed() {
        let off_path = |g: &StoredGate, stored: Option<&Value>, allow: bool| {
            let m = arms(1e-2, 1.01e-2);
            gate_stored(g, 80, &m, stored, allow)
        };
        for g in [&TRACE, &CHECKPOINT, &LEDGER] {
            assert_eq!(off_path(g, None, false).errors.len(), 1, "{}", g.name);
            let out = off_path(g, None, true);
            assert!(out.errors.is_empty(), "{}", g.name);
            let off = &written(&out, g.file)[g.sections[1]];
            assert_eq!(off.as_object().map(|o| o.len()), Some(1), "only target_pct: {off:?}");
        }
        // The same arms against a stored record that has the median.
        let stored = serde_json::from_str(r#"{"armed":{"disarmed_median_ns":1e7}}"#).unwrap();
        let out = off_path(&TRACE, Some(&stored), false);
        assert!(out.errors.is_empty());
        assert_eq!(written(&out, TRACE.file)["disabled"]["slowdown_pct"].as_f64(), Some(0.0));

        // Fault's no-faults baseline is the label's BENCH_spmv.json entry.
        assert_eq!(fault(None, false).errors.len(), 1);
        assert!(fault(None, true).errors.is_empty());
        let other_label = serde_json::from_str(r#"{"pre":{"serial":{"elements_per_sec":1}}}"#)
            .unwrap();
        assert_eq!(fault(Some(&other_label), false).errors.len(), 1);
        let out = fault(Some(&other_label), true);
        let spmv = written(&out, SPMV_FILE);
        assert!(spmv["pre"]["serial"]["elements_per_sec"].as_f64() == Some(1.0));
        assert!(spmv["post"]["dist4"]["mean_ns"].as_f64() == Some(7e6));
    }

    #[test]
    fn records_keep_every_key_path_of_the_committed_records() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |file: &str| -> Value {
            let text = std::fs::read_to_string(root.join(file)).expect(file);
            serde_json::from_str(&text).expect(file)
        };
        let spmv = read(SPMV_FILE);
        let overhead = arms(1e-2, 1.01e-2);
        let stored_gate =
            |g: &StoredGate| gate_stored(g, 80, &overhead, Some(&read(g.file)), false);
        let cases = [
            format_case(true, 1.3, true),
            format_case(true, 1.5, true),
            format_case(false, 1.0, true),
        ];
        let outcomes = [
            gate_probe(150, &overhead, 7e6),
            fault(Some(&spmv), false),
            gate_flight(80, &overhead),
            stored_gate(&TRACE),
            stored_gate(&CHECKPOINT),
            stored_gate(&LEDGER),
            gate_trsv(60, &trsv(1, 0.01, true)),
            gate_format(30, &cases),
            gate_multirhs(9, &multirhs(true)),
        ];
        let mut checked = Vec::new();
        for entry in std::fs::read_dir(&root).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            let out = outcomes
                .iter()
                .find(|o| o.records.iter().any(|(f, _)| *f == file))
                .unwrap_or_else(|| panic!("no guard writes {file}"));
            assert!(out.errors.is_empty(), "{file}: {:?}", out.errors);
            let built = written(out, &file);
            let mut paths = Vec::new();
            key_paths(&read(&file), String::new(), &mut paths);
            for p in paths {
                assert!(lookup(&built, &p).is_some(), "{file}: key path {p} is not written");
            }
            checked.push(file);
        }
        assert_eq!(checked.len(), 10, "{checked:?}");
    }

    #[test]
    fn records_render_as_indented_json() {
        let rec = obj([
            ("n", Rec::from(80usize)),
            ("x", 3.0.into()),
            ("y", 0.25.into()),
            ("list", Rec::List(vec![true.into(), "a\"b".into()])),
            ("empty", obj([])),
        ]);
        assert_eq!(
            rec.render(),
            "{\n  \"n\": 80,\n  \"x\": 3.0,\n  \"y\": 0.25,\n  \"list\": [\n    true,\n    \
             \"a\\\"b\"\n  ],\n  \"empty\": {}\n}"
        );
        assert_eq!(rec.clone().with("x", 4.0).get("x"), Some(&Rec::Num(4.0)));
        assert_eq!(fixed(1.23456, 4), 1.2346);
    }
}
