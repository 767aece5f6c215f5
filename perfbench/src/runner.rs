//! The op loop every rank runs: cold set-up reps, warm-up, then paired
//! CCA/native ops until the time budget is spent, each checked.

use std::time::{Duration, Instant};

use lisi::SolverService;
use rcomm::{Communicator, Universe};

use crate::trace::{self, Span};
use crate::workloads::{Kind, RankWork};

/// Ranks per run. Each is a thread of this process.
pub const RANKS: usize = 2;
/// Kernel threads per rank (`rsparse::threads`).
pub const THREADS: usize = 1;
/// Sweeps repeat their cold phase this many times at run start; the
/// median gives `setup_s`.
const COLD_REPS: u64 = 21;
/// Untimed ops before the timed phase; early ops run slower while
/// allocator pools and caches warm up.
const WARMUP_OPS: u64 = 3;
/// Relative perturbation the self-test applies to a correct solution.
const CORRUPTION: f64 = 1e-5;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    /// A traced run: every input runs twice, untraced and traced.
    pub traced_run: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    ColdRep,
    Warmup,
    Timed,
}

/// One op as rank 0 saw it; times are maxima over ranks.
#[derive(Debug, Clone)]
pub struct OpRec {
    pub id: u64,
    pub phase: Phase,
    pub traced: bool,
    pub cold: bool,
    pub cca_s: f64,
    pub native_s: f64,
    /// Slowest minus fastest rank's CCA op time.
    pub skew_s: f64,
    pub pkg_setup_s: f64,
    /// Wiring + ingest + package set-up, summed per rank, max over ranks.
    pub setup_s: f64,
    pub rhs: usize,
    pub solves: usize,
    pub warm_solves: usize,
    pub rhs_iters: usize,
    pub allreduces: u64,
    pub sends: u64,
    pub bytes_sent: u64,
    pub cache_bytes: usize,
    pub failed: Vec<&'static str>,
}

pub struct RunOut {
    pub recs: Vec<OpRec>,
    pub spans: Vec<Span>,
    /// Modelled bytes of one SpMV over all ranks.
    pub spmv_bytes: f64,
    /// Did the self-test's corrupted solution count as failed?
    pub self_test_caught: bool,
    /// Share of CPU time the hypervisor stole during the timed phase, in
    /// percent (`None` where `/proc/stat` has no steal column).
    pub steal_pct: Option<f64>,
}

/// (steal, total) jiffies over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

struct Driver<'c> {
    cfg: Config,
    comm: &'c Communicator,
    work: RankWork<'c>,
    recs: Vec<OpRec>,
    next_id: u64,
    self_test_caught: Option<bool>,
}

/// FNV-1a over the bits of a solution and its iteration counts.
fn digest(x: &[f64], iters: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in x
        .iter()
        .map(|v| v.to_bits())
        .chain(iters.iter().map(|&i| i as u64))
    {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Driver<'_> {
    /// Run one input: once, or in a traced run twice (untraced and
    /// traced, order alternating), failing both ops if the wrappers
    /// changed any iteration count or solution bit.
    fn step(&mut self, input: u64, phase: Phase) {
        let cold = phase == Phase::ColdRep || !self.cfg.kind.is_sweep();
        if !self.cfg.traced_run {
            self.op(input, phase, cold, false);
            return;
        }
        let traced_first = input % 2 == 1;
        let first = self.op(input, phase, cold, traced_first);
        let second = self.op(input, phase, cold, !traced_first);
        let changed = if first == second { 0.0 } else { 1.0 };
        if self.comm.allreduce(changed, rcomm::max).expect("allreduce") > 0.0 {
            let n = self.recs.len();
            for rec in &mut self.recs[n - 2..] {
                rec.failed.push("trace_changed_results");
            }
        }
    }

    /// One paired op; returns this rank's digests of both solutions.
    fn op(&mut self, input: u64, phase: Phase, cold: bool, traced: bool) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        // A sweep's cold rep solves only its first group: it exists to
        // measure set-up.
        let kind = self.cfg.kind;
        let cols = if phase == Phase::ColdRep {
            kind.group_width()
        } else {
            kind.rhs_per_op()
        };
        let rhs = self.work.rhs(input, cols);
        if cold {
            self.work.reset_for_cold_op();
        }
        trace::set_op(id, traced);
        let (cca, native) = if id.is_multiple_of(2) {
            let c = self.work.cca_op(&rhs, cold);
            (c, self.work.native_op(&rhs, cold, traced))
        } else {
            let n = self.work.native_op(&rhs, cold, traced);
            (self.work.cca_op(&rhs, cold), n)
        };
        trace::set_op(id, false);
        let failed = self.work.verify(&rhs, &cca, &native, cold);
        // Self-test, once a correct op exists: the same checks must count
        // a slightly corrupted copy of its solution as failed.
        if self.self_test_caught.is_none() && failed.is_empty() {
            let mut bad = cca.clone();
            bad.x.iter_mut().for_each(|v| *v *= 1.0 + CORRUPTION);
            self.self_test_caught = Some(!self.work.verify(&rhs, &bad, &native, cold).is_empty());
        }
        if traced {
            trace::set_op(id, true);
            self.work.probe_port_costs();
            trace::set_op(id, false);
        }
        let setup = cca.wire_s + cca.ingest_s + cca.pkg_setup_s;
        let max = self
            .comm
            .allreduce_vec(
                &[
                    cca.seconds,
                    native.seconds,
                    -cca.seconds,
                    cca.pkg_setup_s,
                    setup,
                ],
                rcomm::max,
            )
            .expect("allreduce");
        self.recs.push(OpRec {
            id,
            phase,
            traced,
            cold,
            cca_s: max[0],
            native_s: max[1],
            skew_s: max[0] + max[2],
            pkg_setup_s: max[3],
            setup_s: max[4],
            rhs: cols,
            solves: cca.solves,
            warm_solves: cca.warm_solves,
            rhs_iters: native.rhs_iters,
            allreduces: native.comm.allreduces,
            sends: native.comm.sends,
            bytes_sent: native.comm.bytes_sent,
            cache_bytes: SolverService::global().stats().1,
            failed,
        });
        (digest(&cca.x, &cca.iters), digest(&native.x, &native.iters))
    }
}

fn rank_main(cfg: Config, comm: &Communicator, epoch: Instant) -> RunOut {
    trace::begin(comm.rank(), epoch);
    let work = RankWork::new(cfg.kind, cfg.seed, comm);
    let spmv_bytes = comm
        .allreduce(work.spmv_bytes(), rcomm::sum)
        .expect("allreduce");
    let mut d = Driver {
        cfg,
        comm,
        work,
        recs: Vec::new(),
        next_id: 0,
        self_test_caught: None,
    };
    let mut input = 0u64;
    if cfg.kind.is_sweep() {
        for _ in 0..COLD_REPS {
            d.step(input, Phase::ColdRep);
            input += 1;
        }
    }
    for _ in 0..WARMUP_OPS {
        d.step(input, Phase::Warmup);
        input += 1;
    }
    let budget = Duration::from_secs_f64(cfg.seconds);
    let jiffies_before = cpu_jiffies();
    let start = Instant::now();
    loop {
        d.step(input, Phase::Timed);
        input += 1;
        let spent = if start.elapsed() >= budget { 1.0 } else { 0.0 };
        if comm.allreduce(spent, rcomm::max).expect("allreduce") > 0.0 {
            break;
        }
    }
    let steal_pct = jiffies_before
        .zip(cpu_jiffies())
        .and_then(|((s0, t0), (s1, t1))| {
            (t1 > t0).then(|| 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        });
    RunOut {
        recs: d.recs,
        spans: trace::take(),
        spmv_bytes,
        self_test_caught: d.self_test_caught.unwrap_or(false),
        steal_pct,
    }
}

/// Run the workload on [`RANKS`] ranks. Rank 0's records (already
/// reduced over ranks) and every rank's spans come back.
pub fn run(cfg: Config) -> RunOut {
    let epoch = Instant::now();
    let mut outs = Universe::run(RANKS, |comm| rank_main(cfg, comm, epoch));
    let spans = outs
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.spans))
        .collect();
    let mut root = outs.swap_remove(0);
    root.spans = spans;
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one cold op of `kind` (traced twins when `traced_run`) and
    /// return rank 0's driver state.
    fn one_cold_step(kind: Kind, traced_run: bool) -> (Vec<OpRec>, Option<bool>) {
        let cfg = Config {
            kind,
            seed: 3,
            seconds: 1.0,
            traced_run,
        };
        let epoch = Instant::now();
        let mut outs = Universe::run(RANKS, |comm| {
            trace::begin(comm.rank(), epoch);
            let work = RankWork::new(kind, cfg.seed, comm);
            let mut d = Driver {
                cfg,
                comm,
                work,
                recs: Vec::new(),
                next_id: 0,
                self_test_caught: None,
            };
            d.step(0, Phase::ColdRep);
            (d.recs, d.self_test_caught)
        });
        outs.swap_remove(0)
    }

    #[test]
    fn correct_ops_pass_and_a_corrupted_solution_is_counted_failed() {
        for kind in [Kind::SweepSingle, Kind::DirectCold] {
            let (recs, caught) = one_cold_step(kind, false);
            assert!(recs[0].failed.is_empty(), "{kind:?}: {:?}", recs[0].failed);
            assert_eq!(caught, Some(true), "{kind:?}");
        }
    }

    #[test]
    fn traced_twins_reproduce_the_untraced_bits() {
        let (recs, _) = one_cold_step(Kind::SweepBatched, true);
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().any(|r| r.traced) && recs.iter().any(|r| !r.traced));
        for r in &recs {
            assert!(r.failed.is_empty(), "{:?}", r.failed);
        }
    }
}
