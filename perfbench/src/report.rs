//! Metrics from one run's op records and spans.

use std::collections::{BTreeMap, BTreeSet};

use crate::runner::{OpRec, Phase, RunOut};
use crate::trace::Span;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` in (0, 100].
pub fn percentile(values: impl IntoIterator<Item = f64>, p: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn timed(run: &RunOut) -> impl Iterator<Item = &OpRec> {
    run.recs.iter().filter(|r| is_timed(r))
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &RunOut) -> Vec<Metric> {
    let ops: Vec<&OpRec> = timed(run).collect();
    let op_p50 = median(ops.iter().map(|r| r.cca_s));
    let setups = run.recs.iter().filter(|r| sets_up(r));
    vec![
        ("op_p50_s", op_p50, "s"),
        // Throughput at the median op rather than the phase mean: on a
        // shared host one preempted op would otherwise swing the rate.
        (
            "rhs_per_s",
            median(ops.iter().map(|r| r.rhs as f64)) / op_p50,
            "1/s",
        ),
        (
            "native_op_p50_s",
            median(ops.iter().map(|r| r.native_s)),
            "s",
        ),
        ("setup_s", median(setups.map(|r| r.setup_s)), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// `op_p90_s` when the run holds enough ops for ten samples beyond it.
pub fn op_p90(run: &RunOut) -> Option<f64> {
    let v: Vec<f64> = timed(run).map(|r| r.cca_s).collect();
    (v.len() >= 100).then(|| percentile(v, 90.0))
}

/// Is `r` an op that sets a session up: every op of a cold workload,
/// the cold reps of a sweep? Warm-up ops are left out.
fn sets_up(r: &OpRec) -> bool {
    r.cold && r.phase != Phase::Warmup
}

fn is_timed(r: &OpRec) -> bool {
    r.phase == Phase::Timed
}

/// Spans of the traced ops that `keep` selects, grouped by op.
struct SpanIndex<'a> {
    by_op: BTreeMap<u64, Vec<&'a Span>>,
}

impl<'a> SpanIndex<'a> {
    fn new(run: &'a RunOut, keep: fn(&OpRec) -> bool) -> Self {
        let keep: BTreeSet<u64> = run
            .recs
            .iter()
            .filter(|r| r.traced && keep(r))
            .map(|r| r.id)
            .collect();
        let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in run.spans.iter().filter(|s| keep.contains(&s.op)) {
            by_op.entry(s.op).or_default().push(s);
        }
        SpanIndex { by_op }
    }

    /// Per op holding `name`: seconds in `name` summed per rank, max over
    /// ranks, after `adjust` maps each span to the seconds it counts.
    fn per_op(&self, name: &str, adjust: impl Fn(&Span, &[&Span]) -> f64) -> Vec<f64> {
        self.by_op
            .values()
            .filter_map(|spans| {
                let mut per_rank: BTreeMap<usize, f64> = BTreeMap::new();
                for s in spans.iter().filter(|s| s.name == name) {
                    *per_rank.entry(s.rank).or_default() += adjust(s, spans);
                }
                per_rank.into_values().reduce(f64::max)
            })
            .collect()
    }

    /// Median over ops of the total seconds in `name`.
    fn total(&self, name: &str) -> f64 {
        median(self.per_op(name, |s, _| s.seconds()))
    }

    /// Median over ops of `name`'s self time: its seconds minus those of
    /// its direct children.
    fn self_time(&self, name: &str) -> f64 {
        median(self.per_op(name, |s, spans| {
            let children: f64 = spans
                .iter()
                .filter(|c| c.rank == s.rank && c.parent == Some(s.id))
                .map(|c| c.seconds())
                .sum();
            s.seconds() - children
        }))
    }

    /// Median over ops of how many `name` spans rank 0 recorded, among
    /// ops holding at least one.
    fn calls(&self, name: &str) -> f64 {
        median(self.by_op.values().filter_map(|spans| {
            let n = spans
                .iter()
                .filter(|s| s.rank == 0 && s.name == name)
                .count();
            (n > 0).then_some(n as f64)
        }))
    }

    /// Median seconds of one `name` span, over every rank and op.
    fn per_call(&self, name: &str) -> f64 {
        median(
            self.by_op
                .values()
                .flat_map(|spans| spans.iter().filter(|s| s.name == name).map(|s| s.seconds())),
        )
    }
}

/// Seconds by which the port op exceeded the paired native op, median
/// over the untraced timed ops.
fn port_overhead(run: &RunOut) -> f64 {
    median(
        timed(run)
            .filter(|r| !r.traced)
            .map(|r| r.cca_s - r.native_s),
    )
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &RunOut) -> Vec<Metric> {
    let spans = SpanIndex::new(run, is_timed);
    let setup = SpanIndex::new(run, sets_up);
    let ops: Vec<&OpRec> = timed(run).collect();
    let rhs_iters: usize = ops.iter().map(|r| r.rhs_iters).sum();
    let per_iter = |count: u64| {
        if rhs_iters == 0 {
            0.0
        } else {
            count as f64 / rhs_iters as f64
        }
    };
    let sum = |f: fn(&OpRec) -> u64| ops.iter().map(|r| f(r)).sum::<u64>();
    let solves_per_op = median(ops.iter().map(|r| r.solves as f64));

    let overhead = port_overhead(run);
    let fingerprint = spans.per_call("lisi.fingerprint");
    let admit = spans.per_call("lisi.admit");
    let allgather = spans.per_call("rcomm.allgather");
    let spmv_s = spans.total("rsparse.spmv");
    let spmv_calls = spans.calls("rsparse.spmv");
    let gbps = if spmv_s > 0.0 {
        spmv_calls * run.spmv_bytes / spmv_s / 1e9
    } else {
        0.0
    };
    let solves: usize = ops.iter().map(|r| r.solves).sum();
    let warm: usize = ops.iter().map(|r| r.warm_solves).sum();

    // The wrappers sit on the native half of each op, so the overhead is
    // taken over the whole pair.
    let pair = |traced: bool| {
        median(
            ops.iter()
                .filter(|r| r.traced == traced)
                .map(|r| r.cca_s + r.native_s),
        )
    };
    let trace_overhead_pct = 100.0 * (pair(true) / pair(false) - 1.0);

    vec![
        ("cca.wire_s", setup.total("cca.wire"), "s"),
        ("port.ingest_s", setup.total("lisi.ingest"), "s"),
        (
            "port.pkg_setup_s",
            median(
                run.recs
                    .iter()
                    .filter(|r| sets_up(r))
                    .map(|r| r.pkg_setup_s),
            ),
            "s",
        ),
        ("port.solve_s", spans.total("lisi.solve"), "s"),
        ("port.overhead_s", overhead, "s"),
        (
            "port.unexplained_s",
            overhead - solves_per_op * (fingerprint + admit + 2.0 * allgather),
            "s",
        ),
        ("service.fingerprint_s", fingerprint, "s"),
        ("service.admit_s", admit, "s"),
        (
            "service.warm_ratio",
            if solves == 0 {
                0.0
            } else {
                warm as f64 / solves as f64
            },
            "ratio",
        ),
        (
            "service.cache_bytes",
            run.recs
                .iter()
                .map(|r| r.cache_bytes as f64)
                .fold(0.0, f64::max),
            "bytes",
        ),
        (
            "sparse.distribute_s",
            setup.total("rsparse.distribute"),
            "s",
        ),
        ("sparse.spmv_s", spmv_s, "s"),
        ("sparse.spmv_calls", spmv_calls, "count"),
        ("sparse.spmv_gbps_computed", gbps, "GB/s"),
        (
            "sparse.spmv_multi_s",
            spans.total("rsparse.spmv_multi"),
            "s",
        ),
        (
            "krylov.iterations",
            median(ops.iter().map(|r| r.rhs_iters as f64 / r.rhs as f64)),
            "count",
        ),
        ("krylov.solve_s", spans.total("rkrylov.solve"), "s"),
        ("krylov.pc_setup_s", setup.total("rkrylov.pc_setup"), "s"),
        ("krylov.pc_apply_s", spans.total("rkrylov.pc_apply"), "s"),
        ("krylov.pc_calls", spans.calls("rkrylov.pc_apply"), "count"),
        (
            "krylov.driver_self_s",
            spans.self_time("rkrylov.solve"),
            "s",
        ),
        (
            "comm.allreduces_per_iter",
            per_iter(sum(|r| r.allreduces)),
            "count",
        ),
        ("comm.sends_per_iter", per_iter(sum(|r| r.sends)), "count"),
        (
            "comm.bytes_sent_per_iter",
            per_iter(sum(|r| r.bytes_sent)),
            "bytes",
        ),
        ("comm.allreduce_s", spans.per_call("rcomm.allreduce"), "s"),
        (
            "comm.rank_skew_s",
            median(ops.iter().map(|r| r.skew_s)),
            "s",
        ),
        ("direct.factor_s", setup.total("rdirect.factorize"), "s"),
        ("direct.trisolve_s", spans.total("rdirect.solve"), "s"),
        ("probe.trace_overhead_pct", trace_overhead_pct, "%"),
    ]
}

/// Each layer's share of the untraced `op_p50_s`, in percent, from the
/// traced ops. Kernel layers are measured on the native half of the op,
/// which runs the same kernels.
pub fn layer_shares(run: &RunOut) -> Vec<(&'static str, f64)> {
    let spans = SpanIndex::new(run, is_timed);
    let op = median(timed(run).filter(|r| !r.traced).map(|r| r.cca_s));
    let pkg = median(timed(run).filter(|r| r.cold).map(|r| r.pkg_setup_s));
    let pct = |s: f64| 100.0 * s / op;
    vec![
        ("cca.wire", pct(spans.total("cca.wire"))),
        ("port.ingest", pct(spans.total("lisi.ingest"))),
        ("port.pkg_setup", pct(pkg)),
        ("sparse.distribute", pct(spans.total("rsparse.distribute"))),
        ("krylov.pc_setup", pct(spans.total("rkrylov.pc_setup"))),
        (
            "sparse.spmv",
            pct(spans.total("rsparse.spmv") + spans.total("rsparse.spmv_multi")),
        ),
        ("krylov.pc_apply", pct(spans.total("rkrylov.pc_apply"))),
        ("krylov.driver_self", pct(spans.self_time("rkrylov.solve"))),
        ("direct.factor", pct(spans.total("rdirect.factorize"))),
        ("direct.trisolve", pct(spans.total("rdirect.solve"))),
        ("port.overhead", pct(port_overhead(run))),
    ]
}
