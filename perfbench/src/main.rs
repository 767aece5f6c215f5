//! The repository benchmark: the paper's CCA-vs-native comparison on four
//! seeded workloads, through the LISI port of a CCA solver component and
//! through the native package API, op by op.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_cold|sweep_single|sweep_batched|direct_cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` (ops run), `failed` (ops that failed a check) and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it records the host, the
//! workload and, for traced runs, each layer's share of the op time.
//! Traced runs also write their spans to `perfbench/out/`.

mod report;
mod runner;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

use runner::{Config, OpRec, RunOut, RANKS, THREADS};
use workloads::Kind;

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("'{}' has no value", pair[0]));
        };
        let bad = || format!("bad value '{value}' for {key}");
        match key.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument '{key}'")),
        }
    }
    Ok(Config {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced_run: trace.ok_or("missing --trace")?,
    })
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn write_spans(cfg: &Config, run: &RunOut) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", cfg.kind.name(), cfg.seed));
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in &run.spans {
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        writeln!(
            w,
            "{{\"rank\":{},\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.rank, s.op, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS * THREADS > nproc {
        eprintln!(
            "refusing to measure: {RANKS} ranks x {THREADS} kernel threads oversubscribe {nproc} cores"
        );
        return ExitCode::from(3);
    }
    rsparse::threads::set_threads(THREADS);
    probe::set_mode(probe::ProbeMode::Off);
    probe::trace::set_armed(false);
    let policy = rsparse::autotune::active_policy().name();

    let run = runner::run(cfg);
    if !run.self_test_caught {
        eprintln!("self-test failed: a corrupted solution passed the checks");
        return ExitCode::from(4);
    }

    let attempted = run.recs.len();
    let failed: Vec<&OpRec> = run.recs.iter().filter(|r| !r.failed.is_empty()).collect();
    for r in &failed {
        eprintln!("op {} failed: {}", r.id, r.failed.join(", "));
    }

    let mut info = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{{\"nproc\":{nproc},\"ranks\":{RANKS},\
\"kernel_threads\":{THREADS},\"autotune_policy\":\"{policy}\"}},\"timed_ops\":{}",
        cfg.kind.name(),
        cfg.seed,
        run.recs
            .iter()
            .filter(|r| r.phase == runner::Phase::Timed)
            .count(),
    );
    if let Some(steal) = run.steal_pct {
        write!(info, ",\"host_steal_pct\":{}", num(steal)).expect("write to a String");
    }
    let metrics = if cfg.traced_run {
        match write_spans(&cfg, &run) {
            Ok(path) => write!(
                info,
                ",\"spans\":{},\"span_file\":\"{}\"",
                run.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("could not write the spans: {e}");
                return ExitCode::from(5);
            }
        }
        .expect("write to a String");
        let shares: Vec<String> = report::layer_shares(&run)
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        write!(info, ",\"layer_share_pct\":{{{}}}", shares.join(",")).expect("write to a String");
        report::per_layer(&run)
    } else {
        if let Some(p90) = report::op_p90(&run) {
            write!(info, ",\"op_p90_s\":{}", num(p90)).expect("write to a String");
        }
        report::end_to_end(&run)
    };
    info.push('}');
    println!("{info}");

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        failed.is_empty(),
        failed.len(),
        body.join(",")
    );
    ExitCode::SUCCESS
}
