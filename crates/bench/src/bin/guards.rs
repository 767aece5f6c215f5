//! Run the paired A/B guards and write their `BENCH_*.json` records.
//!
//! Usage: `guards [--label LABEL] [name...]` from the repository root.
//! With no names it runs all nine guards (`probe fault flight trace
//! checkpoint ledger trsv format multirhs`). `LABEL` (default `post`) is
//! the `BENCH_spmv.json` entry the fault guard records this run's
//! criterion SpMV results under and compares them with; the probe and
//! fault guards read those results from `target/criterion-shim/`, so run
//! them through `scripts/bench_smoke.sh`, which produces them first.
//!
//! Every selected guard runs, each in a process of its own, and writes
//! its records; the exit status is 1 if any guard hit a hard error (a
//! bit-identity failure, or a missing stored baseline without
//! `BENCH_ALLOW_MISSING_BASELINE=1`).

use lisi_bench::guards::{Env, GUARDS};

fn main() {
    let mut label = "post".to_string();
    let mut names = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--label" {
            label = args.next().expect("--label needs a value");
        } else {
            names.push(arg);
        }
    }
    let known: Vec<&str> = GUARDS.iter().map(|g| g.name).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("unknown guard '{bad}'; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let selected: Vec<_> =
        GUARDS.iter().filter(|g| names.is_empty() || names.iter().any(|n| n == g.name)).collect();

    // Several guards: each runs in a child process of its own, as a
    // separate binary would. Process-global state one guard leaves
    // behind (the probe's per-thread recorder registry only grows, the
    // session cache, the thread pool) would otherwise bias the next.
    if selected.len() > 1 {
        let exe = std::env::current_exe().expect("own executable");
        let mut failed = false;
        for guard in selected {
            let status = std::process::Command::new(&exe)
                .args(["--label", &label, guard.name])
                .status()
                .unwrap_or_else(|e| panic!("running guard {}: {e}", guard.name));
            failed |= !status.success();
        }
        std::process::exit(i32::from(failed));
    }

    let guard = selected[0];
    let env = Env {
        label,
        allow_missing_baseline: std::env::var("BENCH_ALLOW_MISSING_BASELINE").as_deref()
            == Ok("1"),
    };
    println!("== {} guard ({} paired trials) ==", guard.name, guard.trials);
    let out = guard.run(&env);
    for (file, rec) in &out.records {
        std::fs::write(file, format!("{rec}\n"))
            .unwrap_or_else(|e| panic!("writing {file}: {e}"));
    }
    for line in &out.lines {
        println!("{line}");
    }
    for err in &out.errors {
        eprintln!("ERROR: {err}");
    }
    for (file, _) in &out.records {
        println!("recorded {file}");
    }
    std::process::exit(i32::from(!out.errors.is_empty()));
}
