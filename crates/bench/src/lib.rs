//! `lisi_bench` — the measurement harness for the paper's evaluation
//! (§8): for each solver package, time the *same* workload through two
//! call paths that share every substrate —
//!
//! * **non-CCA**: the application calls the native package API directly
//!   (assemble → distribute → solve);
//! * **CCA**: the application talks to a LISI solver component through a
//!   CCA framework port (assemble → LISI setters → `setupMatrix` /
//!   `setupRHS` → `solve`).
//!
//! The difference is the interface overhead the paper reports in
//! Figure 5 and Table 1: format conversion/copies at the port boundary,
//! dynamic dispatch, framework port lookup.
//!
//! [`guards`] holds the paired A/B overhead and speedup guards that
//! `scripts/bench_smoke.sh` runs through the `guards` bin, on the same
//! order-alternation helper (`harness::alternate`) as [`measure_pair`].

#![warn(missing_docs)]

pub mod guards;
pub mod harness;
pub mod tables;
pub mod workload;

pub use harness::{measure_pair, run_cca, run_native, wire_component, Package, RunResult};
pub use tables::{figure5_series, table1_rows, Figure5Point, Table1Row};
pub use workload::{paper_workload, Workload};
