//! # dsi-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) from
//! the simulator. The `expt` binary is a thin wrapper over [`experiments`];
//! results are printed as the paper's rows/series and written as JSON under
//! `results/`. The two measurement binaries sit beside it: `dsi_benchmark`
//! (the comparator `BENCHMARK.json` declares) and `bench_scale` (the scale
//! sweep behind `BENCH_scale.json`).

#![warn(missing_docs)]

pub mod experiments;
pub mod sweep;

pub use sweep::parallel_reports;

use std::path::PathBuf;

/// Directory experiment outputs are written to (`results/` at the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a serializable value as pretty JSON under `results/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, json).expect("write results file");
    println!("[written {}]", path.display());
}

/// True when the caller asked for a fast, reduced-accuracy run (`--quick`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
