//! Bench-regression guard for CI smoke.
//!
//! Compares a freshly generated `BENCH_ingest.json` against the committed
//! baseline and exits non-zero when a hot path regressed:
//!
//! - `local_candidates.speedup` in the fresh run must stay ≥ 8x (the
//!   indexed candidate scan earning its keep over brute force); quick-mode
//!   reports (`"quick": true`) are held to a 4x floor instead, since the
//!   indexed advantage scales with the stored-set size and the smoke
//!   dataset is 5x smaller;
//! - fresh ingest items/sec (sequential and parallel) must not regress
//!   more than 25% against the committed baseline — when the two reports
//!   are comparable. Absolute throughput means nothing across unlike runs:
//!   a `DSI_QUICK=1` report, or one from a host with another core count,
//!   is not held to the committed figures, and the guard says why it
//!   skipped them. The speedup floor is a ratio within one run and always
//!   applies.
//!
//! Usage: `bench_guard <fresh.json> [committed.json]` — the committed path
//! defaults to the repo's `BENCH_ingest.json`. Generate the fresh file
//! without clobbering the committed one via the `DSI_BENCH_OUT` override:
//!
//! ```text
//! DSI_QUICK=1 DSI_BENCH_OUT=target/BENCH_ingest.fresh.json \
//!     cargo run --release -p dsi-bench --bin bench_baseline
//! cargo run --release -p dsi-bench --bin bench_guard -- target/BENCH_ingest.fresh.json
//! ```

use serde_json::Value;
use std::process::ExitCode;

/// Minimum acceptable indexed-over-linear candidate-scan speedup.
const MIN_CANDIDATES_SPEEDUP: f64 = 8.0;
/// Quick-mode floor: the smoke dataset stores 5x fewer MBRs, and the
/// indexed scan's advantage over brute force grows with the stored set.
const MIN_CANDIDATES_SPEEDUP_QUICK: f64 = 4.0;
/// Maximum tolerated relative ingest-throughput regression.
const MAX_INGEST_REGRESSION: f64 = 0.25;

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut cur = v;
    for key in path {
        cur = cur.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
    }
    Some(cur)
}

fn num(v: &Value, path: &[&str]) -> f64 {
    field(v, path)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {}", path.join(".")))
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read bench report {path}: {e}"));
    serde_json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"))
}

/// Why the two reports' absolute throughputs cannot be compared, if they
/// cannot: they must come from the same kind of run on the same kind of
/// host. An unrecorded core count (NaN) matches nothing.
fn unlike(fresh: &Value, committed: &Value) -> Option<String> {
    let kind = |v: &Value| {
        let quick = field(v, &["quick"]).and_then(Value::as_bool).unwrap_or(false);
        (quick, field(v, &["host_cpus"]).and_then(Value::as_f64).unwrap_or(f64::NAN))
    };
    let (f, c) = (kind(fresh), kind(committed));
    (f != c).then(|| {
        format!(
            "fresh is quick={} host_cpus={}, committed quick={} host_cpus={}",
            f.0, f.1, c.0, c.1
        )
    })
}

/// Everything the guard decides: the lines it logs and the failures found.
fn check(fresh: &Value, committed: &Value) -> (Vec<String>, Vec<String>) {
    let mut log = Vec::new();
    let mut failures = Vec::new();

    let quick = field(fresh, &["quick"]).and_then(Value::as_bool).unwrap_or(false);
    let floor = if quick { MIN_CANDIDATES_SPEEDUP_QUICK } else { MIN_CANDIDATES_SPEEDUP };
    let speedup = num(fresh, &["local_candidates", "speedup"]);
    log.push(format!(
        "local_candidates.speedup: {speedup:.2}x (floor {floor}x{})",
        if quick { ", quick mode" } else { "" }
    ));
    if speedup < floor {
        failures.push(format!("local_candidates.speedup {speedup:.2}x below the {floor}x floor"));
    }

    if let Some(why) = unlike(fresh, committed) {
        log.push(format!("ingest items/sec not compared with the committed baseline: {why}"));
        return (log, failures);
    }
    for lane in ["sequential_items_per_sec", "parallel_items_per_sec"] {
        let was = num(committed, &["ingest", lane]);
        let now = num(fresh, &["ingest", lane]);
        let floor = was * (1.0 - MAX_INGEST_REGRESSION);
        log.push(format!("ingest.{lane}: {now:.0} fresh vs {was:.0} committed (floor {floor:.0})"));
        if now < floor {
            failures.push(format!(
                "ingest.{lane} regressed more than {:.0}%: {now:.0} < {floor:.0} (committed {was:.0})",
                MAX_INGEST_REGRESSION * 100.0,
            ));
        }
    }
    (log, failures)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let fresh_path = args.next().unwrap_or_else(|| {
        eprintln!("usage: bench_guard <fresh.json> [committed.json]");
        std::process::exit(2);
    });
    let committed_path = args.next().unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });

    let (log, failures) = check(&load(&fresh_path), &load(&committed_path));
    for line in &log {
        eprintln!("[bench_guard] {line}");
    }
    if failures.is_empty() {
        eprintln!("[bench_guard] OK — no hot-path regression");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("[bench_guard] FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(quick: bool, host_cpus: u64, speedup: f64, items_per_sec: f64) -> Value {
        serde_json::parse(&format!(
            r#"{{"quick": {quick}, "host_cpus": {host_cpus},
                "local_candidates": {{"speedup": {speedup}}},
                "ingest": {{"sequential_items_per_sec": {items_per_sec},
                            "parallel_items_per_sec": {items_per_sec}}}}}"#
        ))
        .expect("test report parses")
    }

    #[test]
    fn like_reports_are_held_to_the_committed_throughput() {
        let committed = report(false, 2, 12.0, 8e6);
        let (_, failures) = check(&report(false, 2, 12.0, 7e6), &committed);
        assert!(failures.is_empty(), "{failures:?}");
        let (log, failures) = check(&report(false, 2, 12.0, 5e6), &committed);
        assert_eq!(failures.len(), 2, "both lanes fell below the 25% floor: {failures:?}");
        assert!(log.iter().all(|l| !l.contains("not compared")), "{log:?}");
    }

    #[test]
    fn unlike_reports_skip_throughput_but_keep_the_speedup_floor() {
        let committed = report(false, 1, 12.0, 8e6);
        for fresh in [report(true, 1, 6.0, 1e6), report(false, 2, 12.0, 1e6)] {
            let (log, failures) = check(&fresh, &committed);
            assert!(failures.is_empty(), "a 8x slower unlike run must not fail: {failures:?}");
            assert!(log.iter().any(|l| l.contains("not compared")), "must say why: {log:?}");
        }
        // The ratio within one run still gates, at the quick floor here.
        let (_, failures) = check(&report(true, 1, 3.0, 1e6), &committed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("speedup"), "{failures:?}");
    }
}
