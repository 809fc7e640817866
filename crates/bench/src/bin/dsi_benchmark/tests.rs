//! Tests of the benchmark itself: the registry and `BENCHMARK.json` agree,
//! and every workload, in `--quick` form, prints every metric exactly once
//! and passes its own checks.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{execute, parse_args};
use serde_json::Value;
use std::path::PathBuf;

/// `BENCHMARK.json`, found by walking up from this package's manifest
/// (the sources build both as a `dsi-bench` bin and as their own package,
/// at different depths below the repository root).
fn benchmark_json() -> Value {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate).expect("readable BENCHMARK.json");
            return serde_json::parse(&text).expect("BENCHMARK.json parses");
        }
        assert!(dir.pop(), "no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing string field {key}"))
}

fn array_field<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("missing array field {key}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn registry_and_benchmark_json_agree() {
    let json = benchmark_json();
    let paths: Vec<&str> =
        array_field(&json, "paths").iter().map(|p| p.as_str().expect("path")).collect();
    assert_eq!(paths, ["crates/bench/src/bin/dsi_benchmark"]);

    let listed: Vec<(&str, &str)> = array_field(&json, "workloads")
        .iter()
        .map(|w| (str_field(w, "name"), str_field(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(listed, ours);

    let check = |key: &str, table: &[MetricDef], bounded: bool| {
        let listed = array_field(&json, key);
        assert_eq!(listed.len(), table.len(), "{key}: metric count");
        for (entry, m) in listed.iter().zip(table) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert_eq!(str_field(entry, "name"), m.name);
            assert_eq!(str_field(entry, "unit"), m.unit, "{}", m.name);
            if bounded {
                let better = if m.higher_is_better { "higher" } else { "lower" };
                assert_eq!(str_field(entry, "better"), better, "{}", m.name);
                let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
                assert_eq!(bound, m.bound, "{}", m.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            }
        }
    };
    check("end_to_end", &END_TO_END, true);
    check("per_layer", &PER_LAYER, false);
}

/// Runs `workload` in quick form and checks everything it printed.
fn run_quick(workload: &str, trace: bool) {
    // The span file goes next to the test binary, inside the build directory.
    let exe = std::env::current_exe().expect("test binary path");
    let out = exe.with_file_name(format!("dsi_benchmark_test_{workload}.trace.json"));
    let argv: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--quick",
        "--trace",
        if trace { "1" } else { "0" },
        "--trace-out",
        out.to_str().expect("utf-8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let args = parse_args(&argv).expect("valid arguments");
    let text = match execute(&args) {
        Ok(text) => text,
        Err(text) => panic!("{workload} trace={trace} failed its checks:\n{text}"),
    };
    let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    for m in table {
        let lines: Vec<&str> =
            text.lines().filter(|l| l.split_whitespace().next() == Some(m.name)).collect();
        assert_eq!(lines.len(), 1, "{workload}: {} printed {} times", m.name, lines.len());
        let mut fields = lines[0].split_whitespace().skip(1);
        let value: f64 = fields.next().and_then(|v| v.parse().ok()).expect("a numeric value");
        assert!(value.is_finite(), "{workload}: {} = {value}", m.name);
        assert_eq!(fields.next(), Some(m.unit), "{workload}: unit of {}", m.name);
    }
    let last = text.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64).expect("attempted") >= 1);
    let metrics = result.get("metrics").and_then(Value::as_object).expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(printed, expected, "{workload}: result line metrics");
    if trace {
        let path = args.trace_out.as_deref().expect("trace path");
        let trace = serde_json::parse(&std::fs::read_to_string(path).expect("span file written"))
            .expect("span file is JSON");
        assert!(!array_field(&trace, "traceEvents").is_empty(), "{workload}: empty span file");
    }
}

#[test]
fn ingest_quiet_quick() {
    run_quick("ingest_quiet", false);
    run_quick("ingest_quiet", true);
}

#[test]
fn ingest_fanout_quick() {
    run_quick("ingest_fanout", false);
    run_quick("ingest_fanout", true);
}

#[test]
fn query_serve_quick() {
    run_quick("query_serve", false);
    run_quick("query_serve", true);
}

#[test]
fn faulty_mix_quick() {
    run_quick("faulty_mix", false);
    run_quick("faulty_mix", true);
}

#[test]
fn bad_arguments_are_rejected() {
    let parse = |args: &[&str]| parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
    assert!(parse(&["--workload", "ingest_quiet"]).is_err());
    assert!(parse(&["--workload", "ingest_quiet", "--seed", "x"]).is_err());
    assert!(parse(&["--workload", "ingest_quiet", "--seed", "1", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "ingest_quiet", "--seed", "1", "--trace", "1"]).is_ok());
}
