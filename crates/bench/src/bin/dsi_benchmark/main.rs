//! `dsi_benchmark` — the one program every performance claim on this
//! repository is measured with (see `README.md` beside this file and
//! `BENCHMARK.json` at the repository root).
//!
//! ```text
//! dsi_benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//!               [--trace-out <file>] [--quick] [--check-determinism]
//! ```
//!
//! Builds a `dsi_core::Cluster`, drives it through public functions only
//! from one load-generating thread, prints every metric by name with its
//! unit, checks the outputs, and ends with one JSON result line. Exits
//! non-zero when a check fails.

mod layers;
mod metrics;
mod run;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;

use metrics::{Kind, MetricDef, Report, END_TO_END, PER_LAYER};
use run::Outcome;
use std::process::ExitCode;
use workloads::{Spec, WORKLOADS};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub check_determinism: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: dsi_benchmark --workload <{}> --seed <u64> [--seconds <1..60>] [--trace <0|1>] \
         [--trace-out <file>] [--quick] [--check-determinism]",
        names.join("|")
    )
}

/// Parses the arguments (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut quick = false;
    let mut check_determinism = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed: not a u64: {v}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.1..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds: not in 0.1..=600: {v}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                };
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?.clone()),
            "--quick" => quick = true,
            "--check-determinism" => check_determinism = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let spec = if quick { spec.quick() } else { spec };
    let seed = seed.ok_or("--seed is required")?;
    Ok(Args { spec, seed, seconds, trace, trace_out, check_determinism })
}

/// Where the span file goes unless `--trace-out` says otherwise: under the
/// build directory, which is already ignored.
fn default_trace_path(spec: &Spec) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    format!("{dir}/dsi_benchmark/{}.trace.json", spec.name)
}

fn write_trace(path: &str, json: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, json)
}

/// The result line the benchmark contract asks for.
fn result_line(outcome: &Outcome, table: &[MetricDef]) -> Option<String> {
    let metrics = outcome.report.render_json(table)?;
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    ))
}

/// Runs one workload as the command line describes and renders everything
/// it prints. `Err` carries the output of a run whose checks failed.
pub fn execute(args: &Args) -> Result<String, String> {
    let spec = args.spec;
    let mut text = format!(
        "# dsi_benchmark workload={} seed={} seconds={} trace={} nodes={} streams={} \
         host_cpus={} workers={}\n# {}\n",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.nodes,
        spec.streams,
        run::host_cpus(),
        run::workers(),
        spec.why,
    );
    let mut outcome = if args.trace {
        run::run_traced(spec, args.seed, args.seconds)
    } else {
        run::run_plain(spec, args.seed, args.seconds)
    };
    text.push_str(&outcome.report.render_text());
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    text.push_str(&format!("{:<48} {:>18.6} share\n", "failed_ops_share", failed_share));

    if let Some(spans) = outcome.spans.take() {
        text.push_str("# span totals: name count total_ms self_ms work\n");
        for (name, t) in spans.totals() {
            text.push_str(&format!(
                "# span {name:<32} {:>8} {:>12.3} {:>12.3} {:>12}\n",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.work
            ));
        }
        text.push_str("# share of the in-situ cluster.ingest span each replayed layer explains\n");
        for (name, share) in &outcome.attribution {
            text.push_str(&format!("# attribution {name:<28} {share:>8.4}\n"));
        }
        let path = args.trace_out.clone().unwrap_or_else(|| default_trace_path(&spec));
        match write_trace(&path, &spans.to_chrome_trace()) {
            Ok(()) => text.push_str(&format!("# {} spans written to {path}\n", spans.len())),
            Err(e) => {
                outcome.failed += 1;
                outcome.failures.push(format!("cannot write span file {path}: {e}"));
            }
        }
    }
    for note in &outcome.notes {
        text.push_str(&format!("# {note}\n"));
    }
    for failure in &outcome.failures {
        text.push_str(&format!("# FAILED {failure}\n"));
    }
    let table: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&outcome, table) {
        Some(line) if outcome.failed == 0 => Ok(text + &line + "\n"),
        Some(line) => Err(text + &line + "\n"),
        None => Err(text + "# FAILED a registered metric is missing or not finite\n"),
    }
}

/// `--check-determinism`: the same workload and seed twice. Every count
/// metric must be bit-equal, every timing within its bound (per-layer
/// timings carry no bound and are only listed).
fn check_determinism(args: &Args) -> Result<String, String> {
    let run = |trace: bool| -> Report {
        if trace {
            run::run_traced(args.spec, args.seed, args.seconds).report
        } else {
            run::run_plain(args.spec, args.seed, args.seconds).report
        }
    };
    let mut text = String::new();
    let mut ok = true;
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let (a, b) = (run(trace), run(trace));
        for m in table {
            let (x, y) = (a.get(m.name).unwrap_or(f64::NAN), b.get(m.name).unwrap_or(f64::NAN));
            let (verdict, passed) = match m.kind {
                Kind::Count if x.to_bits() == y.to_bits() => ("equal", true),
                Kind::Count => ("count differs", false),
                Kind::Time if m.bound == 0.0 => ("unbounded", true),
                Kind::Time if (x - y).abs() <= m.bound * x.abs().max(y.abs()) => {
                    ("within bound", true)
                }
                Kind::Time => ("outside bound", false),
            };
            ok &= passed;
            text.push_str(&format!("{:<48} {x:>18.6} {y:>18.6} {verdict}\n", m.name));
        }
    }
    if ok {
        Ok(text + "determinism check passed\n")
    } else {
        Err(text + "determinism check FAILED\n")
    }
}

/// One summarise worker unless the caller chose a count: on a shared host
/// of a few cores, a tick that waits for `host_cpus` worker threads waits
/// for the slowest core, so a neighbour on one core moved `wall_s`,
/// `ingest_items_per_s` and `realtime_factor` on `ingest_quiet` by 15–25 %
/// between runs of the same code. Called before any thread exists.
fn pin_workers() {
    if std::env::var_os("DSI_WORKERS").is_none() {
        std::env::set_var("DSI_WORKERS", "1");
    }
}

fn main() -> ExitCode {
    pin_workers();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if args.check_determinism { check_determinism(&args) } else { execute(&args) };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(text) => {
            print!("{text}");
            ExitCode::FAILURE
        }
    }
}
