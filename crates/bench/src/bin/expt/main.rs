//! Regenerates the paper's tables and figures, one by name or all in
//! sequence, and writes their JSON series under `results/`; three further
//! names run our own experiments, which `all` leaves out.
//! Run: `cargo run --release -p dsi-bench --bin expt -- <name>|all [--quick]`
//!
//! | name | regenerates |
//! |---|---|
//! | `table1` | Table I (workload constants) |
//! | `fig1` | the Fig. 1 Chord scenario |
//! | `fig3b` | Fig. 3(b): Fourier locality of host-load summaries |
//! | `fig6a` | Fig. 6(a): average per-node message load vs node count |
//! | `fig6b` | Fig. 6(b): distribution of load across nodes at N = 200 |
//! | `fig7` | Fig. 7(a)/(b): message overhead per event, radius 0.1 / 0.2 |
//! | `fig8` | Fig. 8: average hops per message type vs node count |
//! | `scenarios` | the Fig. 2 / 3(a) / 4 walk-throughs on the example ring |
//! | `ablations` | message-count ablations (`results/ablations.json`) |
//! | `churn` | throughput under churn and faults (`results/churn_curves.json`) |

mod ablations;
mod churn;
mod scenarios;

use dsi_bench::{experiments, quick_mode, write_json};

/// What `all` runs: the paper's tables and figures.
const NAMES: [&str; 7] = ["table1", "fig1", "fig3b", "fig6a", "fig6b", "fig7", "fig8"];

/// Runs the experiment called `name`: prints its text followed by `end`,
/// then writes its JSON. Returns `false` for an unknown name.
fn run(name: &str, quick: bool, end: &str) -> bool {
    match name {
        "table1" => print!("{}{end}", experiments::table1()),
        "fig1" => print!("{}{end}", experiments::fig1()),
        "fig3b" => {
            let (data, text) = experiments::fig3b();
            print!("{text}{end}");
            write_json("fig3b.json", &data);
        }
        "fig6a" => {
            let (reports, text) = experiments::fig6a(quick);
            print!("{text}{end}");
            write_json("fig6a.json", &reports);
        }
        "fig6b" => {
            let (data, text) = experiments::fig6b(quick);
            print!("{text}{end}");
            write_json("fig6b.json", &data);
        }
        "fig7" => {
            let (narrow, wide, text) = experiments::fig7(quick);
            print!("{text}{end}");
            write_json("fig7a.json", &narrow);
            write_json("fig7b.json", &wide);
        }
        "fig8" => {
            let (reports, text) = experiments::fig8(quick);
            print!("{text}{end}");
            write_json("fig8.json", &reports);
        }
        "scenarios" => scenarios::run(),
        "ablations" => ablations::run(quick),
        "churn" => churn::run(quick),
        _ => return false,
    }
    true
}

fn main() {
    let quick = quick_mode();
    let name = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    match name.as_deref() {
        Some("all") => {
            let start = std::time::Instant::now();
            for name in NAMES {
                run(name, quick, "\n");
            }
            println!("all experiments completed in {:?}", start.elapsed());
        }
        Some(name) if run(name, quick, "") => {}
        _ => {
            eprintln!("usage: expt <{}|all|scenarios|ablations|churn> [--quick]", NAMES.join("|"));
            std::process::exit(2);
        }
    }
}
