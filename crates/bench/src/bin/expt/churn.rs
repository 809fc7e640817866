//! `expt churn`: throughput-under-churn curves, driven by the
//! fault-injection harness.
//!
//! Sweeps the NPER message-fault level while seeded scenarios pound the
//! cluster with churn, bursts and query storms, and reports sustained
//! index throughput (MBR shipments and match notifications per simulated
//! second) plus overlay message cost. Every point is averaged over several
//! seeds; all runs keep the five invariant oracles armed, so a curve point
//! is only reported for runs the oracles certified.

use dsi_bench::write_json;
use dsi_faultsim::{run_scenario, Scenario, ScenarioConfig};
use dsi_simnet::FaultSpec;

#[derive(serde::Serialize)]
struct CurvePoint {
    fault_prob: f64,
    churn_events_per_min: f64,
    mbr_ships_per_s: f64,
    notifications_per_s: f64,
    seeds: usize,
}

pub fn run(quick: bool) {
    let seeds: Vec<u64> = if quick { (500..503).collect() } else { (500..508).collect() };
    let num_events = if quick { 60 } else { 150 };

    // Fault level sweep: drop/dup/delay applied in equal parts.
    let levels = [0.0, 0.1, 0.2, 0.3, 0.45];
    let mut curve = Vec::new();

    println!("== Throughput under churn (fault-injection harness) ==");
    println!(
        "  {:>10} {:>14} {:>14} {:>16} {:>7}",
        "fault p", "churn ev/min", "MBR ships/s", "notifications/s", "seeds"
    );
    for &p in &levels {
        let faults = FaultSpec { drop_prob: p / 2.0, dup_prob: p / 4.0, delay_prob: p / 4.0 };
        let mut ships = 0.0;
        let mut notifs = 0.0;
        let mut churn = 0.0;
        let mut ok_runs = 0usize;
        for &seed in &seeds {
            let cfg = ScenarioConfig {
                num_events,
                num_nodes: 12,
                num_streams: 10,
                ..ScenarioConfig::default().with_faults(faults)
            };
            let scenario = Scenario::generate(seed, cfg);
            let churn_events = scenario
                .events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        dsi_faultsim::FaultEvent::CrashNode { .. }
                            | dsi_faultsim::FaultEvent::JoinNode { .. }
                    )
                })
                .count();
            let report = run_scenario(&scenario);
            if let Some(v) = &report.violation {
                eprintln!("  seed {seed}: ORACLE VIOLATION ({}): {}", v.oracle, v.detail);
                continue;
            }
            let secs = report.final_time_ms as f64 / 1000.0;
            ships += report.mbr_ships as f64 / secs;
            notifs += report.notifications as f64 / secs;
            churn += churn_events as f64 / (secs / 60.0);
            ok_runs += 1;
        }
        assert!(ok_runs > 0, "every seed at fault level {p} violated an invariant");
        let point = CurvePoint {
            fault_prob: p,
            churn_events_per_min: churn / ok_runs as f64,
            mbr_ships_per_s: ships / ok_runs as f64,
            notifications_per_s: notifs / ok_runs as f64,
            seeds: ok_runs,
        };
        println!(
            "  {:>10.2} {:>14.1} {:>14.1} {:>16.1} {:>7}",
            point.fault_prob,
            point.churn_events_per_min,
            point.mbr_ships_per_s,
            point.notifications_per_s,
            point.seeds
        );
        curve.push(point);
    }

    write_json("churn_curves.json", &curve);
}
