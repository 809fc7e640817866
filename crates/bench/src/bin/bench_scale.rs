//! Million-stream scale sweep (`BENCH_scale.json`).
//!
//! The paper's evaluation stops at 500 nodes and a few thousand streams;
//! the ROADMAP's north star is millions of live streams. This bin sweeps a
//! nodes × streams × workers matrix up to 10k virtual nodes and 1M streams
//! against the columnar summary store, reporting:
//!
//! 1. stream registration throughput;
//! 2. batch-ingest throughput (`Cluster::ingest_batch_into` with one
//!    reused emission buffer, items/sec) across the warm-up and emitting
//!    phases, plus emitted-MBR volume;
//! 3. per-node load-distribution statistics over stored summaries —
//!    max, mean, max/mean and Gini (reusing `dsi_core::load`) — the
//!    Fig. 7–9 load-balance lens at 100x the paper's scale.
//!
//! `--quick` shrinks the matrix for CI smoke; the committed
//! `BENCH_scale.json` comes from a full run. Override the output path with
//! `DSI_BENCH_OUT`. The worker axis is 1 plus the host's parallelism.

use dsi_bench::quick_mode;
use dsi_core::{gini, Cluster, ClusterConfig, SimilarityKind};
use dsi_simnet::SimTime;
use serde_json::Value;
use std::time::Instant;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn f64v(x: f64) -> Value {
    Value::F64(x)
}

fn u64v(x: u64) -> Value {
    Value::U64(x)
}

/// Deterministic xorshift64* generator.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// Per-node load-distribution stats over one `u64` load figure per node.
fn load_stats(loads: &[u64]) -> Value {
    let max = loads.iter().copied().max().unwrap_or(0);
    let total: u64 = loads.iter().sum();
    let mean = if loads.is_empty() { 0.0 } else { total as f64 / loads.len() as f64 };
    let max_over_mean = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    obj(vec![
        ("total", u64v(total)),
        ("max", u64v(max)),
        ("mean", f64v(mean)),
        ("max_over_mean", f64v(max_over_mean)),
        ("gini", f64v(gini(loads))),
    ])
}

/// One (nodes, streams, workers) cell of the sweep: its report row.
fn run_config(num_nodes: usize, num_streams: usize, workers: usize) -> Value {
    const WINDOW: usize = 16;
    const NUM_COEFFS: usize = 2;
    const MBR_BATCH: usize = 4;
    // Enough ticks to fill every window and then emit ~3 MBRs per stream.
    let ticks = (WINDOW + 3 * MBR_BATCH) as u64;

    std::env::set_var("DSI_WORKERS", workers.to_string());

    let mut cfg = ClusterConfig::new(num_nodes);
    cfg.kind = SimilarityKind::Subsequence;
    cfg.workload.window_len = WINDOW;
    cfg.workload.num_coeffs = NUM_COEFFS;
    cfg.workload.mbr_batch = MBR_BATCH;
    // No width bound: a uniform emission cadence keeps the throughput
    // figure about ingest, not about early-shipment policy.
    cfg.workload.mbr_max_width = None;

    eprintln!("[bench_scale] {num_nodes} nodes x {num_streams} streams x {workers} workers...");
    let t0 = Instant::now();
    let mut cluster = Cluster::new(cfg);
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for i in 0..num_streams {
        cluster.register_stream(&format!("scale-{i}"), i % num_nodes);
    }
    let register_s = t0.elapsed().as_secs_f64();

    // Deterministic per-stream phase/level so the emitted MBRs spread over
    // the key space instead of collapsing onto one ring position.
    let mut rng = XorShift(0x5ca1_e000 ^ (num_streams as u64));
    let phases: Vec<f64> = (0..num_streams).map(|_| rng.unit() * 3.0).collect();
    let levels: Vec<f64> = (0..num_streams).map(|_| 5.0 + rng.unit() * 2.0).collect();

    let mut values: Vec<(u32, f64)> = (0..num_streams as u32).map(|s| (s, 0.0)).collect();
    let mut emitted = Vec::new();
    let mut emitted_mbrs = 0u64;
    let t0 = Instant::now();
    for tick in 0..ticks {
        for (i, slot) in values.iter_mut().enumerate() {
            slot.1 = levels[i] + (phases[i] + tick as f64 * 0.31).sin();
        }
        let now = SimTime::from_ms(tick * 100);
        cluster.ingest_batch_into(&values, now, &mut emitted);
        emitted_mbrs += emitted.len() as u64;
    }
    let ingest_s = t0.elapsed().as_secs_f64();
    let items = ticks * num_streams as u64;

    // Per-node load over stored summary replicas.
    let stored: Vec<u64> =
        cluster.node_ids().iter().map(|&n| cluster.node(n).mbr_count() as u64).collect();

    obj(vec![
        ("virtual_nodes", u64v(num_nodes as u64)),
        ("streams", u64v(num_streams as u64)),
        ("workers", u64v(workers as u64)),
        ("window_len", u64v(WINDOW as u64)),
        ("mbr_batch", u64v(MBR_BATCH as u64)),
        ("ticks", u64v(ticks)),
        ("build_s", f64v(build_s)),
        ("register_streams_per_sec", f64v(num_streams as f64 / register_s)),
        (
            "ingest",
            obj(vec![
                ("items", u64v(items)),
                ("wall_s", f64v(ingest_s)),
                ("items_per_sec", f64v(items as f64 / ingest_s)),
                ("emitted_mbrs", u64v(emitted_mbrs)),
            ]),
        ),
        ("node_load", obj(vec![("stored_mbrs", load_stats(&stored))])),
    ])
}

fn main() {
    let quick = quick_mode();
    // nodes × streams matrix: the full sweep tops out at 10k virtual nodes
    // and 1M live streams (the ROADMAP scale target).
    let matrix: &[(usize, usize)] = if quick {
        &[(50, 2_000), (200, 10_000)]
    } else {
        &[(100, 10_000), (1_000, 100_000), (10_000, 1_000_000)]
    };
    // Worker axis: 1 (pure sequential fallback) plus the host's parallelism
    // when it has one.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut worker_axis = vec![1usize];
    if host_cpus > 1 {
        worker_axis.push(host_cpus);
    }

    let mut configs = Vec::new();
    for &(nodes, streams) in matrix {
        for &workers in &worker_axis {
            configs.push(run_config(nodes, streams, workers));
        }
    }

    let report = obj(vec![
        ("bench", Value::Str("scale_sweep".to_string())),
        ("quick", Value::Bool(quick)),
        ("host_cpus", u64v(host_cpus as u64)),
        ("configs", Value::Array(configs)),
    ]);
    let rendered = serde_json::to_string_pretty(&report).expect("serialize");
    let path = std::env::var("DSI_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").to_string()
    });
    std::fs::write(&path, &rendered).expect("write BENCH_scale.json");
    println!("{rendered}");
    eprintln!("[written {path}]");
}
