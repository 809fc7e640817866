//! Million-stream scale sweep (`BENCH_scale.json`).
//!
//! The paper's evaluation stops at 500 nodes and a few thousand streams;
//! the ROADMAP's north star is millions of live streams. This bin sweeps a
//! nodes × streams × workers matrix up to 10k virtual nodes and 1M streams
//! against the SoA summary store + sortable-summary index, reporting:
//!
//! 1. stream registration throughput;
//! 2. batch-ingest throughput (`Cluster::ingest_batch_into` with one
//!    reused emission buffer, items/sec) across the warm-up and emitting
//!    phases, plus emitted-MBR volume;
//! 3. per-node load-distribution statistics over stored summaries —
//!    max, mean, max/mean and Gini (reusing `dsi_core::load`) — the
//!    Fig. 7–9 load-balance lens at 100x the paper's scale;
//! 4. indexed query throughput against the biggest shard, with the
//!    brute-force linear scan as the reference (speedup).
//!
//! The run is also the repo's one bench guard: every cell's *selective*
//! indexed-over-linear speedup must clear a floor ([`floor_verdict`]), or
//! the process exits 1 after writing its report. The ratio is taken inside
//! one run, so it holds on any host. The dense lane is reported and not
//! gated.
//!
//! `--quick` shrinks the matrix for CI smoke; the committed
//! `BENCH_scale.json` comes from a full run. Override the output path with
//! `DSI_BENCH_OUT`. The worker axis is 1 plus the host's parallelism.

use dsi_bench::quick_mode;
use dsi_core::{gini, Cluster, ClusterConfig, SimilarityKind, SimilarityQuery};
use dsi_dsp::{Complex64, FeatureVector, Normalization};
use dsi_simnet::SimTime;
use serde_json::Value;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Minimum indexed-over-linear speedup of the selective query lane: the
/// sortable index earning its keep over the scan it replaces.
const MIN_SELECTIVE_SPEEDUP: f64 = 8.0;
/// `--quick` floor: the smoke shards hold several times fewer MBRs, and the
/// index's advantage over brute force grows with the stored set.
const MIN_SELECTIVE_SPEEDUP_QUICK: f64 = 4.0;

/// The guard's whole decision: `selective_speedup` (the lowest over the
/// cells of one run) against the floor for that kind of run.
fn floor_verdict(quick: bool, selective_speedup: f64) -> Result<(), String> {
    let floor = if quick { MIN_SELECTIVE_SPEEDUP_QUICK } else { MIN_SELECTIVE_SPEEDUP };
    if selective_speedup < floor {
        return Err(format!(
            "query_hottest_shard.selective.speedup {selective_speedup:.2}x is below the {floor}x floor"
        ));
    }
    Ok(())
}

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

/// One (nodes, streams, workers) cell of the sweep: its report row and its
/// selective-lane speedup.
fn run_config(num_nodes: usize, num_streams: usize, workers: usize) -> (Value, f64) {
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

    // Indexed vs linear query throughput on the hottest shard.
    let hottest = cluster
        .node_ids()
        .iter()
        .copied()
        .max_by_key(|&n| cluster.node(n).mbr_count())
        .expect("at least one node");
    let dc = cluster.node(hottest);
    let num_queries = 200usize;
    let make_query = |id: usize, coeffs: Vec<Complex64>| SimilarityQuery {
        id: id as u64,
        client: 0,
        feature: FeatureVector::new(coeffs, Normalization::UnitNorm),
        target: Vec::new(),
        radius: 0.05,
        kind: SimilarityKind::Subsequence,
        aggregator: 0,
        expires: SimTime::from_ms(u64::MAX / 2),
    };
    // Selective workload: random probes, mostly missing the data — the
    // index's best case. Dense workload: probes aimed at stored summary
    // midpoints, where the answer itself is large and collection cost
    // dominates — the index's worst case.
    let mut rng_q = XorShift(0xdeca_f000 ^ (num_streams as u64));
    let selective: Vec<SimilarityQuery> = (0..num_queries)
        .map(|i| {
            make_query(
                i,
                (0..NUM_COEFFS).map(|_| Complex64::new(rng_q.unit(), rng_q.unit())).collect(),
            )
        })
        .collect();
    let centers: Vec<Vec<f64>> = dc
        .summaries()
        .step_by((dc.mbr_count() / num_queries).max(1))
        .map(|s| s.low.iter().zip(s.high.iter()).map(|(l, h)| (l + h) * 0.5).collect())
        .collect();
    let dense: Vec<SimilarityQuery> = (0..num_queries)
        .map(|i| {
            let c = &centers[i % centers.len()];
            make_query(
                i,
                (0..NUM_COEFFS)
                    .map(|k| {
                        Complex64::new(
                            c[2 * k] + rng_q.unit() * 0.01,
                            c[2 * k + 1] + rng_q.unit() * 0.01,
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let now = SimTime::from_ms(ticks * 100);
    let bench_queries = |queries: &[SimilarityQuery]| {
        let run = |indexed: bool| {
            let mut candidates = 0usize;
            let start = Instant::now();
            for q in queries {
                let out = if indexed {
                    dc.local_candidates(q, now)
                } else {
                    dc.local_candidates_linear(q, now)
                };
                candidates += black_box(out).len();
            }
            (start.elapsed().as_secs_f64(), candidates)
        };
        let (lin_s, lin_c) = run(false);
        let (idx_s, idx_c) = run(true);
        assert_eq!(lin_c, idx_c, "indexed and linear scans must agree");
        let speedup = lin_s / idx_s;
        let lane = obj(vec![
            ("queries", u64v(queries.len() as u64)),
            ("indexed_ops_per_sec", f64v(queries.len() as f64 / idx_s)),
            ("linear_ops_per_sec", f64v(queries.len() as f64 / lin_s)),
            ("candidates", u64v(idx_c as u64)),
            ("speedup", f64v(speedup)),
        ]);
        (lane, speedup)
    };
    let (q_selective, selective_speedup) = bench_queries(&selective);
    let (q_dense, _) = bench_queries(&dense);

    let row = obj(vec![
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
        (
            "query_hottest_shard",
            obj(vec![
                ("shard_mbrs", u64v(dc.mbr_count() as u64)),
                ("selective", q_selective),
                ("dense", q_dense),
            ]),
        ),
    ]);
    (row, selective_speedup)
}

fn main() -> ExitCode {
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
    let mut min_selective_speedup = f64::INFINITY;
    for &(nodes, streams) in matrix {
        for &workers in &worker_axis {
            let (row, selective_speedup) = run_config(nodes, streams, workers);
            configs.push(row);
            min_selective_speedup = min_selective_speedup.min(selective_speedup);
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

    match floor_verdict(quick, min_selective_speedup) {
        Ok(()) => {
            eprintln!("[bench_scale] OK: lowest selective speedup {min_selective_speedup:.2}x");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("[bench_scale] FAIL: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_verdict_holds_each_kind_of_run_to_its_own_floor() {
        assert!(floor_verdict(false, 8.0).is_ok());
        assert!(floor_verdict(false, 7.99).is_err());
        assert!(floor_verdict(true, 4.0).is_ok());
        assert!(floor_verdict(true, 3.99).is_err());
        // Between the floors the kind of run decides.
        assert!(floor_verdict(true, 6.0).is_ok());
        assert!(floor_verdict(false, 6.0).is_err());
    }
}
