//! First measured performance baseline (`BENCH_ingest.json`).
//!
//! Measures the hot paths this repo's perf work targets, in
//! machine-readable form so future PRs can track the trajectory:
//!
//! 1. `local_candidates` — index-pruned vs brute-force linear scan at a
//!    10k-MBR shard (per-op p50/p99 ns, ops/sec, candidates/sec, speedup);
//! 2. batch ingest — `Cluster::ingest_batch` vs a sequential `post_value`
//!    loop (items/sec, per-item ns);
//! 3. the multi-seed experiment driver — `parallel_seed_reports` vs a
//!    sequential loop over the 50-node Table I workload (wall-clock);
//! 4. the observability layer — a traced golden-style run, reporting
//!    exact per-class latency/hop percentiles from the causal trace
//!    (`dsi-trace`) and writing a chrome://tracing timeline to
//!    `target/bench_trace.trace.json` for manual inspection;
//! 5. `routing` — the Chord layer alone on a 1 000-node ring: ns per
//!    iterative lookup, ns per hop, ns per range-multicast plan.
//!
//! Parallel speedups scale with available cores (`workers` is recorded in
//! the output; override with `DSI_WORKERS`). `--quick` / `DSI_QUICK=1`
//! shrinks every population for CI smoke runs.

use dsi_bench::{parallel_seed_reports, quick_mode, worker_count};
use dsi_chord::{multicast, ChordId, IdSpace, RangeStrategy, Ring};
use dsi_core::{
    run_experiment, run_experiment_traced, Cluster, ClusterConfig, DataCenter, ExperimentConfig,
    SimilarityKind, SimilarityQuery, StoredMbr,
};
use dsi_dsp::{Complex64, FeatureVector, Mbr, Normalization};
use dsi_simnet::{MsgClass, SimTime};
use dsi_trace::{write_chrome_trace, TraceSummary};
use serde_json::Value;
use std::hint::black_box;
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

/// Deterministic xorshift64* generator — keeps the baseline reproducible
/// without pulling rng plumbing into a bench binary.
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

fn query(id: u64, re: f64, im: f64, radius: f64) -> SimilarityQuery {
    SimilarityQuery {
        id,
        client: 0,
        feature: FeatureVector::new(vec![Complex64::new(re, im)], Normalization::UnitNorm),
        target: Vec::new(),
        radius,
        kind: SimilarityKind::Subsequence,
        aggregator: 0,
        expires: SimTime::from_ms(u64::MAX / 2),
    }
}

/// Per-op latency stats over a batch of measured durations.
fn percentiles(mut ns: Vec<u64>) -> (u64, u64) {
    ns.sort_unstable();
    let p = |q: f64| ns[((ns.len() - 1) as f64 * q) as usize];
    (p(0.50), p(0.99))
}

fn bench_local_candidates(stored: usize, num_queries: usize) -> Value {
    let mut rng = XorShift(0x5eed_0001);
    let mut dc = DataCenter::new(7);
    for i in 0..stored {
        let (re, im) = (rng.unit(), rng.unit());
        let w = 0.01 + 0.02 * (rng.unit().abs());
        dc.store_mbr(StoredMbr {
            stream: (i % (stored / 4).max(1)) as u32,
            mbr: Mbr::from_corners(vec![re - w, im - w], vec![re + w, im + w]),
            origin: 1,
            expires: SimTime::from_ms(1_000_000),
        });
    }
    let now = SimTime::from_ms(10);
    let queries: Vec<SimilarityQuery> =
        (0..num_queries).map(|i| query(i as u64, rng.unit(), rng.unit(), 0.05)).collect();

    let run = |indexed: bool| {
        let mut lat = Vec::with_capacity(queries.len());
        let mut candidates = 0usize;
        let start = Instant::now();
        for q in &queries {
            let t0 = Instant::now();
            let out = if indexed {
                dc.local_candidates(q, now)
            } else {
                dc.local_candidates_linear(q, now)
            };
            lat.push(t0.elapsed().as_nanos() as u64);
            candidates += black_box(out).len();
        }
        let total_s = start.elapsed().as_secs_f64();
        let (p50, p99) = percentiles(lat);
        (total_s, p50, p99, candidates)
    };

    // Linear first so the indexed pass cannot benefit from warmed caches.
    let (lin_s, lin_p50, lin_p99, lin_c) = run(false);
    let (idx_s, idx_p50, idx_p99, idx_c) = run(true);
    assert_eq!(lin_c, idx_c, "indexed and linear scans must agree");

    obj(vec![
        ("stored_mbrs", u64v(stored as u64)),
        ("queries", u64v(num_queries as u64)),
        (
            "indexed",
            obj(vec![
                ("ops_per_sec", f64v(num_queries as f64 / idx_s)),
                ("candidates_per_sec", f64v(idx_c as f64 / idx_s)),
                ("p50_ns", u64v(idx_p50)),
                ("p99_ns", u64v(idx_p99)),
            ]),
        ),
        (
            "linear",
            obj(vec![
                ("ops_per_sec", f64v(num_queries as f64 / lin_s)),
                ("candidates_per_sec", f64v(lin_c as f64 / lin_s)),
                ("p50_ns", u64v(lin_p50)),
                ("p99_ns", u64v(lin_p99)),
            ]),
        ),
        ("speedup", f64v(lin_s / idx_s)),
    ])
}

fn bench_ingest(num_streams: usize, ticks: u64) -> Value {
    let build = || {
        let mut cfg = ClusterConfig::new(50);
        cfg.kind = SimilarityKind::Subsequence;
        let mut cluster = Cluster::new(cfg);
        for i in 0..num_streams {
            cluster.register_stream(&format!("bench-ingest-{i}"), i % 50);
        }
        cluster
    };
    let mut rng = XorShift(0x5eed_0003);
    let values: Vec<Vec<(u32, f64)>> = (0..ticks)
        .map(|_| (0..num_streams as u32).map(|s| (s, 5.0 + rng.unit())).collect())
        .collect();

    // Best-of-7 per lane: one-shot wall clocks on a shared box swing far
    // more than the lane difference being measured, and the regression
    // guard compares these numbers across runs.
    const REPS: usize = 7;
    let mut seq_s = f64::INFINITY;
    let mut par_s = f64::INFINITY;
    let mut best_seq_lat = Vec::new();
    let mut best_par_lat = Vec::new();

    // Both lanes record a per-tick latency series. Wall clocks on a
    // shared 1-core box are dominated by scheduler/quota tail ticks
    // (p99 is ~20x p50), so the lane comparison below uses per-tick
    // medians — the tails hit whichever lane happens to be running
    // when the cgroup budget empties, not the lane's code.
    let run_seq = |seq_s: &mut f64, best_lat: &mut Vec<u64>| {
        let mut seq = build();
        let mut lat = Vec::with_capacity(values.len());
        let start = Instant::now();
        for (t, tick) in values.iter().enumerate() {
            let now = SimTime::from_ms(t as u64 * 100);
            let t0 = Instant::now();
            for &(s, v) in tick {
                black_box(seq.post_value(s, v, now));
            }
            lat.push(t0.elapsed().as_nanos() as u64 / num_streams as u64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < *seq_s {
            *seq_s = elapsed;
            *best_lat = lat;
        }
    };
    let run_par = |par_s: &mut f64, best_lat: &mut Vec<u64>| {
        let mut par = build();
        let mut lat = Vec::with_capacity(values.len());
        // The emission buffer is caller-owned and reused across ticks, the
        // way a long-running driver would hold it.
        let mut emitted = Vec::new();
        let start = Instant::now();
        for (t, tick) in values.iter().enumerate() {
            let now = SimTime::from_ms(t as u64 * 100);
            let t0 = Instant::now();
            par.ingest_batch_into(tick, now, &mut emitted);
            black_box(&emitted);
            lat.push(t0.elapsed().as_nanos() as u64 / num_streams as u64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < *par_s {
            *par_s = elapsed;
            *best_lat = lat;
        }
    };
    for rep in 0..REPS {
        // Alternate lane order per rep so neither lane systematically
        // aligns with external scheduler/quota periods.
        if rep % 2 == 0 {
            run_seq(&mut seq_s, &mut best_seq_lat);
            run_par(&mut par_s, &mut best_par_lat);
        } else {
            run_par(&mut par_s, &mut best_par_lat);
            run_seq(&mut seq_s, &mut best_seq_lat);
        }
    }
    let (seq_p50, seq_p99) = percentiles(best_seq_lat);
    let (par_p50, par_p99) = percentiles(best_par_lat);

    let items = (ticks as usize * num_streams) as f64;
    obj(vec![
        ("streams", u64v(num_streams as u64)),
        ("ticks", u64v(ticks)),
        ("sequential_items_per_sec", f64v(items / seq_s)),
        ("parallel_items_per_sec", f64v(items / par_s)),
        ("sequential_p50_ns_per_item", u64v(seq_p50)),
        ("sequential_p99_ns_per_item", u64v(seq_p99)),
        ("parallel_p50_ns_per_item", u64v(par_p50)),
        ("parallel_p99_ns_per_item", u64v(par_p99)),
        // Lane comparison over median tick latency (tail-robust); the
        // wall-clock throughputs above are reported raw alongside it.
        ("speedup", f64v(seq_p50 as f64 / par_p50 as f64)),
    ])
}

fn bench_driver_sweep(num_seeds: u64, warmup_ms: u64, measure_ms: u64) -> Value {
    let make_cfg = |seed: u64| {
        let mut cfg = ExperimentConfig::with_nodes(50); // Table I workload
        cfg.seed = seed;
        cfg.warmup_ms = warmup_ms;
        cfg.measure_ms = measure_ms;
        cfg
    };
    let seeds: Vec<u64> = (0..num_seeds).map(|i| 42 + i).collect();

    let start = Instant::now();
    let seq: Vec<_> = seeds.iter().map(|&s| run_experiment(&make_cfg(s))).collect();
    let seq_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let par = parallel_seed_reports(&seeds, make_cfg);
    let par_s = start.elapsed().as_secs_f64();

    for (a, b) in seq.iter().zip(par.iter()) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "parallel sweep diverged from sequential"
        );
    }

    obj(vec![
        ("nodes", u64v(50)),
        ("seeds", u64v(num_seeds)),
        ("sim_ms_per_seed", u64v(warmup_ms + measure_ms)),
        ("sequential_s", f64v(seq_s)),
        ("parallel_s", f64v(par_s)),
        ("speedup", f64v(seq_s / par_s)),
        ("bit_identical", Value::Bool(true)),
    ])
}

/// Observability baseline: one traced golden-style experiment. Reports
/// trace volume, the stable digest, and exact per-class latency/hop
/// percentiles, and drops a loadable chrome://tracing timeline into
/// `target/` (an inspection artifact, deliberately not committed).
fn bench_trace(num_nodes: usize, warmup_ms: u64, measure_ms: u64) -> Value {
    let mut cfg = ExperimentConfig::with_nodes(num_nodes);
    cfg.seed = 20_050_404;
    cfg.warmup_ms = warmup_ms;
    cfg.measure_ms = measure_ms;
    let start = Instant::now();
    let traced = run_experiment_traced(&cfg, 1 << 20);
    let wall_s = start.elapsed().as_secs_f64();

    let names: Vec<&str> = MsgClass::ALL.iter().map(|c| c.name()).collect();
    let summary = TraceSummary::from_tracer(traced.cluster.tracer(), &names);

    let mut buf = Vec::new();
    let records = traced.cluster.tracer().snapshot();
    if write_chrome_trace(&mut buf, &records, &names, &traced.engine_ticks).is_ok() {
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench_trace.trace.json");
        if std::fs::write(out, &buf).is_ok() {
            eprintln!("[bench_baseline] chrome://tracing timeline: {out}");
        }
    }

    obj(vec![
        ("nodes", u64v(num_nodes as u64)),
        ("sim_ms", u64v(warmup_ms + measure_ms)),
        ("wall_s", f64v(wall_s)),
        ("summary", serde_json::to_value(&summary).expect("summary to json")),
    ])
}

/// The routing layer standing alone: random lookups and range-multicast
/// plans over a converged ring of SHA-1 node identifiers, the way every
/// emitted MBR drives it (ranges a few node-arcs wide).
fn bench_routing(nodes: usize, ops: usize) -> Value {
    let space = IdSpace::new(32);
    let ring =
        Ring::with_nodes(space, (0..nodes).map(|i| space.hash_str(&format!("routing-node-{i}"))));
    let ids = ring.node_ids();
    let mut rng = XorShift(0x5eed_0005);
    // (origin node, key) pairs shared by both lanes.
    let probes: Vec<(ChordId, ChordId)> = (0..ops)
        .map(|_| (ids[rng.next_u64() as usize % ids.len()], space.reduce(rng.next_u64())))
        .collect();
    let start = Instant::now();
    let mut hops = 0u64;
    for &(from, key) in &probes {
        hops += u64::from(black_box(ring.lookup(from, key)).hops());
    }
    let lookup_ns = start.elapsed().as_nanos() as f64;

    // Ranges of about 3.5 mean node-arcs: roughly 4.5 covering nodes each.
    let width = space.modulus() / ids.len() as u64 * 7 / 2;
    let start = Instant::now();
    let mut deliveries = 0u64;
    for &(origin, lo) in &probes {
        let plan = multicast(&ring, origin, lo, space.add(lo, width), RangeStrategy::Sequential);
        deliveries += black_box(plan).deliveries.len() as u64;
    }
    let multicast_ns = start.elapsed().as_nanos() as f64;

    obj(vec![
        ("nodes", u64v(ids.len() as u64)),
        ("ops", u64v(ops as u64)),
        ("ns_per_lookup", f64v(lookup_ns / ops as f64)),
        ("ns_per_hop", f64v(lookup_ns / hops as f64)),
        ("hops_mean", f64v(hops as f64 / ops as f64)),
        ("ns_per_multicast_plan", f64v(multicast_ns / ops as f64)),
        ("deliveries_mean", f64v(deliveries as f64 / ops as f64)),
    ])
}

fn main() {
    let quick = quick_mode();
    let (stored, queries) = if quick { (2_000, 200) } else { (10_000, 2_000) };
    let (streams, ticks) = if quick { (128, 50) } else { (512, 400) };
    let (seeds, warm, meas) = if quick { (2, 6_000, 6_000) } else { (5, 12_000, 24_000) };
    let (tr_nodes, tr_warm, tr_meas) =
        if quick { (10, 2_000, 4_000) } else { (15, 12_000, 20_000) };
    let routing_ops = if quick { 20_000 } else { 200_000 };

    // Ingest runs first: it is the most allocation-sensitive lane, and
    // measuring it in a fresh heap (before the candidates phase churns
    // through tens of thousands of MBR allocations) keeps the paired
    // sequential/batch comparison free of fragmentation skew.
    eprintln!("[bench_baseline] ingest ({streams} streams x {ticks} ticks)...");
    let ingest = bench_ingest(streams, ticks as u64);
    eprintln!("[bench_baseline] local_candidates ({stored} MBRs, {queries} queries)...");
    let lc = bench_local_candidates(stored, queries);
    eprintln!("[bench_baseline] driver sweep ({seeds} seeds x 50 nodes)...");
    let sweep = bench_driver_sweep(seeds, warm, meas);
    eprintln!("[bench_baseline] traced run ({tr_nodes} nodes, {} sim-ms)...", tr_warm + tr_meas);
    let trace = bench_trace(tr_nodes, tr_warm, tr_meas);
    eprintln!("[bench_baseline] routing (1000-node ring, {routing_ops} lookups and plans)...");
    let routing = bench_routing(1_000, routing_ops);

    let report = obj(vec![
        ("bench", Value::Str("ingest_baseline".to_string())),
        ("quick", Value::Bool(quick)),
        ("workers", u64v(worker_count(usize::MAX) as u64)),
        ("host_cpus", u64v(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("local_candidates", lc),
        ("ingest", ingest),
        ("driver_sweep", sweep),
        ("trace", trace),
        ("routing", routing),
    ]);
    let rendered = serde_json::to_string_pretty(&report).expect("serialize");
    // `DSI_BENCH_OUT` redirects the report (e.g. so CI's regression guard
    // can generate a fresh file without clobbering the committed baseline).
    let path = std::env::var("DSI_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });
    std::fs::write(&path, &rendered).expect("write BENCH_ingest.json");
    println!("{rendered}");
    eprintln!("[written {path}]");
}
