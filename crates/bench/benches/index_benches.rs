//! Hot-path microbenchmarks for the index-pruned matching layer and the
//! batch ingest pipeline: indexed vs linear `local_candidates`, and
//! `ingest_batch` vs a `post_value` loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsi_core::{Cluster, ClusterConfig, DataCenter, SimilarityKind, SimilarityQuery, StoredMbr};
use dsi_dsp::{Complex64, FeatureVector, Mbr, Normalization};
use dsi_simnet::SimTime;
use std::hint::black_box;

/// Deterministic low-discrepancy point in [-1, 1) — keeps the shard layout
/// stable across runs without rng plumbing.
fn point(i: usize, salt: f64) -> f64 {
    (((i as f64) * 0.754_877_666 + salt).fract()) * 2.0 - 1.0
}

fn shard_with(stored: usize) -> DataCenter {
    let mut dc = DataCenter::new(7);
    for i in 0..stored {
        let (re, im) = (point(i, 0.13), point(i, 0.57));
        let w = 0.01 + 0.02 * point(i, 0.91).abs();
        dc.store_mbr(StoredMbr {
            stream: (i % (stored / 4).max(1)) as u32,
            mbr: Mbr::from_corners(vec![re - w, im - w], vec![re + w, im + w]),
            origin: 1,
            expires: SimTime::from_ms(1_000_000),
        });
    }
    dc
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

fn bench_local_candidates(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_candidates");
    let now = SimTime::from_ms(10);
    for stored in [1_000usize, 10_000] {
        let dc = shard_with(stored);
        let queries: Vec<SimilarityQuery> = (0..64)
            .map(|i| query(i, point(i as usize, 0.29), point(i as usize, 0.71), 0.05))
            .collect();
        group.bench_with_input(BenchmarkId::new("indexed", stored), &stored, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(dc.local_candidates(q, now))
            })
        });
        group.bench_with_input(BenchmarkId::new("linear", stored), &stored, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(dc.local_candidates_linear(q, now))
            })
        });
    }
    group.finish();
}

fn bench_ingest_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    let num_streams = 256u32;
    let build = || {
        let mut cfg = ClusterConfig::new(50);
        cfg.kind = SimilarityKind::Subsequence;
        let mut cluster = Cluster::new(cfg);
        for i in 0..num_streams {
            cluster.register_stream(&format!("bench-ingest-{i}"), (i % 50) as usize);
        }
        cluster
    };

    group.bench_function("post_value_loop", |b| {
        let mut cluster = build();
        let mut tick = 0u64;
        b.iter(|| {
            let now = SimTime::from_ms(tick * 100);
            for s in 0..num_streams {
                let v = 5.0 + ((s as f64) * 0.37 + (tick as f64) * 0.11).sin();
                black_box(cluster.post_value(s, v, now));
            }
            tick += 1;
        })
    });

    group.bench_function("ingest_batch", |b| {
        let mut cluster = build();
        let mut tick = 0u64;
        b.iter(|| {
            let now = SimTime::from_ms(tick * 100);
            let values: Vec<(u32, f64)> = (0..num_streams)
                .map(|s| (s, 5.0 + ((s as f64) * 0.37 + (tick as f64) * 0.11).sin()))
                .collect();
            tick += 1;
            black_box(cluster.ingest_batch(&values, now))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_local_candidates, bench_ingest_batch);
criterion_main!(benches);
