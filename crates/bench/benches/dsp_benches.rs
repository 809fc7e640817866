//! Micro-benchmarks of the signal-processing substrate: the FFT vs naive
//! DFT gap and the paper's central per-item cost claim — the Eq. 5 sliding
//! update is O(k) per arriving value, versus O(w log w) for recomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsi_dsp::dft::dft;
use dsi_dsp::fft::fft;
use dsi_dsp::{
    extract_features, FeatureExtractor, Normalization, SlidingDft, SlidingWindow, SummaryScratch,
};
use std::hint::black_box;

fn signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.17).sin() * 3.0 + (i % 7) as f64).collect()
}

fn bench_transforms(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    group.sample_size(20);
    for n in [64usize, 256, 1024] {
        let x = signal(n);
        group.bench_with_input(BenchmarkId::new("naive_dft", n), &x, |b, x| {
            b.iter(|| black_box(dft(black_box(x))))
        });
        group.bench_with_input(BenchmarkId::new("fft", n), &x, |b, x| {
            b.iter(|| black_box(fft(black_box(x))))
        });
    }
    group.finish();
}

fn bench_per_item_summarization(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_item");
    group.sample_size(20);
    let w = 64;
    let k = 2;
    let xs = signal(4096);

    // Eq. 5: O(k) incremental update per item.
    group.bench_function("sliding_dft_update", |b| {
        let mut sdft = SlidingDft::new(w, k + 1);
        let mut win = SlidingWindow::new(w);
        let mut i = 0;
        b.iter(|| {
            let x = xs[i % xs.len()];
            let ev = win.push(x);
            sdft.update(x, ev);
            i += 1;
            black_box(sdft.coeffs()[0])
        })
    });

    // The alternative the paper rules out: recompute the window DFT per item.
    group.bench_function("recompute_dft_per_item", |b| {
        let mut win = SlidingWindow::new(w);
        for &x in xs.iter().take(w) {
            win.push(x);
        }
        let mut i = w;
        b.iter(|| {
            win.push(xs[i % xs.len()]);
            i += 1;
            black_box(dft(&win.to_vec())[0])
        })
    });

    // Full incremental pipeline (window + stats + normalization).
    group.bench_function("feature_extractor_update", |b| {
        let mut ex = FeatureExtractor::new(w, k, Normalization::UnitNorm);
        let mut scratch = SummaryScratch::default();
        let mut i = 0;
        b.iter(|| {
            let warm = ex.update_scratch(xs[i % xs.len()], &mut scratch);
            i += 1;
            black_box((warm, &scratch.reals));
        })
    });

    // The batch path (what a naive implementation would run per item).
    let window: Vec<f64> = xs[..w].to_vec();
    group.bench_function("batch_extract_features", |b| {
        b.iter(|| black_box(extract_features(black_box(&window), Normalization::UnitNorm, k)))
    });

    group.finish();
}

criterion_group!(benches, bench_transforms, bench_per_item_summarization);
criterion_main!(benches);
