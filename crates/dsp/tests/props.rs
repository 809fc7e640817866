//! Property-based tests of the signal-processing substrate's invariants.

use dsi_dsp::complex::Complex64;
use dsi_dsp::dft::{dft, energy, idft, spectrum_energy};
use dsi_dsp::wavelet::{haar_forward, haar_inverse, HaarSynopsis};
use dsi_dsp::{
    normalize, normalized_distance, FeatureExtractor, Mbr, Normalization, SlidingStats,
    SlidingWindow, SummaryScratch,
};
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    -1e3f64..1e3
}

fn complex() -> impl Strategy<Value = Complex64> {
    (finite_f64(), finite_f64()).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ----- Complex arithmetic: field-like axioms up to rounding -----

    #[test]
    fn complex_addition_commutes(a in complex(), b in complex()) {
        prop_assert!((a + b).approx_eq(b + a, 1e-9));
    }

    #[test]
    fn complex_multiplication_commutes(a in complex(), b in complex()) {
        prop_assert!((a * b).approx_eq(b * a, 1e-6));
    }

    #[test]
    fn complex_distributivity(a in complex(), b in complex(), c in complex()) {
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!(lhs.approx_eq(rhs, 1e-3), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn complex_multiplicative_inverse(a in complex()) {
        prop_assume!(a.norm() > 1e-6);
        prop_assert!((a * a.inv()).approx_eq(Complex64::ONE, 1e-6));
    }

    #[test]
    fn conjugation_is_multiplicative(a in complex(), b in complex()) {
        prop_assert!((a * b).conj().approx_eq(a.conj() * b.conj(), 1e-4));
    }

    // ----- Transforms -----

    #[test]
    fn dft_roundtrip(x in prop::collection::vec(finite_f64(), 1..48)) {
        let back = idft(&dft(&x));
        for (orig, rec) in x.iter().zip(back.iter()) {
            prop_assert!((orig - rec.re).abs() < 1e-6);
            prop_assert!(rec.im.abs() < 1e-6);
        }
    }

    #[test]
    fn dft_preserves_energy(x in prop::collection::vec(finite_f64(), 1..48)) {
        let e1 = energy(&x);
        let e2 = spectrum_energy(&dft(&x));
        prop_assert!((e1 - e2).abs() <= 1e-6 * (1.0 + e1));
    }

    // ----- Haar wavelets -----

    #[test]
    fn haar_roundtrip_and_parseval(x in prop::collection::vec(finite_f64(), 1..5)
            .prop_map(|seed| (0..32).map(|i| seed[i % seed.len()] * (1.0 + (i % 3) as f64)).collect::<Vec<f64>>())) {
        let h = haar_forward(&x);
        prop_assert!((energy(&x) - energy(&h)).abs() <= 1e-6 * (1.0 + energy(&x)));
        let back = haar_inverse(&h);
        for (a, b) in x.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn haar_topk_energy_bounded(
        x in prop::collection::vec(finite_f64(), 1..5)
            .prop_map(|seed| (0..16).map(|i| seed[i % seed.len()] - 2.0 * (i as f64)).collect::<Vec<f64>>()),
        k in 1usize..16,
    ) {
        let syn = HaarSynopsis::build(&x, k);
        prop_assert!(syn.energy() <= energy(&x) + 1e-6);
        prop_assert!(syn.coeffs.len() <= k);
    }

    // ----- Sliding window vs a reference deque -----

    #[test]
    fn sliding_window_matches_vecdeque(
        cap in 1usize..16,
        xs in prop::collection::vec(finite_f64(), 0..80),
    ) {
        let mut win = SlidingWindow::new(cap);
        let mut reference = std::collections::VecDeque::new();
        for &x in &xs {
            let evicted = win.push(x);
            reference.push_back(x);
            let expect_evicted = if reference.len() > cap { reference.pop_front() } else { None };
            prop_assert_eq!(evicted, expect_evicted);
            prop_assert_eq!(win.to_vec(), reference.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(win.front(), reference.front().copied());
            prop_assert_eq!(win.back(), reference.back().copied());
        }
    }

    // ----- Incremental statistics -----

    #[test]
    fn sliding_stats_match_batch(
        cap in 1usize..12,
        xs in prop::collection::vec(-50.0f64..50.0, 1..60),
    ) {
        let mut stats = SlidingStats::new();
        let mut win = SlidingWindow::new(cap);
        for &x in &xs {
            let ev = win.push(x);
            stats.update(x, ev);
            let cur = win.to_vec();
            let mean = cur.iter().sum::<f64>() / cur.len() as f64;
            let var = cur.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / cur.len() as f64;
            prop_assert!((stats.mean() - mean).abs() < 1e-6);
            prop_assert!((stats.variance() - var).abs() < 1e-5);
        }
    }

    // ----- MBR geometry -----

    #[test]
    fn mbr_bounds_and_min_dist(
        points in prop::collection::vec((finite_f64(), finite_f64()), 1..10),
        q in (finite_f64(), finite_f64()),
    ) {
        let mut mbr = Mbr::from_point(&[points[0].0, points[0].1]);
        for &(a, b) in &points[1..] {
            mbr.extend_point(&[a, b]);
        }
        let qp = [q.0, q.1];
        // min_dist lower-bounds the distance to every contained point.
        for &(a, b) in &points {
            prop_assert!(mbr.contains(&[a, b]));
            let d = ((qp[0] - a).powi(2) + (qp[1] - b).powi(2)).sqrt();
            prop_assert!(mbr.min_dist(&qp) <= d + 1e-9);
        }
        // Inside the box the distance is zero.
        let c = mbr.center();
        prop_assert!(mbr.min_dist(&c) < 1e-9);
    }

    #[test]
    fn mbr_union_contains_both(
        a in prop::collection::vec((finite_f64(), finite_f64()), 1..6),
        b in prop::collection::vec((finite_f64(), finite_f64()), 1..6),
    ) {
        let build = |pts: &[(f64, f64)]| {
            let mut m = Mbr::from_point(&[pts[0].0, pts[0].1]);
            for &(x, y) in &pts[1..] {
                m.extend_point(&[x, y]);
            }
            m
        };
        let ma = build(&a);
        let mb = build(&b);
        let mut u = ma.clone();
        u.extend_point(mb.low());
        u.extend_point(mb.high());
        for &(x, y) in a.iter().chain(b.iter()) {
            prop_assert!(u.contains(&[x, y]));
        }
        prop_assert!(u.intersects(&ma) && u.intersects(&mb));
    }

    // ----- Exact verification -----

    /// The allocation-free verifier returns the verdict of
    /// `normalized_distance(target, window) <= limit`, bit for bit, on
    /// random (often wrapped) windows, at random limits and at the exact
    /// distance.
    #[test]
    fn within_distance_is_bit_identical(
        xs in prop::collection::vec(finite_f64(), 16..60),
        target in prop::collection::vec(finite_f64(), 16),
        limit in 0.0f64..2.5,
        unit in any::<bool>(),
    ) {
        let mode = if unit { Normalization::UnitNorm } else { Normalization::ZNorm };
        let mut ex = FeatureExtractor::new(16, 2, mode);
        let mut scratch = SummaryScratch::default();
        for &x in &xs {
            ex.update_scratch(x, &mut scratch);
        }
        let normalized = normalize(&target, mode);
        let d = normalized_distance(&target, &ex.window_snapshot(), mode);
        for l in [limit, d] {
            prop_assert_eq!(ex.within_distance(&normalized, l), d <= l, "d={} limit={}", d, l);
        }
    }
}
