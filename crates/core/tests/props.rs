//! Property-based tests of the middleware's building blocks.

use dsi_chord::IdSpace;
use dsi_core::sortable::{decode_f64, encode_f64};
use dsi_core::{
    decode_sortable_key, feature_to_key, interval_key_range, radius_key_range, sortable_key,
    summary_key, DataCenter, InnerProductQuery, MbrBatcher, SimilarityKind, SimilarityQuery,
    SortableSummaryIndex, StoredMbr, SummaryStore,
};
use dsi_dsp::dft::dft;
use dsi_dsp::{extract_features, Complex64, FeatureVector, Mbr, Normalization};
use dsi_simnet::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn window_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ----- Eq. 6 mapping -----

    #[test]
    fn summary_key_equals_first_real_mapping(
        re in -1.0f64..1.0,
        im in -1.0f64..1.0,
        bits in 4u32..40,
    ) {
        let s = IdSpace::new(bits);
        let fv = FeatureVector::new(vec![Complex64::new(re, im)], Normalization::UnitNorm);
        prop_assert_eq!(summary_key(s, &fv), feature_to_key(s, re));
    }

    #[test]
    fn interval_range_is_ordered_and_contains_interior(
        lo in -1.0f64..1.0,
        w in 0.0f64..0.5,
        t in 0.0f64..1.0,
        bits in 6u32..32,
    ) {
        let s = IdSpace::new(bits);
        let hi = (lo + w).min(1.0);
        let (klo, khi) = interval_key_range(s, lo, hi);
        prop_assert!(klo <= khi);
        let mid = lo + t * (hi - lo);
        let kmid = feature_to_key(s, mid);
        prop_assert!(kmid >= klo && kmid <= khi);
    }

    #[test]
    fn radius_range_is_superset_of_any_smaller_radius(
        center in -1.0f64..1.0,
        r1 in 0.0f64..0.3,
        extra in 0.0f64..0.3,
        bits in 6u32..32,
    ) {
        let s = IdSpace::new(bits);
        let (lo1, hi1) = radius_key_range(s, center, r1);
        let (lo2, hi2) = radius_key_range(s, center, r1 + extra);
        prop_assert!(lo2 <= lo1 && hi1 <= hi2, "wider radius must widen the range");
    }

    // ----- Batching -----

    #[test]
    fn batcher_mbrs_contain_all_members(
        features in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..40),
        zeta in 1usize..8,
        bound in prop::option::of(0.01f64..0.5),
    ) {
        let mut b = MbrBatcher::new(zeta);
        if let Some(w) = bound {
            b = b.with_max_width(w);
        }
        let mut pending: Vec<FeatureVector> = Vec::new();
        for &(re, im) in &features {
            let fv = FeatureVector::new(
                vec![Complex64::new(re, im)],
                Normalization::UnitNorm,
            );
            pending.push(fv.clone());
            if let Some(mbr) = b.push_reals(&fv.to_reals()) {
                // The emitted MBR covers exactly the summaries that are no
                // longer pending (all but possibly the newest).
                let kept = b.pending();
                let emitted = pending.len() - kept;
                for f in &pending[..emitted] {
                    prop_assert!(mbr.contains(&f.to_reals()));
                }
                if let Some(w) = bound {
                    let (lo, hi) = mbr.first_interval();
                    prop_assert!(hi - lo <= w + 1e-9, "width bound violated");
                }
                pending.drain(..emitted);
            }
            prop_assert!(b.pending() <= zeta);
        }
    }

    // ----- Candidate matching -----

    #[test]
    fn local_candidates_equal_brute_force(
        boxes in prop::collection::vec(
            // (center re, center im, box half-width, stream id, expiry ms)
            (-1.0f64..1.0, -1.0f64..1.0, 0.0f64..0.3, 0u32..40, 1u64..5000),
            0..120,
        ),
        queries in prop::collection::vec(
            // (target re, target im, radius, now ms)
            (-1.0f64..1.0, -1.0f64..1.0, 0.0f64..0.8, 0u64..5000),
            1..12,
        ),
        purge_at in prop::option::of(0u64..5000),
    ) {
        let mut dc = DataCenter::new(7);
        for &(re, im, w, stream, exp) in &boxes {
            let low = vec![re - w, im - w];
            let high = vec![re + w, im + w];
            dc.store_mbr(StoredMbr {
                stream,
                mbr: Mbr::from_corners(low, high),
                origin: 1,
                expires: SimTime::from_ms(exp),
            });
        }
        if let Some(t) = purge_at {
            dc.purge_expired(SimTime::from_ms(t));
        }
        for &(re, im, radius, at) in &queries {
            let fv = FeatureVector::new(
                vec![Complex64::new(re, im)],
                Normalization::UnitNorm,
            );
            let q = SimilarityQuery {
                id: 1,
                client: 0,
                feature: fv,
                target: Vec::new(),
                radius,
                kind: SimilarityKind::Subsequence,
                aggregator: 0,
                expires: SimTime::from_ms(10_000),
            };
            let now = SimTime::from_ms(at);
            prop_assert_eq!(
                dc.local_candidates(&q, now),
                dc.local_candidates_linear(&q, now),
                "column pass diverged from brute force at t={}", at
            );
        }
    }

    // ----- Sortable (Coconut-style) summary keys -----

    #[test]
    fn sortable_key_is_invertible_key_to_mbr_to_key(
        lo_sel in 0u8..7,
        lo_val in -1e6f64..1e6,
        hi_sel in 0u8..5,
        w in 0.0f64..1e6,
    ) {
        // Mix finite values with the special cases a dimension-less extent
        // produces: infinities and the two zeros.
        let lo = match lo_sel {
            0 => f64::NEG_INFINITY,
            1 => 0.0,
            2 => -0.0,
            _ => lo_val,
        };
        let hi = if hi_sel == 0 { f64::INFINITY } else { lo + w };
        let key = sortable_key(lo, hi);
        // key → MBR → key: decoding the key to an extent and re-encoding
        // that extent must reproduce the key exactly (the decoded corner is
        // the canonical representative of its quantization cell).
        let (dlo, dhi) = decode_sortable_key(key);
        prop_assert_eq!(sortable_key(dlo, dhi), key, "re-encoded key diverged");
        // The canonical representative never exceeds the original corner, so
        // range scans built from encoded bounds are conservative (no misses).
        prop_assert!(dlo <= lo || (dlo == 0.0 && lo == 0.0), "decoded low {dlo} above original {lo}");
        prop_assert!(dhi <= hi || (dhi == 0.0 && hi == 0.0), "decoded high {dhi} above original {hi}");
    }

    #[test]
    fn f64_cell_encoding_is_monotone_and_right_invertible(
        a_sel in 0u8..10,
        a_val in -1e9f64..1e9,
        b_sel in 0u8..10,
        b_val in -1e9f64..1e9,
    ) {
        let a = if a_sel == 0 { f64::NEG_INFINITY } else { a_val };
        let b = if b_sel == 0 { f64::INFINITY } else { b_val };
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(encode_f64(x) <= encode_f64(y), "encoding must be monotone");
        // decode is a right inverse: encode(decode(u)) == u.
        for u in [encode_f64(x), encode_f64(y)] {
            prop_assert_eq!(encode_f64(decode_f64(u)), u);
        }
        // ...and decode never rounds up past the original value.
        prop_assert!(decode_f64(encode_f64(x)) <= x);
    }

    #[test]
    fn sortable_index_query_equals_linear_scan(
        extents in prop::collection::vec((-5.0f64..5.0, 0.0f64..3.0), 0..150),
        queries in prop::collection::vec((-6.0f64..6.0, 0.0f64..4.0), 1..10),
        bulk in any::<bool>(),
    ) {
        let boxes: Vec<(f64, f64)> =
            extents.iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let mut idx = SortableSummaryIndex::default();
        if bulk {
            idx.bulk_load(
                boxes.iter().enumerate().map(|(i, &(lo, hi))| (sortable_key(lo, hi), i as u32)),
            );
        } else {
            for (i, &(lo, hi)) in boxes.iter().enumerate() {
                idx.insert(sortable_key(lo, hi), i as u32);
            }
        }
        for &(a, w) in &queries {
            let b = a + w;
            let mut got: Vec<u32> = Vec::new();
            idx.for_overlapping(a, b, |pos| got.push(pos));
            got.sort_unstable();
            got.dedup();
            // The index may over-approximate (quantization), but must never
            // miss a truly overlapping extent.
            for (i, &(lo, hi)) in boxes.iter().enumerate() {
                if lo <= b && hi >= a {
                    prop_assert!(
                        got.binary_search(&(i as u32)).is_ok(),
                        "missed overlapping extent [{lo}, {hi}] for query [{a}, {b}]"
                    );
                }
            }
        }
    }

    // ----- SoA summary store vs per-entry model -----

    #[test]
    fn summary_store_equals_per_entry_model(
        ops in prop::collection::vec(
            // (selector, corner list for pushes, stream, origin, time/expiry)
            // selector 0..=5: push; 6..=7: purge at t; 8: retain even streams;
            // 9..=10: similarity subscription (ids collide, so replacement
            // happens); 11: inner-product subscription.
            (
                0u8..12,
                prop::collection::vec((-10.0f64..10.0, 0.0f64..2.0), 0..3),
                0u32..20,
                0u64..8,
                1u64..4000,
            ),
            0..60,
        ),
    ) {
        let mut store = SummaryStore::default();
        let mut model: Vec<StoredMbr> = Vec::new();
        // The same pushes, subscriptions and purges drive a `DataCenter`
        // against a model of expiry times only (it has no public retain):
        // its one expiry bound must never hide an expired item of any table.
        let mut dc = DataCenter::new(7);
        let mut dc_mbrs: Vec<u64> = Vec::new();
        let mut subs: BTreeMap<u64, u64> = BTreeMap::new();
        let mut ip_subs: BTreeMap<u64, u64> = BTreeMap::new();
        for (kind, corners, stream, origin, t) in &ops {
            match kind {
                0..=5 => {
                    let low: Vec<f64> = corners.iter().map(|&(l, _)| l).collect();
                    let high: Vec<f64> = corners.iter().map(|&(l, w)| l + w).collect();
                    let rec = StoredMbr {
                        stream: *stream,
                        mbr: Mbr::from_corners(low, high),
                        origin: *origin,
                        expires: SimTime::from_ms(*t),
                    };
                    store.push_stored(&rec);
                    dc.store_mbr(rec.clone());
                    dc_mbrs.push(*t);
                    model.push(rec);
                }
                6 | 7 => {
                    let now = SimTime::from_ms(*t);
                    store.retain(|s| now < s.expires);
                    model.retain(|r| now < r.expires);

                    let before = dc_mbrs.len() + subs.len() + ip_subs.len();
                    dc_mbrs.retain(|e| t < e);
                    subs.retain(|_, e| t < e);
                    ip_subs.retain(|_, e| t < e);
                    let expired = before - (dc_mbrs.len() + subs.len() + ip_subs.len());
                    prop_assert_eq!(dc.purge_expired(now), expired, "purge count at t={}", t);
                    prop_assert!(dc.summaries().all(|s| now < s.expires));
                    prop_assert!(dc.all_subscriptions().all(|(_, expires)| now < expires));
                    prop_assert!(dc.all_ip_subscriptions().all(|q| now < q.expires));
                    prop_assert_eq!(dc.mbr_count(), dc_mbrs.len());
                    prop_assert_eq!(dc.subscription_count(), subs.len() + ip_subs.len());
                }
                8 => {
                    store.retain(|s| s.stream % 2 == 0);
                    model.retain(|r| r.stream % 2 == 0);
                }
                9 | 10 => {
                    let id = u64::from(*stream % 4);
                    dc.subscribe_similarity(id, SimTime::from_ms(*t));
                    subs.insert(id, *t);
                    let table = dc.all_subscriptions().map(|(id, e)| (id, e.as_ms()));
                    prop_assert!(table.eq(subs.iter().map(|(&id, &e)| (id, e))));
                }
                _ => {
                    let id = u64::from(*stream % 4);
                    dc.subscribe_inner_product(InnerProductQuery::point(
                        id, 0, *stream, 0, SimTime::from_ms(*t),
                    ));
                    ip_subs.insert(id, *t);
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
        // Whole-store equivalence, including order and bit-exact corners.
        prop_assert_eq!(&store.to_stored_vec(), &model);
        for (pos, rec) in model.iter().enumerate() {
            prop_assert!(store.get(pos).matches(rec), "record {pos} diverged");
            prop_assert_eq!(store.expires_at(pos), rec.expires);
        }
        prop_assert_eq!(store.iter().count(), model.len());
    }

    // ----- Similarity candidate test -----

    #[test]
    fn candidate_test_is_never_a_false_dismissal(
        a in window_strategy(16),
        b in window_strategy(16),
        znorm in any::<bool>(),
        k in 1usize..5,
    ) {
        let kind = if znorm { SimilarityKind::Correlation } else { SimilarityKind::Subsequence };
        let exact = dsi_dsp::normalized_distance(&a, &b, kind.normalization());
        let q = SimilarityQuery::from_target(
            1, 0, a, exact + 1e-9, kind, k, 0, SimTime::from_secs(1),
        );
        let fb = extract_features(&b, kind.normalization(), k);
        prop_assert!(q.candidate(&fb), "dismissed a window at exactly the radius");
    }

    // ----- Inner-product evaluation -----

    #[test]
    fn full_prefix_inner_product_is_exact(
        window in window_strategy(16),
        idx in prop::collection::vec(0usize..16, 1..6),
    ) {
        let weights = vec![1.0 / idx.len() as f64; idx.len()];
        let q = InnerProductQuery::new(1, 0, 0, idx, weights, SimTime::from_secs(1));
        let exact = q.evaluate_exact(&window);
        // Keeping bins 0..=n/2 of a real signal is lossless.
        let spectrum = dft(&window);
        let approx = q.evaluate_approx(&spectrum[..9], 16);
        prop_assert!((exact - approx).abs() < 1e-6 * (1.0 + exact.abs()));
    }

    #[test]
    fn point_and_range_queries_match_direct_semantics(
        window in window_strategy(16),
        i in 0usize..16,
        start in 0usize..12,
        len in 1usize..4,
    ) {
        let p = InnerProductQuery::point(1, 0, 0, i, SimTime::from_secs(1));
        prop_assert_eq!(p.evaluate_exact(&window), window[i]);

        let end = (start + len).min(16);
        let rs = InnerProductQuery::range_sum(2, 0, 0, start..end, SimTime::from_secs(1));
        let expect: f64 = window[start..end].iter().sum();
        prop_assert!((rs.evaluate_exact(&window) - expect).abs() < 1e-9);

        let ra = InnerProductQuery::range_avg(3, 0, 0, start..end, SimTime::from_secs(1));
        let expect_avg = expect / (end - start) as f64;
        prop_assert!((ra.evaluate_exact(&window) - expect_avg).abs() < 1e-9);
    }
}
