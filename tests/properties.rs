//! Cross-crate property-based tests (proptest) on the invariants the whole
//! design rests on: the lower-bounding guarantee, the key mapping, sliding
//! DFT equivalence, multicast coverage, and SHA-1 streaming.

use dsindex::chord::{covering_nodes, IdSpace, RangeStrategy, Ring, Sha1};
use dsindex::core::{feature_to_key, radius_key_range};
use dsindex::dsp::{
    extract_features, normalized_distance, FeatureExtractor, Normalization, SlidingWindow,
    SummaryScratch,
};
use proptest::prelude::*;

fn window_strategy(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Eq. 9: the truncated-DFT feature distance never exceeds the exact
    /// distance between normalized windows — the no-false-dismissal core.
    #[test]
    fn feature_distance_lower_bounds_exact_distance(
        a in window_strategy(32),
        b in window_strategy(32),
        k in 1usize..6,
        znorm in any::<bool>(),
    ) {
        let mode = if znorm { Normalization::ZNorm } else { Normalization::UnitNorm };
        let fa = extract_features(&a, mode, k);
        let fb = extract_features(&b, mode, k);
        let lower = fa.distance(&fb);
        let exact = normalized_distance(&a, &b, mode);
        prop_assert!(lower <= exact + 1e-9, "lower {lower} > exact {exact}");
    }

    /// The incremental extractor equals batch extraction at every step.
    #[test]
    fn incremental_extraction_matches_batch(
        xs in window_strategy(48),
        znorm in any::<bool>(),
    ) {
        let (w, k) = (16usize, 3usize);
        let mode = if znorm { Normalization::ZNorm } else { Normalization::UnitNorm };
        let mut ex = FeatureExtractor::new(w, k, mode);
        let mut scratch = SummaryScratch::default();
        let mut win = SlidingWindow::new(w);
        for &x in &xs {
            win.push(x);
            if ex.update_scratch(x, &mut scratch) {
                let batch = extract_features(&win.to_vec(), mode, k);
                for (u, v) in scratch.coeffs.iter().zip(batch.coeffs().iter()) {
                    prop_assert!(u.approx_eq(*v, 1e-6), "{u:?} vs {v:?}");
                }
            }
        }
    }

    /// Eq. 6 mapping: monotone over [-1, 1], endpoints at 0 and 2^m - 1,
    /// and always a valid identifier.
    #[test]
    fn eq6_mapping_is_monotone_and_total(
        mut a in -1.0f64..1.0,
        mut b in -1.0f64..1.0,
        bits in 3u32..40,
    ) {
        if a > b { std::mem::swap(&mut a, &mut b); }
        let space = IdSpace::new(bits);
        let ka = feature_to_key(space, a);
        let kb = feature_to_key(space, b);
        prop_assert!(ka <= kb, "monotonicity violated: {a}->{ka}, {b}->{kb}");
        prop_assert!(kb < space.modulus());
        prop_assert_eq!(feature_to_key(space, -1.0), 0);
        prop_assert_eq!(feature_to_key(space, 1.0), space.modulus() - 1);
    }

    /// A query's key range always contains its center's key, and any
    /// feature within the radius maps inside the range.
    #[test]
    fn radius_range_contains_all_reachable_features(
        center in -1.0f64..1.0,
        radius in 0.0f64..0.5,
        offset in -1.0f64..1.0,
        bits in 8u32..32,
    ) {
        let space = IdSpace::new(bits);
        let (lo, hi) = radius_key_range(space, center, radius);
        prop_assert!(lo <= hi);
        let f = (center + offset * radius).clamp(-1.0, 1.0);
        let kf = feature_to_key(space, f);
        prop_assert!(kf >= lo && kf <= hi,
            "feature {f} (key {kf}) escaped range [{lo}, {hi}]");
    }

    /// Lookup from any node agrees with the ground-truth successor, and the
    /// path length stays within the Chord bound.
    #[test]
    fn lookup_agrees_with_ground_truth(
        seed_ids in prop::collection::btree_set(0u64..4096, 2..40),
        key in 0u64..4096,
    ) {
        let space = IdSpace::new(12);
        let ids: Vec<u64> = seed_ids.into_iter().collect();
        let ring = Ring::with_nodes(space, ids.iter().copied());
        for &from in ids.iter().take(5) {
            let l = ring.lookup(from, key);
            prop_assert_eq!(l.owner, ring.ideal_successor(key).unwrap());
            prop_assert!(l.hops() as usize <= ids.len() + 12);
        }
    }

    /// Range multicast covers exactly the owners of the keys in the range:
    /// sequential and bidirectional agree, and match a brute-force scan.
    #[test]
    fn multicast_covers_exactly_the_range(
        seed_ids in prop::collection::btree_set(0u64..1024, 3..24),
        lo in 0u64..1024,
        width in 0u64..512,
    ) {
        let space = IdSpace::new(10);
        let ids: Vec<u64> = seed_ids.into_iter().collect();
        let ring = Ring::with_nodes(space, ids.iter().copied());
        let hi = space.add(lo, width);
        // Brute force: the owner of every key in [lo, hi].
        let mut expect: Vec<u64> = (0..=width)
            .map(|d| ring.ideal_successor(space.add(lo, d)).unwrap())
            .collect();
        expect.sort_unstable();
        expect.dedup();
        let mut got = covering_nodes(&ring, lo, hi);
        got.sort_unstable();
        prop_assert_eq!(&got, &expect);
        for strat in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
            let mut plan = dsindex::chord::multicast(&ring, ids[0], lo, hi, strat).nodes();
            plan.sort_unstable();
            prop_assert_eq!(&plan, &expect, "strategy {:?}", strat);
        }
    }

    /// Streaming SHA-1 equals one-shot hashing under arbitrary chunking.
    #[test]
    fn sha1_streaming_equals_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(0usize..600, 0..6),
    ) {
        let oneshot = dsindex::chord::sha1(&data);
        let mut h = Sha1::new();
        let mut offsets: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        offsets.dedup();
        for pair in offsets.windows(2) {
            h.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// MBR candidate test is a superset filter: any feature vector inside
    /// the batch is within min_dist 0 of the box; any query within radius
    /// of a member passes the box test.
    #[test]
    fn mbr_candidate_test_is_superset(
        windows in prop::collection::vec(window_strategy(16), 2..8),
        target in window_strategy(16),
        radius in 0.01f64..1.0,
    ) {
        let feats: Vec<_> = windows
            .iter()
            .map(|w| extract_features(w, Normalization::UnitNorm, 2))
            .collect();
        let mbr = dsindex::dsp::Mbr::from_features(feats.iter());
        let q = extract_features(&target, Normalization::UnitNorm, 2);
        let qp = q.to_reals();
        for (w, f) in windows.iter().zip(feats.iter()) {
            let exact = normalized_distance(&target, w, Normalization::UnitNorm);
            if exact <= radius {
                prop_assert!(
                    mbr.min_dist(&qp) <= radius + 1e-9,
                    "box test dismissed a true match: exact {exact}, radius {radius}, \
                     feature dist {}", q.distance(f)
                );
            }
        }
    }
}
