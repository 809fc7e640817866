//! Property-based tests of the routing substrate's invariants.

use dsi_chord::{
    covering_nodes, covering_nodes_from, ChordId, ContentRouter, IdSpace, PastryNet, RangeStrategy,
    Ring,
};
use proptest::prelude::*;

/// The covering set as one successor search per member: the walk
/// `covering_nodes` made before it read the id column, kept as its
/// reference.
fn covering_by_successor_search<R: ContentRouter>(
    ring: &R,
    lo: ChordId,
    hi: ChordId,
) -> Vec<ChordId> {
    if ring.is_empty() {
        return Vec::new();
    }
    let space = ring.space();
    let first = ring.ideal_successor(lo).unwrap();
    let width = space.distance_cw(lo, hi);
    let mut out = vec![first];
    let mut cur = first;
    while space.distance_cw(lo, cur) < width && out.len() < ring.len() {
        cur = ring.ideal_successor(space.add(cur, 1)).unwrap();
        out.push(cur);
    }
    out
}

/// The side-aware twin of [`covering_by_successor_search`]: the walk
/// `covering_nodes_from` made, stopping when it wraps back to its first
/// member.
fn covering_from_by_successor_search<R: ContentRouter>(
    ring: &R,
    origin: ChordId,
    lo: ChordId,
    hi: ChordId,
) -> Vec<ChordId> {
    if ring.is_empty() {
        return Vec::new();
    }
    let space = ring.space();
    let first = ring.ideal_successor_from(origin, lo).unwrap();
    let width = space.distance_cw(lo, hi);
    let mut out = vec![first];
    let mut cur = first;
    while space.distance_cw(lo, cur) < width {
        cur = ring.ideal_successor_from(origin, space.add(cur, 1)).unwrap();
        if cur == first {
            break;
        }
        out.push(cur);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ----- Identifier-circle arithmetic -----

    #[test]
    fn distances_sum_to_modulus(bits in 2u32..40, a in any::<u64>(), b in any::<u64>()) {
        let s = IdSpace::new(bits);
        let (a, b) = (s.reduce(a), s.reduce(b));
        let fwd = s.distance_cw(a, b);
        let back = s.distance_cw(b, a);
        if a == b {
            prop_assert_eq!(fwd + back, 0);
        } else {
            prop_assert_eq!(fwd + back, s.modulus());
        }
    }

    #[test]
    fn in_open_matches_brute_force(a in 0u64..64, x in 0u64..64, b in 0u64..64) {
        let s = IdSpace::new(6);
        // Brute force: walk clockwise from a+1 to b-1.
        let mut expect = false;
        if a == b {
            expect = x != a;
        } else {
            let mut cur = s.add(a, 1);
            while cur != b {
                if cur == x {
                    expect = true;
                    break;
                }
                cur = s.add(cur, 1);
            }
        }
        prop_assert_eq!(s.in_open(a, x, b), expect, "a={} x={} b={}", a, x, b);
    }

    #[test]
    fn half_open_is_open_plus_endpoint(a in 0u64..64, x in 0u64..64, b in 0u64..64) {
        let s = IdSpace::new(6);
        let half = s.in_half_open(a, x, b);
        let open = s.in_open(a, x, b);
        if x == b && a != b {
            prop_assert!(half && !open);
        } else if a != b {
            prop_assert_eq!(half, open);
        }
    }

    #[test]
    fn midpoint_lies_in_range(a in 0u64..256, w in 0u64..256) {
        let s = IdSpace::new(8);
        let b = s.add(a, w);
        let m = s.midpoint(a, b);
        prop_assert!(s.in_closed(a, m, b), "mid {m} outside [{a},{b}]");
    }

    // ----- Ring construction invariants -----

    #[test]
    fn built_ring_is_fully_consistent(ids in prop::collection::btree_set(0u64..4096, 1..40)) {
        let s = IdSpace::new(12);
        let ring = Ring::with_nodes(s, ids.iter().copied());
        prop_assert!(ring.is_fully_consistent());
    }

    #[test]
    fn lookup_path_visits_only_live_nodes(
        ids in prop::collection::btree_set(0u64..4096, 2..24),
        key in 0u64..4096,
    ) {
        let s = IdSpace::new(12);
        let ids: Vec<ChordId> = ids.into_iter().collect();
        let ring = Ring::with_nodes(s, ids.iter().copied());
        let l = ring.lookup(ids[0], key);
        for n in &l.path {
            prop_assert!(ring.contains(*n), "path visits dead node {n}");
        }
        // Hop bound: Chord guarantees O(log N) with correct fingers;
        // allow a generous constant.
        prop_assert!(l.hops() as usize <= 2 * 12 + 2);
    }

    #[test]
    fn successor_walk_visits_every_node_once(
        ids in prop::collection::btree_set(0u64..4096, 1..30),
    ) {
        let s = IdSpace::new(12);
        let ids: Vec<ChordId> = ids.into_iter().collect();
        let ring = Ring::with_nodes(s, ids.iter().copied());
        let start = ids[0];
        let mut seen = vec![start];
        let mut cur = ring.successor_of(start);
        while cur != start {
            prop_assert!(!seen.contains(&cur), "successor cycle revisits {cur}");
            seen.push(cur);
            cur = ring.successor_of(cur);
        }
        prop_assert_eq!(seen.len(), ids.len());
    }

    // ----- Pastry agrees with Chord on ownership and correctness -----

    #[test]
    fn pastry_routes_to_true_owner(
        seeds in prop::collection::btree_set(0u64..1_000_000, 2..32),
        key in any::<u64>(),
    ) {
        let s = IdSpace::new(32);
        let ids: Vec<ChordId> =
            seeds.iter().map(|x| s.hash_str(&format!("n{x}"))).collect();
        let p = PastryNet::new(s, ids.iter().copied());
        let key = s.reduce(key);
        let origin = *p.node_ids().first().unwrap();
        let l = p.route(origin, key);
        prop_assert_eq!(l.owner, p.ideal_successor(key).unwrap());
        for n in &l.path {
            prop_assert!(p.contains(*n));
        }
    }

    // ----- Multicast invariants -----

    #[test]
    fn multicast_deliveries_have_contiguous_depths(
        ids in prop::collection::btree_set(0u64..1024, 2..20),
        lo in 0u64..1024,
        w in 0u64..512,
        bidir in any::<bool>(),
    ) {
        let s = IdSpace::new(10);
        let ids: Vec<ChordId> = ids.into_iter().collect();
        let ring = Ring::with_nodes(s, ids.iter().copied());
        let hi = s.add(lo, w);
        let strat = if bidir { RangeStrategy::Bidirectional } else { RangeStrategy::Sequential };
        let plan = dsi_chord::multicast(&ring, ids[0], lo, hi, strat);
        // Entry has depth 0; neighbors differ by exactly 1 hop.
        let base = plan.route_hops;
        let entry_depth =
            plan.deliveries.iter().find(|d| d.node == plan.entry).unwrap().hops - base;
        prop_assert_eq!(entry_depth, 0);
        for pair in plan.deliveries.windows(2) {
            let d = pair[0].hops.abs_diff(pair[1].hops);
            prop_assert_eq!(d, 1, "non-adjacent depths");
        }
        // No duplicate deliveries.
        let mut nodes = plan.nodes();
        let total = nodes.len();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), total);
        // Covering set equals plan set.
        let mut cover = covering_nodes(&ring, lo, hi);
        cover.sort_unstable();
        prop_assert_eq!(nodes, cover);
    }

    #[test]
    fn covering_walk_equals_successor_search(
        ids in prop::collection::btree_set(0u64..4096, 1..24),
        sides in prop::collection::vec(0u8..3, 24),
        split in any::<bool>(),
        picks in prop::collection::vec(0usize..24, 3),
        offsets in prop::collection::vec(0u64..3, 2),
        anchored in any::<bool>(),
        lo in 0u64..4096,
        w in 0u64..4096,
    ) {
        let s = IdSpace::new(12);
        let ids: Vec<ChordId> = ids.into_iter().collect();
        let origin = ids[picks[0] % ids.len()];
        // Anchored ranges start and end on, just after or just before a
        // node, where an off-by-one in the walk's stop shows.
        let near = |pick: usize, off: u64| {
            s.add(ids[pick % ids.len()], [0, 1, s.modulus() - 1][off as usize])
        };
        let (lo, hi) = if anchored {
            (near(picks[1], offsets[0]), near(picks[2], offsets[1]))
        } else {
            (lo, s.add(lo, w))
        };
        let mut ring = Ring::with_nodes(s, ids.iter().copied());
        if split {
            ring.split(ids.iter().copied().zip(sides.iter().copied()));
        }
        prop_assert_eq!(covering_nodes(&ring, lo, hi), covering_by_successor_search(&ring, lo, hi));
        prop_assert_eq!(
            covering_nodes_from(&ring, origin, lo, hi),
            covering_from_by_successor_search(&ring, origin, lo, hi)
        );
        let pastry = PastryNet::new(s, ids.iter().copied());
        prop_assert_eq!(
            covering_nodes(&pastry, lo, hi),
            covering_by_successor_search(&pastry, lo, hi)
        );
        prop_assert_eq!(
            covering_nodes_from(&pastry, origin, lo, hi),
            covering_from_by_successor_search(&pastry, origin, lo, hi)
        );
    }
}
