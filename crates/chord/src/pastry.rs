//! A Pastry-style prefix-routing overlay (Rowstron & Druschel, Middleware
//! 2001) — the second [`crate::router::ContentRouter`] backend.
//!
//! The paper lists Pastry among the interchangeable substrates its
//! middleware can run on; this simulator-grade implementation provides the
//! same ownership semantics as Chord (a key belongs to its ring successor)
//! while routing through *digit-prefix* tables plus a *leaf set*, giving
//! `O(log_16 N)` hops. Running the full indexing middleware unchanged on
//! both backends is the portability demonstration.

use crate::id::{ChordId, IdSpace};
use crate::ring::Lookup;
use crate::router::{BuildRouter, ContentRouter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bits per routing digit (base 16, as in the Pastry paper's default).
pub const DIGIT_BITS: u32 = 4;
/// Leaf-set half-size: this many ring neighbors on each side.
pub const LEAF_HALF: usize = 4;

/// Per-node Pastry routing state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PastryNode {
    /// This node's identifier.
    pub id: ChordId,
    /// `table[row][d]`: a node sharing `row` leading digits with this node
    /// and having digit `d` at position `row` (None if no such node).
    pub table: Vec<[Option<ChordId>; 16]>,
    /// Ring-order neighbors: `LEAF_HALF` successors and predecessors.
    pub leaves: Vec<ChordId>,
}

/// A fully-converged Pastry-style overlay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PastryNet {
    space: IdSpace,
    rows: u32,
    nodes: BTreeMap<ChordId, PastryNode>,
}

impl PastryNet {
    /// Builds the overlay over `ids`.
    ///
    /// # Panics
    /// Panics if the identifier width is not a multiple of [`DIGIT_BITS`]
    /// or `ids` is empty.
    pub fn new<I: IntoIterator<Item = ChordId>>(space: IdSpace, ids: I) -> Self {
        assert!(
            space.bits().is_multiple_of(DIGIT_BITS),
            "identifier width must be a multiple of {DIGIT_BITS} bits"
        );
        let rows = space.bits() / DIGIT_BITS;
        let mut sorted: Vec<ChordId> = ids.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(!sorted.is_empty(), "cannot build an empty overlay");

        let mut net = PastryNet { space, rows, nodes: BTreeMap::new() };
        for &id in &sorted {
            net.nodes.insert(
                id,
                PastryNode { id, table: vec![[None; 16]; rows as usize], leaves: Vec::new() },
            );
        }
        net.rebuild_all(&sorted);
        net
    }

    fn digit(&self, id: ChordId, row: u32) -> usize {
        let shift = self.space.bits() - DIGIT_BITS * (row + 1);
        ((id >> shift) & 0xF) as usize
    }

    fn shared_prefix(&self, a: ChordId, b: ChordId) -> u32 {
        for row in 0..self.rows {
            if self.digit(a, row) != self.digit(b, row) {
                return row;
            }
        }
        self.rows
    }

    /// Circular distance (shorter way around) — Pastry's numeric closeness.
    fn circ_dist(&self, a: ChordId, b: ChordId) -> u64 {
        let d = self.space.distance_cw(a, b);
        d.min(self.space.modulus() - d)
    }

    fn rebuild_all(&mut self, sorted: &[ChordId]) {
        let n = sorted.len();
        // Prefix buckets per row: (row, prefix-digits..=row) -> members.
        for i in 0..n {
            let id = sorted[i];
            // Leaf set: LEAF_HALF ring successors and predecessors.
            let mut leaves = Vec::with_capacity(2 * LEAF_HALF);
            for k in 1..=LEAF_HALF.min(n.saturating_sub(1)) {
                leaves.push(sorted[(i + k) % n]);
                leaves.push(sorted[(i + n - k) % n]);
            }
            leaves.sort_unstable();
            leaves.dedup();
            leaves.retain(|&l| l != id);

            let mut table = vec![[None; 16]; self.rows as usize];
            for &other in sorted {
                if other == id {
                    continue;
                }
                let row = self.shared_prefix(id, other);
                if row >= self.rows {
                    continue;
                }
                let d = self.digit(other, row);
                let slot = &mut table[row as usize][d];
                // Deterministic choice: numerically closest candidate.
                let better = match *slot {
                    None => true,
                    Some(cur) => self.circ_dist(id, other) < self.circ_dist(id, cur),
                };
                if better {
                    *slot = Some(other);
                }
            }
            let node = self.nodes.get_mut(&id).expect("member");
            node.table = table;
            node.leaves = leaves;
        }
    }

    /// Read access to a node's routing state.
    pub fn node(&self, id: ChordId) -> Option<&PastryNode> {
        self.nodes.get(&id)
    }

    /// All live node identifiers in ring order, without allocating.
    pub fn iter_ids(&self) -> impl Iterator<Item = ChordId> + '_ {
        self.nodes.keys().copied()
    }
}

impl ContentRouter for PastryNet {
    fn space(&self) -> IdSpace {
        self.space
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn contains(&self, id: ChordId) -> bool {
        self.nodes.contains_key(&id)
    }

    fn node_ids(&self) -> Vec<ChordId> {
        self.iter_ids().collect()
    }

    fn ids_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_ {
        self.nodes.range(key..).chain(self.nodes.range(..key)).map(|(id, _)| *id)
    }

    fn ideal_successor(&self, key: ChordId) -> Option<ChordId> {
        self.nodes.range(key..).next().or_else(|| self.nodes.iter().next()).map(|(id, _)| *id)
    }

    fn ideal_predecessor(&self, key: ChordId) -> Option<ChordId> {
        self.nodes
            .range(..key)
            .next_back()
            .or_else(|| self.nodes.iter().next_back())
            .map(|(id, _)| *id)
    }

    fn successor_of(&self, id: ChordId) -> ChordId {
        self.ideal_successor(self.space.add(id, 1)).expect("non-empty overlay")
    }

    fn route(&self, from: ChordId, key: ChordId) -> Lookup {
        assert!(self.contains(from), "route origin {from} is not a live node");
        let owner = self.ideal_successor(key).expect("non-empty overlay");
        let mut path = vec![from];
        let mut cur = from;
        let budget = self.rows as usize + 2 * LEAF_HALF + 2;
        for _ in 0..budget {
            if cur == owner {
                return Lookup { owner, path };
            }
            let state = &self.nodes[&cur];
            // Leaf-set finish: the owner is a ring neighbor.
            if state.leaves.contains(&owner) {
                path.push(owner);
                return Lookup { owner, path };
            }
            // Prefix hop: longer shared prefix with the key.
            let row = self.shared_prefix(cur, key);
            let next = if row < self.rows {
                state.table[row as usize][self.digit(key, row)]
            } else {
                None
            };
            let next = next.filter(|&n| n != cur).unwrap_or_else(|| {
                // Rare case: no table entry — move to any known node at
                // least as prefix-close and numerically closer to the key.
                let mut best = self.successor_of(cur);
                let mut best_d = self.circ_dist(best, key);
                for cand in state
                    .leaves
                    .iter()
                    .copied()
                    .chain(state.table.iter().flatten().flatten().copied())
                {
                    let d = self.circ_dist(cand, key);
                    if self.shared_prefix(cand, key) >= row && d < best_d {
                        best = cand;
                        best_d = d;
                    }
                }
                best
            });
            path.push(next);
            cur = next;
        }
        // Budget exhausted (cannot happen with converged tables): finish
        // directly so callers always get the true owner.
        if *path.last().expect("path starts at the querying node") != owner {
            path.push(owner);
        }
        Lookup { owner, path }
    }
}

impl BuildRouter for PastryNet {
    fn build(space: IdSpace, ids: &[ChordId]) -> Self {
        PastryNet::new(space, ids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: u64) -> (PastryNet, Vec<ChordId>) {
        let space = IdSpace::new(32);
        let ids: Vec<ChordId> = (0..n).map(|i| space.hash_str(&format!("p-{i}"))).collect();
        (PastryNet::new(space, ids.iter().copied()), ids)
    }

    #[test]
    fn routes_to_the_true_successor() {
        let (p, ids) = net(64);
        let space = p.space();
        for i in 0..50u64 {
            let key = space.reduce(i.wrapping_mul(2_654_435_761));
            let l = p.route(ids[(i % 64) as usize], key);
            assert_eq!(l.owner, p.ideal_successor(key).unwrap(), "key {key}");
            assert_eq!(*l.path.first().unwrap(), ids[(i % 64) as usize]);
            assert_eq!(*l.path.last().unwrap(), l.owner);
        }
    }

    #[test]
    fn hops_are_logarithmic_base16() {
        let (p, ids) = net(256);
        let space = p.space();
        let mut total = 0u32;
        for i in 0..100u64 {
            let key = space.reduce(i.wrapping_mul(40_503) ^ 0xdead_beef);
            total += p.route(ids[(i % 256) as usize], key).hops();
        }
        let avg = total as f64 / 100.0;
        // log16(256) = 2; leaf-set finish adds ~1.
        assert!(avg < 4.5, "average hops {avg} too high for prefix routing");
        assert!(avg > 0.5);
    }

    #[test]
    fn pastry_needs_fewer_hops_than_chord() {
        let space = IdSpace::new(32);
        let ids: Vec<ChordId> = (0..256u64).map(|i| space.hash_str(&format!("x{i}"))).collect();
        let p = PastryNet::new(space, ids.iter().copied());
        let c = crate::ring::Ring::with_nodes(space, ids.iter().copied());
        let mut hp = 0u32;
        let mut hc = 0u32;
        for i in 0..80u64 {
            let key = space.reduce(i.wrapping_mul(97_003) ^ 0x1234_5678);
            hp += p.route(ids[0], key).hops();
            hc += c.lookup(ids[0], key).hops();
        }
        assert!(hp < hc, "base-16 digits should beat base-2 fingers: {hp} vs {hc}");
    }

    #[test]
    fn leaf_sets_are_ring_neighbors() {
        let (p, ids) = net(32);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        for (i, &id) in sorted.iter().enumerate() {
            let node = p.node(id).unwrap();
            let n = sorted.len();
            for k in 1..=2 {
                assert!(node.leaves.contains(&sorted[(i + k) % n]));
                assert!(node.leaves.contains(&sorted[(i + n - k) % n]));
            }
            assert!(!node.leaves.contains(&id));
        }
    }

    #[test]
    fn table_entries_share_the_advertised_prefix() {
        let (p, ids) = net(48);
        for &id in &ids {
            let node = p.node(id).unwrap();
            for (row, slots) in node.table.iter().enumerate() {
                for (d, slot) in slots.iter().enumerate() {
                    if let Some(entry) = slot {
                        assert_eq!(p.shared_prefix(id, *entry), row as u32);
                        assert_eq!(p.digit(*entry, row as u32), d);
                    }
                }
            }
        }
    }

    #[test]
    fn ownership_matches_chord_semantics() {
        // Both backends must assign every key to the same node, or the
        // middleware's puts and gets would diverge across substrates.
        let space = IdSpace::new(32);
        let ids: Vec<ChordId> = (0..40u64).map(|i| space.hash_str(&format!("n{i}"))).collect();
        let p = PastryNet::new(space, ids.iter().copied());
        let c = crate::ring::Ring::with_nodes(space, ids.iter().copied());
        for i in 0..200u64 {
            let key = space.reduce(i.wrapping_mul(104_729));
            assert_eq!(p.ideal_successor(key), c.ideal_successor(key));
        }
    }

    #[test]
    fn single_node_overlay() {
        let space = IdSpace::new(32);
        let p = PastryNet::new(space, [42]);
        let l = p.route(42, 7);
        assert_eq!(l.owner, 42);
        assert_eq!(l.hops(), 0);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn odd_bit_width_panics() {
        let _ = PastryNet::new(IdSpace::new(30), [1]);
    }
}
