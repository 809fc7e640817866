//! The generic content-based routing interface (§II-B).
//!
//! The paper's middleware deliberately depends only on the standard DHT
//! surface — "join and leave operations", "send operation to send a message
//! to a destination determined by the given key", plus the successor
//! primitive that range multicast is built from — so that it "can be used on
//! top of virtually any existing content-based routing implementation".
//! This trait is that surface; [`crate::ring::Ring`] (Chord) and
//! [`crate::pastry::PastryNet`] both implement it, and the middleware is
//! generic over it.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::id::{ChordId, IdSpace};
use crate::ring::Lookup;

/// A key-based routing substrate over the `m`-bit identifier circle.
pub trait ContentRouter {
    /// The identifier space.
    fn space(&self) -> IdSpace;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// True if no nodes are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `id` is a live node.
    fn contains(&self, id: ChordId) -> bool;

    /// All live node identifiers in ring order.
    fn node_ids(&self) -> Vec<ChordId>;

    /// Every live node identifier once, in ring order starting at `key`'s
    /// successor (so the first item is `ideal_successor(key)`).
    fn ids_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_
    where
        Self: Sized;

    /// Ground truth: the node owning `key` (its successor on the circle).
    fn ideal_successor(&self, key: ChordId) -> Option<ChordId>;

    /// Ground truth: the last node strictly before `key` on the circle.
    fn ideal_predecessor(&self, key: ChordId) -> Option<ChordId>;

    /// The node's believed immediate successor (ring-order neighbor).
    fn successor_of(&self, id: ChordId) -> ChordId;

    /// True while a network partition currently divides the overlay.
    /// Routers without a partition model are always whole.
    fn partitioned(&self) -> bool {
        false
    }

    /// True when a message from `a` can currently reach `b`. Always true
    /// for routers without a partition model.
    fn reachable(&self, _a: ChordId, _b: ChordId) -> bool {
        true
    }

    /// Ground truth restricted to what `origin` can reach: the owner of
    /// `key` on `origin`'s side of a partition. Falls back to the global
    /// [`ContentRouter::ideal_successor`] on whole networks.
    fn ideal_successor_from(&self, _origin: ChordId, key: ChordId) -> Option<ChordId> {
        self.ideal_successor(key)
    }

    /// Ground truth restricted to what `origin` can reach: the last node
    /// strictly before `key` on `origin`'s side of a partition. Falls back
    /// to the global [`ContentRouter::ideal_predecessor`] on whole networks.
    fn ideal_predecessor_from(&self, _origin: ChordId, key: ChordId) -> Option<ChordId> {
        self.ideal_predecessor(key)
    }

    /// Routes a message from `from` toward `key` through the overlay,
    /// returning the owner and the full hop path (for latency accounting).
    fn route(&self, from: ChordId, key: ChordId) -> Lookup;
}

impl ContentRouter for crate::ring::Ring {
    fn space(&self) -> IdSpace {
        crate::ring::Ring::space(self)
    }

    fn len(&self) -> usize {
        crate::ring::Ring::len(self)
    }

    fn contains(&self, id: ChordId) -> bool {
        crate::ring::Ring::contains(self, id)
    }

    fn node_ids(&self) -> Vec<ChordId> {
        crate::ring::Ring::node_ids(self)
    }

    fn ids_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_ {
        crate::ring::Ring::ids_from(self, key)
    }

    fn ideal_successor(&self, key: ChordId) -> Option<ChordId> {
        crate::ring::Ring::ideal_successor(self, key)
    }

    fn ideal_predecessor(&self, key: ChordId) -> Option<ChordId> {
        crate::ring::Ring::ideal_predecessor(self, key)
    }

    fn successor_of(&self, id: ChordId) -> ChordId {
        crate::ring::Ring::successor_of(self, id)
    }

    fn partitioned(&self) -> bool {
        crate::ring::Ring::partitioned(self)
    }

    fn reachable(&self, a: ChordId, b: ChordId) -> bool {
        crate::ring::Ring::reachable(self, a, b)
    }

    fn ideal_successor_from(&self, origin: ChordId, key: ChordId) -> Option<ChordId> {
        crate::ring::Ring::ideal_successor_from(self, origin, key)
    }

    fn ideal_predecessor_from(&self, origin: ChordId, key: ChordId) -> Option<ChordId> {
        crate::ring::Ring::ideal_predecessor_from(self, origin, key)
    }

    fn route(&self, from: ChordId, key: ChordId) -> Lookup {
        self.lookup(from, key)
    }
}

/// Routers that can be constructed from a membership list (used by the
/// middleware to bootstrap a simulated deployment on any backend).
pub trait BuildRouter: ContentRouter + Sized {
    /// Builds a fully-converged overlay over `ids`.
    fn build(space: IdSpace, ids: &[ChordId]) -> Self;
}

impl BuildRouter for crate::ring::Ring {
    fn build(space: IdSpace, ids: &[ChordId]) -> Self {
        crate::ring::Ring::with_nodes(space, ids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    #[test]
    fn ring_implements_router_consistently() {
        let space = IdSpace::new(8);
        let ring = <Ring as BuildRouter>::build(space, &[10, 60, 120, 200]);
        let r: &dyn ContentRouter = &ring;
        assert_eq!(r.len(), 4);
        assert!(r.contains(60));
        assert_eq!(r.ideal_successor(70), Some(120));
        assert_eq!(r.ideal_predecessor(10), Some(200));
        assert_eq!(r.successor_of(200), 10);
        let l = r.route(10, 130);
        assert_eq!(l.owner, 200);
        assert_eq!(*l.path.first().unwrap(), 10);
        assert_eq!(*l.path.last().unwrap(), 200);
    }
}
