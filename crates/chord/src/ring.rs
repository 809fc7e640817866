//! The Chord ring: node state, finger tables, and the iterative lookup of
//! §II-B.1.
//!
//! This is a *simulator-grade* Chord, like the one the paper evaluates on:
//! the `Ring` holds the global membership (so ground truth is always
//! available for assertions), while `lookup` walks finger tables exactly the
//! way the protocol routes, returning the full hop path so the network
//! simulator can charge per-hop latency.
//!
//! The membership is two ring-ordered columns — a sorted `Vec<ChordId>` and
//! the parallel `Vec<NodeState>` — so liveness probes and ground-truth
//! successor / predecessor queries are binary searches over one contiguous
//! id column; only churn (`join` / `leave` / `crash`) pays an O(N) shift.

use crate::id::{ChordId, IdSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default successor-list length (fault tolerance depth).
pub const DEFAULT_SUCCESSOR_LIST_LEN: usize = 4;

/// Routing state of a single Chord node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeState {
    /// This node's identifier.
    pub id: ChordId,
    /// `fingers[i]` is the node believed to be `successor(id + 2^i)`.
    pub fingers: Vec<ChordId>,
    /// Successor list: `successors[0]` is the immediate successor.
    pub successors: Vec<ChordId>,
    /// Believed predecessor.
    pub predecessor: Option<ChordId>,
    /// Suspicion list: peers that stopped answering when a partition cut
    /// them off. Stabilization timed them out of the live tables, but they
    /// are remembered (not forgotten) so [`Ring::heal`] can re-probe them
    /// and re-knit the full ring instead of serving a fork forever.
    pub suspects: Vec<ChordId>,
}

impl NodeState {
    /// A node that knows nobody yet.
    fn empty(id: ChordId) -> Self {
        NodeState {
            id,
            fingers: Vec::new(),
            successors: Vec::new(),
            predecessor: None,
            suspects: Vec::new(),
        }
    }
}

/// Result of an iterative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lookup {
    /// Node that owns (is the successor of) the key.
    pub owner: ChordId,
    /// Nodes visited, starting at the querying node and ending at the owner.
    pub path: Vec<ChordId>,
}

impl Lookup {
    /// Number of overlay messages the lookup needed.
    #[inline]
    pub fn hops(&self) -> u32 {
        (self.path.len().saturating_sub(1)) as u32
    }
}

/// A simulated Chord ring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ring {
    space: IdSpace,
    /// Live node identifiers, ascending (= ring order from key 0).
    ids: Vec<ChordId>,
    /// `states[i]` is the routing state of node `ids[i]`.
    states: Vec<NodeState>,
    succ_list_len: usize,
    /// Active network partition: node id → side index. Empty when the
    /// network is whole (the common case); unlisted nodes are side 0.
    /// While non-empty, protocol traffic (lookups, stabilization, joins)
    /// only flows between nodes on the same side.
    sides: BTreeMap<ChordId, u8>,
}

impl Ring {
    /// Creates an empty ring over the given identifier space.
    pub fn new(space: IdSpace) -> Self {
        Ring {
            space,
            ids: Vec::new(),
            states: Vec::new(),
            succ_list_len: DEFAULT_SUCCESSOR_LIST_LEN,
            sides: BTreeMap::new(),
        }
    }

    /// Creates a ring from explicit node identifiers and builds exact
    /// routing state for all of them.
    pub fn with_nodes<I: IntoIterator<Item = ChordId>>(space: IdSpace, ids: I) -> Self {
        let mut ring = Ring::new(space);
        for id in ids {
            ring.insert_raw(id);
        }
        ring.rebuild_all();
        ring
    }

    /// The identifier space.
    #[inline]
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if there are no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// True if `id` is a live node.
    #[inline]
    pub fn contains(&self, id: ChordId) -> bool {
        self.slot(id).is_some()
    }

    /// Column position of a live node.
    #[inline]
    fn slot(&self, id: ChordId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// All live node identifiers in ring order, without allocating.
    /// Hot loops (stabilization, oracles, benches) should prefer this over
    /// [`Ring::node_ids`].
    pub fn iter_ids(&self) -> impl Iterator<Item = ChordId> + '_ {
        self.ids.iter().copied()
    }

    /// Every live node identifier once, in ring order starting at `key`'s
    /// successor: the id column read from `key`'s rank, then wrapped.
    pub fn ids_from(&self, key: ChordId) -> impl Iterator<Item = ChordId> + '_ {
        let (before, from) = self.ids.split_at(self.rank(key));
        from.iter().chain(before).copied()
    }

    /// All live node identifiers in ring order, collected.
    pub fn node_ids(&self) -> Vec<ChordId> {
        self.ids.clone()
    }

    /// Read access to a node's routing state.
    pub fn node(&self, id: ChordId) -> Option<&NodeState> {
        self.slot(id).map(|i| &self.states[i])
    }

    /// The state of a node that must be live.
    #[inline]
    fn state(&self, id: ChordId) -> &NodeState {
        self.node(id).unwrap_or_else(|| panic!("node {id} is not a live node"))
    }

    #[inline]
    fn state_mut(&mut self, id: ChordId) -> Option<&mut NodeState> {
        self.slot(id).map(|i| &mut self.states[i])
    }

    /// Number of live identifiers strictly below `key`: the column position
    /// of `key`'s ground-truth successor (`len()` means "wrap to the first").
    #[inline]
    fn rank(&self, key: ChordId) -> usize {
        self.ids.partition_point(|&n| n < key)
    }

    /// Inserts `state` at its ring position (replacing a same-id state).
    /// Returns whether the id was new.
    fn insert_state(&mut self, state: NodeState) -> bool {
        match self.ids.binary_search(&state.id) {
            Ok(i) => {
                self.states[i] = state;
                false
            }
            Err(i) => {
                self.ids.insert(i, state.id);
                self.states.insert(i, state);
                true
            }
        }
    }

    /// Removes a node from both columns.
    fn remove_state(&mut self, id: ChordId) -> Option<NodeState> {
        let i = self.slot(id)?;
        self.ids.remove(i);
        Some(self.states.remove(i))
    }

    /// Inserts a node with empty routing state (no finger computation).
    /// Callers must follow with [`Ring::rebuild_all`] or [`Ring::join`].
    pub fn insert_raw(&mut self, id: ChordId) -> bool {
        assert!(id < self.space.modulus(), "node id outside identifier space");
        self.insert_state(NodeState::empty(id))
    }

    // ------------------------------------------------------------------
    // Network partitions (§VII robustness extension)
    // ------------------------------------------------------------------

    /// True while a network partition is in force.
    #[inline]
    pub fn partitioned(&self) -> bool {
        !self.sides.is_empty()
    }

    /// The partition side `id` sits on (0 when unlisted or un-partitioned).
    #[inline]
    pub fn side(&self, id: ChordId) -> u8 {
        self.sides.get(&id).copied().unwrap_or(0)
    }

    /// True when a message from `a` can reach `b` under the current
    /// partition (always true when the network is whole).
    #[inline]
    pub fn reachable(&self, a: ChordId, b: ChordId) -> bool {
        self.sides.is_empty() || self.side(a) == self.side(b)
    }

    /// The true successor of `key` *as seen from `origin`'s side*: the
    /// first node at or after `key` (clockwise) that `origin` can reach.
    /// Equals [`Ring::ideal_successor`] when the network is whole.
    pub fn ideal_successor_from(&self, origin: ChordId, key: ChordId) -> Option<ChordId> {
        if self.sides.is_empty() {
            return self.ideal_successor(key);
        }
        let side = self.side(origin);
        self.ids_from(key).find(|&id| self.side(id) == side)
    }

    /// The true predecessor of `key` as seen from `origin`'s side.
    pub fn ideal_predecessor_from(&self, origin: ChordId, key: ChordId) -> Option<ChordId> {
        if self.sides.is_empty() {
            return self.ideal_predecessor(key);
        }
        let side = self.side(origin);
        let (before, from) = self.ids.split_at(self.rank(key));
        before.iter().rev().chain(from.iter().rev()).copied().find(|&id| self.side(id) == side)
    }

    /// Splits the network into islands. `assignment` maps node ids to side
    /// indices; live nodes not listed fall on side 0.
    ///
    /// Models the first suspicion round after the cut: every node's
    /// cross-side pointers time out, are parked on its suspicion list, and
    /// are dropped from the live tables (fingers are left in place — they
    /// are filtered at use and rewritten by `fix_fingers_round`). Callers
    /// run stabilization afterwards so each island converges to a
    /// consistent sub-ring.
    pub fn split<I: IntoIterator<Item = (ChordId, u8)>>(&mut self, assignment: I) {
        self.sides = assignment.into_iter().collect();
        let sides = &self.sides;
        for state in &mut self.states {
            let my_side = sides.get(&state.id).copied().unwrap_or(0);
            let cut = |peer: ChordId| sides.get(&peer).copied().unwrap_or(0) != my_side;

            let mut suspects: Vec<ChordId> = Vec::new();
            for &f in state.fingers.iter().filter(|&&f| cut(f)) {
                suspects.push(f);
            }
            suspects.extend(state.successors.iter().copied().filter(|&s| cut(s)));
            if let Some(p) = state.predecessor {
                if cut(p) {
                    suspects.push(p);
                    state.predecessor = None;
                }
            }
            suspects.sort_unstable();
            suspects.dedup();
            state.suspects = suspects;
            state.successors.retain(|&s| !cut(s));
        }
    }

    /// Heals the partition. With `reprobe` set (the protocol's behavior),
    /// every node re-contacts its suspicion list: dead suspects are
    /// discarded, the live suspect closest after the node (and inside its
    /// current successor gap) is re-adopted as the immediate successor, and
    /// a better predecessor is re-adopted likewise. Follow-up stabilization
    /// rounds then re-knit the full ring.
    ///
    /// With `reprobe` unset (the negative control: stabilization disabled),
    /// suspects are simply forgotten — each island keeps serving its forked
    /// sub-ring and the ring never reconverges to the global ground truth.
    pub fn heal(&mut self, reprobe: bool) {
        self.sides.clear();
        // Membership does not change below, so column positions are stable.
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let suspects = std::mem::take(&mut self.states[i].suspects);
            if !reprobe {
                continue;
            }
            let succ = self.successor_of(id);
            // Best live suspect strictly between us and our current
            // successor becomes the new immediate successor.
            let adopted = suspects
                .iter()
                .copied()
                .filter(|&s| self.contains(s) && self.space.in_open(id, s, succ))
                .min_by_key(|&s| self.space.distance_cw(id, s));
            if let Some(s) = adopted {
                let state = &mut self.states[i];
                state.successors.insert(0, s);
                state.successors.dedup();
                state.successors.truncate(self.succ_list_len);
            }
            // A live suspect closer behind us than the believed predecessor
            // is re-adopted too (speeds up the backward re-knit).
            let cur_pred = self.predecessor_of(id);
            let better_pred = suspects
                .iter()
                .copied()
                .filter(|&p| {
                    self.contains(p)
                        && match cur_pred {
                            Some(q) => self.space.in_open(q, p, id),
                            None => p != id,
                        }
                })
                .min_by_key(|&p| self.space.distance_cw(p, id));
            if let Some(p) = better_pred {
                self.states[i].predecessor = Some(p);
            }
        }
    }

    // ------------------------------------------------------------------
    // Ground truth (global view)
    // ------------------------------------------------------------------

    /// The true successor of `key`: the first live node whose identifier is
    /// equal to or follows `key` on the circle.
    pub fn ideal_successor(&self, key: ChordId) -> Option<ChordId> {
        self.ids.get(self.rank(key)).or_else(|| self.ids.first()).copied()
    }

    /// The true predecessor of `key` (the last node strictly before it).
    pub fn ideal_predecessor(&self, key: ChordId) -> Option<ChordId> {
        match self.rank(key) {
            0 => self.ids.last().copied(),
            i => Some(self.ids[i - 1]),
        }
    }

    /// The node's believed immediate successor (first live *reachable*
    /// successor-list entry, falling back to ground truth on the node's own
    /// side when the whole list died).
    pub fn successor_of(&self, id: ChordId) -> ChordId {
        self.successor_in(self.state(id))
    }

    /// [`Ring::successor_of`] for a node whose state is already in hand.
    fn successor_in(&self, state: &NodeState) -> ChordId {
        let id = state.id;
        for &s in &state.successors {
            if self.contains(s) && self.reachable(id, s) {
                return s;
            }
        }
        // The entire successor list failed — model Chord's (expensive)
        // re-join recovery by consulting the ring directly.
        self.ideal_successor_from(id, self.space.add(id, 1)).expect("ring is non-empty")
    }

    /// The node's believed predecessor if it is still alive and reachable.
    pub fn predecessor_of(&self, id: ChordId) -> Option<ChordId> {
        self.state(id).predecessor.filter(|p| self.contains(*p) && self.reachable(id, *p))
    }

    /// Rebuilds exact fingers, successor lists and predecessors for every
    /// node from the global view (what a fully converged network holds).
    pub fn rebuild_all(&mut self) {
        let m = self.space.bits() as usize;
        let n = self.ids.len();
        for i in 0..n {
            let id = self.ids[i];
            let fingers: Vec<ChordId> = (0..m)
                .map(|b| {
                    let start = self.space.add(id, 1u64 << b);
                    self.ideal_successor(start).expect("non-empty")
                })
                .collect();
            let mut successors = Vec::with_capacity(self.succ_list_len);
            let mut cur = id;
            for _ in 0..self.succ_list_len.min(n.saturating_sub(1)).max(1) {
                cur = self.ideal_successor(self.space.add(cur, 1)).expect("non-empty");
                successors.push(cur);
                if cur == id {
                    break;
                }
            }
            let predecessor = self.ideal_predecessor(id);
            let state = &mut self.states[i];
            state.fingers = fingers;
            state.successors = successors;
            state.predecessor = predecessor;
        }
    }

    // ------------------------------------------------------------------
    // Iterative lookup (the protocol)
    // ------------------------------------------------------------------

    /// Finds the node preceding `key` most closely in `state`'s routing
    /// tables (fingers + successor list), skipping dead entries. The
    /// interval test runs first: it rejects most table entries without
    /// touching the membership column.
    fn closest_preceding(&self, state: &NodeState, key: ChordId) -> ChordId {
        let from = state.id;
        let usable = |n: ChordId| {
            self.space.in_open(from, n, key) && self.contains(n) && self.reachable(from, n)
        };
        let tables = state.fingers.iter().rev().chain(state.successors.iter().rev());
        tables.copied().find(|&n| usable(n)).unwrap_or(from)
    }

    /// Iterative Chord lookup from `from` for `key`, following finger tables
    /// (§II-B.1, Fig. 1(b)). Returns the owner and the full hop path.
    ///
    /// # Panics
    /// Panics if `from` is not a live node or the ring is empty.
    pub fn lookup(&self, from: ChordId, key: ChordId) -> Lookup {
        let Some(mut state) = self.node(from) else {
            panic!("lookup origin {from} is not a live node")
        };
        // Converged tables need about log2(N) / 2 hops; reserving log2(N)
        // covers nearly every path without regrowth.
        let mut path = Vec::with_capacity(self.ids.len().ilog2() as usize + 2);
        path.push(from);
        // Bound: with sane tables each hop at least halves the clockwise
        // distance; the generous bound catches inconsistent mid-churn state.
        let budget = 2 * self.space.bits() as usize + self.ids.len() + 2;
        for _ in 0..budget {
            // `state` is the current hop's node, resolved once per hop.
            let cur = state.id;
            let succ = self.successor_in(state);
            if self.space.in_half_open(cur, key, succ) {
                if succ != cur {
                    path.push(succ);
                }
                return Lookup { owner: succ, path };
            }
            let next = self.closest_preceding(state, key);
            let next = if next == cur { succ } else { next };
            if next == cur {
                // Single-node ring.
                return Lookup { owner: cur, path };
            }
            path.push(next);
            state = self.state(next);
        }
        // Tables too stale to terminate — fall back to ground truth on the
        // querying node's side, charging the hops walked so far (models a
        // flooding-recovery resolution, which cannot cross the partition).
        let owner = self.ideal_successor_from(from, key).expect("non-empty");
        if *path.last().expect("path starts at the querying node") != owner {
            path.push(owner);
        }
        Lookup { owner, path }
    }

    // ------------------------------------------------------------------
    // Churn
    // ------------------------------------------------------------------

    /// A new node joins via `bootstrap`: its successor is found with a real
    /// lookup, its fingers are initialized with lookups, and its successor is
    /// notified. Other nodes' state stays stale until stabilization.
    ///
    /// # Panics
    /// Panics if `bootstrap` is dead or `id` already exists.
    pub fn join(&mut self, id: ChordId, bootstrap: ChordId) {
        assert!(self.contains(bootstrap), "bootstrap node must be alive");
        assert!(!self.contains(id), "node {id} already in ring");
        assert!(id < self.space.modulus(), "node id outside identifier space");

        // A node joining during a partition can only see its bootstrap's
        // side, so it lands on the same island.
        if self.partitioned() {
            let side = self.side(bootstrap);
            self.sides.insert(id, side);
        }
        let m = self.space.bits() as usize;
        let succ = self.lookup(bootstrap, id).owner;
        let fingers: Vec<ChordId> =
            (0..m).map(|i| self.lookup(bootstrap, self.space.add(id, 1u64 << i)).owner).collect();
        let mut successors = vec![succ];
        if let Some(s) = self.node(succ) {
            successors.extend(s.successors.iter().copied().filter(|&x| self.reachable(id, x)));
        }
        successors.truncate(self.succ_list_len);
        self.insert_state(NodeState { fingers, successors, ..NodeState::empty(id) });
        // notify(successor): the new node may be its better predecessor.
        let better = match self.state(succ).predecessor {
            Some(p) => self.space.in_open(p, id, succ) || !self.contains(p),
            None => true,
        };
        if better {
            self.state_mut(succ).expect("successor checked alive above").predecessor = Some(id);
        }
    }

    /// Graceful departure: the node hands its neighbors to each other before
    /// leaving (predecessor's successor pointer and successor's predecessor
    /// pointer are patched).
    pub fn leave(&mut self, id: ChordId) {
        let Some(state) = self.remove_state(id) else { return };
        let succ = state
            .successors
            .iter()
            .copied()
            .find(|s| self.contains(*s) && self.reachable(id, *s))
            .or_else(|| self.ideal_successor_from(id, self.space.add(id, 1)));
        self.sides.remove(&id);
        if let (Some(pred), Some(succ)) = (state.predecessor, succ) {
            if let Some(p) = self.state_mut(pred) {
                if !p.successors.is_empty() {
                    p.successors[0] = succ;
                } else {
                    p.successors.push(succ);
                }
            }
            if let Some(s) = self.state_mut(succ) {
                if s.predecessor == Some(id) {
                    s.predecessor = Some(pred);
                }
            }
        }
    }

    /// Abrupt failure: the node vanishes; everyone else's pointers dangle
    /// until stabilization repairs them.
    pub fn crash(&mut self, id: ChordId) {
        self.remove_state(id);
        self.sides.remove(&id);
    }

    /// One round of the stabilization protocol on every node: verify the
    /// immediate successor (adopting its predecessor if closer), notify, and
    /// refresh the successor list. Returns the number of protocol messages
    /// the round cost (one predecessor probe and one notify per node —
    /// Chord's O(N)-per-round maintenance floor).
    pub fn stabilize_round(&mut self) -> u64 {
        let mut messages = 0u64;
        // Membership does not change within a round, so column positions
        // are stable.
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            messages += 2; // successor.predecessor probe + notify
            let succ = self.successor_in(&self.states[i]);
            // stabilize: ask successor for its predecessor.
            let adopted = match self.predecessor_of(succ) {
                Some(x)
                    if x != id
                        && self.space.in_open(id, x, succ)
                        && self.contains(x)
                        && self.reachable(id, x) =>
                {
                    x
                }
                _ => succ,
            };
            // Refresh the successor list from the adopted successor's list.
            let mut successors = vec![adopted];
            if let Some(s) = self.node(adopted) {
                successors.extend(
                    s.successors
                        .iter()
                        .copied()
                        .filter(|s| self.contains(*s) && self.reachable(id, *s)),
                );
            }
            successors.dedup();
            successors.truncate(self.succ_list_len);
            self.states[i].successors = successors;
            // notify(adopted): we may be its better predecessor.
            if adopted != id {
                let cur_pred = self.node(adopted).and_then(|s| s.predecessor);
                let should_adopt = match cur_pred {
                    None => true,
                    Some(p) if !self.contains(p) || !self.reachable(adopted, p) => true,
                    Some(p) => self.space.in_open(p, id, adopted),
                };
                if should_adopt {
                    self.state_mut(adopted)
                        .expect("adopted successor is a live node")
                        .predecessor = Some(id);
                }
            }
        }
        // Drop dead (or partitioned-away, hence unresponsive) predecessors
        // (Chord's periodic check_predecessor).
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let dead = self.states[i]
                .predecessor
                .is_some_and(|p| !self.contains(p) || !self.reachable(id, p));
            if dead {
                self.states[i].predecessor = None;
            }
        }
        messages
    }

    /// One round of finger refreshing on every node: recompute each finger
    /// entry with a lookup through the *current* (possibly stale) tables.
    /// Returns the total overlay messages (lookup hops) the round cost —
    /// O(N * m * log N) with converged tables.
    pub fn fix_fingers_round(&mut self) -> u64 {
        let mut messages = 0u64;
        let m = self.space.bits() as usize;
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            let mut fingers = Vec::with_capacity(m);
            for b in 0..m {
                let target = self.space.add(id, 1u64 << b);
                let l = self.lookup(id, target);
                messages += l.hops() as u64;
                fingers.push(l.owner);
            }
            self.states[i].fingers = fingers;
        }
        messages
    }

    /// True when every node's successor, predecessor and fingers match the
    /// ground truth of the membership *it can reach*: the global membership
    /// when the network is whole, the node's island while partitioned (each
    /// island must form a consistent sub-ring of its own).
    pub fn is_fully_consistent(&self) -> bool {
        let m = self.space.bits() as usize;
        self.states.iter().all(|state| {
            let id = state.id;
            let peers = if self.sides.is_empty() {
                self.len()
            } else {
                let side = self.side(id);
                self.iter_ids().filter(|&n| self.side(n) == side).count()
            };
            let true_succ = self
                .ideal_successor_from(id, self.space.add(id, 1))
                .expect("a live node can always reach itself");
            if self.successor_in(state) != true_succ {
                return false;
            }
            if peers > 1 && self.predecessor_of(id) != self.ideal_predecessor_from(id, id) {
                return false;
            }
            state.fingers.len() == m
                && state.fingers.iter().enumerate().all(|(i, &f)| {
                    let start = self.space.add(id, 1u64 << i);
                    Some(f) == self.ideal_successor_from(id, start)
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring of paper Fig. 1: m = 5, nodes {1, 8, 11, 14, 20, 23}.
    fn figure1_ring() -> Ring {
        Ring::with_nodes(IdSpace::new(5), [1, 8, 11, 14, 20, 23])
    }

    #[test]
    fn figure1_finger_table_of_n8() {
        // Paper Fig. 1(a): N8's fingers are N11, N11, N14, N20, N1.
        let ring = figure1_ring();
        assert_eq!(ring.node(8).unwrap().fingers, vec![11, 11, 14, 20, 1]);
    }

    #[test]
    fn figure1_finger_table_of_n20() {
        // Paper Fig. 2: N20's fingers are N23, N23, N1, N1, N8.
        let ring = figure1_ring();
        assert_eq!(ring.node(20).unwrap().fingers, vec![23, 23, 1, 1, 8]);
    }

    #[test]
    fn figure1_key_assignment() {
        // Fig. 1(a): K26 -> N1 (wraps), K17 -> N20, K13 -> N14.
        let ring = figure1_ring();
        assert_eq!(ring.ideal_successor(26), Some(1));
        assert_eq!(ring.ideal_successor(17), Some(20));
        assert_eq!(ring.ideal_successor(13), Some(14));
    }

    #[test]
    fn figure1_lookup_26_from_n8() {
        // Fig. 1(b): N8 forwards to N20 (closest preceding), N20 to N23,
        // which finds 26 in (23, 1] and returns N1.
        let ring = figure1_ring();
        let l = ring.lookup(8, 26);
        assert_eq!(l.owner, 1);
        assert_eq!(l.path, vec![8, 20, 23, 1]);
        assert_eq!(l.hops(), 3);
    }

    #[test]
    fn lookup_key_owned_by_self() {
        let ring = figure1_ring();
        // Key 21 lies in (20, 23]: owner N23; from N23's own perspective key
        // 23 lies in (20, 23] as well.
        let l = ring.lookup(23, 23);
        assert_eq!(l.owner, 23);
    }

    #[test]
    fn lookup_matches_ground_truth_everywhere() {
        let ring = figure1_ring();
        for from in ring.iter_ids() {
            for key in 0..32 {
                let l = ring.lookup(from, key);
                assert_eq!(l.owner, ring.ideal_successor(key).unwrap(), "from {from} key {key}");
                // Path starts at origin and ends at owner.
                assert_eq!(*l.path.first().unwrap(), from);
                assert_eq!(*l.path.last().unwrap(), l.owner);
            }
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = Ring::with_nodes(IdSpace::new(6), [17]);
        for key in [0u64, 16, 17, 18, 63] {
            let l = ring.lookup(17, key);
            assert_eq!(l.owner, 17);
            assert_eq!(l.hops(), 0);
        }
    }

    #[test]
    fn lookup_hops_scale_logarithmically() {
        // With correct fingers, average hops should be about (1/2) log2 N.
        let space = IdSpace::new(20);
        let ids: Vec<ChordId> = (0..256u64).map(|i| space.reduce(i * 4099 + 17)).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        let mut total = 0u64;
        let mut count = 0u64;
        for (i, &from) in ids.iter().enumerate().take(64) {
            let key = space.reduce((i as u64) * 104_729 + 3);
            total += ring.lookup(from, key).hops() as u64;
            count += 1;
        }
        let avg = total as f64 / count as f64;
        assert!(avg < 8.5, "average hops {avg} too high for 256 nodes");
        assert!(avg > 1.0, "average hops {avg} implausibly low");
    }

    #[test]
    fn join_then_stabilize_converges() {
        let space = IdSpace::new(10);
        let mut ring = Ring::with_nodes(space, [10, 200, 400, 600, 800]);
        ring.join(300, 10);
        ring.join(500, 200);
        ring.join(950, 800);
        for _ in 0..4 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        assert!(ring.is_fully_consistent());
        // New nodes answer lookups correctly.
        assert_eq!(ring.lookup(300, 450).owner, 500);
        assert_eq!(ring.lookup(950, 999).owner, 10); // wraps
    }

    #[test]
    fn crash_is_repaired_by_stabilization() {
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..32u64).map(|i| i * 113 + 5).collect();
        let mut ring = Ring::with_nodes(space, ids);
        ring.crash(5 + 113 * 7);
        ring.crash(5 + 113 * 20);
        // Lookups still resolve correctly right after the crash (successor
        // lists provide the fault tolerance)...
        let owner = ring.lookup(5, 113 * 7 + 4).owner;
        assert_eq!(owner, ring.ideal_successor(113 * 7 + 4).unwrap());
        // ...and the ring converges back to full consistency.
        for _ in 0..6 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        assert!(ring.is_fully_consistent());
    }

    #[test]
    fn graceful_leave_patches_neighbors() {
        let space = IdSpace::new(8);
        let mut ring = Ring::with_nodes(space, [10, 50, 100, 150, 200]);
        ring.leave(100);
        assert_eq!(ring.successor_of(50), 150);
        assert_eq!(ring.predecessor_of(150), Some(50));
        for _ in 0..3 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        assert!(ring.is_fully_consistent());
    }

    #[test]
    fn ideal_predecessor_wraps() {
        let ring = figure1_ring();
        assert_eq!(ring.ideal_predecessor(1), Some(23));
        assert_eq!(ring.ideal_predecessor(0), Some(23));
        assert_eq!(ring.ideal_predecessor(9), Some(8));
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn lookup_from_dead_node_panics() {
        let ring = figure1_ring();
        let _ = ring.lookup(2, 5);
    }

    #[test]
    fn maintenance_costs_scale_as_expected() {
        let space = IdSpace::new(16);
        let build = |n: u64| Ring::with_nodes(space, (0..n).map(|i| space.reduce(i * 769 + 11)));
        let mut small = build(32);
        let mut large = build(128);
        // Stabilization: exactly 2 messages per node per round.
        assert_eq!(small.stabilize_round(), 64);
        assert_eq!(large.stabilize_round(), 256);
        // Finger fixing: O(N * m * log N); the per-node cost grows with N.
        let cs = small.fix_fingers_round() as f64 / 32.0;
        let cl = large.fix_fingers_round() as f64 / 128.0;
        assert!(cl > cs, "per-node finger maintenance must grow with N: {cs} vs {cl}");
        assert!(cl < cs * 4.0, "growth must stay logarithmic-ish: {cs} vs {cl}");
    }

    #[test]
    fn insert_raw_rejects_out_of_space_ids() {
        let mut ring = Ring::new(IdSpace::new(4));
        assert!(ring.insert_raw(15));
        assert!(!ring.insert_raw(15)); // duplicate
    }

    /// Runs stabilization + finger fixing `rounds` times.
    fn converge(ring: &mut Ring, rounds: usize) {
        for _ in 0..rounds {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
    }

    #[test]
    fn split_islands_converge_to_consistent_subrings() {
        // Interleaved split of the Fig. 1 ring: worst case for re-knitting.
        let mut ring = figure1_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        assert!(ring.partitioned());
        assert_eq!(ring.side(1), 0);
        assert_eq!(ring.side(8), 1);
        // Cross-side pointers were parked on suspicion lists, not forgotten.
        assert!(ring.node(1).unwrap().suspects.contains(&8));
        assert!(ring.node(23).unwrap().suspects.contains(&1));
        converge(&mut ring, 4);
        // Each island is a consistent sub-ring of its own.
        assert!(ring.is_fully_consistent());
        // Lookups resolve against the querying node's island only.
        assert_eq!(ring.lookup(1, 13).owner, 20); // side 0 = {1, 11, 20}
        assert_eq!(ring.lookup(8, 13).owner, 14); // side 1 = {8, 14, 23}
        assert_eq!(ring.ideal_successor_from(1, 13), Some(20));
        assert_eq!(ring.ideal_successor_from(8, 13), Some(14));
        assert_eq!(ring.ideal_predecessor_from(1, 1), Some(20));
    }

    #[test]
    fn heal_with_reprobe_reconverges_to_the_global_ring() {
        let mut ring = figure1_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        converge(&mut ring, 4);
        ring.heal(true);
        assert!(!ring.partitioned());
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
        assert!(ring.node(1).unwrap().suspects.is_empty());
        // Every lookup resolves against the full membership again.
        for from in ring.node_ids() {
            for key in 0..32 {
                assert_eq!(ring.lookup(from, key).owner, ring.ideal_successor(key).unwrap());
            }
        }
    }

    #[test]
    fn heal_without_reprobe_leaves_a_persistent_fork() {
        // Negative control: suspects are forgotten at heal, so stabilization
        // alone never rediscovers the other island.
        let mut ring = figure1_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        converge(&mut ring, 4);
        ring.heal(false);
        converge(&mut ring, 10);
        assert!(!ring.is_fully_consistent());
        // The fork serves wrong owners: key 0 belongs to N1 globally, but
        // N23 still hands it to its forked successor N8.
        assert_eq!(ring.ideal_successor(0), Some(1));
        assert_eq!(ring.lookup(23, 0).owner, 8);
    }

    #[test]
    fn three_island_split_and_heal() {
        let mut ring = figure1_ring();
        ring.split([(11, 1), (14, 1), (20, 2), (23, 2)]); // {1,8} | {11,14} | {20,23}
        converge(&mut ring, 4);
        assert!(ring.is_fully_consistent());
        assert_eq!(ring.successor_of(8), 1);
        assert_eq!(ring.successor_of(14), 11);
        ring.heal(true);
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
    }

    #[test]
    fn single_node_island_survives_split_and_heal() {
        let mut ring = figure1_ring();
        ring.split([(1, 1)]); // N1 alone; everyone else on side 0.
        converge(&mut ring, 4);
        assert!(ring.is_fully_consistent());
        assert_eq!(ring.successor_of(1), 1);
        assert_eq!(ring.lookup(1, 29).owner, 1);
        ring.heal(true);
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
        assert_eq!(ring.successor_of(23), 1);
        assert_eq!(ring.predecessor_of(8), Some(1));
    }

    #[test]
    fn join_during_split_lands_on_bootstraps_island() {
        let mut ring = figure1_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        converge(&mut ring, 4);
        ring.join(15, 8); // bootstrap on side 1
        assert_eq!(ring.side(15), 1);
        converge(&mut ring, 4);
        assert!(ring.is_fully_consistent());
        // The joiner serves on its island...
        assert_eq!(ring.lookup(8, 15).owner, 15);
        // ...and is woven into the global ring after heal.
        ring.heal(true);
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
        assert_eq!(ring.lookup(1, 15).owner, 15);
        assert_eq!(ring.predecessor_of(15), Some(14));
    }

    #[test]
    fn crash_inside_an_island_is_repaired_locally() {
        let mut ring = figure1_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        converge(&mut ring, 4);
        ring.crash(14);
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
        assert_eq!(ring.successor_of(8), 23);
        ring.heal(true);
        converge(&mut ring, 6);
        assert!(ring.is_fully_consistent());
    }
}
