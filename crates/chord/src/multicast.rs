//! Key-range multicast (§IV-C, §VI-B).
//!
//! No classical DHT natively multicasts to a *range* of keys, so the paper
//! builds it out of the successor primitive:
//!
//! * **Sequential**: route the message to the lowest key of the range; every
//!   receiving node delivers locally and forwards to its successor until the
//!   range is covered. Message-optimal but serial — propagation depth grows
//!   with the number of covered nodes.
//! * **Bidirectional**: route to the *middle* key and forward both ways
//!   (requires a predecessor primitive). Same message count, roughly half
//!   the propagation depth — the §VI-B improvement.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::id::{ChordId, IdSpace};
use crate::router::ContentRouter;
use dsi_trace::{Cursor, MsgId, Tracer};
use serde::{Deserialize, Serialize};

/// How a range multicast propagates once it reaches the range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RangeStrategy {
    /// §IV-C: enter at the lowest key, forward successor-wise.
    Sequential,
    /// §VI-B: enter at the middle key, forward in both directions.
    Bidirectional,
}

/// One delivery of a range multicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The node that received the message.
    pub node: ChordId,
    /// Overlay hops from the origin until this node received it
    /// (routing hops plus forwarding-chain depth).
    pub hops: u32,
}

/// The full plan of a range multicast: who receives the message and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulticastPlan {
    /// Node that issued the multicast.
    pub origin: ChordId,
    /// Node at which the routed message entered the range.
    pub entry: ChordId,
    /// Hops of the initial point routing (origin → entry).
    pub route_hops: u32,
    /// Deliveries, in the order the protocol reaches them.
    pub deliveries: Vec<Delivery>,
    /// Forwarding messages exchanged between covering nodes
    /// (the "internal" messages of Fig. 7).
    pub forward_messages: u32,
    /// The initial routing path (origin .. entry inclusive).
    pub route_path: Vec<ChordId>,
}

impl MulticastPlan {
    /// Total overlay messages: routing hops plus internal forwards.
    #[inline]
    pub fn total_messages(&self) -> u32 {
        self.route_hops + self.forward_messages
    }

    /// Propagation depth: hops until the *last* node is reached.
    #[inline]
    pub fn max_hops(&self) -> u32 {
        self.deliveries.iter().map(|d| d.hops).max().unwrap_or(self.route_hops)
    }

    /// The set of covered nodes.
    pub fn nodes(&self) -> Vec<ChordId> {
        self.deliveries.iter().map(|d| d.node).collect()
    }

    /// The forwarding edges between covering nodes: each delivery (other
    /// than the entry) receives the message from its ring-adjacent neighbor
    /// one hop earlier. Works for both strategies because deliveries are in
    /// ring order with per-node depths.
    pub fn forward_edges(&self) -> Vec<(ChordId, ChordId)> {
        self.iter_forward_edges().collect()
    }

    /// [`MulticastPlan::forward_edges`] without the `Vec`, for the per-MBR
    /// billing path.
    pub fn iter_forward_edges(&self) -> impl Iterator<Item = (ChordId, ChordId)> + '_ {
        self.deliveries.windows(2).filter_map(|pair| {
            let (a, b) = (pair[0], pair[1]);
            if b.hops == a.hops + 1 {
                Some((a.node, b.node))
            } else if a.hops == b.hops + 1 {
                Some((b.node, a.node))
            } else {
                debug_assert!(false, "adjacent deliveries must differ by one hop");
                None
            }
        })
    }

    /// [`MulticastPlan::forward_edges`] annotated with the *absolute* hop
    /// depth at which each receiver gets the message, sorted by that depth.
    ///
    /// `forward_edges` yields edges in ring order, which for bidirectional
    /// plans can mention a sender before the edge that reached it; sorting
    /// by receiver depth restores causal order, so a consumer replaying the
    /// forwards always knows the sender's position in the chain before the
    /// edge departs from it.
    pub fn causal_forwards(&self) -> Vec<(ChordId, ChordId, u32)> {
        let mut forwards: Vec<(ChordId, ChordId, u32)> = self
            .forward_edges()
            .into_iter()
            .map(|(from, to)| {
                #[expect(
                    clippy::expect_used,
                    reason = "plan construction adds a delivery per edge target"
                )]
                let hops = self
                    .deliveries
                    .iter()
                    .find(|d| d.node == to)
                    .expect("forward edges point at deliveries")
                    .hops;
                (from, to, hops)
            })
            .collect();
        forwards.sort_by_key(|&(_, _, hops)| hops);
        forwards
    }

    /// Record this plan into `tracer` as one causal tree: the initial
    /// routing as a `base`/`transit` chain (hop count logged at the tail,
    /// mirroring `Metrics::record_route` + `record_hops(base, route_hops)`),
    /// then every covering-set forward as an `internal`-class hop whose
    /// depth equals the delivery's absolute hop count (mirroring
    /// `record_message(internal, ..)` + `record_hops(internal, d.hops)`).
    /// Classes are `MsgClass::index()` values; `[lo, hi]` is the targeted
    /// key range, kept as multicast metadata for the delivery-set oracle.
    ///
    /// Returns the root record id, or `None` when the tracer is disabled.
    pub fn trace_into(
        &self,
        tracer: &mut Tracer,
        base: u8,
        transit: u8,
        internal: u8,
        lo: ChordId,
        hi: ChordId,
    ) -> Option<MsgId> {
        let root = self.trace_tree_into(tracer, base, transit, internal)?;
        tracer.push_multicast(root, self.origin, lo, hi);
        Some(root)
    }

    /// The causal-tree half of [`MulticastPlan::trace_into`]: records the
    /// routing chain and every forward, but does **not** register the
    /// multicast metadata with the tracer. Degraded plans (a failover that
    /// skipped unreachable members) use this so the trace-replay audit's
    /// delivery-set check — which asserts a multicast reached *exactly* the
    /// brute-force owner set — only audits complete multicasts.
    pub fn trace_tree_into(
        &self,
        tracer: &mut Tracer,
        base: u8,
        transit: u8,
        internal: u8,
    ) -> Option<MsgId> {
        if !tracer.is_enabled() {
            return None;
        }
        let rt = tracer.route(&self.route_path, base, transit, true)?;
        let mut reached: Vec<(ChordId, Cursor)> = vec![(self.entry, rt.tail)];
        for (from, to, _) in self.causal_forwards() {
            #[expect(clippy::expect_used, reason = "forwards are emitted in causal order by build")]
            let parent = reached
                .iter()
                .find(|(node, _)| *node == from)
                .map(|(_, c)| *c)
                .expect("causal forwards visit senders before their edges");
            let cur = tracer.hop(parent, internal, from, to, Some(internal));
            reached.push((to, cur));
        }
        Some(rt.root)
    }
}

/// All nodes covering some key in the clockwise range `[lo, hi]`, in ring
/// order starting at `successor(lo)`.
///
/// A node `n` covers the keys `(predecessor(n), n]`, so the covering set is
/// `successor(lo)` and every node from there up to and including
/// `successor(hi)`: one walk of [`ContentRouter::ids_from`].
pub fn covering_nodes<R: ContentRouter>(ring: &R, lo: ChordId, hi: ChordId) -> Vec<ChordId> {
    take_cover(ring.space(), lo, hi, ring.ids_from(lo))
}

/// [`covering_nodes`] restricted to what `origin` can currently reach: the
/// same walk with the other side of a partition filtered out. On a whole
/// network this returns exactly `covering_nodes(ring, lo, hi)`.
pub fn covering_nodes_from<R: ContentRouter>(
    ring: &R,
    origin: ChordId,
    lo: ChordId,
    hi: ChordId,
) -> Vec<ChordId> {
    take_cover(ring.space(), lo, hi, ring.ids_from(lo).filter(|&n| ring.reachable(origin, n)))
}

/// The prefix of a ring-order walk from `successor(lo)` that covers
/// `[lo, hi]`: every id up to and including the first at or past `hi`
/// (clockwise from `lo`), or the whole walk when none is — the range wraps
/// past every node.
fn take_cover(
    space: IdSpace,
    lo: ChordId,
    hi: ChordId,
    walk: impl Iterator<Item = ChordId>,
) -> Vec<ChordId> {
    let width = space.distance_cw(lo, hi);
    let mut out = Vec::new();
    for id in walk {
        out.push(id);
        if space.distance_cw(lo, id) >= width {
            break;
        }
    }
    out
}

/// Plans a multicast of one message from `origin` to every node covering a
/// key in `[lo, hi]`.
///
/// During a network partition the member set is `origin`-side only
/// ([`covering_nodes_from`]): a multicast can only place payloads on nodes
/// its origin can reach, so cross-side members are simply absent from the
/// plan. On a whole network this is byte-identical to the global covering
/// set.
///
/// # Panics
/// Panics if the ring is empty or `origin` is not a live node.
pub fn multicast<R: ContentRouter>(
    ring: &R,
    origin: ChordId,
    lo: ChordId,
    hi: ChordId,
    strategy: RangeStrategy,
) -> MulticastPlan {
    assert!(!ring.is_empty(), "cannot multicast over an empty ring");
    let members = covering_nodes_from(ring, origin, lo, hi);
    match strategy {
        RangeStrategy::Sequential => {
            let route = ring.route(origin, lo);
            let route_hops = route.hops();
            let entry = route.owner;
            // Requires a side-consistent ring: whole, or split with each
            // side locally stabilized. (A ring healed without re-probing —
            // the negative-control fork — routes elsewhere and must use
            // the failover path instead.)
            debug_assert_eq!(entry, members[0]);
            let deliveries = members
                .iter()
                .enumerate()
                .map(|(i, &node)| Delivery { node, hops: route_hops + i as u32 })
                .collect::<Vec<_>>();
            MulticastPlan {
                origin,
                entry,
                route_hops,
                forward_messages: (members.len() - 1) as u32,
                deliveries,
                route_path: route.path,
            }
        }
        RangeStrategy::Bidirectional => {
            let mid_key = ring.space().midpoint(lo, hi);
            let route = ring.route(origin, mid_key);
            let route_hops = route.hops();
            let entry = route.owner;
            #[expect(
                clippy::expect_used,
                reason = "members = covering_nodes(lo..hi) and mid_key is inside"
            )]
            let entry_idx = members
                .iter()
                .position(|&n| n == entry)
                .expect("successor of a key inside the range covers the range");
            let deliveries = members
                .iter()
                .enumerate()
                .map(|(i, &node)| {
                    let depth = (i as i64 - entry_idx as i64).unsigned_abs() as u32;
                    Delivery { node, hops: route_hops + depth }
                })
                .collect::<Vec<_>>();
            MulticastPlan {
                origin,
                entry,
                route_hops,
                forward_messages: (members.len() - 1) as u32,
                deliveries,
                route_path: route.path,
            }
        }
    }
}

/// Which kind of hop a failover multicast is attempting (see
/// [`multicast_with_failover`]'s `judge` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// The initial point routing from the origin to an entry candidate.
    Route,
    /// A covering-set forward between ring neighbors.
    Forward,
}

/// What the reliability layer decided about one attempted hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// The hop succeeded (possibly after retries); the target is reached.
    Deliver,
    /// The hop succeeded but its payload effect is parked in a delay queue;
    /// the target still propagates the multicast onward.
    DeliverLate,
    /// The retry budget was exhausted (or the target is unreachable); the
    /// plan must route around the target.
    Fail,
}

/// Result of a failover-aware range multicast: the achieved plan plus the
/// degradation bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverOutcome {
    /// The achieved propagation plan, or `None` when no entry candidate was
    /// reachable at all (total loss).
    pub plan: Option<MulticastPlan>,
    /// Covering members the plan could not reach, in ring order.
    pub skipped: Vec<ChordId>,
    /// Reached members whose delivery effect is parked for late re-delivery.
    pub late: Vec<ChordId>,
    /// Fraction of the key range `[lo, hi]` owned by reached members
    /// (1.0 when `skipped` is empty, 0.0 on total loss).
    pub coverage: f64,
}

impl FailoverOutcome {
    /// Whether every covering member was reached (late deliveries count:
    /// the message arrived, only its local effect is deferred).
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty() && self.plan.is_some()
    }
}

/// Fraction of the clockwise key range `[lo, hi]` owned by the `reached`
/// subset of `members` (the covering set in ring order). Member `i` owns
/// the arc from just past member `i - 1` (or `lo` for the first) up to its
/// own identifier (or `hi` for the last).
fn covered_fraction<R: ContentRouter>(
    ring: &R,
    members: &[ChordId],
    reached: &[bool],
    lo: ChordId,
    hi: ChordId,
) -> f64 {
    let space = ring.space();
    let total = space.distance_cw(lo, hi) as f64 + 1.0;
    let mut covered = 0.0;
    for (i, &m) in members.iter().enumerate() {
        if !reached[i] {
            continue;
        }
        let start = if i == 0 { lo } else { space.add(members[i - 1], 1) };
        let end = if i == members.len() - 1 { hi } else { m };
        covered += space.distance_cw(start, end) as f64 + 1.0;
    }
    (covered / total).min(1.0)
}

/// Fraction of the clockwise key range `[lo, hi]` owned by covering members
/// that `origin` can currently reach — the honest dissemination coverage of
/// a partition-degraded multicast. Always 1.0 on a whole network.
pub fn reachable_fraction<R: ContentRouter>(
    ring: &R,
    origin: ChordId,
    lo: ChordId,
    hi: ChordId,
) -> f64 {
    let members = covering_nodes(ring, lo, hi);
    if members.is_empty() {
        return 0.0;
    }
    let reached: Vec<bool> = members.iter().map(|&n| ring.reachable(origin, n)).collect();
    covered_fraction(ring, &members, &reached, lo, hi)
}

/// Plans a multicast from `origin` to every node covering a key in
/// `[lo, hi]`, routing around unreachable members via the ring's successor
/// order: when `judge` fails a hop, the sender skips the dead member and
/// forwards directly to the next covering member (its next live successor
/// within the range), preserving the covering-set property for every
/// reachable member.
///
/// `judge(from, to, kind)` is consulted once per attempted hop — the
/// reliability layer's retry/ack state machine lives behind it — in a
/// deterministic order: entry candidates first (the strategy's preferred
/// entry, then the remaining members ring-ascending from it, then
/// ring-descending below it), then the forward chain upward from the entry,
/// then (bidirectional only) the chain downward. With a judge that always
/// returns [`HopOutcome::Deliver`], the achieved plan is identical to
/// [`multicast`]'s.
///
/// # Panics
/// Panics if the ring is empty or `origin` is not a live node.
pub fn multicast_with_failover<R: ContentRouter>(
    ring: &R,
    origin: ChordId,
    lo: ChordId,
    hi: ChordId,
    strategy: RangeStrategy,
    judge: &mut dyn FnMut(ChordId, ChordId, HopKind) -> HopOutcome,
) -> FailoverOutcome {
    assert!(!ring.is_empty(), "cannot multicast over an empty ring");
    let members = covering_nodes(ring, lo, hi);
    let mut late = Vec::new();

    // Preferred entry: the strategy's usual target key.
    let preferred_key = match strategy {
        RangeStrategy::Sequential => lo,
        RangeStrategy::Bidirectional => ring.space().midpoint(lo, hi),
    };
    let preferred = ring.route(origin, preferred_key);
    // On a whole, converged ring the route owner of a key inside `[lo, hi]`
    // is always a covering member. Under a partition (or on a fork healed
    // without re-probing) the side-filtered route can overshoot the range;
    // entry failover then simply starts from the first covering member —
    // with a fresh point routing, because the overshot preferred route ends
    // at a node that is not that member (reusing it would yield a plan whose
    // route tail disagrees with `entry`, breaking the causal trace).
    let e0 = members.iter().position(|&n| n == preferred.owner);
    let start = e0.unwrap_or(0);

    // Entry failover: try the preferred member, then the rest ring-ascending
    // from it, then ring-descending below it. Each candidate is a fresh
    // point routing.
    let mut entry_choice: Option<(usize, crate::ring::Lookup)> = None;
    let candidates = (start..members.len()).chain((0..start).rev());
    for i in candidates {
        let route = if Some(i) == e0 { preferred.clone() } else { ring.route(origin, members[i]) };
        // Even a hop the judge delivers cannot enter through a member the
        // overlay's routing state does not terminate at (a fork left by a
        // heal without re-probe misroutes the message to `route.owner`
        // instead). The judge is still consulted — the message was sent and
        // its loss randomness spent — but the candidacy fails. On a whole
        // ring a member always owns its own identifier, so this never fires.
        let terminates = route.owner == members[i];
        match judge(origin, members[i], HopKind::Route) {
            HopOutcome::Deliver if terminates => {
                entry_choice = Some((i, route));
                break;
            }
            HopOutcome::DeliverLate if terminates => {
                late.push(members[i]);
                entry_choice = Some((i, route));
                break;
            }
            HopOutcome::Deliver | HopOutcome::DeliverLate | HopOutcome::Fail => {}
        }
    }

    let Some((entry_idx, route)) = entry_choice else {
        // Total loss: no covering member was reachable within budget.
        return FailoverOutcome { plan: None, skipped: members, late, coverage: 0.0 };
    };

    let route_hops = route.hops();
    let entry = members[entry_idx];
    let mut reached = vec![false; members.len()];
    let mut hops = vec![0u32; members.len()];
    reached[entry_idx] = true;
    hops[entry_idx] = route_hops;

    // Forward chain(s): on a failed hop the sender stays put and tries the
    // next member in that direction — one extra successor-list hop, so the
    // receiver's depth still grows by exactly one per *successful* forward.
    let mut walk_dir = |indices: Vec<usize>,
                        reached: &mut Vec<bool>,
                        hops: &mut Vec<u32>,
                        late: &mut Vec<ChordId>| {
        let mut cur = entry_idx;
        for i in indices {
            match judge(members[cur], members[i], HopKind::Forward) {
                HopOutcome::Deliver => {
                    reached[i] = true;
                    hops[i] = hops[cur] + 1;
                    cur = i;
                }
                HopOutcome::DeliverLate => {
                    late.push(members[i]);
                    reached[i] = true;
                    hops[i] = hops[cur] + 1;
                    cur = i;
                }
                HopOutcome::Fail => {}
            }
        }
    };
    match strategy {
        RangeStrategy::Sequential => {
            walk_dir((entry_idx + 1..members.len()).collect(), &mut reached, &mut hops, &mut late);
        }
        RangeStrategy::Bidirectional => {
            walk_dir((entry_idx + 1..members.len()).collect(), &mut reached, &mut hops, &mut late);
            walk_dir((0..entry_idx).rev().collect(), &mut reached, &mut hops, &mut late);
        }
    }

    let deliveries: Vec<Delivery> = members
        .iter()
        .enumerate()
        .filter(|&(i, _)| reached[i])
        .map(|(i, &node)| Delivery { node, hops: hops[i] })
        .collect();
    let skipped: Vec<ChordId> =
        members.iter().enumerate().filter(|&(i, _)| !reached[i]).map(|(_, &node)| node).collect();
    let coverage = covered_fraction(ring, &members, &reached, lo, hi);
    let forward_messages = (deliveries.len() - 1) as u32;
    FailoverOutcome {
        plan: Some(MulticastPlan {
            origin,
            entry,
            route_hops,
            deliveries,
            forward_messages,
            route_path: route.path,
        }),
        skipped,
        late,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    fn figure_ring() -> Ring {
        // The paper's running example ring: m = 5, nodes {1,8,11,14,20,23}.
        Ring::with_nodes(IdSpace::new(5), [1, 8, 11, 14, 20, 23])
    }

    #[test]
    fn covering_matches_figure2_range() {
        // §IV-C: "a message sent to range ... need to be delivered to N14(?),
        // N20 and N23" — concretely, range [12, 22] is covered by N14
        // (keys 12..14), N20 (15..20) and N23 (21..22).
        let ring = figure_ring();
        assert_eq!(covering_nodes(&ring, 12, 22), vec![14, 20, 23]);
    }

    #[test]
    fn covering_single_key() {
        let ring = figure_ring();
        assert_eq!(covering_nodes(&ring, 17, 17), vec![20]);
        assert_eq!(covering_nodes(&ring, 20, 20), vec![20]);
        assert_eq!(covering_nodes(&ring, 21, 21), vec![23]);
    }

    #[test]
    fn covering_wraps_around_zero() {
        let ring = figure_ring();
        // Range [30, 2] wraps: covered by N1 (keys 24..=1) and N8 (2..8).
        assert_eq!(covering_nodes(&ring, 30, 2), vec![1, 8]);
    }

    #[test]
    fn covering_full_circle() {
        let ring = figure_ring();
        // A range that spans almost the whole circle covers every node.
        let all = covering_nodes(&ring, 2, 1);
        assert_eq!(all.len(), ring.len());
    }

    #[test]
    fn every_key_in_range_is_covered_and_nothing_extra() {
        let ring = figure_ring();
        let space = ring.space();
        for lo in 0..32u64 {
            for width in 0..12u64 {
                let hi = space.add(lo, width);
                let members = covering_nodes(&ring, lo, hi);
                // Every key in [lo, hi] is owned by a member.
                for d in 0..=width {
                    let key = space.add(lo, d);
                    let owner = ring.ideal_successor(key).unwrap();
                    assert!(members.contains(&owner), "key {key} of [{lo},{hi}] uncovered");
                }
                // Every member owns at least one key in [lo, hi].
                for &mem in &members {
                    let pred = ring.ideal_predecessor(mem).unwrap();
                    let owns_some = (0..=width).any(|d| {
                        let key = space.add(lo, d);
                        space.in_half_open(pred, key, mem)
                    });
                    assert!(owns_some, "member {mem} of [{lo},{hi}] covers no key");
                }
            }
        }
    }

    #[test]
    fn sequential_depths_are_consecutive() {
        let ring = figure_ring();
        let plan = multicast(&ring, 8, 12, 22, RangeStrategy::Sequential);
        assert_eq!(plan.nodes(), vec![14, 20, 23]);
        assert_eq!(plan.entry, 14);
        let base = plan.route_hops;
        let depths: Vec<u32> = plan.deliveries.iter().map(|d| d.hops - base).collect();
        assert_eq!(depths, vec![0, 1, 2]);
        assert_eq!(plan.forward_messages, 2);
        assert_eq!(plan.max_hops(), base + 2);
    }

    #[test]
    fn bidirectional_enters_in_middle() {
        let ring = figure_ring();
        // Range [12, 22]: midpoint 17 → entry N20; N14 and N23 at depth 1.
        let plan = multicast(&ring, 8, 12, 22, RangeStrategy::Bidirectional);
        assert_eq!(plan.entry, 20);
        assert_eq!(plan.nodes(), vec![14, 20, 23]);
        let base = plan.route_hops;
        let depth_of =
            |n: ChordId| plan.deliveries.iter().find(|d| d.node == n).unwrap().hops - base;
        assert_eq!(depth_of(20), 0);
        assert_eq!(depth_of(14), 1);
        assert_eq!(depth_of(23), 1);
        assert_eq!(plan.forward_messages, 2);
    }

    #[test]
    fn bidirectional_halves_depth_on_wide_ranges() {
        let space = IdSpace::new(16);
        let ids: Vec<ChordId> = (0..128u64).map(|i| i * 512 + 7).collect();
        let ring = Ring::with_nodes(space, ids);
        let (lo, hi) = (1000u64, 30_000u64);
        let seq = multicast(&ring, 7, lo, hi, RangeStrategy::Sequential);
        let bid = multicast(&ring, 7, lo, hi, RangeStrategy::Bidirectional);
        assert_eq!(seq.nodes().len(), bid.nodes().len());
        let seq_depth = seq.max_hops() - seq.route_hops;
        let bid_depth = bid.max_hops() - bid.route_hops;
        assert!(seq_depth >= 20, "range should span many nodes, got {seq_depth}");
        assert!(
            bid_depth <= seq_depth / 2 + 1,
            "bidirectional depth {bid_depth} not about half of {seq_depth}"
        );
        // Same message efficiency.
        assert_eq!(seq.forward_messages, bid.forward_messages);
    }

    #[test]
    fn strategies_deliver_identical_sets() {
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..40u64).map(|i| i * 97 + 13).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        for &(lo, hi) in &[(0u64, 500u64), (3000, 3500), (3900, 200), (100, 100)] {
            let mut a = multicast(&ring, ids[0], lo, hi, RangeStrategy::Sequential).nodes();
            let mut b = multicast(&ring, ids[5], lo, hi, RangeStrategy::Bidirectional).nodes();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "range [{lo},{hi}]");
        }
    }

    #[test]
    fn forward_edges_sequential_chain() {
        let ring = figure_ring();
        let plan = multicast(&ring, 8, 12, 22, RangeStrategy::Sequential);
        assert_eq!(plan.forward_edges(), vec![(14, 20), (20, 23)]);
    }

    #[test]
    fn forward_edges_bidirectional_fan() {
        let ring = figure_ring();
        let plan = multicast(&ring, 8, 12, 22, RangeStrategy::Bidirectional);
        // Entry N20 forwards to predecessor N14 and successor N23.
        let mut edges = plan.forward_edges();
        edges.sort_unstable();
        assert_eq!(edges, vec![(20, 14), (20, 23)]);
    }

    #[test]
    fn forward_edge_count_matches_forward_messages() {
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..40u64).map(|i| i * 97 + 13).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        for strat in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
            let plan = multicast(&ring, ids[0], 100, 2000, strat);
            assert_eq!(plan.forward_edges().len() as u32, plan.forward_messages);
        }
    }

    #[test]
    fn total_messages_accounts_route_and_forwards() {
        let ring = figure_ring();
        let plan = multicast(&ring, 1, 12, 22, RangeStrategy::Sequential);
        assert_eq!(plan.total_messages(), plan.route_hops + 2);
    }

    #[test]
    fn causal_forwards_sorted_by_depth_and_sender_reached_first() {
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..40u64).map(|i| i * 97 + 13).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        for strat in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
            let plan = multicast(&ring, ids[0], 100, 2000, strat);
            let forwards = plan.causal_forwards();
            assert_eq!(forwards.len() as u32, plan.forward_messages);
            let mut reached = vec![plan.entry];
            let mut last_hops = plan.route_hops;
            for (from, to, hops) in forwards {
                assert!(hops >= last_hops, "forwards must be depth-sorted");
                assert!(reached.contains(&from), "sender {from} not yet reached");
                let d = plan.deliveries.iter().find(|d| d.node == to).unwrap();
                assert_eq!(d.hops, hops);
                reached.push(to);
                last_hops = hops;
            }
            // Every delivery except the entry was reached by a forward.
            assert_eq!(reached.len(), plan.deliveries.len());
        }
    }

    #[test]
    fn failover_with_lossless_judge_matches_multicast() {
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..40u64).map(|i| i * 97 + 13).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        for strat in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
            for &(lo, hi) in &[(0u64, 500u64), (3000, 3500), (3900, 200), (100, 100)] {
                let plain = multicast(&ring, ids[3], lo, hi, strat);
                let out = multicast_with_failover(&ring, ids[3], lo, hi, strat, &mut |_, _, _| {
                    HopOutcome::Deliver
                });
                assert_eq!(out.plan.as_ref(), Some(&plain), "[{lo},{hi}] {strat:?}");
                assert!(out.skipped.is_empty());
                assert!(out.late.is_empty());
                assert_eq!(out.coverage, 1.0);
                assert!(out.is_complete());
            }
        }
    }

    #[test]
    fn failover_routes_around_a_dead_forward_target() {
        let ring = figure_ring();
        // Range [12, 22] covers {14, 20, 23}; kill every hop into N20.
        let mut out = multicast_with_failover(
            &ring,
            8,
            12,
            22,
            RangeStrategy::Sequential,
            &mut |_, to, _| {
                if to == 20 {
                    HopOutcome::Fail
                } else {
                    HopOutcome::Deliver
                }
            },
        );
        let plan = out.plan.take().expect("entry reachable");
        assert_eq!(plan.entry, 14);
        assert_eq!(plan.nodes(), vec![14, 23]);
        assert_eq!(out.skipped, vec![20]);
        // N23 is reached directly from N14 (one successor-list hop).
        let depth: Vec<u32> = plan.deliveries.iter().map(|d| d.hops - plan.route_hops).collect();
        assert_eq!(depth, vec![0, 1]);
        assert_eq!(plan.forward_edges(), vec![(14, 23)]);
        assert_eq!(plan.forward_messages, 1);
        // Arcs: N14 owns [12,14] (3 keys), N20 [15,20] (6), N23 [21,22] (2).
        let expect = (3.0 + 2.0) / 11.0;
        assert!((out.coverage - expect).abs() < 1e-12, "coverage {}", out.coverage);
        assert!(!out.is_complete());
    }

    #[test]
    fn failover_entry_falls_back_to_next_member() {
        let ring = figure_ring();
        // Bidirectional entry for [12, 22] is N20 (midpoint 17); fail the
        // initial routing into it, so the entry falls forward to N23 and the
        // plan walks back 23 → 20 → 14 over successor-list forwards.
        let mut routed_entries = Vec::new();
        let out = multicast_with_failover(
            &ring,
            8,
            12,
            22,
            RangeStrategy::Bidirectional,
            &mut |_, to, kind| {
                if kind == HopKind::Route {
                    routed_entries.push(to);
                    if to == 20 {
                        return HopOutcome::Fail;
                    }
                }
                HopOutcome::Deliver
            },
        );
        assert_eq!(routed_entries, vec![20, 23]);
        let plan = out.plan.expect("fallback entry reachable");
        assert_eq!(plan.entry, 23);
        assert_eq!(plan.nodes(), vec![14, 20, 23]);
        let depth_of = |n: ChordId| {
            plan.deliveries.iter().find(|d| d.node == n).unwrap().hops - plan.route_hops
        };
        assert_eq!(depth_of(23), 0);
        assert_eq!(depth_of(20), 1);
        assert_eq!(depth_of(14), 2);
        assert!(out.skipped.is_empty());
        assert_eq!(out.coverage, 1.0);
        assert_eq!(plan.forward_edges().len() as u32, plan.forward_messages);
    }

    #[test]
    fn failover_total_loss_degrades_to_empty_plan() {
        let ring = figure_ring();
        let out =
            multicast_with_failover(&ring, 8, 12, 22, RangeStrategy::Sequential, &mut |_, _, _| {
                HopOutcome::Fail
            });
        assert!(out.plan.is_none());
        assert_eq!(out.skipped, vec![14, 20, 23]);
        assert_eq!(out.coverage, 0.0);
        assert!(!out.is_complete());
    }

    #[test]
    fn failover_late_deliveries_still_propagate() {
        let ring = figure_ring();
        let out = multicast_with_failover(
            &ring,
            8,
            12,
            22,
            RangeStrategy::Sequential,
            &mut |_, to, _| {
                if to == 20 {
                    HopOutcome::DeliverLate
                } else {
                    HopOutcome::Deliver
                }
            },
        );
        assert!(out.is_complete());
        let plan = out.plan.expect("entry reachable");
        // N20's payload is parked, but it still forwards the multicast on,
        // so the chain and the covering set are intact.
        assert_eq!(plan.nodes(), vec![14, 20, 23]);
        assert_eq!(out.late, vec![20]);
        assert!(out.skipped.is_empty());
        assert_eq!(out.coverage, 1.0);
    }

    #[test]
    fn degraded_plans_keep_forward_edge_invariants() {
        // Sweep drop patterns and check the achieved plan still satisfies
        // the structural invariants downstream consumers rely on.
        let space = IdSpace::new(12);
        let ids: Vec<ChordId> = (0..40u64).map(|i| i * 97 + 13).collect();
        let ring = Ring::with_nodes(space, ids.clone());
        for strat in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
            for kill in 0u64..8 {
                let out =
                    multicast_with_failover(&ring, ids[0], 100, 2000, strat, &mut |_, to, _| {
                        if to % 8 == kill {
                            HopOutcome::Fail
                        } else {
                            HopOutcome::Deliver
                        }
                    });
                let Some(plan) = out.plan else { continue };
                assert_eq!(plan.forward_edges().len() as u32, plan.forward_messages);
                assert_eq!(plan.forward_messages as usize, plan.deliveries.len() - 1);
                // causal_forwards must reach every non-entry delivery.
                assert_eq!(plan.causal_forwards().len(), plan.deliveries.len() - 1);
                assert!((0.0..=1.0).contains(&out.coverage));
                if out.skipped.is_empty() {
                    assert_eq!(out.coverage, 1.0);
                } else {
                    assert!(out.coverage < 1.0);
                }
            }
        }
    }

    #[test]
    fn partition_overshoot_entry_route_terminates_at_the_entry() {
        // Side 0 = {1, 8}, side 1 = {11, 14, 20, 23}. From N1 the
        // side-filtered route of the bidirectional midpoint of [2, 21]
        // (key 11) overshoots every covering member and lands back on N1
        // itself — entry failover must then route the first member (N8)
        // afresh, so the plan's route tail agrees with its entry (the
        // causal-trace audit asserts forwards depart from the route tail).
        let mut ring = figure_ring();
        ring.split([(11, 1), (14, 1), (20, 1), (23, 1)]);
        for _ in 0..4 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        let out = multicast_with_failover(
            &ring,
            1,
            2,
            21,
            RangeStrategy::Bidirectional,
            &mut |from, to, _| {
                if ring.reachable(from, to) {
                    HopOutcome::Deliver
                } else {
                    HopOutcome::Fail
                }
            },
        );
        let plan = out.plan.expect("a same-side member is reachable");
        assert_eq!(plan.entry, 8);
        assert_eq!(plan.route_path.last(), Some(&plan.entry));
        assert_eq!(plan.nodes(), vec![8]);
        assert_eq!(out.skipped, vec![11, 14, 20, 23]);
        assert!(out.coverage < 1.0);
    }

    #[test]
    fn fork_misrouted_entry_candidate_is_not_reached() {
        // Heal without re-probe leaves a persistent fork: from N23, key 0
        // still routes to the forked island successor N8 even though N1 owns
        // it globally. A judge-delivered hop into N1 must not count — the
        // message physically lands on N8 — so the multicast degrades to
        // total loss rather than claiming an entry its route never reached.
        let mut ring = figure_ring();
        ring.split([(8, 1), (14, 1), (23, 1)]);
        for _ in 0..4 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        ring.heal(false);
        for _ in 0..6 {
            ring.stabilize_round();
            ring.fix_fingers_round();
        }
        assert!(!ring.is_fully_consistent(), "the fork must persist");
        assert_eq!(ring.route(23, 0).owner, 8);
        let mut judged = 0;
        let out =
            multicast_with_failover(&ring, 23, 0, 0, RangeStrategy::Sequential, &mut |_, _, _| {
                judged += 1;
                HopOutcome::Deliver
            });
        // The message was sent (loss randomness spent) but the candidacy
        // failed, and no plan pretends otherwise.
        assert_eq!(judged, 1);
        assert!(out.plan.is_none());
        assert_eq!(out.skipped, vec![1]);
        assert_eq!(out.coverage, 0.0);
    }

    #[test]
    fn trace_into_builds_one_tree_per_multicast() {
        let ring = figure_ring();
        let mut tracer = Tracer::disabled();
        let plan = multicast(&ring, 8, 12, 22, RangeStrategy::Bidirectional);
        assert!(plan.trace_into(&mut tracer, 0, 2, 1, 12, 22).is_none());

        tracer.enable(256);
        let root = plan.trace_into(&mut tracer, 0, 2, 1, 12, 22).unwrap();
        // Records: route (1 origin + route_hops hops) + one hop per forward.
        assert_eq!(
            tracer.len() as u32,
            1 + plan.route_hops + plan.forward_messages,
            "one record per overlay message plus the origin"
        );
        // Forward receivers sit at their delivery's absolute depth and are
        // marked as internal-class hop-log points.
        for d in plan.deliveries.iter().filter(|d| d.node != plan.entry) {
            let rec = tracer.iter().find(|r| r.class == 1 && r.to == d.node).unwrap();
            assert_eq!(rec.depth, d.hops);
            assert_eq!(rec.hops_class, Some(1));
        }
        let meta = &tracer.multicasts()[0];
        assert_eq!((meta.root, meta.origin, meta.lo, meta.hi), (root, 8, 12, 22));
        dsi_trace::validate_causality(tracer.iter()).unwrap();
    }
}
