//! The ring's two-column node table against a `BTreeMap` membership model.
//!
//! `Ring` keeps its nodes in a sorted id column with a parallel state
//! column; every ground-truth query is a binary search plus a neighbour
//! index. This drives arbitrary `with_nodes` / `join` / `leave` / `crash` /
//! stabilization / `split` / `heal` sequences over a 6-bit identifier space
//! — small enough to ask about *every* key after *every* step, so
//! wrap-around, `key == node id`, key 0 and `modulus - 1`, one- and two-node
//! rings and a node re-joined at its old id are all hit — and compares each
//! answer with the model's. Whenever the ring reports itself consistent,
//! every lookup must also start at its origin, end at the ground-truth owner
//! and never relay through a node twice.

use dsi_chord::{ChordId, IdSpace, Ring};
use proptest::prelude::*;
use std::collections::BTreeMap;

const BITS: u32 = 6;
const MODULUS: u64 = 1 << BITS;

/// What the ring's membership must look like: every live id, with the
/// partition side it was *listed* on (`None`: unlisted, so side 0). The
/// network is split exactly while some live id is listed.
struct Model {
    live: BTreeMap<ChordId, Option<u8>>,
    /// A split was healed without re-probing: suspects are forgotten, so the
    /// islands may stay routed apart for good (the negative control).
    forked: bool,
}

impl Model {
    fn partitioned(&self) -> bool {
        self.live.values().any(Option::is_some)
    }

    fn side(&self, id: ChordId) -> u8 {
        self.live.get(&id).copied().flatten().unwrap_or(0)
    }

    fn visible(&self, origin: Option<ChordId>, id: ChordId) -> bool {
        match origin {
            Some(o) if self.partitioned() => self.side(o) == self.side(id),
            _ => true,
        }
    }

    fn successor(&self, origin: Option<ChordId>, key: ChordId) -> Option<ChordId> {
        let ring_order = self.live.range(key..).chain(self.live.range(..key));
        ring_order.map(|(&id, _)| id).find(|&id| self.visible(origin, id))
    }

    fn predecessor(&self, origin: Option<ChordId>, key: ChordId) -> Option<ChordId> {
        let backwards = self.live.range(..key).rev().chain(self.live.range(key..).rev());
        backwards.map(|(&id, _)| id).find(|&id| self.visible(origin, id))
    }

    /// The `n`-th live id (wrapping), for picking operands.
    fn pick(&self, n: u64) -> ChordId {
        *self.live.keys().nth(n as usize % self.live.len()).expect("model is never empty")
    }

    /// A joiner sees only its bootstrap's island, so it is listed there.
    fn join(&mut self, id: ChordId, bootstrap: ChordId) {
        let listed = self.partitioned().then(|| self.side(bootstrap));
        self.live.insert(id, listed);
    }
}

fn converge(ring: &mut Ring, rounds: usize) {
    for _ in 0..rounds {
        ring.stabilize_round();
        ring.fix_fingers_round();
    }
}

/// Applies one generated operation to both sides. Operations that do not
/// apply to the current state (joining a live id, removing the last node,
/// splitting a split ring) are skipped on both.
fn step(ring: &mut Ring, model: &mut Model, (op, a, b): (u8, u64, u64)) {
    match op % 8 {
        0 if !model.live.contains_key(&(a % MODULUS)) => {
            let (id, bootstrap) = (a % MODULUS, model.pick(b));
            ring.join(id, bootstrap);
            model.join(id, bootstrap);
        }
        1 if model.live.len() > 1 => {
            let id = model.pick(a);
            ring.leave(id);
            model.live.remove(&id);
        }
        2 if model.live.len() > 1 => {
            let id = model.pick(a);
            ring.crash(id);
            model.live.remove(&id);
        }
        3 => converge(ring, 1),
        4 => converge(ring, 6),
        5 if !model.partitioned() => {
            // Bit `i` of `b` puts the `i`-th live node on side 1; `a`
            // decides whether side-0 nodes are listed explicitly.
            let assignment: Vec<(ChordId, u8)> = model
                .live
                .keys()
                .enumerate()
                .map(|(i, &id)| (id, (b >> (i % 64)) as u8 & 1))
                .filter(|&(_, side)| side == 1 || a % 2 == 0)
                .collect();
            for &(id, side) in &assignment {
                model.live.insert(id, Some(side));
            }
            ring.split(assignment);
        }
        6 => {
            let reprobe = a % 2 == 0;
            ring.heal(reprobe);
            model.forked |= !reprobe && model.partitioned();
            model.live.values_mut().for_each(|listed| *listed = None);
        }
        7 if model.live.len() > 1 => {
            // Gone and back at the same identifier.
            let id = model.pick(a);
            ring.crash(id);
            model.live.remove(&id);
            let bootstrap = model.pick(b);
            ring.join(id, bootstrap);
            model.join(id, bootstrap);
        }
        _ => {}
    }
}

/// Every membership answer the table gives, for every key, against the
/// model; then the lookup contract if the ring is consistent.
fn check(ring: &Ring, model: &Model) -> Result<(), TestCaseError> {
    let live: Vec<ChordId> = model.live.keys().copied().collect();
    prop_assert_eq!(ring.node_ids(), live.clone());
    prop_assert_eq!(ring.iter_ids().collect::<Vec<_>>(), live.clone());
    prop_assert_eq!(ring.len(), live.len());
    prop_assert_eq!(ring.partitioned(), model.partitioned());
    for key in 0..MODULUS {
        let is_live = model.live.contains_key(&key);
        prop_assert_eq!(ring.contains(key), is_live, "contains({})", key);
        // The state column stays parallel to the id column.
        prop_assert_eq!(ring.node(key).map(|s| s.id), is_live.then_some(key));
        prop_assert_eq!(ring.ideal_successor(key), model.successor(None, key), "succ({})", key);
        prop_assert_eq!(ring.ideal_predecessor(key), model.predecessor(None, key), "pred({})", key);
        for &origin in &live {
            prop_assert_eq!(
                ring.ideal_successor_from(origin, key),
                model.successor(Some(origin), key),
                "succ_from({}, {})",
                origin,
                key
            );
            prop_assert_eq!(
                ring.ideal_predecessor_from(origin, key),
                model.predecessor(Some(origin), key),
                "pred_from({}, {})",
                origin,
                key
            );
        }
    }
    for &id in &live {
        prop_assert_eq!(ring.side(id), model.side(id));
    }
    if ring.is_fully_consistent() {
        for &from in &live {
            for key in 0..MODULUS {
                let l = ring.lookup(from, key);
                prop_assert_eq!(l.path[0], from);
                prop_assert_eq!(Some(l.owner), model.successor(Some(from), key));
                prop_assert_eq!(*l.path.last().unwrap(), l.owner);
                // No node relays twice. (The origin may reappear as the
                // final owner: a node asks its ring for keys it owns itself.)
                let mut relays = l.path[..l.path.len() - 1].to_vec();
                relays.sort_unstable();
                relays.dedup();
                prop_assert_eq!(relays.len(), l.path.len() - 1, "lookup({}, {})", from, key);
                prop_assert!(l.owner == from || !relays.contains(&l.owner));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn node_table_agrees_with_a_btreemap_model(
        initial in prop::collection::btree_set(0u64..MODULUS, 1..10),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..28),
    ) {
        let mut ring = Ring::with_nodes(IdSpace::new(BITS), initial.iter().copied());
        let mut model =
            Model { live: initial.iter().map(|&id| (id, None)).collect(), forked: false };
        prop_assert!(ring.is_fully_consistent());
        check(&ring, &model)?;
        for op in ops {
            step(&mut ring, &mut model, op);
            check(&ring, &model)?;
        }
        // Unless a heal threw the suspicion lists away, a re-probed ring
        // re-knits, so the lookup contract is checked on the final
        // membership too.
        step(&mut ring, &mut model, (6, 0, 0));
        converge(&mut ring, 12);
        prop_assert!(model.forked || ring.is_fully_consistent(), "ring did not re-converge");
        check(&ring, &model)?;
    }
}
