//! Membership and repair: churn (crash / join / re-home), network
//! partitions, virtual-node re-weighting, and the replica rebalancing that
//! restores range replication after any of them.

use super::{Cluster, QueryRuntime};
use crate::datacenter::{DataCenter, StoredMbr};
use crate::load::ReweightAction;
use crate::mapping::{interval_key_range, radius_key_range};
use crate::query::{QueryId, StreamId};
use crate::reliability::PendingEffect;
use dsi_chord::{ChordId, ContentRouter, Ring};
use dsi_simnet::{MsgClass, SimTime};

impl<R: ContentRouter> Cluster<R> {
    // ------------------------------------------------------------------
    // Replica rebalancing (§VII)
    // ------------------------------------------------------------------

    /// Restores the range-replication invariant after a topology change
    /// (§VII): every surviving stored MBR ends up on exactly the covering
    /// set of its Eq. 10 key range (plus its origin while that node lives),
    /// and every registered similarity query is subscribed at every node of
    /// its Eq. 8 radius range. Surviving replicas are the copy source, so
    /// a record vanishes only when *all* of its holders failed — then it is
    /// gone until the soft-state refresh (the next shipment) restores it.
    ///
    /// Runs automatically from the churn operations unless disabled with
    /// [`Cluster::set_churn_repair`]. Copy messages are charged to metrics
    /// as internal MBR / query traffic: one neighbor-to-neighbor hop per
    /// copy, like range forwarding.
    pub fn rebalance_replicas(&mut self) {
        self.rebalance_inner(None);
    }

    /// Reliability-layer repair round (DESIGN.md §12): like
    /// [`Cluster::rebalance_replicas`], but skips records and queries
    /// already expired at `now` — healing a coverage hole must not
    /// resurrect state whose purge the expiry oracle requires — and routes
    /// every copy through the armed fault plan, so a copy lost after
    /// retries leaves the hole for the next round. The fault-injection
    /// harness runs one such round per NPER tick to restore the
    /// no-false-dismissal invariant within its eventual-completeness
    /// budget.
    pub fn repair_coverage(&mut self, now: SimTime) {
        self.rebalance_inner(Some(now));
    }

    fn rebalance_inner(&mut self, filter: Option<SimTime>) {
        // ---- MBR replicas ----
        // One entry per distinct surviving record, with a holder to copy
        // from.
        let mut records: Vec<(StoredMbr, ChordId)> = Vec::new();
        for &n in &self.node_order {
            for s in self.nodes[&n].summaries() {
                if filter.is_some_and(|now| now >= s.expires) {
                    continue;
                }
                if !records.iter().any(|(r, _)| s.matches(r)) {
                    records.push((s.to_stored(), n));
                }
            }
        }
        let mut wants: Vec<Vec<ChordId>> = Vec::with_capacity(records.len());
        for (rec, holder) in &records {
            let (lo_v, hi_v) = rec.mbr.first_interval();
            let (lo, hi) =
                interval_key_range(self.space, lo_v.clamp(-1.0, 1.0), hi_v.clamp(-1.0, 1.0));
            let mut want = dsi_chord::covering_nodes(&self.ring, lo, hi);
            if self.nodes.contains_key(&rec.origin) && !want.contains(&rec.origin) {
                want.push(rec.origin);
            }
            for &n in &want {
                // The want-list stays global: a cross-side hole is
                // suppressed (not healed) while the cut lasts, and the first
                // post-heal repair round closes it (anti-entropy). A copy
                // lost after retries likewise leaves the hole for the next
                // repair round or shipment.
                if !self.nodes[&n].summaries().any(|s| s.matches(rec))
                    && self.send_hop(MsgClass::MbrInternal, *holder, n).arrived()
                {
                    self.node_mut(n).store_mbr_ref(rec);
                }
            }
            wants.push(want);
        }
        for n in self.node_order.clone() {
            self.node_mut(n).retain_mbrs(|s| {
                records.iter().zip(&wants).any(|((r, _), w)| s.matches(r) && w.contains(&n))
            });
        }

        // ---- similarity-query replicas ----
        // The global registry is ground truth for posted queries; nodes
        // newly inside a query's radius range get its subscription. Stale
        // copies outside the range are harmless (aggregation only reads the
        // covering set) and expire with the query.
        let sims: Vec<_> = self
            .queries
            .values()
            .filter_map(|q| match q {
                QueryRuntime::Similarity(sq) if !filter.is_some_and(|now| sq.expired(now)) => {
                    let (lo, hi) = radius_key_range(self.space, sq.feature.first_real(), sq.radius);
                    Some((sq.id, sq.aggregator, lo, hi, sq.expires))
                }
                QueryRuntime::Similarity(_) | QueryRuntime::InnerProduct(_) => None,
            })
            .collect();
        for (id, aggregator, lo, hi, expires) in sims {
            for n in dsi_chord::covering_nodes(&self.ring, lo, hi) {
                if !self.nodes[&n].has_subscription(id)
                    && self.send_hop(MsgClass::QueryInternal, aggregator, n).arrived()
                {
                    self.node_mut(n).subscribe_similarity(id, expires);
                }
            }
        }

        // ---- aggregate-query replicas ----
        // Only the timed repair rounds heal aggregates: a healed replica
        // needs a `since` timestamp (it missed everything before the
        // repair), and churn rebalancing carries no clock. The copy is an
        // empty sketch pushed from the aggregator, charged like any other
        // internal query copy.
        if let Some(now) = filter {
            for i in 0..self.aggregates.len() {
                if self.aggregates[i].query.expired(now) {
                    continue;
                }
                let aggregator = self.aggregates[i].query.aggregator;
                let missing: Vec<ChordId> = self
                    .node_order
                    .iter()
                    .copied()
                    .filter(|&n| self.aggregates[i].slot(n).is_err())
                    .collect();
                let query = self.aggregates[i].query.id;
                for n in missing {
                    // A copy lost after retries leaves the coverage hole
                    // for the next repair round.
                    if self.send_hop(MsgClass::QueryInternal, aggregator, n).arrived() {
                        self.apply(n, &PendingEffect::SubscribeAggregate { query }, now);
                    }
                }
            }
        }
    }
}

impl Cluster<Ring> {
    // ------------------------------------------------------------------
    // Churn (§I, §VII: "accommodates dynamic changes ... without the need
    // to temporarily block the normal system operation") — Chord-specific:
    // it drives the join/crash/stabilization protocol directly.
    // ------------------------------------------------------------------

    /// Abrupt data-center failure. Its routing state and stored replicas
    /// vanish; streams it sourced go silent until re-homed with
    /// [`Cluster::rehome_stream`]. Queries the dead node aggregated are
    /// re-assigned to the new owner of their range's middle key, and
    /// [`Cluster::rebalance_replicas`] (unless disabled) re-establishes
    /// range replication from surviving copies — records whose every holder
    /// died stay gone until the next shipment (soft state).
    ///
    /// # Panics
    /// Panics if `id` is unknown or it is the last data center.
    pub fn crash_node(&mut self, id: ChordId) {
        assert!(self.nodes.contains_key(&id), "unknown data center {id}");
        assert!(self.node_order.len() > 1, "cannot crash the last data center");
        self.ring.crash(id);
        self.ring_generation += 1;
        self.nodes.remove(&id);
        self.node_order.retain(|&n| n != id);
        // A crashed virtual identifier stops counting against its host;
        // virtuals whose *host* crashed fall back to self-attribution.
        self.virtual_of.remove(&id);
        self.location_cache.retain(|_, &mut source| source != id);
        // In-flight delayed effects addressed to the victim die with it.
        self.pending.retain(|p| p.to != id);
        // Chord repairs itself; the middleware keeps operating meanwhile.
        self.stabilize();
        // Re-assign orphaned aggregators, in query-id order so recovery
        // replays byte-identically.
        let fixes: Vec<(QueryId, ChordId)> = self
            .queries
            .iter()
            .filter_map(|(qid, q)| match q {
                QueryRuntime::Similarity(sq) if sq.aggregator == id => {
                    let (lo, hi) = radius_key_range(self.space, sq.feature.first_real(), sq.radius);
                    let mid = self.space.midpoint(lo, hi);
                    // During a partition the replacement aggregator must sit
                    // on the client's side, or responses could never reach it.
                    Some((
                        *qid,
                        self.ring.ideal_successor_from(sq.client, mid).expect("non-empty ring"),
                    ))
                }
                QueryRuntime::Similarity(_) | QueryRuntime::InnerProduct(_) => None,
            })
            .collect();
        for (qid, agg) in fixes {
            if let Some(QueryRuntime::Similarity(sq)) = self.queries.get_mut(&qid) {
                sq.aggregator = agg;
            }
        }
        // The victim's aggregate replicas die with it (their window
        // contribution is simply gone); orphaned aggregate aggregators
        // move to the new owner of their query key. Iteration is id order.
        for a in &mut self.aggregates {
            if let Ok(pos) = a.slot(id) {
                a.replicas.remove(pos);
            }
            if a.query.aggregator == id {
                let key = self.space.hash_str(&format!("aggregate-query-{}", a.query.id));
                a.query.aggregator =
                    self.ring.ideal_successor_from(a.query.client, key).expect("non-empty ring");
            }
        }
        // Re-establish range replication from the surviving replicas.
        if self.repair_on_churn {
            self.rebalance_replicas();
        }
    }

    /// A new data center joins through the Chord protocol (bootstrap = the
    /// first live node) and starts with empty middleware state; summaries
    /// mapping into its interval flow to it from the next MBR shipment on.
    /// Returns its ring identifier.
    ///
    /// # Panics
    /// Panics if the label hashes onto an existing node.
    pub fn join_node(&mut self, label: &str) -> ChordId {
        let id = self.space.hash_str(label);
        assert!(!self.nodes.contains_key(&id), "identifier collision for {label}");
        let bootstrap = self.node_order[0];
        self.ring.join(id, bootstrap);
        self.ring_generation += 1;
        self.stabilize();
        self.nodes.insert(id, DataCenter::new(id));
        self.node_order.push(id);
        // The joiner took over part of its successor's key interval; hand it
        // the replicas (and query subscriptions) it now covers.
        if self.repair_on_churn {
            self.rebalance_replicas();
        }
        id
    }

    /// Streams whose home data center is no longer alive.
    pub fn orphaned_streams(&self) -> Vec<StreamId> {
        self.streams.iter().filter(|s| !self.nodes.contains_key(&s.home)).map(|s| s.id).collect()
    }

    /// Re-homes an orphaned (or migrating) stream to the data center at
    /// `home_idx` and refreshes its location-service record.
    pub fn rehome_stream(&mut self, stream: StreamId, home_idx: usize, now: SimTime) {
        let home = self.node_order[home_idx];
        let old = std::mem::replace(&mut self.streams[stream as usize].home, home);
        if old != home {
            if let Some(list) = self.homed.get_mut(&old) {
                list.retain(|&s| s != stream);
            }
            let list = self.homed.entry(home).or_default();
            list.insert(list.partition_point(|&s| s < stream), stream);
        }
        self.ledger.stamp(now);
        self.put_location_unjudged(stream);
    }

    /// Virtual-node re-weighting: the mitigation lever for Fourier-space
    /// hotspots (correlated streams collapsing onto one arc, §IV-B).
    ///
    /// When armed via [`Cluster::set_reweighting`] and the ledger's
    /// per-host max/mean ratio has exceeded `trip_ratio` for `trip_rounds`
    /// consecutive rounds, the hottest identifier's owned arc
    /// `(pred, hot]` is split by joining `split_into` additional *virtual*
    /// identifiers at evenly spaced points inside it, each attributed (via
    /// the load ledger) to one of the currently coldest physical hosts.
    /// The virtual identifiers are full ring members joined through the
    /// ordinary Chord protocol, so routing and the Eq. 6 covering sets
    /// stay correct by construction; [`Cluster::repair_coverage`] then
    /// hands them the live replicas and subscriptions of their new
    /// intervals without resurrecting expired state.
    ///
    /// No-op (returns `None`) when disarmed, the streak is short, an
    /// action is still cooling down, the action budget is spent, or the
    /// hot arc is too narrow to split. Consumes no RNG.
    pub fn maybe_reweight(&mut self, now: SimTime) -> Option<ReweightAction> {
        let cfg = self.reweight?;
        if self.ring.partitioned() {
            // No re-weighting while the network is split: virtual joins
            // bootstrap through node 0 and would be visible on one side
            // only; the load signal itself is partition-skewed anyway.
            return None;
        }
        if self.reweight_actions.len() >= cfg.max_actions as usize {
            return None;
        }
        let round_idx = self.load_ledger.rounds().len().checked_sub(1)?;
        if let Some(last) = self.reweight_actions.last() {
            if round_idx.saturating_sub(last.round) <= cfg.cooldown_rounds as usize {
                return None;
            }
        }
        if self.load_ledger.hot_streak(cfg.trip_ratio) < cfg.trip_rounds {
            return None;
        }
        let last_round = &self.load_ledger.rounds()[round_idx];
        let hot = last_round.hottest()?.node;
        let hot_host = self.physical_of(hot);
        let pred = self.ring.ideal_predecessor(hot)?;
        if pred == hot {
            // Single-node ring: nothing to split against.
            return None;
        }
        let arc = self.space.distance_cw(pred, hot);
        let step = arc / (cfg.split_into as u64 + 1);
        if step == 0 {
            return None;
        }
        // Coldest physical hosts first (ties toward the lower id), the hot
        // identifier's own host excluded: they receive the new intervals.
        let mut cold: Vec<(ChordId, u64)> = last_round
            .by_host()
            .into_iter()
            .filter(|&(h, _)| h != hot_host && self.nodes.contains_key(&h))
            .collect();
        cold.sort_unstable_by_key(|&(h, m)| (m, h));
        if cold.is_empty() {
            return None;
        }
        let bootstrap = self.node_order[0];
        let mut new_ids = Vec::new();
        let mut hosts = Vec::new();
        for k in 1..=cfg.split_into as u64 {
            let id = self.space.add(pred, step * k);
            if self.nodes.contains_key(&id) {
                continue; // identifier collision: skip this split point
            }
            let host = cold[new_ids.len() % cold.len()].0;
            self.ring.join(id, bootstrap);
            self.ring_generation += 1;
            self.stabilize();
            self.nodes.insert(id, DataCenter::new(id));
            self.node_order.push(id);
            self.virtual_of.insert(id, host);
            new_ids.push(id);
            hosts.push(host);
        }
        if new_ids.is_empty() {
            return None;
        }
        self.ledger.stamp(now);
        // Hand the new identifiers the live state of their intervals; the
        // expiry filter keeps purged records purged.
        self.repair_coverage(now);
        let action = ReweightAction { round: round_idx, hot, new_ids, hosts, time_ms: now.as_ms() };
        self.reweight_actions.push(action.clone());
        Some(action)
    }

    /// Runs stabilization until the ring is fully consistent (bounded).
    /// A no-op when stabilization is disabled (the partition negative
    /// control) — the tables then stay however the last topology event
    /// left them.
    fn stabilize(&mut self) {
        if !self.stabilization_enabled {
            return;
        }
        for _ in 0..24 {
            if self.ring.is_fully_consistent() {
                return;
            }
            self.ring.stabilize_round();
            self.ring.fix_fingers_round();
        }
        debug_assert!(self.ring.is_fully_consistent(), "stabilization did not converge");
    }

    /// Enables or disables the periodic stabilization protocol (enabled by
    /// default). See the `stabilization_enabled` field for why anyone
    /// would turn it off.
    pub fn set_stabilization_enabled(&mut self, enabled: bool) {
        self.stabilization_enabled = enabled;
    }

    /// Splits the network into islands: `islands[k]` lists the data-center
    /// indices (into [`Cluster::node_ids`] order) placed on side `k + 1`;
    /// unlisted nodes (and out-of-range indices, ignored) stay on side 0.
    /// Virtual identifiers follow their physical host's side. Each side
    /// then runs suspicion + stabilization and becomes a self-consistent
    /// sub-ring (unless stabilization is disabled).
    pub fn split_partition(&mut self, islands: &[Vec<usize>]) {
        let mut assignment: Vec<(ChordId, u8)> = Vec::new();
        for (k, island) in islands.iter().enumerate() {
            for &idx in island {
                if let Some(&id) = self.node_order.get(idx) {
                    assignment.push((id, (k + 1) as u8));
                }
            }
        }
        // Virtual identifiers live or die with their host's connectivity.
        for (&v, &host) in &self.virtual_of {
            let side = assignment.iter().find(|&&(id, _)| id == host).map_or(0, |&(_, s)| s);
            if side != 0 && !assignment.iter().any(|&(id, _)| id == v) {
                assignment.push((v, side));
            }
        }
        self.ring.split(assignment);
        self.ring_generation += 1;
        // `Ring::is_fully_consistent` is side-relative, so the ordinary
        // loop converges every island to its own consistent sub-ring.
        self.stabilize();
    }

    /// Heals the partition: every link works again. With `reprobe` each
    /// node re-adopts the best parked suspect and stabilization re-knits
    /// one global ring; without it the suspicion lists are forgotten and
    /// the former islands stay routed apart — the split-brain fork the
    /// post-heal convergence oracle exists to catch.
    pub fn heal_partition(&mut self, reprobe: bool) {
        self.ring.heal(reprobe);
        self.ring_generation += 1;
        if reprobe {
            self.stabilize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed_stream, small_cluster, spec, wave};
    use dsi_simnet::{FaultPlan, SimTime};

    #[test]
    fn repair_coverage_heals_holes_without_resurrecting_expired_state() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        c.set_fault_plan(FaultPlan::uniform(spec(1.0, 0.0, 0.0)), 3);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        // All replicas lost except the home's local store.
        c.set_fault_plan(FaultPlan::uniform(spec(0.0, 0.0, 0.0)), 3);
        assert!(!c.fault_plan_active(), "zero-probability plan is NONE");
        c.set_fault_plan(FaultPlan::uniform(spec(0.2, 0.0, 0.0)), 3);
        // Before expiry, a repair round restores covering-set replication.
        c.repair_coverage(SimTime::from_ms(100));
        c.repair_coverage(SimTime::from_ms(200));
        let total: usize = c.node_ids().iter().map(|&n| c.node(n).mbr_count()).sum();
        assert!(total > c.node(c.streams()[sid as usize].home).mbr_count(), "holes healed");
        // At/after expiry the filtered pass copies nothing.
        let expired_at = SimTime::from_ms(c.config().workload.bspan_ms);
        let mut d = small_cluster(8);
        let sid2 = d.register_stream("s0", 0);
        d.set_fault_plan(FaultPlan::uniform(spec(1.0, 0.0, 0.0)), 3);
        feed_stream(&mut d, sid2, &wave(40, 0.4, 0.0), SimTime::ZERO);
        d.set_fault_plan(FaultPlan::uniform(spec(0.2, 0.0, 0.0)), 3);
        d.repair_coverage(expired_at);
        for &n in d.node_ids() {
            assert_eq!(
                d.node(n).summaries().filter(|s| expired_at >= s.expires).count(),
                0,
                "expired records must not be re-copied"
            );
        }
    }

    #[test]
    fn per_home_stream_lists_track_registration_rehoming_and_crashes() {
        let mut c = small_cluster(6);
        for i in 0..10 {
            c.register_stream(&format!("s{i}"), i % 3);
        }
        c.rehome_stream(7, 0, SimTime::ZERO); // migrates between live homes
        c.rehome_stream(7, 0, SimTime::ZERO); // to where it already is
        let dead = c.node_id(2);
        c.crash_node(dead);
        assert!(!c.homed[&dead].is_empty(), "a dead home keeps its list until re-homing");
        c.rehome_stream(2, 1, SimTime::ZERO);
        // Every list is exactly the ascending scan it replaces.
        let homes: Vec<_> = c.node_ids().iter().copied().chain([dead]).collect();
        for home in homes {
            let scan: Vec<_> =
                c.streams().iter().filter(|s| s.home == home).map(|s| s.id).collect();
            assert_eq!(c.homed.get(&home).cloned().unwrap_or_default(), scan, "home {home}");
        }
    }

    #[test]
    fn split_partition_serves_each_side_with_honest_coverage() {
        let mut c = small_cluster(12);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);

        c.split_partition(&[vec![6, 7, 8, 9, 10, 11]]);
        assert!(c.ring().partitioned());
        assert!(
            c.ring().is_fully_consistent(),
            "each island must converge to a consistent sub-ring"
        );

        // A wide query posted during the split covers the whole circle, so
        // its reachable fraction is exactly what this side owns of it.
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        let qid = c.post_similarity_query(0, target, 10.0, 60_000, SimTime::ZERO);
        let cov = c.query_coverage(qid).expect("partition-time posts record honest coverage");
        assert!(cov > 0.0 && cov < 1.0, "coverage {cov} must be honestly partial");

        // Dissemination stayed on the client's side of the cut.
        let client = c.node_id(0);
        for &n in &c.node_ids().to_vec() {
            if c.node(n).has_subscription(qid) {
                assert!(
                    c.ring().reachable(client, n),
                    "subscription for {qid} teleported across the cut to {n}"
                );
            }
        }

        // The side still answers — with the partial tag on every match.
        c.notify_all(SimTime::from_ms(1000));
        let notes = c.notifications(qid);
        assert!(!notes.is_empty(), "reachable side must keep answering");
        assert!(notes.iter().all(|n| n.coverage < 1.0), "answers must carry the partial tag");

        // Heal with re-probe: one global ring again, and the NPER repair
        // machinery restores full coverage for post-heal posts.
        c.heal_partition(true);
        assert!(!c.ring().partitioned());
        assert!(c.ring().is_fully_consistent(), "heal with re-probe re-knits the global ring");
        c.repair_coverage(SimTime::from_ms(1500));
        let target2 = c.streams()[sid as usize].extractor.window_snapshot();
        let q2 = c.post_similarity_query(0, target2, 10.0, 60_000, SimTime::from_ms(1600));
        assert_eq!(
            c.query_coverage(q2),
            None,
            "whole-network lossless posts record no degradation"
        );
        c.notify_all(SimTime::from_ms(2000));
        let notes2 = c.notifications(q2);
        assert!(!notes2.is_empty());
        assert!(notes2.iter().all(|n| n.coverage == 1.0), "post-heal coverage returns to 1.0");
    }

    #[test]
    fn heal_without_reprobe_leaves_the_fork_stabilization_repairs() {
        // Negative control: stabilization off, heal without re-probing.
        let mut c = small_cluster(10);
        c.set_stabilization_enabled(false);
        c.split_partition(&[vec![5, 6, 7, 8, 9]]);
        c.heal_partition(false);
        assert!(!c.ring().partitioned(), "links are back up");
        assert!(
            !c.ring().is_fully_consistent(),
            "without stabilization the tables must stay forked"
        );

        // The enabled twin on the same topology re-knits completely.
        let mut d = small_cluster(10);
        d.split_partition(&[vec![5, 6, 7, 8, 9]]);
        d.heal_partition(true);
        assert!(d.ring().is_fully_consistent(), "stabilization heals the same split");
    }

    #[test]
    fn mbr_shipments_during_split_stay_island_local() {
        let mut c = small_cluster(12);
        let sid = c.register_stream("s0", 0);
        // Warm up without shipping past the batcher yet.
        feed_stream(&mut c, sid, &wave(16, 0.4, 0.0), SimTime::ZERO);
        c.split_partition(&[vec![6, 7, 8, 9, 10, 11]]);
        let home = c.streams()[sid as usize].home;
        let mut plan = None;
        for &v in wave(16, 0.4, 1.0).iter() {
            if let Some(p) = c.post_value(sid, v, SimTime::from_ms(100)) {
                plan = Some(p);
            }
        }
        let plan = plan.expect("an MBR was shipped during the split");
        for n in plan.nodes() {
            assert!(c.ring().reachable(home, n), "replica teleported across the cut to {n}");
        }
    }
}
