//! Periodic processing (NPER): the per-node notify cycle, similarity
//! response aggregation and aggregate-query collection.

use super::send::{Delivery, Dest, QUERY_ROUTE, RESPONSE_ROUTE};
use super::{Cluster, QueryRuntime};
use crate::aggregate::{AggregateKind, AggregateNotification, AggregateValue};
use crate::datacenter::{candidate_radius, DataCenter};
use crate::mapping::radius_key_range;
use crate::query::{InnerProductQuery, MatchNotification, QueryId, SimilarityQuery, StreamId};
use crate::reliability::PendingEffect;
use crate::store::axis_gap;
use dsi_chord::{covering_nodes_from, multicast, reachable_fraction, ChordId, ContentRouter};
use dsi_dsp::normalize;
use dsi_simnet::{InputEvent, MsgClass, SimTime};
use dsi_sketch::EcmSketch;
use std::collections::HashMap;

/// One NPER round's shared candidate scan (DESIGN.md §9): the plan of
/// every live similarity query with its covering set, and one pass per
/// covering shard that feeds all of them at once.
#[derive(Debug, Default)]
pub(super) struct RoundScan {
    /// `(now, ring generation, query generation)` the plan was built for.
    key: Option<(SimTime, u64, u64)>,
    /// The only aggregator that has asked at `key` so far; `Some` means no
    /// plan is built yet (its queries took the per-query probe).
    opener: Option<ChordId>,
    /// Planned queries, ascending id; the columns below share its index.
    ids: Vec<QueryId>,
    /// Feature point and `candidate_radius` of each planned query.
    probes: Vec<(Vec<f64>, f64)>,
    /// Side-aware covering set of each planned query.
    covering: Vec<Vec<ChordId>>,
    /// Candidates found so far, as a bitset over stream ids (grown to the
    /// highest hit); `None` once the query was answered this round.
    hits: Vec<Option<Vec<u64>>>,
    /// Per covering node: the planned queries it serves, and the store
    /// generation its one scan read (`None` until scanned).
    shards: HashMap<ChordId, (Vec<usize>, Option<u64>)>,
}

impl RoundScan {
    /// Reads `dc`'s shard once, in position order, against every pending
    /// query it serves. A record is a candidate for a query iff its box's
    /// `min_dist` to the query point is within `candidate_radius` — the
    /// exact test `collect_candidates` ends in, so each query gets the set
    /// its own per-query probe would.
    fn scan(&mut self, dc: &DataCenter, now: SimTime) {
        let RoundScan { probes, hits, shards, .. } = self;
        let (serves, scanned) = shards.get_mut(&dc.id).expect("planned shard");
        *scanned = Some(dc.store_generation());
        serves.retain(|&i| hits[i].is_some());
        let n = serves.len();
        if n == 0 {
            return;
        }
        // The pending points as axis-major columns: each record is scored
        // against all of them by one branch-free loop per axis, with
        // `min_dist`'s terms summed in its order.
        let dims = probes[serves[0]].0.len();
        let mut columns = vec![0.0; dims * n];
        for (j, &i) in serves.iter().enumerate() {
            let point = &probes[i].0;
            assert_eq!(point.len(), dims, "point dimensionality mismatch");
            for (k, &v) in point.iter().enumerate() {
                columns[k * n + j] = v;
            }
        }
        let mut sums = vec![0.0; n];
        dc.for_each_live(now, |s| {
            assert_eq!(s.dims(), dims, "point dimensionality mismatch");
            sums.fill(0.0);
            for (k, column) in columns.chunks_exact(n).enumerate() {
                let (l, h) = (s.low[k], s.high[k]);
                for (sum, &v) in sums.iter_mut().zip(column) {
                    let d = axis_gap(l, h, v);
                    *sum += d * d;
                }
            }
            let (word, bit) = (s.stream as usize / 64, 1u64 << (s.stream % 64));
            for (&sum, &i) in sums.iter().zip(serves.iter()) {
                if sum.sqrt() <= probes[i].1 {
                    let seen = hits[i].as_mut().expect("pending query");
                    if word >= seen.len() {
                        seen.resize(word + 1, 0);
                    }
                    seen[word] |= bit;
                }
            }
        });
    }
}

impl<R: ContentRouter> Cluster<R> {
    /// Runs one notify cycle for data center `node` at time `now` (§IV-F):
    /// purge expired state, exchange aggregated similarity information with
    /// ring neighbors, and — if this node aggregates any query — verify
    /// candidates and push a response to the client. Inner-product
    /// subscriptions sourced here push their current value.
    pub fn notify_cycle(&mut self, node: ChordId, now: SimTime) {
        if self.tracer.is_enabled() {
            self.tracer.set_now_ms(now.as_ms());
        }
        // Delayed messages re-deliver at the receiver's refresh tick,
        // before this cycle's purge (a late copy of expired state is
        // dropped inside the drain).
        self.drain_pending(node, now);
        let dc = self.node_mut(node);
        dc.purge_expired(now);
        let has_subs = dc.has_active_subscriptions(now);

        // Soft-state location refresh: if churn moved (or lost) the h2
        // record of a stream homed here, re-register it. Free in the steady
        // state; one routed message when the owner changed.
        // The list is lent out for the loop (nothing below edits it).
        let homed = self.homed.get_mut(&node).map(std::mem::take).unwrap_or_default();
        for &sid in &homed {
            let key = self.streams[sid as usize].key;
            // Side-aware: during a partition the stream re-registers with
            // the owner on its *own* side (split-brain serving); the first
            // whole-network refresh after heal re-registers globally — the
            // NPER soft-state rounds double as post-heal anti-entropy.
            let owner = self.ring.ideal_successor_from(node, key).expect("non-empty ring");
            if self.nodes[&owner].location_get(sid) != Some(node) {
                // A refresh lost after retries is retried naturally by the
                // next NPER tick (soft state).
                let (how, _) = self.send_routed(QUERY_ROUTE, node, Dest::Key(key), None);
                let put = PendingEffect::LocationPut { stream: sid, source: node };
                self.deliver(owner, &put, how, now);
            }
        }
        if !homed.is_empty() {
            self.homed.insert(node, homed);
        }

        // Neighbor information exchange: one aggregated message to each ring
        // neighbor per period (component f of Fig. 6(a)).
        if has_subs {
            let succ = self.ring.successor_of(node);
            let pred = self.ring.ideal_predecessor_from(node, node).unwrap_or(succ);
            // A lost exchange only skips the charge: the aggregation model
            // reads the converged in-range state, and the next NPER round
            // repeats the exchange (soft-state redundancy).
            if succ != node {
                self.send_hop(MsgClass::ResponseInternal, node, succ);
            }
            if pred != node && pred != succ {
                self.send_hop(MsgClass::ResponseInternal, node, pred);
            }
        }

        // Response aggregation for queries whose middle node this is.
        let mut aggregated: Vec<SimilarityQuery> = self
            .queries
            .values()
            .filter_map(|q| match q {
                QueryRuntime::Similarity(sq) if sq.aggregator == node && !sq.expired(now) => {
                    Some(sq.clone())
                }
                _ => None,
            })
            .collect();
        // Id order, not HashMap order: response traffic (and its causal
        // trace) must be reproducible under a pinned seed.
        aggregated.sort_unstable_by_key(|q| q.id);
        for q in aggregated {
            let matches = self.aggregate_and_verify(&q, now);
            // Periodic response to the client, routed over the overlay. A
            // client across a partition cut, or a response lost after
            // retries, hears nothing this period; the next NPER cycle (after
            // heal) re-aggregates and resends. The event is charged only
            // when a response actually goes out.
            let (how, _) = self.send_routed(
                RESPONSE_ROUTE,
                node,
                Dest::Node(q.client),
                Some(InputEvent::Response),
            );
            if how == Delivery::Late && !matches.is_empty() {
                // A parked response keeps the query's dissemination-time
                // coverage tag (resolved when it is drained).
                let late = PendingEffect::Notify { query: q.id, matches, at: now };
                self.deliver(q.client, &late, how, now);
            } else if how == Delivery::Now {
                let mut coverage = self.query_coverage.get(&q.id).copied().unwrap_or(1.0);
                if self.ring.partitioned() {
                    // A query disseminated before the split has
                    // subscriptions on both sides, but this aggregator only
                    // hears its own: clamp to what it can reach right now.
                    let (lo, hi) = radius_key_range(self.space, q.feature.first_real(), q.radius);
                    coverage = coverage.min(reachable_fraction(&self.ring, node, lo, hi));
                }
                self.push_matches(q.id, &matches, now, coverage);
            }
        }

        // Aggregate-query collection for queries whose aggregator this is,
        // in id order.
        for i in 0..self.aggregates.len() {
            let q = &self.aggregates[i].query;
            if q.aggregator == node && !q.expired(now) {
                self.collect_one_aggregate(i, now);
            }
        }

        // Inner-product pushes for streams sourced here.
        let mut pushes: Vec<InnerProductQuery> =
            self.nodes[&node].active_ip_subscriptions(now).cloned().collect();
        pushes.sort_unstable_by_key(|q| q.id);
        for q in pushes {
            let s = &self.streams[q.stream as usize];
            if !s.extractor.is_warm() {
                continue;
            }
            let value = q.evaluate_approx(s.extractor.raw_prefix(), self.cfg.workload.window_len);
            // A push suppressed by a cut or lost after retries skips this
            // period's value; the next (post-heal) cycle pushes a fresh one.
            let (how, _) = self.send_routed(
                RESPONSE_ROUTE,
                node,
                Dest::Node(q.client),
                Some(InputEvent::Response),
            );
            let alert = q.alert.is_some_and(|a| a.triggered(value));
            let push = PendingEffect::IpResult { query: q.id, value, alert, at: now };
            self.deliver(q.client, &push, how, now);
        }
    }

    /// Appends one notification per matching stream to the client's inbox.
    pub(super) fn push_matches(
        &mut self,
        query: QueryId,
        matches: &[StreamId],
        at: SimTime,
        coverage: f64,
    ) {
        let entry = self.notifications.entry(query).or_default();
        for &stream in matches {
            entry.push(MatchNotification { query, stream, at, coverage });
        }
    }

    /// Runs a notify cycle on every node (convenience for drivers that don't
    /// stagger NPER phases).
    pub fn notify_all(&mut self, now: SimTime) {
        for node in self.node_order.clone() {
            self.notify_cycle(node, now);
        }
    }

    /// Union of candidates over the query's covering nodes (the converged
    /// state of the in-range gossip), filtered by exact verification against
    /// the streams' current windows.
    fn aggregate_and_verify(&mut self, q: &SimilarityQuery, now: SimTime) -> Vec<StreamId> {
        let candidates =
            self.round_candidates(q, now).unwrap_or_else(|| self.probe_candidates(q, now));
        self.quality.candidates += candidates.len() as u64;
        // The target is normalised once; each candidate's window is then
        // judged in place (`within_distance` is bit-identical to
        // `normalized_distance <= limit`).
        let target = normalize(&q.target, q.kind.normalization());
        let limit = q.radius + 1e-9;
        let verified: Vec<StreamId> = candidates
            .into_iter()
            .filter(|&sid| {
                let ex = &self.streams[sid as usize].extractor;
                if !ex.is_warm() {
                    return false;
                }
                let ok = ex.within_distance(&target, limit);
                if !ok {
                    self.stream_false_positives[sid as usize] += 1;
                }
                ok
            })
            .collect();
        self.quality.verified += verified.len() as u64;
        verified
    }

    /// The query's candidates from this round's shared scan: ascending and
    /// distinct, or `None` when the round plan cannot answer it and the
    /// caller must probe — the first aggregator to ask at a key, a query
    /// answered twice at one `now`, or a covering shard whose store changed
    /// after its scan. The plan is built only once a second aggregator asks
    /// at the same key: a driver that staggers NPER phases rarely shares a
    /// `now` between cycles, and a plan it would throw away at the next tick
    /// costs more than that cycle's own probes.
    fn round_candidates(&mut self, q: &SimilarityQuery, now: SimTime) -> Option<Vec<StreamId>> {
        let key = (now, self.ring_generation, self.query_generation);
        if self.round_scan.key != Some(key) {
            self.round_scan =
                RoundScan { key: Some(key), opener: Some(q.aggregator), ..RoundScan::default() };
        }
        match self.round_scan.opener {
            Some(first) if first == q.aggregator => return None,
            Some(first) => self.plan_round(key, first),
            None => {}
        }
        let round = &mut self.round_scan;
        let slot = round.ids.binary_search(&q.id).ok()?;
        round.hits[slot].as_ref()?;
        for n in std::mem::take(&mut round.covering[slot]) {
            let dc = &self.nodes[&n];
            if round.shards[&n].1.is_none() {
                round.scan(dc, now);
            }
            if round.shards[&n].1 != Some(dc.store_generation()) {
                round.hits[slot] = None;
            }
        }
        let seen = round.hits[slot].take()?;
        let mut out = Vec::new();
        for (w, &word) in seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as StreamId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        Some(out)
    }

    /// Builds the round plan for `key`: every live similarity query (id
    /// order) not aggregated by `answered`, whose cycle already probed, with
    /// its side-aware covering set and an empty candidate set.
    fn plan_round(&mut self, key: (SimTime, u64, u64), answered: ChordId) {
        let now = key.0;
        let mut live: Vec<&SimilarityQuery> = self
            .queries
            .values()
            .filter_map(|q| match q {
                QueryRuntime::Similarity(sq) if sq.aggregator != answered && !sq.expired(now) => {
                    Some(sq)
                }
                _ => None,
            })
            .collect();
        live.sort_unstable_by_key(|q| q.id);
        let mut round = RoundScan { key: Some(key), ..RoundScan::default() };
        for (i, q) in live.into_iter().enumerate() {
            let (lo, hi) = radius_key_range(self.space, q.feature.first_real(), q.radius);
            let covering = covering_nodes_from(&self.ring, q.aggregator, lo, hi);
            for &n in &covering {
                round.shards.entry(n).or_default().0.push(i);
            }
            round.ids.push(q.id);
            round.probes.push((q.feature.to_reals(), candidate_radius(q)));
            round.covering.push(covering);
            round.hits.push(Some(Vec::new()));
        }
        self.round_scan = round;
    }

    /// Today's per-query path, for queries the round plan cannot answer:
    /// one shard pass per covering node, then one sort+dedup.
    fn probe_candidates(&self, q: &SimilarityQuery, now: SimTime) -> Vec<StreamId> {
        let (lo, hi) = radius_key_range(self.space, q.feature.first_real(), q.radius);
        let point = q.feature.to_reals();
        let mut candidates: Vec<StreamId> = Vec::new();
        // Side-aware: the aggregator can only gossip with covering nodes it
        // can reach, so a split answers from one side with honest coverage.
        for n in covering_nodes_from(&self.ring, q.aggregator, lo, hi) {
            self.nodes[&n].collect_candidates(q, &point, now, &mut candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates
    }

    /// One collection round for `self.aggregates[idx]`, run by its
    /// aggregator (§IV-F in-network aggregation applied to sketches), ending
    /// in a coverage-tagged notification to the client: the multicast tree
    /// is walked children-before-parents, each node merges its own
    /// replica with its children's partials and pushes ONE merged sketch
    /// to its parent (`AggPush`), so the root receives one sketch per
    /// subtree rather than one per owner. A push lost after retries drops
    /// that whole subtree from the round — the notification's coverage
    /// and effective ε then widen honestly instead of silently lying.
    fn collect_one_aggregate(&mut self, idx: usize, now: SimTime) {
        let query = self.aggregates[idx].query.clone();
        let root = query.aggregator;
        let at = now.as_ms();
        // Same full-circle range as dissemination, re-rooted at the
        // aggregator; with churn the tree tracks the current ring.
        let lo = self.space.add(root, 1);
        let plan = multicast(&self.ring, root, lo, root, self.cfg.strategy);
        let mut children: HashMap<ChordId, Vec<ChordId>> = HashMap::new();
        for (from, to) in plan.forward_edges() {
            children.entry(from).or_default().push(to);
        }
        // Reverse pre-order visits children before parents.
        let mut pre = Vec::with_capacity(plan.deliveries.len());
        let mut stack = vec![plan.entry];
        while let Some(v) = stack.pop() {
            pre.push(v);
            if let Some(cs) = children.get(&v) {
                stack.extend(cs.iter().copied());
            }
        }
        // Per-node accumulator: merged partial + its contributors. Only
        // non-empty partials exist (and only those reach the wire).
        let mut acc: HashMap<ChordId, (EcmSketch, Vec<(ChordId, SimTime)>)> = HashMap::new();
        for &v in pre.iter().rev() {
            let mut sk: Option<EcmSketch> = None;
            let mut contrib: Vec<(ChordId, SimTime)> = Vec::new();
            if let Ok(pos) = self.aggregates[idx].slot(v) {
                let (n, since, sketch) = &self.aggregates[idx].replicas[pos];
                sk = Some(sketch.clone());
                contrib.push((*n, *since));
            }
            if let Some(cs) = children.get(&v) {
                for &c in cs {
                    let Some((csk, ccontrib)) = acc.remove(&c) else { continue };
                    if !self.send_hop(MsgClass::AggPush, c, v).arrived() {
                        // Subtree lost this round: its contributors drop
                        // out and the bound widens with them.
                        continue;
                    }
                    match &mut sk {
                        Some(mine) => mine
                            .merge_from(&csk, at)
                            .expect("replicas share params by construction"),
                        None => sk = Some(csk),
                    }
                    contrib.extend(ccontrib);
                }
            }
            if let Some(sk) = sk {
                acc.insert(v, (sk, contrib));
            }
        }
        // The entry hands the root one merged sketch for the whole tree.
        let collected = acc.remove(&plan.entry);
        if collected.is_some()
            && plan.entry != root
            && !self.send_hop(MsgClass::AggPush, plan.entry, root).arrived()
        {
            // The whole round's collection is lost; the next NPER cycle
            // re-collects from the live replicas.
            return;
        }
        let (sketch, mut contributors) =
            collected.map_or((None, Vec::new()), |(sk, c)| (Some(sk), c));
        contributors.sort_unstable_by_key(|&(n, _)| n);
        let live = self.node_order.len().max(1);
        let coverage = contributors.len() as f64 / live as f64;
        let bound = query.bound();
        let value = match query.spec.kind {
            AggregateKind::WindowCount => {
                AggregateValue::Scalar(sketch.as_ref().map_or(0.0, |s| s.total_estimate(at)))
            }
            AggregateKind::PointCount { bin } => {
                AggregateValue::Scalar(sketch.as_ref().map_or(0.0, |s| s.point_estimate(bin, at)))
            }
            AggregateKind::SelfJoinSize => {
                AggregateValue::Scalar(sketch.as_ref().map_or(0.0, |s| s.self_join_size(at)))
            }
            AggregateKind::HeavyHitters { phi } => {
                let universe: Vec<u64> = (0..query.spec.bins).collect();
                AggregateValue::Bins(
                    sketch.as_ref().map_or(Vec::new(), |s| s.heavy_hitters(&universe, phi, at)),
                )
            }
        };
        let note = AggregateNotification {
            query: query.id,
            kind: query.spec.kind,
            value,
            eps_effective: bound.effective_eps(coverage),
            delta: bound.delta,
            coverage,
            components: contributors.len() as u32,
            contributors,
            at: now,
        };
        // One overlay message carries the answer to the client. When
        // aggregator and client sit on different sides of a partition (the
        // query predates the split), or the message is lost after retries,
        // the client misses this period's answer; the next cycle (after
        // heal) re-collects and resends.
        let how = self.send_hop(MsgClass::AggNotify, root, query.client);
        self.deliver(query.client, &PendingEffect::AggregateNotify(Box::new(note)), how, now);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed_stream, small_cluster, wave};
    use dsi_simnet::SimTime;

    #[test]
    fn similarity_query_end_to_end_finds_identical_stream() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        let vals = wave(40, 0.4, 0.0);
        feed_stream(&mut c, sid, &vals, SimTime::ZERO);
        // Query with the stream's current window as target.
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        let qid = c.post_similarity_query(3, target, 0.05, 60_000, SimTime::ZERO);
        c.notify_all(SimTime::from_ms(2000));
        let notes = c.notifications(qid);
        assert!(
            notes.iter().any(|n| n.stream == sid),
            "query over its own stream's window must match"
        );
    }

    #[test]
    fn dissimilar_stream_is_not_reported() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        // An alternating target is far from a smooth sine in z-norm space.
        let target: Vec<f64> = (0..16).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let qid = c.post_similarity_query(3, target, 0.05, 60_000, SimTime::ZERO);
        c.notify_all(SimTime::from_ms(2000));
        assert!(c.notifications(qid).is_empty());
    }

    #[test]
    fn expired_query_stops_producing_responses() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        let qid = c.post_similarity_query(3, target, 0.05, 1000, SimTime::ZERO);
        c.notify_all(SimTime::from_ms(500));
        let after_first = c.notifications(qid).len();
        assert!(after_first > 0);
        c.notify_all(SimTime::from_ms(5000)); // past expiry
        assert_eq!(c.notifications(qid).len(), after_first);
    }

    #[test]
    fn mbr_expiry_clears_candidates() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        // Post the query *after* BSPAN so all MBRs have expired.
        let late = SimTime::from_ms(6000);
        let qid = c.post_similarity_query(3, target, 0.05, 60_000, late);
        c.notify_all(late + 100);
        assert!(c.notifications(qid).is_empty(), "expired MBRs must not match");
    }

    #[test]
    fn quality_counts_candidates_and_verified() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        c.post_similarity_query(1, target, 0.05, 60_000, SimTime::ZERO);
        c.notify_all(SimTime::from_ms(1000));
        let q = c.quality();
        assert!(q.candidates >= q.verified);
        assert!(q.verified > 0);
    }
}
