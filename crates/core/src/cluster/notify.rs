//! Periodic processing (NPER): the per-node notify cycle, similarity
//! response aggregation and aggregate-query collection.

use super::send::{Delivery, Dest, QUERY_ROUTE, RESPONSE_ROUTE};
use super::{Cluster, QueryRuntime};
use crate::aggregate::{AggregateKind, AggregateNotification, AggregateValue};
use crate::mapping::radius_key_range;
use crate::query::{InnerProductQuery, MatchNotification, QueryId, SimilarityQuery, StreamId};
use crate::reliability::PendingEffect;
use dsi_chord::{multicast, reachable_fraction, ChordId, ContentRouter};
use dsi_dsp::normalized_distance;
use dsi_simnet::{InputEvent, MsgClass, SimTime};
use dsi_sketch::EcmSketch;
use std::collections::HashMap;

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
        let (lo, hi) = radius_key_range(self.space, q.feature.first_real(), q.radius);
        // One feature->point conversion per query, shared across every
        // covering node's index probe; per-node results arrive unsorted and
        // possibly duplicated, so one global sort+dedup replaces the
        // per-node ones (same final set).
        let point = q.feature.to_reals();
        let mut candidates: Vec<StreamId> = Vec::new();
        // Side-aware: the aggregator can only gossip with covering nodes it
        // can reach, so a split answers from one side with honest coverage.
        for n in dsi_chord::covering_nodes_from(&self.ring, q.aggregator, lo, hi) {
            self.nodes[&n].collect_candidates(q, &point, now, &mut candidates);
        }
        candidates.sort_unstable();
        candidates.dedup();
        self.quality.candidates += candidates.len() as u64;
        let verified: Vec<StreamId> = candidates
            .into_iter()
            .filter(|&sid| {
                let s = &self.streams[sid as usize];
                if !s.extractor.is_warm() {
                    return false;
                }
                let window = s.extractor.window_snapshot();
                let ok = normalized_distance(&q.target, &window, q.kind.normalization())
                    <= q.radius + 1e-9;
                if !ok {
                    *self.stream_false_positives.entry(sid).or_default() += 1;
                }
                ok
            })
            .collect();
        self.quality.verified += verified.len() as u64;
        verified
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
