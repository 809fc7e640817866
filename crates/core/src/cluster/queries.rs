//! Query lifecycle: posting similarity, aggregate and inner-product
//! queries, and purging them when they expire.

use super::send::{Dest, QUERY_RANGE, QUERY_ROUTE, RESPONSE_ROUTE};
use super::{Cluster, QueryRuntime};
use crate::aggregate::{AggregateQuery, AggregateRuntime, AggregateSpec};
use crate::mapping::radius_key_range;
use crate::query::{InnerProductQuery, QueryId, SimilarityQuery, StreamId};
use crate::reliability::PendingEffect;
use dsi_chord::{reachable_fraction, ChordId, ContentRouter};
use dsi_simnet::{InputEvent, SimTime};
use dsi_sketch::{SketchDims, SketchParams};

impl<R: ContentRouter> Cluster<R> {
    /// Posts a continuous similarity query from data center `client_idx`.
    /// The query is replicated over the key range `[h(q1 - r), h(q1 + r)]`
    /// (§IV-E); the node covering the middle of the range becomes its
    /// aggregator (§IV-F). Returns the query id.
    pub fn post_similarity_query(
        &mut self,
        client_idx: usize,
        target: Vec<f64>,
        radius: f64,
        lifespan_ms: u64,
        now: SimTime,
    ) -> QueryId {
        assert_eq!(
            target.len(),
            self.cfg.workload.window_len,
            "query sequence must match the window length"
        );
        let client = self.node_order[client_idx];
        let id = self.next_query;
        self.next_query += 1;

        let mut q = SimilarityQuery::from_target(
            id,
            client,
            target,
            radius,
            self.cfg.kind,
            self.cfg.workload.num_coeffs,
            0, // aggregator fixed below
            now + lifespan_ms,
        );
        let (lo, hi) = radius_key_range(self.space, q.feature.first_real(), radius);
        let mid = self.space.midpoint(lo, hi);
        // Side-aware: a query posted during a partition aggregates on the
        // client's reachable side (global owner when the network is whole).
        q.aggregator = self.ring.ideal_successor_from(client, mid).expect("ring non-empty");

        let sent = self.send_range(&QUERY_RANGE, client, lo, hi, now);
        // The achieved coverage when a plan is armed; disarmed sends are
        // lossless, but a cut still shrinks the reachable covering set.
        // Either way responses get tagged as partial answers.
        let coverage = sent.coverage.or_else(|| {
            self.ring.partitioned().then(|| reachable_fraction(&self.ring, client, lo, hi))
        });
        if let Some(coverage) = coverage {
            self.record_query_coverage(id, coverage);
        }
        // With the retry budget exhausted on every entry candidate the
        // query is still registered (the client owns it) but no node
        // subscribed: responses carry coverage 0 until a repair round heals
        // the range.
        let effect = PendingEffect::SubscribeSimilarity { query: id, expires: q.expires };
        self.deliver_range(&sent, now, &effect);
        self.queries.insert(id, QueryRuntime::Similarity(q));
        self.query_generation += 1;
        id
    }

    /// Posts a continuous aggregate query from data center `client_idx`
    /// (DESIGN.md §15): every live node receives an empty ECM-sketch
    /// replica via a full-ring multicast (the population of an aggregate
    /// is *all* streams, so its "key range" is the whole identifier
    /// circle), and the successor of the query key becomes its
    /// aggregator. Each notify cycle the aggregator collects the
    /// replicas up the multicast tree — partial sketches merge at the
    /// middle nodes — and pushes one coverage-tagged
    /// [`crate::AggregateNotification`] to the client. Returns the query id.
    pub fn post_aggregate_query(
        &mut self,
        client_idx: usize,
        spec: AggregateSpec,
        now: SimTime,
    ) -> QueryId {
        let client = self.node_order[client_idx];
        let id = self.next_query;
        self.next_query += 1;
        // Replicas must hash identically, so the seed is a pure function
        // of the query id (SplitMix64 increment as the mixing constant).
        let seed = (id).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x6A09_E667_F3BC_C908;
        let params =
            SketchParams { eps: spec.eps, delta: spec.delta, window_ms: spec.window_ms, seed };
        let dims = spec.forced_dims.unwrap_or_else(|| SketchDims::for_bound(spec.eps, spec.delta));
        let key = self.space.hash_str(&format!("aggregate-query-{id}"));
        let aggregator = self.ring.ideal_successor_from(client, key).expect("ring non-empty");
        let q = AggregateQuery {
            id,
            client,
            aggregator,
            spec,
            params,
            dims,
            expires: now + spec.lifespan_ms,
        };
        // Full-circle range starting just past the client: covers every
        // live node, and the delivery-set audit's brute-force covering
        // set of `(client, client]` is exactly the whole ring.
        let lo = self.space.add(client, 1);
        let hi = client;
        let sent = self.send_range(&QUERY_RANGE, client, lo, hi, now);
        if let Some(coverage) = sent.coverage {
            self.record_query_coverage(id, coverage);
        }
        // With the retry budget exhausted on every entry candidate the
        // query is registered with zero replicas; notifications carry
        // coverage 0 until repair rounds install sketches. A late replica
        // installation starts counting when its node drains it.
        self.aggregates.push(AggregateRuntime { query: q, replicas: Vec::new() });
        self.deliver_range(&sent, now, &PendingEffect::SubscribeAggregate { query: id });
        id
    }

    /// Posts a continuous inner-product query (§IV-D): resolve the stream's
    /// source through the location service (`h2`), then subscribe at the
    /// source. Returns the query id.
    pub fn post_inner_product_query(
        &mut self,
        client_idx: usize,
        stream: StreamId,
        indices: Vec<usize>,
        weights: Vec<f64>,
        lifespan_ms: u64,
        now: SimTime,
    ) -> QueryId {
        let client = self.node_order[client_idx];
        let q = InnerProductQuery::new(0, client, stream, indices, weights, now + lifespan_ms);
        self.submit_inner_product(client, q, now)
    }

    /// Posts a pre-built inner-product query (a point / range / alerting
    /// query from the [`InnerProductQuery`] constructors) from data center
    /// `client_idx`. The query's id, client and expiry are assigned here.
    pub fn post_inner_product(
        &mut self,
        client_idx: usize,
        mut query: InnerProductQuery,
        lifespan_ms: u64,
        now: SimTime,
    ) -> QueryId {
        let client = self.node_order[client_idx];
        query.client = client;
        query.expires = now + lifespan_ms;
        self.submit_inner_product(client, query, now)
    }

    fn submit_inner_product(
        &mut self,
        client: ChordId,
        mut q: InnerProductQuery,
        now: SimTime,
    ) -> QueryId {
        self.ledger.stamp(now);
        let id = self.next_query;
        self.next_query += 1;
        q.id = id;
        let stream = q.stream;

        // §IV-D: the client "remembers the mapping between SID and Ps so
        // that next time it does not need to retrieve it".
        let source = match self.location_cache.get(&(client, stream)) {
            Some(&cached) if self.ring.contains(cached) => {
                self.location_cache_hits += 1;
                cached
            }
            _ => match self.locate(client, stream) {
                Some(source) => {
                    self.location_cache.insert((client, stream), source);
                    source
                }
                None => {
                    // The client learns nothing this round (it may repost).
                    self.location_misses += 1;
                    self.record_query_coverage(id, 0.0);
                    return id;
                }
            },
        };

        // The query itself is routed to the source node. If the source sits
        // across a partition cut (stale cache entry or a pre-split location
        // record) or the retry budget is exhausted, the query is registered
        // client-side but no subscription exists: coverage 0 flags the
        // honest degraded answer (no pushes until reposted).
        let (how, _) =
            self.send_routed(QUERY_ROUTE, client, Dest::Node(source), Some(InputEvent::Query));
        self.record_query_coverage(id, if how.arrived() { 1.0 } else { 0.0 });
        self.deliver(source, &PendingEffect::SubscribeInnerProduct(q.clone()), how, now);
        self.queries.insert(id, QueryRuntime::InnerProduct(q));
        id
    }

    /// The location-service round trip (§IV-D): a "get" routed to the `h2`
    /// owner and its reply routed back. `None` when the record is missing
    /// (lost to churn and not yet refreshed), names a data center that has
    /// since crashed (the stream is silent until re-homed), or either leg
    /// exhausted its retry budget — client-side all indistinguishable.
    fn locate(&mut self, client: ChordId, stream: StreamId) -> Option<ChordId> {
        let key = self.streams[stream as usize].key;
        let (get, owner) = self.send_routed(QUERY_ROUTE, client, Dest::Key(key), None);
        if !get.arrived() {
            return None;
        }
        let record = self.nodes[&owner].location_get(stream);
        let (reply, _) = self.send_routed(RESPONSE_ROUTE, owner, Dest::Node(client), None);
        record.filter(|&source| reply.arrived() && self.ring.contains(source))
    }

    /// Drops expired queries from the global registry (per-node replicas are
    /// purged by each node's notify cycle).
    pub fn purge_queries(&mut self, now: SimTime) {
        let before = self.queries.len();
        self.queries.retain(|_, q| match q {
            QueryRuntime::Similarity(sq) => !sq.expired(now),
            QueryRuntime::InnerProduct(ip) => !ip.expired(now),
        });
        if self.queries.len() != before {
            self.query_generation += 1;
        }
        // Expired aggregate queries drop their replicas cluster-wide;
        // delivered notifications stay with the client.
        self.aggregates.retain(|a| !a.query.expired(now));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed_stream, small_cluster, wave};
    use dsi_simnet::SimTime;

    #[test]
    fn inner_product_query_pushes_accurate_values() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        let vals = wave(24, 0.15, 0.0);
        feed_stream(&mut c, sid, &vals, SimTime::ZERO);
        let span = 8;
        let qid = c.post_inner_product_query(
            2,
            sid,
            (0..span).collect(),
            vec![1.0 / span as f64; span],
            60_000,
            SimTime::ZERO,
        );
        c.notify_all(SimTime::from_ms(2000));
        let results = c.ip_results(qid);
        assert!(!results.is_empty(), "source must push values");
        let window = c.streams()[sid as usize].extractor.window_snapshot();
        let exact: f64 = window[..span].iter().sum::<f64>() / span as f64;
        let (_, approx) = results[0];
        assert!(
            (approx - exact).abs() / exact.abs() < 0.5,
            "approximation {approx} too far from exact {exact}"
        );
    }

    #[test]
    fn a_location_record_naming_a_crashed_source_is_a_miss() {
        // Pick a stream whose h2 owner is not its home, so the record
        // outlives the home's crash.
        let mut c = small_cluster(8);
        let home = c.node_id(0);
        let sid = (0..64)
            .find_map(|i| {
                let sid = c.register_stream(&format!("s{i}"), 0);
                c.node(home).location_get(sid).is_none().then_some(sid)
            })
            .expect("some stream's record lives off its home");
        c.set_churn_repair(false);
        c.crash_node(home);
        let qid =
            c.post_inner_product_query(2, sid, vec![0, 1], vec![0.5; 2], 60_000, SimTime::ZERO);
        assert_eq!(c.location_misses(), 1, "the stale record must read as missing");
        c.notify_all(SimTime::from_ms(2000));
        assert!(c.ip_results(qid).is_empty(), "an orphaned stream pushes nothing");
    }

    #[test]
    #[should_panic(expected = "match the window length")]
    fn wrong_target_length_panics() {
        let mut c = small_cluster(4);
        c.post_similarity_query(0, vec![1.0; 5], 0.1, 1000, SimTime::ZERO);
    }
}
