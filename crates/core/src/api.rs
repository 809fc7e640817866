//! The application view (paper Fig. 5).
//!
//! Fig. 5 names the middleware's interface: a one-time
//! `update(summary, stream)` per new data value, one-time
//! `subscribe(pattern)` and `subscribe(inner_product)` per client query,
//! and periodic `push_similarity_info` / `push_inner_product_info`
//! notifications flowing back. [`StreamIndex`] exposes exactly that
//! surface over a [`Cluster`], tracking per-subscription deliveries so an
//! application consumes pushes incrementally.

use crate::cluster::{Cluster, ClusterConfig};
use crate::query::{AlertCondition, InnerProductQuery, QueryId, StreamId};
use dsi_chord::{ContentRouter, Ring};
use dsi_simnet::{DetMap, SimTime};

/// A similarity push: the streams detected similar to a subscribed pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarityPush {
    /// The subscription this push answers.
    pub subscription: QueryId,
    /// Matching stream.
    pub stream: StreamId,
    /// Emission time at the aggregator.
    pub at: SimTime,
}

/// An inner-product push: the current (approximate) value, plus whether the
/// subscription's alert condition fired.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerProductPush {
    /// The subscription this push answers.
    pub subscription: QueryId,
    /// The pushed value.
    pub value: f64,
    /// True when the alert condition was triggered.
    pub alert: bool,
    /// Emission time at the source.
    pub at: SimTime,
}

/// The Fig. 5 application view over the distributed index.
pub struct StreamIndex<R: ContentRouter = Ring> {
    cluster: Cluster<R>,
    /// How many pushes each subscription's consumer has already taken.
    consumed_similarity: DetMap<QueryId, usize>,
    consumed_ip: DetMap<QueryId, usize>,
}

impl StreamIndex<Ring> {
    /// Builds an index over a fresh Chord-backed cluster.
    pub fn new(cfg: ClusterConfig) -> Self {
        StreamIndex::over(Cluster::new(cfg))
    }
}

impl<R: ContentRouter> StreamIndex<R> {
    /// Wraps an existing cluster (any backend).
    pub fn over(cluster: Cluster<R>) -> Self {
        StreamIndex {
            cluster,
            consumed_similarity: DetMap::default(),
            consumed_ip: DetMap::default(),
        }
    }

    /// Access to the underlying cluster (metrics, topology, quality).
    pub fn cluster(&self) -> &Cluster<R> {
        &self.cluster
    }

    /// Registers a stream at a data center; returns its identifier.
    pub fn register_stream(&mut self, name: &str, home_idx: usize) -> StreamId {
        self.cluster.register_stream(name, home_idx)
    }

    /// Fig. 5: "new data values for different streams arriving at data
    /// centers" — one-time `update(summary, stream)`. Summarization and
    /// content routing happen inside.
    pub fn update(&mut self, stream: StreamId, value: f64, now: SimTime) {
        self.cluster.post_value(stream, value, now);
    }

    /// Fig. 5: one-time `subscribe(pattern)` — a continuous similarity
    /// query over all streams. Returns the subscription handle.
    pub fn subscribe_pattern(
        &mut self,
        client_idx: usize,
        pattern: Vec<f64>,
        radius: f64,
        lifespan_ms: u64,
        now: SimTime,
    ) -> QueryId {
        self.cluster.post_similarity_query(client_idx, pattern, radius, lifespan_ms, now)
    }

    /// Fig. 5: one-time `subscribe(inner_product)` — a continuous weighted
    /// inner product over one stream, optionally alerting.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors the paper's quadruple + routing context"
    )]
    pub fn subscribe_inner_product(
        &mut self,
        client_idx: usize,
        stream: StreamId,
        indices: Vec<usize>,
        weights: Vec<f64>,
        alert: Option<AlertCondition>,
        lifespan_ms: u64,
        now: SimTime,
    ) -> QueryId {
        let mut q = InnerProductQuery::new(0, 0, stream, indices, weights, SimTime::ZERO);
        if let Some(a) = alert {
            q = q.with_alert(a);
        }
        self.cluster.post_inner_product(client_idx, q, lifespan_ms, now)
    }

    /// Drives the periodic NPER processing on every data center
    /// (aggregation, verification, pushes).
    pub fn run_notify_cycle(&mut self, now: SimTime) {
        self.cluster.notify_all(now);
    }

    /// Fig. 5: periodic `push_similarity_info` — drains the pushes for a
    /// pattern subscription that arrived since the last call.
    pub fn push_similarity_info(&mut self, subscription: QueryId) -> Vec<SimilarityPush> {
        let all = self.cluster.notifications(subscription);
        let seen = self.consumed_similarity.entry(subscription).or_insert(0);
        let fresh: Vec<SimilarityPush> = all[*seen..]
            .iter()
            .map(|n| SimilarityPush { subscription, stream: n.stream, at: n.at })
            .collect();
        *seen = all.len();
        fresh
    }

    /// Fig. 5: periodic `push_inner_product_info` — drains the pushes for
    /// an inner-product subscription that arrived since the last call.
    pub fn push_inner_product_info(&mut self, subscription: QueryId) -> Vec<InnerProductPush> {
        let all = self.cluster.ip_results(subscription);
        let alerts = self.cluster.ip_alerts(subscription);
        let seen = self.consumed_ip.entry(subscription).or_insert(0);
        let fresh: Vec<InnerProductPush> = all[*seen..]
            .iter()
            .map(|&(at, value)| InnerProductPush {
                subscription,
                value,
                alert: alerts.iter().any(|&(t, v)| t == at && v == value),
                at,
            })
            .collect();
        *seen = all.len();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SimilarityKind;

    fn index() -> StreamIndex {
        let mut cfg = ClusterConfig::new(10);
        cfg.workload.window_len = 16;
        cfg.workload.mbr_batch = 2;
        cfg.kind = SimilarityKind::Subsequence;
        StreamIndex::new(cfg)
    }

    fn feed(ix: &mut StreamIndex, sid: StreamId, n: usize) {
        for i in 0..n {
            let v = 1.0 + (i as f64 * 0.5).sin();
            ix.update(sid, v, SimTime::from_ms(i as u64 * 100));
        }
    }

    #[test]
    fn pattern_subscription_pushes_incrementally() {
        let mut ix = index();
        let sid = ix.register_stream("s", 0);
        feed(&mut ix, sid, 32);
        let pattern = ix.cluster().streams()[0].extractor.window_snapshot();
        let sub = ix.subscribe_pattern(2, pattern, 0.1, 60_000, SimTime::from_ms(3200));

        ix.run_notify_cycle(SimTime::from_ms(4000));
        let first = ix.push_similarity_info(sub);
        assert!(first.iter().any(|p| p.stream == sid));

        // Draining again without new cycles yields nothing.
        assert!(ix.push_similarity_info(sub).is_empty());

        // Another cycle produces only the new pushes.
        ix.run_notify_cycle(SimTime::from_ms(4500));
        let second = ix.push_similarity_info(sub);
        assert!(!second.is_empty());
        assert!(second.iter().all(|p| p.at == SimTime::from_ms(4500)));
    }

    #[test]
    fn inner_product_subscription_with_alert() {
        let mut ix = index();
        let sid = ix.register_stream("temp", 0);
        feed(&mut ix, sid, 20);
        let sub = ix.subscribe_inner_product(
            3,
            sid,
            (0..4).collect(),
            vec![0.25; 4],
            Some(AlertCondition::Above(0.0)),
            60_000,
            SimTime::from_secs(2),
        );
        ix.run_notify_cycle(SimTime::from_secs(4));
        let pushes = ix.push_inner_product_info(sub);
        assert_eq!(pushes.len(), 1);
        assert!(pushes[0].alert, "positive stream must trip an Above(0) alert");
        assert!(ix.push_inner_product_info(sub).is_empty(), "drained");
    }

    #[test]
    fn unknown_subscription_yields_nothing() {
        let mut ix = index();
        assert!(ix.push_similarity_info(999).is_empty());
        assert!(ix.push_inner_product_info(999).is_empty());
    }
}
