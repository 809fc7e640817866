//! Per-node middleware state: the data center (sensor proxy / base station)
//! of §IV.
//!
//! Each data center stores the MBRs content-routed to it, the similarity
//! subscriptions replicated over its key interval, the inner-product
//! subscriptions for streams it sources, and its slice of the
//! location-service table (`h2(stream) -> source node`).

use crate::query::{InnerProductQuery, QueryId, SimilarityQuery, StreamId};
use crate::store::{SummaryRef, SummaryStore};
use dsi_chord::ChordId;
use dsi_dsp::Mbr;
use dsi_simnet::{DetMap, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An MBR stored at a data center, with provenance and expiry (BSPAN).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredMbr {
    /// Stream the MBR summarizes.
    pub stream: StreamId,
    /// The bounding box in feature space.
    pub mbr: Mbr,
    /// Node that sourced the stream (for follow-up verification).
    pub origin: ChordId,
    /// Absolute expiry time.
    pub expires: SimTime,
}

/// The exact candidate test's radius: a live record is a candidate for
/// `query` iff its box's `min_dist` to the query point is at most this.
#[inline]
pub(crate) fn candidate_radius(query: &SimilarityQuery) -> f64 {
    query.radius + 1e-12
}

/// Lowers an expiry bound (ms) so that it covers `expires`.
#[inline]
fn note_expiry(bound: &mut Option<u64>, expires: SimTime) {
    let t = expires.as_ms();
    *bound = Some(bound.map_or(t, |b| b.min(t)));
}

/// State of one data center.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DataCenter {
    /// This node's Chord identifier.
    pub id: ChordId,
    /// MBRs content-routed here (the local shard of the distributed index),
    /// in struct-of-arrays columns. Eq. 6 placement already confines the
    /// shard to this node's dim-0 key interval, so it carries no local
    /// index of its own.
    store: SummaryStore,
    /// Similarity subscriptions replicated over this node's interval:
    /// `(id, expires)` sorted by id. The query itself lives once, in the
    /// cluster's registry; only its aggregator reads it.
    subscriptions: Vec<(QueryId, SimTime)>,
    /// Inner-product subscriptions for streams this node sources, by id.
    ip_subscriptions: BTreeMap<QueryId, InnerProductQuery>,
    /// Location-service shard: streams whose `h2` key this node owns.
    location: DetMap<StreamId, ChordId>,
    /// Peak number of simultaneously stored MBRs (storage accounting).
    peak_mbrs: usize,
    /// Lower bound (ms) on the earliest expiry across the three soft-state
    /// tables; `None` while they are empty. Replaced subscriptions and
    /// rebalanced replicas may leave it stale-low, which costs one no-op
    /// purge.
    next_expiry: Option<u64>,
    /// Bumped by every insert and rebalance of `store`, so a reader can
    /// tell whether the candidate set it scanned is still current. Expiry
    /// purges leave it alone: they drop only records `now < expires`
    /// already rejects.
    store_generation: u64,
}

impl DataCenter {
    /// Creates an empty data center with the given ring identifier.
    pub fn new(id: ChordId) -> Self {
        DataCenter { id, ..Default::default() }
    }

    // ------------------------------------------------------------------
    // Index shard
    // ------------------------------------------------------------------

    /// Stores an MBR replica. Expired entries for the same batch are left to
    /// the periodic purge (the paper expires by life span, not by version).
    pub fn store_mbr(&mut self, stored: StoredMbr) {
        self.store_mbr_ref(&stored);
    }

    /// [`DataCenter::store_mbr`] from a borrowed record: the columns copy
    /// the corners out, so one emitted summary serves every replica.
    pub(crate) fn store_mbr_ref(&mut self, stored: &StoredMbr) {
        note_expiry(&mut self.next_expiry, stored.expires);
        self.store_generation += 1;
        self.store.push_stored(stored);
        self.peak_mbrs = self.peak_mbrs.max(self.store.len());
    }

    /// Number of currently stored MBRs (including not-yet-purged expired
    /// ones).
    pub fn mbr_count(&self) -> usize {
        self.store.len()
    }

    /// Every stored MBR replica, including not-yet-purged expired ones —
    /// the raw shard contents an external auditor checks placement and
    /// expiry invariants against. Borrowed column views, in storage order.
    pub fn summaries(&self) -> impl Iterator<Item = SummaryRef<'_>> {
        self.store.iter()
    }

    /// Owned transport copies of every stored replica, in storage order —
    /// for serialized audits and bit-compare snapshots.
    pub fn stored_mbrs_snapshot(&self) -> Vec<StoredMbr> {
        self.store.to_stored_vec()
    }

    /// Drops the stored MBRs rejected by `keep` (replica rebalancing after
    /// churn moves records off nodes that no longer cover their range).
    pub(crate) fn retain_mbrs(&mut self, keep: impl FnMut(SummaryRef<'_>) -> bool) {
        self.store.retain(keep);
        self.store_generation += 1;
    }

    /// See the `store_generation` field.
    pub(crate) fn store_generation(&self) -> u64 {
        self.store_generation
    }

    /// Visits every live record at `now` once, in position order — the
    /// single sequential read of this shard behind both the round scan and
    /// per-query probes. Expiry lives in its own column, so dead records
    /// skip the corner loads entirely.
    pub(crate) fn for_each_live(&self, now: SimTime, mut visit: impl FnMut(SummaryRef<'_>)) {
        for pos in 0..self.store.len() {
            if now < self.store.expires_at(pos) {
                visit(self.store.get(pos));
            }
        }
    }

    /// Peak storage footprint in MBRs.
    pub fn peak_mbr_count(&self) -> usize {
        self.peak_mbrs
    }

    /// The streams whose live MBRs at `now` are candidates for `query`:
    /// every stream with a stored box whose minimum distance to the query
    /// feature is within the radius. This is the superset guarantee — false
    /// positives possible, false dismissals impossible.
    pub fn local_candidates(&self, query: &SimilarityQuery, now: SimTime) -> Vec<StreamId> {
        let point = query.feature.to_reals();
        let mut out = Vec::new();
        self.collect_candidates(query, &point, now, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Candidate walk: appends every live matching stream to `out`
    /// (unsorted, possibly with duplicates). `point` must be
    /// `query.feature.to_reals()` — callers probing many nodes compute it
    /// once and pass it down.
    ///
    /// One `for_each_live` pass with the exact `min_dist`
    /// test. Routing by the dim-0 key already sent the query only to the
    /// nodes whose interval its radius overlaps, and the shard holds only
    /// boxes placed on that interval, so a second dim-0 filter here would
    /// admit nearly all of it anyway.
    pub fn collect_candidates(
        &self,
        query: &SimilarityQuery,
        point: &[f64],
        now: SimTime,
        out: &mut Vec<StreamId>,
    ) {
        let r = candidate_radius(query);
        self.for_each_live(now, |s| {
            if s.min_dist(point) <= r {
                out.push(s.stream);
            }
        });
    }

    /// Brute-force reference for [`DataCenter::local_candidates`]: a
    /// filter-map over the row view, written independently of the column
    /// pass. Kept for property tests and as the reference the benchmark's
    /// correctness check and the round-scan tests compare against.
    pub fn local_candidates_linear(&self, query: &SimilarityQuery, now: SimTime) -> Vec<StreamId> {
        let point = query.feature.to_reals();
        let mut out: Vec<StreamId> = self
            .store
            .iter()
            .filter(|s| now < s.expires)
            .filter(|s| s.min_dist(&point) <= candidate_radius(query))
            .map(|s| s.stream)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    // ------------------------------------------------------------------
    // Subscriptions
    // ------------------------------------------------------------------

    /// Registers a similarity subscription (replica of a query whose key
    /// range covers this node), replacing the expiry of one with the same
    /// id. Query ids are issued in order, so a fresh post appends, touching
    /// only the table's tail instead of a binary search's cold lines.
    pub fn subscribe_similarity(&mut self, id: QueryId, expires: SimTime) {
        note_expiry(&mut self.next_expiry, expires);
        if self.subscriptions.last().is_none_or(|&(last, _)| last < id) {
            self.subscriptions.push((id, expires));
            return;
        }
        match self.subscriptions.binary_search_by_key(&id, |&(q, _)| q) {
            Ok(pos) => self.subscriptions[pos].1 = expires,
            Err(pos) => self.subscriptions.insert(pos, (id, expires)),
        }
    }

    /// Registers an inner-product subscription at the stream's source node.
    pub fn subscribe_inner_product(&mut self, q: InnerProductQuery) {
        note_expiry(&mut self.next_expiry, q.expires);
        self.ip_subscriptions.insert(q.id, q);
    }

    /// Whether a similarity subscription with this id is replicated here
    /// (expired or not).
    pub fn has_subscription(&self, q: QueryId) -> bool {
        self.subscriptions.binary_search_by_key(&q, |&(id, _)| id).is_ok()
    }

    /// Every similarity subscription as `(id, expires)`, including
    /// not-yet-purged expired ones, in id order.
    pub fn all_subscriptions(&self) -> impl Iterator<Item = (QueryId, SimTime)> + '_ {
        self.subscriptions.iter().copied()
    }

    /// Every inner-product subscription, including not-yet-purged expired
    /// ones, in id order.
    pub fn all_ip_subscriptions(&self) -> impl Iterator<Item = &InnerProductQuery> {
        self.ip_subscriptions.values()
    }

    /// Ids of the active similarity subscriptions at `now`, in id order.
    pub fn active_subscriptions(&self, now: SimTime) -> impl Iterator<Item = QueryId> + '_ {
        self.subscriptions.iter().filter(move |&&(_, expires)| now < expires).map(|&(id, _)| id)
    }

    /// Active inner-product subscriptions at `now`, in id order.
    pub fn active_ip_subscriptions(
        &self,
        now: SimTime,
    ) -> impl Iterator<Item = &InnerProductQuery> {
        self.ip_subscriptions.values().filter(move |q| !q.expired(now))
    }

    /// Total subscriptions of both kinds currently replicated here
    /// (including not-yet-purged expired ones) — the load ledger's
    /// per-round subscription gauge.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len() + self.ip_subscriptions.len()
    }

    /// Whether any subscription of either kind is active.
    pub fn has_active_subscriptions(&self, now: SimTime) -> bool {
        self.active_subscriptions(now).next().is_some()
            || self.active_ip_subscriptions(now).next().is_some()
    }

    // ------------------------------------------------------------------
    // Location service
    // ------------------------------------------------------------------

    /// Stores a `stream -> source node` record ("put" at the `h2` owner).
    pub fn location_put(&mut self, stream: StreamId, source: ChordId) {
        self.location.insert(stream, source);
    }

    /// Resolves a stream's source node ("get").
    pub fn location_get(&self, stream: StreamId) -> Option<ChordId> {
        self.location.get(&stream).copied()
    }

    // ------------------------------------------------------------------
    // Expiry
    // ------------------------------------------------------------------

    /// Drops expired MBRs and subscriptions; returns how many were removed.
    /// The paper removes both "in order to prevent cluttering of storage
    /// space and to eliminate query responses that contain stale
    /// information".
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        // While the bound is in the future nothing can be expired and the
        // scan below would only re-inspect live state.
        if self.next_expiry.is_none_or(|t| now.as_ms() < t) {
            return 0;
        }
        let before = self.store.len() + self.subscriptions.len() + self.ip_subscriptions.len();
        // The survivors' earliest expiry becomes the new (exact) bound.
        let mut next = None;
        let mut live = |expires: SimTime| {
            let keep = now < expires;
            if keep {
                note_expiry(&mut next, expires);
            }
            keep
        };
        self.store.retain(|s| live(s.expires));
        self.subscriptions.retain(|&(_, expires)| live(expires));
        self.ip_subscriptions.retain(|_, q| live(q.expires));
        self.next_expiry = next;
        before - (self.store.len() + self.subscriptions.len() + self.ip_subscriptions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SimilarityKind;
    use dsi_dsp::{extract_features, Normalization};

    fn wave(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f).sin() * 2.0 + 5.0).collect()
    }

    fn query(id: QueryId, target: Vec<f64>, radius: f64, expires_ms: u64) -> SimilarityQuery {
        SimilarityQuery::from_target(
            id,
            0,
            target,
            radius,
            SimilarityKind::Correlation,
            2,
            0,
            SimTime::from_ms(expires_ms),
        )
    }

    fn stored(stream: StreamId, window: &[f64], expires_ms: u64) -> StoredMbr {
        let fv = extract_features(window, Normalization::ZNorm, 2);
        StoredMbr {
            stream,
            mbr: dsi_dsp::Mbr::from_point(&fv.to_reals()),
            origin: 9,
            expires: SimTime::from_ms(expires_ms),
        }
    }

    #[test]
    fn candidates_include_matching_streams() {
        let mut dc = DataCenter::new(5);
        let w = wave(32, 0.3);
        dc.store_mbr(stored(1, &w, 10_000));
        dc.store_mbr(stored(2, &wave(32, 1.1), 10_000)); // very different shape
        let q = query(7, w.clone(), 0.05, 10_000);
        let c = dc.local_candidates(&q, SimTime::from_ms(0));
        assert!(c.contains(&1), "identical shape must be a candidate");
        assert!(!c.contains(&2), "distant shape filtered out");
    }

    #[test]
    fn expired_mbrs_are_not_candidates() {
        let mut dc = DataCenter::new(5);
        let w = wave(32, 0.3);
        dc.store_mbr(stored(1, &w, 1000));
        let q = query(7, w, 0.05, 10_000);
        assert!(!dc.local_candidates(&q, SimTime::from_ms(1000)).contains(&1));
        assert!(dc.local_candidates(&q, SimTime::from_ms(999)).contains(&1));
    }

    #[test]
    fn duplicate_streams_deduped() {
        let mut dc = DataCenter::new(5);
        let w = wave(32, 0.3);
        dc.store_mbr(stored(1, &w, 10_000));
        dc.store_mbr(stored(1, &w, 10_000));
        let q = query(7, w, 0.05, 10_000);
        assert_eq!(dc.local_candidates(&q, SimTime::ZERO), vec![1]);
    }

    #[test]
    fn purge_removes_expired_state() {
        let mut dc = DataCenter::new(5);
        dc.store_mbr(stored(1, &wave(32, 0.3), 100));
        dc.store_mbr(stored(2, &wave(32, 0.4), 300));
        dc.subscribe_similarity(1, SimTime::from_ms(200));
        let removed = dc.purge_expired(SimTime::from_ms(250));
        assert_eq!(removed, 2); // MBR of stream 1 + the subscription
        assert_eq!(dc.mbr_count(), 1);
        assert!(!dc.has_active_subscriptions(SimTime::from_ms(250)));
    }

    #[test]
    fn peak_storage_tracks_high_water_mark() {
        let mut dc = DataCenter::new(5);
        for i in 0..4 {
            dc.store_mbr(stored(i, &wave(32, 0.3), 100));
        }
        dc.purge_expired(SimTime::from_ms(200));
        assert_eq!(dc.mbr_count(), 0);
        assert_eq!(dc.peak_mbr_count(), 4);
    }

    #[test]
    fn location_service_roundtrip() {
        let mut dc = DataCenter::new(5);
        assert_eq!(dc.location_get(3), None);
        dc.location_put(3, 42);
        assert_eq!(dc.location_get(3), Some(42));
        dc.location_put(3, 43); // source migrated
        assert_eq!(dc.location_get(3), Some(43));
    }

    #[test]
    fn subscription_replacement_by_id() {
        let mut dc = DataCenter::new(5);
        dc.subscribe_similarity(3, SimTime::from_ms(1000));
        dc.subscribe_similarity(1, SimTime::from_ms(1000));
        dc.subscribe_similarity(1, SimTime::from_ms(2000));
        dc.subscribe_similarity(2, SimTime::from_ms(500));
        let subs: Vec<(QueryId, SimTime)> = dc.all_subscriptions().collect();
        assert_eq!(
            subs,
            [(1, SimTime::from_ms(2000)), (2, SimTime::from_ms(500)), (3, SimTime::from_ms(1000))]
        );
        assert_eq!(dc.active_subscriptions(SimTime::from_ms(700)).collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn candidates_match_linear_scan_through_mutations() {
        let mut dc = DataCenter::new(5);
        for i in 0..200u32 {
            let w = wave(32, 0.05 + (i % 23) as f64 * 0.07);
            dc.store_mbr(stored(i, &w, 500 + (i as u64 % 7) * 400));
        }
        let queries: Vec<SimilarityQuery> =
            (0..23).map(|j| query(j, wave(32, 0.05 + j as f64 * 0.07), 0.4, 10_000)).collect();
        for t in [0u64, 600, 1300, 2500, 9000] {
            let now = SimTime::from_ms(t);
            dc.purge_expired(now);
            if t == 1300 {
                // A churn rebalance drops live records and shifts positions.
                dc.retain_mbrs(|s| s.stream % 3 != 0);
            }
            for q in &queries {
                assert_eq!(
                    dc.local_candidates(q, now),
                    dc.local_candidates_linear(q, now),
                    "column pass/linear divergence at t={t} query={}",
                    q.id
                );
            }
        }
    }

    #[test]
    fn purge_skips_scan_until_first_expiry() {
        let mut dc = DataCenter::new(5);
        dc.store_mbr(stored(1, &wave(32, 0.3), 1000));
        dc.subscribe_similarity(1, SimTime::from_ms(2000));
        assert_eq!(dc.purge_expired(SimTime::from_ms(999)), 0);
        assert_eq!(dc.mbr_count(), 1);
        assert_eq!(dc.purge_expired(SimTime::from_ms(1000)), 1);
        assert_eq!(dc.purge_expired(SimTime::from_ms(1500)), 0);
        assert_eq!(dc.purge_expired(SimTime::from_ms(2000)), 1);
        assert_eq!(dc.purge_expired(SimTime::from_ms(90_000)), 0);
    }

    #[test]
    fn retain_mbrs_leaves_a_safe_expiry_bound() {
        let mut dc = DataCenter::new(5);
        dc.store_mbr(stored(1, &wave(32, 0.3), 1000));
        dc.store_mbr(stored(2, &wave(32, 0.4), 3000));
        dc.subscribe_similarity(1, SimTime::from_ms(2000));
        // Rebalancing moves the earliest-expiring replica away; the bound
        // stays at 1000 (stale-low), which may only cost a no-op purge.
        dc.retain_mbrs(|s| s.stream != 1);
        for (t, expired) in [(1000, 0), (2000, 1), (2500, 0), (3000, 1), (9000, 0)] {
            let now = SimTime::from_ms(t);
            assert_eq!(dc.purge_expired(now), expired, "t={t}");
            assert!(dc.summaries().all(|s| now < s.expires), "t={t}");
            assert!(dc.all_subscriptions().all(|(_, expires)| now < expires), "t={t}");
        }
    }

    #[test]
    fn active_ip_subscriptions_respect_expiry() {
        let mut dc = DataCenter::new(5);
        dc.subscribe_inner_product(InnerProductQuery::new(
            9,
            1,
            4,
            vec![0],
            vec![1.0],
            SimTime::from_ms(100),
        ));
        assert_eq!(dc.active_ip_subscriptions(SimTime::from_ms(50)).count(), 1);
        assert_eq!(dc.active_ip_subscriptions(SimTime::from_ms(150)).count(), 0);
    }

    #[test]
    fn purge_at_exact_expiry_tick_removes_once() {
        let mut dc = DataCenter::new(5);
        // `expired(now)` is `now >= expires`: an item expiring exactly at
        // the purge tick must go in that purge, and the expiry bound
        // (`next_expiry <= now`) must let the scan run at equality.
        dc.subscribe_similarity(1, SimTime::from_ms(1000));
        dc.store_mbr(stored(0, &wave(32, 0.2), 1000));
        let tick = SimTime::from_ms(1000);
        assert_eq!(dc.purge_expired(tick), 2, "boundary items purged exactly at their tick");
        assert!(!dc.has_subscription(1));
        assert_eq!(dc.mbr_count(), 0);
        // A second purge at the same tick finds nothing — no double purge.
        assert_eq!(dc.purge_expired(tick), 0);
        assert_eq!(dc.purge_expired(SimTime::from_ms(1001)), 0);
    }

    #[test]
    fn duplicated_delivery_does_not_double_purge() {
        let mut dc = DataCenter::new(5);
        // A duplicated NPER delivery re-subscribes the same query; the
        // replacement must not count twice. The purge at expiry removes the
        // single live copy once; purging again at the same tick is a no-op.
        dc.subscribe_similarity(1, SimTime::from_ms(1000));
        dc.subscribe_similarity(1, SimTime::from_ms(1000));
        let tick = SimTime::from_ms(1000);
        assert_eq!(dc.purge_expired(tick), 1, "one live copy, one removal");
        assert_eq!(dc.purge_expired(tick), 0, "nothing left to purge");
        // `store_mbr` appends blindly (the reliability layer upstream
        // suppresses duplicated copies); both raw copies purge in one pass.
        dc.store_mbr(stored(0, &wave(32, 0.2), 2000));
        dc.store_mbr(stored(0, &wave(32, 0.2), 2000));
        assert_eq!(dc.purge_expired(SimTime::from_ms(2000)), 2);
        assert_eq!(dc.mbr_count(), 0);
        assert_eq!(dc.purge_expired(SimTime::from_ms(2000)), 0);
    }
}
