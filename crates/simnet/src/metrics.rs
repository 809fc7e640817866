//! Measurement infrastructure for the paper's three scalability
//! characteristics (§V):
//!
//! * **load** — messages an individual node sends or receives per second,
//!   broken into the seven components of Fig. 6(a);
//! * **efficiency** — messages the system sends per input event (Fig. 7);
//! * **responsiveness** — overlay hops a message traverses before being
//!   processed (Fig. 8).

use crate::detmap::DetMap;
use crate::nodehash::NodeIdHash;
use serde::{Deserialize, Serialize};

/// Declares [`MsgClass`], [`MsgClass::ALL`] and [`NUM_CLASSES`] from one
/// variant list, so a class cannot be added without entering both tables
/// (and every `[_; NUM_CLASSES]` counter array grows with it).
macro_rules! msg_classes {
    ($($(#[$doc:meta])* $class:ident,)+) => {
        /// Classification of every overlay message, matching the figure
        /// legends. Declaration order is legend order (aggregate classes
        /// appended after the Fig. 6(a) legends so historical indices stay
        /// stable) and is the dense index.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum MsgClass {
            $($(#[$doc])* $class,)+
        }

        impl MsgClass {
            /// All classes, in legend order.
            pub const ALL: [MsgClass; NUM_CLASSES] = [$(MsgClass::$class),+];
        }

        /// Number of message classes.
        pub const NUM_CLASSES: usize = [$(stringify!($class)),+].len();
    };
}

msg_classes! {
    /// MBR messages originated by a node as a stream source (Fig. 6a-a).
    MbrOriginated,
    /// Extra MBR copies when the key range spans multiple nodes (Fig. 6a-b).
    MbrInternal,
    /// MBR messages relayed by intermediate routing nodes (Fig. 6a-c).
    MbrTransit,
    /// Query messages delivered to their first covering node (Fig. 6a-d).
    Query,
    /// Extra query copies when the radius spans multiple nodes (Fig. 7-c).
    QueryInternal,
    /// Query messages relayed in transit (Fig. 7-d).
    QueryTransit,
    /// Responses from the notifying node to the client (Fig. 6a-e).
    Response,
    /// Neighbor information exchange about detected similarities (Fig. 6a-f).
    ResponseInternal,
    /// Response messages relayed in transit (Fig. 6a-g).
    ResponseTransit,
    /// Partial aggregate sketches pushed one tree edge toward the
    /// aggregator during an NPER collection round (DESIGN.md §15).
    AggPush,
    /// Aggregate notifications routed from the aggregator to the client.
    AggNotify,
}

impl MsgClass {
    /// Dense index for array-backed counters: the position in
    /// [`MsgClass::ALL`]. Constant-time and usable in const contexts.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`MsgClass::index`]; `None` for out-of-range indices.
    /// Used to map the `u8` class tags of `dsi-trace` records back to the
    /// enum when rendering or auditing.
    #[inline]
    pub const fn from_index(i: usize) -> Option<MsgClass> {
        if i < NUM_CLASSES {
            Some(Self::ALL[i])
        } else {
            None
        }
    }

    /// Human-readable legend label.
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::MbrOriginated => "MBRs",
            MsgClass::MbrInternal => "MBRs internal",
            MsgClass::MbrTransit => "MBRs in transit",
            MsgClass::Query => "Queries",
            MsgClass::QueryInternal => "Queries internal",
            MsgClass::QueryTransit => "Queries in transit",
            MsgClass::Response => "Responses",
            MsgClass::ResponseInternal => "Responses internal",
            MsgClass::ResponseTransit => "Responses in transit",
            MsgClass::AggPush => "Aggregate pushes",
            MsgClass::AggNotify => "Aggregate notifications",
        }
    }
}

/// The input-event kinds whose per-event message overhead Fig. 7 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputEvent {
    /// A new MBR produced by a stream source.
    Mbr,
    /// A new client query posted.
    Query,
    /// A periodic response pushed toward a client.
    Response,
}

impl InputEvent {
    #[inline]
    fn index(self) -> usize {
        match self {
            InputEvent::Mbr => 0,
            InputEvent::Query => 1,
            InputEvent::Response => 2,
        }
    }
}

/// Mutable measurement state, filled in by the simulation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    sent: DetMap<u64, [u64; NUM_CLASSES], NodeIdHash>,
    received: DetMap<u64, [u64; NUM_CLASSES], NodeIdHash>,
    totals: [u64; NUM_CLASSES],
    hop_sum: [u64; NUM_CLASSES],
    hop_count: [u64; NUM_CLASSES],
    events: [u64; 3],
    retries: [u64; NUM_CLASSES],
    redeliveries: [u64; NUM_CLASSES],
    dups_suppressed: [u64; NUM_CLASSES],
    coverage_sum: f64,
    coverage_count: u64,
    /// Logical sends that consulted the delivery layer (a reliability
    /// resolution or a partition check). Conservation anchor: every
    /// decision is delivered, lost, or partition-suppressed — nothing else.
    send_decisions: [u64; NUM_CLASSES],
    /// Decisions whose message reached the receiver (on time or late).
    sends_delivered: [u64; NUM_CLASSES],
    /// Decisions lost after retries (the random-drop budget).
    sends_lost: [u64; NUM_CLASSES],
    /// Decisions suppressed by an armed partition plan — deterministic
    /// island membership, kept strictly separate from random drops.
    partition_suppressed: [u64; NUM_CLASSES],
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one overlay message `from -> to` of the given class.
    pub fn record_message(&mut self, class: MsgClass, from: u64, to: u64) {
        let i = class.index();
        self.sent.entry(from).or_default()[i] += 1;
        self.received.entry(to).or_default()[i] += 1;
        self.totals[i] += 1;
    }

    /// Records a routed message along `path` (origin first): the first hop
    /// carries class `base`, every further hop class `transit`.
    pub fn record_route(&mut self, base: MsgClass, transit: MsgClass, path: &[u64]) {
        for (i, pair) in path.windows(2).enumerate() {
            let class = if i == 0 { base } else { transit };
            self.record_message(class, pair[0], pair[1]);
        }
    }

    /// Records the hop count of one logical message of the given class
    /// (for the Fig. 8 responsiveness series).
    pub fn record_hops(&mut self, class: MsgClass, hops: u32) {
        let i = class.index();
        self.hop_sum[i] += hops as u64;
        self.hop_count[i] += 1;
    }

    /// Records one input event (for Fig. 7 normalization).
    pub fn record_event(&mut self, kind: InputEvent) {
        self.events[kind.index()] += 1;
    }

    /// Total messages of a class.
    pub fn total(&self, class: MsgClass) -> u64 {
        self.totals[class.index()]
    }

    /// Sum of recorded hop counts for a class (numerator of
    /// [`Metrics::avg_hops`]) — exposed for conservation audits: a routed
    /// logical message of `h` hops is charged as `h` per-hop messages, so
    /// for classes where every route also records its hops, the hop sum of
    /// the base class must equal base + transit message totals.
    pub fn hop_sum(&self, class: MsgClass) -> u64 {
        self.hop_sum[class.index()]
    }

    /// Number of logical messages whose hops were recorded for a class
    /// (denominator of [`Metrics::avg_hops`]).
    pub fn hop_count(&self, class: MsgClass) -> u64 {
        self.hop_count[class.index()]
    }

    /// Messages of a class summed over all sending nodes. Always equals
    /// [`Metrics::total`] (every message has exactly one sender); exposed so
    /// auditors can check the bookkeeping itself.
    pub fn sent_total(&self, class: MsgClass) -> u64 {
        let i = class.index();
        self.sent.iter_sorted().map(|(_, a)| a[i]).sum()
    }

    /// Messages of a class summed over all receiving nodes. Always equals
    /// [`Metrics::total`].
    pub fn received_total(&self, class: MsgClass) -> u64 {
        let i = class.index();
        self.received.iter_sorted().map(|(_, a)| a[i]).sum()
    }

    /// Number of recorded input events of a kind.
    pub fn event_count(&self, kind: InputEvent) -> u64 {
        self.events[kind.index()]
    }

    /// Average per-node load in messages/second for one class: every message
    /// counts once at its sender and once at its receiver, as in Fig. 6(a).
    pub fn avg_load(&self, class: MsgClass, num_nodes: usize, duration_s: f64) -> f64 {
        assert!(num_nodes > 0 && duration_s > 0.0, "need nodes and a positive window");
        2.0 * self.totals[class.index()] as f64 / num_nodes as f64 / duration_s
    }

    /// Per-node total load (sent + received messages per second), for the
    /// Fig. 6(b) distribution. Nodes that never appeared get load 0 only if
    /// listed in `all_nodes`.
    pub fn per_node_load(&self, all_nodes: &[u64], duration_s: f64) -> Vec<(u64, f64)> {
        assert!(duration_s > 0.0, "positive window required");
        all_nodes
            .iter()
            .map(|&n| {
                let s: u64 = self.sent.get(&n).map_or(0, |a| a.iter().sum());
                let r: u64 = self.received.get(&n).map_or(0, |a| a.iter().sum());
                (n, (s + r) as f64 / duration_s)
            })
            .collect()
    }

    /// Cumulative messages charged to one node across all classes, counting
    /// both endpoints (sent + received) like [`Metrics::per_node_load`] —
    /// but as a raw count, so callers (the per-round load ledger) can take
    /// exact deltas between observation points.
    pub fn node_message_count(&self, node: u64) -> u64 {
        let s: u64 = self.sent.get(&node).map_or(0, |a| a.iter().sum());
        let r: u64 = self.received.get(&node).map_or(0, |a| a.iter().sum());
        s + r
    }

    /// Message overhead: how many messages of `class` the system sent per
    /// input event of `kind` (Fig. 7). Zero if no such events occurred.
    pub fn overhead(&self, class: MsgClass, kind: InputEvent) -> f64 {
        let ev = self.events[kind.index()];
        if ev == 0 {
            0.0
        } else {
            self.totals[class.index()] as f64 / ev as f64
        }
    }

    /// Average hops per logical message of `class` (Fig. 8). Zero if none.
    pub fn avg_hops(&self, class: MsgClass) -> f64 {
        let i = class.index();
        if self.hop_count[i] == 0 {
            0.0
        } else {
            self.hop_sum[i] as f64 / self.hop_count[i] as f64
        }
    }

    /// Records one retransmission attempt of a message of `class` after a
    /// drop (the message itself is charged once, when an attempt finally
    /// lands — retries measure wasted bandwidth separately).
    pub fn record_retry(&mut self, class: MsgClass) {
        self.retries[class.index()] += 1;
    }

    /// Records a message of `class` whose effect was re-delivered a period
    /// late out of the delay queue.
    pub fn record_redelivery(&mut self, class: MsgClass) {
        self.redeliveries[class.index()] += 1;
    }

    /// Records a duplicate copy of `class` suppressed by the receiver
    /// (the original is charged normally; the duplicate is
    /// accounted here and nowhere else).
    pub fn record_dup_suppressed(&mut self, class: MsgClass) {
        self.dups_suppressed[class.index()] += 1;
    }

    /// Records the key-range coverage achieved by one dissemination
    /// (1.0 = every covering node confirmed reached).
    pub fn record_coverage(&mut self, fraction: f64) {
        debug_assert!((0.0..=1.0).contains(&fraction), "coverage {fraction} outside [0, 1]");
        self.coverage_sum += fraction;
        self.coverage_count += 1;
    }

    /// Records one logical send decision of `class` that ended delivered
    /// (on time or a period late).
    pub fn record_send_delivered(&mut self, class: MsgClass) {
        let i = class.index();
        self.send_decisions[i] += 1;
        self.sends_delivered[i] += 1;
    }

    /// Records one logical send decision of `class` lost after retries.
    pub fn record_send_lost(&mut self, class: MsgClass) {
        let i = class.index();
        self.send_decisions[i] += 1;
        self.sends_lost[i] += 1;
    }

    /// Records one logical send of `class` suppressed because an armed
    /// partition plan severs its endpoints. Separate from random drops by
    /// construction: [`Metrics::record_send_lost`] never counts these.
    pub fn record_partition_suppressed(&mut self, class: MsgClass) {
        let i = class.index();
        self.send_decisions[i] += 1;
        self.partition_suppressed[i] += 1;
    }

    /// Partition-suppressed sends for a class.
    pub fn partition_suppressed(&self, class: MsgClass) -> u64 {
        self.partition_suppressed[class.index()]
    }

    /// Partition-suppressed sends summed over all classes.
    pub fn partition_suppressed_total(&self) -> u64 {
        self.partition_suppressed.iter().sum()
    }

    /// Send-conservation ledger for a class:
    /// `(decisions, delivered, lost, partitioned)`. The identity
    /// `decisions == delivered + lost + partitioned` holds by construction;
    /// the fault harness asserts it every round so a new send site that
    /// forgets one side of the ledger is caught immediately. Duplicated
    /// copies ride on *delivered* decisions and are accounted in
    /// [`Metrics::dups_suppressed`], never here.
    pub fn send_accounting(&self, class: MsgClass) -> (u64, u64, u64, u64) {
        let i = class.index();
        (
            self.send_decisions[i],
            self.sends_delivered[i],
            self.sends_lost[i],
            self.partition_suppressed[i],
        )
    }

    /// Retransmission attempts for a class.
    pub fn retries(&self, class: MsgClass) -> u64 {
        self.retries[class.index()]
    }

    /// Late re-deliveries for a class.
    pub fn redeliveries(&self, class: MsgClass) -> u64 {
        self.redeliveries[class.index()]
    }

    /// Suppressed duplicate copies for a class.
    pub fn dups_suppressed(&self, class: MsgClass) -> u64 {
        self.dups_suppressed[class.index()]
    }

    /// Sum of a reliability counter over all classes:
    /// `(retries, redeliveries, dups_suppressed)`.
    pub fn reliability_totals(&self) -> (u64, u64, u64) {
        (
            self.retries.iter().sum(),
            self.redeliveries.iter().sum(),
            self.dups_suppressed.iter().sum(),
        )
    }

    /// Number of disseminations whose coverage was recorded.
    pub fn coverage_count(&self) -> u64 {
        self.coverage_count
    }

    /// Mean recorded coverage, or `None` if nothing was recorded.
    pub fn avg_coverage(&self) -> Option<f64> {
        if self.coverage_count == 0 {
            None
        } else {
            Some(self.coverage_sum / self.coverage_count as f64)
        }
    }

    /// Resets all counters (used to discard the warm-up phase).
    pub fn reset(&mut self) {
        *self = Metrics::new();
    }
}

/// A fixed-width histogram over non-negative values (Fig. 6(b)).
///
/// Besides the bucket counts it retains the (sorted) raw samples, so it
/// answers exact percentile and tail queries without the caller having to
/// re-supply the value slice it was built from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bucket_width: f64,
    counts: Vec<u64>,
    samples: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram of `values` with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket_width <= 0`.
    pub fn build(values: &[f64], bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        let mut counts = Vec::new();
        for &v in values {
            let b = (v.max(0.0) / bucket_width).floor() as usize;
            if b >= counts.len() {
                counts.resize(b + 1, 0);
            }
            counts[b] += 1;
        }
        let mut samples = values.to_vec();
        samples.sort_unstable_by(f64::total_cmp);
        Histogram { bucket_width, counts, samples }
    }

    /// `(bucket_midpoint, count)` pairs.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i as f64 + 0.5) * self.bucket_width, c))
            .collect()
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact **nearest-rank** percentile over the retained samples: the
    /// smallest sample `s` such that at least `p` of the distribution is
    /// `<= s`. Returns `None` on an empty histogram.
    ///
    /// # Interpolation contract
    /// There is **no interpolation**: the result is always one of the
    /// recorded samples, `sorted[rank - 1]` with
    /// `rank = ceil(p * n).clamp(1, n)`. In particular `percentile(0.0)`
    /// is the minimum, `percentile(1.0)` the maximum, and for `n = 2`
    /// `percentile(0.5)` is the *lower* sample (not their average, as a
    /// linear-interpolation definition would give). Callers comparing
    /// against externally computed quantiles must use the same
    /// nearest-rank definition; `p` is a fraction in `[0, 1]`, **not** a
    /// percent in `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "percentile rank must be in [0, 1], got {p}");
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// A crude heavy-tail indicator: the fraction of samples **strictly
    /// beyond** `factor` times the mean (samples equal to the cutoff are
    /// not in the tail). The paper argues the load distribution is *not*
    /// heavy-tailed; tests assert this is small. Answered from the
    /// retained samples — no need to re-supply the values the histogram
    /// was built from. Returns `0.0` for an empty histogram. `factor` is
    /// a multiplier (e.g. `2.0` = twice the mean), not a percentile rank.
    pub fn tail_fraction(&self, factor: f64) -> f64 {
        debug_assert!(
            factor.is_finite() && factor >= 0.0,
            "tail factor must be a finite non-negative multiplier, got {factor}"
        );
        if self.samples.is_empty() {
            return 0.0;
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        let cut = mean * factor;
        // Samples are sorted: the tail is a suffix.
        let tail = self.samples.partition_point(|&v| v <= cut);
        (self.samples.len() - tail) as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_counters_accumulate_and_reset() {
        let mut m = Metrics::new();
        assert_eq!(m.reliability_totals(), (0, 0, 0));
        assert_eq!(m.avg_coverage(), None);
        m.record_retry(MsgClass::MbrInternal);
        m.record_retry(MsgClass::MbrInternal);
        m.record_retry(MsgClass::Query);
        m.record_redelivery(MsgClass::Response);
        m.record_dup_suppressed(MsgClass::ResponseInternal);
        m.record_coverage(1.0);
        m.record_coverage(0.5);
        assert_eq!(m.retries(MsgClass::MbrInternal), 2);
        assert_eq!(m.retries(MsgClass::Query), 1);
        assert_eq!(m.redeliveries(MsgClass::Response), 1);
        assert_eq!(m.dups_suppressed(MsgClass::ResponseInternal), 1);
        assert_eq!(m.reliability_totals(), (3, 1, 1));
        assert_eq!(m.coverage_count(), 2);
        assert_eq!(m.avg_coverage(), Some(0.75));
        m.reset();
        assert_eq!(m.reliability_totals(), (0, 0, 0));
        assert_eq!(m.avg_coverage(), None);
    }

    #[test]
    fn send_ledger_conserves_every_decision() {
        let mut m = Metrics::new();
        m.record_send_delivered(MsgClass::Query);
        m.record_send_delivered(MsgClass::Query);
        m.record_send_lost(MsgClass::Query);
        m.record_partition_suppressed(MsgClass::Query);
        m.record_partition_suppressed(MsgClass::Response);
        let (decisions, delivered, lost, partitioned) = m.send_accounting(MsgClass::Query);
        assert_eq!((decisions, delivered, lost, partitioned), (4, 2, 1, 1));
        assert_eq!(decisions, delivered + lost + partitioned);
        assert_eq!(m.partition_suppressed(MsgClass::Query), 1);
        assert_eq!(m.partition_suppressed(MsgClass::Response), 1);
        assert_eq!(m.partition_suppressed_total(), 2);
        // Partition suppressions never leak into the random-drop budget.
        assert_eq!(m.send_accounting(MsgClass::Response).2, 0);
        m.reset();
        assert_eq!(m.send_accounting(MsgClass::Query), (0, 0, 0, 0));
        assert_eq!(m.partition_suppressed_total(), 0);
    }

    #[test]
    fn record_route_splits_base_and_transit() {
        let mut m = Metrics::new();
        m.record_route(MsgClass::Query, MsgClass::QueryTransit, &[1, 2, 3, 4]);
        assert_eq!(m.total(MsgClass::Query), 1);
        assert_eq!(m.total(MsgClass::QueryTransit), 2);
    }

    #[test]
    fn single_hop_route_has_no_transit() {
        let mut m = Metrics::new();
        m.record_route(MsgClass::Response, MsgClass::ResponseTransit, &[7, 9]);
        assert_eq!(m.total(MsgClass::Response), 1);
        assert_eq!(m.total(MsgClass::ResponseTransit), 0);
    }

    #[test]
    fn avg_load_counts_both_endpoints() {
        let mut m = Metrics::new();
        // 10 messages between 2 nodes over 5 seconds:
        // each node sees all 10 (sender or receiver) => 2 msg/s each.
        for _ in 0..10 {
            m.record_message(MsgClass::MbrOriginated, 1, 2);
        }
        let load = m.avg_load(MsgClass::MbrOriginated, 2, 5.0);
        assert!((load - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_node_load_includes_silent_nodes() {
        let mut m = Metrics::new();
        m.record_message(MsgClass::Query, 1, 2);
        let loads = m.per_node_load(&[1, 2, 3], 1.0);
        assert_eq!(loads, vec![(1, 1.0), (2, 1.0), (3, 0.0)]);
    }

    #[test]
    fn overhead_normalizes_by_events() {
        let mut m = Metrics::new();
        for _ in 0..4 {
            m.record_event(InputEvent::Mbr);
        }
        for _ in 0..6 {
            m.record_message(MsgClass::MbrTransit, 0, 1);
        }
        assert!((m.overhead(MsgClass::MbrTransit, InputEvent::Mbr) - 1.5).abs() < 1e-12);
        assert_eq!(m.overhead(MsgClass::Query, InputEvent::Query), 0.0);
    }

    #[test]
    fn conservation_accessors_reconcile() {
        let mut m = Metrics::new();
        // Two routed MBR messages: 3 hops and 1 hop.
        m.record_route(MsgClass::MbrOriginated, MsgClass::MbrTransit, &[1, 2, 3, 4]);
        m.record_hops(MsgClass::MbrOriginated, 3);
        m.record_route(MsgClass::MbrOriginated, MsgClass::MbrTransit, &[5, 6]);
        m.record_hops(MsgClass::MbrOriginated, 1);
        assert_eq!(
            m.hop_sum(MsgClass::MbrOriginated),
            m.total(MsgClass::MbrOriginated) + m.total(MsgClass::MbrTransit)
        );
        assert_eq!(m.hop_count(MsgClass::MbrOriginated), 2);
        for c in MsgClass::ALL {
            assert_eq!(m.sent_total(c), m.total(c));
            assert_eq!(m.received_total(c), m.total(c));
        }
    }

    #[test]
    fn avg_hops_averages() {
        let mut m = Metrics::new();
        m.record_hops(MsgClass::Query, 2);
        m.record_hops(MsgClass::Query, 4);
        assert!((m.avg_hops(MsgClass::Query) - 3.0).abs() < 1e-12);
        assert_eq!(m.avg_hops(MsgClass::Response), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.record_message(MsgClass::Query, 1, 2);
        m.record_event(InputEvent::Query);
        m.record_hops(MsgClass::Query, 3);
        m.reset();
        assert_eq!(m.total(MsgClass::Query), 0);
        assert_eq!(m.event_count(InputEvent::Query), 0);
        assert_eq!(m.avg_hops(MsgClass::Query), 0.0);
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; NUM_CLASSES];
        for c in MsgClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn histogram_buckets_and_total() {
        let values = [0.1, 0.4, 0.6, 1.2, 1.3, 5.0];
        let h = Histogram::build(&values, 0.5);
        assert_eq!(h.total(), 6);
        let buckets = h.buckets();
        assert_eq!(buckets[0], (0.25, 2)); // 0.1, 0.4
        assert_eq!(buckets[1], (0.75, 1)); // 0.6
        assert_eq!(buckets[2], (1.25, 2)); // 1.2, 1.3
        assert_eq!(buckets[10], (5.25, 1)); // 5.0
    }

    #[test]
    fn tail_fraction_flags_outliers() {
        let uniform: Vec<f64> = (0..100).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let h = Histogram::build(&uniform, 0.5);
        assert_eq!(h.tail_fraction(2.0), 0.0);
        let skewed: Vec<f64> = (0..100).map(|i| if i < 90 { 1.0 } else { 50.0 }).collect();
        let h2 = Histogram::build(&skewed, 0.5);
        assert!(h2.tail_fraction(2.0) > 0.05);
        // Exactly 10 of 100 samples sit beyond 2x the mean (mean = 5.9).
        assert!((h2.tail_fraction(2.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        // Canonical nearest-rank example: p30 of {15,20,35,40,50} = 20.
        let h = Histogram::build(&[50.0, 15.0, 40.0, 20.0, 35.0], 10.0);
        assert_eq!(h.percentile(0.30), Some(20.0));
        assert_eq!(h.percentile(0.50), Some(35.0));
        assert_eq!(h.percentile(0.0), Some(15.0));
        assert_eq!(h.percentile(1.0), Some(50.0));
        // Every reported percentile is an actual sample.
        for p in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let v = h.percentile(p).unwrap();
            assert!([15.0, 20.0, 35.0, 40.0, 50.0].contains(&v));
        }
        assert_eq!(Histogram::build(&[], 1.0).percentile(0.5), None);
    }

    #[test]
    fn index_agrees_with_position_in_all() {
        for (pos, c) in MsgClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), pos, "{c:?} index diverged from ALL order");
            assert_eq!(MsgClass::from_index(pos), Some(*c));
        }
        assert_eq!(MsgClass::from_index(NUM_CLASSES), None);
        // And it is usable in const position.
        const QUERY_IDX: usize = MsgClass::Query.index();
        assert_eq!(QUERY_IDX, 3);
    }
}
