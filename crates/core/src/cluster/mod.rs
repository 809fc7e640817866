//! The distributed indexing middleware (§IV): a cluster of data centers on
//! a Chord ring, with content-based routing of summaries, range replication
//! of similarity queries, location-service handling of inner-product
//! queries, and periodic response aggregation.
//!
//! `Cluster` is *driven*: callers (the experiment driver in
//! [`crate::system`], examples, tests)
//! push stream values, post queries, and run notify cycles at the times they
//! choose. Every overlay message is recorded in [`dsi_simnet::Metrics`]
//! while measurement is enabled; message deliveries are applied at send time
//! and latency is charged analytically (50 ms per overlay hop), which is
//! exactly the cost model of the Chord simulator the paper used.
//!
//! The module follows the middleware's seams: state and accessors here,
//! `send` the one place messages are judged, charged, traced and applied;
//! `membership`, `ingest`, `queries` and `notify` all send through it.

mod ingest;
mod membership;
mod notify;
mod queries;
mod send;

pub use ingest::worker_count;

use crate::aggregate::{AggregateNotification, AggregateQuery, AggregateRuntime};
use crate::batching::MbrBatcher;
use crate::datacenter::DataCenter;
use crate::load::{LoadLedger, ReweightAction, ReweightConfig};
use crate::query::{
    InnerProductQuery, MatchNotification, QueryId, SimilarityKind, SimilarityQuery, StreamId,
};
use crate::reliability::{PendingDelivery, ReliabilityState};
use dsi_chord::{BuildRouter, ChordId, ContentRouter, IdSpace, RangeStrategy, Ring};
use dsi_dsp::{FeatureExtractor, FeatureVector, Mbr, SummaryScratch};
use dsi_simnet::{DetMap, FaultPlan, Metrics, SimTime};
use dsi_streamgen::WorkloadConfig;
use dsi_trace::Tracer;
use std::collections::BTreeMap;

/// Static configuration of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data centers.
    pub num_nodes: usize,
    /// Workload / summarization parameters (Table I).
    pub workload: WorkloadConfig,
    /// Identifier-space width in bits.
    pub id_bits: u32,
    /// Range multicast strategy (§IV-C sequential vs §VI-B bidirectional).
    pub strategy: RangeStrategy,
    /// Similarity flavor streams are indexed under.
    pub kind: SimilarityKind,
}

impl ClusterConfig {
    /// A cluster with the paper's defaults: Table I workload, 32-bit ids,
    /// sequential range multicast, correlation similarity.
    pub fn new(num_nodes: usize) -> Self {
        ClusterConfig {
            num_nodes,
            workload: WorkloadConfig::default(),
            id_bits: 32,
            strategy: RangeStrategy::Sequential,
            kind: SimilarityKind::Correlation,
        }
    }
}

/// Runtime state of one registered stream.
#[derive(Debug, Clone)]
pub struct StreamRuntime {
    /// Stream identifier (dense index).
    pub id: StreamId,
    /// Stream name (hashed by `h2` for the location service).
    pub name: String,
    /// `h2(name)`: the key of the stream's location record, hashed once at
    /// registration.
    pub key: ChordId,
    /// The data center sourcing this stream.
    pub home: ChordId,
    /// Incremental summarizer.
    pub extractor: FeatureExtractor,
    /// ζ-batcher.
    pub batcher: MbrBatcher,
    /// Latest emitted feature vector, if any.
    pub last_feature: Option<FeatureVector>,
}

#[derive(Debug, Clone)]
enum QueryRuntime {
    Similarity(SimilarityQuery),
    InnerProduct(InnerProductQuery),
}

/// Aggregate quality counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QualityStats {
    /// Candidate (stream, query) pairs the index produced.
    pub candidates: u64,
    /// Candidates that survived exact verification.
    pub verified: u64,
}

/// The distributed stream-indexing middleware.
///
/// Generic over the routing backend `R` (the paper's portability claim):
/// [`dsi_chord::Ring`] (Chord, the default) and [`dsi_chord::PastryNet`]
/// both work unchanged, because the middleware only consumes the
/// [`ContentRouter`] surface.
pub struct Cluster<R: ContentRouter = Ring> {
    cfg: ClusterConfig,
    space: IdSpace,
    ring: R,
    nodes: DetMap<ChordId, DataCenter>,
    node_order: Vec<ChordId>,
    streams: Vec<StreamRuntime>,
    /// Streams per home data center, ascending id: the notify cycle's
    /// location refresh reads its node's list instead of scanning every
    /// stream. A crashed home keeps its list until its streams are re-homed.
    homed: DetMap<ChordId, Vec<StreamId>>,
    /// Posted queries; every NPER round walks them in id order.
    queries: BTreeMap<QueryId, QueryRuntime>,
    /// Live aggregate queries with their per-node replica sketches, in
    /// posting (= id) order. Empty unless the driver posts aggregate
    /// queries, so undriven runs stay byte-identical (DESIGN.md §15).
    aggregates: Vec<AggregateRuntime>,
    /// Delivered aggregate notifications, per query.
    aggregate_notifications: DetMap<QueryId, Vec<AggregateNotification>>,
    notifications: DetMap<QueryId, Vec<MatchNotification>>,
    ip_results: DetMap<QueryId, Vec<(SimTime, f64)>>,
    ip_alerts: DetMap<QueryId, Vec<(SimTime, f64)>>,
    /// Client-side location cache (§IV-D): (client, stream) -> source node.
    location_cache: DetMap<(ChordId, StreamId), ChordId>,
    /// Location-service lookups avoided by the cache.
    location_cache_hits: u64,
    /// Location-service lookups that found no record (lost to churn).
    location_misses: u64,
    /// Metrics and the causal tracer, writable only by the send seam.
    ledger: send::Ledger,
    measuring: bool,
    /// Whether churn operations re-establish range replication (§VII);
    /// disabled it models pure soft-state coverage holes.
    repair_on_churn: bool,
    /// Whether the periodic Chord stabilization protocol runs (DESIGN.md
    /// §17). Disabling it is the partition negative control: islands never
    /// repair their successor/finger tables, and a heal without re-probing
    /// leaves a permanent fork the convergence oracle must flag.
    stabilization_enabled: bool,
    next_query: QueryId,
    quality: QualityStats,
    /// Bumped whenever ring membership or partition sides change — every
    /// event that can move a covering set.
    ring_generation: u64,
    /// Bumped whenever `queries` gains a similarity query or loses any.
    query_generation: u64,
    /// The current NPER round's shared candidate scan (DESIGN.md §9).
    round_scan: notify::RoundScan,
    /// Retry/backoff state machine (DESIGN.md §12); `None` (the
    /// default) is the lossless degenerate case of the send seam: nothing is
    /// judged and no fault randomness exists to draw from.
    reliability: Option<ReliabilityState>,
    /// State effects of `Delay`ed messages, parked until the receiver's
    /// next notify cycle drains them.
    pending: Vec<PendingDelivery>,
    /// Achieved dissemination coverage per query posted while a fault
    /// plan was armed (1.0 = the full key range was confirmed reached).
    query_coverage: DetMap<QueryId, f64>,
    /// Per-round load history (see [`crate::load`]); filled only when the
    /// driver calls [`Cluster::record_load_round`], so undriven runs stay
    /// byte-identical to the historical behavior.
    load_ledger: LoadLedger,
    /// Virtual identifier → physical host it is accounted to. Empty until
    /// re-weighting acts.
    virtual_of: BTreeMap<ChordId, ChordId>,
    /// Re-weighting policy; `None` (the default) disables the mitigation.
    reweight: Option<ReweightConfig>,
    /// Re-weighting actions taken, in execution order.
    reweight_actions: Vec<ReweightAction>,
    /// Reusable summarization scratch for the sequential ingest path: once
    /// its buffers hold their high-water capacity, steady-state
    /// `post_value`/`ingest_batch` ticks perform zero heap allocations
    /// (DESIGN.md §14).
    ingest_scratch: SummaryScratch,
    /// Reusable per-batch emission slots for [`Cluster::ingest_batch`].
    emit_scratch: Vec<Option<Mbr>>,
    /// Reusable `(stream, MBR)` staging for the sequential batch path.
    pending_emit: Vec<(StreamId, Mbr)>,
    /// Worker preference for [`Cluster::ingest_batch`], snapshotted from
    /// `DSI_WORKERS` / host parallelism at construction: re-reading the
    /// environment every tick costs a lock-guarded scan (plus an
    /// allocation when the override is set) on the hot path.
    ingest_workers: usize,
}

impl Cluster<Ring> {
    /// Builds a cluster on the default Chord backend.
    ///
    /// # Panics
    /// Panics if `num_nodes == 0` or the workload config is invalid.
    pub fn new(cfg: ClusterConfig) -> Self {
        Cluster::with_backend(cfg)
    }
}

impl<R: BuildRouter> Cluster<R> {
    /// Builds a cluster on any routing backend: node identifiers are SHA-1
    /// hashes of their labels (consistent hashing), and the backend's
    /// routing state is fully constructed.
    ///
    /// # Panics
    /// Panics if `num_nodes == 0` or the workload config is invalid.
    pub fn with_backend(cfg: ClusterConfig) -> Self {
        assert!(cfg.num_nodes > 0, "need at least one data center");
        cfg.workload.validate();
        let space = IdSpace::new(cfg.id_bits);
        let mut ids = Vec::with_capacity(cfg.num_nodes);
        let mut salt = 0u32;
        while ids.len() < cfg.num_nodes {
            let label = format!("data-center-{}-{}", ids.len(), salt);
            let id = space.hash_str(&label);
            if ids.contains(&id) {
                salt += 1; // hash collision in a small space: re-salt
            } else {
                ids.push(id);
                salt = 0;
            }
        }
        let ring = R::build(space, &ids);
        let nodes = ids.iter().map(|&id| (id, DataCenter::new(id))).collect();
        Cluster {
            cfg,
            space,
            ring,
            nodes,
            node_order: ids,
            streams: Vec::new(),
            homed: DetMap::default(),
            queries: BTreeMap::new(),
            aggregates: Vec::new(),
            aggregate_notifications: DetMap::default(),
            notifications: DetMap::default(),
            ip_results: DetMap::default(),
            ip_alerts: DetMap::default(),
            location_cache: DetMap::default(),
            location_cache_hits: 0,
            location_misses: 0,
            ledger: send::Ledger::new(),
            measuring: false,
            repair_on_churn: true,
            stabilization_enabled: true,
            next_query: 1,
            quality: QualityStats::default(),
            ring_generation: 0,
            query_generation: 0,
            round_scan: notify::RoundScan::default(),
            reliability: None,
            pending: Vec::new(),
            query_coverage: DetMap::default(),
            load_ledger: LoadLedger::new(),
            virtual_of: BTreeMap::new(),
            reweight: None,
            reweight_actions: Vec::new(),
            ingest_scratch: SummaryScratch::default(),
            emit_scratch: Vec::new(),
            pending_emit: Vec::new(),
            ingest_workers: ingest::worker_count(),
        }
    }
}

impl<R: ContentRouter> Cluster<R> {
    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The identifier space.
    pub fn space(&self) -> IdSpace {
        self.space
    }

    /// The underlying routing backend.
    pub fn ring(&self) -> &R {
        &self.ring
    }

    /// Chord identifier of the `i`-th data center.
    pub fn node_id(&self, i: usize) -> ChordId {
        self.node_order[i]
    }

    /// All data-center identifiers, in creation order.
    pub fn node_ids(&self) -> &[ChordId] {
        &self.node_order
    }

    /// Number of data centers.
    pub fn num_nodes(&self) -> usize {
        self.node_order.len()
    }

    /// Read access to a data center.
    pub fn node(&self, id: ChordId) -> &DataCenter {
        &self.nodes[&id]
    }

    /// Write access to a live data center.
    fn node_mut(&mut self, id: ChordId) -> &mut DataCenter {
        self.nodes.get_mut(&id).expect("data center is live")
    }

    /// Registered streams.
    pub fn streams(&self) -> &[StreamRuntime] {
        &self.streams
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        self.ledger.metrics()
    }

    /// Quality counters (candidates vs verified matches).
    pub fn quality(&self) -> QualityStats {
        self.quality
    }

    /// Starts counting messages (call after warm-up); clears history —
    /// including any captured trace, so trace and metrics describe the same
    /// measurement window.
    pub fn start_measurement(&mut self) {
        self.ledger.reset();
        self.measuring = true;
    }

    /// Stops counting messages.
    pub fn stop_measurement(&mut self) {
        self.measuring = false;
    }

    /// Enables causal message tracing into a ring buffer of at most
    /// `capacity` records. While both tracing and measurement are on, every
    /// overlay message charged to [`Cluster::metrics`] also appends a
    /// `dsi_trace::TraceRecord`, parent-linked to the event that caused it;
    /// the conformance suite reconciles the two bit-for-bit. Off by
    /// default: the instrumented paths then cost a single branch.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.ledger.enable_tracing(capacity);
    }

    /// The causal tracer (records, multicast metadata, drop counter).
    pub fn tracer(&self) -> &Tracer {
        self.ledger.tracer()
    }

    /// Sets the trace clock. Entry points that take a `now` argument stamp
    /// it themselves; drivers should call this before operations that do
    /// not ([`Cluster::rebalance_replicas`] via churn, registration) so
    /// their records carry the right simulated time.
    pub fn set_trace_time(&mut self, now: SimTime) {
        self.ledger.set_trace_time(now);
    }

    /// Installs a per-class fault plan and arms the reliability layer
    /// (retry/backoff, duplicate suppression, successor-list multicast
    /// failover, parked late effects — DESIGN.md §12). `FaultPlan::NONE`
    /// disarms it: the send seam then delivers everything it is not
    /// partitioned from and consumes no fault randomness, keeping golden
    /// outputs byte-identical. Effects parked while armed still drain at
    /// their receivers' next cycles. The fault RNG is seeded from `seed`;
    /// derive it from the scenario seed.
    ///
    /// # Panics
    /// Panics if the plan's probabilities are invalid.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        plan.validate();
        self.reliability =
            if plan.is_none() { None } else { Some(ReliabilityState::new(plan, seed)) };
    }

    /// Whether a fault plan is currently armed.
    pub fn fault_plan_active(&self) -> bool {
        self.reliability.is_some()
    }

    /// Fraction of a query's key range confirmed reached when it was
    /// disseminated. `None` for queries posted while no fault plan was
    /// armed — dissemination is then complete by construction.
    pub fn query_coverage(&self, q: QueryId) -> Option<f64> {
        self.query_coverage.get(&q).copied()
    }

    /// Analytic retry-backoff latency accumulated so far, in virtual
    /// milliseconds (the virtual clock itself is never shifted).
    pub fn backoff_ms_total(&self) -> u64 {
        self.reliability.as_ref().map_or(0, |r| r.backoff_ms_total)
    }

    /// Parked late effects not yet drained by their receiver's cycle.
    pub fn pending_effects(&self) -> usize {
        self.pending.len()
    }

    /// Notifications delivered so far for a similarity query.
    pub fn notifications(&self, q: QueryId) -> &[MatchNotification] {
        self.notifications.get(&q).map_or(&[], |v| v.as_slice())
    }

    /// Periodic values pushed so far for an inner-product query.
    pub fn ip_results(&self, q: QueryId) -> &[(SimTime, f64)] {
        self.ip_results.get(&q).map_or(&[], |v| v.as_slice())
    }

    /// Alert pushes (value satisfied the query's alert condition).
    pub fn ip_alerts(&self, q: QueryId) -> &[(SimTime, f64)] {
        self.ip_alerts.get(&q).map_or(&[], |v| v.as_slice())
    }

    /// Location-service lookups avoided thanks to client-side caching
    /// (§IV-D).
    pub fn location_cache_hits(&self) -> u64 {
        self.location_cache_hits
    }

    /// Location-service lookups that found no record (lost to churn and not
    /// yet refreshed by the source's periodic re-registration).
    pub fn location_misses(&self) -> u64 {
        self.location_misses
    }

    /// Notifications delivered so far for an aggregate query.
    pub fn aggregate_notifications(&self, q: QueryId) -> &[AggregateNotification] {
        self.aggregate_notifications.get(&q).map_or(&[], |v| v.as_slice())
    }

    /// Total aggregate notifications delivered across all queries.
    pub fn total_aggregate_notifications(&self) -> u64 {
        self.aggregate_notifications.iter_sorted().map(|(_, v)| v.len() as u64).sum()
    }

    /// The registered (unpurged) similarity query with this id: the one
    /// copy of its body; covering nodes hold only its id and expiry.
    pub fn similarity_query(&self, q: QueryId) -> Option<&SimilarityQuery> {
        match self.queries.get(&q)? {
            QueryRuntime::Similarity(sq) => Some(sq),
            QueryRuntime::InnerProduct(_) => None,
        }
    }

    /// The live (unexpired, unpurged) aggregate query with this id.
    pub fn aggregate_query(&self, q: QueryId) -> Option<&AggregateQuery> {
        self.aggregates.iter().find(|a| a.query.id == q).map(|a| &a.query)
    }

    /// Nodes currently holding a replica sketch for an aggregate query,
    /// each with the virtual time its replica started counting.
    pub fn aggregate_replicas(&self, q: QueryId) -> Vec<(ChordId, SimTime)> {
        self.aggregates
            .iter()
            .find(|a| a.query.id == q)
            .map_or(Vec::new(), |a| a.replicas.iter().map(|&(n, since, _)| (n, since)).collect())
    }

    /// Total match notifications delivered across all queries.
    pub fn total_notifications(&self) -> u64 {
        self.notifications.iter_sorted().map(|(_, v)| v.len() as u64).sum()
    }

    /// Whether churn operations automatically rebalance replicas.
    pub fn churn_repair(&self) -> bool {
        self.repair_on_churn
    }

    /// Enables or disables the automatic [`Cluster::rebalance_replicas`]
    /// pass after [`Cluster::crash_node`] / [`Cluster::join_node`] (on by
    /// default). Disabled, the middleware falls back to pure soft-state
    /// healing: coverage holes persist until the next MBR shipment or
    /// location refresh. The fault-injection harness uses this switch to
    /// verify its oracles catch the resulting coverage violations.
    pub fn set_churn_repair(&mut self, enabled: bool) {
        self.repair_on_churn = enabled;
    }

    // ------------------------------------------------------------------
    // Load ledger & virtual-node accounting (see crate::load)
    // ------------------------------------------------------------------

    /// The per-round load history. Empty unless the driver sampled rounds
    /// with [`Cluster::record_load_round`].
    pub fn load_ledger(&self) -> &LoadLedger {
        &self.load_ledger
    }

    /// Physical host an identifier's load is attributed to: virtual
    /// identifiers map to their assigned host while that host lives,
    /// everything else (including virtuals orphaned by a host crash) maps
    /// to itself.
    pub fn physical_of(&self, id: ChordId) -> ChordId {
        match self.virtual_of.get(&id) {
            Some(&host) if self.nodes.contains_key(&host) => host,
            _ => id,
        }
    }

    /// Number of live virtual identifiers created by re-weighting.
    pub fn virtual_node_count(&self) -> usize {
        self.virtual_of.keys().filter(|id| self.nodes.contains_key(id)).count()
    }

    /// Arms (or disarms, with `None`) the virtual-node re-weighting
    /// mitigation evaluated by `Cluster::maybe_reweight`.
    ///
    /// # Panics
    /// Panics if the config is internally inconsistent.
    pub fn set_reweighting(&mut self, cfg: Option<ReweightConfig>) {
        if let Some(c) = &cfg {
            c.validate();
        }
        self.reweight = cfg;
    }

    /// Re-weighting actions taken so far, in execution order.
    pub fn reweight_actions(&self) -> &[ReweightAction] {
        &self.reweight_actions
    }

    /// Samples one load-ledger round at `now`: every live identifier's
    /// cumulative message count (from [`Metrics`]), stored MBRs and
    /// subscription gauge, attributed to its physical host. Call once per
    /// NPER round; purely observational (no RNG, no messages, no state
    /// change beyond the ledger).
    pub fn record_load_round(&mut self, now: SimTime) {
        let samples: Vec<(ChordId, ChordId, u64, u64, u64)> = self
            .node_order
            .iter()
            .map(|&id| {
                let dc = &self.nodes[&id];
                (
                    id,
                    self.physical_of(id),
                    self.ledger.metrics().node_message_count(id),
                    dc.mbr_count() as u64,
                    dc.subscription_count() as u64,
                )
            })
            .collect();
        self.load_ledger.record(now.as_ms(), samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_simnet::FaultSpec;

    pub(super) fn small_cluster(n: usize) -> Cluster {
        let mut cfg = ClusterConfig::new(n);
        cfg.workload.window_len = 16;
        cfg.workload.num_coeffs = 2;
        cfg.workload.mbr_batch = 4;
        // These tests exercise exact ζ cadence and matching against
        // z-normalized (phase-rotating) features; the routing-width bound
        // would split batches and is covered by its own tests.
        cfg.workload.mbr_max_width = None;
        Cluster::new(cfg)
    }

    pub(super) fn wave(n: usize, f: f64, phase: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * f + phase).sin() * 3.0 + 10.0).collect()
    }

    /// Feeds a full window + enough extra values to flush at least one MBR.
    pub(super) fn feed_stream(
        c: &mut Cluster,
        sid: StreamId,
        values: &[f64],
        now: SimTime,
    ) -> usize {
        let mut mbrs = 0;
        for &v in values {
            if c.post_value(sid, v, now).is_some() {
                mbrs += 1;
            }
        }
        mbrs
    }

    pub(super) fn spec(drop: f64, dup: f64, delay: f64) -> FaultSpec {
        FaultSpec { drop_prob: drop, dup_prob: dup, delay_prob: delay }
    }

    #[test]
    fn node_ids_are_unique() {
        let c = small_cluster(50);
        let mut ids = c.node_ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }
}
