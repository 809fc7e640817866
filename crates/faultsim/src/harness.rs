//! Scenario execution against a full [`Cluster`], with an invariant audit
//! after every event.
//!
//! Ten oracles run after each scheduled event:
//!
//! 1. **No false dismissals** — every match a brute-force reference index
//!    (a flat list of all surviving MBR records) produces must also be a
//!    candidate of the distributed index, via the query's covering set.
//! 2. **Routing termination** — lookups and range multicasts from every
//!    live node end on live nodes, over live-node paths.
//! 3. **Replica placement** — every unexpired stored MBR sits on *exactly*
//!    the covering set of its Eq. 10 key range (plus its live origin), and
//!    every unexpired query is subscribed on its Eq. 8 covering set.
//! 4. **Metrics conservation** — sent/received/total bookkeeping agrees,
//!    and recorded hop sums reconcile with per-hop message counts.
//! 5. **Purge** — after a notify round, no expired MBR or subscription
//!    survives on any node whose cycle actually ran.
//! 6. **Trace conformance** — the causal trace (see `dsi-trace`) is
//!    well-formed, its reconstructed per-class counters equal [`Metrics`]
//!    bit for bit, and every multicast traced since the previous audit
//!    delivered to exactly the brute-force owner set of its key range.
//! 7. **Eventual completeness** — when per-class faults degrade coverage
//!    (DESIGN.md §12), the coverage oracles (1 and 3) switch from instant
//!    to eventual mode: a hole is tolerated while the periodic repair
//!    converges, but must close within `K_REFRESH_ROUNDS` NPER rounds.
//! 8. **Load balance** — when a [`LoadBound`] envelope is armed, the
//!    per-host max/mean message ratio of each NPER round (from the
//!    cluster's load ledger, DESIGN.md §13) must stay under the bound;
//!    `grace_rounds` consecutive hot rounds are tolerated, plus
//!    `recovery_rounds` more when virtual-node re-weighting is armed —
//!    after which a still-hot ring means the mitigation was ineffective.
//! 9. **Sketch accuracy** — when an [`AggregatesConfig`] is armed, every
//!    [`AggregateNotification`] is audited against a brute-force exact
//!    sliding-window reference computed from the run's own feed log,
//!    scoped to the notification's contributor set (a replica healed at
//!    time `s` only ever saw events at `t ≥ s`, and a node that never
//!    contributed contributes nothing to the reference either). The
//!    estimate must sit within `ε_eff·N + C` of the reference (`C` =
//!    merged components), with a miss budget proportional to δ; and the
//!    advertised `ε_eff` must equal `ε + (1 − coverage)` exactly —
//!    degraded rounds widen the contract, they never silently lie.
//! 10. **Post-heal convergence** — when a
//!     [`crate::scenario::PartitionConfig`] is armed,
//!     holes the split tears open are tolerated while the cut is up (the
//!     suppression is deterministic; they provably cannot close), but
//!     within `K_REFRESH_ROUNDS` NPER rounds of the heal the ring's
//!     successor/finger state must match the brute-force recomputation,
//!     covering-set placement (Eq. 6) must be green again, no unexpired
//!     registration may be lost, and a freshly posted probe query must
//!     see full (1.0) coverage. The negative control — stabilization
//!     disabled, so the healed ring never re-probes its parked suspects —
//!     must trip this oracle.
//!
//! [`Metrics`]: dsi_simnet::Metrics
//!
//! NPER faults ([`ScenarioConfig::faults`], drop/duplicate/delay) apply
//! only to notify ticks: they model lost periodic messages, which the
//! middleware's soft state must absorb, and they provably cannot create
//! index-coverage violations — so every oracle stays sound and *instant*
//! under them. Per-class faults ([`ScenarioConfig::class_faults`]) instead
//! hit every overlay send inside the cluster's reliability layer; retry,
//! failover and degradation bound the damage, and oracle 7 verifies the
//! repair loop erases it.

use crate::oracle::OracleId;
use crate::scenario::{AggregatesConfig, FaultEvent, LoadBound, Scenario, ScenarioConfig};
use dsi_chord::{covering_nodes, multicast, ChordId, Ring};
use dsi_core::{
    quantize, radius_key_range, AggregateKind, AggregateNotification, AggregateSpec,
    AggregateValue, Cluster, ClusterConfig, DataCenter, LoadBalanceReport, QueryId,
    ReliabilityReport, SimilarityQuery, SketchDims, StoredMbr, StreamId,
};
use dsi_simnet::{DelayQueue, FaultOutcome, MsgClass, SimTime, NUM_CLASSES};
use dsi_streamgen::{CorrelatedWalks, TenantLedger, ZipfSampler};
use dsi_trace::{multicast_delivery_set, validate_causality, TraceSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One invariant violation, pinned to the event that exposed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which oracle fired: the stable [`OracleId::slug`] of one of the
    /// [`crate::oracle::ORACLES`] (kept as a string so reproducer JSON
    /// stays self-describing and rename-proof).
    pub oracle: String,
    /// Human-readable description of the violated invariant.
    pub detail: String,
    /// Index of the event after which the check failed.
    pub event_index: usize,
    /// Simulated time of the check, in ms.
    pub time_ms: u64,
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// First violation, if any (the run stops there).
    pub violation: Option<Violation>,
    /// Events executed (schedule length, or the failing prefix).
    pub events_run: usize,
    /// MBR batches shipped into the index.
    pub mbr_ships: u64,
    /// Similarity queries posted.
    pub queries_posted: u64,
    /// Match notifications delivered to clients.
    pub notifications: u64,
    /// Data centers alive at the end.
    pub final_nodes: usize,
    /// Final simulated time in ms.
    pub final_time_ms: u64,
    /// Causal-trace digest of the run: counts, golden hash, per-class
    /// latency/hop percentiles. Attached to reproducers on failure.
    pub trace: TraceSummary,
    /// Reliability-layer totals (retries, redeliveries, suppressed
    /// duplicates, coverage). All-zero / coverage-free when
    /// [`ScenarioConfig::class_faults`] is `FaultPlan::NONE`.
    pub reliability: ReliabilityReport,
    /// Queries turned away by per-tenant admission quotas (always zero
    /// without a tenant policy).
    pub quota_rejections: u64,
    /// Per-round load-distribution summary from the cluster's load ledger
    /// (DESIGN.md §13), including any re-weighting actions taken.
    pub load: LoadBalanceReport,
    /// Aggregate queries posted (always zero without an armed
    /// [`AggregatesConfig`]).
    pub aggregates_posted: u64,
    /// Aggregate notifications delivered across all aggregate queries.
    pub aggregate_notifications: u64,
    /// Overlay sends suppressed by an armed network partition — ledgered
    /// separately from random drop faults (DESIGN.md §17) and reconciled
    /// against the metrics ledger by oracle 4. Always zero without a
    /// [`crate::scenario::PartitionConfig`].
    pub partition_suppressed: u64,
}

/// Replays a scenario's schedule against a fresh cluster, auditing every
/// invariant after every event. Stops at the first violation; a failing
/// run additionally exports its causal trace as a chrome://tracing
/// timeline to `results/repro-<seed>.trace.json`, next to where the
/// reproducer lands.
pub fn run_scenario(scenario: &Scenario) -> RunReport {
    let mut h = Harness::new(scenario);
    for (i, ev) in scenario.events.iter().enumerate() {
        h.apply(ev);
        if let Some((oracle, detail)) = h.check_oracles(ev) {
            h.export_timeline(scenario.seed);
            return RunReport {
                violation: Some(Violation {
                    oracle: oracle.slug().into(),
                    detail,
                    event_index: i,
                    time_ms: h.now.as_ms(),
                }),
                events_run: i + 1,
                mbr_ships: h.mbr_ships,
                queries_posted: h.queries_posted,
                notifications: h.cluster.total_notifications(),
                final_nodes: h.cluster.num_nodes(),
                final_time_ms: h.now.as_ms(),
                trace: h.trace_summary(),
                reliability: ReliabilityReport::from_metrics(h.cluster.metrics()),
                quota_rejections: h.quota_rejections,
                load: h.load_report(),
                aggregates_posted: h.aggregates_posted,
                aggregate_notifications: h.cluster.total_aggregate_notifications(),
                partition_suppressed: h.cluster.tracer().suppressed_total(),
            };
        }
    }
    RunReport {
        violation: None,
        events_run: scenario.events.len(),
        mbr_ships: h.mbr_ships,
        queries_posted: h.queries_posted,
        notifications: h.cluster.total_notifications(),
        final_nodes: h.cluster.num_nodes(),
        final_time_ms: h.now.as_ms(),
        trace: h.trace_summary(),
        reliability: ReliabilityReport::from_metrics(h.cluster.metrics()),
        quota_rejections: h.quota_rejections,
        load: h.load_report(),
        aggregates_posted: h.aggregates_posted,
        aggregate_notifications: h.cluster.total_aggregate_notifications(),
        partition_suppressed: h.cluster.tracer().suppressed_total(),
    }
}

/// `MsgClass` names in index order, for trace exports and summaries.
fn class_names() -> Vec<&'static str> {
    MsgClass::ALL.iter().map(|c| c.name()).collect()
}

/// Trace ring capacity: comfortably above the record count of the longest
/// tier-1 schedule, so oracle 6 always audits a complete trace.
const TRACE_CAPACITY: usize = 1 << 20;

/// Refresh rounds the eventual-completeness oracle grants repair before a
/// persistent coverage hole becomes a violation. Each NPER round runs one
/// [`Cluster::repair_coverage`] sweep, which re-sends every missing copy
/// through the armed fault plan; with per-copy retry budgets of 5 the
/// probability a specific copy survives `drop_prob = 0.3` unrepaired for 6
/// independent sweeps is (0.3⁶)⁶ ≈ 10⁻¹⁹ — any persistent hole is a bug,
/// not bad luck.
const K_REFRESH_ROUNDS: u32 = 6;

/// Scenario executor: the cluster under test plus the reference state the
/// oracles compare against.
struct Harness {
    cluster: Cluster<Ring>,
    cfg: ScenarioConfig,
    /// Execution RNG: stream values, query shapes, fault draws — consumed
    /// strictly in event order (the truncation-replay guarantee).
    rng: StdRng,
    now: SimTime,
    /// Stream value generators: independent walks at `rho == 0`
    /// (bit-identical to the historical `Vec<RandomWalk>` path), blended
    /// with a shared latent walk under correlation skew.
    walks: CorrelatedWalks,
    /// Execution-time Zipf anchor sampler for query storms (mirrors the
    /// generation-side sampler used for scheduled `PostQuery` events).
    zipf: Option<ZipfSampler>,
    /// Per-tenant admission quotas; `None` admits everything.
    tenants: Option<TenantLedger>,
    /// Brute-force reference index: every shipped record, pruned when its
    /// last live holder disappears or it expires.
    ref_mbrs: Vec<StoredMbr>,
    /// Reference copies of posted queries (pruned on expiry).
    ref_queries: Vec<SimilarityQuery>,
    /// Nodes whose NPER cycle was delayed into a later round, keyed by the
    /// simulated time their late cycle becomes due.
    delayed: DelayQueue<ChordId>,
    /// Nodes whose cycle ran during the latest notify round.
    notified: Vec<ChordId>,
    mbr_ships: u64,
    queries_posted: u64,
    join_counter: u32,
    /// Multicast metas already coverage-checked by oracle 6 (delta cursor:
    /// each meta is audited exactly once, against the ring it was sent on).
    audited_multicasts: usize,
    /// Consecutive Notify-round audits on which a coverage oracle (1 or 3)
    /// reported a hole while per-class faults were active. Reset to zero on
    /// any clean audit; past [`K_REFRESH_ROUNDS`] oracle 7 fires.
    incomplete_rounds: u32,
    /// Consecutive Notify rounds whose max/mean ratio exceeded the armed
    /// [`LoadBound`]; past its grace (plus recovery, when mitigation is
    /// armed) oracle 8 fires.
    hot_rounds: u32,
    /// Queries rejected by the tenant quota.
    quota_rejections: u64,
    /// Exact feed log for the sketch-accuracy oracle: `(home node, value,
    /// at_ms)` for every value posted while an [`AggregatesConfig`] is
    /// armed (empty otherwise). A value counts toward a notification's
    /// reference exactly when its home is in the contributor set and its
    /// timestamp is at or after that replica's `since` — the same
    /// condition under which the cluster's ingest path sketched it.
    agg_log: Vec<(ChordId, f64, u64)>,
    /// Posted aggregate queries with their audit cursors and δ budgets.
    agg_audits: Vec<AggAudit>,
    /// Aggregate queries posted so far.
    aggregates_posted: u64,
    /// Completed NPER rounds since the partition healed. `None` before
    /// the heal — and again once oracle 10 has confirmed convergence, so
    /// later loss-induced holes are judged by oracle 7, not blamed on
    /// the long-converged heal.
    rounds_since_heal: Option<u32>,
    /// Oracle 10's one-shot probe query was posted and checked.
    heal_probe_done: bool,
}

/// Deliberately under-sized sketch shape for the negative control: one
/// row of two counters with `k = 1` cannot honor any realistic ε.
const UNDERSIZED_DIMS: SketchDims = SketchDims { width: 2, depth: 1, k: 1 };

/// Audit state for one posted aggregate query: which notifications were
/// already checked, and the running ε-δ miss budget.
struct AggAudit {
    id: QueryId,
    kind: AggregateKind,
    /// Notifications already audited (delta cursor).
    cursor: usize,
    /// Bound checks performed across all audited notifications.
    checks: u64,
    /// Bound checks that missed. The δ contract makes occasional misses
    /// legitimate; the oracle fires when misses exceed
    /// `max(1, ⌈δ·checks⌉)`.
    failures: u64,
    /// Detail of the most recent miss, for the eventual violation.
    last_miss: String,
}

/// Structural lies in one aggregate notification — checked before the
/// estimate itself, and never δ-budgeted: a contract that *tightens* under
/// degradation, or a coverage/ε_eff pair that disagrees with the
/// `ε_eff = ε + (1 − coverage)` composition rule, is wrong regardless of
/// how accurate the estimate happens to be.
fn structural_violation(agg: &AggregatesConfig, note: &AggregateNotification) -> Option<String> {
    if !note.coverage.is_finite() || !(-1e-9..=1.0 + 1e-9).contains(&note.coverage) {
        return Some(format!("query {}: coverage {} outside [0, 1]", note.query, note.coverage));
    }
    if note.eps_effective < agg.eps - 1e-9 {
        return Some(format!(
            "query {}: advertised eps {} tighter than the posted contract ε = {} — bounds may \
             widen, never tighten",
            note.query, note.eps_effective, agg.eps
        ));
    }
    let want = agg.eps + (1.0 - note.coverage.clamp(0.0, 1.0));
    if (note.eps_effective - want).abs() > 1e-9 {
        return Some(format!(
            "query {}: eps_effective {} disagrees with ε + (1 − coverage) = {want} at coverage {}",
            note.query, note.eps_effective, note.coverage
        ));
    }
    None
}

/// Brute-force covering set, computed independently of the multicast
/// planner: every node whose owned arc `(pred, n]` intersects the circular
/// key range `[lo, hi]`. `sorted` must be the live node ids in ascending
/// order.
fn brute_owners(
    space: dsi_chord::IdSpace,
    sorted: &[ChordId],
    lo: ChordId,
    hi: ChordId,
) -> BTreeSet<ChordId> {
    let contains =
        |a: ChordId, b: ChordId, x: ChordId| space.distance_cw(a, x) <= space.distance_cw(a, b);
    let mut owners = BTreeSet::new();
    for (i, &n) in sorted.iter().enumerate() {
        let pred = sorted[(i + sorted.len() - 1) % sorted.len()];
        let own_lo = space.add(pred, 1);
        // Two circular closed intervals intersect iff either contains the
        // other's low endpoint.
        if contains(own_lo, n, lo) || contains(lo, hi, own_lo) {
            owners.insert(n);
        }
    }
    owners
}

impl Harness {
    fn new(scenario: &Scenario) -> Self {
        let cfg = scenario.config.clone();
        let cluster_cfg = ClusterConfig {
            num_nodes: cfg.num_nodes,
            workload: cfg.workload.clone(),
            id_bits: 32,
            strategy: cfg.strategy,
            kind: dsi_core::SimilarityKind::Subsequence,
        };
        let mut cluster = Cluster::new(cluster_cfg);
        cluster.set_churn_repair(!cfg.disable_churn_repair);
        // The convergence oracle's bug injection: without stabilization a
        // healed ring never re-probes its parked suspects.
        cluster.set_stabilization_enabled(!cfg.disable_stabilization);
        // Arm (or leave disarmed) the virtual-node re-weighting mitigation.
        cluster.set_reweighting(cfg.mitigation);
        // Arm the reliability layer with its own seed stream, decoupled from
        // the execution RNG so schedules truncate-replay identically whether
        // or not per-class faults are active. `FaultPlan::NONE` disarms.
        cluster.set_fault_plan(
            cfg.class_faults,
            scenario.seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(0x2545_F491_4F6C_DD1D),
        );
        let mut rng = StdRng::seed_from_u64(scenario.seed);
        for i in 0..cfg.num_streams {
            cluster.register_stream(&format!("fault-stream-{i}"), i % cfg.num_nodes);
        }
        // At rho == 0 this draws exactly one sample_spread per stream and
        // no latent walk — the same rng consumption, and the same values,
        // as the historical independent-walk vector.
        let walks = CorrelatedWalks::sample_spread(&mut rng, cfg.num_streams, cfg.skew.rho);
        let zipf = cfg.skew.zipf_exponent.map(|s| ZipfSampler::new(cfg.num_streams, s));
        let tenants = cfg.skew.tenants.map(TenantLedger::new);
        // Measure from the start: oracle 4 audits the full message history,
        // and oracle 6 audits its causal trace against it.
        cluster.enable_tracing(TRACE_CAPACITY);
        cluster.start_measurement();
        Harness {
            cluster,
            cfg,
            rng,
            now: SimTime::ZERO,
            walks,
            zipf,
            tenants,
            ref_mbrs: Vec::new(),
            ref_queries: Vec::new(),
            delayed: DelayQueue::new(),
            notified: Vec::new(),
            mbr_ships: 0,
            queries_posted: 0,
            join_counter: 0,
            audited_multicasts: 0,
            incomplete_rounds: 0,
            hot_rounds: 0,
            quota_rejections: 0,
            agg_log: Vec::new(),
            agg_audits: Vec::new(),
            aggregates_posted: 0,
            rounds_since_heal: None,
            heal_probe_done: false,
        }
    }

    /// Load-distribution summary of the run so far.
    fn load_report(&self) -> LoadBalanceReport {
        LoadBalanceReport::from_ledger(
            self.cluster.load_ledger(),
            self.cluster.reweight_actions().len() as u64,
            self.cluster.virtual_node_count() as u64,
        )
    }

    /// Compact trace digest of the run so far (attached to every report).
    fn trace_summary(&self) -> TraceSummary {
        TraceSummary::from_tracer(self.cluster.tracer(), &class_names())
    }

    /// Write the captured trace as a chrome://tracing timeline next to the
    /// reproducer. Best effort: a failing oracle must never be masked by
    /// an export error.
    fn export_timeline(&self, seed: u64) {
        let dir = crate::repro::results_dir();
        let _ = std::fs::create_dir_all(&dir);
        let mut buf = Vec::new();
        let records = self.cluster.tracer().snapshot();
        if dsi_trace::write_chrome_trace(&mut buf, &records, &class_names(), &[]).is_ok() {
            let _ = std::fs::write(dir.join(format!("repro-{seed}.trace.json")), buf);
        }
    }

    /// Mean stream period — the virtual-time width of one feed tick.
    fn tick_ms(&self) -> u64 {
        (self.cfg.workload.pmin_ms + self.cfg.workload.pmax_ms) / 2
    }

    fn feed_one(&mut self, stream: usize) {
        let v = self.walks.next_value(stream, &mut self.rng);
        if self.cfg.aggregates.is_some() {
            let home = self.cluster.streams()[stream].home;
            self.agg_log.push((home, v, self.now.as_ms()));
        }
        if let Some(plan) = self.cluster.post_value(stream as StreamId, v, self.now) {
            self.mbr_ships += 1;
            // Capture the shipped record for the reference index: the entry
            // delivery stored it last — unless total loss or a severed
            // covering set left nothing on the wire, in which case the
            // summary fell back to the §IV-A local store at the home.
            let at = match plan.deliveries.first() {
                Some(d) => d.node,
                None => self.cluster.streams()[stream].home,
            };
            let rec = self
                .cluster
                .node(at)
                .summaries()
                .last()
                .expect("delivery node stored the shipment")
                .to_stored();
            self.ref_mbrs.push(rec);
        }
    }

    /// One virtual-time tick advancing every stream by one value through the
    /// parallel batch-ingest path. Random values are drawn sequentially in
    /// stream order *before* summarization, so rng consumption is identical
    /// to the per-stream [`Harness::feed_one`] loop this replaces; shipped
    /// records are reconstructed from the batch result (same fields the
    /// cluster stored) instead of being fished out of a node's shard.
    fn feed_tick(&mut self) {
        self.now += self.tick_ms();
        // One correlated tick: the latent walk advances first (a no-op at
        // rho == 0), then every stream in index order — the same per-stream
        // draw sequence as the historical loop.
        let values: Vec<(StreamId, f64)> = self
            .walks
            .next_tick(&mut self.rng)
            .into_iter()
            .enumerate()
            .map(|(s, v)| (s as StreamId, v))
            .collect();
        if self.cfg.aggregates.is_some() {
            let at = self.now.as_ms();
            for &(s, v) in &values {
                let home = self.cluster.streams()[s as usize].home;
                self.agg_log.push((home, v, at));
            }
        }
        let bspan = self.cluster.config().workload.bspan_ms;
        for (stream, mbr, _plan) in self.cluster.ingest_batch(&values, self.now) {
            self.mbr_ships += 1;
            let origin = self.cluster.streams()[stream as usize].home;
            let expires = self.now + bspan;
            self.ref_mbrs.push(StoredMbr { stream, mbr, origin, expires });
        }
    }

    fn post_query(&mut self, client: u32, anchor: u32, radius: f64, lifespan_ms: u64) {
        let w = self.cfg.workload.window_len;
        let anchor = anchor as usize % self.cfg.num_streams;
        // Tenant admission runs before any rng draw, so a rejected query
        // consumes nothing and the remaining schedule replays identically.
        if let Some(t) = &mut self.tenants {
            let tenant = t.tenant_of(anchor);
            if !t.try_admit(tenant) {
                self.quota_rejections += 1;
                return;
            }
        }
        let target: Vec<f64> = if self.cluster.streams()[anchor].extractor.is_warm() {
            // Near-miss of a live shape: exercises both matches and the
            // false-positive filter.
            let snap = self.cluster.streams()[anchor].extractor.window_snapshot();
            let jitter = self.rng.gen_range(0.0..0.1);
            snap.iter().enumerate().map(|(i, v)| v + jitter * ((i as f64) * 1.7).cos()).collect()
        } else {
            let f: f64 = self.rng.gen_range(0.1..0.9);
            let a: f64 = self.rng.gen_range(0.5..3.0);
            (0..w).map(|i| a * ((i as f64) * f).sin() + 5.0).collect()
        };
        let client_idx = client as usize % self.cluster.num_nodes();
        let qid = self.cluster.post_similarity_query(
            client_idx,
            target.clone(),
            radius,
            lifespan_ms,
            self.now,
        );
        self.queries_posted += 1;
        // Independent reference copy, built outside the cluster.
        let q = SimilarityQuery::from_target(
            qid,
            self.cluster.node_id(client_idx),
            target,
            radius,
            self.cluster.config().kind,
            self.cfg.workload.num_coeffs,
            0,
            self.now + lifespan_ms,
        );
        self.ref_queries.push(q);
    }

    fn apply(&mut self, ev: &FaultEvent) {
        // Events that trace without an explicit timestamp (churn-repair
        // copies) inherit the current event time.
        self.cluster.set_trace_time(self.now);
        match *ev {
            FaultEvent::Feed { steps } => {
                for _ in 0..steps {
                    self.feed_tick();
                }
            }
            FaultEvent::Burst { stream, count } => {
                self.now += self.tick_ms();
                let s = stream as usize % self.cfg.num_streams;
                for _ in 0..count {
                    self.feed_one(s);
                }
            }
            FaultEvent::PostQuery { client, anchor, radius_milli, lifespan_ms } => {
                self.post_query(client, anchor, radius_milli as f64 / 1000.0, lifespan_ms);
            }
            FaultEvent::QueryStorm { count } => {
                for _ in 0..count {
                    let client: u32 = self.rng.gen();
                    let anchor: u32 = match &self.zipf {
                        Some(z) => z.sample(&mut self.rng) as u32,
                        None => self.rng.gen_range(0..self.cfg.num_streams as u32),
                    };
                    let radius = self.rng.gen_range(0.03..0.25);
                    let lifespan = self.rng.gen_range(4_000..30_000);
                    self.post_query(client, anchor, radius, lifespan);
                }
            }
            FaultEvent::Herd { client, anchor, count } => {
                // Thundering herd: distinct clients rush one anchor in a
                // single tick; radius/lifespan jitter keeps the queries
                // near-identical rather than byte-identical.
                for i in 0..count {
                    let radius = self.rng.gen_range(0.03..0.25);
                    let lifespan = self.rng.gen_range(4_000..30_000);
                    self.post_query(client.wrapping_add(i), anchor, radius, lifespan);
                }
            }
            FaultEvent::CrashNode { victim } => {
                if self.cluster.num_nodes() > 2 {
                    let id = self.cluster.node_id(victim as usize % self.cluster.num_nodes());
                    self.cluster.crash_node(id);
                    self.delayed.retain(|&n| n != id);
                    self.notified.retain(|&n| n != id);
                }
            }
            FaultEvent::JoinNode { salt } => {
                self.join_counter += 1;
                let label = format!("faultsim-join-{salt}-{}", self.join_counter);
                let id = self.cluster.space().hash_str(&label);
                // An (astronomically unlikely) hash collision with a live
                // node would trip the join assertion; skip the event.
                if !self.cluster.node_ids().contains(&id) {
                    self.cluster.join_node(&label);
                }
            }
            FaultEvent::RehomeOrphans { to } => {
                let to_idx = to as usize % self.cluster.num_nodes();
                for sid in self.cluster.orphaned_streams() {
                    self.cluster.rehome_stream(sid, to_idx, self.now);
                }
            }
            FaultEvent::PostAggregate { client, kind } => {
                // Sketch shape comes from the config; the schedule only
                // carries the kind. A schedule with aggregate events but
                // no armed config (hand-edited reproducer) no-ops safely.
                if let Some(agg) = self.cfg.aggregates.clone() {
                    let spec = AggregateSpec {
                        kind,
                        eps: agg.eps,
                        delta: agg.delta,
                        window_ms: agg.window_ms,
                        lifespan_ms: agg.lifespan_ms,
                        bins: agg.bins,
                        forced_dims: agg.undersized.then_some(UNDERSIZED_DIMS),
                    };
                    let client_idx = client as usize % self.cluster.num_nodes();
                    let id = self.cluster.post_aggregate_query(client_idx, spec, self.now);
                    self.aggregates_posted += 1;
                    self.agg_audits.push(AggAudit {
                        id,
                        kind,
                        cursor: 0,
                        checks: 0,
                        failures: 0,
                        last_miss: String::new(),
                    });
                }
            }
            FaultEvent::PartitionSplit => {
                // The island assignment lives in the config (like the
                // aggregate sketch shape); a schedule carrying the marker
                // without an armed config no-ops safely.
                if let Some(p) = self.cfg.partition.clone() {
                    self.cluster.split_partition(&p.islands);
                }
            }
            FaultEvent::PartitionHeal => {
                if self.cfg.partition.is_some() {
                    // Healing re-probes parked suspects unless the
                    // negative-control bug injection is armed — then the
                    // ring stays forked and oracle 10 must notice.
                    self.cluster.heal_partition(!self.cfg.disable_stabilization);
                    self.rounds_since_heal = Some(0);
                    self.heal_probe_done = false;
                    // The convergence clock restarts at the heal: holes
                    // torn by the split get the full K-round repair
                    // budget from here.
                    self.incomplete_rounds = 0;
                }
            }
            FaultEvent::Notify => {
                self.now += self.cfg.workload.nper_ms;
                self.notified.clear();
                // Deliver previously delayed cycles that are now due (late
                // arrival, in original delay order for equal due times).
                for n in self.delayed.drain_due(self.now) {
                    if self.cluster.node_ids().contains(&n) {
                        self.cluster.notify_cycle(n, self.now);
                        self.notified.push(n);
                    }
                }
                let nper = self.cfg.workload.nper_ms;
                for n in self.cluster.node_ids().to_vec() {
                    match self.cfg.faults.outcome(&mut self.rng) {
                        FaultOutcome::Deliver => {
                            self.cluster.notify_cycle(n, self.now);
                            self.notified.push(n);
                        }
                        FaultOutcome::Duplicate => {
                            self.cluster.notify_cycle(n, self.now);
                            self.cluster.notify_cycle(n, self.now);
                            self.notified.push(n);
                        }
                        FaultOutcome::Drop => {}
                        FaultOutcome::Delay => self.delayed.push(self.now + nper, n),
                    }
                }
                self.cluster.purge_queries(self.now);
                // Under per-class faults, each NPER round ends with one
                // repair sweep re-sending the copies loss left missing —
                // the convergence loop oracle 7 audits. Aggregate runs
                // sweep too: churn rebalance has no clock for replica
                // `since` stamps, so joined nodes stay replica holes until
                // a timed repair heals them. Skipped when the injected
                // churn-repair bug is armed: the self-test wants holes to
                // persist.
                // Partition runs sweep as well: the NPER refresh rounds
                // double as post-heal anti-entropy, re-shipping the copies
                // the cut suppressed (DESIGN.md §17).
                if (self.cluster.fault_plan_active()
                    || self.cfg.aggregates.is_some()
                    || self.cfg.partition.is_some())
                    && !self.cfg.disable_churn_repair
                {
                    self.cluster.set_trace_time(self.now);
                    self.cluster.repair_coverage(self.now);
                }
                if let Some(r) = &mut self.rounds_since_heal {
                    *r += 1;
                }
                // Round boundary bookkeeping: tenant quotas refill, the
                // load ledger samples the round (purely observational),
                // and the mitigation — when armed — re-evaluates. All
                // three consume no rng.
                if let Some(t) = &mut self.tenants {
                    t.reset_round();
                }
                self.cluster.record_load_round(self.now);
                let _ = self.cluster.maybe_reweight(self.now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Oracles
    // ------------------------------------------------------------------

    fn check_oracles(&mut self, last: &FaultEvent) -> Option<(OracleId, String)> {
        self.prune_reference();
        // Coverage oracles (1 and 3). Instant on a reliable network; under
        // per-class faults they switch to eventual mode — oracle 7: a hole
        // is tolerated while repair converges, but a violation persisting
        // across K_REFRESH_ROUNDS consecutive Notify audits means the
        // retry/failover/repair loop failed to restore completeness.
        let coverage = self
            .oracle_no_false_dismissal()
            .map(|d| (OracleId::NoFalseDismissal, d))
            .or_else(|| self.oracle_replica_placement().map(|d| (OracleId::ReplicaPlacement, d)));
        match coverage {
            // While the cut is up, cross-side holes are deterministic
            // suppression — they provably cannot close, so they are not
            // evidence of a bug. Oracle 10's clock starts at the heal.
            Some(_) if self.cluster.ring().partitioned() => {}
            Some((oracle, d)) if self.rounds_since_heal.is_some() => {
                // Post-heal grace: anti-entropy gets K rounds to erase the
                // split's holes; past the deadline the heal did not
                // converge and oracle 10 fires.
                let overdue = if self.cluster.fault_plan_active() {
                    // Random loss keeps tearing fresh transient holes, so
                    // (exactly like oracle 7) the failure must persist
                    // across K consecutive Notify audits to count.
                    if matches!(last, FaultEvent::Notify) {
                        self.incomplete_rounds += 1;
                    }
                    self.incomplete_rounds > K_REFRESH_ROUNDS
                } else {
                    // Without loss the repair sweeps are deterministic:
                    // any hole still open at the deadline is a failure.
                    self.rounds_since_heal.unwrap_or(0) >= K_REFRESH_ROUNDS
                };
                if overdue {
                    return Some((
                        OracleId::PostHealConvergence,
                        format!(
                            "coverage not restored within {K_REFRESH_ROUNDS} refresh rounds of \
                             the heal ({}: {d})",
                            oracle.slug()
                        ),
                    ));
                }
            }
            Some((oracle, d)) if !self.cluster.fault_plan_active() => {
                return Some((oracle, d));
            }
            Some((oracle, d)) => {
                if matches!(last, FaultEvent::Notify) {
                    self.incomplete_rounds += 1;
                    if self.incomplete_rounds > K_REFRESH_ROUNDS {
                        return Some((
                            OracleId::EventualCompleteness,
                            format!(
                                "coverage hole not repaired within {K_REFRESH_ROUNDS} refresh \
                                 rounds ({}: {d})",
                                oracle.slug()
                            ),
                        ));
                    }
                }
            }
            None => self.incomplete_rounds = 0,
        }
        if let Some(d) = self.oracle_routing_termination() {
            return Some((OracleId::RoutingTermination, d));
        }
        if let Some(d) = self.oracle_metrics_conservation() {
            return Some((OracleId::MetricsConservation, d));
        }
        if matches!(last, FaultEvent::Notify) {
            if let Some(d) = self.oracle_purge() {
                return Some((OracleId::Purge, d));
            }
            if let Some(d) = self.oracle_load_balance() {
                return Some((OracleId::LoadBalance, d));
            }
            if let Some(d) = self.oracle_post_heal_convergence() {
                return Some((OracleId::PostHealConvergence, d));
            }
        }
        if let Some(d) = self.oracle_sketch_accuracy() {
            return Some((OracleId::SketchAccuracy, d));
        }
        if let Some(d) = self.oracle_trace_conformance() {
            return Some((OracleId::TraceConformance, d));
        }
        None
    }

    /// Oracle 9: every aggregate notification honors its advertised ε-δ
    /// contract. Structural lies — a bound tighter than the posted
    /// contract, an `ε_eff` that is not exactly `ε + (1 − coverage)`, a
    /// coverage outside `[0, 1]` — are immediate violations. Estimate
    /// misses against the contributor-scoped exact reference consume the
    /// δ budget instead: the contract promises each bound *with
    /// probability 1 − δ*, so the oracle fires only when misses exceed
    /// `max(1, ⌈δ·checks⌉)` for one query. Disarmed without an
    /// [`AggregatesConfig`].
    fn oracle_sketch_accuracy(&mut self) -> Option<String> {
        let agg = self.cfg.aggregates.clone()?;
        for qi in 0..self.agg_audits.len() {
            let (id, kind, cursor) = {
                let a = &self.agg_audits[qi];
                (a.id, a.kind, a.cursor)
            };
            let fresh: Vec<AggregateNotification> =
                self.cluster.aggregate_notifications(id)[cursor..].to_vec();
            for note in &fresh {
                if let Some(d) = structural_violation(&agg, note) {
                    return Some(d);
                }
                let miss = self.check_note_bound(&agg, kind, note);
                let audit = &mut self.agg_audits[qi];
                audit.checks += 1;
                if let Some(m) = miss {
                    audit.failures += 1;
                    audit.last_miss = m;
                    let budget = ((agg.delta * audit.checks as f64).ceil() as u64).max(1);
                    if audit.failures > budget {
                        return Some(format!(
                            "query {id} ({kind:?}): {} of {} bound checks missed the advertised \
                             ε-δ contract (δ budget {budget}); latest: {}",
                            audit.failures, audit.checks, audit.last_miss
                        ));
                    }
                }
            }
            self.agg_audits[qi].cursor += fresh.len();
        }
        None
    }

    /// One notification's estimate checked against the brute-force exact
    /// sliding window over the run's own feed log, scoped to the
    /// notification's contributors: a value counts exactly when its home
    /// node contributed this round and its timestamp is at or after that
    /// replica's `since` — the same condition under which the ingest path
    /// sketched it. Returns a miss description, or `None` when the
    /// estimate sits inside the advertised bound.
    fn check_note_bound(
        &self,
        agg: &AggregatesConfig,
        kind: AggregateKind,
        note: &AggregateNotification,
    ) -> Option<String> {
        let at = note.at.as_ms() as i64;
        let lo = at - agg.window_ms as i64;
        let mut covered: Vec<f64> = Vec::new();
        for &(home, v, t) in &self.agg_log {
            let ti = t as i64;
            if ti <= lo || ti > at {
                continue;
            }
            if note.contributors.iter().any(|&(n, since)| n == home && t >= since.as_ms()) {
                covered.push(v);
            }
        }
        let n_cov = covered.len() as f64;
        let comp = note.components as f64;
        let eps_eff = note.eps_effective;
        // Count-Min + merged-EH absolute error at the advertised contract:
        // ε_eff·N over the covered population plus one straddling bucket
        // per merged component.
        let e_abs = eps_eff * n_cov + comp;
        let t_ms = note.at.as_ms();
        match (kind, &note.value) {
            (AggregateKind::WindowCount, AggregateValue::Scalar(est)) => ((est - n_cov).abs()
                > e_abs + 1e-6)
                .then(|| format!("window count {est} vs exact {n_cov} (±{e_abs:.3}) at t={t_ms}")),
            (AggregateKind::PointCount { bin }, AggregateValue::Scalar(est)) => {
                let truth =
                    covered.iter().filter(|&&v| quantize(v, agg.bins) == bin).count() as f64;
                ((est - truth).abs() > e_abs + 1e-6).then(|| {
                    format!(
                        "point count of bin {bin} {est} vs exact {truth} (±{e_abs:.3}) at t={t_ms}"
                    )
                })
            }
            (AggregateKind::SelfJoinSize, AggregateValue::Scalar(est)) => {
                let mut freq = std::collections::BTreeMap::<u64, f64>::new();
                for &v in &covered {
                    *freq.entry(quantize(v, agg.bins)).or_default() += 1.0;
                }
                let truth: f64 = freq.values().map(|f| f * f).sum();
                // Mirrors `EcmSketch::self_join_error_bound`, widened to
                // the advertised ε_eff; `w` is the row width the posted
                // (ε, δ) contract derives.
                let w = (2.0 * std::f64::consts::E / agg.eps).ceil();
                let slack = 2.0 * eps_eff * n_cov * n_cov + 3.0 * n_cov + 3.0 * comp * w;
                ((est - truth).abs() > slack + 1e-6).then(|| {
                    format!("self-join size {est} vs exact {truth} (±{slack:.3}) at t={t_ms}")
                })
            }
            (AggregateKind::HeavyHitters { phi }, AggregateValue::Bins(bins)) => {
                let mut freq = std::collections::BTreeMap::<u64, f64>::new();
                for &v in &covered {
                    *freq.entry(quantize(v, agg.bins)).or_default() += 1.0;
                }
                // Both the per-bin estimate and the φ·total threshold are
                // sketch estimates, so the separation margin is (1 + φ)
                // times the absolute error.
                let margin = (1.0 + phi) * e_abs + 1e-6;
                for &(b, _) in bins {
                    let f = freq.get(&b).copied().unwrap_or(0.0);
                    if f + margin < phi * n_cov {
                        return Some(format!(
                            "reported heavy hitter bin {b} has exact frequency {f}, below \
                             φ·N = {:.3} − margin {margin:.3} at t={t_ms}",
                            phi * n_cov
                        ));
                    }
                }
                for (&b, &f) in &freq {
                    if f > phi * n_cov + margin && !bins.iter().any(|&(rb, _)| rb == b) {
                        return Some(format!(
                            "bin {b} with exact frequency {f} above φ·N = {:.3} + margin \
                             {margin:.3} missing from heavy hitters at t={t_ms}",
                            phi * n_cov
                        ));
                    }
                }
                None
            }
            (k, v) => {
                Some(format!("query {}: value shape {v:?} does not match kind {k:?}", note.query))
            }
        }
    }

    /// Oracle 8: per-host message load stays inside the armed
    /// [`LoadBound`] envelope. A round is *hot* when its max/mean ratio
    /// (per physical host, virtuals charged to their host) exceeds the
    /// bound; `grace_rounds` consecutive hot rounds are tolerated. With
    /// mitigation armed the budget stretches by `recovery_rounds` — the
    /// re-weighting must then actually cool the ring, or the oracle calls
    /// it ineffective. Disarmed (`load_bound: None`) it never fires.
    fn oracle_load_balance(&mut self) -> Option<String> {
        let bound: LoadBound = self.cfg.load_bound?;
        let last = self.cluster.load_ledger().rounds().last()?;
        let ratio = last.max_over_mean().unwrap_or(0.0);
        if ratio <= bound.max_over_mean {
            self.hot_rounds = 0;
            return None;
        }
        self.hot_rounds += 1;
        let mitigated = self.cfg.mitigation.is_some();
        let budget = bound.grace_rounds + if mitigated { bound.recovery_rounds } else { 0 };
        if self.hot_rounds <= budget {
            return None;
        }
        let actions = self.cluster.reweight_actions().len();
        let verdict = if actions > 0 {
            format!("mitigation ineffective after {actions} re-weighting action(s)")
        } else if mitigated {
            "mitigation armed but never tripped".to_string()
        } else {
            "no mitigation armed".to_string()
        };
        Some(format!(
            "per-host max/mean load ratio {ratio:.2} exceeded bound {:.2} for {} consecutive \
             rounds (budget {budget}; gini {:.3}); {verdict}",
            bound.max_over_mean,
            self.hot_rounds,
            last.gini(),
        ))
    }

    /// Oracle 10: within [`K_REFRESH_ROUNDS`] NPER rounds of a partition
    /// heal, the ring's successor/finger state must match the brute-force
    /// recomputation and a freshly posted probe query must see the whole
    /// ring again. (The companion coverage checks — placement green, no
    /// registration lost — route through the coverage match in
    /// `check_oracles`, which re-labels an overdue post-heal hole as this
    /// oracle.) Once everything is green the oracle disarms itself, so
    /// later loss-induced holes are judged by oracle 7, not blamed on the
    /// long-converged heal.
    fn oracle_post_heal_convergence(&mut self) -> Option<String> {
        let r = self.rounds_since_heal?;
        if r < K_REFRESH_ROUNDS {
            return None;
        }
        if !self.cluster.ring().is_fully_consistent() {
            return Some(format!(
                "successor/finger state still disagrees with the brute-force recomputation \
                 {r} rounds after the heal (stabilization never re-knit the fork)"
            ));
        }
        // Fresh work must see full coverage again: one deterministic probe
        // query at the deadline. It draws nothing from the execution RNG,
        // so the remaining schedule replays identically. Skipped under
        // armed per-class loss, where a dropped hop could legitimately
        // dent the probe's first-shot coverage.
        if !self.heal_probe_done && !self.cluster.fault_plan_active() {
            self.heal_probe_done = true;
            if let Some(d) = self.check_heal_probe() {
                return Some(d);
            }
        }
        if self.incomplete_rounds == 0 {
            self.rounds_since_heal = None;
        }
        None
    }

    /// Posts oracle 10's probe query (fixed shape, no RNG draws) and
    /// checks it lands with 1.0 coverage on exactly its covering set.
    fn check_heal_probe(&mut self) -> Option<String> {
        let w = self.cfg.workload.window_len;
        let target: Vec<f64> = (0..w).map(|i| 2.0 * ((i as f64) * 0.37).sin() + 5.0).collect();
        let radius = 0.2;
        // Expires at the next NPER round, purging with everything else.
        let lifespan = self.cfg.workload.nper_ms;
        let qid = self.cluster.post_similarity_query(0, target.clone(), radius, lifespan, self.now);
        self.queries_posted += 1;
        let q = SimilarityQuery::from_target(
            qid,
            self.cluster.node_id(0),
            target,
            radius,
            self.cluster.config().kind,
            self.cfg.workload.num_coeffs,
            0,
            self.now + lifespan,
        );
        let (lo, hi) = radius_key_range(self.cluster.space(), q.feature.first_real(), q.radius);
        self.ref_queries.push(q);
        if let Some(cov) = self.cluster.query_coverage(qid) {
            if (cov - 1.0).abs() > 1e-9 {
                return Some(format!(
                    "probe query posted {K_REFRESH_ROUNDS} rounds after the heal sees coverage \
                     {cov}, not 1.0"
                ));
            }
        }
        for n in covering_nodes(self.cluster.ring(), lo, hi) {
            if !self.cluster.node(n).has_subscription(qid) {
                return Some(format!(
                    "post-heal probe query (range [{lo},{hi}]) is not subscribed at covering \
                     node {n}"
                ));
            }
        }
        None
    }

    /// Drops reference records that legitimately left the system: expired,
    /// or lost because *every* holder crashed (soft state — the record
    /// returns with the stream's next shipment).
    fn prune_reference(&mut self) {
        let now = self.now;
        let cluster = &self.cluster;
        self.ref_mbrs.retain(|r| {
            now < r.expires
                && cluster
                    .node_ids()
                    .iter()
                    .any(|&n| cluster.node(n).summaries().any(|s| s.matches(r)))
        });
        self.ref_queries.retain(|q| !q.expired(now));
    }

    /// Oracle 1: the distributed index never misses a match the flat
    /// reference index finds (the lower-bounding superset guarantee,
    /// end to end through routing, replication and churn).
    fn oracle_no_false_dismissal(&self) -> Option<String> {
        let space = self.cluster.space();
        for q in &self.ref_queries {
            let point = q.feature.to_reals();
            let reference: BTreeSet<StreamId> = self
                .ref_mbrs
                .iter()
                .filter(|r| r.mbr.min_dist(&point) <= q.radius + 1e-12)
                .map(|r| r.stream)
                .collect();
            if reference.is_empty() {
                continue;
            }
            let (lo, hi) = radius_key_range(space, q.feature.first_real(), q.radius);
            let system: BTreeSet<StreamId> = covering_nodes(self.cluster.ring(), lo, hi)
                .into_iter()
                .flat_map(|n| self.cluster.node(n).local_candidates(q, self.now))
                .collect();
            for s in &reference {
                if !system.contains(s) {
                    return Some(format!(
                        "query {} (radius {:.3}) dismisses stream {s}: reference candidates \
                         {reference:?}, index candidates {system:?}",
                        q.id, q.radius
                    ));
                }
            }
        }
        None
    }

    /// Oracle 2: lookups and multicasts from every live node terminate on
    /// live nodes, over all-live paths.
    fn oracle_routing_termination(&self) -> Option<String> {
        let live: BTreeSet<ChordId> = self.cluster.node_ids().iter().copied().collect();
        let space = self.cluster.space();
        let ring = self.cluster.ring();
        let step = (space.modulus() / 16).max(1);
        for &origin in self.cluster.node_ids() {
            for k in 0..16u64 {
                let key = (k * step) % space.modulus();
                let l = ring.lookup(origin, key);
                if !live.contains(&l.owner) {
                    return Some(format!("lookup({origin}, {key}) ends on dead node {}", l.owner));
                }
                if let Some(bad) = l.path.iter().find(|n| !live.contains(n)) {
                    return Some(format!("lookup({origin}, {key}) routes through dead node {bad}"));
                }
            }
        }
        // Range multicast termination over each active query's range.
        // During a split the planner is side-consistent and the subcheck
        // holds per side; on a ring healed without re-probing (the
        // negative-control fork) the planner's ground truth and the stale
        // routing state legitimately disagree, so the subcheck stands
        // down until stabilization re-knits the ring — oracle 10 owns
        // that failure.
        if self.cfg.partition.is_some() && !self.cluster.ring().is_fully_consistent() {
            return None;
        }
        let origin = self.cluster.node_id(0);
        for q in &self.ref_queries {
            let (lo, hi) = radius_key_range(space, q.feature.first_real(), q.radius);
            let plan = multicast(ring, origin, lo, hi, self.cfg.strategy);
            if !live.contains(&plan.entry) {
                return Some(format!("multicast [{lo},{hi}] enters at dead node {}", plan.entry));
            }
            if let Some(bad) = plan.deliveries.iter().find(|d| !live.contains(&d.node)) {
                return Some(format!("multicast [{lo},{hi}] delivers to dead node {}", bad.node));
            }
        }
        None
    }

    /// Oracle 3: after stabilization, every unexpired record sits on exactly
    /// the covering set of its key range (plus its origin while alive), and
    /// every unexpired query is subscribed on its whole covering set.
    fn oracle_replica_placement(&self) -> Option<String> {
        let space = self.cluster.space();
        let ring = self.cluster.ring();
        let mut seen: Vec<StoredMbr> = Vec::new();
        for &n in self.cluster.node_ids() {
            for rec in self.cluster.node(n).summaries() {
                if self.now >= rec.expires || seen.iter().any(|r| rec.matches(r)) {
                    continue;
                }
                let rec = rec.to_stored();
                seen.push(rec.clone());
                let holders: BTreeSet<ChordId> = self
                    .cluster
                    .node_ids()
                    .iter()
                    .copied()
                    .filter(|&m| self.cluster.node(m).summaries().any(|s| s.matches(&rec)))
                    .collect();
                let (lo_v, hi_v) = rec.mbr.first_interval();
                let (lo, hi) = dsi_core::interval_key_range(
                    space,
                    lo_v.clamp(-1.0, 1.0),
                    hi_v.clamp(-1.0, 1.0),
                );
                let mut want: BTreeSet<ChordId> =
                    covering_nodes(ring, lo, hi).into_iter().collect();
                if self.cluster.node_ids().contains(&rec.origin) {
                    want.insert(rec.origin);
                }
                if holders != want {
                    return Some(format!(
                        "MBR of stream {} (range [{lo},{hi}], origin {}) held by {holders:?}, \
                         covering set wants {want:?}",
                        rec.stream, rec.origin
                    ));
                }
            }
        }
        for q in &self.ref_queries {
            let (lo, hi) = radius_key_range(space, q.feature.first_real(), q.radius);
            for n in covering_nodes(ring, lo, hi) {
                if !self.cluster.node(n).has_subscription(q.id) {
                    return Some(format!(
                        "query {} (range [{lo},{hi}]) not subscribed at covering node {n}",
                        q.id
                    ));
                }
            }
        }
        None
    }

    /// Oracle 4: message bookkeeping reconciles — per-node sent/received
    /// sums match class totals, and hop accounting is conserved against
    /// per-hop message counts for the classes where every route logs hops.
    fn oracle_metrics_conservation(&self) -> Option<String> {
        let m = self.cluster.metrics();
        for c in MsgClass::ALL {
            if m.sent_total(c) != m.total(c) || m.received_total(c) != m.total(c) {
                return Some(format!(
                    "{}: sent {} / received {} / total {} disagree",
                    c.name(),
                    m.sent_total(c),
                    m.received_total(c),
                    m.total(c)
                ));
            }
        }
        // Every MBR shipment logs its route hops: the hop sum is exactly the
        // per-hop messages (1 originated + hops-1 transit per route).
        let mbr_msgs = m.total(MsgClass::MbrOriginated) + m.total(MsgClass::MbrTransit);
        if m.hop_sum(MsgClass::MbrOriginated) != mbr_msgs {
            return Some(format!(
                "MBR hop sum {} != originated+transit messages {mbr_msgs}",
                m.hop_sum(MsgClass::MbrOriginated)
            ));
        }
        // Internal (range-forward and rebalance-copy) messages log exactly
        // one hop record per message.
        for c in [MsgClass::MbrInternal, MsgClass::QueryInternal] {
            if m.hop_count(c) != m.total(c) {
                return Some(format!(
                    "{}: {} hop records for {} messages",
                    c.name(),
                    m.hop_count(c),
                    m.total(c)
                ));
            }
        }
        if m.hop_sum(MsgClass::ResponseInternal) != m.total(MsgClass::ResponseInternal) {
            return Some(format!(
                "neighbor exchanges are single-hop: hop sum {} != messages {}",
                m.hop_sum(MsgClass::ResponseInternal),
                m.total(MsgClass::ResponseInternal)
            ));
        }
        // Query/Response classes also carry location-service traffic that
        // logs no hop records, so their hop sums only lower-bound messages.
        let query_msgs = m.total(MsgClass::Query) + m.total(MsgClass::QueryTransit);
        if m.hop_sum(MsgClass::Query) > query_msgs {
            return Some(format!(
                "query hop sum {} exceeds query messages {query_msgs}",
                m.hop_sum(MsgClass::Query)
            ));
        }
        let resp_msgs = m.total(MsgClass::Response) + m.total(MsgClass::ResponseTransit);
        if m.hop_sum(MsgClass::Response) > resp_msgs {
            return Some(format!(
                "response hop sum {} exceeds response messages {resp_msgs}",
                m.hop_sum(MsgClass::Response)
            ));
        }
        // Send-decision ledger (DESIGN.md §17): every judged overlay send
        // is exactly one of delivered, lost to random faults, or
        // partition-suppressed — and the suppression count must agree
        // with the trace-side tally, so a cut can never be silently
        // double-charged as (or confused with) random loss.
        let mut suppressed_sum = 0u64;
        for c in MsgClass::ALL {
            let (decisions, delivered, lost, partitioned) = m.send_accounting(c);
            if decisions != delivered + lost + partitioned {
                return Some(format!(
                    "{}: {decisions} send decisions != {delivered} delivered + {lost} lost + \
                     {partitioned} partition-suppressed",
                    c.name()
                ));
            }
            suppressed_sum += partitioned;
        }
        let traced = self.cluster.tracer().suppressed_total();
        if suppressed_sum != traced {
            return Some(format!(
                "metrics ledger counts {suppressed_sum} partition-suppressed sends, the trace \
                 audit tallied {traced}"
            ));
        }
        None
    }

    /// Oracle 6: the causal trace is internally consistent and accounts
    /// for the metrics exactly — unique ids, chains rooted at origins,
    /// per-class message/hop counters reconstructed from trace records
    /// equal to [`dsi_simnet::Metrics`] bit for bit — and every multicast
    /// traced since the previous audit delivered to exactly the
    /// brute-force owner set of its key range. Skipped (for coverage)
    /// only if the ring buffer ever overflowed, which `TRACE_CAPACITY`
    /// is sized to prevent on tier-1 schedules.
    fn oracle_trace_conformance(&mut self) -> Option<String> {
        let tracer = self.cluster.tracer();
        let n_metas = tracer.multicasts().len();
        if tracer.dropped() > 0 {
            self.audited_multicasts = n_metas;
            return None;
        }
        if let Err(e) = validate_causality(tracer.iter()) {
            return Some(format!("causal structure broken: {e}"));
        }
        let rec = dsi_trace::audit(tracer.iter(), NUM_CLASSES);
        let m = self.cluster.metrics();
        for c in MsgClass::ALL {
            let i = c.index();
            if rec.messages[i] != m.total(c) {
                return Some(format!(
                    "{}: trace counts {} messages, metrics counted {}",
                    c.name(),
                    rec.messages[i],
                    m.total(c)
                ));
            }
            if rec.hop_count[i] != m.hop_count(c) || rec.hop_sum[i] != m.hop_sum(c) {
                return Some(format!(
                    "{}: trace hop count/sum {}/{}, metrics {}/{}",
                    c.name(),
                    rec.hop_count[i],
                    rec.hop_sum[i],
                    m.hop_count(c),
                    m.hop_sum(c)
                ));
            }
        }
        // Coverage of multicasts traced since the last audit. Sound to
        // check against the *current* ring: no event both multicasts and
        // churns, so the topology is the one each multicast was sent on.
        // Multicasts sent while the network is split (or still forked
        // after a stabilization-free heal) legitimately deliver to one
        // side only; their metas are skipped — the cursor still advances,
        // so they are never later audited against a ring they were not
        // sent on.
        let partition_grace = self.cluster.ring().partitioned()
            || (self.cfg.partition.is_some() && !self.cluster.ring().is_fully_consistent());
        let new_metas = &tracer.multicasts()[self.audited_multicasts..];
        if !new_metas.is_empty() && !partition_grace {
            let records = tracer.snapshot();
            let internal =
                [MsgClass::MbrInternal.index() as u8, MsgClass::QueryInternal.index() as u8];
            let mut sorted: Vec<ChordId> = self.cluster.node_ids().to_vec();
            sorted.sort_unstable();
            let space = self.cluster.space();
            for meta in new_metas {
                let delivered = multicast_delivery_set(&records, meta, &internal);
                let expected = brute_owners(space, &sorted, meta.lo, meta.hi);
                if delivered != expected {
                    return Some(format!(
                        "multicast over [{}, {}] delivered to {delivered:?}, \
                         brute-force owner set is {expected:?}",
                        meta.lo, meta.hi
                    ));
                }
            }
        }
        self.audited_multicasts = n_metas;
        None
    }

    /// Oracle 5: a notify round actually purged expired state on every node
    /// whose cycle ran.
    fn oracle_purge(&self) -> Option<String> {
        self.notified.iter().find_map(|&n| unpurged_state(n, self.cluster.node(n), self.now))
    }
}

/// Oracle 5 on one node: the first expired record `dc` still holds at
/// `now`. The subscription tables yield id order, so subscriptions are
/// reported lowest id first and every run of one seed reports the same
/// violation detail.
fn unpurged_state(n: ChordId, dc: &DataCenter, now: SimTime) -> Option<String> {
    if let Some(s) = dc.summaries().find(|s| now >= s.expires) {
        return Some(format!(
            "node {n} still stores MBR of stream {} expired at {} (now {})",
            s.stream,
            s.expires.as_ms(),
            now.as_ms()
        ));
    }
    if let Some((id, expires)) = dc.all_subscriptions().find(|&(_, expires)| now >= expires) {
        return Some(format!(
            "node {n} still holds similarity subscription {id} expired at {}",
            expires.as_ms()
        ));
    }
    if let Some(q) = dc.all_ip_subscriptions().find(|q| q.expired(now)) {
        return Some(format!(
            "node {n} still holds inner-product subscription {} expired at {}",
            q.id,
            q.expires.as_ms()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_core::InnerProductQuery;

    #[test]
    fn purge_oracle_names_the_same_subscription_on_every_run() {
        // The detail feeds reproducer equality checks, so it must name the
        // lowest expired id whatever order the subscriptions arrived in.
        let now = SimTime::from_ms(500);
        let details: BTreeSet<(Option<String>, Option<String>)> = (0..64)
            .map(|_| {
                let (mut sim, mut ip) = (DataCenter::new(5), DataCenter::new(5));
                for id in [9, 4, 7, 2, 11] {
                    sim.subscribe_similarity(id, SimTime::from_ms(100));
                    let q = InnerProductQuery::new(id, 0, 0, vec![0], vec![1.0], now);
                    ip.subscribe_inner_product(q);
                }
                (unpurged_state(5, &sim, now), unpurged_state(5, &ip, now))
            })
            .collect();
        assert_eq!(
            details.into_iter().collect::<Vec<_>>(),
            [(
                Some("node 5 still holds similarity subscription 2 expired at 100".to_string()),
                Some("node 5 still holds inner-product subscription 2 expired at 500".to_string())
            )]
        );
    }
}
