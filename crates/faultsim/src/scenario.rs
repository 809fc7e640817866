//! Seed-generated fault scenarios.
//!
//! A [`Scenario`] is a fully materialized event schedule: churn, stream
//! bursts, query storms and NPER rounds, produced up front by a *generation*
//! RNG derived from the seed. Execution consumes a second RNG (seeded from
//! the same seed) strictly in event order, so a schedule truncated at the
//! failing event replays the identical prefix — the property the serialized
//! reproducers rely on.

use dsi_chord::RangeStrategy;
use dsi_core::load::ReweightConfig;
use dsi_core::AggregateKind;
use dsi_simnet::{FaultPlan, FaultSpec};
use dsi_streamgen::{TenantPolicy, WorkloadConfig, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Adversarial workload skew knobs. The all-default value (`rho == 0`, no
/// Zipf bias, no herd, no tenants) reproduces the historical independent
/// workload bit-for-bit — every knob is strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SkewConfig {
    /// Cross-stream correlation in `[0, 1]`: streams share a latent walk
    /// with weight `rho`. At 1.0 every stream is byte-identical — the
    /// worst-case Fourier-space hotspot.
    pub rho: f64,
    /// When set, query anchors are drawn from a Zipf(`s`) distribution
    /// over stream ranks instead of uniformly — query-popularity skew.
    pub zipf_exponent: Option<f64>,
    /// When positive, query storms become thundering herds: `herd_count`
    /// clients register near-identical queries on one anchor in one tick.
    pub herd_count: u32,
    /// Per-tenant query admission quotas (multi-tenant isolation).
    pub tenants: Option<TenantPolicy>,
}

impl SkewConfig {
    /// Validates all knobs.
    ///
    /// # Panics
    /// Panics on out-of-range correlation or non-positive Zipf exponent.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.rho) && self.rho.is_finite(),
            "correlation must lie in [0, 1], got {}",
            self.rho
        );
        if let Some(s) = self.zipf_exponent {
            assert!(s.is_finite() && s >= 0.0, "zipf exponent must be finite and >= 0, got {s}");
        }
    }
}

/// Aggregate-query workload for the sketch-accuracy oracle (oracle 9).
/// When set, the schedule posts one continuous aggregate query per entry
/// in `kinds` right after warm-up, and every notification the run
/// produces is audited against a brute-force sliding-window reference
/// scoped to the notification's own contributor set (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatesConfig {
    /// Target relative error ε at full coverage.
    pub eps: f64,
    /// Failure probability δ — also the oracle's miss budget.
    pub delta: f64,
    /// Sliding-window width in milliseconds.
    pub window_ms: u64,
    /// Query lifespan in milliseconds.
    pub lifespan_ms: u64,
    /// Quantization universe size (see [`dsi_core::quantize`]).
    pub bins: u64,
    /// One query is posted per kind, in order, right after warm-up.
    pub kinds: Vec<AggregateKind>,
    /// Negative-control switch: force a deliberately under-sized sketch
    /// (one row, two counters, `k = 1`) whose advertised ε-δ contract is
    /// a lie the accuracy oracle must catch.
    pub undersized: bool,
}

impl Default for AggregatesConfig {
    fn default() -> Self {
        AggregatesConfig {
            eps: 0.2,
            delta: 0.1,
            window_ms: 4_000,
            lifespan_ms: 600_000,
            bins: 64,
            kinds: vec![AggregateKind::WindowCount],
            undersized: false,
        }
    }
}

impl AggregatesConfig {
    /// Validates the knobs.
    ///
    /// # Panics
    /// Panics on out-of-range ε/δ, a zero-width window, or an empty kinds
    /// list.
    pub fn validate(&self) {
        assert!(
            self.eps.is_finite() && self.eps > 0.0 && self.eps <= 1.0,
            "aggregate eps must lie in (0, 1], got {}",
            self.eps
        );
        assert!(
            self.delta.is_finite() && self.delta > 0.0 && self.delta <= 0.5,
            "aggregate delta must lie in (0, 0.5], got {}",
            self.delta
        );
        assert!(self.window_ms > 0, "aggregate window must be positive");
        assert!(self.bins >= 1, "aggregate universe needs at least one bin");
        assert!(!self.kinds.is_empty(), "aggregate config must post at least one query");
    }
}

/// Network-partition injection for the post-heal convergence oracle
/// (oracle 10, DESIGN.md §17). When set, the schedule carries one
/// [`FaultEvent::PartitionSplit`] / [`FaultEvent::PartitionHeal`] pair at
/// positions measured in NPER rounds, and churn rolls degrade to plain
/// rounds — a partition and membership churn both rewrite the ring, and
/// isolating the cut keeps the convergence oracle's brute-force
/// expectation exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Islands by data-center creation index: entry `k` lists the nodes
    /// severed onto side `k + 1`; unlisted indices stay together on side
    /// 0 (the "majority" side when the listed islands are minorities).
    pub islands: Vec<Vec<usize>>,
    /// NPER rounds after the warm-up round before the split lands.
    pub split_after_rounds: u32,
    /// NPER rounds the cut stays up before the heal event.
    pub heal_after_rounds: u32,
}

impl PartitionConfig {
    /// Validates the islands against the scenario's node count.
    ///
    /// # Panics
    /// Panics on empty or overlapping islands, out-of-range indices, an
    /// empty side 0, or a zero-round split/heal spacing.
    pub fn validate(&self, num_nodes: usize) {
        assert!(!self.islands.is_empty(), "a partition needs at least one severed island");
        assert!(self.islands.len() <= 254, "at most 254 severed islands");
        let mut seen = Vec::new();
        for island in &self.islands {
            assert!(!island.is_empty(), "severed islands must be non-empty");
            for &idx in island {
                assert!(idx < num_nodes, "island index {idx} out of range (< {num_nodes})");
                assert!(!seen.contains(&idx), "node index {idx} listed in two islands");
                seen.push(idx);
            }
        }
        assert!(
            seen.len() < num_nodes,
            "every node is severed onto a listed island; side 0 must keep at least one"
        );
        assert!(self.split_after_rounds >= 1, "split needs at least one settled round first");
        assert!(self.heal_after_rounds >= 1, "the cut must stay up for at least one round");
    }
}

/// NPER rounds guaranteed to follow the heal event in every generated
/// schedule, so the post-heal convergence oracle always gets its full
/// audit window (the harness grants repair `K_REFRESH_ROUNDS = 6`
/// rounds; two more rounds are audited *after* the deadline).
pub const POST_HEAL_SETTLE_ROUNDS: usize = 8;

/// The Fig. 8-style load-balance envelope the eighth oracle enforces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadBound {
    /// Maximum tolerated per-host max/mean message ratio per NPER round.
    pub max_over_mean: f64,
    /// Consecutive over-ratio rounds tolerated before the oracle trips
    /// (mirrors the re-weighting trigger's K).
    pub grace_rounds: u32,
    /// Extra rounds granted when mitigation is armed: after re-weighting
    /// fires, the ratio must fall back under the bound within this many
    /// rounds or the mitigation is judged ineffective.
    pub recovery_rounds: u32,
}

impl LoadBound {
    /// Validates the envelope.
    ///
    /// # Panics
    /// Panics if the ratio bound is not above 1 (max/mean is never below 1).
    pub fn validate(&self) {
        assert!(
            self.max_over_mean.is_finite() && self.max_over_mean > 1.0,
            "load bound must exceed 1 (max/mean is never below 1)"
        );
        assert!(self.grace_rounds > 0, "need at least one grace round");
    }
}

/// Static shape of a scenario (everything except the seed-driven schedule).
///
/// `Serialize` / `Deserialize` are hand-written (below) so the three skew
/// fields default when absent — reproducers serialized before the
/// adversarial pack still parse, as a skew-free config.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Initial number of data centers.
    pub num_nodes: usize,
    /// Number of registered streams (homed round-robin).
    pub num_streams: usize,
    /// Number of scheduled events after the warm-up feed.
    pub num_events: usize,
    /// Range multicast strategy under test.
    pub strategy: RangeStrategy,
    /// Workload parameters (small Table I variant for test speed).
    pub workload: WorkloadConfig,
    /// Message faults applied to NPER notify ticks.
    pub faults: FaultSpec,
    /// Per-message-class faults applied to *every* overlay send through
    /// the cluster's reliability layer (retry/backoff, failover,
    /// degradation — DESIGN.md §12). `FaultPlan::NONE` leaves the layer
    /// disarmed and the run byte-identical to the historical behavior.
    pub class_faults: FaultPlan,
    /// Disables replica rebalancing on churn — the known-bug injection
    /// switch the oracle self-test flips.
    pub disable_churn_repair: bool,
    /// Adversarial workload skew (correlation, Zipf queries, herds,
    /// tenants). Defaults to no skew; absent in old serialized scenarios.
    pub skew: SkewConfig,
    /// Arms the load-balance oracle with a max/mean envelope. `None`
    /// (default) leaves oracle 8 disarmed.
    pub load_bound: Option<LoadBound>,
    /// Arms virtual-node re-weighting as the hotspot mitigation. `None`
    /// (default) leaves the cluster's ring membership untouched.
    pub mitigation: Option<ReweightConfig>,
    /// Arms continuous aggregate queries and the sketch-accuracy oracle
    /// (oracle 9). `None` (default) leaves both disarmed and the run
    /// byte-identical to the historical behavior.
    pub aggregates: Option<AggregatesConfig>,
    /// Arms a network partition and the post-heal convergence oracle
    /// (oracle 10). `None` (default) leaves both disarmed and the run
    /// byte-identical to the historical behavior.
    pub partition: Option<PartitionConfig>,
    /// Disables timeout-driven stabilization and post-heal re-probing —
    /// the known-bug injection switch the convergence oracle's negative
    /// control flips: a healed ring that never re-probes its parked
    /// suspects stays forked forever.
    pub disable_stabilization: bool,
}

impl Serialize for ScenarioConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("num_nodes".into(), self.num_nodes.to_value()),
            ("num_streams".into(), self.num_streams.to_value()),
            ("num_events".into(), self.num_events.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("workload".into(), self.workload.to_value()),
            ("faults".into(), self.faults.to_value()),
            ("class_faults".into(), self.class_faults.to_value()),
            ("disable_churn_repair".into(), self.disable_churn_repair.to_value()),
            ("skew".into(), self.skew.to_value()),
            ("load_bound".into(), self.load_bound.to_value()),
            ("mitigation".into(), self.mitigation.to_value()),
            ("aggregates".into(), self.aggregates.to_value()),
            ("partition".into(), self.partition.to_value()),
            ("disable_stabilization".into(), self.disable_stabilization.to_value()),
        ])
    }
}

impl Deserialize for ScenarioConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        // The three skew knobs default when absent (pre-pack reproducers);
        // everything else is required, exactly like the derived impl.
        let req = |name: &str| serde::field(v, name, "ScenarioConfig");
        Ok(ScenarioConfig {
            num_nodes: Deserialize::from_value(req("num_nodes")?)?,
            num_streams: Deserialize::from_value(req("num_streams")?)?,
            num_events: Deserialize::from_value(req("num_events")?)?,
            strategy: Deserialize::from_value(req("strategy")?)?,
            workload: Deserialize::from_value(req("workload")?)?,
            faults: Deserialize::from_value(req("faults")?)?,
            class_faults: Deserialize::from_value(req("class_faults")?)?,
            disable_churn_repair: Deserialize::from_value(req("disable_churn_repair")?)?,
            skew: match v.get("skew") {
                Some(x) => Deserialize::from_value(x)?,
                None => SkewConfig::default(),
            },
            load_bound: match v.get("load_bound") {
                Some(x) => Deserialize::from_value(x)?,
                None => None,
            },
            mitigation: match v.get("mitigation") {
                Some(x) => Deserialize::from_value(x)?,
                None => None,
            },
            aggregates: match v.get("aggregates") {
                Some(x) => Deserialize::from_value(x)?,
                None => None,
            },
            partition: match v.get("partition") {
                Some(x) => Deserialize::from_value(x)?,
                None => None,
            },
            disable_stabilization: match v.get("disable_stabilization") {
                Some(x) => Deserialize::from_value(x)?,
                None => false,
            },
        })
    }
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        // Shrunk for test speed: short windows warm quickly and small
        // batches ship MBRs often, so every oracle sees real state churn.
        let workload = WorkloadConfig {
            window_len: 16,
            num_coeffs: 2,
            mbr_batch: 4,
            mbr_max_width: None,
            bspan_ms: 5_000,
            nper_ms: 1_000,
            ..WorkloadConfig::default()
        };
        ScenarioConfig {
            num_nodes: 10,
            num_streams: 8,
            num_events: 40,
            strategy: RangeStrategy::Sequential,
            workload,
            faults: FaultSpec::NONE,
            class_faults: FaultPlan::NONE,
            disable_churn_repair: false,
            skew: SkewConfig::default(),
            load_bound: None,
            mitigation: None,
            aggregates: None,
            partition: None,
            disable_stabilization: false,
        }
    }
}

impl ScenarioConfig {
    /// A variant with lossy/duplicating/delaying NPER delivery.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// A variant arming the cluster's reliability layer with per-class
    /// faults on every overlay send.
    pub fn with_class_faults(mut self, plan: FaultPlan) -> Self {
        self.class_faults = plan;
        self
    }

    /// A variant using bidirectional range multicast.
    pub fn bidirectional(mut self) -> Self {
        self.strategy = RangeStrategy::Bidirectional;
        self
    }

    /// A variant with cross-stream correlation `rho` (flash-crowd skew).
    pub fn correlated(mut self, rho: f64) -> Self {
        self.skew.rho = rho;
        self
    }

    /// A variant drawing query anchors from a Zipf(`s`) popularity law.
    pub fn zipfian(mut self, s: f64) -> Self {
        self.skew.zipf_exponent = Some(s);
        self
    }

    /// A variant turning query storms into thundering herds of `count`
    /// clients registering against one anchor in a single tick.
    pub fn with_herd(mut self, count: u32) -> Self {
        self.skew.herd_count = count;
        self
    }

    /// A variant enforcing per-tenant query admission quotas.
    pub fn with_tenants(mut self, tenants: TenantPolicy) -> Self {
        self.skew.tenants = Some(tenants);
        self
    }

    /// A variant arming the load-balance oracle with `bound`.
    pub fn with_load_bound(mut self, bound: LoadBound) -> Self {
        self.load_bound = Some(bound);
        self
    }

    /// A variant arming virtual-node re-weighting as the mitigation.
    pub fn with_mitigation(mut self, cfg: ReweightConfig) -> Self {
        self.mitigation = Some(cfg);
        self
    }

    /// A variant posting continuous aggregate queries and arming the
    /// sketch-accuracy oracle.
    pub fn with_aggregates(mut self, cfg: AggregatesConfig) -> Self {
        self.aggregates = Some(cfg);
        self
    }

    /// A variant injecting a network partition and arming the post-heal
    /// convergence oracle.
    pub fn with_partition(mut self, cfg: PartitionConfig) -> Self {
        self.partition = Some(cfg);
        self
    }

    /// A variant with stabilization disabled — the convergence oracle's
    /// negative-control bug injection.
    pub fn without_stabilization(mut self) -> Self {
        self.disable_stabilization = true;
        self
    }
}

/// One scheduled event. All structural choices are baked in at generation
/// time; indices are taken modulo the live population at execution time so
/// a schedule stays valid whatever the interleaved churn did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Advance `steps` stream ticks, feeding every homed stream one value
    /// per tick.
    Feed {
        /// Number of ticks.
        steps: u32,
    },
    /// One stream produces `count` values in a single tick (a burst).
    Burst {
        /// Stream index (modulo the stream count).
        stream: u32,
        /// Values produced.
        count: u32,
    },
    /// Post one similarity query shaped after a stream's current window.
    PostQuery {
        /// Posting client (modulo the live node count).
        client: u32,
        /// Stream whose shape anchors the target (modulo stream count).
        anchor: u32,
        /// Query radius in thousandths.
        radius_milli: u32,
        /// Query life span in ms.
        lifespan_ms: u64,
    },
    /// A burst of queries arriving in one tick.
    QueryStorm {
        /// Number of queries.
        count: u32,
    },
    /// A thundering herd: `count` distinct clients register near-identical
    /// queries against the *same* anchor stream in one tick — the
    /// registration-burst hotspot the load-balance oracle watches for.
    Herd {
        /// First client id; the herd uses `client + i` for `i < count`.
        client: u32,
        /// The single anchor stream everyone rushes (modulo stream count).
        anchor: u32,
        /// Herd size.
        count: u32,
    },
    /// Abrupt failure of one data center.
    CrashNode {
        /// Victim (modulo the live node count); skipped at ≤ 2 nodes.
        victim: u32,
    },
    /// A fresh data center joins the ring.
    JoinNode {
        /// Uniquifier for the new node's label.
        salt: u32,
    },
    /// Re-home every orphaned stream to one live data center.
    RehomeOrphans {
        /// Destination (modulo the live node count).
        to: u32,
    },
    /// Post one continuous aggregate query (only meaningful when
    /// [`ScenarioConfig::aggregates`] is armed; a no-op otherwise). The
    /// sketch shape comes from the config, so the event itself stays
    /// small and schedule generation consumes no extra RNG draws.
    PostAggregate {
        /// Posting client (modulo the live node count).
        client: u32,
        /// The aggregate function to compute.
        kind: AggregateKind,
    },
    /// The network splits into the configured islands (only meaningful
    /// when [`ScenarioConfig::partition`] is armed; a no-op otherwise).
    /// The island assignment lives in the config, so the event itself
    /// stays small and consumes no generation-RNG draws.
    PartitionSplit,
    /// The partition heals. With stabilization enabled the ring re-knits
    /// immediately; the negative control leaves the fork for the
    /// convergence oracle to catch.
    PartitionHeal,
    /// One NPER round on every node (with injected message faults),
    /// followed by the global query purge.
    Notify,
}

/// A seed plus its fully materialized schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Seed for the execution RNG (stream values, fault draws).
    pub seed: u64,
    /// Static configuration.
    pub config: ScenarioConfig,
    /// The event schedule.
    pub events: Vec<FaultEvent>,
}

impl Scenario {
    /// Generates the schedule for `seed`. The generation RNG is decoupled
    /// from the execution RNG so truncating the schedule never shifts the
    /// values the remaining events consume.
    pub fn generate(seed: u64, config: ScenarioConfig) -> Scenario {
        config.workload.validate();
        config.faults.validate();
        config.class_faults.validate();
        config.skew.validate();
        if let Some(b) = &config.load_bound {
            b.validate();
        }
        if let Some(m) = &config.mitigation {
            m.validate();
        }
        if let Some(a) = &config.aggregates {
            a.validate();
        }
        if let Some(p) = &config.partition {
            p.validate(config.num_nodes);
        }
        assert!(config.num_nodes >= 3, "scenarios need at least three data centers");
        assert!(config.num_streams >= 1, "scenarios need at least one stream");
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xFA17));
        // Popularity-skewed anchor choice. With no Zipf bias the draw is
        // the exact historical `gen_range` call, keeping old schedules
        // byte-identical.
        let zipf = config.skew.zipf_exponent.map(|s| ZipfSampler::new(config.num_streams, s));

        let w = &config.workload;
        let mut events = Vec::with_capacity(config.num_events + 3);
        // Warm-up: fill every window and ship the first MBR batches, then
        // settle one NPER round so queries posted early see a live index.
        events.push(FaultEvent::Feed { steps: (w.window_len + 2 * w.mbr_batch) as u32 });
        events.push(FaultEvent::Notify);

        // Generation-side live-node estimate; the harness re-checks at
        // execution time, this only keeps schedules from over-crashing.
        let mut live = config.num_nodes;
        while events.len() < config.num_events + 2 {
            let roll: u32 = rng.gen_range(0..100);
            let ev = match roll {
                0..=24 => FaultEvent::Feed { steps: rng.gen_range(1..=6) },
                25..=39 => FaultEvent::Notify,
                40..=52 => FaultEvent::PostQuery {
                    client: rng.gen(),
                    anchor: match &zipf {
                        Some(z) => z.sample(&mut rng) as u32,
                        None => rng.gen_range(0..config.num_streams as u32),
                    },
                    radius_milli: rng.gen_range(30..250),
                    lifespan_ms: rng.gen_range(4_000..30_000),
                },
                // The branch choice is config-driven (not an extra roll),
                // so herd-free configs keep the historical draw sequence.
                53..=58 if config.skew.herd_count > 0 => FaultEvent::Herd {
                    client: rng.gen(),
                    anchor: match &zipf {
                        Some(z) => z.sample(&mut rng) as u32,
                        None => rng.gen_range(0..config.num_streams as u32),
                    },
                    count: config.skew.herd_count,
                },
                53..=58 => FaultEvent::QueryStorm { count: rng.gen_range(3..9) },
                59..=68 => FaultEvent::Burst {
                    stream: rng.gen_range(0..config.num_streams as u32),
                    count: rng.gen_range(8..40),
                },
                69..=78 if live > 3 => {
                    live -= 1;
                    FaultEvent::CrashNode { victim: rng.gen() }
                }
                79..=86 => {
                    live += 1;
                    FaultEvent::JoinNode { salt: rng.gen() }
                }
                87..=92 => FaultEvent::RehomeOrphans { to: rng.gen() },
                _ => FaultEvent::Notify,
            };
            events.push(ev);
        }
        // Settle: a final NPER round exercises the purge oracle once more.
        events.push(FaultEvent::Notify);
        // Aggregate queries go in at fixed post-warm-up positions and
        // consume no generation-RNG draws, so arming them never shifts the
        // rest of the schedule — aggregate and plain variants of one seed
        // replay the identical churn/fault history.
        if let Some(agg) = &config.aggregates {
            for (i, &kind) in agg.kinds.iter().enumerate() {
                let client = (i as u32).wrapping_mul(5).wrapping_add(1);
                events.insert(2 + i, FaultEvent::PostAggregate { client, kind });
            }
        }
        // Partition injection rewrites the generated schedule in place and
        // consumes no generation-RNG draws, like the aggregate block above.
        // Churn rolls degrade to plain NPER rounds first: a partition and
        // membership churn both rewrite the ring, and isolating the cut
        // keeps oracle 10's brute-force expectation exact (it also keeps
        // the island indices valid — creation order never shifts).
        if let Some(p) = &config.partition {
            for ev in &mut events {
                if matches!(
                    ev,
                    FaultEvent::CrashNode { .. }
                        | FaultEvent::JoinNode { .. }
                        | FaultEvent::RehomeOrphans { .. }
                ) {
                    *ev = FaultEvent::Notify;
                }
            }
            // Positions are measured in NPER rounds: the warm-up Notify is
            // round 1, the split lands `split_after_rounds` rounds later,
            // the heal `heal_after_rounds` after that. (The heal insertion
            // counts only Notify events, so the split marker never shifts
            // it.) Rounds missing from the rolled schedule are appended.
            insert_after_round(&mut events, 1 + p.split_after_rounds, FaultEvent::PartitionSplit);
            insert_after_round(
                &mut events,
                1 + p.split_after_rounds + p.heal_after_rounds,
                FaultEvent::PartitionHeal,
            );
            // Guarantee the convergence oracle its full audit window.
            let heal_at = events
                .iter()
                .position(|e| *e == FaultEvent::PartitionHeal)
                .expect("heal marker was just inserted");
            let settled =
                events[heal_at..].iter().filter(|e| matches!(e, FaultEvent::Notify)).count();
            for _ in settled..POST_HEAL_SETTLE_ROUNDS {
                events.push(FaultEvent::Notify);
            }
        }
        Scenario { seed, config, events }
    }
}

/// Inserts `marker` immediately after the `round`-th [`FaultEvent::Notify`]
/// of the schedule, appending the missing rounds first when the rolled
/// schedule has fewer than `round` of them.
fn insert_after_round(events: &mut Vec<FaultEvent>, round: u32, marker: FaultEvent) {
    let mut seen = 0u32;
    for i in 0..events.len() {
        if matches!(events[i], FaultEvent::Notify) {
            seen += 1;
            if seen == round {
                events.insert(i + 1, marker);
                return;
            }
        }
    }
    while seen < round {
        events.push(FaultEvent::Notify);
        seen += 1;
    }
    events.push(marker);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(7, ScenarioConfig::default());
        let b = Scenario::generate(7, ScenarioConfig::default());
        assert_eq!(a, b);
        let c = Scenario::generate(8, ScenarioConfig::default());
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn schedule_has_expected_length_and_warmup() {
        let s = Scenario::generate(3, ScenarioConfig::default());
        assert_eq!(s.events.len(), s.config.num_events + 3);
        assert!(matches!(s.events[0], FaultEvent::Feed { .. }));
        assert_eq!(s.events[1], FaultEvent::Notify);
        assert_eq!(*s.events.last().unwrap(), FaultEvent::Notify);
    }

    #[test]
    fn schedules_never_overcrash() {
        for seed in 0..50 {
            let s = Scenario::generate(seed, ScenarioConfig::default());
            let mut live = s.config.num_nodes as i64;
            for ev in &s.events {
                live += i64::from(matches!(ev, FaultEvent::JoinNode { .. }))
                    - i64::from(matches!(ev, FaultEvent::CrashNode { .. }));
                assert!(live >= 3, "seed {seed} crashes below three nodes");
            }
        }
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let s = Scenario::generate(11, ScenarioConfig::default().bidirectional());
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_cluster_config_panics() {
        let cfg = ScenarioConfig { num_nodes: 2, ..ScenarioConfig::default() };
        let _ = Scenario::generate(1, cfg);
    }

    #[test]
    fn default_skew_leaves_generation_byte_identical() {
        // The skew knobs are strictly opt-in: an all-default SkewConfig
        // must not shift a single generation-RNG draw.
        let plain = Scenario::generate(9, ScenarioConfig::default());
        let skewed = Scenario::generate(
            9,
            ScenarioConfig { skew: SkewConfig::default(), ..ScenarioConfig::default() },
        );
        assert_eq!(plain, skewed);
    }

    #[test]
    fn herd_config_replaces_query_storms() {
        let mut saw_herd = false;
        for seed in 0..20 {
            let s = Scenario::generate(seed, ScenarioConfig::default().with_herd(12));
            for ev in &s.events {
                assert!(
                    !matches!(ev, FaultEvent::QueryStorm { .. }),
                    "herd configs must not schedule plain storms"
                );
                if let FaultEvent::Herd { count, .. } = ev {
                    assert_eq!(*count, 12);
                    saw_herd = true;
                }
            }
        }
        assert!(saw_herd, "twenty seeds without a single herd roll");
    }

    #[test]
    fn zipf_anchors_concentrate_on_low_ranks() {
        let mut low = 0u32;
        let mut total = 0u32;
        for seed in 0..40 {
            let s = Scenario::generate(seed, ScenarioConfig::default().zipfian(2.0));
            for ev in &s.events {
                if let FaultEvent::PostQuery { anchor, .. } = ev {
                    total += 1;
                    if *anchor < 2 {
                        low += 1;
                    }
                }
            }
        }
        assert!(total > 50, "expected a healthy query population, got {total}");
        // Zipf(2.0) over 8 ranks puts ~85% of mass on ranks 0-1.
        assert!(low * 10 > total * 6, "only {low}/{total} anchors hit the hot ranks");
    }

    #[test]
    fn legacy_scenario_json_without_skew_fields_parses() {
        let s = Scenario::generate(4, ScenarioConfig::default());
        let mut v = serde_json::to_value(&s).unwrap();
        // Strip the three skew fields, simulating a reproducer serialized
        // before the adversarial pack existed.
        if let serde::Value::Object(entries) = &mut v {
            for (k, cv) in entries.iter_mut() {
                if k == "config" {
                    if let serde::Value::Object(cfg) = cv {
                        cfg.retain(|(f, _)| {
                            f.as_str() != "skew"
                                && f.as_str() != "load_bound"
                                && f.as_str() != "mitigation"
                        });
                    }
                }
            }
        }
        let back: Scenario = serde_json::from_value(&v).unwrap();
        assert_eq!(s, back, "defaults must reconstruct the pre-skew config");
    }

    #[test]
    #[should_panic(expected = "correlation must lie in")]
    fn out_of_range_rho_is_rejected() {
        let _ = Scenario::generate(1, ScenarioConfig::default().correlated(1.5));
    }

    fn two_islands() -> PartitionConfig {
        PartitionConfig {
            islands: vec![vec![7, 8, 9]],
            split_after_rounds: 2,
            heal_after_rounds: 3,
        }
    }

    #[test]
    fn partition_markers_land_at_their_rounds_with_a_settle_window() {
        for seed in 0..20 {
            let s =
                Scenario::generate(seed, ScenarioConfig::default().with_partition(two_islands()));
            let split = s.events.iter().position(|e| *e == FaultEvent::PartitionSplit).unwrap();
            let heal = s.events.iter().position(|e| *e == FaultEvent::PartitionHeal).unwrap();
            assert!(split < heal, "seed {seed}: split must precede heal");
            let rounds_before = |end: usize| {
                s.events[..end].iter().filter(|e| matches!(e, FaultEvent::Notify)).count()
            };
            assert_eq!(rounds_before(split), 3, "seed {seed}: split after warm-up + 2 rounds");
            assert_eq!(rounds_before(heal), 6, "seed {seed}: heal 3 rounds after the split");
            let settle =
                s.events[heal..].iter().filter(|e| matches!(e, FaultEvent::Notify)).count();
            assert!(
                settle >= POST_HEAL_SETTLE_ROUNDS,
                "seed {seed}: only {settle} rounds follow the heal"
            );
        }
    }

    #[test]
    fn partition_schedules_degrade_churn_to_plain_rounds() {
        for seed in 0..20 {
            let s =
                Scenario::generate(seed, ScenarioConfig::default().with_partition(two_islands()));
            for ev in &s.events {
                assert!(
                    !matches!(
                        ev,
                        FaultEvent::CrashNode { .. }
                            | FaultEvent::JoinNode { .. }
                            | FaultEvent::RehomeOrphans { .. }
                    ),
                    "seed {seed}: partition schedules must not churn membership"
                );
            }
        }
    }

    #[test]
    fn disarmed_partition_leaves_generation_byte_identical() {
        // Like the skew knobs: an absent partition config must not shift
        // a single generation-RNG draw or schedule position.
        let plain = Scenario::generate(13, ScenarioConfig::default());
        let disarmed = Scenario::generate(
            13,
            ScenarioConfig {
                partition: None,
                disable_stabilization: false,
                ..ScenarioConfig::default()
            },
        );
        assert_eq!(plain, disarmed);
    }

    #[test]
    fn partition_scenarios_roundtrip_through_json() {
        let s = Scenario::generate(
            14,
            ScenarioConfig::default().with_partition(two_islands()).without_stabilization(),
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn legacy_scenario_json_without_partition_fields_parses() {
        let s = Scenario::generate(15, ScenarioConfig::default());
        let mut v = serde_json::to_value(&s).unwrap();
        if let serde::Value::Object(entries) = &mut v {
            for (k, cv) in entries.iter_mut() {
                if k == "config" {
                    if let serde::Value::Object(cfg) = cv {
                        cfg.retain(|(f, _)| {
                            f.as_str() != "partition" && f.as_str() != "disable_stabilization"
                        });
                    }
                }
            }
        }
        let back: Scenario = serde_json::from_value(&v).unwrap();
        assert_eq!(s, back, "defaults must reconstruct the pre-partition config");
    }

    #[test]
    #[should_panic(expected = "listed in two islands")]
    fn overlapping_islands_are_rejected() {
        let cfg = ScenarioConfig::default().with_partition(PartitionConfig {
            islands: vec![vec![1, 2], vec![2, 3]],
            split_after_rounds: 1,
            heal_after_rounds: 1,
        });
        let _ = Scenario::generate(1, cfg);
    }

    #[test]
    #[should_panic(expected = "side 0 must keep at least one")]
    fn fully_severed_rings_are_rejected() {
        let cfg = ScenarioConfig { num_nodes: 4, ..ScenarioConfig::default() }.with_partition(
            PartitionConfig {
                islands: vec![vec![0, 1], vec![2, 3]],
                split_after_rounds: 1,
                heal_after_rounds: 1,
            },
        );
        let _ = Scenario::generate(1, cfg);
    }
}
