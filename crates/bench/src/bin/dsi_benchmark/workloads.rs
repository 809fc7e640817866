//! The four workloads. Names, populations and summarisation parameters are
//! fixed; only the number of measured NPER rounds scales, with `--seconds`.

use dsi_core::{ClusterConfig, SimilarityKind};
use dsi_simnet::{FaultPlan, FaultSpec};

/// Stream period of the tick-driven workloads, in simulated ms.
pub const TICK_MS: u64 = 200;

/// How the driver feeds the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drive {
    /// One value per stream per [`TICK_MS`] tick through
    /// `Cluster::ingest_batch_into`, an NPER round every `nper_ms`, and
    /// `queries_per_round` similarity queries posted before each round.
    Ticks { queries_per_round: usize },
    /// Per-event `post_value` through `simnet::Engine` (stream periods
    /// U[PMIN, PMAX]), Poisson queries, aggregate queries, faults and
    /// churn: every knob on.
    Events,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line on why the workload exists (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    pub nodes: usize,
    pub streams: usize,
    pub window: usize,
    pub coeffs: usize,
    pub zeta: usize,
    pub max_width: Option<f64>,
    pub drive: Drive,
    /// NPER rounds the reference 2-core host measures per `--seconds`
    /// second. The measured work is `round(seconds * rounds_per_second)`
    /// rounds: fixed for a given `--seconds`, so every count repeats
    /// exactly for a seed, and about `--seconds` long on that host.
    pub rounds_per_second: f64,
}

/// Lifespan of the similarity queries the benchmark posts itself.
pub const QUERY_LIFESPAN_MS: u64 = 20_000;

/// Queries posted by the epilogue probe of the workloads that post none
/// while measuring, so that every query metric exists on every workload.
pub const EPILOGUE_QUERIES: usize = 200;

/// Epilogue queries that live long enough to be answered; the rest only
/// measure posting (answering one costs ~30 ms on `ingest_fanout`).
pub const EPILOGUE_ANSWERED: usize = 50;

/// `faulty_mix`: Poisson query arrivals per simulated second.
pub const FAULTY_QUERY_RATE: f64 = 10.0;
/// `faulty_mix`: share of arriving queries that are inner-product queries.
pub const FAULTY_IP_SHARE: f64 = 0.2;
/// `faulty_mix`: one aggregate query every this many simulated ms.
pub const FAULTY_AGGREGATE_EVERY_MS: u64 = 10_000;
/// `faulty_mix`: one crash + join + re-home every this many simulated ms.
pub const FAULTY_CHURN_EVERY_MS: u64 = 7_000;

/// `faulty_mix`'s fault plan: every message class drops 10 %, duplicates
/// 2 % and delays 5 % of its deliveries.
pub fn faulty_plan() -> FaultPlan {
    FaultPlan::uniform(FaultSpec { drop_prob: 0.10, dup_prob: 0.02, delay_prob: 0.05 })
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ingest_quiet",
        why: "few, wide MBRs on 20 nodes: sliding DFT and batching dominate, routing and stores idle",
        nodes: 20,
        streams: 50_000,
        window: 128,
        coeffs: 4,
        zeta: 64,
        max_width: None,
        drive: Drive::Ticks { queries_per_round: 0 },
        rounds_per_second: 4.6,
    },
    Spec {
        name: "ingest_fanout",
        why: "an MBR every few items on 1000 nodes: key mapping, multicast and replica stores dominate",
        nodes: 1_000,
        streams: 50_000,
        window: 32,
        coeffs: 2,
        zeta: 5,
        max_width: Some(0.02),
        drive: Drive::Ticks { queries_per_round: 0 },
        rounds_per_second: 0.5,
    },
    Spec {
        name: "query_serve",
        why: "300 live similarity queries on 500 nodes: candidate scans and verification dominate",
        nodes: 500,
        streams: 20_000,
        window: 64,
        coeffs: 2,
        zeta: 10,
        max_width: Some(0.02),
        drive: Drive::Ticks { queries_per_round: 30 },
        rounds_per_second: 0.5,
    },
    Spec {
        name: "faulty_mix",
        why: "per-event ingest with faults, retries, sketches, repair and churn: the all-knobs-on path",
        nodes: 100,
        streams: 1_000,
        window: 64,
        coeffs: 2,
        zeta: 10,
        max_width: Some(0.02),
        drive: Drive::Events,
        rounds_per_second: 3.0,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--quick` form: a tenth of the nodes and streams.
    pub fn quick(mut self) -> Spec {
        self.nodes = (self.nodes / 10).max(4);
        self.streams = (self.streams / 10).max(20);
        self.rounds_per_second *= 10.0;
        self
    }

    /// Measured NPER rounds for a `--seconds` budget (at least 2, so the
    /// per-round median exists).
    pub fn rounds_for(&self, seconds: f64) -> u64 {
        ((seconds * self.rounds_per_second).round() as u64).max(2)
    }

    /// The cluster configuration: Table I run-time parameters with this
    /// workload's summarisation, streams indexed under the subsequence
    /// flavour like the paper's evaluation (DESIGN.md §5).
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.nodes);
        cfg.kind = SimilarityKind::Subsequence;
        cfg.workload.window_len = self.window;
        cfg.workload.num_coeffs = self.coeffs;
        cfg.workload.mbr_batch = self.zeta;
        cfg.workload.mbr_max_width = self.max_width;
        if self.drive == Drive::Events {
            cfg.workload.qrate_per_sec = FAULTY_QUERY_RATE;
        }
        cfg
    }
}
