//! Experiment reports: the exact series the paper's figures plot.

use dsi_simnet::{InputEvent, Metrics, MsgClass, HOP_DELAY_MS};
use serde::{Deserialize, Serialize};

/// One row of Fig. 6(a): average per-node message load (messages/second),
/// broken into the paper's seven components.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadComponents {
    /// a) MBR messages originated by the node as a stream source.
    pub mbrs: f64,
    /// b) additional messages when an MBR key range spans multiple nodes.
    pub mbrs_internal: f64,
    /// c) MBR messages by intermediate nodes on the route.
    pub mbrs_in_transit: f64,
    /// d) all query messages.
    pub queries: f64,
    /// e) response messages from the notifying node to the client.
    pub responses: f64,
    /// f) information exchange between neighbor nodes.
    pub responses_internal: f64,
    /// g) response messages by intermediate nodes on the route.
    pub responses_in_transit: f64,
}

impl LoadComponents {
    /// Total load across components.
    pub fn total(&self) -> f64 {
        self.mbrs
            + self.mbrs_internal
            + self.mbrs_in_transit
            + self.queries
            + self.responses
            + self.responses_internal
            + self.responses_in_transit
    }
}

/// One row of Fig. 7: message overhead — additional messages per input
/// event of the matching kind.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OverheadComponents {
    /// a) MBR copies when the key range spans multiple nodes, per MBR.
    pub mbr: f64,
    /// b) MBR messages in transit, per MBR.
    pub mbr_in_transit: f64,
    /// c) query copies when the radius spans multiple nodes, per query.
    pub query: f64,
    /// d) query messages in transit, per query.
    pub query_in_transit: f64,
    /// e) neighbor-exchange messages, per response.
    pub response: f64,
    /// f) response messages in transit, per response.
    pub response_in_transit: f64,
}

/// One row of Fig. 8: average hops per logical message.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HopComponents {
    /// MBR messages (initial routing).
    pub mbr: f64,
    /// Internal MBR messages (replicas reached by forwarding).
    pub mbr_internal: f64,
    /// Query messages (initial routing).
    pub query: f64,
    /// Internal query messages (range forwarding).
    pub query_internal: f64,
    /// Response messages.
    pub response: f64,
}

/// Counts of input events during the measured window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// New MBRs produced by stream sources.
    pub mbrs: u64,
    /// New client queries posted.
    pub queries: u64,
    /// Periodic responses pushed.
    pub responses: u64,
}

/// The full result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemReport {
    /// Number of data centers.
    pub num_nodes: usize,
    /// Measured window in seconds.
    pub duration_s: f64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Query radius used.
    pub query_radius: f64,
    /// Fig. 6(a) components.
    pub load: LoadComponents,
    /// Fig. 6(b): per-node total load (messages/second), one per node.
    pub per_node_load: Vec<f64>,
    /// Fig. 7 components.
    pub overhead: OverheadComponents,
    /// Fig. 8 components.
    pub hops: HopComponents,
    /// Input events in the window.
    pub events: EventCounts,
    /// Verified match notifications delivered.
    pub matches_delivered: u64,
    /// Candidate (stream, query) pairs before verification.
    pub candidates: u64,
}

impl SystemReport {
    /// Assembles a report from collected metrics.
    pub fn from_metrics(
        metrics: &Metrics,
        all_nodes: &[u64],
        duration_s: f64,
        seed: u64,
        query_radius: f64,
        matches_delivered: u64,
        candidates: u64,
    ) -> Self {
        let n = all_nodes.len();
        let load = LoadComponents {
            mbrs: metrics.avg_load(MsgClass::MbrOriginated, n, duration_s),
            mbrs_internal: metrics.avg_load(MsgClass::MbrInternal, n, duration_s),
            mbrs_in_transit: metrics.avg_load(MsgClass::MbrTransit, n, duration_s),
            queries: metrics.avg_load(MsgClass::Query, n, duration_s)
                + metrics.avg_load(MsgClass::QueryInternal, n, duration_s)
                + metrics.avg_load(MsgClass::QueryTransit, n, duration_s),
            responses: metrics.avg_load(MsgClass::Response, n, duration_s),
            responses_internal: metrics.avg_load(MsgClass::ResponseInternal, n, duration_s),
            responses_in_transit: metrics.avg_load(MsgClass::ResponseTransit, n, duration_s),
        };
        let overhead = OverheadComponents {
            mbr: metrics.overhead(MsgClass::MbrInternal, InputEvent::Mbr),
            mbr_in_transit: metrics.overhead(MsgClass::MbrTransit, InputEvent::Mbr),
            query: metrics.overhead(MsgClass::QueryInternal, InputEvent::Query),
            query_in_transit: metrics.overhead(MsgClass::QueryTransit, InputEvent::Query),
            response: metrics.overhead(MsgClass::ResponseInternal, InputEvent::Response),
            response_in_transit: metrics.overhead(MsgClass::ResponseTransit, InputEvent::Response),
        };
        let hops = HopComponents {
            mbr: metrics.avg_hops(MsgClass::MbrOriginated),
            mbr_internal: metrics.avg_hops(MsgClass::MbrInternal),
            query: metrics.avg_hops(MsgClass::Query),
            query_internal: metrics.avg_hops(MsgClass::QueryInternal),
            response: metrics.avg_hops(MsgClass::Response),
        };
        let per_node_load =
            metrics.per_node_load(all_nodes, duration_s).into_iter().map(|(_, l)| l).collect();
        SystemReport {
            num_nodes: n,
            duration_s,
            seed,
            query_radius,
            load,
            per_node_load,
            overhead,
            hops,
            events: EventCounts {
                mbrs: metrics.event_count(InputEvent::Mbr),
                queries: metrics.event_count(InputEvent::Query),
                responses: metrics.event_count(InputEvent::Response),
            },
            matches_delivered,
            candidates,
        }
    }

    /// Expected end-to-end latency of a response message at the paper's
    /// 50 ms per hop (hops x [`HOP_DELAY_MS`]) — the "time lags for the
    /// detected similarities to be propagated to the client" the paper
    /// discusses.
    pub fn response_latency_ms(&self) -> f64 {
        self.hops.response * HOP_DELAY_MS as f64
    }

    /// Expected time for a query to reach the *last* node of its range
    /// (the §IV-C sequential-walk cost Fig. 8 tracks).
    pub fn query_propagation_ms(&self) -> f64 {
        self.hops.query_internal.max(self.hops.query) * HOP_DELAY_MS as f64
    }
}

/// Reliability-layer accounting: what the retry/backoff machinery did
/// during a run (DESIGN.md §12).
///
/// Kept *separate* from [`SystemReport`] so the golden Figure series stays
/// byte-identical for fault-free runs; a clean run reports all-zero
/// counters and `avg_coverage == 1.0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityReport {
    /// Total delivery retries across all message classes.
    pub retries: u64,
    /// Messages whose effect landed one refresh period late.
    pub redeliveries: u64,
    /// Duplicated copies suppressed at the receiver.
    pub dups_suppressed: u64,
    /// Number of coverage samples recorded (one per degraded-capable op).
    pub coverage_samples: u64,
    /// Mean fraction of the key range confirmed reached (1.0 = complete).
    pub avg_coverage: f64,
}

impl ReliabilityReport {
    /// Assemble the reliability report from collected metrics.
    pub fn from_metrics(metrics: &Metrics) -> Self {
        let (retries, redeliveries, dups_suppressed) = metrics.reliability_totals();
        ReliabilityReport {
            retries,
            redeliveries,
            dups_suppressed,
            coverage_samples: metrics.coverage_count(),
            avg_coverage: metrics.avg_coverage().unwrap_or(1.0),
        }
    }

    /// Whether the run saw no reliability events at all (fault-free).
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.redeliveries == 0
            && self.dups_suppressed == 0
            && self.coverage_samples == 0
    }
}

/// Load-balance accounting: what the per-node load ledger saw over a run
/// (DESIGN.md §13).
///
/// Kept *separate* from [`SystemReport`] so the golden Figure series stays
/// byte-identical — the ledger is only populated when the driver samples
/// rounds explicitly, and a run that never sampled reports all zeros.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadBalanceReport {
    /// Ledger rounds sampled.
    pub rounds: u64,
    /// Final round's per-host max/mean message ratio (0.0 when idle).
    pub final_max_over_mean: f64,
    /// Final round's Gini coefficient of per-host message load.
    pub final_gini: f64,
    /// Exact percentiles over every per-host per-round message load.
    pub host_load: dsi_trace::Percentiles,
    /// Re-weighting actions the mitigation took.
    pub reweight_actions: u64,
    /// Live virtual identifiers at the end of the run.
    pub virtual_nodes: u64,
}

impl LoadBalanceReport {
    /// Assemble the report from a cluster's load ledger and re-weighting
    /// history.
    pub fn from_ledger(
        ledger: &crate::load::LoadLedger,
        reweight_actions: u64,
        virtual_nodes: u64,
    ) -> Self {
        let last = ledger.rounds().last();
        LoadBalanceReport {
            rounds: ledger.rounds().len() as u64,
            final_max_over_mean: last.and_then(|r| r.max_over_mean()).unwrap_or(0.0),
            final_gini: last.map_or(0.0, |r| r.gini()),
            host_load: dsi_trace::Percentiles::of(&mut ledger.host_load_quantiles()),
            reweight_actions,
            virtual_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_assembles_from_metrics() {
        let mut m = Metrics::new();
        m.record_event(InputEvent::Mbr);
        m.record_route(MsgClass::MbrOriginated, MsgClass::MbrTransit, &[1, 2, 3]);
        m.record_hops(MsgClass::MbrOriginated, 2);
        let r = SystemReport::from_metrics(&m, &[1, 2, 3], 10.0, 42, 0.1, 0, 0);
        assert_eq!(r.num_nodes, 3);
        assert_eq!(r.events.mbrs, 1);
        assert!(r.load.mbrs > 0.0);
        assert!(r.load.mbrs_in_transit > 0.0);
        assert!((r.overhead.mbr_in_transit - 1.0).abs() < 1e-12);
        assert!((r.hops.mbr - 2.0).abs() < 1e-12);
        assert_eq!(r.per_node_load.len(), 3);
    }

    #[test]
    fn latency_derivation_uses_hop_counts() {
        let mut m = Metrics::new();
        m.record_hops(MsgClass::Response, 4);
        m.record_hops(MsgClass::QueryInternal, 10);
        let r = SystemReport::from_metrics(&m, &[1], 1.0, 0, 0.1, 0, 0);
        assert!((r.response_latency_ms() - 200.0).abs() < 1e-9);
        assert!((r.query_propagation_ms() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn load_total_sums_components() {
        let l = LoadComponents {
            mbrs: 1.0,
            mbrs_internal: 0.5,
            mbrs_in_transit: 2.0,
            queries: 0.25,
            responses: 0.5,
            responses_internal: 1.0,
            responses_in_transit: 0.75,
        };
        assert!((l.total() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reliability_report_reads_counters_and_detects_clean_runs() {
        let mut m = Metrics::new();
        let clean = ReliabilityReport::from_metrics(&m);
        assert!(clean.is_clean());
        assert!((clean.avg_coverage - 1.0).abs() < 1e-12);

        m.record_retry(MsgClass::MbrOriginated);
        m.record_retry(MsgClass::Query);
        m.record_redelivery(MsgClass::Response);
        m.record_dup_suppressed(MsgClass::QueryInternal);
        m.record_coverage(0.5);
        m.record_coverage(1.0);
        let r = ReliabilityReport::from_metrics(&m);
        assert!(!r.is_clean());
        assert_eq!(r.retries, 2);
        assert_eq!(r.redeliveries, 1);
        assert_eq!(r.dups_suppressed, 1);
        assert_eq!(r.coverage_samples, 2);
        assert!((r.avg_coverage - 0.75).abs() < 1e-12);
    }
}
