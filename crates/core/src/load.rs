//! Per-node load ledger and virtual-node re-weighting policy.
//!
//! The paper's uniformity assumption (§IV-B) makes per-node load a
//! first-class health signal: correlated streams collapse their summary
//! keys onto a narrow arc and hotspot the few nodes owning it. The
//! [`LoadLedger`] samples, once per NPER round, every ring identifier's
//! message delta (sent + received, from [`dsi_simnet::Metrics`]), stored
//! MBRs and active subscriptions, attributing each identifier to its
//! *physical host* — virtual identifiers created by re-weighting charge
//! the host they were assigned to. Distribution statistics reuse the exact
//! quantile machinery of `dsi-trace` ([`QuantileBuffer`]), so ledger
//! percentiles are sample-exact like every other series in the repo.
//!
//! [`ReweightConfig`] is the mitigation policy: when the per-host max/mean
//! message ratio stays above `trip_ratio` for `trip_rounds` consecutive
//! rounds, the cluster splits the hottest identifier's owned arc across
//! `split_into` additional virtual identifiers hosted on the
//! least-loaded physical nodes (see `Cluster::maybe_reweight`). Chord
//! routing and the Eq. 6 covering sets stay correct because the virtual
//! identifiers are full ring members joined through the ordinary protocol.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dsi_simnet::DetMap;
use dsi_trace::QuantileBuffer;
use serde::{Deserialize, Serialize};

/// Ring identifiers are plain `u64`s here (mirrors `dsi_chord::ChordId`
/// without a dependency cycle concern — `dsi-core` already re-exports it).
type ChordId = u64;

/// One ring identifier's load sample for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// The ring identifier the sample belongs to.
    pub node: ChordId,
    /// Physical host the identifier's load is attributed to (equals
    /// `node` for non-virtual identifiers).
    pub host: ChordId,
    /// Overlay messages charged to the identifier this round (sent +
    /// received delta since the previous round).
    pub messages: u64,
    /// MBR replica records stored at round time (gauge).
    pub stored_mbrs: u64,
    /// Active similarity + inner-product subscriptions at round time
    /// (gauge).
    pub subscriptions: u64,
}

/// One NPER round's load sample across the whole ring, sorted by
/// identifier for deterministic iteration and serialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundLoad {
    /// Simulated time of the round, in ms.
    pub time_ms: u64,
    /// Per-identifier samples, ascending by `node`.
    pub per_node: Vec<NodeLoad>,
}

impl RoundLoad {
    /// Message load aggregated per physical host, ascending by host id.
    pub fn by_host(&self) -> Vec<(ChordId, u64)> {
        let mut agg: Vec<(ChordId, u64)> = Vec::new();
        for s in &self.per_node {
            match agg.iter_mut().find(|(h, _)| *h == s.host) {
                Some((_, m)) => *m += s.messages,
                None => agg.push((s.host, s.messages)),
            }
        }
        agg.sort_unstable_by_key(|&(h, _)| h);
        agg
    }

    /// Hotspot ratio: max over mean of per-host message load. `None` when
    /// the round is empty or entirely idle (a 0/0 round is not a hotspot).
    pub fn max_over_mean(&self) -> Option<f64> {
        let hosts = self.by_host();
        let mut buf = QuantileBuffer::new();
        for &(_, m) in &hosts {
            buf.push(m);
        }
        let mean = buf.mean()?;
        if mean == 0.0 {
            return None;
        }
        Some(buf.max().unwrap_or(0) as f64 / mean)
    }

    /// Gini coefficient of per-host message load in `[0, 1)`: 0 is a
    /// perfectly even round, values near 1 mean one host carries
    /// everything. 0 for empty or idle rounds.
    pub fn gini(&self) -> f64 {
        let loads: Vec<u64> = self.by_host().into_iter().map(|(_, m)| m).collect();
        gini(&loads)
    }

    /// The identifier with the highest message load this round (ties break
    /// toward the lower id). `None` on an empty round.
    pub fn hottest(&self) -> Option<&NodeLoad> {
        // per_node is ascending by id, so max_by_key's "last wins" is made
        // deterministic by strict comparison.
        self.per_node.iter().fold(None, |best: Option<&NodeLoad>, s| match best {
            Some(b) if b.messages >= s.messages => Some(b),
            _ => Some(s),
        })
    }
}

/// Exact Gini coefficient of a load vector (0 for empty/idle inputs).
pub fn gini(loads: &[u64]) -> f64 {
    let n = loads.len();
    let total: u64 = loads.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable();
    // G = (2 Σ_i i·x_i) / (n Σ x) - (n + 1) / n, with i ranked from 1.
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// The per-round load history of one cluster run.
///
/// Rounds are appended by `Cluster::record_load_round` (one call per NPER
/// round); message deltas are computed against the previous round's
/// cumulative counters, which the ledger tracks internally.
#[derive(Debug, Clone, Default)]
pub struct LoadLedger {
    rounds: Vec<RoundLoad>,
    /// Cumulative message count per identifier at the previous round.
    prev: DetMap<ChordId, u64>,
}

impl LoadLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded rounds, oldest first.
    pub fn rounds(&self) -> &[RoundLoad] {
        &self.rounds
    }

    /// Records one round. `samples` holds, per live ring identifier:
    /// `(node, host, cumulative_messages, stored_mbrs, subscriptions)`,
    /// in any order; the ledger sorts by identifier and converts the
    /// cumulative counter into a per-round delta. Identifiers first seen
    /// this round (joiners, virtual splits) delta against zero.
    pub fn record(&mut self, time_ms: u64, samples: Vec<(ChordId, ChordId, u64, u64, u64)>) {
        let mut per_node: Vec<NodeLoad> = samples
            .into_iter()
            .map(|(node, host, cum, stored_mbrs, subscriptions)| {
                let before = self.prev.get(&node).copied().unwrap_or(0);
                NodeLoad {
                    node,
                    host,
                    messages: cum.saturating_sub(before),
                    stored_mbrs,
                    subscriptions,
                }
            })
            .collect();
        per_node.sort_unstable_by_key(|s| s.node);
        for s in &per_node {
            let cum = self.prev.get(&s.node).copied().unwrap_or(0) + s.messages;
            self.prev.insert(s.node, cum);
        }
        self.rounds.push(RoundLoad { time_ms, per_node });
    }

    /// Number of trailing consecutive rounds whose per-host max/mean ratio
    /// exceeds `trip_ratio` — the hot-streak the re-weighting trigger and
    /// the load-balance oracle both read.
    pub fn hot_streak(&self, trip_ratio: f64) -> u32 {
        let mut streak = 0;
        for r in self.rounds.iter().rev() {
            match r.max_over_mean() {
                Some(ratio) if ratio > trip_ratio => streak += 1,
                _ => break,
            }
        }
        streak
    }

    /// Exact quantile buffer over every per-host per-round message load in
    /// the ledger — the distribution the load-balance report summarizes.
    pub fn host_load_quantiles(&self) -> QuantileBuffer {
        let mut buf = QuantileBuffer::new();
        for r in &self.rounds {
            for (_, m) in r.by_host() {
                buf.push(m);
            }
        }
        buf
    }
}

/// Virtual-node re-weighting policy (the mitigation lever).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReweightConfig {
    /// Per-host max/mean message ratio above which a round counts as hot.
    pub trip_ratio: f64,
    /// Consecutive hot rounds required before the cluster acts (the K in
    /// "over threshold for K rounds").
    pub trip_rounds: u32,
    /// Virtual identifiers the hot arc is split across per action.
    pub split_into: usize,
    /// Hard cap on re-weighting actions per run (keeps the ring bounded).
    pub max_actions: u32,
    /// Rounds to wait after an action before re-evaluating (lets the new
    /// arc assignment show up in the ledger before acting again).
    pub cooldown_rounds: u32,
}

impl Default for ReweightConfig {
    /// Trip at 2.5× mean sustained for 2 rounds; split the hot arc across
    /// 3 virtual ids; at most 4 actions with a 2-round cooldown.
    fn default() -> Self {
        ReweightConfig {
            trip_ratio: 2.5,
            trip_rounds: 2,
            split_into: 3,
            max_actions: 4,
            cooldown_rounds: 2,
        }
    }
}

impl ReweightConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(
            self.trip_ratio.is_finite() && self.trip_ratio > 1.0,
            "trip ratio must exceed 1 (max/mean is never below 1)"
        );
        assert!(self.trip_rounds > 0, "need at least one hot round to trip");
        assert!(self.split_into > 0, "must split into at least one virtual id");
        assert!(self.max_actions > 0, "mitigation with zero actions is disabled");
    }
}

/// One executed re-weighting action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReweightAction {
    /// Ledger round index (0-based) at which the action fired.
    pub round: usize,
    /// The hot identifier whose owned arc was split.
    pub hot: ChordId,
    /// Virtual identifiers inserted into the arc, ascending insert order.
    pub new_ids: Vec<ChordId>,
    /// Physical hosts the new identifiers were assigned to (parallel to
    /// `new_ids`).
    pub hosts: Vec<ChordId>,
    /// Simulated time of the action, in ms.
    pub time_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(samples: &[(u64, u64, u64)]) -> RoundLoad {
        RoundLoad {
            time_ms: 0,
            per_node: samples
                .iter()
                .map(|&(node, host, messages)| NodeLoad {
                    node,
                    host,
                    messages,
                    stored_mbrs: 0,
                    subscriptions: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn deltas_are_taken_per_identifier() {
        let mut l = LoadLedger::new();
        l.record(100, vec![(1, 1, 10, 0, 0), (2, 2, 4, 0, 0)]);
        l.record(200, vec![(1, 1, 25, 0, 0), (2, 2, 4, 0, 0), (3, 1, 6, 0, 0)]);
        let r = &l.rounds()[1];
        assert_eq!(r.per_node[0].messages, 15, "node 1: 25 - 10");
        assert_eq!(r.per_node[1].messages, 0, "node 2 was idle");
        assert_eq!(r.per_node[2].messages, 6, "joiner deltas against zero");
    }

    #[test]
    fn host_aggregation_charges_virtuals_to_their_host() {
        let r = round(&[(1, 1, 10), (2, 2, 2), (7, 1, 5)]);
        assert_eq!(r.by_host(), vec![(1, 15), (2, 2)]);
    }

    #[test]
    fn max_over_mean_flags_the_hotspot() {
        let even = round(&[(1, 1, 10), (2, 2, 10), (3, 3, 10)]);
        assert!((even.max_over_mean().unwrap() - 1.0).abs() < 1e-12);
        let hot = round(&[(1, 1, 28), (2, 2, 1), (3, 3, 1)]);
        assert!((hot.max_over_mean().unwrap() - 2.8).abs() < 1e-12);
        let idle = round(&[(1, 1, 0), (2, 2, 0)]);
        assert_eq!(idle.max_over_mean(), None, "idle rounds are not hotspots");
    }

    #[test]
    fn gini_spans_even_to_concentrated() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
        let one_hot = gini(&[100, 0, 0, 0]);
        assert!(one_hot > 0.7, "all load on one node must score high, got {one_hot}");
        assert!(gini(&[10, 8, 12, 9]) < 0.15);
    }

    #[test]
    fn hottest_prefers_lower_id_on_ties() {
        let r = round(&[(3, 3, 7), (9, 9, 7), (5, 5, 2)]);
        assert_eq!(r.hottest().unwrap().node, 3);
    }

    #[test]
    fn hot_streak_counts_trailing_hot_rounds() {
        let mut l = LoadLedger::new();
        l.record(1, vec![(1, 1, 10, 0, 0), (2, 2, 10, 0, 0)]); // even
        l.record(2, vec![(1, 1, 110, 0, 0), (2, 2, 12, 0, 0)]); // hot
        l.record(3, vec![(1, 1, 260, 0, 0), (2, 2, 16, 0, 0)]); // hot
        assert_eq!(l.hot_streak(1.5), 2);
        assert_eq!(l.hot_streak(10.0), 0);
    }

    #[test]
    fn quantiles_cover_all_rounds() {
        let mut l = LoadLedger::new();
        l.record(1, vec![(1, 1, 4, 0, 0), (2, 2, 8, 0, 0)]);
        l.record(2, vec![(1, 1, 5, 0, 0), (2, 2, 20, 0, 0)]);
        let mut q = l.host_load_quantiles();
        assert_eq!(q.len(), 4);
        assert_eq!(q.max(), Some(12), "round-2 host 2 delta is 20 - 8");
    }

    #[test]
    #[should_panic(expected = "trip ratio")]
    fn reweight_config_rejects_sub_unity_trip() {
        ReweightConfig { trip_ratio: 0.9, ..ReweightConfig::default() }.validate();
    }
}
