//! Aggregate queries over ECM-sketches (DESIGN.md §15).
//!
//! A continuous aggregate query asks a sliding-window question about the
//! *whole population* of stream values — total arrival count, frequency
//! of a value bin, heavy-hitter bins, self-join size — rather than about
//! one stream. Every data-center node maintains a local [`EcmSketch`]
//! replica fed from its own ingest path; at each notification cycle the
//! query's aggregator collects the replicas up the multicast tree,
//! merging partial sketches at the middle nodes so the root receives one
//! sketch per subtree, and pushes an [`AggregateNotification`] to the
//! client. The notification carries the ε-δ contract actually achieved:
//! the advertised error widens by the uncovered population fraction when
//! faults keep some replicas out of the round.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::query::QueryId;
use dsi_chord::ChordId;
use dsi_simnet::SimTime;
use dsi_sketch::{EcmSketch, ErrorBound, SketchDims, SketchParams};
use serde::{Deserialize, Serialize};

/// Lower edge of the value range [`quantize`] maps onto bins.
pub const QUANTIZE_LO: f64 = -16.0;
/// Upper edge of the value range [`quantize`] maps onto bins.
pub const QUANTIZE_HI: f64 = 16.0;

/// Maps a raw stream value to a sketch item id: the value is clamped to
/// `[QUANTIZE_LO, QUANTIZE_HI]` and bucketed uniformly into `bins` bins.
/// Pure and total — the accuracy oracle applies the same function to its
/// brute-force reference, so estimates and truth always share a domain.
pub fn quantize(value: f64, bins: u64) -> u64 {
    let bins = bins.max(1);
    let v = if value.is_nan() { QUANTIZE_LO } else { value.clamp(QUANTIZE_LO, QUANTIZE_HI) };
    let t = (v - QUANTIZE_LO) / (QUANTIZE_HI - QUANTIZE_LO);
    ((t * bins as f64) as u64).min(bins - 1)
}

/// Which aggregate function a query computes over the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregateKind {
    /// Total number of values that arrived in the window.
    WindowCount,
    /// Number of window arrivals that quantize into `bin`.
    PointCount {
        /// The quantized value bin being counted.
        bin: u64,
    },
    /// Bins whose window frequency is at least `phi` of the total.
    HeavyHitters {
        /// Heavy-hitter threshold as a fraction of the window total.
        phi: f64,
    },
    /// Second frequency moment `Σ f_b²` over the quantized bins.
    SelfJoinSize,
}

/// Client-side description of an aggregate query before it is posted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub kind: AggregateKind,
    /// Target relative error ε at full coverage.
    pub eps: f64,
    /// Failure probability δ.
    pub delta: f64,
    /// Sliding-window width in milliseconds.
    pub window_ms: u64,
    /// Query lifespan in milliseconds (expiry = posting time + lifespan).
    pub lifespan_ms: u64,
    /// Quantization universe size (see [`quantize`]).
    pub bins: u64,
    /// Explicit sketch dimensions, overriding the `(ε, δ)`-derived ones.
    /// Tests use this to inject an under-sized sketch whose advertised
    /// bound is a lie — the accuracy oracle's negative control.
    pub forced_dims: Option<SketchDims>,
}

/// A posted aggregate query in flight.
#[derive(Debug, Clone)]
pub struct AggregateQuery {
    /// Unique query identifier (shared namespace with similarity queries).
    pub id: QueryId,
    /// Node that posted the query and receives the notifications.
    pub client: ChordId,
    /// Node collecting replica sketches and emitting notifications.
    pub aggregator: ChordId,
    /// The spec this query was posted from.
    pub spec: AggregateSpec,
    /// Sketch construction parameters shared by every replica.
    pub params: SketchParams,
    /// Sketch grid dimensions shared by every replica.
    pub dims: SketchDims,
    /// Absolute expiry time.
    pub expires: SimTime,
}

impl AggregateQuery {
    /// True if the query has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires
    }

    /// A fresh, empty replica sketch with this query's parameters.
    pub fn fresh_sketch(&self) -> EcmSketch {
        EcmSketch::with_dims(self.params, self.dims)
    }

    /// The advertised full-coverage accuracy contract.
    pub fn bound(&self) -> ErrorBound {
        ErrorBound { eps: self.params.eps, delta: self.params.delta }
    }
}

/// The value part of an aggregate notification.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateValue {
    /// A single estimate (window count, point count, self-join size).
    Scalar(f64),
    /// Heavy-hitter bins with their estimated window frequencies.
    Bins(Vec<(u64, f64)>),
}

/// One periodic answer to an aggregate query, tagged with the accuracy
/// contract the collection round actually achieved.
#[derive(Debug, Clone)]
pub struct AggregateNotification {
    /// Query this notification answers.
    pub query: QueryId,
    /// The aggregate function computed.
    pub kind: AggregateKind,
    /// The estimate.
    pub value: AggregateValue,
    /// The advertised relative error: base ε widened by the uncovered
    /// population fraction ([`ErrorBound::effective_eps`]).
    pub eps_effective: f64,
    /// Failure probability of the contract.
    pub delta: f64,
    /// Fraction of live nodes whose replica reached the aggregator.
    pub coverage: f64,
    /// Number of replica sketches folded into the estimate.
    pub components: u32,
    /// The nodes that contributed, each with the virtual time its replica
    /// started counting (sketches installed by repair missed earlier
    /// events; the oracle scopes its reference accordingly).
    pub contributors: Vec<(ChordId, SimTime)>,
    /// Virtual time the aggregator emitted the notification.
    pub at: SimTime,
}

/// Cluster-side runtime state of one aggregate query: the query plus the
/// per-node replica sketches, sorted by owning node id.
#[derive(Debug, Clone)]
pub(crate) struct AggregateRuntime {
    pub(crate) query: AggregateQuery,
    /// `(node, since, sketch)` — `since` is when this replica started
    /// counting (posting time, or the repair time for healed replicas).
    pub(crate) replicas: Vec<(ChordId, SimTime, EcmSketch)>,
}

impl AggregateRuntime {
    /// Index of `node`'s replica slot, or where to insert one.
    pub(crate) fn slot(&self, node: ChordId) -> Result<usize, usize> {
        self.replicas.binary_search_by(|(n, _, _)| n.cmp(&node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_is_monotone_and_total() {
        let bins = 64u64;
        let mut last = 0u64;
        let mut seen_distinct = 0usize;
        for i in 0..=1000 {
            let v = QUANTIZE_LO + (QUANTIZE_HI - QUANTIZE_LO) * (i as f64) / 1000.0;
            let b = quantize(v, bins);
            assert!(b < bins);
            assert!(b >= last, "quantize must be monotone");
            if b != last || i == 0 {
                seen_distinct += 1;
            }
            last = b;
        }
        assert_eq!(seen_distinct, bins as usize, "the range must cover every bin");
        // Out-of-range and non-finite values clamp, never panic.
        assert_eq!(quantize(f64::NEG_INFINITY, bins), 0);
        assert_eq!(quantize(f64::INFINITY, bins), bins - 1);
        assert_eq!(quantize(f64::NAN, bins), 0);
        assert_eq!(quantize(1e300, bins), bins - 1);
        assert_eq!(quantize(0.0, 1), 0);
    }

    #[test]
    fn kind_round_trips_through_serde() {
        for kind in [
            AggregateKind::WindowCount,
            AggregateKind::PointCount { bin: 7 },
            AggregateKind::HeavyHitters { phi: 0.125 },
            AggregateKind::SelfJoinSize,
        ] {
            let v = kind.to_value();
            let back = AggregateKind::from_value(&v).expect("round trip");
            assert_eq!(kind, back);
        }
    }
}
