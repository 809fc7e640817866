//! Query types and evaluation (§III-B, §IV-D, §IV-E).

use dsi_chord::ChordId;
use dsi_dsp::dft::reconstruct_from_prefix;
use dsi_dsp::{extract_features, Complex64, FeatureVector, Normalization};
use dsi_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a stream within the system.
pub type StreamId = u32;

/// Identifier of a posted query.
pub type QueryId = u64;

/// Which similarity flavor a query uses (§III-B.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimilarityKind {
    /// Correlation queries: distance between z-normalized windows.
    Correlation,
    /// Subsequence queries: distance between unit-normalized windows.
    Subsequence,
}

impl SimilarityKind {
    /// The normalization this flavor applies to windows and queries.
    pub fn normalization(self) -> Normalization {
        match self {
            SimilarityKind::Correlation => Normalization::ZNorm,
            SimilarityKind::Subsequence => Normalization::UnitNorm,
        }
    }
}

/// A continuous similarity query `(Q, epsilon, lifespan)` in flight.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimilarityQuery {
    /// Unique query identifier.
    pub id: QueryId,
    /// Node that posted the query and receives the periodic responses.
    pub client: ChordId,
    /// Feature vector extracted from the query sequence.
    pub feature: FeatureVector,
    /// Raw query sequence (kept for exact false-positive filtering).
    pub target: Vec<f64>,
    /// Similarity threshold `epsilon`.
    pub radius: f64,
    /// Query flavor.
    pub kind: SimilarityKind,
    /// Node aggregating candidates for this query (the "middle node").
    pub aggregator: ChordId,
    /// Absolute expiry time (posting time + lifespan).
    pub expires: SimTime,
}

impl SimilarityQuery {
    /// Builds a query from a raw target sequence.
    #[expect(clippy::too_many_arguments, reason = "the query's fields plus its routing context")]
    pub fn from_target(
        id: QueryId,
        client: ChordId,
        target: Vec<f64>,
        radius: f64,
        kind: SimilarityKind,
        k: usize,
        aggregator: ChordId,
        expires: SimTime,
    ) -> Self {
        let feature = extract_features(&target, kind.normalization(), k);
        SimilarityQuery { id, client, feature, target, radius, kind, aggregator, expires }
    }

    /// Candidate test against another summary: may the underlying windows be
    /// within `radius`? Uses the lower-bounding feature distance, so a
    /// `false` here can never be a false dismissal.
    pub fn candidate(&self, other: &FeatureVector) -> bool {
        self.feature.distance(other) <= self.radius + 1e-12
    }

    /// True if the query has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires
    }
}

/// An alert condition attached to a continuous inner-product query — the
/// paper's "notify when the weighted average of the last measurements of a
/// patient exceeds a threshold value".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlertCondition {
    /// Fire when the inner product exceeds the threshold.
    Above(f64),
    /// Fire when the inner product drops below the threshold.
    Below(f64),
}

impl AlertCondition {
    /// Whether `value` triggers the alert.
    pub fn triggered(self, value: f64) -> bool {
        match self {
            AlertCondition::Above(t) => value > t,
            AlertCondition::Below(t) => value < t,
        }
    }
}

/// A continuous inner-product query `(sid, I, W, lifespan)` (§III-B.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InnerProductQuery {
    /// Unique query identifier.
    pub id: QueryId,
    /// Node that posted the query.
    pub client: ChordId,
    /// Target stream.
    pub stream: StreamId,
    /// Index vector: window positions of interest.
    pub indices: Vec<usize>,
    /// Weight vector, parallel to `indices`.
    pub weights: Vec<f64>,
    /// Optional alert condition: when set, the source additionally flags
    /// pushes whose value triggers it.
    pub alert: Option<AlertCondition>,
    /// Absolute expiry time.
    pub expires: SimTime,
}

impl InnerProductQuery {
    /// Builds a plain inner-product query.
    pub fn new(
        id: QueryId,
        client: ChordId,
        stream: StreamId,
        indices: Vec<usize>,
        weights: Vec<f64>,
        expires: SimTime,
    ) -> Self {
        assert_eq!(indices.len(), weights.len(), "index/weight vectors must align");
        InnerProductQuery { id, client, stream, indices, weights, alert: None, expires }
    }

    /// A *point query* — the value at one window position — expressed as an
    /// inner product with a unit weight ("simple point and range queries can
    /// be expressed as inner product queries", §III-B.1).
    pub fn point(
        id: QueryId,
        client: ChordId,
        stream: StreamId,
        index: usize,
        expires: SimTime,
    ) -> Self {
        Self::new(id, client, stream, vec![index], vec![1.0], expires)
    }

    /// A *range-sum query* over window positions `[start, end)` expressed as
    /// an inner product with all-ones weights.
    pub fn range_sum(
        id: QueryId,
        client: ChordId,
        stream: StreamId,
        range: std::ops::Range<usize>,
        expires: SimTime,
    ) -> Self {
        assert!(!range.is_empty(), "range query needs a non-empty range");
        let indices: Vec<usize> = range.collect();
        let weights = vec![1.0; indices.len()];
        Self::new(id, client, stream, indices, weights, expires)
    }

    /// A *range-average query* over `[start, end)` — all weights `1/len`.
    pub fn range_avg(
        id: QueryId,
        client: ChordId,
        stream: StreamId,
        range: std::ops::Range<usize>,
        expires: SimTime,
    ) -> Self {
        assert!(!range.is_empty(), "range query needs a non-empty range");
        let indices: Vec<usize> = range.collect();
        let weights = vec![1.0 / indices.len() as f64; indices.len()];
        Self::new(id, client, stream, indices, weights, expires)
    }

    /// Attaches an alert condition.
    pub fn with_alert(mut self, alert: AlertCondition) -> Self {
        self.alert = Some(alert);
        self
    }

    /// True if the query has expired at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        now >= self.expires
    }

    /// Exact weighted inner product over a raw window.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn evaluate_exact(&self, window: &[f64]) -> f64 {
        self.indices.iter().zip(self.weights.iter()).map(|(&i, &w)| window[i] * w).sum()
    }

    /// Approximate weighted inner product from a DFT coefficient prefix of
    /// the raw window (Eq. 7): reconstruct `x̂` from the retained
    /// coefficients, then compute `sum_i W_i * x̂_{I_i}`.
    pub fn evaluate_approx(&self, prefix: &[Complex64], window_len: usize) -> f64 {
        let approx = reconstruct_from_prefix(prefix, window_len);
        self.indices.iter().zip(self.weights.iter()).map(|(&i, &w)| approx[i] * w).sum()
    }
}

/// A match notification pushed to a client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchNotification {
    /// The query this match answers.
    pub query: QueryId,
    /// The matching stream.
    pub stream: StreamId,
    /// When the aggregator emitted the notification.
    pub at: SimTime,
    /// Fraction of the query's key range confirmed reached when the
    /// query was disseminated: `1.0` on a lossless network, lower when
    /// the reliability layer exhausted its retry budget on part of the
    /// range and degraded to a partial answer (DESIGN.md §12).
    pub coverage: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_dsp::dft::dft;

    fn wave(n: usize, f: f64, amp: f64) -> Vec<f64> {
        (0..n).map(|i| amp * (i as f64 * f).sin() + 10.0).collect()
    }

    #[test]
    fn candidate_accepts_identical_shape() {
        let target = wave(32, 0.3, 2.0);
        let q = SimilarityQuery::from_target(
            1,
            0,
            target.clone(),
            0.1,
            SimilarityKind::Correlation,
            3,
            0,
            SimTime::from_secs(10),
        );
        // Same shape scaled: identical z-norm features.
        let scaled: Vec<f64> = target.iter().map(|v| v * 3.0 + 5.0).collect();
        let fv = extract_features(&scaled, Normalization::ZNorm, 3);
        assert!(q.candidate(&fv));
    }

    #[test]
    fn candidate_rejects_distant_shape() {
        let q = SimilarityQuery::from_target(
            1,
            0,
            wave(32, 0.3, 2.0),
            0.05,
            SimilarityKind::Correlation,
            3,
            0,
            SimTime::from_secs(10),
        );
        let other: Vec<f64> = (0..32).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let fv = extract_features(&other, Normalization::ZNorm, 3);
        assert!(!q.candidate(&fv));
    }

    #[test]
    fn candidate_never_false_dismisses() {
        // If the exact normalized distance is within radius, the candidate
        // test must accept (lower-bounding property, Eq. 9).
        let base = wave(32, 0.25, 1.5);
        for perturb in [0.0, 0.01, 0.05, 0.2] {
            let other: Vec<f64> = base
                .iter()
                .enumerate()
                .map(|(i, v)| v + perturb * (i as f64 * 1.7).cos())
                .collect();
            let exact = dsi_dsp::normalized_distance(&base, &other, Normalization::ZNorm);
            let q = SimilarityQuery::from_target(
                1,
                0,
                base.clone(),
                exact + 1e-9,
                SimilarityKind::Correlation,
                2,
                0,
                SimTime::from_secs(10),
            );
            let fv = extract_features(&other, Normalization::ZNorm, 2);
            assert!(q.candidate(&fv), "false dismissal at perturbation {perturb}");
        }
    }

    #[test]
    fn expiry() {
        let q = SimilarityQuery::from_target(
            1,
            0,
            wave(16, 0.3, 1.0),
            0.1,
            SimilarityKind::Subsequence,
            2,
            0,
            SimTime::from_ms(500),
        );
        assert!(!q.expired(SimTime::from_ms(499)));
        assert!(q.expired(SimTime::from_ms(500)));
    }

    #[test]
    fn inner_product_exact() {
        let q = InnerProductQuery::new(1, 0, 0, vec![0, 2], vec![0.5, 0.5], SimTime::from_secs(1));
        assert_eq!(q.evaluate_exact(&[2.0, 9.0, 4.0]), 3.0);
    }

    #[test]
    fn inner_product_approx_converges_with_more_coefficients() {
        let window = wave(64, 0.12, 3.0);
        let spectrum = dft(&window);
        let q = InnerProductQuery::new(
            1,
            0,
            0,
            (0..20).collect(),
            vec![0.05; 20],
            SimTime::from_secs(1),
        );
        let exact = q.evaluate_exact(&window);
        let err_small = (q.evaluate_approx(&spectrum[..2], 64) - exact).abs();
        let err_large = (q.evaluate_approx(&spectrum[..8], 64) - exact).abs();
        assert!(err_large <= err_small + 1e-9, "more coefficients must not hurt");
        assert!(err_large / exact.abs() < 0.15, "8-coefficient error too large");
    }

    #[test]
    fn inner_product_weighted_average_semantics() {
        // A weighted average of a constant window is the constant, exactly,
        // even from a 1-coefficient (DC-only) prefix.
        let window = vec![7.0; 16];
        let spectrum = dft(&window);
        let q = InnerProductQuery::new(
            2,
            0,
            0,
            (4..12).collect(),
            vec![1.0 / 8.0; 8],
            SimTime::from_secs(1),
        );
        assert!((q.evaluate_exact(&window) - 7.0).abs() < 1e-12);
        assert!((q.evaluate_approx(&spectrum[..1], 16) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_kind_normalizations() {
        assert_eq!(SimilarityKind::Correlation.normalization(), Normalization::ZNorm);
        assert_eq!(SimilarityKind::Subsequence.normalization(), Normalization::UnitNorm);
    }
}
