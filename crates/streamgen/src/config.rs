//! Workload and runtime configuration — the paper's Table I.

use serde::{Deserialize, Serialize};

/// The main workload/runtime parameters (Table I), with the summarization
/// parameters the paper leaves implicit made explicit and configurable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// PMIN: minimum stream period in ms (a stream is a periodic process
    /// whose period is chosen uniformly in `[pmin_ms, pmax_ms]`).
    pub pmin_ms: u64,
    /// PMAX: maximum stream period in ms.
    pub pmax_ms: u64,
    /// BSPAN: life span of an MBR at the storing nodes, in ms.
    pub bspan_ms: u64,
    /// QRATE: average query arrival rate (Poisson), queries per second.
    pub qrate_per_sec: f64,
    /// QMIN: minimum query life span in ms.
    pub qmin_ms: u64,
    /// QMAX: maximum query life span in ms.
    pub qmax_ms: u64,
    /// NPER: period of response/neighbor information exchange in ms.
    pub nper_ms: u64,
    /// Similarity query radius (0.1 for most experiments; 0.2 in Fig. 7(b)).
    pub query_radius: f64,
    /// Sliding-window length `w` for summarization.
    pub window_len: usize,
    /// Number of retained DFT coefficients `k`.
    pub num_coeffs: usize,
    /// MBR batching factor ζ: how many consecutive feature vectors form one
    /// MBR (§IV-G).
    pub mbr_batch: usize,
    /// Bound on an MBR's first-dimension (routing) width: a batch is shipped
    /// early rather than exceed it (`None` disables the bound). Keeps MBR
    /// key ranges small, as the paper's MBR-creation mechanism did.
    pub mbr_max_width: Option<f64>,
}

impl Default for WorkloadConfig {
    /// The exact Table I values, radius 0.1, and `w = 64, k = 2, ζ = 10`
    /// summarization defaults.
    fn default() -> Self {
        WorkloadConfig {
            pmin_ms: 150,
            pmax_ms: 250,
            bspan_ms: 5000,
            qrate_per_sec: 2.0,
            qmin_ms: 20_000,
            qmax_ms: 100_000,
            nper_ms: 2000,
            query_radius: 0.1,
            window_len: 64,
            num_coeffs: 2,
            mbr_batch: 10,
            mbr_max_width: Some(0.02),
        }
    }
}

impl WorkloadConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics with a description of the first violated constraint.
    pub fn validate(&self) {
        assert!(self.pmin_ms > 0 && self.pmin_ms <= self.pmax_ms, "PMIN..PMAX must be a range");
        assert!(self.bspan_ms > 0, "BSPAN must be positive");
        assert!(self.qrate_per_sec > 0.0, "QRATE must be positive");
        assert!(self.qmin_ms <= self.qmax_ms, "QMIN..QMAX must be a range");
        assert!(self.nper_ms > 0, "NPER must be positive");
        assert!(self.query_radius > 0.0, "query radius must be positive");
        assert!(self.window_len > 0, "window length must be positive");
        assert!(self.num_coeffs > 0, "must retain at least one coefficient");
        assert!(self.num_coeffs < self.window_len, "coefficients exceed window");
        assert!(self.mbr_batch > 0, "MBR batching factor must be positive");
        if let Some(w) = self.mbr_max_width {
            assert!(w > 0.0, "MBR width bound must be positive");
        }
    }

    /// Returns a copy with a different query radius (the Fig. 7(b) knob).
    pub fn with_radius(mut self, radius: f64) -> Self {
        self.query_radius = radius;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let c = WorkloadConfig::default();
        assert_eq!(c.pmin_ms, 150);
        assert_eq!(c.pmax_ms, 250);
        assert_eq!(c.bspan_ms, 5000);
        assert_eq!(c.qrate_per_sec, 2.0);
        assert_eq!(c.qmin_ms, 20_000);
        assert_eq!(c.qmax_ms, 100_000);
        assert_eq!(c.nper_ms, 2000);
        c.validate();
    }

    #[test]
    fn with_radius_changes_only_radius() {
        let base = WorkloadConfig::default();
        let wide = base.clone().with_radius(0.2);
        assert_eq!(wide.query_radius, 0.2);
        assert_eq!(wide.pmin_ms, base.pmin_ms);
    }

    #[test]
    #[should_panic(expected = "PMIN..PMAX")]
    fn inverted_period_range_panics() {
        let c = WorkloadConfig { pmin_ms: 300, ..Default::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "coefficients exceed window")]
    fn oversized_coeffs_panic() {
        let c = WorkloadConfig { num_coeffs: 64, ..Default::default() };
        c.validate();
    }

    #[test]
    fn serde_roundtrip() {
        let c = WorkloadConfig::default().with_radius(0.2);
        let json = serde_json::to_string(&c).unwrap();
        let back: WorkloadConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
