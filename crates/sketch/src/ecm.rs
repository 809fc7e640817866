//! ECM-sketches: a Count-Min grid whose counters are exponential
//! histograms, answering sliding-window frequency questions.
//!
//! Layout (Papapetrou, Garofalakis & Deligiannakis): `d` hash rows of `w`
//! [`ExpHistogram`] counters plus one dedicated total-count histogram.
//! An update hashes the item into one counter per row and records the
//! timestamp in each; a query reads the estimated window count of the
//! hashed counters and takes the row-wise minimum.
//!
//! The ε split: the Count-Min collision excess is at most `(e/w)·N ≤
//! (ε/2)·N` with probability `1 - e^{-d} ≥ 1 - δ`, and each histogram
//! misreads its own counter by at most `1 + c/(2k) ≤ 1 + (ε/2)·N`, so
//! with `w = ⌈2e/ε⌉`, `d = ⌈ln(1/δ)⌉`, `k = ⌈1/ε⌉` a point estimate is
//! within `ε·N + C` of exact with probability `≥ 1 - δ`, where `N` is
//! the total window count and `C` the number of merged components
//! ([`EcmSketch::components`]; each component contributes one straddling
//! bucket of absolute slack).

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::eh::ExpHistogram;
use crate::hash::bucket;

/// Construction parameters shared by every mergeable replica of a sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchParams {
    /// Target relative error ε of window estimates.
    pub eps: f64,
    /// Failure probability δ of the Count-Min rows.
    pub delta: f64,
    /// Sliding-window width in milliseconds.
    pub window_ms: u64,
    /// Hash seed; replicas must share it to be counter-aligned.
    pub seed: u64,
}

/// An ε-δ accuracy contract carried alongside estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBound {
    /// Relative error at full coverage.
    pub eps: f64,
    /// Failure probability.
    pub delta: f64,
}

impl ErrorBound {
    /// The bound actually advertised when only a `coverage` fraction of
    /// the data population contributed: the base ε plus the uncovered
    /// fraction. Monotone — the bound only widens as coverage drops, and
    /// equals the base ε at full coverage.
    pub fn effective_eps(&self, coverage: f64) -> f64 {
        self.eps + (1.0 - coverage.clamp(0.0, 1.0))
    }
}

/// Explicit grid dimensions, used by tests to under-size a sketch on
/// purpose (the ninth-oracle negative control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchDims {
    /// Counters per row.
    pub width: usize,
    /// Hash rows.
    pub depth: usize,
    /// Per-histogram inverse error knob.
    pub k: u64,
}

impl SketchDims {
    /// The dimensions [`EcmSketch::from_bound`] derives from `(ε, δ)`.
    pub fn for_bound(eps: f64, delta: f64) -> SketchDims {
        let eps = eps.clamp(1e-3, 1.0);
        let delta = delta.clamp(1e-6, 0.5);
        let width = (2.0 * std::f64::consts::E / eps).ceil() as usize;
        let depth = ((1.0 / delta).ln().ceil() as usize).max(1);
        let k = (1.0 / eps).ceil() as u64;
        SketchDims { width, depth, k }
    }
}

/// A mergeable sliding-window Count-Min sketch over exponential
/// histograms.
#[derive(Debug, Clone)]
pub struct EcmSketch {
    params: SketchParams,
    dims: SketchDims,
    /// Row-major `d × w` counter grid.
    grid: Vec<ExpHistogram>,
    /// Dedicated total-count histogram (scale of the error bound).
    total: ExpHistogram,
    /// Number of per-node sketches folded into this one (≥ 1).
    components: u32,
}

impl EcmSketch {
    /// Builds a sketch sized for the `(ε, δ)` contract.
    pub fn from_bound(eps: f64, delta: f64, window_ms: u64, seed: u64) -> EcmSketch {
        let dims = SketchDims::for_bound(eps, delta);
        EcmSketch::with_dims(SketchParams { eps, delta, window_ms, seed }, dims)
    }

    /// Builds a sketch with explicit dimensions while still *advertising*
    /// the `params` contract. Undersized dimensions make the advertised
    /// bound a lie — exactly what the accuracy oracle's negative control
    /// injects.
    pub fn with_dims(params: SketchParams, dims: SketchDims) -> EcmSketch {
        let dims = SketchDims { width: dims.width.max(1), depth: dims.depth.max(1), k: dims.k };
        let cell = ExpHistogram::new(dims.k, params.window_ms);
        let grid = vec![cell.clone(); dims.width * dims.depth];
        EcmSketch { params, dims, grid, total: cell, components: 1 }
    }

    /// The construction parameters (shared by mergeable replicas).
    pub fn params(&self) -> SketchParams {
        self.params
    }

    /// The grid dimensions.
    pub fn dims(&self) -> SketchDims {
        self.dims
    }

    /// The advertised accuracy contract.
    pub fn bound(&self) -> ErrorBound {
        ErrorBound { eps: self.params.eps, delta: self.params.delta }
    }

    /// How many per-node sketches were folded into this one.
    pub fn components(&self) -> u32 {
        self.components
    }

    /// True if `other` was built from the same parameters and dimensions,
    /// i.e. its counters align with ours cell-for-cell.
    pub fn compatible(&self, other: &EcmSketch) -> bool {
        self.params == other.params && self.dims == other.dims
    }

    /// Records one occurrence of `item` at `at_ms`. Allocation-free in
    /// steady state: every histogram's bucket storage is preallocated.
    #[inline]
    pub fn update(&mut self, item: u64, at_ms: u64) {
        let w = self.dims.width;
        for row in 0..self.dims.depth {
            let col = bucket(self.params.seed, row, item, w);
            self.grid[row * w + col].insert(at_ms);
        }
        self.total.insert(at_ms);
    }

    /// Estimated total number of events in the window at `now_ms`.
    pub fn total_estimate(&self, now_ms: u64) -> f64 {
        self.total.estimate(now_ms)
    }

    /// Estimated window frequency of `item` at `now_ms`: the row-wise
    /// minimum of the hashed counters.
    pub fn point_estimate(&self, item: u64, now_ms: u64) -> f64 {
        let w = self.dims.width;
        let mut best = f64::INFINITY;
        for row in 0..self.dims.depth {
            let col = bucket(self.params.seed, row, item, w);
            let est = self.grid[row * w + col].estimate(now_ms);
            if est < best {
                best = est;
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// Estimated self-join size (second frequency moment, `Σ f_i²`) of
    /// the window at `now_ms`: the row-wise minimum of the sum of squared
    /// counters. The error scale here is `N²` rather than `N` — see
    /// [`Self::self_join_error_bound`].
    pub fn self_join_size(&self, now_ms: u64) -> f64 {
        let w = self.dims.width;
        let mut best = f64::INFINITY;
        for row in 0..self.dims.depth {
            let sum: f64 =
                self.grid[row * w..(row + 1) * w].iter().map(|c| c.estimate(now_ms).powi(2)).sum();
            if sum < best {
                best = sum;
            }
        }
        if best.is_finite() {
            best
        } else {
            0.0
        }
    }

    /// Worst-case additive error of [`Self::self_join_size`] given the
    /// window total `n`: collision cross-terms contribute up to `ε·n²`
    /// and the histogram noise up to `(2 + ε·n)·(n + C·w)` more — folded
    /// conservatively into `2ε·n² + 3n + 3·C·w`.
    pub fn self_join_error_bound(&self, n: f64, components: f64) -> f64 {
        2.0 * self.params.eps * n * n + 3.0 * n + 3.0 * components * self.dims.width as f64
    }

    /// Items from `universe` whose estimated window frequency is at least
    /// `phi` times the estimated total. Allocates the result vector —
    /// query-time only.
    pub fn heavy_hitters(&self, universe: &[u64], phi: f64, now_ms: u64) -> Vec<(u64, f64)> {
        let threshold = phi.clamp(0.0, 1.0) * self.total_estimate(now_ms);
        universe
            .iter()
            .filter_map(|&item| {
                let est = self.point_estimate(item, now_ms);
                if est >= threshold && est > 0.0 {
                    Some((item, est))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Folds `other` into `self`, counter by counter. Estimates over the
    /// merged sketch cover the union of both windows; the relative ε is
    /// unchanged and the absolute slack grows to the new component count.
    ///
    /// Returns `Err` (leaving `self` untouched) if the sketches were not
    /// built from the same parameters and dimensions.
    pub fn merge_from(&mut self, other: &EcmSketch, now_ms: u64) -> Result<(), &'static str> {
        if !self.compatible(other) {
            return Err("incompatible sketch parameters");
        }
        for (mine, theirs) in self.grid.iter_mut().zip(other.grid.iter()) {
            mine.merge_from(theirs, now_ms);
        }
        self.total.merge_from(&other.total, now_ms);
        self.components += other.components;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_count(events: &[(u64, u64)], item: u64, window: u64, now: u64) -> f64 {
        events
            .iter()
            .filter(|&&(i, t)| i == item && (t as i64) > now as i64 - window as i64 && t <= now)
            .count() as f64
    }

    fn exact_total(events: &[(u64, u64)], window: u64, now: u64) -> f64 {
        events.iter().filter(|&&(_, t)| (t as i64) > now as i64 - window as i64 && t <= now).count()
            as f64
    }

    /// Deterministic pseudo-stream: item ids with a skewed repeat pattern.
    fn stream(n: u64, salt: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| {
                let h = crate::hash::mix64(i ^ salt);
                let item = (h % 16).min(h % 7); // skew toward small ids
                (item, i * 5)
            })
            .collect()
    }

    #[test]
    fn dims_scale_with_the_contract() {
        let loose = SketchDims::for_bound(0.5, 0.3);
        let tight = SketchDims::for_bound(0.05, 0.01);
        assert!(tight.width > loose.width);
        assert!(tight.depth >= loose.depth);
        assert!(tight.k > loose.k);
    }

    #[test]
    fn point_estimates_respect_the_bound() {
        let window = 2_000u64;
        let events = stream(3_000, 99);
        let eps = 0.1;
        let mut sk = EcmSketch::from_bound(eps, 0.05, window, 7);
        for &(item, t) in &events {
            sk.update(item, t);
        }
        let now = 3_000 * 5;
        let n = exact_total(&events, window, now);
        for item in 0..16u64 {
            let est = sk.point_estimate(item, now);
            let truth = exact_count(&events, item, window, now);
            assert!(
                est + 1e-9 >= truth - (eps * n + 1.0),
                "item {item}: est {est} far below truth {truth}"
            );
            assert!(
                est <= truth + eps * n + 1.0 + 1e-9,
                "item {item}: est {est} far above truth {truth} (n={n})"
            );
        }
    }

    #[test]
    fn total_tracks_the_window() {
        let window = 1_000u64;
        let events = stream(2_000, 3);
        let mut sk = EcmSketch::from_bound(0.1, 0.05, window, 1);
        for &(item, t) in &events {
            sk.update(item, t);
        }
        let now = 2_000 * 5;
        let n = exact_total(&events, window, now);
        assert!((sk.total_estimate(now) - n).abs() <= 0.1 * n + 1.0);
    }

    #[test]
    fn merge_is_cellwise_and_counts_components() {
        let mut a = EcmSketch::from_bound(0.2, 0.1, 5_000, 11);
        let mut b = EcmSketch::from_bound(0.2, 0.1, 5_000, 11);
        for &(item, t) in &stream(500, 1) {
            a.update(item, t);
        }
        for &(item, t) in &stream(500, 2) {
            b.update(item, t);
        }
        assert!(a.merge_from(&b, 2_500).is_ok());
        assert_eq!(a.components(), 2);
        let incompatible = EcmSketch::from_bound(0.2, 0.1, 5_000, 12);
        assert!(a.merge_from(&incompatible, 2_500).is_err(), "seed mismatch must refuse");
    }

    #[test]
    fn self_join_size_matches_exact_on_small_streams() {
        let window = 10_000u64;
        let events = stream(400, 5);
        let mut sk = EcmSketch::from_bound(0.05, 0.01, window, 3);
        for &(item, t) in &events {
            sk.update(item, t);
        }
        let now = 400 * 5;
        let n = exact_total(&events, window, now);
        let exact: f64 = (0..16u64).map(|i| exact_count(&events, i, window, now).powi(2)).sum();
        let est = sk.self_join_size(now);
        assert!(
            (est - exact).abs() <= sk.self_join_error_bound(n, 1.0),
            "est {est} vs exact {exact} (n={n})"
        );
    }

    #[test]
    fn heavy_hitters_surface_the_skewed_head() {
        let window = u64::MAX / 2;
        let events = stream(2_000, 17);
        let mut sk = EcmSketch::from_bound(0.05, 0.01, window, 9);
        for &(item, t) in &events {
            sk.update(item, t);
        }
        let now = 2_000 * 5;
        let universe: Vec<u64> = (0..16).collect();
        let hh = sk.heavy_hitters(&universe, 0.1, now);
        assert!(!hh.is_empty(), "skewed stream must have a heavy head");
        for &(item, est) in &hh {
            let truth = exact_count(&events, item, window, now);
            assert!(truth > 0.0, "item {item} (est {est}) never occurred");
        }
    }

    #[test]
    fn effective_eps_widens_with_lost_coverage() {
        let bound = ErrorBound { eps: 0.1, delta: 0.05 };
        assert!((bound.effective_eps(1.0) - 0.1).abs() < 1e-12);
        let mut last = 0.0;
        for cov in [1.0, 0.9, 0.5, 0.1, 0.0] {
            let eff = bound.effective_eps(cov);
            assert!(eff >= last, "bound must widen monotonically as coverage drops");
            last = eff;
        }
        assert!((bound.effective_eps(0.0) - 1.1).abs() < 1e-12);
    }
}
