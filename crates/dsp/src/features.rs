//! Stream summaries: truncated DFT feature vectors over normalized sliding
//! windows (§III-C) and the lower-bounding distance that makes the
//! distributed index free of false dismissals (Eq. 9).

use crate::complex::Complex64;
use crate::dft::dft_bins;
use crate::normalize::{normalize, Normalization, SlidingStats};
use crate::sliding::SlidingDft;
use crate::window::SlidingWindow;
use serde::{Deserialize, Serialize};

/// A stream summary: the first `k` non-trivial unitary DFT coefficients of
/// the normalized current window.
///
/// * For [`Normalization::ZNorm`] the DC coefficient is identically zero, so
///   the vector holds bins `1 ..= k`.
/// * For [`Normalization::UnitNorm`] it holds bins `0 .. k`.
///
/// Because the normalized window lies on the unit hyper-sphere, every
/// coefficient satisfies `|X_f| <= 1`, hence
/// [`FeatureVector::first_real`] in `[-1, +1]` — the domain of the Eq. 6 key
/// mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    coeffs: Vec<Complex64>,
    mode: Normalization,
}

impl FeatureVector {
    /// Wraps already-computed normalized coefficients.
    pub fn new(coeffs: Vec<Complex64>, mode: Normalization) -> Self {
        FeatureVector { coeffs, mode }
    }

    /// The retained coefficients.
    #[inline]
    pub fn coeffs(&self) -> &[Complex64] {
        &self.coeffs
    }

    /// Number of retained coefficients `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// The normalization the source window used.
    #[inline]
    pub fn mode(&self) -> Normalization {
        self.mode
    }

    /// Real part of the first retained coefficient — the scalar the paper
    /// hashes onto the Chord ring (§IV-B). Guaranteed in `[-1, +1]` up to
    /// rounding; clamped defensively.
    #[inline]
    pub fn first_real(&self) -> f64 {
        self.coeffs.first().map_or(0.0, |c| c.re.clamp(-1.0, 1.0))
    }

    /// Flattens into a real vector (re/im interleaved) — the 2k-dimensional
    /// feature space in which MBRs live.
    pub fn to_reals(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.coeffs.len() * 2);
        self.write_reals(&mut out);
        out
    }

    /// Allocation-free variant of [`FeatureVector::to_reals`]: clears `out`
    /// and fills it with the interleaved re/im components, reusing its
    /// capacity. Hot loops that convert many features keep one scratch
    /// buffer instead of allocating per feature.
    pub fn write_reals(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.coeffs.len() * 2);
        for c in &self.coeffs {
            out.push(c.re);
            out.push(c.im);
        }
    }

    /// Overwrites this vector's contents in place, reusing the coefficient
    /// buffer's capacity. The zero-allocation ingest path keeps one
    /// `FeatureVector` per stream (`last_feature`) and refreshes it with
    /// this instead of allocating a fresh vector every tick.
    pub fn overwrite(&mut self, coeffs: &[Complex64], mode: Normalization) {
        self.coeffs.clear();
        self.coeffs.extend_from_slice(coeffs);
        self.mode = mode;
    }

    /// Lower-bounding feature-space distance (Eq. 9).
    ///
    /// For a real signal every retained bin `f >= 1` has a conjugate mirror
    /// `X_{w-f}`, so its squared difference counts twice toward the full
    /// signal distance; the DC bin (present only under
    /// [`Normalization::UnitNorm`]) counts once. The result never exceeds
    /// the Euclidean distance between the underlying normalized windows.
    ///
    /// # Panics
    /// Panics if the two vectors disagree in length or normalization.
    pub fn distance(&self, other: &FeatureVector) -> f64 {
        assert_eq!(self.coeffs.len(), other.coeffs.len(), "feature dimensionality mismatch");
        assert_eq!(self.mode, other.mode, "feature normalization mismatch");
        let mut acc = 0.0;
        for (f, (a, b)) in self.coeffs.iter().zip(other.coeffs.iter()).enumerate() {
            let d = (*a - *b).norm_sqr();
            let has_mirror = match self.mode {
                Normalization::ZNorm => true, // bins 1..=k, all mirrored
                Normalization::UnitNorm => f > 0,
            };
            acc += if has_mirror { 2.0 * d } else { d };
        }
        acc.sqrt()
    }
}

/// Reusable buffers for the allocation-free summarization path.
///
/// One scratch per ingest worker is enough: [`FeatureExtractor::update_scratch`]
/// writes the normalized coefficient prefix into `coeffs` and its interleaved
/// re/im flattening into `reals`, reusing both buffers' capacity. After the
/// first warm tick neither grows again (the coefficient count `k` is fixed
/// per stream), so steady-state ingest performs no heap allocation per item.
#[derive(Debug, Clone, Default)]
pub struct SummaryScratch {
    /// Normalized coefficient prefix — the [`FeatureVector`] payload.
    pub coeffs: Vec<Complex64>,
    /// Interleaved re/im flattening of `coeffs` — the 2k-dimensional point.
    pub reals: Vec<f64>,
}

/// Batch feature extraction: normalizes a full window and takes the DFT
/// prefix. Reference implementation for [`FeatureExtractor`]. Only the
/// `k` retained bins are transformed; each is bit-identical to the same
/// bin of [`crate::dft::dft`].
pub fn extract_features(window: &[f64], mode: Normalization, k: usize) -> FeatureVector {
    let first = match mode {
        Normalization::ZNorm => 1,
        Normalization::UnitNorm => 0,
    };
    FeatureVector::new(dft_bins(&normalize(window, mode), first..first + k), mode)
}

/// Incremental per-stream feature extraction pipeline.
///
/// Maintains the raw sliding DFT (Eq. 5) plus sliding sum/sum-of-squares;
/// the normalized coefficients are derived in O(k) per arriving value because
/// normalization is an affine map whose effect on the spectrum is a scalar
/// division (plus zeroing the DC bin for z-normalization).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    window: SlidingWindow,
    raw: SlidingDft,
    stats: SlidingStats,
    mode: Normalization,
    k: usize,
}

impl FeatureExtractor {
    /// Creates an extractor over windows of length `window_len`, retaining
    /// `k` non-trivial coefficients.
    ///
    /// # Panics
    /// Panics if `k == 0` or the retained bins would exceed the window.
    pub fn new(window_len: usize, k: usize, mode: Normalization) -> Self {
        assert!(k > 0, "must retain at least one coefficient");
        // z-normalized features use bins 1..=k, so we maintain k + 1 raw bins.
        let raw_bins = match mode {
            Normalization::ZNorm => k + 1,
            Normalization::UnitNorm => k,
        };
        assert!(raw_bins <= window_len, "retained bins exceed window length");
        FeatureExtractor {
            window: SlidingWindow::new(window_len),
            raw: SlidingDft::new(window_len, raw_bins),
            stats: SlidingStats::new(),
            mode,
            k,
        }
    }

    /// Window length `w`.
    #[inline]
    pub fn window_len(&self) -> usize {
        self.window.capacity()
    }

    /// Retained coefficient count `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The normalization mode.
    #[inline]
    pub fn mode(&self) -> Normalization {
        self.mode
    }

    /// Consumes one stream value and, once the window is full, writes the
    /// current summary into `scratch` (returning `true`), reusing its
    /// buffers instead of allocating a [`FeatureVector`] per tick.
    pub fn update_scratch(&mut self, value: f64, scratch: &mut SummaryScratch) -> bool {
        let evicted = self.window.push(value);
        self.raw.update(value, evicted);
        self.stats.update(value, evicted);
        if !self.raw.is_warm() {
            return false;
        }
        self.current_into(scratch);
        true
    }

    /// Writes the current (full) window's summary into `scratch`, reusing
    /// its capacity.
    ///
    /// # Panics
    /// Panics if called before a full window has been consumed.
    pub fn current_into(&self, scratch: &mut SummaryScratch) {
        assert!(self.raw.is_warm(), "feature extractor not warm yet");
        let raw = self.raw.coeffs();
        scratch.coeffs.clear();
        match self.mode {
            Normalization::ZNorm => {
                let denom = self.stats.std_dev() * (self.window_len() as f64).sqrt();
                if denom <= f64::EPSILON {
                    scratch.coeffs.resize(self.k, Complex64::ZERO);
                } else {
                    scratch.coeffs.extend(raw[1..=self.k].iter().map(|c| *c / denom));
                }
            }
            Normalization::UnitNorm => {
                let denom = self.stats.l2_norm();
                if denom <= f64::EPSILON {
                    scratch.coeffs.resize(self.k, Complex64::ZERO);
                } else {
                    scratch.coeffs.extend(raw[..self.k].iter().map(|c| *c / denom));
                }
            }
        }
        scratch.reals.clear();
        scratch.reals.reserve(scratch.coeffs.len() * 2);
        for c in &scratch.coeffs {
            scratch.reals.push(c.re);
            scratch.reals.push(c.im);
        }
    }

    /// The summary of the current (full) window as an owned vector.
    ///
    /// # Panics
    /// Panics if called before a full window has been consumed.
    pub fn current(&self) -> FeatureVector {
        let mut scratch = SummaryScratch::default();
        self.current_into(&mut scratch);
        FeatureVector::new(scratch.coeffs, self.mode)
    }

    /// Snapshot of the raw window (oldest first). Used by exact-verification
    /// paths that must filter false positives out of the candidate set.
    pub fn window_snapshot(&self) -> Vec<f64> {
        self.window.to_vec()
    }

    /// Whether the current window lies within `limit` of a query target:
    /// the same verdict as `normalized_distance(target, &window, mode) <=
    /// limit` when `target_normalized == normalize(target, mode)`, bit for
    /// bit, without copying or allocating.
    ///
    /// The ring buffer is read in place, the normaliser is recomputed in
    /// [`normalize`]'s exact expression order, and the distance sum stops
    /// early once `partial.sqrt() > limit`: terms are non-negative, so
    /// partial sums never decrease, and `sqrt` is correctly rounded, so
    /// the full distance would exceed `limit` too.
    pub fn within_distance(&self, target_normalized: &[f64], limit: f64) -> bool {
        let (a, b) = self.window.as_slices();
        let values = || a.iter().chain(b).copied();
        let w = self.window.len() as f64;
        // `normalize(window)[i]` as a function of the raw value; `None`
        // for the degenerate windows that normalise to all zeros.
        let (shift, denom) = match self.mode {
            Normalization::ZNorm => {
                let mean = values().sum::<f64>() / w;
                let var = values().map(|x| (x - mean) * (x - mean)).sum::<f64>() / w;
                let sigma = var.sqrt();
                (mean, if sigma <= f64::EPSILON { None } else { Some(sigma * w.sqrt()) })
            }
            Normalization::UnitNorm => {
                let norm = values().map(|x| x * x).sum::<f64>().sqrt();
                (0.0, if norm <= f64::EPSILON { None } else { Some(norm) })
            }
        };
        let normalized = |x: f64| match (self.mode, denom) {
            (_, None) => 0.0,
            (Normalization::ZNorm, Some(d)) => (x - shift) / d,
            (Normalization::UnitNorm, Some(d)) => x / d,
        };
        let mut sum = 0.0;
        for (t, x) in target_normalized.iter().zip(values()) {
            let d = t - normalized(x);
            sum += d * d;
            if sum.sqrt() > limit {
                return false;
            }
        }
        sum.sqrt() <= limit
    }

    /// The *unnormalized* DFT coefficient prefix of the current window.
    /// Inner-product queries reconstruct an approximate raw signal from this
    /// prefix (Eq. 7); normalization would destroy the scale they need.
    pub fn raw_prefix(&self) -> &[Complex64] {
        self.raw.coeffs()
    }

    /// True once a full window has been consumed.
    #[inline]
    pub fn is_warm(&self) -> bool {
        self.raw.is_warm()
    }
}

/// Exact Euclidean distance between the normalized forms of two windows —
/// the ground truth that feature distances lower-bound.
pub fn normalized_distance(a: &[f64], b: &[f64], mode: Normalization) -> f64 {
    let na = normalize(a, mode);
    let nb = normalize(b, mode);
    na.iter().zip(nb.iter()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, slope: f64, phase: f64) -> Vec<f64> {
        (0..n).map(|i| slope * i as f64 + (i as f64 * 0.9 + phase).sin()).collect()
    }

    #[test]
    fn k_bin_features_are_bit_identical_to_the_full_spectrum_prefix() {
        // 600 exceeds the kernel cache's longest tabulated length, so it
        // takes the on-the-fly kernel path.
        const { assert!(600 > crate::kernel::MAX_CACHED_LEN) };
        for w in [7usize, 16, 64, 128, 600] {
            let x = ramp(w, 0.03, 0.4);
            for (mode, first) in [(Normalization::ZNorm, 1), (Normalization::UnitNorm, 0)] {
                let spectrum = crate::dft::dft(&normalize(&x, mode));
                for k in 1..=w / 2 {
                    let got = extract_features(&x, mode, k);
                    let want = &spectrum[first..first + k];
                    assert_eq!(got.k(), k, "w={w} k={k} {mode:?}");
                    for (f, (g, e)) in got.coeffs().iter().zip(want).enumerate() {
                        let at = format!("w={w} k={k} {mode:?} bin {}", first + f);
                        assert_eq!(g.re.to_bits(), e.re.to_bits(), "{at} (re)");
                        assert_eq!(g.im.to_bits(), e.im.to_bits(), "{at} (im)");
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_matches_batch_znorm() {
        let xs = ramp(120, 0.05, 0.0);
        let (w, k) = (32, 4);
        let mut ex = FeatureExtractor::new(w, k, Normalization::ZNorm);
        let mut scratch = SummaryScratch::default();
        for (i, &x) in xs.iter().enumerate() {
            if ex.update_scratch(x, &mut scratch) {
                let batch = extract_features(&xs[i + 1 - w..=i], Normalization::ZNorm, k);
                for (a, b) in scratch.coeffs.iter().zip(batch.coeffs().iter()) {
                    assert!(a.approx_eq(*b, 1e-8), "step {i}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn incremental_matches_batch_unitnorm() {
        let xs = ramp(90, 0.02, 1.3);
        let (w, k) = (16, 3);
        let mut ex = FeatureExtractor::new(w, k, Normalization::UnitNorm);
        let mut scratch = SummaryScratch::default();
        for (i, &x) in xs.iter().enumerate() {
            if ex.update_scratch(x, &mut scratch) {
                let batch = extract_features(&xs[i + 1 - w..=i], Normalization::UnitNorm, k);
                for (a, b) in scratch.coeffs.iter().zip(batch.coeffs().iter()) {
                    assert!(a.approx_eq(*b, 1e-8), "step {i}");
                }
            }
        }
    }

    #[test]
    fn owned_summary_flattens_to_the_scratch_reals() {
        // `current()` is built from `current_into`, so the coefficients
        // agree by construction; what is written twice is the re/im
        // interleave (`write_reals` vs the scratch fill). Compare via
        // to_bits across both normalizations and a degenerate window.
        for mode in [Normalization::ZNorm, Normalization::UnitNorm] {
            let mut ex = FeatureExtractor::new(16, 3, mode);
            let mut scratch = SummaryScratch::default();
            let xs: Vec<f64> = (0..80)
                .map(|i| if (20..40).contains(&i) { 7.0 } else { (i as f64 * 0.31).sin() * 3.0 })
                .collect();
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(ex.update_scratch(x, &mut scratch), i + 1 >= 16, "warm-up at step {i}");
                if ex.is_warm() {
                    let fv = ex.current();
                    assert_eq!(fv.coeffs(), &scratch.coeffs[..], "step {i}");
                    let reals = fv.to_reals();
                    assert_eq!(reals.len(), scratch.reals.len());
                    for (u, v) in reals.iter().zip(scratch.reals.iter()) {
                        assert_eq!(u.to_bits(), v.to_bits(), "step {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_stop_growing_once_warm() {
        let mut ex = FeatureExtractor::new(8, 2, Normalization::ZNorm);
        let mut scratch = SummaryScratch::default();
        for i in 0..8 {
            ex.update_scratch(i as f64, &mut scratch);
        }
        let (cc, rc) = (scratch.coeffs.capacity(), scratch.reals.capacity());
        for i in 8..200 {
            ex.update_scratch((i as f64 * 0.7).cos(), &mut scratch);
        }
        assert_eq!(scratch.coeffs.capacity(), cc, "coeff buffer regrew");
        assert_eq!(scratch.reals.capacity(), rc, "reals buffer regrew");
    }

    #[test]
    fn overwrite_reuses_capacity() {
        let mut fv = FeatureVector::new(
            vec![Complex64::new(0.1, 0.2), Complex64::new(0.3, 0.4)],
            Normalization::ZNorm,
        );
        let cap = fv.coeffs.capacity();
        fv.overwrite(&[Complex64::new(0.9, -0.1)], Normalization::UnitNorm);
        assert_eq!(fv.coeffs(), &[Complex64::new(0.9, -0.1)]);
        assert_eq!(fv.mode(), Normalization::UnitNorm);
        assert_eq!(fv.coeffs.capacity(), cap);
    }

    #[test]
    fn first_real_is_bounded() {
        let xs = ramp(500, -0.03, 2.0);
        let mut ex = FeatureExtractor::new(64, 2, Normalization::ZNorm);
        let mut scratch = SummaryScratch::default();
        for &x in &xs {
            if ex.update_scratch(x, &mut scratch) {
                let fv = ex.current();
                assert!(fv.first_real() >= -1.0 && fv.first_real() <= 1.0);
            }
        }
    }

    #[test]
    fn feature_distance_lower_bounds_signal_distance() {
        let a = ramp(32, 0.1, 0.0);
        let b = ramp(32, -0.07, 0.5);
        for mode in [Normalization::ZNorm, Normalization::UnitNorm] {
            for k in 1..6 {
                let fa = extract_features(&a, mode, k);
                let fb = extract_features(&b, mode, k);
                let lower = fa.distance(&fb);
                let exact = normalized_distance(&a, &b, mode);
                assert!(
                    lower <= exact + 1e-9,
                    "mode {mode:?} k={k}: lower {lower} > exact {exact}"
                );
            }
        }
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = ramp(16, 0.2, 0.3);
        let fa = extract_features(&a, Normalization::ZNorm, 3);
        assert!(fa.distance(&fa) < 1e-12);
    }

    #[test]
    fn similar_streams_have_close_features() {
        let a = ramp(32, 0.1, 0.0);
        // Same shape scaled and shifted: z-norm features must coincide.
        let b: Vec<f64> = a.iter().map(|v| 5.0 * v + 100.0).collect();
        let fa = extract_features(&a, Normalization::ZNorm, 4);
        let fb = extract_features(&b, Normalization::ZNorm, 4);
        assert!(fa.distance(&fb) < 1e-9);
    }

    #[test]
    fn constant_window_yields_zero_features() {
        let mut ex = FeatureExtractor::new(8, 2, Normalization::ZNorm);
        let mut scratch = SummaryScratch::default();
        for _ in 0..10 {
            ex.update_scratch(42.0, &mut scratch);
        }
        let fv = ex.current();
        assert!(fv.coeffs().iter().all(|c| c.norm() == 0.0));
        assert_eq!(fv.first_real(), 0.0);
    }

    #[test]
    fn to_reals_interleaves() {
        let fv = FeatureVector::new(
            vec![Complex64::new(0.1, 0.2), Complex64::new(-0.3, 0.4)],
            Normalization::ZNorm,
        );
        assert_eq!(fv.to_reals(), vec![0.1, 0.2, -0.3, 0.4]);
    }

    #[test]
    fn warmup_returns_none() {
        let mut ex = FeatureExtractor::new(4, 1, Normalization::UnitNorm);
        let mut scratch = SummaryScratch::default();
        assert!(!ex.update_scratch(1.0, &mut scratch));
        assert!(!ex.update_scratch(2.0, &mut scratch));
        assert!(!ex.update_scratch(3.0, &mut scratch));
        assert!(ex.update_scratch(4.0, &mut scratch));
        assert!(ex.is_warm());
    }

    /// An extractor fed `xs` (so a longer `xs` wraps the ring buffer).
    fn fed(w: usize, mode: Normalization, xs: &[f64]) -> FeatureExtractor {
        let mut ex = FeatureExtractor::new(w, 1, mode);
        let mut scratch = SummaryScratch::default();
        for &x in xs {
            ex.update_scratch(x, &mut scratch);
        }
        ex
    }

    /// `within_distance` against `normalized_distance <= limit` at the
    /// computed distance, one ulp either side, and a few coarse limits.
    fn assert_verdicts_agree(ex: &FeatureExtractor, target: &[f64]) {
        let window = ex.window_snapshot();
        let normalized = normalize(target, ex.mode());
        let d = normalized_distance(target, &window, ex.mode());
        let ulp = |x: f64, up: bool| {
            if x == 0.0 {
                if up {
                    f64::from_bits(1)
                } else {
                    -f64::from_bits(1)
                }
            } else if (x > 0.0) == up {
                f64::from_bits(x.to_bits() + 1)
            } else {
                f64::from_bits(x.to_bits() - 1)
            }
        };
        for limit in [d, ulp(d, false), ulp(d, true), 0.0, 0.05, 0.5, 1.0, 2.5] {
            assert_eq!(ex.within_distance(&normalized, limit), d <= limit, "d={d} limit={limit}");
        }
    }

    #[test]
    fn within_distance_matches_normalized_distance() {
        let target = ramp(16, 0.07, 0.4);
        for mode in [Normalization::ZNorm, Normalization::UnitNorm] {
            // Exactly full (head == 0) and wrapped (head == 7) windows.
            for n in [16, 23, 40] {
                let ex = fed(16, mode, &ramp(n, -0.05, 1.1));
                assert_verdicts_agree(&ex, &target);
            }
            // The target's own window: distance 0 (or a few ulps).
            let ex = fed(16, mode, &[ramp(5, 0.0, 9.0), target.clone()].concat());
            assert_verdicts_agree(&ex, &target);
            // Constant and all-zero windows normalise to all zeros.
            for c in [3.5, 0.0] {
                let ex = fed(16, mode, &[c; 21]);
                assert_verdicts_agree(&ex, &target);
                assert_verdicts_agree(&ex, &[c; 16]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn distance_checks_dims() {
        let a = FeatureVector::new(vec![Complex64::ZERO], Normalization::ZNorm);
        let b = FeatureVector::new(vec![Complex64::ZERO; 2], Normalization::ZNorm);
        let _ = a.distance(&b);
    }
}
