//! Haar wavelet summarization — the alternative the paper cites as its
//! sibling technique (STARDUST: "fast stream indexing using incremental
//! wavelet approximations", reference \[6\]; also SWAT \[5\]).
//!
//! The Haar transform here uses the orthonormal convention, so Parseval
//! holds and — exactly as for the truncated DFT — the Euclidean distance
//! between two signals' retained coefficient prefixes lower-bounds the
//! distance between the signals. Swapping the summarizer therefore
//! preserves the middleware's no-false-dismissal guarantee; the comparison
//! between DFT and Haar energy capture runs as an ablation bench.

use serde::{Deserialize, Serialize};

/// Forward orthonormal Haar transform (power-of-two length).
///
/// Output layout is the standard multiresolution order: overall average
/// first, then detail coefficients coarsest-to-finest.
///
/// # Panics
/// Panics unless the length is a power of two (or zero).
pub fn haar_forward(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(n & (n - 1) == 0, "Haar transform requires a power-of-two length");
    let mut cur = signal.to_vec();
    let mut out = vec![0.0; n];
    let mut len = n;
    let s = std::f64::consts::FRAC_1_SQRT_2;
    while len > 1 {
        let half = len / 2;
        let mut next = vec![0.0; half];
        for i in 0..half {
            next[i] = (cur[2 * i] + cur[2 * i + 1]) * s;
            out[half + i] = (cur[2 * i] - cur[2 * i + 1]) * s;
        }
        cur = next;
        len = half;
    }
    out[0] = cur[0];
    out
}

/// Inverse orthonormal Haar transform.
///
/// # Panics
/// Panics unless the length is a power of two (or zero).
pub fn haar_inverse(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(n & (n - 1) == 0, "Haar transform requires a power-of-two length");
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let mut cur = vec![coeffs[0]];
    let mut half = 1;
    while half < n {
        let mut next = vec![0.0; half * 2];
        for i in 0..half {
            let a = cur[i];
            let d = coeffs[half + i];
            next[2 * i] = (a + d) * s;
            next[2 * i + 1] = (a - d) * s;
        }
        cur = next;
        half *= 2;
    }
    cur
}

/// A sparse Haar synopsis: the `k` largest-magnitude coefficients, stored
/// as `(position, value)` pairs — the STARDUST-style summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HaarSynopsis {
    /// Signal length the synopsis describes.
    pub len: usize,
    /// Retained `(coefficient index, value)` pairs, by descending |value|.
    pub coeffs: Vec<(usize, f64)>,
}

impl HaarSynopsis {
    /// Builds the top-`k` synopsis of a power-of-two-length signal.
    pub fn build(signal: &[f64], k: usize) -> Self {
        let spectrum = haar_forward(signal);
        let mut indexed: Vec<(usize, f64)> = spectrum.into_iter().enumerate().collect();
        indexed.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
        indexed.truncate(k);
        HaarSynopsis { len: signal.len(), coeffs: indexed }
    }

    /// Reconstructs the approximate signal.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut spectrum = vec![0.0; self.len];
        for &(i, v) in &self.coeffs {
            spectrum[i] = v;
        }
        haar_inverse(&spectrum)
    }

    /// Energy captured by the retained coefficients (Parseval).
    pub fn energy(&self) -> f64 {
        self.coeffs.iter().map(|(_, v)| v * v).sum()
    }

    /// Lower-bounding distance between two synopses of the same length:
    /// compares coefficients over the union of retained positions, treating
    /// missing ones as zero. Never exceeds the true signal distance when
    /// both synopses keep the same positions; with top-k selection it is a
    /// heuristic distance (still useful for candidate generation).
    pub fn distance(&self, other: &HaarSynopsis) -> f64 {
        assert_eq!(self.len, other.len, "synopsis length mismatch");
        let mut acc = 0.0;
        for &(i, v) in &self.coeffs {
            let o = other.coeffs.iter().find(|(j, _)| *j == i).map_or(0.0, |(_, x)| *x);
            acc += (v - o) * (v - o);
        }
        for &(j, o) in &other.coeffs {
            if !self.coeffs.iter().any(|(i, _)| *i == j) {
                acc += o * o;
            }
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn energy(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin() * 3.0 + i as f64 * 0.1).collect();
        let back = haar_inverse(&haar_forward(&x));
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let h = haar_forward(&x);
        assert!((energy(&x) - energy(&h)).abs() < 1e-9);
    }

    #[test]
    fn constant_signal_is_pure_average() {
        let h = haar_forward(&[5.0; 16]);
        assert!((h[0] - 5.0 * 4.0).abs() < 1e-12); // 5 * sqrt(16)
        assert!(h[1..].iter().all(|&d| d.abs() < 1e-12));
    }

    #[test]
    fn step_signal_is_sparse_in_haar() {
        // A step function needs very few Haar coefficients.
        let x: Vec<f64> = (0..32).map(|i| if i < 16 { 1.0 } else { -1.0 }).collect();
        let syn = HaarSynopsis::build(&x, 2);
        let rec = syn.reconstruct();
        let err: f64 = x.iter().zip(rec.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(err < 1e-12, "step should be captured by 2 coefficients, err {err}");
    }

    #[test]
    fn topk_energy_is_monotone_in_k() {
        let x: Vec<f64> =
            (0..64).map(|i| (i as f64 * 0.3).sin() + 0.3 * (i as f64 * 1.9).cos()).collect();
        let mut prev = 0.0;
        for k in [1usize, 2, 4, 8, 16, 64] {
            let e = HaarSynopsis::build(&x, k).energy();
            assert!(e + 1e-12 >= prev, "energy must grow with k");
            prev = e;
        }
        assert!((prev - energy(&x)).abs() < 1e-9, "full synopsis is lossless");
    }

    #[test]
    fn reconstruction_error_shrinks_with_k() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.17).sin() * 2.0 + (i % 5) as f64).collect();
        let err = |k: usize| {
            let rec = HaarSynopsis::build(&x, k).reconstruct();
            x.iter().zip(rec.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        };
        assert!(err(16) <= err(4));
        assert!(err(4) <= err(1));
    }

    #[test]
    fn synopsis_distance_of_identical_signals_is_zero() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let a = HaarSynopsis::build(&x, 4);
        assert!(a.distance(&a) < 1e-12);
    }

    #[test]
    fn synopsis_distance_detects_difference() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..16).map(|i| -(i as f64)).collect();
        let a = HaarSynopsis::build(&x, 4);
        let b = HaarSynopsis::build(&y, 4);
        assert!(a.distance(&b) > 1.0);
    }

    #[test]
    fn empty_and_single() {
        assert!(haar_forward(&[]).is_empty());
        assert_eq!(haar_forward(&[3.0]), vec![3.0]);
        assert_eq!(haar_inverse(&[3.0]), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_panics() {
        let _ = haar_forward(&[1.0, 2.0, 3.0]);
    }
}
