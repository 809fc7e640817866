//! Orthonormal discrete Fourier transform (naive `O(n^2)` reference).
//!
//! The paper (Eq. 3/4) uses the unitary convention with a `1/sqrt(N)` factor
//! in **both** directions, so that the transform preserves signal energy
//! (Parseval). [`dft`] is the reference implementation: the incremental
//! update in [`crate::sliding`] and the k-bin batch path behind
//! [`crate::extract_features`] are tested against it.
//!
//! Kernel values come from the per-length tables in [`crate::kernel`], so the
//! `n^2` `cis()` calls are paid once per transform length per thread instead
//! of once per transform. The tables store the bitwise-identical values the
//! inline calls produced, keeping the golden-report regression byte-exact.

use crate::complex::Complex64;
use crate::kernel;
use std::ops::Range;

/// Computes the unitary DFT of a real signal:
/// `X_f = (1/sqrt(N)) * sum_i x_i e^{-j 2 pi f i / N}`.
pub fn dft(signal: &[f64]) -> Vec<Complex64> {
    dft_bins(signal, 0..signal.len())
}

/// The bins `bins` of [`dft`] (clamped to the signal length), each summed
/// in the same order, so every value is bit-identical to the full
/// transform's. Reads only those rows of the kernel table.
pub(crate) fn dft_bins(signal: &[f64], bins: Range<usize>) -> Vec<Complex64> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    kernel::with_kernel(n, |k| {
        (bins.start.min(n)..bins.end.min(n))
            .map(|f| {
                let mut acc = Complex64::ZERO;
                for (i, &x) in signal.iter().enumerate() {
                    acc += k.forward(f, i) * x;
                }
                acc.scale(scale)
            })
            .collect()
    })
}

/// Inverse unitary DFT: `x_i = (1/sqrt(N)) * sum_f X_f e^{+j 2 pi f i / N}`
/// (Eq. 4 in the paper). Returns a complex signal; for transforms of real
/// signals the imaginary parts are numerically zero.
pub fn idft(coeffs: &[Complex64]) -> Vec<Complex64> {
    let n = coeffs.len();
    if n == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    kernel::with_kernel(n, |k| {
        (0..n)
            .map(|i| {
                let mut acc = Complex64::ZERO;
                for (f, &c) in coeffs.iter().enumerate() {
                    acc += k.inverse(f, i) * c;
                }
                acc.scale(scale)
            })
            .collect()
    })
}

/// Reconstructs an approximate real signal of length `n` from the first `k`
/// coefficients of a unitary DFT of a **real** signal (Eq. 7 in the paper).
///
/// Because the signal is real, `X_{N-f} = conj(X_f)`; each retained
/// non-DC coefficient therefore contributes twice its real projection.
pub fn reconstruct_from_prefix(prefix: &[Complex64], n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    let keep = prefix.len().min(n);
    kernel::with_kernel(n, |kern| {
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for (f, &c) in prefix.iter().take(keep).enumerate() {
                    let term = (c * kern.inverse(f, i)).re;
                    // The DC term (f = 0) and, for even n, the Nyquist term
                    // (f = n/2) are their own conjugate mirrors.
                    if f == 0 || 2 * f == n {
                        acc += term;
                    } else {
                        acc += 2.0 * term;
                    }
                }
                acc * scale
            })
            .collect()
    })
}

/// Signal energy: `sum_i x_i^2`.
pub fn energy(signal: &[f64]) -> f64 {
    signal.iter().map(|x| x * x).sum()
}

/// Spectrum energy: `sum_f |X_f|^2`.
pub fn spectrum_energy(coeffs: &[Complex64]) -> f64 {
    coeffs.iter().map(|c| c.norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() <= eps, "{a} vs {b}");
    }

    #[test]
    fn dft_of_constant_is_dc_only() {
        let x = vec![3.0; 8];
        let c = dft(&x);
        // DC coefficient = sqrt(N) * mean = 3 * sqrt(8)
        assert_close(c[0].re, 3.0 * 8f64.sqrt(), 1e-9);
        for (f, coeff) in c.iter().enumerate().skip(1) {
            assert!(coeff.norm() < 1e-9, "bin {f} should be empty");
        }
    }

    #[test]
    fn dft_of_single_tone_concentrates() {
        let n = 16;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 2.0 * i as f64 / n as f64).cos())
            .collect();
        let c = dft(&x);
        // A cosine at bin 2 puts energy at bins 2 and n-2 only.
        assert!(c[2].norm() > 1.0);
        assert!(c[n - 2].norm() > 1.0);
        for (f, coeff) in c.iter().enumerate() {
            if f != 2 && f != n - 2 {
                assert!(coeff.norm() < 1e-9, "bin {f} leaked {}", coeff.norm());
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let c = dft(&x);
        assert_close(energy(&x), spectrum_energy(&c), 1e-9);
    }

    #[test]
    fn idft_inverts_dft() {
        let x: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin() + 0.1 * i as f64).collect();
        let back = idft(&dft(&x));
        for (orig, rec) in x.iter().zip(back.iter()) {
            assert_close(*orig, rec.re, 1e-9);
            assert!(rec.im.abs() < 1e-9);
        }
    }

    #[test]
    fn conjugate_symmetry_for_real_signals() {
        let x: Vec<f64> = (0..12).map(|i| (i as f64).sqrt() - 1.0).collect();
        let c = dft(&x);
        for f in 1..12 {
            assert!(c[12 - f].approx_eq(c[f].conj(), 1e-9));
        }
    }

    #[test]
    fn full_prefix_reconstruction_is_exact() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).cos() * 2.0).collect();
        let c = dft(&x);
        // Keeping bins 0..=n/2 of a real signal is lossless.
        let rec = reconstruct_from_prefix(&c[..9], 16);
        for (orig, r) in x.iter().zip(rec.iter()) {
            assert_close(*orig, *r, 1e-9);
        }
    }

    #[test]
    fn truncated_reconstruction_preserves_trend() {
        // Slow ramp plus fast noise: first coefficients capture the ramp.
        let n = 64;
        let x: Vec<f64> =
            (0..n).map(|i| i as f64 / n as f64 + 0.01 * ((i * 37 % 11) as f64 - 5.0)).collect();
        let c = dft(&x);
        let rec = reconstruct_from_prefix(&c[..4], n);
        // Reconstruction error must be small relative to signal energy.
        let err: f64 = x.iter().zip(rec.iter()).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(err / energy(&x) < 0.15, "relative error {}", err / energy(&x));
    }

    #[test]
    fn empty_signal() {
        assert!(dft(&[]).is_empty());
        assert!(idft(&[]).is_empty());
        assert!(reconstruct_from_prefix(&[], 0).is_empty());
    }

    #[test]
    fn table_backed_dft_is_bit_identical_to_inline_loop() {
        // The kernel cache must not shift a single bit of the transform the
        // golden report depends on; compare against the original inline form.
        for n in [5usize, 16, 32, 33] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 7) as f64 - 3.0).collect();
            let scale = 1.0 / (n as f64).sqrt();
            let step = -2.0 * std::f64::consts::PI / n as f64;
            let expected: Vec<Complex64> = (0..n)
                .map(|f| {
                    let mut acc = Complex64::ZERO;
                    for (i, &v) in x.iter().enumerate() {
                        acc += Complex64::cis(step * (f * i) as f64) * v;
                    }
                    acc.scale(scale)
                })
                .collect();
            let got = dft(&x);
            for (f, (e, g)) in expected.iter().zip(got.iter()).enumerate() {
                assert_eq!(e.re.to_bits(), g.re.to_bits(), "n={n} bin={f} (re)");
                assert_eq!(e.im.to_bits(), g.im.to_bits(), "n={n} bin={f} (im)");
            }
        }
    }
}
