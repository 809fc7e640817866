//! Shared precomputed DFT kernel tables.
//!
//! The naive transforms in [`crate::dft`] evaluate `cis(-2*pi*f*i/n)` for
//! every `(bin, sample)` pair — `n^2` transcendental calls per transform. The
//! same windows are transformed over and over (every stream uses the same
//! `window_len`, every query target the same), so this module memoizes the
//! full unitary kernel matrix per transform length in a thread-local cache.
//! A query's features read only the `k` rows of its retained bins
//! ([`crate::extract_features`]); the full-spectrum [`crate::dft::dft`] is
//! the reference the tests compare them against.
//!
//! **Determinism contract:** the cached forward entry for `(f, i)` is computed
//! with the *exact* expression the naive loop used, `cis(step * (f * i) as
//! f64)` with `step = -2*pi/n` — not a phase-reduced or recurrence form — so
//! replacing the inline call with a table lookup is bit-identical and the
//! golden-report regression is unaffected. Inverse entries are the complex
//! conjugate, which matches `cis(+step * (f * i))` bit-for-bit because IEEE
//! `cos` is even and `sin` is odd in the sign of the argument.
//!
//! Lengths above [`MAX_CACHED_LEN`] would cost `O(n^2)` memory per length, so
//! they skip the matrix and fall back to on-the-fly evaluation.

use crate::complex::Complex64;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Largest transform length whose full `n x n` kernel matrix is cached
/// (512 complex doubles squared = 4 MiB). Longer transforms compute matrix
/// entries on the fly.
pub const MAX_CACHED_LEN: usize = 512;

/// Precomputed unitary-DFT kernel for one transform length.
pub struct Kernel {
    n: usize,
    /// `-2*pi/n`, the forward angular step.
    step: f64,
    /// Row-major forward matrix: `fwd[f * n + i] = cis(step * (f * i))`.
    /// `None` above [`MAX_CACHED_LEN`].
    fwd: Option<Vec<Complex64>>,
}

impl Kernel {
    fn build(n: usize) -> Self {
        debug_assert!(n > 0);
        let step = -2.0 * std::f64::consts::PI / n as f64;
        let fwd = (n <= MAX_CACHED_LEN).then(|| {
            let mut t = Vec::with_capacity(n * n);
            for f in 0..n {
                for i in 0..n {
                    t.push(Complex64::cis(step * (f * i) as f64));
                }
            }
            t
        });
        Kernel { n, step, fwd }
    }

    /// Forward kernel entry `e^{-j 2 pi f i / n}`.
    #[inline]
    pub fn forward(&self, f: usize, i: usize) -> Complex64 {
        match &self.fwd {
            Some(t) => t[f * self.n + i],
            None => Complex64::cis(self.step * (f * i) as f64),
        }
    }

    /// Inverse kernel entry `e^{+j 2 pi f i / n}`.
    #[inline]
    pub fn inverse(&self, f: usize, i: usize) -> Complex64 {
        self.forward(f, i).conj()
    }
}

/// Runs `body` with the (possibly freshly built) kernel for length `n`.
///
/// Kernels are cached per thread, so parallel ingest workers each warm their
/// own table once and then share nothing — no locks on the transform path.
pub fn with_kernel<R>(n: usize, body: impl FnOnce(&Kernel) -> R) -> R {
    thread_local! {
        static CACHE: RefCell<BTreeMap<usize, Rc<Kernel>>> = const { RefCell::new(BTreeMap::new()) };
    }
    let kernel = CACHE.with(|cache| {
        Rc::clone(cache.borrow_mut().entry(n).or_insert_with(|| Rc::new(Kernel::build(n))))
    });
    body(&kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_forward_is_bit_identical_to_inline_cis() {
        for n in [7usize, 16, 33] {
            let step = -2.0 * std::f64::consts::PI / n as f64;
            with_kernel(n, |k| {
                for f in 0..n {
                    for i in 0..n {
                        let direct = Complex64::cis(step * (f * i) as f64);
                        let cached = k.forward(f, i);
                        assert_eq!(direct.re.to_bits(), cached.re.to_bits(), "n={n} f={f} i={i}");
                        assert_eq!(direct.im.to_bits(), cached.im.to_bits(), "n={n} f={f} i={i}");
                    }
                }
            });
        }
    }

    #[test]
    fn inverse_is_bit_identical_to_positive_step_cis() {
        // cos is even and sin is odd, so conj(cis(-x)) must equal cis(+x)
        // bit-for-bit — the property the idft rewrite relies on.
        let n = 24;
        let step = 2.0 * std::f64::consts::PI / n as f64;
        with_kernel(n, |k| {
            for f in 0..n {
                for i in 0..n {
                    let direct = Complex64::cis(step * (f * i) as f64);
                    let cached = k.inverse(f, i);
                    assert_eq!(direct.re.to_bits(), cached.re.to_bits(), "f={f} i={i}");
                    assert_eq!(direct.im.to_bits(), cached.im.to_bits(), "f={f} i={i}");
                }
            }
        });
    }

    #[test]
    fn large_lengths_skip_the_matrix_but_stay_exact() {
        let n = MAX_CACHED_LEN + 1;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        with_kernel(n, |k| {
            let direct = Complex64::cis(step * (3 * 5) as f64);
            let computed = k.forward(3, 5);
            assert_eq!(direct.re.to_bits(), computed.re.to_bits());
            assert_eq!(direct.im.to_bits(), computed.im.to_bits());
        });
    }

    #[test]
    fn repeated_lookups_hit_the_same_table() {
        let first = with_kernel(8, |k| k.forward(2, 3));
        let second = with_kernel(8, |k| k.forward(2, 3));
        assert_eq!(first.re.to_bits(), second.re.to_bits());
        assert_eq!(first.im.to_bits(), second.im.to_bits());
    }
}
