//! A minimal complex-number type.
//!
//! The paper's summaries are truncated DFT coefficient vectors; we implement
//! the arithmetic from scratch rather than pulling in a numerics crate.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex64 { re: theta.cos(), im: theta.sin() }
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 { re: r * theta.cos(), im: r * theta.sin() }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// Squared magnitude `|z|^2`; cheaper than [`Complex64::norm`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns NaN components for zero.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex64 { re: self.re / d, im: -self.im / d }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 { re: self.re * s, im: self.im * s }
    }

    /// Returns true if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance `eps` on both parts.
    #[inline]
    pub fn approx_eq(self, other: Self, eps: f64) -> bool {
        (self.re - other.re).abs() <= eps && (self.im - other.im).abs() <= eps
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    #[expect(clippy::suspicious_arithmetic_impl, reason = "z / w == z * w^-1")]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64 { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64 { re: -self.re, im: -self.im }
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex64::new(1.5, -2.25);
        let b = Complex64::new(-0.5, 4.0);
        assert!(((a + b) - b).approx_eq(a, EPS));
    }

    #[test]
    fn mul_matches_expansion() {
        let a = Complex64::new(2.0, 3.0);
        let b = Complex64::new(-1.0, 5.0);
        // (2+3i)(-1+5i) = -2 + 10i - 3i + 15i^2 = -17 + 7i
        assert!((a * b).approx_eq(Complex64::new(-17.0, 7.0), EPS));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((Complex64::I * Complex64::I).approx_eq(-Complex64::ONE, EPS));
    }

    #[test]
    fn div_inverse() {
        let a = Complex64::new(3.0, -4.0);
        assert!((a / a).approx_eq(Complex64::ONE, EPS));
        assert!((a * a.inv()).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn norm_and_norm_sqr_agree() {
        let a = Complex64::new(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < EPS);
        assert!((a.norm_sqr() - 25.0).abs() < EPS);
    }

    #[test]
    fn conj_negates_imaginary() {
        let a = Complex64::new(1.0, 2.0);
        assert_eq!(a.conj(), Complex64::new(1.0, -2.0));
        // z * conj(z) = |z|^2 (real)
        let p = a * a.conj();
        assert!(p.approx_eq(Complex64::from_re(a.norm_sqr()), EPS));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let z = Complex64::cis(k as f64 * 0.5);
            assert!((z.norm() - 1.0).abs() < EPS);
        }
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.norm() - 2.0).abs() < EPS);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < EPS);
    }

    #[test]
    fn sum_folds_zero() {
        let v = vec![Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.into_iter().sum();
        assert!(s.approx_eq(Complex64::new(4.0, 4.0), EPS));
    }
}
