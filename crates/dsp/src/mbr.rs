//! Minimum bounding rectangles in feature space (§IV-G).
//!
//! Consecutive summaries of a stream exhibit "Fourier locality", so every
//! `zeta` of them are grouped into an MBR and the MBR is shipped instead of
//! the individual vectors. An MBR is a pair of corner points `low <= high`
//! per dimension (Eq. 10).

use crate::features::FeatureVector;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box in the (2k-dimensional real) feature space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mbr {
    low: Vec<f64>,
    high: Vec<f64>,
}

impl Mbr {
    /// Creates a degenerate MBR containing exactly one point.
    pub fn from_point(p: &[f64]) -> Self {
        Mbr { low: p.to_vec(), high: p.to_vec() }
    }

    /// Creates an MBR from explicit corners.
    ///
    /// # Panics
    /// Panics if lengths differ or any `low > high`.
    pub fn from_corners(low: Vec<f64>, high: Vec<f64>) -> Self {
        assert_eq!(low.len(), high.len(), "corner dimensionality mismatch");
        assert!(
            low.iter().zip(high.iter()).all(|(l, h)| l <= h),
            "low corner must not exceed high corner"
        );
        Mbr { low, high }
    }

    /// Builds the tight MBR around a set of feature vectors.
    ///
    /// # Panics
    /// Panics on an empty set.
    pub fn from_features<'a, I: IntoIterator<Item = &'a FeatureVector>>(features: I) -> Self {
        let mut it = features.into_iter();
        let first = it.next().expect("cannot bound an empty feature set");
        let mut mbr = Mbr::from_point(&first.to_reals());
        for fv in it {
            mbr.extend_point(&fv.to_reals());
        }
        mbr
    }

    /// Dimensionality of the space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.low.len()
    }

    /// Lower corner.
    #[inline]
    pub fn low(&self) -> &[f64] {
        &self.low
    }

    /// Upper corner.
    #[inline]
    pub fn high(&self) -> &[f64] {
        &self.high
    }

    /// Extent along the first dimension — the interval `[l_1, h_1]` whose
    /// image under Eq. 6 is the replication key range.
    #[inline]
    pub fn first_interval(&self) -> (f64, f64) {
        (self.low[0], self.high[0])
    }

    /// Grows the box to cover `p`.
    pub fn extend_point(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        for ((l, h), &v) in self.low.iter_mut().zip(self.high.iter_mut()).zip(p.iter()) {
            if v < *l {
                *l = v;
            }
            if v > *h {
                *h = v;
            }
        }
    }

    /// True if `p` lies inside (inclusive).
    pub fn contains(&self, p: &[f64]) -> bool {
        p.len() == self.dims()
            && self
                .low
                .iter()
                .zip(self.high.iter())
                .zip(p.iter())
                .all(|((l, h), v)| *l <= *v && *v <= *h)
    }

    /// True if the boxes overlap (inclusive).
    pub fn intersects(&self, other: &Mbr) -> bool {
        assert_eq!(self.dims(), other.dims(), "MBR dimensionality mismatch");
        self.low
            .iter()
            .zip(self.high.iter())
            .zip(other.low.iter().zip(other.high.iter()))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Minimum squared Euclidean distance from `p` to the box (0 inside).
    ///
    /// This is the classical R-tree MINDIST: a query ball of radius `r`
    /// can contain a point of the box only if `min_dist_sqr <= r^2`, which is
    /// the candidate test run at every data center holding the MBR.
    pub fn min_dist_sqr(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        self.low
            .iter()
            .zip(self.high.iter())
            .zip(p.iter())
            .map(|((l, h), v)| {
                let d = if v < l {
                    l - v
                } else if v > h {
                    v - h
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// Minimum Euclidean distance from `p` to the box.
    pub fn min_dist(&self, p: &[f64]) -> f64 {
        self.min_dist_sqr(p).sqrt()
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.low.iter().zip(self.high.iter()).map(|(l, h)| (l + h) / 2.0).collect()
    }

    /// Sum of side lengths (the R*-tree "margin").
    pub fn margin(&self) -> f64 {
        self.low.iter().zip(self.high.iter()).map(|(l, h)| h - l).sum()
    }

    /// Product of side lengths.
    pub fn volume(&self) -> f64 {
        self.low.iter().zip(self.high.iter()).map(|(l, h)| h - l).product()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::normalize::Normalization;

    fn fv(re: f64, im: f64) -> FeatureVector {
        FeatureVector::new(vec![Complex64::new(re, im)], Normalization::ZNorm)
    }

    #[test]
    fn from_features_bounds_all() {
        let feats = vec![fv(0.1, 0.2), fv(-0.3, 0.5), fv(0.0, -0.1)];
        let mbr = Mbr::from_features(&feats);
        assert_eq!(mbr.low(), &[-0.3, -0.1]);
        assert_eq!(mbr.high(), &[0.1, 0.5]);
        for f in &feats {
            assert!(mbr.contains(&f.to_reals()));
        }
    }

    #[test]
    fn paper_figure4_mbr() {
        // Fig. 4 shows an MBR with corners [0.09, 0.12] and [0.21, 0.40] in
        // the first two dimensions; its first interval drives replication.
        let mbr = Mbr::from_corners(vec![0.09, 0.12], vec![0.21, 0.40]);
        assert_eq!(mbr.first_interval(), (0.09, 0.21));
        assert!(mbr.contains(&[0.1, 0.2]));
        assert!(!mbr.contains(&[0.3, 0.2]));
    }

    #[test]
    fn min_dist_zero_inside_positive_outside() {
        let mbr = Mbr::from_corners(vec![0.0, 0.0], vec![1.0, 1.0]);
        assert_eq!(mbr.min_dist_sqr(&[0.5, 0.5]), 0.0);
        assert!((mbr.min_dist(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((mbr.min_dist(&[2.0, 2.0]) - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn min_dist_lower_bounds_contained_points() {
        // For any point q and any point p inside the box,
        // min_dist(q) <= |q - p|.
        let mbr = Mbr::from_corners(vec![-1.0, 0.0], vec![1.0, 2.0]);
        let q = [3.0, -1.0];
        for p in [[0.0f64, 1.0], [-1.0, 0.0], [1.0, 2.0], [0.5, 0.3]] {
            let d: f64 = q.iter().zip(p.iter()).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
            assert!(mbr.min_dist(&q) <= d + 1e-12);
        }
    }

    #[test]
    fn extend_and_intersect() {
        let mut a = Mbr::from_point(&[0.0, 0.0]);
        a.extend_point(&[1.0, 1.0]);
        let b = Mbr::from_corners(vec![0.5, 0.5], vec![2.0, 2.0]);
        assert!(a.intersects(&b));
        let c = Mbr::from_corners(vec![1.5, 1.5], vec![2.0, 2.0]);
        assert!(!a.intersects(&c));
        a.extend_point(c.low());
        a.extend_point(c.high());
        assert!(a.intersects(&c));
        assert!(a.contains(&[1.2, 1.7]));
    }

    #[test]
    fn degenerate_point_box() {
        let m = Mbr::from_point(&[0.3, -0.2]);
        assert_eq!(m.volume(), 0.0);
        assert_eq!(m.margin(), 0.0);
        assert!(m.contains(&[0.3, -0.2]));
        assert_eq!(m.center(), vec![0.3, -0.2]);
    }

    #[test]
    #[should_panic(expected = "empty feature set")]
    fn empty_feature_set_panics() {
        let _ = Mbr::from_features(&[]);
    }

    #[test]
    #[should_panic(expected = "low corner must not exceed")]
    fn inverted_corners_panic() {
        let _ = Mbr::from_corners(vec![1.0], vec![0.0]);
    }
}
