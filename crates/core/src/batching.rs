//! ζ-batching of consecutive feature vectors into MBRs (§IV-G).
//!
//! Consecutive summaries of the same stream differ in only one window entry,
//! so they cluster tightly in feature space ("Fourier locality", Fig. 3(b)).
//! Shipping one MBR per ζ summaries cuts the update bandwidth by roughly ζ
//! at the cost of coarser (but never lossy) candidate filtering.

use dsi_dsp::Mbr;
use serde::{Deserialize, Serialize};

/// Groups every ζ consecutive feature vectors of one stream into an MBR.
///
/// Optionally bounds the *first-dimension width* of a batch: the first
/// feature dimension determines the replication key range (Eq. 10), so a
/// volatile stream would otherwise occasionally produce an MBR replicated
/// across a large slice of the ring. When adding a summary would push the
/// routing interval past `max_width`, the pending batch is shipped early —
/// the fixed-ζ ancestor of the §VI-A adaptive-precision scheme.
///
/// Internally only the *running corner bounds* of the pending batch are
/// kept, not the member vectors: each push folds the new point in with the
/// exact comparison sequence of [`Mbr::extend_point`], so the emitted MBR is
/// bit-identical to `Mbr::from_features` over the members while the
/// steady-state (non-emitting) push path performs zero heap allocations —
/// the ingest hot-path contract of DESIGN.md §14.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MbrBatcher {
    zeta: usize,
    max_width: Option<f64>,
    /// Running lower corner of the pending batch.
    low: Vec<f64>,
    /// Running upper corner of the pending batch.
    high: Vec<f64>,
    /// Number of summaries folded into the pending batch.
    members: usize,
    produced: u64,
    early_shipments: u64,
}

impl MbrBatcher {
    /// Creates a batcher with factor ζ (`zeta == 1` ships every summary as a
    /// degenerate point MBR, i.e. batching disabled) and no width bound.
    ///
    /// # Panics
    /// Panics if `zeta == 0`.
    pub fn new(zeta: usize) -> Self {
        assert!(zeta > 0, "batching factor must be positive");
        MbrBatcher {
            zeta,
            max_width: None,
            low: Vec::new(),
            high: Vec::new(),
            members: 0,
            produced: 0,
            early_shipments: 0,
        }
    }

    /// Adds a bound on the batch's first-dimension (routing) width.
    ///
    /// # Panics
    /// Panics if `max_width` is not positive.
    pub fn with_max_width(mut self, max_width: f64) -> Self {
        assert!(max_width > 0.0, "width bound must be positive");
        self.max_width = Some(max_width);
        self
    }

    /// The batching factor ζ.
    #[inline]
    pub fn zeta(&self) -> usize {
        self.zeta
    }

    /// Number of MBRs emitted so far.
    #[inline]
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// MBRs shipped *early* because the width bound would have been
    /// violated (regular ζ-full shipments are not counted).
    #[inline]
    pub fn early_shipments(&self) -> u64 {
        self.early_shipments
    }

    /// Number of feature vectors waiting for the current batch to fill.
    #[inline]
    pub fn pending(&self) -> usize {
        self.members
    }

    /// Adds a summary, given as its flattened real coordinates; returns an
    /// MBR when ζ summaries accumulated, or earlier when the width bound
    /// would be violated (the pending batch is shipped and the new summary
    /// starts the next one). Allocation-free: a push that does not complete
    /// a batch touches only the running bounds (no heap traffic once the
    /// corner buffers hold their capacity).
    ///
    /// # Panics
    /// Panics if `reals` has a different dimensionality than the pending
    /// batch.
    pub fn push_reals(&mut self, reals: &[f64]) -> Option<Mbr> {
        if self.members == 0 {
            self.start_batch(reals);
        } else {
            assert_eq!(reals.len(), self.low.len(), "point dimensionality mismatch");
            if let Some(limit) = self.max_width {
                if !self.low.is_empty() {
                    // Per-dimension independence of `extend_point` means the
                    // probe's routing interval is just the running dim-0
                    // interval extended by the new first coordinate.
                    let p0 = reals[0];
                    let lo = if p0 < self.low[0] { p0 } else { self.low[0] };
                    let hi = if p0 > self.high[0] { p0 } else { self.high[0] };
                    if hi - lo > limit {
                        let mbr = self.take_mbr();
                        self.start_batch(reals);
                        self.early_shipments += 1;
                        return Some(mbr);
                    }
                }
            }
            // The exact comparison sequence of `Mbr::extend_point`.
            for ((l, h), &v) in self.low.iter_mut().zip(self.high.iter_mut()).zip(reals.iter()) {
                if v < *l {
                    *l = v;
                }
                if v > *h {
                    *h = v;
                }
            }
            self.members += 1;
        }
        if self.members == self.zeta {
            Some(self.take_mbr())
        } else {
            None
        }
    }

    /// Flushes a partial batch (used at stream shutdown), if any.
    pub fn flush(&mut self) -> Option<Mbr> {
        if self.members == 0 {
            return None;
        }
        Some(self.take_mbr())
    }

    /// Resets the running bounds onto a fresh batch seeded with one point.
    fn start_batch(&mut self, reals: &[f64]) {
        self.low.clear();
        self.low.extend_from_slice(reals);
        self.high.clear();
        self.high.extend_from_slice(reals);
        self.members = 1;
    }

    /// Emits the pending batch's MBR and resets the member count.
    // Cold boundary: called only when a batch closes — the emission path; non-emitting pushes return before reaching it.
    fn take_mbr(&mut self) -> Mbr {
        self.produced += 1;
        self.members = 0;
        Mbr::from_corners(self.low.clone(), self.high.clone())
    }
}

/// Fixed per-message overlay header: source, destination key, type tag,
/// and a sequence number (the usual 8+8+4+4 layout).
pub const HEADER_BYTES: usize = 24;

/// Bandwidth of shipping ζ summaries *individually* versus as one MBR, per
/// batch and per replica: the §IV-G saving in bytes. Figures 6-8 count
/// *messages*; this states the same saving in the paper's deeper currency.
/// A summary carries stream id + `k` complex coefficients + expiry; an MBR
/// carries two such corner vectors.
pub fn batching_saving(k: usize, zeta: usize) -> (usize, usize) {
    const F64: usize = 8;
    let summary = HEADER_BYTES + 4 + k * 2 * F64 + 8;
    let mbr = HEADER_BYTES + 4 + (k * 2) * 2 * F64 + 8;
    (summary * zeta, mbr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_dsp::{Complex64, FeatureVector, Normalization};

    fn fv(re: f64) -> FeatureVector {
        FeatureVector::new(vec![Complex64::new(re, re / 2.0)], Normalization::ZNorm)
    }

    #[test]
    fn emits_every_zeta_pushes() {
        let mut b = MbrBatcher::new(3);
        assert!(b.push_reals(&fv(0.1).to_reals()).is_none());
        assert!(b.push_reals(&fv(0.2).to_reals()).is_none());
        let mbr = b.push_reals(&fv(0.15).to_reals()).expect("third push completes the batch");
        assert_eq!(mbr.low(), &[0.1, 0.05]);
        assert_eq!(mbr.high(), &[0.2, 0.1]);
        assert_eq!(b.pending(), 0);
        assert_eq!(b.produced(), 1);
    }

    #[test]
    fn mbr_contains_all_batch_members() {
        let mut b = MbrBatcher::new(5);
        let members: Vec<FeatureVector> = (0..5).map(|i| fv(0.1 * i as f64)).collect();
        let mut out = None;
        for m in &members {
            out = b.push_reals(&m.to_reals());
        }
        let mbr = out.unwrap();
        for m in &members {
            assert!(mbr.contains(&m.to_reals()));
        }
    }

    #[test]
    fn zeta_one_ships_points() {
        let mut b = MbrBatcher::new(1);
        let mbr = b.push_reals(&fv(0.3).to_reals()).unwrap();
        assert_eq!(mbr.volume(), 0.0);
        assert_eq!(b.produced(), 1);
    }

    #[test]
    fn flush_partial_batch() {
        let mut b = MbrBatcher::new(4);
        b.push_reals(&fv(0.1).to_reals());
        b.push_reals(&fv(0.4).to_reals());
        let mbr = b.flush().expect("two pending summaries");
        assert!(mbr.contains(&fv(0.1).to_reals()));
        assert!(mbr.contains(&fv(0.4).to_reals()));
        assert!(b.flush().is_none());
    }

    #[test]
    fn bandwidth_reduction_factor() {
        // n summaries produce floor(n / zeta) MBR shipments.
        let mut b = MbrBatcher::new(10);
        let mut shipped = 0;
        for i in 0..95 {
            if b.push_reals(&fv(i as f64 * 0.01).to_reals()).is_some() {
                shipped += 1;
            }
        }
        assert_eq!(shipped, 9);
    }

    #[test]
    fn batching_saves_bandwidth_beyond_zeta_two() {
        for k in [1usize, 2, 4] {
            for zeta in [3usize, 5, 10, 20] {
                let (individual, batched) = batching_saving(k, zeta);
                assert!(batched < individual, "zeta={zeta}, k={k}: {batched} not < {individual}");
            }
            // zeta = 1 is strictly worse (an MBR is bigger than a point).
            let (individual, batched) = batching_saving(k, 1);
            assert!(batched > individual);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_zeta_panics() {
        let _ = MbrBatcher::new(0);
    }

    #[test]
    fn width_bound_ships_early() {
        let mut b = MbrBatcher::new(10).with_max_width(0.05);
        assert!(b.push_reals(&fv(0.10).to_reals()).is_none());
        assert!(b.push_reals(&fv(0.12).to_reals()).is_none());
        // 0.30 would widen the routing interval to 0.20 > 0.05:
        // the pending pair ships, 0.30 starts a new batch.
        let mbr = b.push_reals(&fv(0.30).to_reals()).expect("early shipment");
        assert_eq!(mbr.first_interval(), (0.10, 0.12));
        assert_eq!(b.pending(), 1);
        assert_eq!(b.early_shipments(), 1);
        // The new batch still honors zeta.
        for i in 0..8 {
            assert!(b.push_reals(&fv(0.30 + i as f64 * 0.001).to_reals()).is_none());
        }
        let full = b.push_reals(&fv(0.305).to_reals()).expect("zeta reached");
        let (lo, hi) = full.first_interval();
        assert!(hi - lo <= 0.05 + 1e-12);
        // A ζ-full shipment is the regular cost, not an early one.
        assert_eq!(b.early_shipments(), 1);
        assert_eq!(b.produced(), 2);
    }

    #[test]
    fn width_bound_never_exceeded_on_emitted_mbrs() {
        let mut b = MbrBatcher::new(10).with_max_width(0.02);
        let mut rng_state = 7u64;
        let mut x = 0.0f64;
        for _ in 0..500 {
            // Cheap deterministic pseudo-random walk.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let step = ((rng_state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.02;
            x = (x + step).clamp(-0.9, 0.9);
            if let Some(mbr) = b.push_reals(&fv(x).to_reals()) {
                let (lo, hi) = mbr.first_interval();
                assert!(hi - lo <= 0.02 + 1e-12, "width {}", hi - lo);
            }
        }
    }

    #[test]
    #[should_panic(expected = "width bound must be positive")]
    fn zero_width_bound_panics() {
        let _ = MbrBatcher::new(5).with_max_width(0.0);
    }

    /// The pre-SoA batcher, verbatim: kept as the reference model the
    /// running-bounds rewrite must match bit-for-bit.
    struct ModelBatcher {
        zeta: usize,
        max_width: Option<f64>,
        pending: Vec<FeatureVector>,
    }

    impl ModelBatcher {
        fn push(&mut self, fv: FeatureVector) -> Option<Mbr> {
            if let Some(limit) = self.max_width {
                if !self.pending.is_empty() {
                    let mut probe = Mbr::from_features(self.pending.iter());
                    probe.extend_point(&fv.to_reals());
                    let (lo, hi) = probe.first_interval();
                    if hi - lo > limit {
                        let mbr = Mbr::from_features(self.pending.iter());
                        self.pending.clear();
                        self.pending.push(fv);
                        return Some(mbr);
                    }
                }
            }
            self.pending.push(fv);
            if self.pending.len() == self.zeta {
                let mbr = Mbr::from_features(self.pending.iter());
                self.pending.clear();
                Some(mbr)
            } else {
                None
            }
        }
    }

    #[test]
    fn running_bounds_are_bit_identical_to_member_list_model() {
        for limit in [None, Some(0.04), Some(0.5)] {
            let mut b = match limit {
                Some(width) => MbrBatcher::new(6).with_max_width(width),
                None => MbrBatcher::new(6),
            };
            let mut model = ModelBatcher { zeta: 6, max_width: limit, pending: Vec::new() };
            let mut state = 42u64;
            for _ in 0..800 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let x = ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.3;
                let f = fv(x);
                let (got, want) = (b.push_reals(&f.to_reals()), model.push(f));
                assert_eq!(got.is_some(), want.is_some());
                if let (Some(g), Some(w)) = (got, want) {
                    for (a, c) in g.low().iter().zip(w.low().iter()) {
                        assert_eq!(a.to_bits(), c.to_bits());
                    }
                    for (a, c) in g.high().iter().zip(w.high().iter()) {
                        assert_eq!(a.to_bits(), c.to_bits());
                    }
                }
                assert_eq!(b.pending(), model.pending.len());
            }
        }
    }

    #[test]
    fn non_emitting_push_reals_does_not_regrow_buffers() {
        let mut b = MbrBatcher::new(1000);
        b.push_reals(&[0.1, 0.2]);
        let caps = (b.low.capacity(), b.high.capacity());
        for i in 0..500 {
            assert!(b.push_reals(&[0.1 + i as f64 * 1e-4, 0.2]).is_none());
        }
        assert_eq!((b.low.capacity(), b.high.capacity()), caps);
    }
}
