//! Struct-of-arrays storage for summary (MBR) replicas.
//!
//! At the million-stream scale targeted by the ROADMAP, per-record boxed
//! entries (`Vec<StoredMbr>`, each holding two heap-allocated corner `Vec`s)
//! dominate both memory traffic and cache misses on the candidate hot path.
//! [`SummaryStore`] keeps the same logical records in parallel columns —
//! stream ids, origins, expiry ticks and a single flattened corner pool — so
//! a candidate scan touches densely packed `f64`s instead of chasing two
//! pointers per record.
//!
//! Records are exposed as borrowed [`SummaryRef`] views; the owned
//! [`StoredMbr`] stays the wire/transport representation (replication
//! messages, traces, serialized audits) and converts losslessly both ways.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::datacenter::StoredMbr;
use crate::query::StreamId;
use dsi_chord::ChordId;
use dsi_dsp::Mbr;
use dsi_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// A borrowed view of one stored summary record.
///
/// Field-for-field equivalent to [`StoredMbr`], with the corner points
/// borrowed from the store's flattened pool instead of owned.
#[derive(Debug, Clone, Copy)]
pub struct SummaryRef<'a> {
    /// Stream the summary describes.
    pub stream: StreamId,
    /// Node that sourced the stream.
    pub origin: ChordId,
    /// Absolute expiry time.
    pub expires: SimTime,
    /// Lower corner of the bounding box.
    pub low: &'a [f64],
    /// Upper corner of the bounding box.
    pub high: &'a [f64],
}

/// Distance from `v` to the interval `[l, h]` along one axis — the term
/// `min_dist_sqr` squares and sums, shared with the round scan so both
/// compute it identically.
#[inline]
pub(crate) fn axis_gap(l: f64, h: f64, v: f64) -> f64 {
    if v < l {
        l - v
    } else if v > h {
        v - h
    } else {
        0.0
    }
}

impl SummaryRef<'_> {
    /// Dimensionality of the box.
    #[inline]
    pub fn dims(&self) -> usize {
        self.low.len()
    }

    /// The dim-0 extent, widened to the whole axis for dimension-less boxes
    /// so a [`crate::SortableSummaryIndex`] keyed on it never prunes them.
    #[inline]
    pub fn extent0(&self) -> (f64, f64) {
        if self.low.is_empty() {
            (f64::NEG_INFINITY, f64::INFINITY)
        } else {
            (self.low[0], self.high[0])
        }
    }

    /// Minimum squared Euclidean distance from `p` to the box — the exact
    /// same operation sequence as [`Mbr::min_dist_sqr`], so the result is
    /// bit-identical to the per-entry store's.
    pub fn min_dist_sqr(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.low.len(), "point dimensionality mismatch");
        self.low
            .iter()
            .zip(self.high.iter())
            .zip(p.iter())
            .map(|((&l, &h), &v)| {
                let d = axis_gap(l, h, v);
                d * d
            })
            .sum()
    }

    /// Minimum Euclidean distance from `p` to the box (bit-identical to
    /// [`Mbr::min_dist`]).
    pub fn min_dist(&self, p: &[f64]) -> f64 {
        self.min_dist_sqr(p).sqrt()
    }

    /// Materializes the owned transport record.
    pub fn to_stored(&self) -> StoredMbr {
        StoredMbr {
            stream: self.stream,
            mbr: Mbr::from_corners(self.low.to_vec(), self.high.to_vec()),
            origin: self.origin,
            expires: self.expires,
        }
    }

    /// Replica-record identity against a transport record: one batch shipped
    /// by one origin (the SoA counterpart of `same_record`).
    #[inline]
    pub fn matches(&self, r: &StoredMbr) -> bool {
        self.stream == r.stream
            && self.origin == r.origin
            && self.expires == r.expires
            && self.low == r.mbr.low()
            && self.high == r.mbr.high()
    }
}

/// Struct-of-arrays store of summary records.
///
/// Parallel columns indexed by record position; the two corner columns are
/// flattened into shared pools with a prefix-offset table, so records of any
/// (even mixed) dimensionality pack contiguously.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SummaryStore {
    streams: Vec<StreamId>,
    origins: Vec<ChordId>,
    expires_ms: Vec<u64>,
    lows: Vec<f64>,
    highs: Vec<f64>,
    /// `offsets[i]..offsets[i+1]` is record `i`'s slice of the corner pools.
    offsets: Vec<u32>,
}

impl Default for SummaryStore {
    fn default() -> Self {
        SummaryStore {
            streams: Vec::new(),
            origins: Vec::new(),
            expires_ms: Vec::new(),
            lows: Vec::new(),
            highs: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl SummaryStore {
    /// Number of stored records.
    #[inline]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Appends one record from explicit columns.
    pub fn push(
        &mut self,
        stream: StreamId,
        origin: ChordId,
        expires: SimTime,
        low: &[f64],
        high: &[f64],
    ) {
        assert_eq!(low.len(), high.len(), "corner dimensionality mismatch");
        self.streams.push(stream);
        self.origins.push(origin);
        self.expires_ms.push(expires.as_ms());
        self.lows.extend_from_slice(low);
        self.highs.extend_from_slice(high);
        self.offsets.push(self.lows.len() as u32);
    }

    /// Appends one transport record.
    pub fn push_stored(&mut self, s: &StoredMbr) {
        self.push(s.stream, s.origin, s.expires, s.mbr.low(), s.mbr.high());
    }

    /// The record at position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    #[inline]
    pub fn get(&self, pos: usize) -> SummaryRef<'_> {
        let (s, e) = (self.offsets[pos] as usize, self.offsets[pos + 1] as usize);
        SummaryRef {
            stream: self.streams[pos],
            origin: self.origins[pos],
            expires: SimTime::from_ms(self.expires_ms[pos]),
            low: &self.lows[s..e],
            high: &self.highs[s..e],
        }
    }

    /// Expiry of the record at `pos` without touching the corner pools —
    /// the candidate walk checks this first and skips the column loads for
    /// dead records.
    #[inline]
    pub fn expires_at(&self, pos: usize) -> SimTime {
        SimTime::from_ms(self.expires_ms[pos])
    }

    /// Iterates over all records in position order.
    pub fn iter(&self) -> impl Iterator<Item = SummaryRef<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Drops every record rejected by `keep`, compacting the columns in
    /// place (positions shift exactly like `Vec::retain`).
    pub fn retain(&mut self, mut keep: impl FnMut(SummaryRef<'_>) -> bool) {
        let n = self.len();
        let mut w = 0usize; // next write position
        let mut bw = 0usize; // next write offset into the corner pools
        for i in 0..n {
            let (s, e) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            if !keep(self.get(i)) {
                continue;
            }
            self.streams[w] = self.streams[i];
            self.origins[w] = self.origins[i];
            self.expires_ms[w] = self.expires_ms[i];
            self.lows.copy_within(s..e, bw);
            self.highs.copy_within(s..e, bw);
            bw += e - s;
            w += 1;
            // `w <= i + 1`, and iteration `i + 1` reads offsets[i+1] cached
            // into `s` before this line can clobber it.
            self.offsets[w] = bw as u32;
        }
        self.streams.truncate(w);
        self.origins.truncate(w);
        self.expires_ms.truncate(w);
        self.lows.truncate(bw);
        self.highs.truncate(bw);
        self.offsets.truncate(w + 1);
    }

    /// Removes every record.
    pub fn clear(&mut self) {
        self.streams.clear();
        self.origins.clear();
        self.expires_ms.clear();
        self.lows.clear();
        self.highs.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Owned transport copies of every record, in position order — the audit
    /// snapshot external checkers serialize and diff.
    pub fn to_stored_vec(&self) -> Vec<StoredMbr> {
        self.iter().map(|s| s.to_stored()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stream: StreamId, low: Vec<f64>, high: Vec<f64>, expires_ms: u64) -> StoredMbr {
        StoredMbr {
            stream,
            mbr: Mbr::from_corners(low, high),
            origin: 7,
            expires: SimTime::from_ms(expires_ms),
        }
    }

    #[test]
    fn push_get_roundtrip() {
        let mut st = SummaryStore::default();
        let a = rec(1, vec![0.0, -1.0], vec![0.5, 1.0], 100);
        let b = rec(2, vec![3.0], vec![4.0], 200);
        st.push_stored(&a);
        st.push_stored(&b);
        assert_eq!(st.len(), 2);
        assert!(st.get(0).matches(&a));
        assert!(st.get(1).matches(&b));
        assert!(!st.get(0).matches(&b));
        assert_eq!(st.get(1).low, &[3.0]);
        assert_eq!(st.get(1).high, &[4.0]);
        assert_eq!(st.expires_at(1), SimTime::from_ms(200));
    }

    #[test]
    fn to_stored_is_lossless() {
        let mut st = SummaryStore::default();
        let a = rec(9, vec![-0.25, 0.75], vec![0.0, 2.5], 42);
        st.push_stored(&a);
        let back = st.get(0).to_stored();
        assert_eq!(back.stream, a.stream);
        assert_eq!(back.origin, a.origin);
        assert_eq!(back.expires, a.expires);
        assert_eq!(back.mbr, a.mbr);
    }

    #[test]
    fn min_dist_matches_mbr_bitwise() {
        let mut st = SummaryStore::default();
        let a = rec(1, vec![0.1, -0.9, 2.0], vec![0.3, 0.4, 2.0], 1);
        st.push_stored(&a);
        for p in [[0.0f64, 0.0, 0.0], [0.2, 0.1, 2.0], [-5.0, 9.0, 1.5]] {
            assert_eq!(st.get(0).min_dist_sqr(&p).to_bits(), a.mbr.min_dist_sqr(&p).to_bits());
            assert_eq!(st.get(0).min_dist(&p).to_bits(), a.mbr.min_dist(&p).to_bits());
        }
    }

    #[test]
    fn retain_compacts_mixed_dims() {
        let mut st = SummaryStore::default();
        let recs = [
            rec(0, vec![0.0], vec![1.0], 10),
            rec(1, vec![0.0, 0.0], vec![1.0, 1.0], 20),
            rec(2, vec![5.0], vec![6.0], 30),
            rec(3, vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], 40),
            rec(4, vec![], vec![], 50),
            rec(5, vec![-1.0], vec![-0.5], 60),
        ];
        for r in &recs {
            st.push_stored(r);
        }
        st.retain(|s| s.stream % 2 == 1);
        assert_eq!(st.len(), 3);
        assert!(st.get(0).matches(&recs[1]));
        assert!(st.get(1).matches(&recs[3]));
        assert!(st.get(2).matches(&recs[5]));
        st.retain(|_| false);
        assert!(st.is_empty());
        assert_eq!(st.iter().count(), 0);
    }

    #[test]
    fn clear_resets_offsets() {
        let mut st = SummaryStore::default();
        st.push_stored(&rec(1, vec![0.0], vec![1.0], 10));
        st.clear();
        assert!(st.is_empty());
        st.push_stored(&rec(2, vec![2.0], vec![3.0], 10));
        assert_eq!(st.get(0).low, &[2.0]);
    }

    #[test]
    fn extent0_widens_dimensionless_boxes() {
        let mut st = SummaryStore::default();
        st.push_stored(&rec(1, vec![], vec![], 10));
        st.push_stored(&rec(2, vec![0.25], vec![0.5], 10));
        assert_eq!(st.get(0).extent0(), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(st.get(1).extent0(), (0.25, 0.5));
    }

    #[test]
    fn serde_roundtrip() {
        let mut st = SummaryStore::default();
        st.push_stored(&rec(1, vec![0.5, -0.5], vec![1.5, 0.5], 77));
        let js = serde_json::to_string(&st).unwrap();
        let back: SummaryStore = serde_json::from_str(&js).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.get(0).matches(&st.get(0).to_stored()));
    }
}
