//! Coconut-style sortable summary keys and the sorted-run index over them.
//!
//! Coconut's observation (PAPERS.md) is that data-series summaries become
//! bulk-loadable and mergeable once each summary maps to an *invertible
//! sortable key*: sorting by key clusters similar summaries, and range
//! queries become contiguous-ish key scans. Here the summary is an MBR's
//! dim-0 extent `[low0, high0]` (the routing axis of Eq. 6), and the key is
//! the bit-interleaved (z-order / Morton) pairing of the two monotone
//! 32-bit encodings:
//!
//! * [`encode_f64`] maps an `f64` to a `u32` such that `x <= y` implies
//!   `encode_f64(x) <= encode_f64(y)` (sign-flip trick, `-0.0` normalized
//!   to `+0.0`, then the top 32 bits);
//! * [`sortable_key`] interleaves `encode_f64(low0)` (even bits) with
//!   `encode_f64(high0)` (odd bits);
//! * [`decode_sortable_key`] inverts the key back to the quantized extent —
//!   re-encoding the decoded extent reproduces the key bit-for-bit, which is
//!   the invertibility contract the proptests pin down.
//!
//! An interval query "dim-0 extent intersects `[a, b]`" is the z-order
//! rectangle `low0 <= b && high0 >= a`, i.e. `x in [0, encode(b)]`,
//! `y in [encode(a), u32::MAX]`. The 32-bit quantization makes the scan a
//! conservative *superset* (never a miss: `low0 <= b` implies
//! `enc(low0) <= enc(b)`), and the caller's exact `min_dist` test drops the
//! false positives, so candidate sets are identical to a linear scan.
//!
//! [`SortableSummaryIndex`] stores `(key, position)` pairs in sorted,
//! mergeable runs (bulk-loaded wholesale on rebuilds) plus a small unsorted
//! staged tail, compacted LSM-style; range scans use BIGMIN (Tropf &
//! Herzog) to jump over z-order gaps outside the query rectangle.
//!
//! No data center keeps one: Eq. 6 placement already confines each shard
//! to its node's dim-0 key interval, so a per-node dim-0 filter admits
//! most of the shard and costs more than one pass over its columns
//! (DESIGN.md §9). The keys and the index are kept for the benchmark's
//! layer replay and as the building block of multi-coefficient ring keys.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize};

/// Monotone `f64 -> u32` encoding: order-preserving on every non-NaN value
/// (`x <= y` implies `encode_f64(x) <= encode_f64(y)`), with `-0.0`
/// normalized to `+0.0` so the two zeros cannot order against each other.
#[inline]
pub fn encode_f64(x: f64) -> u32 {
    // `-0.0 + 0.0 == +0.0` under IEEE round-to-nearest; every other value
    // (including NaN and infinities) is unchanged.
    let bits = (x + 0.0).to_bits();
    let flipped = if bits >> 63 == 1 { !bits } else { bits | 0x8000_0000_0000_0000 };
    (flipped >> 32) as u32
}

/// Inverts [`encode_f64`] to the smallest non-NaN `f64` of the quantization
/// cell: `encode_f64(decode_f64(u)) == u` for every `u`, and
/// `decode_f64(encode_f64(x)) <= x` for every non-NaN `x`.
#[inline]
pub fn decode_f64(u: u32) -> f64 {
    let flipped = (u as u64) << 32;
    let bits = if flipped >> 63 == 1 { flipped & !0x8000_0000_0000_0000 } else { !flipped };
    let x = f64::from_bits(bits);
    // The cell holding `-inf` also holds negative NaNs, and its raw minimum
    // is one of them; `-inf` is the smallest *value* in that cell.
    if x.is_nan() && u == encode_f64(f64::NEG_INFINITY) {
        return f64::NEG_INFINITY;
    }
    x
}

/// Spreads the 32 bits of `x` into the even bit positions of a `u64`.
#[inline]
fn spread(x: u32) -> u64 {
    let mut v = x as u64;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Collapses the even bit positions of `v` back into 32 contiguous bits.
#[inline]
fn compact(v: u64) -> u32 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

/// Interleaves two 32-bit coordinates into one z-order code (`x` on even
/// bits, `y` on odd bits).
#[inline]
pub fn morton(x: u32, y: u32) -> u64 {
    spread(x) | (spread(y) << 1)
}

/// Splits a z-order code back into its `(x, y)` coordinates.
#[inline]
pub fn demorton(code: u64) -> (u32, u32) {
    (compact(code), compact(code >> 1))
}

/// The sortable key of a summary with dim-0 extent `[low0, high0]`.
#[inline]
pub fn sortable_key(low0: f64, high0: f64) -> u64 {
    morton(encode_f64(low0), encode_f64(high0))
}

/// Inverts a sortable key to the quantized dim-0 extent it encodes:
/// `sortable_key` of the result reproduces the key exactly.
#[inline]
pub fn decode_sortable_key(key: u64) -> (f64, f64) {
    let (x, y) = demorton(key);
    (decode_f64(x), decode_f64(y))
}

/// Same-dimension bits strictly below position `bit` (dimension = parity).
#[inline]
fn lower_dim_mask(bit: u32) -> u64 {
    let dim = if bit & 1 == 0 { 0x5555_5555_5555_5555u64 } else { 0xAAAA_AAAA_AAAA_AAAAu64 };
    dim & ((1u64 << bit) - 1)
}

/// BIGMIN (Tropf & Herzog 1981): the smallest z-code inside the rectangle
/// `[zmin, zmax]` (corner codes) that is strictly greater than `code`, or
/// `None` if the rectangle holds no such code. Lets a sorted z-code scan
/// jump over the gaps where the curve leaves the query rectangle.
fn bigmin(code: u64, mut zmin: u64, mut zmax: u64) -> Option<u64> {
    let mut result = None;
    for bit in (0..64).rev() {
        let mask = 1u64 << bit;
        let lower = lower_dim_mask(bit);
        match (code & mask != 0, zmin & mask != 0, zmax & mask != 0) {
            (false, false, false) => {}
            (false, false, true) => {
                // The rect spans this bit: the half above `code` starts at
                // zmin with this dim forced up; keep searching the low half.
                result = Some((zmin & !(mask | lower)) | mask);
                zmax = (zmax & !mask) | lower;
            }
            (false, true, true) => return Some(zmin),
            (true, false, false) => return result,
            (true, false, true) => {
                // `code` is in the upper half; restrict the rect to it.
                zmin = (zmin & !(mask | lower)) | mask;
            }
            (true, true, true) => {}
            // zmin's bit above zmax's is impossible for corner codes.
            (_, true, false) => unreachable!("inverted rectangle corner codes"),
        }
    }
    result
}

/// One sorted run of `(key, position)` pairs (columns kept parallel).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Run {
    keys: Vec<u64>,
    pos: Vec<u32>,
}

impl Run {
    fn from_pairs(mut pairs: Vec<(u64, u32)>) -> Run {
        pairs.sort_unstable();
        Run { keys: pairs.iter().map(|p| p.0).collect(), pos: pairs.iter().map(|p| p.1).collect() }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Merges two sorted runs into one (stable on equal keys: `self` first —
    /// but pairs are unique by position, and `from_pairs` sorts by
    /// `(key, pos)`, so merged order is simply ascending `(key, pos)`).
    fn merge(self, other: Run) -> Run {
        let mut keys = Vec::with_capacity(self.len() + other.len());
        let mut pos = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.len() && j < other.len() {
            if (self.keys[i], self.pos[i]) <= (other.keys[j], other.pos[j]) {
                keys.push(self.keys[i]);
                pos.push(self.pos[i]);
                i += 1;
            } else {
                keys.push(other.keys[j]);
                pos.push(other.pos[j]);
                j += 1;
            }
        }
        keys.extend_from_slice(&self.keys[i..]);
        pos.extend_from_slice(&self.pos[i..]);
        keys.extend_from_slice(&other.keys[j..]);
        pos.extend_from_slice(&other.pos[j..]);
        Run { keys, pos }
    }

    /// Visits every position whose key's coordinates satisfy `x <= xb` and
    /// `y >= ya`, in ascending `(key, pos)` order, skipping out-of-rect key
    /// gaps via BIGMIN.
    fn scan(&self, xb: u32, ya: u32, visit: &mut impl FnMut(u32)) {
        let zmin = morton(0, ya);
        let zmax = morton(xb, u32::MAX);
        let mut i = self.keys.partition_point(|&k| k < zmin);
        while i < self.keys.len() {
            let k = self.keys[i];
            if k > zmax {
                break;
            }
            let (x, y) = demorton(k);
            if x <= xb && y >= ya {
                visit(self.pos[i]);
                i += 1;
            } else {
                match bigmin(k, zmin, zmax) {
                    Some(next) => i += self.keys[i..].partition_point(|&kk| kk < next),
                    None => break,
                }
            }
        }
    }
}

/// A sorted-run index mapping z-order summary keys to store positions.
///
/// Writes go to an unsorted staged tail; once the tail outgrows
/// `16 + len/16` it is sorted into a new run, and adjacent runs within 2x of
/// each other's size merge (LSM-style), so the run count stays `O(log n)`
/// and amortized insert cost `O(log n)`. Rebuilds ([`Self::bulk_load`])
/// produce a single sorted run in one shot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SortableSummaryIndex {
    /// Sorted runs, oldest first; sizes decrease (roughly geometrically).
    runs: Vec<Run>,
    /// Recent inserts, unsorted, scanned linearly until compacted.
    staged: Vec<(u64, u32)>,
}

impl SortableSummaryIndex {
    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.runs.iter().map(Run::len).sum::<usize>() + self.staged.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.staged.is_empty()
    }

    /// Number of sorted runs (compaction observability).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.staged.clear();
    }

    /// Indexes a store position under a key; compacts the staged tail when
    /// it outgrows its bound.
    pub fn insert(&mut self, key: u64, pos: u32) {
        self.staged.push((key, pos));
        if self.staged.len() > 16 + (self.len() - self.staged.len()) / 16 {
            self.compact();
        }
    }

    /// Sorts the staged tail into a run and merges runs of similar size.
    // Run merges amortize to O(log n) reallocations per insert; no ingest path indexes summaries.
    pub fn compact(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        self.runs.push(Run::from_pairs(std::mem::take(&mut self.staged)));
        while self.runs.len() >= 2 {
            let last = self.runs[self.runs.len() - 1].len();
            let prev = self.runs[self.runs.len() - 2].len();
            if prev > 2 * last {
                break;
            }
            let a = self.runs.pop().unwrap_or_default();
            let b = self.runs.pop().unwrap_or_default();
            self.runs.push(b.merge(a));
        }
    }

    /// Replaces the whole index with one bulk-loaded sorted run.
    pub fn bulk_load(&mut self, pairs: impl IntoIterator<Item = (u64, u32)>) {
        self.clear();
        let pairs: Vec<(u64, u32)> = pairs.into_iter().collect();
        if !pairs.is_empty() {
            self.runs.push(Run::from_pairs(pairs));
        }
    }

    /// Visits the position of every summary whose dim-0 extent may intersect
    /// `[a, b]` — a conservative superset of the exact intersection, visited
    /// in deterministic (run order, then staged insertion) order.
    pub fn for_overlapping(&self, a: f64, b: f64, mut visit: impl FnMut(u32)) {
        // extent intersects [a, b]  <=>  low0 <= b && high0 >= a, which the
        // monotone encoding relaxes to enc(low0) <= enc(b) && enc(high0) >= enc(a).
        let xb = encode_f64(b);
        let ya = encode_f64(a);
        for run in &self.runs {
            run.scan(xb, ya, &mut visit);
        }
        for &(k, pos) in &self.staged {
            let (x, y) = demorton(k);
            if x <= xb && y >= ya {
                visit(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_monotone_on_interesting_values() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            -0.0,
            0.0,
            1e-300,
            0.5,
            1.0,
            333.25,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                encode_f64(w[0]) <= encode_f64(w[1]),
                "{} -> {:#x} vs {} -> {:#x}",
                w[0],
                encode_f64(w[0]),
                w[1],
                encode_f64(w[1])
            );
        }
        assert_eq!(encode_f64(-0.0), encode_f64(0.0));
    }

    #[test]
    fn decode_is_right_inverse_of_encode() {
        for u in [0u32, 1, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, 0xFFFF_FFFE, 0xFFFF_FFFF] {
            assert_eq!(encode_f64(decode_f64(u)), u, "u = {u:#x}");
        }
    }

    #[test]
    fn morton_roundtrip() {
        for (x, y) in [(0u32, 0u32), (1, 0), (0, 1), (0xFFFF_FFFF, 0), (123_456, 0xDEAD_BEEF)] {
            assert_eq!(demorton(morton(x, y)), (x, y));
        }
        assert_eq!(morton(0xFFFF_FFFF, 0xFFFF_FFFF), u64::MAX);
    }

    #[test]
    fn sortable_key_roundtrips_through_decode() {
        for (l, h) in [(-1.5f64, 2.5f64), (0.0, 0.0), (-0.0, 3.0), (1e-9, 1e9)] {
            let k = sortable_key(l, h);
            let (dl, dh) = decode_sortable_key(k);
            assert_eq!(sortable_key(dl, dh), k, "extent ({l}, {h})");
        }
    }

    /// Brute-force reference for BIGMIN over small coordinate spaces.
    fn bigmin_naive(code: u64, xb: u32, ya: u32, coord_bits: u32) -> Option<u64> {
        let lim = 1u32 << coord_bits;
        let mut best = None;
        for x in 0..lim.min(xb.saturating_add(1)) {
            for y in ya..lim {
                let z = morton(x, y);
                if z > code && best.is_none_or(|b| z < b) {
                    best = Some(z);
                }
            }
        }
        best
    }

    #[test]
    fn bigmin_matches_brute_force() {
        // Exhaustive over a 4-bit coordinate space and a grid of rectangles.
        for xb in [0u32, 1, 3, 7, 9, 15] {
            for ya in [0u32, 1, 4, 8, 15] {
                let zmin = morton(0, ya);
                let zmax = morton(xb, 15);
                for code in 0..=morton(15, 15) {
                    let got = bigmin(code, zmin, zmax);
                    let want = bigmin_naive(code, xb, ya, 4);
                    assert_eq!(got, want, "code={code:#x} rect x<= {xb} y>= {ya}");
                }
            }
        }
    }

    #[test]
    fn index_query_matches_linear_filter() {
        // Pseudo-random extents; compare indexed superset *post-filter*
        // against a direct interval-overlap scan.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        };
        let mut extents: Vec<(f64, f64)> = Vec::new();
        let mut idx = SortableSummaryIndex::default();
        for i in 0..500u32 {
            let (a, b) = (next(), next());
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            extents.push((lo, hi));
            idx.insert(sortable_key(lo, hi), i);
        }
        assert!(idx.run_count() >= 1, "inserts must have compacted into runs");
        for qi in 0..60 {
            let (a, b) = (next(), next());
            let (qa, qb) = if a <= b { (a, b) } else { (b, a) };
            let mut got: Vec<u32> = Vec::new();
            idx.for_overlapping(qa, qb, |p| {
                let (lo, hi) = extents[p as usize];
                if lo <= qb && hi >= qa {
                    got.push(p);
                }
            });
            got.sort_unstable();
            let want: Vec<u32> = (0..extents.len() as u32)
                .filter(|&p| {
                    let (lo, hi) = extents[p as usize];
                    lo <= qb && hi >= qa
                })
                .collect();
            assert_eq!(got, want, "query {qi}: [{qa}, {qb}]");
        }
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let extents: Vec<(f64, f64)> =
            (0..100).map(|i| (i as f64 * 0.1 - 5.0, i as f64 * 0.1 - 4.5)).collect();
        let mut inc = SortableSummaryIndex::default();
        let mut bulk = SortableSummaryIndex::default();
        for (i, &(l, h)) in extents.iter().enumerate() {
            inc.insert(sortable_key(l, h), i as u32);
        }
        bulk.bulk_load(
            extents.iter().enumerate().map(|(i, &(l, h))| (sortable_key(l, h), i as u32)),
        );
        assert_eq!(bulk.run_count(), 1);
        assert_eq!(inc.len(), bulk.len());
        let collect = |ix: &SortableSummaryIndex, a: f64, b: f64| {
            let mut v = Vec::new();
            ix.for_overlapping(a, b, |p| v.push(p));
            v.sort_unstable();
            v
        };
        for (a, b) in [(-5.0, -4.8), (-1.0, 1.0), (4.0, 9.0), (-100.0, 100.0)] {
            assert_eq!(collect(&inc, a, b), collect(&bulk, a, b));
        }
    }

    #[test]
    fn infinite_extents_always_visited() {
        let mut idx = SortableSummaryIndex::default();
        idx.insert(sortable_key(f64::NEG_INFINITY, f64::INFINITY), 0);
        idx.compact();
        for (a, b) in [(0.0, 0.0), (-1e300, 1e300), (5.0, 6.0)] {
            let mut hit = false;
            idx.for_overlapping(a, b, |p| hit |= p == 0);
            assert!(hit, "query [{a}, {b}] missed the whole-axis extent");
        }
    }
}
