//! The hasher of the per-node message counters.
//!
//! `Metrics::{sent, received}` are probed twice per overlay message; with
//! the standard library's SipHash those probes cost more than the counters
//! they guard. Node identifiers are SHA-1 output of labels this program
//! chooses (never keys an outside party could craft to collide), so one
//! folded multiply is enough to spread them over a table.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for `u64` node identifiers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        // Folded multiply: the 128-bit product's high half carries every
        // input bit upward, its low half downward; their xor varies in both
        // the bucket bits (low) and the control-byte bits (top) of the table.
        let wide = u128::from(self.0 ^ id) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not taken by `u64` keys; kept correct for any other key type.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` of node-keyed maps (`DetMap<u64, V, NodeIdHash>`).
pub type NodeIdHash = BuildHasherDefault<NodeIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detmap::DetMap;
    use std::hash::BuildHasher;

    #[test]
    fn node_keyed_map_behaves_like_a_map() {
        let mut m: DetMap<u64, u64, NodeIdHash> = DetMap::default();
        for id in (0..10_000u64).map(|i| i.wrapping_mul(0x1234_5678_9abc_def1)) {
            *m.entry(id).or_default() += id;
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&0), Some(&0));
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn evenly_spaced_ids_spread_over_low_and_high_bits() {
        // Virtual identifiers from re-weighting are arithmetic progressions,
        // not SHA-1 output: both the bucket bits (low) and the control-byte
        // bits (top 7) must still vary.
        let hash = |id: u64| NodeIdHash::default().hash_one(id);
        let mut low = std::collections::BTreeSet::new();
        let mut high = std::collections::BTreeSet::new();
        for k in 0..1024u64 {
            let h = hash(k << 20);
            low.insert(h & 0x3ff);
            high.insert(h >> 57);
        }
        // 1024 uniform draws over 1024 buckets hit about 647 of them.
        assert!(low.len() > 550, "only {} of 1024 low-bit patterns", low.len());
        assert_eq!(high.len(), 128, "top-7-bit patterns");
    }
}
