//! Deterministic seeded hashing for the Count-Min rows.
//!
//! Every hash is a pure function of `(seed, row, item)` — no `RandomState`,
//! no process entropy (DESIGN.md §11) — so two data centers constructing a
//! sketch from the same [`crate::SketchParams`] bucket every item
//! identically, which is what makes the sketches mergeable counter-wise.

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-row hash seed: decorrelates the `d` Count-Min rows from one shared
/// sketch seed.
#[inline]
pub fn row_seed(seed: u64, row: usize) -> u64 {
    mix64(seed ^ mix64(row as u64 + 1))
}

/// Column of `item` in row `row` of a width-`width` Count-Min grid.
#[inline]
pub fn bucket(seed: u64, row: usize, item: u64, width: usize) -> usize {
    debug_assert!(width > 0, "Count-Min width must be positive");
    // Multiply-shift over the mixed value: the high bits carry the most
    // avalanche, so map them to the column range instead of `% width`.
    let h = mix64(item ^ row_seed(seed, row));
    ((h as u128 * width as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_is_deterministic_and_in_range() {
        for item in 0..1000u64 {
            for row in 0..4 {
                let a = bucket(7, row, item, 37);
                let b = bucket(7, row, item, 37);
                assert_eq!(a, b);
                assert!(a < 37);
            }
        }
    }

    #[test]
    fn rows_are_decorrelated() {
        // Two rows agreeing on every item would defeat the min-of-rows
        // estimate; count collisions over a small universe.
        let mut agree = 0usize;
        for item in 0..512u64 {
            if bucket(42, 0, item, 64) == bucket(42, 1, item, 64) {
                agree += 1;
            }
        }
        // Expected ~512/64 = 8 agreements for independent hashes.
        assert!(agree < 40, "rows look correlated: {agree}/512 collisions");
    }

    #[test]
    fn seeds_change_the_layout() {
        let moved = (0..256u64).filter(|&i| bucket(1, 0, i, 64) != bucket(2, 0, i, 64)).count();
        assert!(moved > 128, "changing the seed must reshuffle most items, moved {moved}");
    }
}
