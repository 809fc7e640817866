//! The network cost model.
//!
//! The Chord simulator the paper used "simulates a constant 50 ms delay per
//! hop when routing a message to the destination" (§V). We reproduce exactly
//! that model: latency is `hops * HOP_DELAY_MS`, and bandwidth is accounted
//! in messages (the unit all three evaluation metrics use).

/// Per-overlay-hop delay in milliseconds (the paper's constant).
pub const HOP_DELAY_MS: u64 = 50;
