//! # dsi-simnet — discrete-event network simulator
//!
//! The substrate standing in for the MIT Chord simulator the paper linked
//! against: a deterministic timed-event replay engine plus the measurement
//! machinery for the paper's three scalability characteristics.
//!
//! * [`time::SimTime`] — virtual clock in milliseconds;
//! * [`engine::Engine`] — binary-heap event queue with FIFO tie-breaking;
//! * [`poisson::PoissonArrivals`] — query arrival process;
//! * [`net::HOP_DELAY_MS`] — the paper's constant 50 ms per overlay hop;
//! * [`faults`] — seeded drop/duplicate/delay fault injection and
//!   per-class [`faults::FaultPlan`]s (partitions are topology cuts made
//!   by the ring, not faults drawn here), plus the [`engine::DelayQueue`]
//!   re-delivery pen;
//! * [`metrics`] — per-node load components (Fig. 6), per-event message
//!   overhead (Fig. 7) and hop counts (Fig. 8), its per-node counters
//!   keyed through the private `nodehash` hasher;
//! * [`DetMap`] — the workspace's hash map: lookups and updates, but no
//!   iteration in hash order (clippy's `disallowed_types` bans the
//!   standard `HashMap` and `HashSet` in every crate but the benchmark's).

#![warn(missing_docs)]
// Crate-level override on top of the shared [workspace.lints] policy: the
// event engine drives every simulated message, so panic sites must be
// deliberate, documented invariants (`expect`), never a bare `unwrap`.
// Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod detmap;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod net;
mod nodehash;
pub mod poisson;
pub mod time;

pub use detmap::DetMap;
pub use engine::{DelayQueue, Engine};
pub use faults::{FaultOutcome, FaultPlan, FaultSpec};
pub use metrics::{Histogram, InputEvent, Metrics, MsgClass, NUM_CLASSES};
pub use net::HOP_DELAY_MS;
pub use poisson::PoissonArrivals;
pub use time::SimTime;
