//! # dsi-trace — causal message tracing for the DSI overlay
//!
//! Every logical message the middleware moves (MBR replications, range
//! multicasts, similarity queries, responses, churn repairs) becomes a
//! *causal chain* of [`TraceRecord`]s: one `Origin` record where the
//! chain starts and one `Hop` record per overlay message, each pointing
//! at its parent. The [`Tracer`] buffers them in a bounded ring and is a
//! strict no-op when disabled, so instrumented hot paths cost one
//! predictable branch (the zero-overhead contract — DESIGN.md §10).
//!
//! On top of the raw records:
//!
//! - [`stats`] — exact, mergeable latency/hop percentiles per message
//!   class ([`QuantileBuffer`], [`TraceStats`], [`TraceSummary`]);
//! - [`export`] — JSONL and chrome://tracing `trace_event` timelines;
//! - [`audit`](mod@audit) — reconstruction oracles: rebuild
//!   `Metrics`-equivalent counters and multicast delivery sets from the
//!   trace alone, so the conformance suite can demand bit-for-bit
//!   agreement with the live counters and brute-force owner sets.
//!
//! This crate deliberately sits at the bottom of the workspace (serde
//! only) so `chord`, `simnet`, and `core` can all thread tracing through
//! without cycles; message classes are passed as `u8` indices
//! (`MsgClass::index()`).

pub mod audit;
pub mod export;
pub mod record;
pub mod stats;
pub mod tracer;

pub use audit::{audit, digest, multicast_delivery_set, validate_causality, TraceAudit};
pub use export::{write_chrome_trace, write_jsonl};
pub use record::{Cursor, MsgId, MulticastMeta, RecordKind, TraceRecord};
pub use stats::{ClassStats, ClassSummary, Percentiles, QuantileBuffer, TraceStats, TraceSummary};
pub use tracer::{RouteTrace, Tracer, DEFAULT_HOP_MS};
