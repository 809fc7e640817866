//! Trace record types.
//!
//! A [`TraceRecord`] is one overlay event: either the *origination* of a
//! logical message chain (an MBR replication, a query post, a response, a
//! churn-repair transfer) or one *hop* of that chain between two nodes.
//! Records form trees: every `Hop` points at its parent record, and the
//! root of each tree is an `Origin` record. Walking any record's parent
//! chain therefore terminates at the event that caused it — this is the
//! causality invariant the conformance suite checks.
//!
//! The `class` field is the `dsi_simnet::MsgClass` *index* (a `u8`), not
//! the enum itself: this crate sits below `simnet` in the dependency graph
//! so that `chord` can also use it. Callers pass `MsgClass::index() as u8`
//! and map back with `MsgClass::from_index` when rendering.

use serde::{Deserialize, Serialize};

/// Unique id of a trace record within one [`crate::Tracer`] lifetime.
///
/// Ids are assigned from a monotone counter, so `a.0 < b.0` implies `a`
/// was recorded before `b` — parents always have smaller ids than their
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId(pub u64);

/// What kind of event a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// Root of a causal chain: a logical message was created at `from`
    /// (`from == to`, no network traffic of its own).
    Origin,
    /// One overlay message: the chain moved `from -> to`.
    Hop,
}

/// One traced overlay event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Unique id of this record.
    pub id: MsgId,
    /// Parent record in the causal chain; `None` iff `kind == Origin`.
    pub parent: Option<MsgId>,
    /// Origin or hop.
    pub kind: RecordKind,
    /// `MsgClass::index()` of the message (or of the chain, for origins).
    pub class: u8,
    /// Sending node id (for origins, the originating node).
    pub from: u64,
    /// Receiving node id (for origins, equal to `from`).
    pub to: u64,
    /// Simulated send time, milliseconds.
    pub sent_ms: u64,
    /// Simulated receive time, milliseconds (`>= sent_ms`).
    pub recv_ms: u64,
    /// Number of hops from the chain's origin to this record (0 for origins).
    pub depth: u32,
    /// When `Some(c)`, this record is the point where the cluster logged
    /// `Metrics::record_hops(class_from_index(c), depth)`. The audit pass
    /// reconstructs hop counters from exactly these markers.
    pub hops_class: Option<u8>,
}

/// Metadata for one traced range multicast: the key range it targeted and
/// the root of its causal tree. The audit pass reconstructs the delivery
/// set from the tree and compares it against the brute-force owner set of
/// `[lo, hi]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastMeta {
    /// Origin record of the multicast's causal tree.
    pub root: MsgId,
    /// Node that initiated the multicast.
    pub origin: u64,
    /// Inclusive lower bound of the targeted key range.
    pub lo: u64,
    /// Inclusive upper bound of the targeted key range (may wrap past 0).
    pub hi: u64,
}

/// Position in a causal chain, returned by [`crate::Tracer::originate`] and
/// [`crate::Tracer::hop`] so callers can append further hops. Copyable and
/// meaningful even when tracing is disabled (a sentinel no-op cursor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor {
    /// Record id to use as `parent` for the next hop.
    pub id: MsgId,
    /// Depth of the record this cursor points at.
    pub depth: u32,
    /// Receive time of the record this cursor points at (next hop's send time).
    pub at_ms: u64,
}
