//! Ring-buffered trace sink.
//!
//! The [`Tracer`] is embedded in `Cluster` and is *disabled by default*:
//! every recording entry point checks one boolean and returns immediately,
//! so the instrumented hot paths pay a predictable, branch-predicted test
//! and nothing else (the zero-cost-when-disabled contract, see DESIGN.md
//! §10). When enabled, records go into a bounded ring buffer — once
//! `capacity` is reached the oldest records are evicted and counted in
//! [`Tracer::dropped`]; audits require `dropped == 0` to be exact.

use crate::record::{Cursor, MsgId, MulticastMeta, RecordKind, TraceRecord};
use std::collections::VecDeque;

/// Analytic per-hop latency used to stamp `recv_ms`, mirroring
/// `dsi_simnet::HOP_DELAY_MS`. Restated here (not imported) so this crate
/// stays below `simnet` in the crate graph.
pub const DEFAULT_HOP_MS: u64 = 50;

/// Result of tracing a full route path: the root origin record plus a
/// cursor at the route's tail (the owner-side arrival), from which
/// multicast forwards chain onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteTrace {
    /// Origin record of the chain.
    pub root: MsgId,
    /// Cursor at the last record of the route (the origin itself for
    /// zero-hop routes).
    pub tail: Cursor,
}

/// Bounded causal trace sink. See module docs.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    now_ms: u64,
    next_id: u64,
    dropped: u64,
    records: VecDeque<TraceRecord>,
    multicasts: Vec<MulticastMeta>,
    suppressed: Vec<u64>,
}

impl Tracer {
    /// A disabled tracer: every recording call is a no-op.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: 0,
            now_ms: 0,
            next_id: 0,
            dropped: 0,
            records: VecDeque::new(),
            multicasts: Vec::new(),
            suppressed: Vec::new(),
        }
    }

    /// Enable recording into a ring buffer of at most `capacity` records.
    /// Clears any previously captured state.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity.max(1);
        self.clear();
    }

    /// Whether recording entry points currently capture anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drop all captured records, multicast metadata, and counters.
    pub fn clear(&mut self) {
        self.records.clear();
        self.multicasts.clear();
        self.next_id = 0;
        self.dropped = 0;
        self.suppressed.clear();
    }

    /// Count one message of `class` that a network partition suppressed
    /// before it could produce any trace records. Unlike record-producing
    /// entry points this also counts while the tracer is disabled: the
    /// counters are plain tallies audited against `Metrics`, not buffered
    /// records, so they never touch the golden trace digest (which derives
    /// from records only).
    pub fn note_suppressed(&mut self, class: u8) {
        let idx = class as usize;
        if self.suppressed.len() <= idx {
            self.suppressed.resize(idx + 1, 0);
        }
        self.suppressed[idx] += 1;
    }

    /// Messages of `class` suppressed by partitions since the last clear.
    pub fn suppressed(&self, class: u8) -> u64 {
        self.suppressed.get(class as usize).copied().unwrap_or(0)
    }

    /// Total partition-suppressed messages across all classes.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed.iter().sum()
    }

    /// Set the simulated wall clock used to stamp subsequent originations.
    #[inline]
    pub fn set_now_ms(&mut self, ms: u64) {
        self.now_ms = ms;
    }

    /// Current simulated wall clock, milliseconds.
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Number of records evicted by the ring bound since the last clear.
    /// Audits are exact only when this is zero.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate buffered records in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter()
    }

    /// Clone the buffered records out as a contiguous vector.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.iter().cloned().collect()
    }

    /// Metadata of every traced multicast, in issue order.
    pub fn multicasts(&self) -> &[MulticastMeta] {
        &self.multicasts
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    fn fresh_id(&mut self) -> MsgId {
        let id = MsgId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Record the origination of a causal chain at `node`, stamped with the
    /// current clock. `hops_class` marks origins of zero-hop chains whose
    /// hop count (0) was still logged to `Metrics::record_hops`.
    ///
    /// Returns a cursor for chaining; when disabled, a sentinel no-op
    /// cursor (callers need not branch).
    pub fn originate(&mut self, class: u8, node: u64, hops_class: Option<u8>) -> Cursor {
        let at = self.now_ms;
        if !self.enabled {
            return Cursor { id: MsgId(u64::MAX), depth: 0, at_ms: at };
        }
        let id = self.fresh_id();
        self.push(TraceRecord {
            id,
            parent: None,
            kind: RecordKind::Origin,
            class,
            from: node,
            to: node,
            sent_ms: at,
            recv_ms: at,
            depth: 0,
            hops_class,
        });
        Cursor { id, depth: 0, at_ms: at }
    }

    /// Record one overlay hop `from -> to` continuing the chain at
    /// `parent`. Send time is the parent's receive time; receive time adds
    /// the analytic hop delay, so times are monotone along every chain.
    pub fn hop(
        &mut self,
        parent: Cursor,
        class: u8,
        from: u64,
        to: u64,
        hops_class: Option<u8>,
    ) -> Cursor {
        if !self.enabled {
            return Cursor { id: MsgId(u64::MAX), depth: parent.depth + 1, at_ms: parent.at_ms };
        }
        let sent = parent.at_ms;
        let recv = sent + DEFAULT_HOP_MS;
        let depth = parent.depth + 1;
        let id = self.fresh_id();
        self.push(TraceRecord {
            id,
            parent: Some(parent.id),
            kind: RecordKind::Hop,
            class,
            from,
            to,
            sent_ms: sent,
            recv_ms: recv,
            depth,
            hops_class,
        });
        Cursor { id, depth, at_ms: recv }
    }

    /// Trace a full lookup path (`path[0]` is the querying node, the last
    /// element the owner) as one chain: the first hop carries `base`, the
    /// rest `transit` — mirroring `Metrics::record_route`. When
    /// `log_hops` is set, the record corresponding to the logical
    /// `record_hops(base, path.len() - 1)` call is marked (the route tail,
    /// or the origin itself for single-node paths).
    ///
    /// Returns `None` when disabled or `path` is empty.
    pub fn route(
        &mut self,
        path: &[u64],
        base: u8,
        transit: u8,
        log_hops: bool,
    ) -> Option<RouteTrace> {
        if !self.enabled || path.is_empty() {
            return None;
        }
        let origin_marker = if log_hops && path.len() == 1 { Some(base) } else { None };
        let origin = self.originate(base, path[0], origin_marker);
        let root = origin.id;
        let mut cur = origin;
        let last = path.len() - 1;
        for (i, pair) in path.windows(2).enumerate() {
            let class = if i == 0 { base } else { transit };
            let marker = if log_hops && i + 1 == last { Some(base) } else { None };
            cur = self.hop(cur, class, pair[0], pair[1], marker);
        }
        Some(RouteTrace { root, tail: cur })
    }

    /// Trace a single one-hop logical message (origin + one hop), the
    /// shape of `record_message(class, from, to)` + `record_hops(class, 1)`
    /// pairs (neighbor exchanges, churn-repair transfers).
    pub fn single(&mut self, class: u8, from: u64, to: u64) {
        if !self.enabled {
            return;
        }
        let origin = self.originate(class, from, None);
        self.hop(origin, class, from, to, Some(class));
    }

    /// Attach range metadata to a traced multicast rooted at `root`.
    pub fn push_multicast(&mut self, root: MsgId, origin: u64, lo: u64, hi: u64) {
        if !self.enabled {
            return;
        }
        self.multicasts.push(MulticastMeta { root, origin, lo, hi });
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let c = t.originate(0, 7, None);
        let c2 = t.hop(c, 1, 7, 9, None);
        t.single(2, 1, 2);
        assert!(t.route(&[1, 2, 3], 0, 1, true).is_none());
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(t.multicasts().is_empty());
        // Cursors still chain coherently.
        assert_eq!(c2.depth, 1);
    }

    #[test]
    fn route_layout_matches_record_route_semantics() {
        let mut t = Tracer::disabled();
        t.enable(1024);
        t.set_now_ms(1_000);
        let rt = t.route(&[10, 20, 30, 40], 3, 5, true).unwrap();
        let recs = t.snapshot();
        assert_eq!(recs.len(), 4); // origin + 3 hops
        assert_eq!(recs[0].kind, RecordKind::Origin);
        assert_eq!(recs[0].hops_class, None);
        assert_eq!(recs[1].class, 3); // base on first hop
        assert_eq!(recs[2].class, 5); // transit after
        assert_eq!(recs[3].class, 5);
        assert_eq!(recs[3].hops_class, Some(3)); // hops logged at tail, base class
        assert_eq!(recs[3].depth, 3);
        assert_eq!(rt.tail.id, recs[3].id);
        // Times monotone: 1000 -> 1050 -> 1100 -> 1150.
        assert_eq!(recs[3].sent_ms, 1_100);
        assert_eq!(recs[3].recv_ms, 1_150);
    }

    #[test]
    fn zero_hop_route_marks_origin() {
        let mut t = Tracer::disabled();
        t.enable(16);
        let rt = t.route(&[5], 2, 4, true).unwrap();
        let recs = t.snapshot();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].kind, RecordKind::Origin);
        assert_eq!(recs[0].hops_class, Some(2));
        assert_eq!(rt.tail.depth, 0);
    }

    #[test]
    fn ring_bound_evicts_and_counts() {
        let mut t = Tracer::disabled();
        t.enable(3);
        for i in 0..5 {
            t.originate(0, i, None);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        // Oldest evicted: remaining ids are 2, 3, 4.
        assert_eq!(t.iter().next().unwrap().id, MsgId(2));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Tracer::disabled();
        t.enable(2);
        t.single(0, 1, 2);
        t.push_multicast(MsgId(0), 1, 0, 10);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
        assert!(t.multicasts().is_empty());
        // Ids restart from zero after clear.
        let c = t.originate(0, 1, None);
        assert_eq!(c.id, MsgId(0));
    }
}
