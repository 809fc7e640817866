//! Trace-derived oracles.
//!
//! A trace is only trustworthy if it can be *reconciled* with the
//! independent aggregate counters (`dsi_simnet::Metrics`). This module
//! reconstructs those counters from the raw records:
//!
//! - per-class message totals = count of `Hop` records of that class,
//! - per-class `hop_count` / `hop_sum` = count / depth-sum of records
//!   carrying `hops_class == Some(class)`,
//! - per-multicast delivery sets = the receivers reachable in the causal
//!   tree under each [`MulticastMeta`] root.
//!
//! The conformance suite asserts these equal the live `Metrics` *bit for
//! bit*, and that delivery sets equal brute-force owner sets.

use crate::record::{MulticastMeta, RecordKind, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// Counters reconstructed from a trace, index-aligned with
/// `MsgClass::index()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAudit {
    /// Messages per class (`Metrics::total`).
    pub messages: Vec<u64>,
    /// Hop-log events per class (`Metrics::hop_count`).
    pub hop_count: Vec<u64>,
    /// Summed hop counts per class (`Metrics::hop_sum`).
    pub hop_sum: Vec<u64>,
    /// Origin records seen (number of causal chains).
    pub chains: u64,
}

/// Reconstruct per-class counters from `records`.
pub fn audit<'a, I>(records: I, num_classes: usize) -> TraceAudit
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut out = TraceAudit {
        messages: vec![0; num_classes],
        hop_count: vec![0; num_classes],
        hop_sum: vec![0; num_classes],
        chains: 0,
    };
    for rec in records {
        match rec.kind {
            RecordKind::Origin => out.chains += 1,
            RecordKind::Hop => {
                let c = rec.class as usize;
                if c < num_classes {
                    out.messages[c] += 1;
                }
            }
        }
        if let Some(hc) = rec.hops_class {
            let c = hc as usize;
            if c < num_classes {
                out.hop_count[c] += 1;
                out.hop_sum[c] += rec.depth as u64;
            }
        }
    }
    out
}

/// Check the structural causality invariants of a complete trace
/// (`dropped == 0`): every `Hop` has a buffered parent with
/// `depth + 1 == child.depth`, `sent_ms == parent.recv_ms`, and
/// `recv_ms >= sent_ms`; every `Origin` is parentless at depth 0; ids are
/// unique. Returns the first violation as an error string.
pub fn validate_causality<'a, I>(records: I) -> Result<(), String>
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let records: Vec<&TraceRecord> = records.into_iter().collect();
    let mut by_id: BTreeMap<u64, &TraceRecord> = BTreeMap::new();
    for rec in &records {
        if by_id.insert(rec.id.0, rec).is_some() {
            return Err(format!("duplicate record id {}", rec.id.0));
        }
    }
    for rec in &records {
        if rec.recv_ms < rec.sent_ms {
            return Err(format!("record {} received before sent", rec.id.0));
        }
        match (rec.kind, rec.parent) {
            (RecordKind::Origin, Some(_)) => {
                return Err(format!("origin {} has a parent", rec.id.0));
            }
            (RecordKind::Origin, None) => {
                if rec.depth != 0 || rec.from != rec.to || rec.sent_ms != rec.recv_ms {
                    return Err(format!("malformed origin {}", rec.id.0));
                }
            }
            (RecordKind::Hop, None) => {
                return Err(format!("hop {} has no parent", rec.id.0));
            }
            (RecordKind::Hop, Some(p)) => {
                let parent = by_id
                    .get(&p.0)
                    .ok_or_else(|| format!("hop {} parent {} missing", rec.id.0, p.0))?;
                if parent.id.0 >= rec.id.0 {
                    return Err(format!("hop {} precedes its parent {}", rec.id.0, p.0));
                }
                if parent.depth + 1 != rec.depth {
                    return Err(format!("hop {} depth not parent+1", rec.id.0));
                }
                if rec.sent_ms != parent.recv_ms {
                    return Err(format!("hop {} sent != parent recv", rec.id.0));
                }
                if rec.from != parent.to {
                    return Err(format!("hop {} does not depart from parent arrival", rec.id.0));
                }
            }
        }
    }
    Ok(())
}

/// The set of nodes a traced multicast delivered to, reconstructed from
/// its causal tree: the route tail (deepest record whose class is *not* in
/// `internal_classes` — the entry node) plus the receiver of every
/// internal-class forward hop. For a multicast whose origin is also the
/// entry (zero-hop route), the origin node itself is the entry.
pub fn multicast_delivery_set(
    records: &[TraceRecord],
    meta: &MulticastMeta,
    internal_classes: &[u8],
) -> BTreeSet<u64> {
    let mut children: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for rec in records {
        if let Some(p) = rec.parent {
            children.entry(p.0).or_default().push(rec);
        }
    }
    let mut delivered = BTreeSet::new();
    let mut entry = (0u32, meta.origin); // (depth, node) of deepest non-internal record
    let mut stack = vec![meta.root.0];
    while let Some(id) = stack.pop() {
        if let Some(kids) = children.get(&id) {
            for rec in kids {
                if internal_classes.contains(&rec.class) {
                    delivered.insert(rec.to);
                } else if rec.depth >= entry.0 {
                    entry = (rec.depth, rec.to);
                }
                stack.push(rec.id.0);
            }
        }
    }
    delivered.insert(entry.1);
    delivered
}

/// Stable FNV-1a (64-bit) digest over every record field plus multicast
/// metadata, rendered as hex. Used for compact golden-trace comparison.
pub fn digest(records: &[TraceRecord], multicasts: &[MulticastMeta]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for rec in records {
        eat(rec.id.0);
        eat(rec.parent.map_or(u64::MAX, |p| p.0));
        eat(match rec.kind {
            RecordKind::Origin => 0,
            RecordKind::Hop => 1,
        });
        eat(rec.class as u64);
        eat(rec.from);
        eat(rec.to);
        eat(rec.sent_ms);
        eat(rec.recv_ms);
        eat(rec.depth as u64);
        eat(rec.hops_class.map_or(u64::MAX, |c| c as u64));
    }
    for m in multicasts {
        eat(m.root.0);
        eat(m.origin);
        eat(m.lo);
        eat(m.hi);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn traced_multicast(t: &mut Tracer) {
        // Route 1 -> 2 -> 3 (entry), then forwards 3 -> 4 and 4 -> 5.
        let rt = t.route(&[1, 2, 3], 0, 2, true).unwrap();
        let f1 = t.hop(rt.tail, 1, 3, 4, Some(1));
        t.hop(f1, 1, 4, 5, Some(1));
        t.push_multicast(rt.root, 1, 100, 200);
    }

    #[test]
    fn audit_counts_messages_and_hops() {
        let mut t = Tracer::disabled();
        t.enable(64);
        traced_multicast(&mut t);
        let recs = t.snapshot();
        let a = audit(recs.iter(), 3);
        assert_eq!(a.messages, vec![1, 2, 1]); // base, internal x2, transit
        assert_eq!(a.hop_count, vec![1, 2, 0]);
        assert_eq!(a.hop_sum, vec![2, 3 + 4, 0]);
        assert_eq!(a.chains, 1);
    }

    #[test]
    fn causality_validates_well_formed_trace() {
        let mut t = Tracer::disabled();
        t.enable(64);
        t.set_now_ms(10);
        traced_multicast(&mut t);
        t.single(2, 9, 8);
        validate_causality(t.iter()).unwrap();
    }

    #[test]
    fn causality_rejects_evicted_parent() {
        let mut t = Tracer::disabled();
        t.enable(2); // origin evicted by the two hops that follow
        t.route(&[1, 2, 3], 0, 1, false);
        assert!(t.dropped() > 0);
        assert!(validate_causality(t.iter()).is_err());
    }

    #[test]
    fn delivery_set_covers_entry_and_forwards() {
        let mut t = Tracer::disabled();
        t.enable(64);
        traced_multicast(&mut t);
        let recs = t.snapshot();
        let set = multicast_delivery_set(&recs, &t.multicasts()[0], &[1]);
        assert_eq!(set, BTreeSet::from([3, 4, 5]));
    }

    #[test]
    fn delivery_set_of_zero_hop_multicast_is_origin() {
        let mut t = Tracer::disabled();
        t.enable(16);
        let rt = t.route(&[7], 0, 2, true).unwrap();
        t.push_multicast(rt.root, 7, 0, 1);
        let recs = t.snapshot();
        let set = multicast_delivery_set(&recs, &t.multicasts()[0], &[1]);
        assert_eq!(set, BTreeSet::from([7]));
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let mut t = Tracer::disabled();
        t.enable(64);
        traced_multicast(&mut t);
        let d1 = digest(&t.snapshot(), t.multicasts());
        let d2 = digest(&t.snapshot(), t.multicasts());
        assert_eq!(d1, d2);
        let mut recs = t.snapshot();
        recs[0].from ^= 1;
        assert_ne!(digest(&recs, t.multicasts()), d1);
    }
}
