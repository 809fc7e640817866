//! Exact latency/hop percentile accounting over a trace.
//!
//! [`QuantileBuffer`] is a sorted-buffer accumulator: exact nearest-rank
//! percentiles, mergeable (merging two buffers gives the same answer as
//! one buffer over the union — no sketch error). Buffers hold `u64`
//! samples (milliseconds or hop counts), so the memory bound is
//! 8 bytes/sample against the tracer's ring capacity.
//!
//! [`TraceStats::compute`] walks the records once, resolves every
//! hop-marked record's chain origin through the parent links, and builds
//! per-`MsgClass` distributions of end-to-end chain latency
//! (`recv_ms - origin.sent_ms`) and chain hop counts.

use crate::record::TraceRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Exact mergeable quantile accumulator (sorted buffer).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileBuffer {
    sorted: Vec<u64>,
    dirty: bool,
}

impl QuantileBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, sample: u64) {
        self.sorted.push(sample);
        self.dirty = true;
    }

    /// Absorb all samples of `other`. Exact: the merged buffer answers
    /// every percentile query as if it had seen the union directly.
    pub fn merge(&mut self, other: &QuantileBuffer) {
        self.sorted.extend_from_slice(&other.sorted);
        self.dirty = true;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.sorted.sort_unstable();
            self.dirty = false;
        }
    }

    /// Exact **nearest-rank** percentile: the smallest sample `s` such that
    /// at least `p` of the distribution is `<= s`. Returns `None` on an
    /// empty buffer.
    ///
    /// # Interpolation contract
    /// There is **no interpolation**: the result is always one of the
    /// recorded samples, `sorted[rank - 1]` with
    /// `rank = ceil(p * n).clamp(1, n)` — identical to
    /// `Histogram::percentile` in `dsi-simnet`, so latency percentiles
    /// from the trace and from live metrics are comparable sample-for-
    /// sample. `p` is a fraction in `[0, 1]`, **not** a percent in
    /// `[0, 100]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile rank must be in [0, 1], got {p}");
        if self.sorted.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.sorted.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted[rank - 1])
    }

    /// Largest sample, `None` when empty.
    pub fn max(&mut self) -> Option<u64> {
        self.percentile(1.0)
    }

    /// Sum of all samples (exact, insertion-order independent).
    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }

    /// Arithmetic mean, `None` when empty. Exposed for max/mean load-balance
    /// envelopes: `max() / mean()` over per-node round loads is the hotspot
    /// ratio the load ledger and its oracle track.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sum() as f64 / self.sorted.len() as f64)
        }
    }
}

/// p50/p95/p99/max summary of one distribution. All zeros when `count == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Number of samples.
    pub count: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl Percentiles {
    /// Summarize a buffer.
    pub fn of(buf: &mut QuantileBuffer) -> Percentiles {
        Percentiles {
            count: buf.len() as u64,
            p50: buf.percentile(0.50).unwrap_or(0),
            p95: buf.percentile(0.95).unwrap_or(0),
            p99: buf.percentile(0.99).unwrap_or(0),
            max: buf.max().unwrap_or(0),
        }
    }
}

/// Per-class distributions for one message class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// `MsgClass::index()` this row describes.
    pub class: u8,
    /// Overlay messages of this class (hop records).
    pub messages: u64,
    /// End-to-end latency (ms) of hop-logged chains of this class.
    pub latency_ms: Percentiles,
    /// Hop counts of hop-logged chains of this class.
    pub hops: Percentiles,
}

/// Full per-class statistics computed from a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// One row per class index `0..num_classes`.
    pub classes: Vec<ClassStats>,
}

impl TraceStats {
    /// Walk `records` once and build per-class latency/hop distributions.
    ///
    /// A chain contributes to class `c` at every record carrying
    /// `hops_class == Some(c)` — the exact points where the cluster logged
    /// `Metrics::record_hops(c, depth)`. Latency is measured from the
    /// chain's origin (`recv_ms - origin.sent_ms`), resolved through the
    /// parent links, not inferred from the hop model.
    pub fn compute<'a, I>(records: I, num_classes: usize) -> TraceStats
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let records: Vec<&'a TraceRecord> = records.into_iter().collect();
        let by_id: BTreeMap<u64, &'a TraceRecord> = records.iter().map(|r| (r.id.0, *r)).collect();
        let origin_sent = |mut rec: &'a TraceRecord| -> u64 {
            loop {
                match rec.parent {
                    Some(p) => match by_id.get(&p.0) {
                        Some(parent) => rec = parent,
                        // Parent evicted by the ring bound: best effort,
                        // fall back to the local send time.
                        None => return rec.sent_ms,
                    },
                    None => return rec.sent_ms,
                }
            }
        };

        let mut messages = vec![0u64; num_classes];
        let mut lat: Vec<QuantileBuffer> = vec![QuantileBuffer::new(); num_classes];
        let mut hops: Vec<QuantileBuffer> = vec![QuantileBuffer::new(); num_classes];
        for rec in &records {
            if rec.kind == crate::RecordKind::Hop {
                let c = rec.class as usize;
                if c < num_classes {
                    messages[c] += 1;
                }
            }
            if let Some(hc) = rec.hops_class {
                let c = hc as usize;
                if c < num_classes {
                    lat[c].push(rec.recv_ms - origin_sent(rec));
                    hops[c].push(rec.depth as u64);
                }
            }
        }

        TraceStats {
            classes: (0..num_classes)
                .map(|c| ClassStats {
                    class: c as u8,
                    messages: messages[c],
                    latency_ms: Percentiles::of(&mut lat[c]),
                    hops: Percentiles::of(&mut hops[c]),
                })
                .collect(),
        }
    }
}

/// Compact, serializable digest of a whole trace run — what gets attached
/// to fault reproducers and golden files instead of the full record list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Records captured (post-eviction).
    pub records: u64,
    /// Records evicted by the ring bound.
    pub dropped: u64,
    /// Traced multicasts.
    pub multicasts: u64,
    /// FNV-1a digest over all records and multicast metadata (hex).
    pub digest: String,
    /// Per-class rows, labelled by `MsgClass` name.
    pub classes: Vec<ClassSummary>,
}

impl TraceSummary {
    /// Summarize everything a [`Tracer`](crate::Tracer) captured: counts,
    /// the golden digest, and per-class latency/hop percentiles, with
    /// class indices resolved against `class_names`.
    pub fn from_tracer(tracer: &crate::Tracer, class_names: &[&str]) -> TraceSummary {
        let records = tracer.snapshot();
        let stats = TraceStats::compute(records.iter(), class_names.len());
        TraceSummary {
            records: records.len() as u64,
            dropped: tracer.dropped(),
            multicasts: tracer.multicasts().len() as u64,
            digest: crate::audit::digest(&records, tracer.multicasts()),
            classes: stats
                .classes
                .into_iter()
                .map(|c| ClassSummary {
                    class: class_names
                        .get(c.class as usize)
                        .map_or_else(|| format!("class{}", c.class), |n| (*n).to_string()),
                    messages: c.messages,
                    latency_ms: c.latency_ms,
                    hops: c.hops,
                })
                .collect(),
        }
    }
}

/// One per-class row of a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// Human-readable class name (e.g. `"MbrOriginated"`).
    pub class: String,
    /// Overlay messages of this class.
    pub messages: u64,
    /// End-to-end chain latency (ms).
    pub latency_ms: Percentiles,
    /// Chain hop counts.
    pub hops: Percentiles,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let mut q = QuantileBuffer::new();
        for v in [15, 20, 35, 40, 50] {
            q.push(v);
        }
        // Canonical nearest-rank example: p30 of {15,20,35,40,50} = 20.
        assert_eq!(q.percentile(0.30), Some(20));
        assert_eq!(q.percentile(0.50), Some(35));
        assert_eq!(q.percentile(1.0), Some(50));
        assert_eq!(q.percentile(0.0), Some(15));
        assert_eq!(q.max(), Some(50));
    }

    #[test]
    fn empty_buffer_yields_none() {
        let mut q = QuantileBuffer::new();
        assert_eq!(q.percentile(0.5), None);
        assert_eq!(q.max(), None);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = QuantileBuffer::new();
        let mut b = QuantileBuffer::new();
        let mut whole = QuantileBuffer::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.push(v * 7 % 31);
            } else {
                b.push(v * 7 % 31);
            }
            whole.push(v * 7 % 31);
        }
        a.merge(&b);
        assert_eq!(a.len(), whole.len());
        for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p={p}");
        }
    }

    #[test]
    fn stats_resolve_latency_through_parent_chain() {
        let mut t = Tracer::disabled();
        t.enable(64);
        t.set_now_ms(500);
        // 3-hop chain of class 0, hops logged at the tail.
        t.route(&[1, 2, 3, 4], 0, 1, true);
        let stats = TraceStats::compute(t.iter(), 2);
        // Class 0: one chain, latency 3 hops * 50ms.
        assert_eq!(stats.classes[0].hops.count, 1);
        assert_eq!(stats.classes[0].hops.p50, 3);
        assert_eq!(stats.classes[0].latency_ms.p50, 150);
        assert_eq!(stats.classes[0].latency_ms.max, 150);
        // Messages: 1 base-class hop, 2 transit hops.
        assert_eq!(stats.classes[0].messages, 1);
        assert_eq!(stats.classes[1].messages, 2);
        // Class 1 logged no hops.
        assert_eq!(stats.classes[1].hops.count, 0);
    }
}
