//! Stream registration and ingest: the per-stream summarization lanes and
//! the MBR emission that content-routes each summary over its key range.

use super::send::MBR_RANGE;
use super::{Cluster, StreamRuntime};
use crate::aggregate::quantize;
use crate::batching::MbrBatcher;
use crate::datacenter::{DataCenter, StoredMbr};
use crate::mapping::{interval_key_range, stream_key};
use crate::query::StreamId;
use crate::reliability::PendingEffect;
use dsi_chord::{ChordId, ContentRouter, MulticastPlan};
use dsi_dsp::{FeatureExtractor, FeatureVector, Mbr, SummaryScratch};
use dsi_simnet::{DetMap, SimTime};

/// Batches smaller than this are summarized inline: thread-spawn overhead
/// would dominate the O(k)-per-item sliding-DFT work.
const PARALLEL_INGEST_MIN: usize = 32;

/// Worker count for parallel phases: `DSI_WORKERS` if set (useful under CPU
/// quotas and for oversubscription experiments), else the host parallelism.
///
/// The host parallelism is probed once and cached: `available_parallelism`
/// re-reads the cgroup quota files on every call (tens of microseconds on
/// Linux), which used to dominate small per-tick batches. The `DSI_WORKERS`
/// override stays dynamic so harnesses can re-point it between configs.
pub fn worker_count() -> usize {
    static HOST_PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    std::env::var("DSI_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            *HOST_PARALLELISM
                .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
}

/// Advances one stream's summarizer through the allocation-free scratch
/// path and returns the MBR its batcher emitted, if any. An orphaned stream
/// (its home data center crashed) is silent until re-homed: the sensor's
/// own window keeps sliding but ships nothing.
#[inline(always)]
fn summarize_one(
    nodes: &DetMap<ChordId, DataCenter>,
    s: &mut StreamRuntime,
    value: f64,
    scratch: &mut SummaryScratch,
) -> Option<Mbr> {
    let homed = nodes.contains_key(&s.home);
    if s.extractor.update_scratch(value, scratch) {
        store_last_feature(s, scratch);
        if homed {
            return s.batcher.push_reals(&scratch.reals);
        }
    }
    None
}

/// Refreshes `last_feature` from the scratch coefficients, reusing the
/// existing vector's capacity after the first emission.
#[inline]
fn store_last_feature(s: &mut StreamRuntime, scratch: &SummaryScratch) {
    let mode = s.extractor.mode();
    match &mut s.last_feature {
        Some(lf) => lf.overwrite(&scratch.coeffs, mode),
        // First emission of a stream only: every later tick takes the overwrite arm and reuses this capacity.
        None => s.last_feature = Some(FeatureVector::new(scratch.coeffs.clone(), mode)),
    }
}

/// Worker body for [`Cluster::ingest_batch`]'s parallel path: one private
/// scratch per worker, then [`summarize_one`] per task.
fn summarize_chunk(
    nodes: &DetMap<ChordId, DataCenter>,
    tasks: &mut [(&mut StreamRuntime, f64)],
    emitted: &mut [Option<Mbr>],
) {
    let mut scratch = SummaryScratch::default();
    for ((s, v), slot) in tasks.iter_mut().zip(emitted.iter_mut()) {
        *slot = summarize_one(nodes, s, *v, &mut scratch);
    }
}

impl<R: ContentRouter> Cluster<R> {
    /// Registers a stream sourced at data center `home_idx` and "puts" its
    /// location record at the `h2` owner (§IV-D). Returns the stream id.
    pub fn register_stream(&mut self, name: &str, home_idx: usize) -> StreamId {
        let home = self.node_order[home_idx];
        let id = self.streams.len() as StreamId;
        let w = &self.cfg.workload;
        self.streams.push(StreamRuntime {
            id,
            name: name.to_string(),
            key: stream_key(self.space, name),
            home,
            extractor: FeatureExtractor::new(
                w.window_len,
                w.num_coeffs,
                self.cfg.kind.normalization(),
            ),
            batcher: match w.mbr_max_width {
                Some(width) => MbrBatcher::new(w.mbr_batch).with_max_width(width),
                None => MbrBatcher::new(w.mbr_batch),
            },
            last_feature: None,
        });
        // Ids only grow, so pushing keeps the home's list ascending.
        self.homed.entry(home).or_default().push(id);
        // Location put: route (home -> h2 owner) and store the record.
        self.put_location_unjudged(id);
        id
    }

    /// Feeds one new value into a stream. When ζ summaries have accumulated,
    /// the resulting MBR is content-routed and replicated over its key range;
    /// the plan is returned for inspection.
    pub fn post_value(
        &mut self,
        stream: StreamId,
        value: f64,
        now: SimTime,
    ) -> Option<MulticastPlan> {
        if !self.aggregates.is_empty() {
            self.update_aggregates(stream, value, now);
        }
        // Allocation-free steady state: the cluster-held scratch and the
        // batcher's running bounds absorb every non-emitting tick without
        // heap traffic.
        let s = &mut self.streams[stream as usize];
        let mbr = summarize_one(&self.nodes, s, value, &mut self.ingest_scratch)?;
        Some(self.replicate_mbr_ret(stream, mbr, now).1)
    }

    /// Feeds one value into each of many streams at the same instant.
    ///
    /// The per-stream summarization work (sliding-DFT update, normalization,
    /// feature extraction, ζ-batching) is sharded across `std::thread::scope`
    /// workers — stream summarizers are mutually independent, which is the
    /// paper's own distribution argument turned inward onto one host. Any
    /// emitted MBRs are then content-routed *sequentially* in ascending
    /// stream order, so metrics, storage, and the returned plans — and
    /// therefore `SystemReport` — are bit-identical to calling
    /// [`Cluster::post_value`] once per entry in `values` order.
    ///
    /// Returns `(stream, emitted MBR, multicast plan)` for every stream
    /// whose batcher shipped a summary this tick.
    ///
    /// # Panics
    /// Panics if `values` is not sorted by strictly increasing stream id or
    /// names an unregistered stream.
    pub fn ingest_batch(
        &mut self,
        values: &[(StreamId, f64)],
        now: SimTime,
    ) -> Vec<(StreamId, Mbr, MulticastPlan)> {
        // A capacity-0 Vec is heap-free; only emissions grow it, and callers on the steady path use ingest_batch_into.
        let mut out = Vec::new();
        self.ingest_batch_into(values, now, &mut out);
        out
    }

    /// [`Cluster::ingest_batch`] writing emissions into a caller-owned
    /// buffer (cleared first). Under emission-heavy workloads the per-tick
    /// result vector is the batch path's last steady-state allocation;
    /// reusing its high-water capacity across ticks removes it, which is
    /// what keeps a 1-core batch from losing to a `post_value` loop.
    ///
    /// # Panics
    /// Panics if `values` is not sorted by strictly increasing stream id or
    /// names an unregistered stream.
    pub fn ingest_batch_into(
        &mut self,
        values: &[(StreamId, f64)],
        now: SimTime,
        out: &mut Vec<(StreamId, Mbr, MulticastPlan)>,
    ) {
        out.clear();
        if !self.aggregates.is_empty() {
            for &(sid, v) in values {
                self.update_aggregates(sid, v, now);
            }
        }
        let workers = if values.len() < PARALLEL_INGEST_MIN {
            1
        } else {
            self.ingest_workers.clamp(1, values.len())
        };
        if workers == 1 {
            // Sequential fallback (one effective worker): summarize and
            // route each stream inline — no task-list carve, no
            // thread-spawn, no per-batch emission-slot array and no second
            // pass — so a 1-core batch never loses to a `post_value` loop.
            // Emissions are staged in a reused buffer and routed after the
            // summarize loop, exactly like the parallel path below: the
            // loop then never takes `&mut self` whole, so field base
            // pointers stay hoisted across iterations.
            let mut pending = std::mem::take(&mut self.pending_emit);
            pending.clear();
            {
                let nodes = &self.nodes;
                let streams = &mut self.streams;
                let scratch = &mut self.ingest_scratch;
                // The sortedness contract is checked inline (fused with the
                // loop instead of a separate pre-pass over the batch).
                let mut prev: i64 = -1;
                for &(sid, v) in values {
                    assert!(
                        i64::from(sid) > prev,
                        "ingest_batch requires strictly increasing stream ids"
                    );
                    prev = i64::from(sid);
                    if let Some(mbr) = summarize_one(nodes, &mut streams[sid as usize], v, scratch)
                    {
                        pending.push((sid, mbr));
                    }
                }
            }
            for (sid, mbr) in pending.drain(..) {
                let (mbr, plan) = self.replicate_mbr_ret(sid, mbr, now);
                out.push((sid, mbr, plan));
            }
            self.pending_emit = pending;
            return;
        }
        // The carve below requires sorted ids, so the parallel path checks
        // the whole batch up front.
        assert!(
            values.len() < 2 || values.iter().zip(&values[1..]).all(|(a, b)| a.0 < b.0),
            "ingest_batch requires strictly increasing stream ids"
        );
        // Reused emission slots: `clear` + `resize` keep the high-water
        // capacity across ticks.
        let mut emitted = std::mem::take(&mut self.emit_scratch);
        emitted.clear();
        emitted.resize(values.len(), None);
        {
            // Carve disjoint `&mut` views of the touched streams, in order.
            // Parallel lane only — batches under PARALLEL_INGEST_MIN never get here, and the §14 contract covers the sequential path; scoped threads allocate by design.
            let mut tasks: Vec<(&mut StreamRuntime, f64)> = Vec::with_capacity(values.len());
            let mut rest: &mut [StreamRuntime] = &mut self.streams;
            let mut offset = 0usize;
            for &(sid, v) in values {
                let (_, tail) = rest.split_at_mut(sid as usize - offset);
                let (s, tail) = tail.split_first_mut().expect("stream id in range");
                rest = tail;
                offset = sid as usize + 1;
                tasks.push((s, v));
            }
            let nodes = &self.nodes;
            let chunk = tasks.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (t_chunk, e_chunk) in tasks.chunks_mut(chunk).zip(emitted.chunks_mut(chunk)) {
                    scope.spawn(move || summarize_chunk(nodes, t_chunk, e_chunk));
                }
            });
        }
        for (&(sid, _), slot) in values.iter().zip(emitted.iter_mut()) {
            if let Some(mbr) = slot.take() {
                let (mbr, plan) = self.replicate_mbr_ret(sid, mbr, now);
                out.push((sid, mbr, plan));
            }
        }
        self.emit_scratch = emitted;
    }

    /// Feeds one stream value into every aggregate-query replica at the
    /// stream's home node. Allocation-free in steady state: the replica
    /// lookup is a binary search and [`dsi_sketch::EcmSketch::update`]
    /// writes into preallocated bucket storage, so an active aggregate
    /// query keeps non-emitting ingest ticks off the heap (the
    /// zero-alloc contract, DESIGN.md §14). Orphaned streams (home not
    /// in any replica set) contribute nothing, like their silent MBRs.
    #[inline]
    fn update_aggregates(&mut self, stream: StreamId, value: f64, now: SimTime) {
        let home = self.streams[stream as usize].home;
        let at = now.as_ms();
        for a in &mut self.aggregates {
            if let Ok(pos) = a.slot(home) {
                let bin = quantize(value, a.query.spec.bins);
                a.replicas[pos].2.update(bin, at);
            }
        }
    }

    /// Content-routes an MBR from the stream's home to every node covering
    /// its key range (§IV-G), storing a replica (with BSPAN expiry) at each,
    /// and hands the summary back: the batch ingest path returns every
    /// emitted MBR to its caller. Every replica is stored from the one
    /// borrowed record, so an emission allocates its plan, never per copy.
    /// Kept out of line so the per-item summarization loops stay tight —
    /// emissions are the rare path.
    #[inline(never)]
    // Cold boundary: MBR emission is the rare path — §14 pins non-emitting steady-state ticks, and emission owns its plan buffers.
    fn replicate_mbr_ret(
        &mut self,
        stream: StreamId,
        mbr: Mbr,
        now: SimTime,
    ) -> (Mbr, MulticastPlan) {
        let home = self.streams[stream as usize].home;
        let (lo_v, hi_v) = mbr.first_interval();
        let (lo, hi) = interval_key_range(self.space, lo_v.clamp(-1.0, 1.0), hi_v.clamp(-1.0, 1.0));
        let sent = self.send_range(&MBR_RANGE, home, lo, hi, now);
        if let (Some(coverage), true) = (sent.coverage, self.measuring) {
            self.ledger.record_coverage(coverage);
        }
        let expires = now + self.cfg.workload.bspan_ms;
        let effect = PendingEffect::StoreMbr(StoredMbr { stream, mbr, origin: home, expires });
        self.deliver_range(&sent, now, &effect);
        // With every entry attempt lost nothing on the wire took effect:
        // the summary lands only at its source, and the next shipment or
        // repair round refreshes the range.
        let plan = sent.plan.unwrap_or_else(|| MulticastPlan {
            origin: home,
            entry: home,
            route_hops: 0,
            deliveries: Vec::new(),
            forward_messages: 0,
            route_path: vec![home],
        });
        // The summary is also stored locally at the source (§IV-A) unless
        // the multicast already delivered there.
        if !plan.deliveries.iter().any(|d| d.node == home) {
            self.apply(home, &effect, now);
        }
        let PendingEffect::StoreMbr(stored) = effect else {
            unreachable!("built as StoreMbr above")
        };
        (stored.mbr, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed_stream, small_cluster, wave};
    use dsi_simnet::{InputEvent, SimTime};

    #[test]
    fn posting_values_emits_mbrs_at_zeta_cadence() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        // Window 16 warms after 16 values; every 4 summaries -> 1 MBR.
        let vals = wave(16 + 16, 0.4, 0.0);
        let mbrs = feed_stream(&mut c, sid, &vals, SimTime::ZERO);
        // 17 summaries emitted (one at warmup + 16 more) -> 4 MBRs.
        assert_eq!(mbrs, 4);
    }

    #[test]
    fn mbr_replicas_land_on_covering_nodes() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        let vals = wave(32, 0.4, 0.0);
        let mut plan = None;
        for &v in &vals {
            if let Some(p) = c.post_value(sid, v, SimTime::ZERO) {
                plan = Some(p);
            }
        }
        let plan = plan.expect("an MBR was shipped");
        for n in plan.nodes() {
            assert!(c.node(n).mbr_count() > 0, "covering node {n} holds no replica");
        }
    }

    #[test]
    fn metrics_only_recorded_while_measuring() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        assert_eq!(c.metrics().event_count(InputEvent::Mbr), 0);
        c.start_measurement();
        feed_stream(&mut c, sid, &wave(16, 0.4, 1.0), SimTime::from_ms(100));
        assert!(c.metrics().event_count(InputEvent::Mbr) > 0);
    }
}
