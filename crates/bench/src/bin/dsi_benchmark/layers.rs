//! Layer replays for the traced run.
//!
//! The cluster is driven only through its public operations, so a layer's
//! own cost is measured by replaying the layer's public functions, from
//! this file, on exactly the inputs the in-situ call consumed or produced:
//! a shadow population of extractors and batchers is fed the same values,
//! every emitted MBR is mapped, multicast and stored into shadow data
//! centers, and every live query is probed against the real nodes. The
//! fidelity checks in `run.rs` fail the run when a replay diverges from
//! what the cluster did — otherwise the numbers would time different work.

use dsi_chord::{covering_nodes_from, multicast, ChordId, MulticastPlan};
use dsi_core::{
    interval_key_range, quantize, radius_key_range, sortable_key, AggregateKind, AggregateSpec,
    Cluster, ClusterConfig, DataCenter, MbrBatcher, ReliabilityState, SimilarityQuery,
    SortableSummaryIndex, StoredMbr, StreamId,
};
use dsi_dsp::{normalized_distance, FeatureExtractor, Mbr, SummaryScratch};
use dsi_simnet::{Engine, MsgClass, SimTime};
use dsi_streamgen::RandomWalk;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::workloads::faulty_plan;

/// Nanoseconds `f` took.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Time and work of one replayed layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: u64,
    pub work: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, work: u64) {
        self.ns += ns;
        self.work += work;
    }

    /// Nanoseconds per unit of work (0 for an idle layer).
    pub fn per_unit(&self) -> f64 {
        crate::metrics::ratio(self.ns as f64, self.work as f64)
    }
}

/// Accumulated replay costs of one pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTally {
    pub dsp_update: Cost,
    pub batching_push: Cost,
    pub emitted: u64,
    pub mapping: Cost,
    pub multicast: Cost,
    pub deliveries: u64,
    pub route_hops: u64,
    pub store_mbr: Cost,
    pub sortable_insert: Cost,
    pub purge: Cost,
    pub stored_peak: u64,
    pub covering: Cost,
    pub collect: Cost,
    pub candidates_raw: u64,
    pub scan: Cost,
    pub verify: Cost,
}

/// What one ingest call emitted, as the replay reproduced it.
#[derive(Debug, Default)]
pub struct Replayed {
    pub emitted: Vec<(StreamId, Mbr, SimTime)>,
    pub plans: Vec<MulticastPlan>,
}

/// The shadow population and shadow stores.
pub struct Shadow {
    extractors: Vec<FeatureExtractor>,
    batchers: Vec<MbrBatcher>,
    scratch: SummaryScratch,
    /// Flat per-value summary coordinates of the current feed.
    reals: Vec<f64>,
    warm: Vec<bool>,
    dims: usize,
    ranges: Vec<(ChordId, ChordId)>,
    nodes: HashMap<ChordId, DataCenter>,
    indexes: HashMap<ChordId, SortableSummaryIndex>,
    pub last: Replayed,
    pub tally: LayerTally,
}

impl Shadow {
    pub fn new(cfg: &ClusterConfig, streams: usize, node_ids: &[ChordId]) -> Self {
        let w = &cfg.workload;
        let batcher = match w.mbr_max_width {
            Some(width) => MbrBatcher::new(w.mbr_batch).with_max_width(width),
            None => MbrBatcher::new(w.mbr_batch),
        };
        let extractor = FeatureExtractor::new(w.window_len, w.num_coeffs, cfg.kind.normalization());
        Shadow {
            extractors: vec![extractor; streams],
            batchers: vec![batcher; streams],
            scratch: SummaryScratch::default(),
            reals: Vec::new(),
            warm: Vec::new(),
            dims: 2 * w.num_coeffs,
            ranges: Vec::new(),
            nodes: node_ids.iter().map(|&n| (n, DataCenter::new(n))).collect(),
            indexes: node_ids.iter().map(|&n| (n, SortableSummaryIndex::default())).collect(),
            last: Replayed::default(),
            tally: LayerTally::default(),
        }
    }

    /// Replays every write-side layer over the values of one ingest call
    /// (or, on the event drive, of one NPER period): [`Shadow::feed`], then
    /// [`Shadow::replicate`]. Returns `(span name, ns, work)` per layer, in
    /// the order they ran.
    pub fn replay_ingest(
        &mut self,
        values: &[(StreamId, f64)],
        times: &[SimTime],
        cluster: &Cluster,
    ) -> [(&'static str, u64, u64); 6] {
        let items = values.len() as u64;
        let (dsp_ns, batch_ns) = self.feed(values, times);
        let [map_ns, mcast_ns, store_ns, sortable_ns] = self.replicate(cluster);
        let mbrs = self.last.emitted.len() as u64;
        let copies: u64 = self.last.plans.iter().map(crate::run::stored_copies).sum();
        [
            ("dsp.update", dsp_ns, items),
            ("batching.push", batch_ns, items),
            ("mapping.key_range", map_ns, mbrs),
            ("chord.multicast", mcast_ns, mbrs),
            ("datacenter.store_mbr", store_ns, copies),
            ("sortable.insert", sortable_ns, copies),
        ]
    }

    /// Replays `dsp` then `batching` over one ingest call's values (value
    /// `j` arrived at `times[j]`, or at `times[0]` when the slice has one
    /// entry). Fills `last.emitted`; returns the two layers' times.
    pub fn feed(&mut self, values: &[(StreamId, f64)], times: &[SimTime]) -> (u64, u64) {
        let dims = self.dims;
        self.reals.resize(values.len() * dims, 0.0);
        self.warm.clear();
        self.warm.resize(values.len(), false);
        let ((), dsp_ns) = time_ns(|| {
            for (j, &(sid, v)) in values.iter().enumerate() {
                if self.extractors[sid as usize].update_scratch(v, &mut self.scratch) {
                    self.warm[j] = true;
                    self.reals[j * dims..(j + 1) * dims].copy_from_slice(&self.scratch.reals);
                }
            }
        });
        self.last.emitted.clear();
        let (pushed, batch_ns) = time_ns(|| {
            let mut pushed = 0u64;
            for (j, &(sid, _)) in values.iter().enumerate() {
                if self.warm[j] {
                    pushed += 1;
                    let point = &self.reals[j * dims..(j + 1) * dims];
                    if let Some(mbr) = self.batchers[sid as usize].push_reals(point) {
                        let at = times[j.min(times.len() - 1)];
                        self.last.emitted.push((sid, mbr, at));
                    }
                }
            }
            pushed
        });
        self.tally.dsp_update.add(dsp_ns, values.len() as u64);
        self.tally.batching_push.add(batch_ns, pushed);
        self.tally.emitted += self.last.emitted.len() as u64;
        (dsp_ns, batch_ns)
    }

    /// Replays `mapping`, `chord` multicast, `datacenter` insert and
    /// `sortable` insert over `last.emitted`, against the cluster's current
    /// ring. Fills `last.plans`; returns the four layers' times. MBRs whose
    /// home has left the ring (churn between emission and replay) are
    /// skipped, so `last.plans` can be shorter than `last.emitted`.
    fn replicate(&mut self, cluster: &Cluster) -> [u64; 4] {
        let space = cluster.space();
        let ring = cluster.ring();
        let strategy = cluster.config().strategy;
        let bspan = cluster.config().workload.bspan_ms;
        let streams = cluster.streams();
        self.last.emitted.retain(|(sid, _, _)| ring.contains(streams[*sid as usize].home));
        let emitted = &self.last.emitted;

        self.ranges.clear();
        let ((), map_ns) = time_ns(|| {
            for (_, mbr, _) in emitted {
                let (lo_v, hi_v) = mbr.first_interval();
                self.ranges.push(interval_key_range(
                    space,
                    lo_v.clamp(-1.0, 1.0),
                    hi_v.clamp(-1.0, 1.0),
                ));
            }
        });

        self.last.plans.clear();
        let ((), mcast_ns) = time_ns(|| {
            for ((sid, _, _), &(lo, hi)) in emitted.iter().zip(&self.ranges) {
                let home = streams[*sid as usize].home;
                self.last.plans.push(multicast(ring, home, lo, hi, strategy));
            }
        });

        let mut replicas = 0u64;
        let ((), store_ns) = time_ns(|| {
            for ((sid, mbr, at), plan) in emitted.iter().zip(&self.last.plans) {
                let home = plan.origin;
                let stored = StoredMbr {
                    stream: *sid,
                    mbr: mbr.clone(),
                    origin: home,
                    expires: *at + bspan,
                };
                for d in &plan.deliveries {
                    self.nodes.entry(d.node).or_default().store_mbr(stored.clone());
                }
                replicas += plan.deliveries.len() as u64;
                if !plan.deliveries.iter().any(|d| d.node == home) {
                    self.nodes.entry(home).or_default().store_mbr(stored);
                    replicas += 1;
                }
            }
        });

        let ((), sortable_ns) = time_ns(|| {
            for ((_, mbr, _), plan) in emitted.iter().zip(&self.last.plans) {
                let (low, high) = mbr.first_interval();
                let key = sortable_key(low, high);
                let home = plan.origin;
                let extra = (!plan.deliveries.iter().any(|d| d.node == home)).then_some(home);
                for node in plan.deliveries.iter().map(|d| d.node).chain(extra) {
                    let index = self.indexes.entry(node).or_default();
                    index.insert(key, index.len() as u32);
                }
            }
        });

        let n = emitted.len() as u64;
        self.tally.mapping.add(map_ns, n);
        self.tally.multicast.add(mcast_ns, n);
        self.tally.deliveries +=
            self.last.plans.iter().map(|p| p.deliveries.len() as u64).sum::<u64>();
        self.tally.route_hops +=
            self.last.plans.iter().map(|p| u64::from(p.route_hops)).sum::<u64>();
        self.tally.store_mbr.add(store_ns, replicas);
        self.tally.sortable_insert.add(sortable_ns, replicas);
        [map_ns, mcast_ns, store_ns, sortable_ns]
    }

    /// Replays the per-round `purge_expired` on every shadow node (timed),
    /// then rebuilds the shadow sortable indexes over the surviving
    /// records (untimed bookkeeping). Returns the purge time.
    pub fn purge(&mut self, now: SimTime) -> u64 {
        let stored: u64 = self.nodes.values().map(|dc| dc.mbr_count() as u64).sum();
        self.tally.stored_peak = self.tally.stored_peak.max(stored);
        let (removed, purge_ns) =
            time_ns(|| self.nodes.values_mut().map(|dc| dc.purge_expired(now)).sum::<usize>());
        self.tally.purge.add(purge_ns, 1);
        if removed > 0 {
            for (id, dc) in &self.nodes {
                self.indexes.entry(*id).or_default().bulk_load(dc.summaries().enumerate().map(
                    |(pos, s)| {
                        let (low, high) = s.extent0();
                        (sortable_key(low, high), pos as u32)
                    },
                ));
            }
        }
        purge_ns
    }

    /// Stored MBRs on shadow node `id`.
    pub fn mbr_count(&self, id: ChordId) -> usize {
        self.nodes.get(&id).map_or(0, DataCenter::mbr_count)
    }

    /// Replays the read side of one NPER round for one live query against
    /// the real nodes: covering set, candidate collection per covering
    /// node, the shadow sortable scan, and exact verification. Returns
    /// `(candidates after dedup, verified matches)` and the four times
    /// `[covering, collect, scan, verify]`.
    pub fn probe_query(
        &mut self,
        cluster: &Cluster,
        q: &SimilarityQuery,
        now: SimTime,
    ) -> ((u64, u64), [u64; 4]) {
        let ring = cluster.ring();
        let (lo, hi) = radius_key_range(cluster.space(), q.feature.first_real(), q.radius);
        let origin = cluster.node_id(0);
        let (covering, cover_ns) = time_ns(|| covering_nodes_from(ring, origin, lo, hi));
        let point = q.feature.to_reals();
        let mut candidates: Vec<StreamId> = Vec::new();
        let ((), collect_ns) = time_ns(|| {
            for &n in &covering {
                cluster.node(n).collect_candidates(q, &point, now, &mut candidates);
            }
        });
        let raw = candidates.len() as u64;
        // Same pruning interval `DataCenter::collect_candidates` derives.
        let r = q.radius + 1e-12;
        let pad = 1e-9 + r.abs() * 1e-9;
        let (a, b) = (point[0] - r - pad, point[0] + r + pad);
        let (visited, scan_ns) = time_ns(|| {
            let mut visited = 0u64;
            for n in &covering {
                if let Some(index) = self.indexes.get(n) {
                    index.for_overlapping(a, b, |_| visited += 1);
                }
            }
            visited
        });
        black_box(visited);
        candidates.sort_unstable();
        candidates.dedup();
        let mode = q.kind.normalization();
        let (verified, verify_ns) = time_ns(|| {
            candidates
                .iter()
                .filter(|&&sid| {
                    let s = &cluster.streams()[sid as usize];
                    s.extractor.is_warm()
                        && normalized_distance(&q.target, &s.extractor.window_snapshot(), mode)
                            <= q.radius + 1e-9
                })
                .count() as u64
        });
        let probes = covering.len() as u64;
        self.tally.covering.add(cover_ns, 1);
        self.tally.collect.add(collect_ns, probes);
        self.tally.candidates_raw += raw;
        self.tally.scan.add(scan_ns, probes);
        self.tally.verify.add(verify_ns, candidates.len() as u64);
        ((candidates.len() as u64, verified), [cover_ns, collect_ns, scan_ns, verify_ns])
    }
}

/// Layers no workload call returns inputs for, replayed stand-alone at the
/// workload's own scale once the measured phase is over.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standalone {
    pub lookup: Cost,
    pub resolve: Cost,
    pub resolve_retries: u64,
    pub sketch_update: Cost,
    pub sketch_merge: Cost,
    pub engine: Cost,
}

/// Most operations any stand-alone replay repeats.
const STANDALONE_CAP: u64 = 500_000;

/// `chord` lookups between seeded (node, key) pairs on the cluster's ring.
fn replay_lookups(cluster: &Cluster, rng: &mut StdRng) -> Cost {
    let ring = cluster.ring();
    let modulus = cluster.space().modulus();
    let pairs: Vec<(ChordId, ChordId)> = (0..20_000)
        .map(|_| {
            (cluster.node_id(rng.gen_range(0..cluster.num_nodes())), rng.gen_range(0..modulus))
        })
        .collect();
    let (hops, ns) =
        time_ns(|| pairs.iter().map(|&(from, key)| u64::from(ring.lookup(from, key).hops())).sum());
    black_box::<u64>(hops);
    Cost { ns, work: pairs.len() as u64 }
}

/// `reliability`: one `resolve` per overlay message the workload sent,
/// under `faulty_mix`'s fault plan.
fn replay_resolves(sends: u64, seed: u64) -> (Cost, u64) {
    let mut state = ReliabilityState::new(faulty_plan(), seed);
    let sends = sends.clamp(1, STANDALONE_CAP);
    let (retries, ns) = time_ns(|| {
        let mut retries = 0u64;
        for i in 0..sends {
            let class = MsgClass::ALL[i as usize % MsgClass::ALL.len()];
            retries += u64::from(state.resolve(class).retries);
        }
        retries
    });
    (Cost { ns, work: sends }, retries)
}

/// `sketch`: ECM-sketch updates over one walk's values and the merges of
/// one collection round (one per node), with `faulty_mix`'s aggregate spec.
fn replay_sketches(items: u64, nodes: usize, rng: &mut StdRng) -> (Cost, Cost) {
    // A sketch can only be built through a posted aggregate query.
    let mut factory = Cluster::new(ClusterConfig::new(1));
    let id = factory.post_aggregate_query(0, aggregate_spec(), SimTime::ZERO);
    let query = factory.aggregate_query(id).expect("the query was just posted").clone();
    let items = items.clamp(1, STANDALONE_CAP);
    let mut walk = RandomWalk::standard();
    let bins: Vec<u64> =
        (0..items).map(|_| quantize(walk.next_value(rng) - 50.0, query.spec.bins)).collect();
    let parts = nodes.clamp(2, 64);
    let mut sketches: Vec<_> = (0..parts).map(|_| query.fresh_sketch()).collect();
    let ((), update_ns) = time_ns(|| {
        for (i, &bin) in bins.iter().enumerate() {
            sketches[i % parts].update(bin, i as u64 / 64);
        }
    });
    let at = items / 64;
    let (root, rest) = sketches.split_first_mut().expect("at least two sketches");
    let ((), merge_ns) = time_ns(|| {
        for part in rest.iter() {
            root.merge_from(part, at).expect("replicas share params by construction");
        }
    });
    black_box(root.total_estimate(at));
    (Cost { ns: update_ns, work: items }, Cost { ns: merge_ns, work: rest.len() as u64 })
}

/// `simnet`: the workload's event count through the engine with an empty
/// handler, at the queue depth of one pending event per stream.
fn replay_engine(events: u64, streams: usize) -> Cost {
    let events = events.clamp(1, STANDALONE_CAP);
    let mut engine: Engine<u32> = Engine::new();
    for s in 0..streams as u32 {
        engine.schedule_after(u64::from(s % 200), s);
    }
    let (processed, ns) = time_ns(|| {
        let mut processed = 0u64;
        while processed < events {
            let Some((_, s)) = engine.step() else { break };
            engine.schedule_after(150 + u64::from(s % 100), s);
            processed += 1;
        }
        processed
    });
    Cost { ns, work: processed }
}

/// The aggregate query `faulty_mix` posts.
pub fn aggregate_spec() -> AggregateSpec {
    AggregateSpec {
        kind: AggregateKind::SelfJoinSize,
        eps: 0.2,
        delta: 0.1,
        window_ms: 10_000,
        lifespan_ms: 20_000,
        bins: 64,
        forced_dims: None,
    }
}

/// Runs every stand-alone replay.
pub fn standalone(cluster: &Cluster, items: u64, sends: u64, seed: u64) -> Standalone {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_1a7e_u64);
    let (resolve, resolve_retries) = replay_resolves(sends, seed);
    let (sketch_update, sketch_merge) = replay_sketches(items, cluster.num_nodes(), &mut rng);
    Standalone {
        lookup: replay_lookups(cluster, &mut rng),
        resolve,
        resolve_retries,
        sketch_update,
        sketch_merge,
        engine: replay_engine(items, cluster.streams().len()),
    }
}
