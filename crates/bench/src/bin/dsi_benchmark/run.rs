//! The load generator: builds a cluster for a workload, warms it, drives
//! the measured phase from one thread (closed loop in simulated time: the
//! next operation is issued when the previous one returned), and turns the
//! raw timings and counts into the registered metrics.

use dsi_chord::MulticastPlan;
use dsi_core::{Cluster, QualityStats, QueryId, SimilarityQuery, StreamId};
use dsi_dsp::{normalized_distance, Mbr};
use dsi_simnet::{Engine, InputEvent, MsgClass, PoissonArrivals, SimTime};
use dsi_streamgen::{QueryWorkload, RandomWalk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

use crate::layers::{self, aggregate_spec, time_ns, LayerTally, Shadow, Standalone};
use crate::metrics::{median, percentile, ratio, Kind, Report, END_TO_END};
use crate::spans::{SpanId, Spans, NO_PARENT};
use crate::workloads::{
    faulty_plan, Drive, Spec, EPILOGUE_ANSWERED, EPILOGUE_QUERIES, FAULTY_AGGREGATE_EVERY_MS,
    FAULTY_CHURN_EVERY_MS, FAULTY_IP_SHARE, QUERY_LIFESPAN_MS, TICK_MS,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Live queries the no-false-dismissal check samples per round.
const NFD_SAMPLES_PER_ROUND: usize = 4;

/// Raw measurements of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub wall_ns: u64,
    /// Time spent in checks and bookkeeping, excluded from `wall_ns`.
    pub untimed_ns: u64,
    pub gen_ns: u64,
    /// One entry per ingest call (a tick, or one `post_value`).
    pub ingest_call_ns: Vec<u64>,
    /// `(items, ns inside ingest calls)` samples the ingest rate is taken
    /// over: one per tick on the tick drive; on the event drive one per
    /// NPER period (single `post_value` calls differ too much in kind), the
    /// last entry being the period still open.
    pub ingest_samples: Vec<(u64, u64)>,
    /// In-situ wall time of each NPER period (ingest, posts, events and the
    /// closing round; checks and replays excluded).
    pub period_ns: Vec<u64>,
    pub emitted: u64,
    pub replicas: u64,
    pub round_ns: Vec<u64>,
    /// Per node per round (traced passes only).
    pub notify_ns: Vec<u64>,
    pub purge_queries_ns: u64,
    /// Replay time attributable to the measured rounds' in-situ span.
    pub round_replay_ns: u64,
    pub repair_ns: u64,
    pub churn_ns: Vec<u64>,
    pub post_ns: Vec<u64>,
    pub gini_sum: f64,
    /// Overlay messages and input events of the measured phase.
    pub messages: u64,
    pub input_events: u64,
    /// Candidates the aggregators collected, verified matches among them,
    /// and query-rounds answered (live tracked queries, summed over
    /// rounds), outside warm-up.
    pub candidates: u64,
    pub verified: u64,
    pub answered: u64,
    pub nfd_matches: u64,
    pub nfd_misses: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Adds one `post_value` call to the open period's ingest sample.
    fn add_to_period(&mut self, ns: u64) {
        if self.ingest_samples.is_empty() {
            self.ingest_samples.push((0, 0));
        }
        let open = self.ingest_samples.last_mut().expect("just ensured");
        open.0 += 1;
        open.1 += ns;
    }

    /// Items ingested and nanoseconds spent inside ingest calls.
    fn ingest_totals(&self) -> (u64, u64) {
        self.ingest_samples.iter().fold((0, 0), |(i, n), &(items, ns)| (i + items, n + ns))
    }

    /// Adds one emitted MBR's multicast to the replication counts.
    fn count_plan(&mut self, plan: &MulticastPlan) {
        self.emitted += 1;
        self.replicas += stored_copies(plan);
    }

    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// A similarity query the benchmark posted and still tracks.
struct Posted {
    id: QueryId,
    query: SimilarityQuery,
}

/// Events of the event-driven workload.
enum Ev {
    Value(StreamId),
    Query,
    Round,
    Aggregate,
    Churn,
    Stop,
}

/// State of the event-driven (`faulty_mix`) drive.
struct EventDrive {
    engine: Engine<Ev>,
    periods: Vec<u64>,
    qw: QueryWorkload,
    arrivals: PoissonArrivals,
    churn_no: u64,
    /// Values ingested since the last round, for the shadow replay.
    interval: Vec<(StreamId, f64)>,
    interval_times: Vec<SimTime>,
    interval_start_ns: u64,
    interval_ingest_ns: u64,
    interval_gen_ns: u64,
}

/// Which part of a run a round belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Warmup,
    Measured,
    Epilogue,
}

/// One cluster under load, plus everything the benchmark tracks beside it.
pub struct World {
    spec: Spec,
    cluster: Cluster,
    rng: StdRng,
    /// Sampling of checks draws from its own stream, so traced and
    /// untraced passes feed the cluster identical inputs.
    check_rng: StdRng,
    walks: Vec<RandomWalk>,
    values: Vec<(StreamId, f64)>,
    out: Vec<(StreamId, Mbr, MulticastPlan)>,
    now_ms: u64,
    op_no: u64,
    /// Query batches posted so far; shifts the stratified target sample.
    batch_no: u64,
    queries: Vec<Posted>,
    /// Unexpired shipped MBRs per stream, kept by workloads that answer
    /// queries while measuring: the reference the no-false-dismissal check
    /// holds the notified sets against.
    shipped: Option<Vec<Vec<(Mbr, SimTime)>>>,
    events: Option<EventDrive>,
    shadow: Option<Shadow>,
    spans: Option<Spans>,
    root: SpanId,
    tally: Tally,
    /// Start of the open NPER period and `tally.untimed_ns` at that moment.
    period_start: Instant,
    period_untimed: u64,
    register_ns: u64,
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers the cluster's parallel summarise lane uses (its own rule:
/// `DSI_WORKERS` if set, else the host parallelism).
pub fn workers() -> usize {
    std::env::var("DSI_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(host_cpus)
}

impl World {
    /// Builds the cluster, registers and staggers the streams, warms until
    /// windows are full and one BSPAN of MBRs has been purged, pre-loads
    /// the steady query population and starts measurement.
    pub fn setup(spec: Spec, seed: u64, traced: bool) -> World {
        let cfg = spec.cluster_config();
        let mut cluster = Cluster::new(cfg.clone());
        if spec.drive == Drive::Events {
            cluster.set_fault_plan(faulty_plan(), seed ^ 0xfa17);
        }
        let ((), register_ns) = time_ns(|| {
            for i in 0..spec.streams {
                cluster.register_stream(&format!("s{i}"), i % spec.nodes);
            }
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let walks = spread_walks(spec.streams, &mut rng);
        let shadow = traced.then(|| Shadow::new(&cfg, spec.streams, cluster.node_ids()));
        let answers_queries = matches!(spec.drive, Drive::Ticks { queries_per_round: q } if q > 0);
        let mut world = World {
            spec,
            cluster,
            rng,
            check_rng: StdRng::seed_from_u64(seed ^ 0xc4ec),
            walks,
            values: (0..spec.streams as StreamId).map(|s| (s, 0.0)).collect(),
            out: Vec::new(),
            now_ms: 0,
            op_no: 0,
            batch_no: 0,
            queries: Vec::new(),
            shipped: answers_queries.then(|| vec![Vec::new(); spec.streams]),
            events: None,
            shadow,
            // Recording from the start keeps warm-up and measured passes on
            // one code path; warm-up spans are dropped below.
            spans: traced.then(Spans::new),
            root: NO_PARENT,
            tally: Tally::default(),
            period_start: Instant::now(),
            period_untimed: 0,
            register_ns,
        };
        world.stagger();
        let nper = cfg.workload.nper_ms;
        let warm_ms = match spec.drive {
            Drive::Ticks { .. } => spec.window as u64 * TICK_MS + cfg.workload.bspan_ms,
            Drive::Events => spec.window as u64 * cfg.workload.pmax_ms + cfg.workload.bspan_ms,
        }
        .div_ceil(nper)
            * nper;
        match spec.drive {
            Drive::Ticks { queries_per_round } => {
                world.run_ticks(warm_ms / nper, Phase::Warmup);
                // The steady population: one round's worth of queries
                // expiring at each of the next LIFESPAN / NPER rounds.
                let rounds_alive = QUERY_LIFESPAN_MS / nper;
                for k in 1..=rounds_alive {
                    world.post_stratified(queries_per_round, false, |_| k * nper, Phase::Warmup);
                }
            }
            Drive::Events => {
                world.start_events();
                world.run_events(warm_ms, Phase::Warmup);
            }
        }
        world.cluster.start_measurement();
        world.tally = Tally::default();
        world.op_no = 0;
        if let Some(shadow) = &mut world.shadow {
            shadow.tally = LayerTally::default();
            world.spans = Some(Spans::new());
        }
        world
    }

    /// Pre-feeds stream `i` with `i mod ζ` extra values so batch boundaries
    /// (and with them MBR emissions) spread evenly over ticks.
    fn stagger(&mut self) {
        let zeta = self.spec.zeta;
        for round in 1..zeta {
            let batch: Vec<(StreamId, f64)> = (0..self.spec.streams)
                .filter(|i| i % zeta >= round)
                .map(|i| (i as StreamId, self.walks[i].next_value(&mut self.rng)))
                .collect();
            self.cluster.ingest_batch_into(&batch, SimTime::ZERO, &mut self.out);
            if let Some(shadow) = &mut self.shadow {
                shadow.feed(&batch, &[SimTime::ZERO]);
            }
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_ms(self.now_ms)
    }

    fn next_op(&mut self) -> u64 {
        self.op_no += 1;
        self.op_no
    }

    fn open_span(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        self.spans.as_mut().map_or(NO_PARENT, |s| s.open(name, parent, op))
    }

    fn close_span(&mut self, id: SpanId, work: u64) {
        if let Some(s) = &mut self.spans {
            s.close(id, work);
        }
    }

    /// The span clock (0 when not tracing); read before a timed call.
    fn span_now(&self) -> u64 {
        self.spans.as_ref().map_or(0, Spans::now_ns)
    }

    fn record_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        at: u64,
        ns: u64,
        work: u64,
    ) {
        if let Some(s) = &mut self.spans {
            s.record_at(name, parent, op, at, ns, work);
        }
    }

    // ------------------------------------------------------------------
    // Tick drive
    // ------------------------------------------------------------------

    /// Runs `rounds` NPER periods of the tick drive: `nper / TICK_MS`
    /// ingest ticks, then the period's queries and its notify round.
    fn run_ticks(&mut self, rounds: u64, phase: Phase) {
        let Drive::Ticks { queries_per_round } = self.spec.drive else { return };
        let nper = self.cluster.config().workload.nper_ms;
        for _ in 0..rounds {
            for _ in 0..nper / TICK_MS {
                self.tick(phase);
            }
            if phase == Phase::Measured {
                self.post_stratified(queries_per_round, false, |_| QUERY_LIFESPAN_MS, phase);
            }
            self.round(phase);
        }
    }

    /// One ingest tick: a new value for every stream, one batch call.
    fn tick(&mut self, phase: Phase) {
        self.now_ms += TICK_MS;
        let now = self.now();
        let op = self.next_op();
        let span = self.open_span("tick", self.root, op);
        let at = self.span_now();
        let ((), gen_ns) = time_ns(|| {
            for (slot, walk) in self.values.iter_mut().zip(&mut self.walks) {
                slot.1 = walk.next_value(&mut self.rng);
            }
        });
        let items = self.values.len() as u64;
        self.record_at("streamgen.next_value", span, op, at, gen_ns, items);
        let at = self.span_now();
        let ((), ingest_ns) =
            time_ns(|| self.cluster.ingest_batch_into(&self.values, now, &mut self.out));
        self.record_at("cluster.ingest", span, op, at, ingest_ns, items);

        let untimed = Instant::now();
        if phase == Phase::Measured {
            self.tally.gen_ns += gen_ns;
            self.tally.ingest_call_ns.push(ingest_ns);
            self.tally.ingest_samples.push((items, ingest_ns));
            for (_, _, plan) in &self.out {
                self.tally.count_plan(plan);
            }
        }
        let mut ok = self.out.windows(2).all(|w| w[0].0 < w[1].0)
            && self.out.iter().all(|(_, _, plan)| !plan.deliveries.is_empty());
        if let Some(shipped) = &mut self.shipped {
            let expires = now + self.cluster.config().workload.bspan_ms;
            for (sid, mbr, _) in &self.out {
                shipped[*sid as usize].push((mbr.clone(), expires));
            }
        }
        let at = self.span_now();
        if let (Some(shadow), Some(spans)) = (&mut self.shadow, &mut self.spans) {
            let layers = shadow.replay_ingest(&self.values, &[now], &self.cluster);
            // Replay fidelity: bit-identical MBRs, identical plans.
            ok &= shadow.last.emitted.len() == self.out.len()
                && shadow.last.plans.len() == self.out.len()
                && self.out.iter().zip(&shadow.last.emitted).zip(&shadow.last.plans).all(
                    |(((sid, mbr, plan), (s_sid, s_mbr, _)), s_plan)| {
                        sid == s_sid && mbr == s_mbr && plan == s_plan
                    },
                );
            spans.record_sequence(span, op, at, &layers);
        }
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
        if phase == Phase::Measured {
            self.tally.op(ok, || format!("tick at {now}: malformed emissions or replay diverged"));
        }
        self.close_span(span, items);
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Posts `n` similarity queries from seeded random clients. Targets are
    /// the current windows of streams taken at even steps (shifted by a
    /// golden-ratio offset from batch to batch) along the population sorted
    /// by routing coordinate: a stratified sample of the key space. Match
    /// counts are heavy-tailed along that axis — streams near its ends all
    /// resemble each other — so uniformly random targets would let a few
    /// lucky draws decide a whole run's candidate load, seed by seed.
    ///
    /// With `live_only`, only streams that have an unexpired MBR stored
    /// somewhere are eligible, so every query has at least its own stream
    /// to match.
    fn post_stratified(
        &mut self,
        n: usize,
        live_only: bool,
        lifespan_ms: impl Fn(usize) -> u64,
        phase: Phase,
    ) {
        if n == 0 {
            return;
        }
        let untimed = Instant::now();
        let now = self.now();
        let mut eligible = vec![!live_only; self.spec.streams];
        if live_only {
            for &node in self.cluster.node_ids() {
                for s in self.cluster.node(node).summaries().filter(|s| now < s.expires) {
                    eligible[s.stream as usize] = true;
                }
            }
        }
        let mut by_key: Vec<(f64, usize)> = self
            .cluster
            .streams()
            .iter()
            .enumerate()
            .filter(|&(sid, _)| eligible[sid])
            .filter_map(|(sid, s)| s.last_feature.as_ref().map(|f| (f.first_real(), sid)))
            .collect();
        by_key.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
        if by_key.is_empty() {
            return;
        }
        self.batch_no += 1;
        let offset = (self.batch_no as f64 * 0.618_033_988_749_895).fract();
        let radius = self.cluster.config().workload.query_radius;
        for j in 0..n {
            let position = (j as f64 + offset) / n as f64;
            let (_, sid) =
                by_key[((position * by_key.len() as f64) as usize).min(by_key.len() - 1)];
            let client = self.rng.gen_range(0..self.cluster.num_nodes());
            let target = self.cluster.streams()[sid].extractor.window_snapshot();
            self.post_target(client, target, radius, lifespan_ms(j), now, phase);
        }
    }

    fn post_target(
        &mut self,
        client: usize,
        target: Vec<f64>,
        radius: f64,
        lifespan_ms: u64,
        now: SimTime,
        phase: Phase,
    ) {
        let op = self.next_op();
        let kept = target.clone();
        let at = self.span_now();
        let (id, post_ns) = time_ns(|| {
            self.cluster.post_similarity_query(client, target, radius, lifespan_ms, now)
        });
        self.record_at("cluster.post_query", self.root, op, at, post_ns, 1);
        let untimed = Instant::now();
        let cfg = self.cluster.config();
        let query = SimilarityQuery::from_target(
            id,
            self.cluster.node_id(client),
            kept,
            radius,
            cfg.kind,
            cfg.workload.num_coeffs,
            0,
            now + lifespan_ms,
        );
        let newest = self.queries.last().map_or(0, |p| p.id);
        self.queries.push(Posted { id, query });
        if phase != Phase::Warmup {
            self.tally.post_ns.push(post_ns);
            self.tally.op(id > newest, || format!("query id {id} not above {newest}"));
        }
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
    }

    // ------------------------------------------------------------------
    // NPER round
    // ------------------------------------------------------------------

    /// One NPER round at the current time: every node's notify cycle, the
    /// query-registry purge and (under faults) the repair sweep; then the
    /// read-side replays and the checks, outside the timed region.
    fn round(&mut self, phase: Phase) {
        let now = self.now();
        let op = self.next_op();
        let span = self.open_span("round", self.root, op);
        let faulty = self.spec.drive == Drive::Events;
        let per_node = self.shadow.is_some() && phase == Phase::Measured;
        let before = self.cluster.quality();
        let nodes = self.cluster.node_ids().to_vec();

        let round_start = Instant::now();
        let at = self.span_now();
        let ((), notify_ns) = time_ns(|| {
            for &node in &nodes {
                if per_node {
                    let ((), ns) = time_ns(|| self.cluster.notify_cycle(node, now));
                    self.tally.notify_ns.push(ns);
                } else {
                    self.cluster.notify_cycle(node, now);
                }
            }
        });
        let ((), purge_queries_ns) = time_ns(|| self.cluster.purge_queries(now));
        let mut repair_ns = 0;
        if faulty {
            repair_ns = time_ns(|| self.cluster.repair_coverage(now)).1;
            self.cluster.record_load_round(now);
        }
        let round_ns = round_start.elapsed().as_nanos() as u64;
        if let Some(spans) = &mut self.spans {
            let mut layers = vec![
                ("cluster.notify_cycle", notify_ns, nodes.len() as u64),
                ("cluster.purge_queries", purge_queries_ns, 1),
            ];
            if faulty {
                layers.push(("cluster.repair_coverage", repair_ns, 1));
            }
            spans.record_sequence(span, op, at, &layers);
        }

        let untimed = Instant::now();
        self.queries.retain(|p| !p.query.expired(now));
        if phase != Phase::Warmup {
            let after = self.cluster.quality();
            self.tally.candidates += after.candidates - before.candidates;
            self.tally.verified += after.verified - before.verified;
            self.tally.answered += self.queries.len() as u64;
        }
        if let Some(shipped) = &mut self.shipped {
            for list in shipped.iter_mut() {
                list.retain(|(_, expires)| now < *expires);
            }
        }
        if phase == Phase::Measured {
            if faulty {
                self.tally.ingest_samples.push((0, 0));
            }
            self.tally.round_ns.push(round_ns);
            self.tally.purge_queries_ns += purge_queries_ns;
            self.tally.repair_ns += repair_ns;
            let stored: Vec<u64> =
                nodes.iter().map(|&n| self.cluster.node(n).mbr_count() as u64).collect();
            self.tally.gini_sum += dsi_core::gini(&stored);
        }
        // Always-on round check: the cycles purged every expired MBR.
        let mut ok =
            nodes.iter().all(|&n| self.cluster.node(n).summaries().all(|s| now < s.expires));
        ok &= self.replay_round(span, op, now, before, phase);
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
        if phase == Phase::Measured {
            self.tally.op(ok, || format!("round at {now}: purge or replay check failed"));
            self.check_queries(now);
            // The round closes its NPER period.
            let elapsed = self.period_start.elapsed().as_nanos() as u64;
            let untimed = self.tally.untimed_ns - self.period_untimed;
            self.tally.period_ns.push(elapsed.saturating_sub(untimed));
            self.period_start = Instant::now();
            self.period_untimed = self.tally.untimed_ns;
        }
        self.close_span(span, nodes.len() as u64);
    }

    /// Traced passes: replays purge and the read side of the round, and
    /// (on lossless workloads) holds the replay against what the cluster
    /// did. Returns whether the fidelity checks held.
    fn replay_round(
        &mut self,
        span: SpanId,
        op: u64,
        now: SimTime,
        before: QualityStats,
        phase: Phase,
    ) -> bool {
        let (Some(shadow), Some(spans)) = (&mut self.shadow, &mut self.spans) else { return true };
        let at = spans.now_ns();
        let purge_ns = shadow.purge(now);
        let mut totals = [0u64; 4];
        let (mut candidates, mut verified) = (0u64, 0u64);
        for p in &self.queries {
            let ((c, v), ns) = shadow.probe_query(&self.cluster, &p.query, now);
            candidates += c;
            verified += v;
            for (t, n) in totals.iter_mut().zip(ns) {
                *t += n;
            }
        }
        let live = self.queries.len() as u64;
        let [cover_ns, collect_ns, scan_ns, verify_ns] = totals;
        spans.record_sequence(
            span,
            op,
            at,
            &[
                ("datacenter.purge", purge_ns, 1),
                ("chord.covering_nodes", cover_ns, live),
                ("datacenter.collect_candidates", collect_ns, candidates),
                ("sortable.scan", scan_ns, live),
                ("dsp.verify", verify_ns, candidates),
            ],
        );
        if phase == Phase::Measured {
            self.tally.round_replay_ns += purge_ns + cover_ns + collect_ns + verify_ns;
        }
        if self.spec.drive == Drive::Events {
            return true;
        }
        let after = self.cluster.quality();
        after.candidates - before.candidates == candidates
            && after.verified - before.verified == verified
            && self
                .cluster
                .node_ids()
                .iter()
                .all(|&n| shadow.mbr_count(n) == self.cluster.node(n).mbr_count())
    }

    /// No-false-dismissal and index-equivalence checks on a seeded sample
    /// of live queries, right after a round (windows have not moved since
    /// the cycles ran).
    fn check_queries(&mut self, now: SimTime) {
        if self.queries.is_empty() {
            return;
        }
        let untimed = Instant::now();
        let hottest = self
            .cluster
            .node_ids()
            .iter()
            .copied()
            .max_by_key(|&n| (self.cluster.node(n).mbr_count(), n))
            .expect("a cluster has nodes");
        for _ in 0..NFD_SAMPLES_PER_ROUND {
            let p = &self.queries[self.check_rng.gen_range(0..self.queries.len())];
            let q = &p.query;
            let point = q.feature.to_reals();
            let mode = q.kind.normalization();
            let notified: BTreeSet<StreamId> = self
                .cluster
                .notifications(p.id)
                .iter()
                .filter(|n| n.at == now)
                .map(|n| n.stream)
                .collect();
            let (mut matches, mut misses) = (0u64, 0u64);
            for (sid, s) in self.cluster.streams().iter().enumerate() {
                if !s.extractor.is_warm() {
                    continue;
                }
                // With the shipped-MBR reference, a match counts only when
                // a live shipped MBR makes the stream a candidate: the
                // guarantee is relative to the summaries the index holds,
                // not to values still waiting in a batcher.
                if let Some(shipped) = &self.shipped {
                    if !shipped[sid].iter().any(|(m, _)| m.min_dist(&point) <= q.radius + 1e-12) {
                        continue;
                    }
                }
                let window = s.extractor.window_snapshot();
                if normalized_distance(&q.target, &window, mode) <= q.radius + 1e-9 {
                    matches += 1;
                    misses += u64::from(!notified.contains(&(sid as StreamId)));
                }
            }
            self.tally.nfd_matches += matches;
            self.tally.nfd_misses += misses;
            let dc = self.cluster.node(hottest);
            let same_index = dc.local_candidates(q, now) == dc.local_candidates_linear(q, now);
            // Under injected loss and delay a miss is an expected, counted
            // degradation, not a failed operation.
            let ok = same_index && (misses == 0 || self.shipped.is_none());
            let id = p.id;
            self.tally.op(ok, || {
                format!("query {id} at {now}: {misses} of {matches} matches dismissed, index==linear: {same_index}")
            });
        }
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
    }

    // ------------------------------------------------------------------
    // Event drive (faulty_mix)
    // ------------------------------------------------------------------

    /// Schedules every stream's first value and the first round.
    fn start_events(&mut self) {
        let cfg = self.cluster.config().workload.clone();
        let qw = QueryWorkload::new(cfg.clone(), self.spec.nodes);
        let mut engine: Engine<Ev> = Engine::new();
        let periods: Vec<u64> =
            (0..self.spec.streams).map(|_| qw.sample_period_ms(&mut self.rng)).collect();
        for (s, &p) in periods.iter().enumerate() {
            engine.schedule_at(SimTime::from_ms(self.rng.gen_range(0..p)), Ev::Value(s as u32));
        }
        engine.schedule_at(SimTime::from_ms(cfg.nper_ms), Ev::Round);
        self.events = Some(EventDrive {
            engine,
            periods,
            qw,
            arrivals: PoissonArrivals::new(cfg.qrate_per_sec),
            churn_no: 0,
            interval: Vec::new(),
            interval_times: Vec::new(),
            interval_start_ns: 0,
            interval_ingest_ns: 0,
            interval_gen_ns: 0,
        });
    }

    /// Runs the event drive for `duration_ms` of simulated time. The
    /// measured phase additionally arms query arrivals, the aggregate
    /// schedule and the churn schedule.
    fn run_events(&mut self, duration_ms: u64, phase: Phase) {
        let Some(mut ev) = self.events.take() else { return };
        let start = ev.engine.now();
        if phase == Phase::Measured {
            let gap = ev.arrivals.next_gap_ms(&mut self.rng);
            ev.engine.schedule_after(gap, Ev::Query);
            ev.engine.schedule_after(FAULTY_AGGREGATE_EVERY_MS, Ev::Aggregate);
            ev.engine.schedule_after(FAULTY_CHURN_EVERY_MS, Ev::Churn);
        }
        // Scheduled before the events it bounds re-arm themselves, so it
        // fires first among events due exactly at the end: phases are
        // half-open intervals.
        ev.engine.schedule_at(start + duration_ms, Ev::Stop);
        ev.interval_start_ns = self.span_now();
        while let Some((now, event)) = ev.engine.step() {
            self.now_ms = now.as_ms();
            match event {
                Ev::Stop => break,
                Ev::Value(sid) => self.event_value(&mut ev, sid, now, phase),
                Ev::Query => {
                    self.event_query(&mut ev, now, phase);
                    let gap = ev.arrivals.next_gap_ms(&mut self.rng);
                    ev.engine.schedule_after(gap, Ev::Query);
                }
                Ev::Round => {
                    self.flush_interval(&mut ev);
                    self.round(phase);
                    ev.interval_start_ns = self.span_now();
                    ev.engine.schedule_after(self.cluster.config().workload.nper_ms, Ev::Round);
                }
                Ev::Aggregate => {
                    let client = self.rng.gen_range(0..self.cluster.num_nodes());
                    self.cluster.post_aggregate_query(client, aggregate_spec(), now);
                    ev.engine.schedule_after(FAULTY_AGGREGATE_EVERY_MS, Ev::Aggregate);
                }
                Ev::Churn => {
                    self.event_churn(&mut ev, now);
                    ev.engine.schedule_after(FAULTY_CHURN_EVERY_MS, Ev::Churn);
                }
            }
        }
        self.events = Some(ev);
    }

    /// One stream value through the per-event ingest path.
    fn event_value(&mut self, ev: &mut EventDrive, sid: StreamId, now: SimTime, phase: Phase) {
        let (v, gen_ns) = time_ns(|| self.walks[sid as usize].next_value(&mut self.rng));
        let (plan, ingest_ns) = time_ns(|| self.cluster.post_value(sid, v, now));
        if phase == Phase::Measured {
            self.tally.gen_ns += gen_ns;
            self.tally.ingest_call_ns.push(ingest_ns);
            self.tally.add_to_period(ingest_ns);
            if let Some(plan) = &plan {
                self.tally.count_plan(plan);
            }
        }
        if self.shadow.is_some() {
            ev.interval.push((sid, v));
            ev.interval_times.push(now);
            ev.interval_ingest_ns += ingest_ns;
            ev.interval_gen_ns += gen_ns;
        }
        ev.engine.schedule_after(ev.periods[sid as usize], Ev::Value(sid));
    }

    /// Traced passes: replays the write-side layers over the values of the
    /// interval that just ended and records the interval's accumulated
    /// ingest spans.
    fn flush_interval(&mut self, ev: &mut EventDrive) {
        let (Some(shadow), Some(spans)) = (&mut self.shadow, &mut self.spans) else { return };
        let untimed = Instant::now();
        let items = ev.interval.len() as u64;
        // The spans of an interval share the op id of the round ending it.
        let op = self.op_no + 1;
        let start = ev.interval_start_ns;
        spans.record_accumulated("streamgen.next_value", op, start, ev.interval_gen_ns, items);
        spans.record_accumulated("cluster.ingest", op, start, ev.interval_ingest_ns, items);
        let replay = spans.open("interval.replay", self.root, op);
        let at = spans.now_ns();
        let layers = shadow.replay_ingest(&ev.interval, &ev.interval_times, &self.cluster);
        spans.record_sequence(replay, op, at, &layers);
        spans.close(replay, items);
        ev.interval.clear();
        ev.interval_times.clear();
        ev.interval_ingest_ns = 0;
        ev.interval_gen_ns = 0;
        self.tally.untimed_ns += untimed.elapsed().as_nanos() as u64;
    }

    /// One Poisson query arrival: an inner-product query with probability
    /// `FAULTY_IP_SHARE`, else a similarity query (Table I lifespan) on a
    /// stratified stream window.
    fn event_query(&mut self, ev: &mut EventDrive, now: SimTime, phase: Phase) {
        // Churn changes the node count; issuers index the live population.
        let live = self.cluster.num_nodes();
        if self.rng.gen_bool(FAULTY_IP_SHARE) {
            let spec = ev.qw.inner_product_query(&mut self.rng);
            self.cluster.post_inner_product_query(
                spec.issuer % live,
                spec.stream as StreamId,
                spec.indices,
                spec.weights,
                spec.lifespan_ms,
                now,
            );
        } else {
            let lifespan = ev.qw.sample_lifespan_ms(&mut self.rng);
            self.post_stratified(1, false, |_| lifespan, phase);
        }
    }

    /// One churn event on a fixed (seed-independent) victim schedule, so
    /// the ring evolves identically under every seed: crash, join,
    /// re-home the orphaned streams.
    fn event_churn(&mut self, ev: &mut EventDrive, now: SimTime) {
        let op = self.next_op();
        let live = self.cluster.num_nodes();
        let victim = self.cluster.node_id((ev.churn_no as usize * 37 + 11) % live);
        let label = format!("bench-join-{}", ev.churn_no);
        ev.churn_no += 1;
        let at = self.span_now();
        let (orphans, churn_ns) = time_ns(|| {
            self.cluster.crash_node(victim);
            self.cluster.join_node(&label);
            let orphans = self.cluster.orphaned_streams();
            for &s in &orphans {
                let home = s as usize % self.cluster.num_nodes();
                self.cluster.rehome_stream(s, home, now);
            }
            orphans.len() as u64
        });
        self.tally.churn_ns.push(churn_ns);
        self.record_at("cluster.churn", self.root, op, at, churn_ns, orphans);
    }

    // ------------------------------------------------------------------
    // Measured phase
    // ------------------------------------------------------------------

    /// Drives `rounds` NPER periods of measured work, then (when asked, on
    /// workloads that post no queries while measuring) the epilogue probe.
    pub fn measure(&mut self, rounds: u64, with_epilogue: bool) {
        let nper = self.cluster.config().workload.nper_ms;
        self.root = self.open_span("measure", NO_PARENT, 0);
        let start = Instant::now();
        self.period_start = start;
        self.period_untimed = self.tally.untimed_ns;
        match self.spec.drive {
            Drive::Ticks { .. } => self.run_ticks(rounds, Phase::Measured),
            Drive::Events => self.run_events(rounds * nper, Phase::Measured),
        }
        let elapsed = start.elapsed().as_nanos() as u64;
        self.close_span(self.root, rounds);
        // Checks, bookkeeping and (traced passes) layer replays run between
        // the in-situ calls; their time is not the cluster's.
        self.tally.wall_ns = elapsed.saturating_sub(self.tally.untimed_ns);
        (self.tally.messages, self.tally.input_events) = self.message_counts();
        if with_epilogue && self.tally.post_ns.is_empty() {
            self.epilogue();
        }
    }

    /// Query probe for the ingest workloads: posts `EPILOGUE_QUERIES`
    /// similarity queries against the stores the measured phase built,
    /// lets all but every fourth expire, and answers those in one extra
    /// round one tick later. Outside `wall_s`; it exists so the query-side
    /// metrics are measured on every workload.
    fn epilogue(&mut self) {
        let every = EPILOGUE_QUERIES / EPILOGUE_ANSWERED;
        let lifespan =
            |j: usize| if j.is_multiple_of(every) { QUERY_LIFESPAN_MS } else { TICK_MS / 2 };
        self.post_stratified(EPILOGUE_QUERIES, true, lifespan, Phase::Epilogue);
        self.now_ms += TICK_MS;
        self.round(Phase::Epilogue);
    }

    /// Overlay messages and input events counted since measurement began.
    fn message_counts(&self) -> (u64, u64) {
        let m = self.cluster.metrics();
        let messages = MsgClass::ALL.iter().map(|&c| m.total(c)).sum();
        let events = [InputEvent::Mbr, InputEvent::Query, InputEvent::Response]
            .iter()
            .map(|&e| m.event_count(e))
            .sum();
        (messages, events)
    }

    /// The end-to-end metrics of this pass (all but `setup_s`).
    pub fn end_to_end(&self, report: &mut Report) {
        let t = &self.tally;
        report.put("wall_s", t.wall_ns as f64 / 1e9);
        // Host noise (a migrated thread, a neighbour hammering the shared
        // cache) only ever slows a sample down and comes in bursts of up to
        // seconds, so the rate is read off the fastest quartile of samples,
        // which repeats from run to run where the median does not.
        let rates: Vec<f64> = t
            .ingest_samples
            .iter()
            .filter(|&&(items, _)| items > 0)
            .map(|&(items, ns)| ratio(items as f64, ns as f64 / 1e9))
            .collect();
        report.put("ingest_items_per_s", percentile(&rates, 0.75));
        report.put("nper_round_p50_ms", median(&as_f64(&t.round_ns)) / 1e6);
        report.put("query_post_p50_us", median(&as_f64(&t.post_ns)) / 1e3);
        report.put("peak_rss_mb", peak_rss_mb());
        report.put("msgs_per_event", ratio(t.messages as f64, t.input_events as f64));
        report.put("replicas_per_mbr", ratio(t.replicas as f64, t.emitted as f64));
        report.put("stored_mbr_gini", ratio(t.gini_sum, t.round_ns.len() as f64));
        report.put("candidates_per_match", ratio(t.candidates as f64, t.answered as f64));
        // Simulated time per wall time of an uncontended NPER period (the
        // fastest quartile, for the reason above); `wall_s` is the plain
        // total, bursts included.
        let nper_s = self.cluster.config().workload.nper_ms as f64 / 1e3;
        let periods: Vec<f64> = t.period_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        report.put("realtime_factor", ratio(nper_s, percentile(&periods, 0.25)));
    }

    /// The per-layer metrics of a traced pass. `plain_wall_ns` is the wall
    /// time of the untraced pass over the same work.
    pub fn per_layer(&self, report: &mut Report, plain_wall_ns: u64, seed: u64) {
        let Some(shadow) = &self.shadow else { return };
        let t = &self.tally;
        let l = &shadow.tally;
        let (items, ingest_ns) = t.ingest_totals();
        let alone: Standalone = layers::standalone(&self.cluster, items, t.messages, seed);
        let calls = as_f64(&t.ingest_call_ns);
        let notify = as_f64(&t.notify_ns);
        let posts = as_f64(&t.post_ns);
        let rounds = t.round_ns.len() as f64;
        let round_ns: u64 = t.round_ns.iter().sum();
        let attributed: f64 = self.ingest_attribution().iter().map(|&(_, share)| share).sum();

        report.put("cluster.ingest.ns_per_item", ratio(ingest_ns as f64, items as f64));
        report.put("cluster.ingest.tick_p50_us", median(&calls) / 1e3);
        report.put("cluster.ingest.tick_p95_us", percentile(&calls, 0.95) / 1e3);
        report.put("cluster.ingest.unattributed_share", 1.0 - attributed);
        report.put("cluster.notify_cycle.p50_us", median(&notify) / 1e3);
        report.put("cluster.notify_cycle.p99_us", percentile(&notify, 0.99) / 1e3);
        report.put(
            "cluster.purge_queries.us_per_round",
            ratio(t.purge_queries_ns as f64 / 1e3, rounds),
        );
        report.put(
            "cluster.round.unattributed_share",
            1.0 - ratio(t.round_replay_ns as f64, round_ns as f64),
        );
        report.put("cluster.post_query.p50_us", median(&posts) / 1e3);
        report.put("cluster.post_query.p95_us", percentile(&posts, 0.95) / 1e3);
        report.put(
            "cluster.register_stream.ns_per_stream",
            ratio(self.register_ns as f64, self.spec.streams as f64),
        );
        report.put("dsp.update.ns_per_item", l.dsp_update.per_unit());
        report.put("dsp.verify.ns_per_candidate", l.verify.per_unit());
        report.put("batching.push.ns_per_item", l.batching_push.per_unit());
        report.put("batching.items_per_mbr", ratio(l.batching_push.work as f64, l.emitted as f64));
        let early: u64 = self.cluster.streams().iter().map(|s| s.batcher.early_shipments()).sum();
        let produced: u64 = self.cluster.streams().iter().map(|s| s.batcher.produced()).sum();
        report.put("batching.early_ship_share", ratio(early as f64, produced as f64));
        report.put("mapping.key_range.ns_per_mbr", l.mapping.per_unit());
        report.put("chord.multicast.ns_per_mbr", l.multicast.per_unit());
        report.put(
            "chord.multicast.deliveries_per_mbr",
            ratio(l.deliveries as f64, l.multicast.work as f64),
        );
        report.put("chord.route.hops_mean", ratio(l.route_hops as f64, l.multicast.work as f64));
        report.put("chord.lookup.ns_per_lookup", alone.lookup.per_unit());
        report.put("chord.covering_nodes.ns_per_query", l.covering.per_unit());
        report.put("datacenter.store_mbr.ns_per_replica", l.store_mbr.per_unit());
        report.put("datacenter.purge.ms_per_round", l.purge.per_unit() / 1e6);
        report.put("datacenter.stored_mbrs_peak", l.stored_peak as f64);
        report.put("datacenter.collect_candidates.ns_per_probe", l.collect.per_unit());
        report.put(
            "datacenter.collect_candidates.ns_per_candidate",
            ratio(l.collect.ns as f64, l.candidates_raw as f64),
        );
        report.put(
            "datacenter.candidates_per_probe",
            ratio(l.candidates_raw as f64, l.collect.work as f64),
        );
        report.put("sortable.insert.ns_per_key", l.sortable_insert.per_unit());
        report.put("sortable.scan.ns_per_probe", l.scan.per_unit());
        report.put("reliability.resolve.ns_per_send", alone.resolve.per_unit());
        let m = self.cluster.metrics();
        let (decisions, lost) = MsgClass::ALL.iter().fold((0u64, 0u64), |(d, l), &c| {
            let (decided, _, lost, _) = m.send_accounting(c);
            (d + decided, l + lost)
        });
        let retries_per_send = if decisions > 0 {
            m.reliability_totals().0 as f64 / decisions as f64
        } else {
            ratio(alone.resolve_retries as f64, alone.resolve.work as f64)
        };
        report.put("reliability.retries_per_send", retries_per_send);
        report.put("sketch.update.ns_per_item", alone.sketch_update.per_unit());
        report.put("sketch.merge.us_per_merge", alone.sketch_merge.per_unit() / 1e3);
        report.put("simnet.engine.ns_per_event", alone.engine.per_unit());
        report.put("streamgen.next_value.ns_per_item", ratio(t.gen_ns as f64, items as f64));
        report.put(
            "trace.overhead_share",
            ratio(t.wall_ns as f64 - plain_wall_ns as f64, plain_wall_ns as f64),
        );
        if self.spec.drive == Drive::Events {
            let churn = as_f64(&t.churn_ns);
            report.put(
                "cluster.repair_coverage.ms_per_round",
                ratio(t.repair_ns as f64 / 1e6, rounds),
            );
            report.put(
                "cluster.churn.ms_per_event",
                ratio(churn.iter().sum::<f64>() / 1e6, churn.len() as f64),
            );
            report.put("reliability.lost_share", ratio(lost as f64, decisions as f64));
            report.put(
                "reliability.backoff_ms_per_send",
                ratio(self.cluster.backoff_ms_total() as f64, decisions as f64),
            );
            report.put("checks.nfd_miss_share", ratio(t.nfd_misses as f64, t.nfd_matches as f64));
        }
    }

    /// Share of the in-situ ingest span each replayed write-side layer
    /// accounts for. The batch path runs the summarise lane on `workers()`
    /// threads, so its replayed (sequential) time is divided by that count
    /// to compare like with like.
    pub fn ingest_attribution(&self) -> Vec<(&'static str, f64)> {
        let Some(shadow) = &self.shadow else { return Vec::new() };
        let l = &shadow.tally;
        let w = if matches!(self.spec.drive, Drive::Ticks { .. }) { workers() } else { 1 } as f64;
        let span = self.tally.ingest_totals().1 as f64;
        vec![
            ("dsp.update", ratio(l.dsp_update.ns as f64 / w, span)),
            ("batching.push", ratio(l.batching_push.ns as f64 / w, span)),
            ("mapping.key_range", ratio(l.mapping.ns as f64, span)),
            ("chord.multicast", ratio(l.multicast.ns as f64, span)),
            ("datacenter.store_mbr", ratio(l.store_mbr.ns as f64, span)),
        ]
    }
}

/// The stream population: walks whose feature levels cover the interval
/// `RandomWalk::sample_spread` draws from, (-0.9, 0.9), by jittered
/// stratified sampling — one seeded draw inside each of `n` equal cells,
/// cells dealt to streams by a fixed stride. Same marginal distribution as
/// `n` independent `sample_spread` draws, without their seed-to-seed swings
/// in how many streams crowd which arc of the ring.
fn spread_walks(n: usize, rng: &mut StdRng) -> Vec<RandomWalk> {
    // A prime stride far from n's small factors visits every cell once.
    const STRIDE: usize = 7_919;
    assert!(!n.is_multiple_of(STRIDE), "stream count must not be a multiple of the stride");
    (0..n)
        .map(|i| {
            let cell = (i * STRIDE) % n;
            let q = -0.9 + 1.8 * (cell as f64 + rng.gen::<f64>()) / n as f64;
            RandomWalk::with_feature_level(q.clamp(-0.899_999, 0.899_999))
        })
        .collect()
}

fn as_f64(values: &[u64]) -> Vec<f64> {
    values.iter().map(|&v| v as f64).collect()
}

/// Copies of one emitted MBR the cluster stored: one per delivery, plus
/// the source's own when the multicast did not cover it.
pub fn stored_copies(plan: &MulticastPlan) -> u64 {
    plan.deliveries.len() as u64 + u64::from(!plan.deliveries.iter().any(|d| d.node == plan.origin))
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc` is
/// not available.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one benchmark run produced.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub spans: Option<Spans>,
    pub attribution: Vec<(&'static str, f64)>,
    /// Figures printed for the reader but not registered as metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(report: Report, world: &mut World) -> Outcome {
        let attribution = world.ingest_attribution();
        let t = std::mem::take(&mut world.tally);
        // The raw pruning ratio `candidates_per_match` was first specified
        // as; the README says why the registered metric divides differently.
        let note = format!(
            "candidates per verified match: {} / {} = {:.3} (over {} answered query-rounds)",
            t.candidates,
            t.verified,
            ratio(t.candidates as f64, t.verified as f64),
            t.answered
        );
        Outcome {
            report,
            attempted: t.attempted,
            failed: t.failed,
            failures: t.failures,
            spans: world.spans.take(),
            attribution,
            notes: vec![note],
        }
    }
}

/// An untraced run: `SETUP_REPEATS` set-ups (the last one is measured),
/// then the fixed work for `seconds`, reporting the end-to-end metrics.
pub fn run_plain(spec: Spec, seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous cluster first: two at once would double the
        // peak the run reports.
        drop(world.take());
        let start = Instant::now();
        world = Some(World::setup(spec, seed, false));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut world = world.expect("at least one set-up");
    world.measure(spec.rounds_for(seconds), true);
    let mut report = Report::default();
    report.put("setup_s", median(&setup_s));
    world.end_to_end(&mut report);
    Outcome::new(report, &mut world)
}

/// A traced run: the `seconds` budget is split between an untraced pass
/// (the reference for `trace.overhead_share`) and a traced pass over the
/// same work with the same seed, reporting the per-layer metrics. The two
/// passes must agree on every count, or tracing perturbed the system.
pub fn run_traced(spec: Spec, seed: u64, seconds: f64) -> Outcome {
    let rounds = spec.rounds_for(seconds / 2.0);
    let mut plain = World::setup(spec, seed, false);
    plain.measure(rounds, false);
    let mut plain_report = Report::default();
    plain.end_to_end(&mut plain_report);
    let plain_wall_ns = plain.tally.wall_ns;
    drop(plain);

    let mut traced = World::setup(spec, seed, true);
    traced.measure(rounds, true);
    let mut traced_report = Report::default();
    traced.end_to_end(&mut traced_report);
    let mut report = Report::default();
    traced.per_layer(&mut report, plain_wall_ns, seed);
    // The epilogue ran in the traced pass only, so the one count it feeds
    // is compared only where the measured phase itself answers queries.
    let answers = plain_report.get("query_post_p50_us").is_some_and(|v| v > 0.0);
    for m in END_TO_END.iter().filter(|m| m.kind == Kind::Count) {
        if m.name == "candidates_per_match" && !answers {
            continue;
        }
        let (a, b) = (plain_report.get(m.name), traced_report.get(m.name));
        traced.tally.op(a == b, || format!("{} differs between passes: {a:?} vs {b:?}", m.name));
    }
    Outcome::new(report, &mut traced)
}
