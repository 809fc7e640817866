//! An NPER round's similarity answers against a brute-force reference.
//!
//! The cluster answers every live query of a round from one shared pass
//! per covering shard. It uses per-query probes instead for the first
//! aggregator of a round, and when a shard changed after its pass. Whatever
//! path answers, each query's response must equal: the union over its
//! side-aware covering nodes of `local_candidates_linear`, filtered by
//! `normalized_distance`, read at the moment its aggregator's cycle runs.
//! The tests drive rounds node by node and check that after every cycle,
//! through delayed MBRs draining mid-round, queries posted mid-round, churn
//! between and within rounds, and cycles staggered so that no two share a
//! `now`.

use dsi_chord::covering_nodes_from;
use dsi_core::{
    radius_key_range, Cluster, ClusterConfig, MatchNotification, SimilarityQuery, StreamId,
};
use dsi_dsp::normalized_distance;
use dsi_simnet::{FaultPlan, FaultSpec, MsgClass, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const NODES: usize = 16;
const STREAMS: usize = 40;
const TICK_MS: u64 = 100;

/// A seeded cluster whose streams are noisy sines of varied shape.
struct World {
    c: Cluster,
    rng: StdRng,
    shapes: Vec<(f64, f64, f64)>,
    /// Every posted similarity query, as replicated (ascending id).
    queries: Vec<SimilarityQuery>,
}

impl World {
    fn new(seed: u64) -> World {
        let mut cfg = ClusterConfig::new(NODES);
        cfg.workload.window_len = 16;
        cfg.workload.num_coeffs = 2;
        cfg.workload.mbr_batch = 2;
        let mut c = Cluster::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes = (0..STREAMS)
            .map(|s| {
                c.register_stream(&format!("round-scan-{seed}-{s}"), s % NODES);
                (rng.gen_range(0.2..0.9), rng.gen_range(0.0..6.0), rng.gen_range(0.0..0.4))
            })
            .collect();
        World { c, rng, shapes, queries: Vec::new() }
    }

    /// Feeds every stream the values of ticks `from..to`.
    fn feed(&mut self, ticks: std::ops::Range<u64>) {
        for t in ticks {
            for (s, &(freq, phase, noise)) in self.shapes.iter().enumerate() {
                let v = (t as f64 * freq + phase).sin() * 2.0 + self.rng.gen_range(-noise..=noise);
                self.c.post_value(s as StreamId, 5.0 + v, SimTime::from_ms(t * TICK_MS));
            }
        }
    }

    /// Posts a query shaped on a random stream's window, with a radius wide
    /// enough for false positives, and records its replicated form.
    fn post(&mut self, now: SimTime) {
        let sid = self.rng.gen_range(0..STREAMS);
        let mut target = self.c.streams()[sid].extractor.window_snapshot();
        for v in &mut target {
            *v += self.rng.gen_range(-0.3..0.3);
        }
        let radius = self.rng.gen_range(0.3..0.9);
        let client = self.rng.gen_range(0..self.c.num_nodes());
        let id = self.c.post_similarity_query(client, target, radius, 60_000, now);
        assert!(
            self.c.node_ids().iter().any(|&n| self.c.node(n).has_subscription(id)),
            "a lossless post subscribes its covering nodes"
        );
        self.queries.push(self.c.similarity_query(id).expect("registered").clone());
    }
}

/// The brute-force answer to `q` on the cluster as it is right now:
/// (candidates, verified matches), both ascending.
fn reference(c: &Cluster, q: &SimilarityQuery, now: SimTime) -> (Vec<StreamId>, Vec<StreamId>) {
    let (lo, hi) = radius_key_range(c.space(), q.feature.first_real(), q.radius);
    let mut candidates = BTreeSet::new();
    for n in covering_nodes_from(c.ring(), q.aggregator, lo, hi) {
        candidates.extend(c.node(n).local_candidates_linear(q, now));
    }
    let matches = candidates
        .iter()
        .copied()
        .filter(|&sid| {
            let ex = &c.streams()[sid as usize].extractor;
            ex.is_warm()
                && normalized_distance(&q.target, &ex.window_snapshot(), q.kind.normalization())
                    <= q.radius + 1e-9
        })
        .collect();
    (candidates.into_iter().collect(), matches)
}

/// What one checked round saw.
#[derive(Default)]
struct RoundLog {
    /// Queries answered, candidates and matches summed over them.
    answered: usize,
    candidates: usize,
    matches: usize,
    /// Cycles whose own node gained live records while it covered a query
    /// answered earlier in the round and one answered later.
    mid_round_drains: usize,
}

/// Runs one NPER round at `now` node by node; `between(world, k)` runs
/// before the `k`-th cycle.
fn check_round(w: &mut World, now: SimTime, between: impl FnMut(&mut World, usize)) -> RoundLog {
    check_staggered_round(w, now, 0, between)
}

/// Runs one NPER round node by node, the `k`-th cycle at `now + k *
/// stagger_ms`; `between(world, k)` runs before it. After each cycle, every
/// query that node aggregates must have been answered exactly as
/// [`reference`] says, and the quality counters must have moved by the
/// reference's totals. A query whose aggregator ran before it was posted
/// gets no answer this round.
fn check_staggered_round(
    w: &mut World,
    now: SimTime,
    stagger_ms: u64,
    mut between: impl FnMut(&mut World, usize),
) -> RoundLog {
    let mut log = RoundLog::default();
    let nodes = w.c.node_ids().to_vec();
    let mut answered_at = vec![None; w.queries.len()];
    let mut grew = Vec::new();
    let last = now + (nodes.len() as u64 - 1) * stagger_ms;
    for (k, &node) in nodes.iter().enumerate() {
        let t = now + k as u64 * stagger_ms;
        between(w, k);
        answered_at.resize(w.queries.len(), None);
        let live = |c: &Cluster| c.node(node).summaries().filter(|s| t < s.expires).count();
        let (live_before, before) = (live(&w.c), w.c.quality());
        w.c.notify_cycle(node, t);
        if live(&w.c) > live_before {
            grew.push((k, node));
        }
        let (mut candidates, mut matches) = (0, 0);
        for (i, q) in w.queries.iter().enumerate() {
            if q.aggregator != node || q.expired(t) {
                continue;
            }
            let (cands, expected) = reference(&w.c, q, t);
            let got: Vec<StreamId> =
                w.c.notifications(q.id).iter().filter(|n| n.at == t).map(|n| n.stream).collect();
            assert_eq!(got, expected, "query {} at {t} (cycle {k})", q.id);
            candidates += cands.len();
            matches += expected.len();
            answered_at[i] = Some(k);
        }
        let after = w.c.quality();
        assert_eq!(after.candidates - before.candidates, candidates as u64, "cycle {k}");
        assert_eq!(after.verified - before.verified, matches as u64, "cycle {k}");
        log.candidates += candidates;
        log.matches += matches;
    }
    for (q, at) in w.queries.iter().zip(&answered_at) {
        if at.is_none() {
            let this_round = |n: &MatchNotification| now <= n.at && n.at <= last;
            assert!(!w.c.notifications(q.id).iter().any(this_round), "query {}", q.id);
        }
    }
    log.answered = answered_at.iter().flatten().count();
    let covers = |q: &SimilarityQuery, n| {
        let (lo, hi) = radius_key_range(w.c.space(), q.feature.first_real(), q.radius);
        covering_nodes_from(w.c.ring(), q.aggregator, lo, hi).contains(&n)
    };
    for (k, node) in grew {
        let covered_by = |pick: &dyn Fn(usize) -> bool| {
            w.queries
                .iter()
                .zip(&answered_at)
                .any(|(q, at)| at.is_some_and(pick) && covers(q, node))
        };
        if covered_by(&|a| a < k) && covered_by(&|a| a > k) {
            log.mid_round_drains += 1;
        }
    }
    log
}

/// A world warmed for 30 ticks with `queries` live queries, its first
/// round checked.
fn warmed(seed: u64, queries: usize) -> (World, SimTime) {
    let mut w = World::new(seed);
    w.feed(0..30);
    let now = SimTime::from_ms(30 * TICK_MS);
    for _ in 0..queries {
        w.post(now);
    }
    let log = check_round(&mut w, now, |_, _| {});
    assert_eq!(log.answered, queries);
    assert!(log.matches > 0 && log.candidates > log.matches, "seed {seed}: a vacuous round");
    (w, now)
}

#[test]
fn delayed_mbrs_draining_mid_round_match_the_reference() {
    let mut drains = 0;
    for seed in 1..=4 {
        let (mut w, start) = warmed(seed, 24);
        // Half of all MBR traffic parks until the receiver's first cycle
        // one NPER later, so covering shards gain records mid-round.
        let late = FaultSpec { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.5 };
        let plan = [MsgClass::MbrOriginated, MsgClass::MbrInternal, MsgClass::MbrTransit]
            .into_iter()
            .fold(FaultPlan::NONE, |p, class| p.with_class(class, late));
        w.c.set_fault_plan(plan, seed);
        w.feed(30..36);
        assert!(w.c.pending_effects() > 0);
        let nper = w.c.config().workload.nper_ms;
        let log = check_round(&mut w, start + nper + 600, |_, _| {});
        assert!(log.answered > 0);
        drains += log.mid_round_drains;
    }
    assert!(drains > 0, "no shard changed between two aggregators' reads");
}

#[test]
fn a_query_posted_mid_round_matches_the_reference() {
    let mut answered_late = 0;
    for seed in 1..=4 {
        let (mut w, start) = warmed(seed, 12);
        w.feed(30..40);
        let now = start + 1000;
        let before = w.queries.len();
        let log = check_round(&mut w, now, |w, k| {
            if k == NODES / 2 {
                for _ in 0..6 {
                    w.post(now);
                }
            }
        });
        // The mid-round queries whose aggregator had not run yet are
        // answered this round; the others wait for the next one.
        answered_late += log.answered - before;
        check_round(&mut w, now + 2000, |_, _| {});
    }
    assert!(answered_late > 0, "no mid-round query was answered in its round");
}

#[test]
fn staggered_cycles_match_the_reference() {
    // Every cycle at its own `now`, as a driver with random NPER phases runs
    // them: no two aggregators share a round plan, each probes on its own.
    for seed in 1..=4 {
        let (mut w, start) = warmed(seed, 16);
        w.feed(30..36);
        let log = check_staggered_round(&mut w, start + 1000, 7, |_, _| {});
        assert!(log.answered > 0 && log.matches > 0);
    }
}

#[test]
fn crash_and_join_between_rounds_match_the_reference() {
    for seed in 1..=4 {
        let (mut w, start) = warmed(seed, 16);
        // Crash a node that aggregates nothing (so every aggregator is
        // still the one recorded), then add one; both repair replicas.
        let victim =
            *w.c.node_ids()
                .iter()
                .rev()
                .find(|&&n| w.queries.iter().all(|q| q.aggregator != n))
                .expect("more nodes than queries' aggregators");
        w.c.crash_node(victim);
        w.feed(30..36);
        check_round(&mut w, start + 1000, |_, _| {});
        w.c.join_node(&format!("round-scan-joiner-{seed}"));
        w.feed(36..42);
        let log = check_round(&mut w, start + 2000, |_, _| {});
        assert!(log.answered > 0 && log.matches > 0);
        // A crash between two cycles of one round: the covering sets of
        // the queries still to be answered change under the plan.
        w.feed(42..48);
        let log = check_round(&mut w, start + 3000, |w, k| {
            if k == NODES / 2 {
                let ran = &w.c.node_ids()[..k];
                let victim = *ran
                    .iter()
                    .find(|&&n| w.queries.iter().all(|q| q.aggregator != n))
                    .expect("a node that ran and aggregates nothing");
                w.c.crash_node(victim);
            }
        });
        assert!(log.answered > 0);
    }
}
