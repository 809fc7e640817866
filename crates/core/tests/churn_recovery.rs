//! Churn recovery end to end: crash → orphan detection → re-homing, with
//! *pre-crash* queries surviving the whole cycle, plus the §VII replica
//! rebalancing that keeps the covering-set invariant true across churn.

use dsi_chord::{covering_nodes, RangeStrategy};
use dsi_core::{
    interval_key_range, radius_key_range, Cluster, ClusterConfig, SimilarityKind, StreamId,
};
use dsi_simnet::SimTime;
use std::collections::BTreeSet;

fn cluster(n: usize) -> Cluster {
    let mut cfg = ClusterConfig::new(n);
    cfg.workload.window_len = 16;
    cfg.workload.num_coeffs = 2;
    cfg.workload.mbr_batch = 2;
    cfg.kind = SimilarityKind::Subsequence;
    Cluster::new(cfg)
}

fn wave(window: usize, level: f64) -> Vec<f64> {
    (0..window).map(|i| level + (i as f64 * 0.5).sin()).collect()
}

fn feed(c: &mut Cluster, sid: StreamId, level: f64, from_ms: u64, n: usize) {
    for (i, v) in wave(n, level).into_iter().enumerate() {
        c.post_value(sid, v, SimTime::from_ms(from_ms + i as u64 * 100));
    }
}

/// The issue's scenario: a continuous query is live, the stream's home
/// crashes, the stream is detected as orphaned and re-homed elsewhere —
/// and the *pre-crash* query (posted before any of this) must notify on
/// the re-homed stream's fresh data. No false dismissal across the repair.
#[test]
fn pre_crash_queries_notify_rehomed_streams() {
    let mut c = cluster(12);
    let sid = c.register_stream("patient-42", 3);
    feed(&mut c, sid, 0.3, 0, 32);

    // Post the query BEFORE the crash, shaped on the live window.
    let target = c.streams()[0].extractor.window_snapshot();
    let qid = c.post_similarity_query(1, target, 0.3, 120_000, SimTime::from_ms(3300));
    c.notify_all(SimTime::from_ms(4000));
    let before_crash = c.notifications(qid).len();
    assert!(before_crash > 0, "query must match its own stream pre-crash");

    // Crash the home: the stream is orphaned and silent.
    let home = c.streams()[0].home;
    c.crash_node(home);
    assert_eq!(c.orphaned_streams(), vec![sid]);

    // Re-home to a surviving data center and keep feeding the same wave,
    // so the window at notify time matches the pre-crash target again.
    c.rehome_stream(sid, 0, SimTime::from_ms(5000));
    assert!(c.orphaned_streams().is_empty());
    feed(&mut c, sid, 0.3, 5000, 32);
    c.notify_all(SimTime::from_ms(8300));

    assert!(
        c.notifications(qid).len() > before_crash,
        "pre-crash query must notify on the re-homed stream (no false dismissal)"
    );
}

/// Every surviving replica record must sit on exactly the covering set of
/// its key range after a crash — the invariant `rebalance_replicas`
/// restores (§VII) and the fault harness's oracle 3 audits continuously.
#[test]
fn crash_restores_covering_sets() {
    let mut c = cluster(14);
    let sid = c.register_stream("s", 0);
    feed(&mut c, sid, 0.5, 0, 48);

    // Crash three non-home nodes; repair runs synchronously inside.
    let home = c.streams()[0].home;
    let victims: Vec<_> = c.node_ids().iter().copied().filter(|&n| n != home).take(3).collect();
    for v in victims {
        c.crash_node(v);
    }

    let now = SimTime::from_ms(48 * 100);
    assert_covering_placement(&c, now);
}

/// A newcomer that lands inside an existing record's key range must
/// receive a replica at join time, not only when the stream next ships.
#[test]
fn join_pulls_existing_replicas_onto_the_newcomer() {
    let mut c = cluster(6);
    let sid = c.register_stream("s", 0);
    feed(&mut c, sid, 0.5, 0, 48);
    for salt in 0..8 {
        c.join_node(&format!("newcomer-{salt}"));
    }
    let now = SimTime::from_ms(48 * 100);
    assert_covering_placement(&c, now);
}

/// The known-bug switch: with churn repair disabled, a crash leaves
/// coverage holes — exactly what the fault harness's injected-bug
/// self-test relies on being detectable.
#[test]
fn disabling_churn_repair_leaves_coverage_holes() {
    let seeds: Vec<u64> = (0..20).collect();
    let mut saw_hole = false;
    for seed in seeds {
        let mut c = cluster(14);
        let sid = c.register_stream(&format!("s-{seed}"), 0);
        c.set_churn_repair(false);
        assert!(!c.churn_repair());
        feed(&mut c, sid, 0.3 + seed as f64 * 0.05, 0, 48);
        let home = c.streams()[0].home;
        // Crash nodes that actually hold replicas — those leave holes.
        let victims: Vec<_> = c
            .node_ids()
            .iter()
            .copied()
            .filter(|&n| n != home && c.node(n).mbr_count() > 0)
            .take(3)
            .collect();
        for v in victims {
            c.crash_node(v);
        }
        let now = SimTime::from_ms(48 * 100);
        if !covering_placement_holds(&c, now) {
            saw_hole = true;
            break;
        }
    }
    assert!(saw_hole, "crashing replica holders with repair disabled must leave a coverage hole");
}

fn assert_covering_placement(c: &Cluster, now: SimTime) {
    assert!(covering_placement_holds(c, now), "a record is off its covering set");
}

/// True iff every unexpired stored record sits on exactly its covering set
/// (plus its origin while that origin is alive).
fn covering_placement_holds(c: &Cluster, now: SimTime) -> bool {
    let space = c.space();
    let mut checked: Vec<(StreamId, SimTime)> = Vec::new();
    for &n in c.node_ids() {
        for rec in c.node(n).summaries() {
            if now >= rec.expires || checked.contains(&(rec.stream, rec.expires)) {
                continue;
            }
            checked.push((rec.stream, rec.expires));
            let holders: BTreeSet<_> = c
                .node_ids()
                .iter()
                .copied()
                .filter(|&m| {
                    c.node(m).summaries().any(|s| {
                        s.stream == rec.stream
                            && s.expires == rec.expires
                            && s.low == rec.low
                            && s.high == rec.high
                    })
                })
                .collect();
            let (lo_v, hi_v) = rec.extent0();
            let (lo, hi) = interval_key_range(space, lo_v.clamp(-1.0, 1.0), hi_v.clamp(-1.0, 1.0));
            let mut want: BTreeSet<_> = covering_nodes(c.ring(), lo, hi).into_iter().collect();
            if c.node_ids().contains(&rec.origin) {
                want.insert(rec.origin);
            }
            if holders != want {
                return false;
            }
        }
    }
    true
}

/// Re-posted queries stay subscribed on their whole covering set across a
/// crash, under both multicast strategies.
#[test]
fn query_subscriptions_recover_after_crash() {
    for strategy in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
        let mut cfg = ClusterConfig::new(12);
        cfg.workload.window_len = 16;
        cfg.workload.num_coeffs = 2;
        cfg.workload.mbr_batch = 2;
        cfg.kind = SimilarityKind::Subsequence;
        cfg.strategy = strategy;
        let mut c = Cluster::new(cfg);
        let sid = c.register_stream("s", 0);
        feed(&mut c, sid, 0.4, 0, 32);
        let target = c.streams()[0].extractor.window_snapshot();
        let qid = c.post_similarity_query(1, target.clone(), 0.2, 120_000, SimTime::from_ms(3300));

        assert!(
            c.node_ids().iter().any(|&n| c.node(n).has_subscription(qid)),
            "query subscribed somewhere"
        );
        let q = c.similarity_query(qid).expect("registered").clone();
        let (lo, hi) = radius_key_range(c.space(), q.feature.first_real(), q.radius);

        // Crash one covering node (if any besides the client exists).
        let cover = covering_nodes(c.ring(), lo, hi);
        if let Some(&victim) = cover.iter().find(|&&n| c.num_nodes() > 3 && n != q.client) {
            c.crash_node(victim);
        }
        for n in covering_nodes(c.ring(), lo, hi) {
            assert!(
                c.node(n).has_subscription(qid),
                "{strategy:?}: query {qid} missing from covering node {n} after crash"
            );
        }
    }
}
