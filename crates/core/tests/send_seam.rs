//! Degenerate-case equivalence of the send seam at cluster level: a run
//! with no fault plan and the same run armed with a plan that can never
//! fire must charge the same messages and leave the same state behind.
//! `dsi-chord` proves "a lossless judge plans exactly `multicast`"; this
//! proves the cluster's charging and effects agree across the two arms too.

use dsi_chord::RangeStrategy;
use dsi_core::aggregate::{AggregateKind, AggregateSpec};
use dsi_core::{Cluster, ClusterConfig};
use dsi_simnet::{FaultPlan, FaultSpec, MsgClass, SimTime};

const NODES: usize = 24;
const STREAMS: u32 = 12;

/// Deterministic pseudo-value for (stream, tick).
fn value(stream: u32, tick: u64) -> f64 {
    10.0 + ((stream as f64) * 0.9 + (tick as f64) * 0.35).sin() * 3.0
}

/// Everything the two arms must agree on, rendered comparable.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per class: (messages, hop-log count, hop sum).
    traffic: Vec<(u64, u64, u64)>,
    /// Per node, in creation order: its stored MBRs and subscription count.
    nodes: Vec<(String, usize)>,
    /// Similarity, inner-product and aggregate answers, in query order.
    answers: Vec<String>,
}

fn run(strategy: RangeStrategy, plan: FaultPlan) -> Observed {
    let mut cfg = ClusterConfig::new(NODES);
    cfg.strategy = strategy;
    cfg.workload.window_len = 16;
    cfg.workload.num_coeffs = 2;
    cfg.workload.mbr_batch = 4;
    let mut c = Cluster::new(cfg);
    for s in 0..STREAMS {
        c.register_stream(&format!("seam-{s}"), s as usize % NODES);
    }
    c.set_fault_plan(plan, 11);
    c.start_measurement();

    let nper = c.config().workload.nper_ms;
    let feed = |c: &mut Cluster, ticks: std::ops::Range<u64>| {
        for tick in ticks {
            let batch: Vec<(u32, f64)> = (0..STREAMS).map(|s| (s, value(s, tick))).collect();
            c.ingest_batch(&batch, SimTime::from_ms(tick * 50));
        }
    };
    feed(&mut c, 0..24);
    let t0 = SimTime::from_ms(24 * 50);
    let sims: Vec<u64> = (0..3u32)
        .map(|s| {
            let target = c.streams()[s as usize].extractor.window_snapshot();
            c.post_similarity_query(3 + s as usize, target, 0.4, 60_000, t0)
        })
        .collect();
    let ips: Vec<u64> = (0..2u32)
        .map(|s| {
            c.post_inner_product_query(
                7 + s as usize,
                s,
                (0..4).collect(),
                vec![0.25; 4],
                60_000,
                t0,
            )
        })
        .collect();
    let agg = c.post_aggregate_query(
        5,
        AggregateSpec {
            kind: AggregateKind::WindowCount,
            eps: 0.2,
            delta: 0.1,
            window_ms: 4_000,
            lifespan_ms: 60_000,
            bins: 64,
            forced_dims: None,
        },
        t0,
    );
    for round in 1..=3u64 {
        feed(&mut c, 24 * round..24 * (round + 1));
        c.notify_all(SimTime::from_ms(round * nper.max(24 * 50)));
    }

    let m = c.metrics();
    let mut answers = Vec::new();
    for &q in &sims {
        answers.push(format!("{:?}", c.notifications(q)));
    }
    for &q in &ips {
        answers.push(format!("{:?}", c.ip_results(q)));
    }
    answers.push(format!("{:?}", c.aggregate_notifications(agg)));
    Observed {
        traffic: MsgClass::ALL
            .iter()
            .map(|&k| (m.total(k), m.hop_count(k), m.hop_sum(k)))
            .collect(),
        nodes: c
            .node_ids()
            .iter()
            .map(|&n| {
                (format!("{:?}", c.node(n).stored_mbrs_snapshot()), c.node(n).subscription_count())
            })
            .collect(),
        answers,
    }
}

#[test]
fn a_plan_that_never_fires_is_indistinguishable_from_no_plan() {
    // Transit hops ride inside a routed message and are never judged on
    // their own, so this plan arms the reliability layer without any send
    // ever faulting.
    let never_fires = FaultPlan::NONE.with_class(
        MsgClass::QueryTransit,
        FaultSpec { drop_prob: 1e-9, dup_prob: 0.0, delay_prob: 0.0 },
    );
    assert!(!never_fires.is_none(), "the plan must arm the reliability layer");
    for strategy in [RangeStrategy::Sequential, RangeStrategy::Bidirectional] {
        let disarmed = run(strategy, FaultPlan::NONE);
        let armed = run(strategy, never_fires);
        assert!(disarmed.traffic.iter().any(|&(msgs, _, _)| msgs > 0), "{strategy:?}: run is live");
        assert!(disarmed.answers.iter().all(|a| a != "[]"), "{strategy:?}: every query answered");
        assert_eq!(disarmed, armed, "{strategy:?}");
    }
}
