//! Tier-1 fault-injection campaigns: ≥25 seeded scenarios — each also run
//! with all-class message faults through the reliability layer — replaying
//! a full churn/fault/burst/storm schedule against a live cluster with all
//! ten invariant oracles armed after every event, plus an adversarial
//! pack (correlated flash crowds, Zipf query skew, thundering herds,
//! tenant quotas) exercising the load-balance oracle and the virtual-node
//! re-weighting mitigation, an ECM-sketch aggregate pack exercising the
//! sketch-accuracy oracle across loss, churn and degraded coverage, and a
//! split-brain pack severing the ring into islands and auditing post-heal
//! convergence (DESIGN.md §17).
//!
//! A violation writes `results/repro-<seed>.json` and fails the test with
//! the path, so the failure is replayable offline:
//!
//! ```text
//! cargo test -p dsi-faultsim replay_repro -- --ignored --nocapture
//! ```

use dsi_chord::RangeStrategy;
use dsi_core::{AggregateKind, ReweightConfig};
use dsi_faultsim::{
    load_reproducer, run_scenario, write_reproducer, AggregatesConfig, LoadBound, PartitionConfig,
    Reproducer, RunReport, Scenario, ScenarioConfig,
};
use dsi_simnet::{FaultPlan, FaultSpec, MsgClass};
use dsi_streamgen::TenantPolicy;

/// Runs one scenario; on violation, serializes the reproducer and panics
/// with its path.
fn assert_clean(seed: u64, cfg: ScenarioConfig) -> RunReport {
    let scenario = Scenario::generate(seed, cfg);
    let report = run_scenario(&scenario);
    if let Some(v) = report.violation.clone() {
        let repro = Reproducer::from_failure(&scenario, v.clone()).with_trace(report.trace.clone());
        let path = write_reproducer(&repro);
        panic!(
            "seed {seed}: oracle `{}` violated at event {} (t={}ms): {}\nreproducer: {}",
            v.oracle,
            v.event_index,
            v.time_ms,
            v.detail,
            path.display()
        );
    }
    report
}

fn lossy() -> FaultSpec {
    FaultSpec { drop_prob: 0.15, dup_prob: 0.10, delay_prob: 0.10 }
}

/// Uniform per-class fault plan: every overlay send drops with `drop`
/// probability and must be absorbed by retry/failover/repair (oracle 7).
fn allclass(drop: f64) -> FaultPlan {
    FaultPlan::uniform(FaultSpec { drop_prob: drop, dup_prob: 0.0, delay_prob: 0.0 })
}

/// Scenario shape the adversarial pack runs on: enough streams that a
/// flash crowd's key collapse visibly tilts per-host load.
fn hot_shape() -> ScenarioConfig {
    ScenarioConfig { num_nodes: 10, num_streams: 16, num_events: 60, ..ScenarioConfig::default() }
}

/// Aggregate workload posting one query of every kind right after
/// warm-up, at the default (ε = 0.2, δ = 0.1) contract.
fn agg_all() -> AggregatesConfig {
    AggregatesConfig {
        kinds: vec![
            AggregateKind::WindowCount,
            AggregateKind::PointCount { bin: 42 },
            AggregateKind::HeavyHitters { phi: 0.2 },
            AggregateKind::SelfJoinSize,
        ],
        ..AggregatesConfig::default()
    }
}

/// Load-balance envelope used by the mitigation scenarios: trip past
/// 2.5× mean for 2 rounds, then re-weighting has 6 rounds to cool the
/// ring (mirrors `ReweightConfig::default()`'s trigger).
fn hotspot_bound() -> LoadBound {
    LoadBound { max_over_mean: 2.5, grace_rounds: 2, recovery_rounds: 6 }
}

/// Partition plan severing the listed islands from the ring after
/// `split_after` NPER rounds and healing `heal_after` rounds later.
fn split(islands: Vec<Vec<usize>>, split_after: u32, heal_after: u32) -> PartitionConfig {
    PartitionConfig { islands, split_after_rounds: split_after, heal_after_rounds: heal_after }
}

/// Ten-node split-brain shape: a three-node minority island is severed
/// for three rounds while 5% all-class loss keeps the reliability layer
/// hot on both sides; the fork must re-knit within oracle 10's grace
/// window once healed.
fn partition_negctrl_config() -> ScenarioConfig {
    ScenarioConfig { num_nodes: 10, num_streams: 8, num_events: 60, ..ScenarioConfig::default() }
        .with_class_faults(allclass(0.05))
        .with_partition(split(vec![vec![7, 8, 9]], 2, 3))
}

/// Expands to one `#[test]` per seed, so every scenario shows up
/// individually in the test report.
macro_rules! scenario_tests {
    ($($name:ident: seed $seed:expr, $cfg:expr;)*) => {
        $(
            #[test]
            fn $name() {
                let report = assert_clean($seed, $cfg);
                assert!(report.mbr_ships > 0, "scenario never shipped an MBR");
            }
        )*
    };
}

// 25+ distinct seeded scenarios across both multicast strategies, fault
// levels, and cluster sizes. Every run exercises all five oracles after
// every event.
scenario_tests! {
    seq_faultfree_seed_1:  seed 1,  ScenarioConfig::default();
    seq_faultfree_seed_2:  seed 2,  ScenarioConfig::default();
    seq_faultfree_seed_3:  seed 3,  ScenarioConfig::default();
    seq_faultfree_seed_4:  seed 4,  ScenarioConfig::default();
    seq_faultfree_seed_5:  seed 5,  ScenarioConfig::default();
    seq_faultfree_seed_6:  seed 6,  ScenarioConfig::default();
    seq_faultfree_seed_7:  seed 7,  ScenarioConfig::default();
    seq_faultfree_seed_8:  seed 8,  ScenarioConfig::default();

    seq_lossy_seed_11:     seed 11, ScenarioConfig::default().with_faults(lossy());
    seq_lossy_seed_12:     seed 12, ScenarioConfig::default().with_faults(lossy());
    seq_lossy_seed_13:     seed 13, ScenarioConfig::default().with_faults(lossy());
    seq_lossy_seed_14:     seed 14, ScenarioConfig::default().with_faults(lossy());
    seq_lossy_seed_15:     seed 15, ScenarioConfig::default().with_faults(lossy());
    seq_drop_heavy_16:     seed 16, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.4, dup_prob: 0.0, delay_prob: 0.0 });
    seq_dup_heavy_17:      seed 17, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.0, dup_prob: 0.4, delay_prob: 0.0 });
    seq_delay_heavy_18:    seed 18, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.4 });

    bidi_faultfree_21:     seed 21, ScenarioConfig::default().bidirectional();
    bidi_faultfree_22:     seed 22, ScenarioConfig::default().bidirectional();
    bidi_faultfree_23:     seed 23, ScenarioConfig::default().bidirectional();
    bidi_faultfree_24:     seed 24, ScenarioConfig::default().bidirectional();
    bidi_lossy_25:         seed 25, ScenarioConfig::default().bidirectional().with_faults(lossy());
    bidi_lossy_26:         seed 26, ScenarioConfig::default().bidirectional().with_faults(lossy());

    large_cluster_31:      seed 31, ScenarioConfig {
        num_nodes: 20, num_streams: 12, ..ScenarioConfig::default()
    };
    large_cluster_32:      seed 32, ScenarioConfig {
        num_nodes: 20, num_streams: 12, strategy: RangeStrategy::Bidirectional,
        ..ScenarioConfig::default()
    };
    small_cluster_33:      seed 33, ScenarioConfig {
        num_nodes: 4, num_streams: 3, ..ScenarioConfig::default()
    };
    long_schedule_34:      seed 34, ScenarioConfig {
        num_events: 80, ..ScenarioConfig::default()
    };
    long_lossy_35:         seed 35, ScenarioConfig {
        num_events: 80, ..ScenarioConfig::default().with_faults(lossy())
    };
}

// The same 26 scenarios re-run with every overlay send subject to 20%
// drop through the reliability layer (ISSUE 5 acceptance): retry/backoff,
// failover and periodic repair must keep all seven oracles green — the
// coverage oracles in eventual mode.
scenario_tests! {
    seq_faultfree_seed_1_allclass02:  seed 1,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_2_allclass02:  seed 2,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_3_allclass02:  seed 3,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_4_allclass02:  seed 4,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_5_allclass02:  seed 5,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_6_allclass02:  seed 6,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_7_allclass02:  seed 7,
        ScenarioConfig::default().with_class_faults(allclass(0.2));
    seq_faultfree_seed_8_allclass02:  seed 8,
        ScenarioConfig::default().with_class_faults(allclass(0.2));

    seq_lossy_seed_11_allclass02:     seed 11,
        ScenarioConfig::default().with_faults(lossy()).with_class_faults(allclass(0.2));
    seq_lossy_seed_12_allclass02:     seed 12,
        ScenarioConfig::default().with_faults(lossy()).with_class_faults(allclass(0.2));
    seq_lossy_seed_13_allclass02:     seed 13,
        ScenarioConfig::default().with_faults(lossy()).with_class_faults(allclass(0.2));
    seq_lossy_seed_14_allclass02:     seed 14,
        ScenarioConfig::default().with_faults(lossy()).with_class_faults(allclass(0.2));
    seq_lossy_seed_15_allclass02:     seed 15,
        ScenarioConfig::default().with_faults(lossy()).with_class_faults(allclass(0.2));
    seq_drop_heavy_16_allclass02:     seed 16, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.4, dup_prob: 0.0, delay_prob: 0.0 })
        .with_class_faults(allclass(0.2));
    seq_dup_heavy_17_allclass02:      seed 17, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.0, dup_prob: 0.4, delay_prob: 0.0 })
        .with_class_faults(allclass(0.2));
    seq_delay_heavy_18_allclass02:    seed 18, ScenarioConfig::default()
        .with_faults(FaultSpec { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.4 })
        .with_class_faults(allclass(0.2));

    bidi_faultfree_21_allclass02:     seed 21,
        ScenarioConfig::default().bidirectional().with_class_faults(allclass(0.2));
    bidi_faultfree_22_allclass02:     seed 22,
        ScenarioConfig::default().bidirectional().with_class_faults(allclass(0.2));
    bidi_faultfree_23_allclass02:     seed 23,
        ScenarioConfig::default().bidirectional().with_class_faults(allclass(0.2));
    bidi_faultfree_24_allclass02:     seed 24,
        ScenarioConfig::default().bidirectional().with_class_faults(allclass(0.2));
    bidi_lossy_25_allclass02:         seed 25, ScenarioConfig::default()
        .bidirectional().with_faults(lossy()).with_class_faults(allclass(0.2));
    bidi_lossy_26_allclass02:         seed 26, ScenarioConfig::default()
        .bidirectional().with_faults(lossy()).with_class_faults(allclass(0.2));

    large_cluster_31_allclass02:      seed 31, ScenarioConfig {
        num_nodes: 20, num_streams: 12, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.2));
    large_cluster_32_allclass02:      seed 32, ScenarioConfig {
        num_nodes: 20, num_streams: 12, strategy: RangeStrategy::Bidirectional,
        ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.2));
    small_cluster_33_allclass02:      seed 33, ScenarioConfig {
        num_nodes: 4, num_streams: 3, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.2));
    long_schedule_34_allclass02:      seed 34, ScenarioConfig {
        num_events: 80, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.2));
    long_lossy_35_allclass02:         seed 35, ScenarioConfig {
        num_events: 80, ..ScenarioConfig::default().with_faults(lossy())
    }.with_class_faults(allclass(0.2));
}

// Adversarial workload pack: correlated flash crowds, Zipf-skewed query
// popularity, thundering herds, tenant quotas, and skew combined with
// churn and loss — each seeded and reproducer-capable like every other
// tier-1 scenario. Scenarios arming `with_mitigation` also arm the
// load-balance oracle: virtual-node re-weighting must keep the per-host
// max/mean ratio inside the envelope while the other seven oracles stay
// green across the ring changes it makes.
scenario_tests! {
    flash_crowd_rho09_41:      seed 41, hot_shape().correlated(0.9);
    flash_crowd_rho1_42:       seed 42, hot_shape().correlated(1.0);
    flash_crowd_mitigated_43:  seed 43, hot_shape().correlated(1.0)
        .with_load_bound(hotspot_bound()).with_mitigation(ReweightConfig::default());
    flash_crowd_mitigated_44:  seed 44, hot_shape().correlated(1.0)
        .with_load_bound(hotspot_bound()).with_mitigation(ReweightConfig::default());
    flash_crowd_mit_bidi_45:   seed 41, hot_shape().correlated(1.0).bidirectional()
        .with_load_bound(hotspot_bound()).with_mitigation(ReweightConfig::default());
    zipf_queries_12_46:        seed 42, hot_shape().zipfian(1.2);
    zipf_queries_20_47:        seed 43, hot_shape().zipfian(2.0);
    herd_seq_48:               seed 44, hot_shape().with_herd(12);
    herd_bidi_49:              seed 45, hot_shape().with_herd(16).bidirectional();
    herd_zipf_50:              seed 41, hot_shape().zipfian(1.5).with_herd(16);
    skew_churn_loss_51:        seed 42, hot_shape().correlated(1.0).with_faults(lossy())
        .with_mitigation(ReweightConfig::default());
    skew_allclass_52:          seed 43, hot_shape().correlated(1.0)
        .with_class_faults(allclass(0.2)).with_mitigation(ReweightConfig::default());
    large_correlated_53:       seed 44, ScenarioConfig {
        num_nodes: 20, num_streams: 16, num_events: 60, ..ScenarioConfig::default()
    }.correlated(1.0).with_mitigation(ReweightConfig::default());
    long_skew_54:              seed 41, ScenarioConfig {
        num_events: 80, num_streams: 16, ..ScenarioConfig::default()
    }.correlated(0.9).zipfian(1.5);
}

// ECM-sketch aggregate pack (ISSUE 8 acceptance): ≥ 20 seeded tier-1
// scenarios with continuous aggregate queries of every kind riding the
// full churn/fault/burst/storm schedule, and the sketch-accuracy oracle
// auditing every notification against a contributor-scoped brute-force
// reference. The all-class variants degrade dissemination and collection,
// so coverage drops and the advertised bound must provably widen (the
// oracle's structural ε_eff = ε + (1 − coverage) rule) — never lie.
scenario_tests! {
    agg_seq_61:            seed 61, ScenarioConfig::default().with_aggregates(agg_all());
    agg_seq_62:            seed 62, ScenarioConfig::default().with_aggregates(agg_all());
    agg_seq_63:            seed 63, ScenarioConfig::default().with_aggregates(agg_all());
    agg_seq_64:            seed 64, ScenarioConfig::default().with_aggregates(agg_all());
    agg_seq_65:            seed 65, ScenarioConfig::default().with_aggregates(agg_all());
    agg_seq_66:            seed 66, ScenarioConfig::default().with_aggregates(agg_all());

    agg_bidi_67:           seed 67, ScenarioConfig::default().bidirectional()
        .with_aggregates(agg_all());
    agg_bidi_68:           seed 68, ScenarioConfig::default().bidirectional()
        .with_aggregates(agg_all());

    agg_nper_lossy_69:     seed 69, ScenarioConfig::default().with_faults(lossy())
        .with_aggregates(agg_all());
    agg_nper_lossy_70:     seed 70, ScenarioConfig::default().with_faults(lossy())
        .with_aggregates(agg_all());
    agg_nper_lossy_71:     seed 71, ScenarioConfig::default().with_faults(lossy())
        .with_aggregates(agg_all());

    agg_allclass_72:       seed 72, ScenarioConfig::default()
        .with_class_faults(allclass(0.2)).with_aggregates(agg_all());
    agg_allclass_73:       seed 73, ScenarioConfig::default()
        .with_class_faults(allclass(0.2)).with_aggregates(agg_all());
    agg_allclass_74:       seed 74, ScenarioConfig::default()
        .with_class_faults(allclass(0.2)).with_aggregates(agg_all());
    agg_allclass_75:       seed 75, ScenarioConfig::default()
        .with_class_faults(allclass(0.2)).with_aggregates(agg_all());
    agg_allclass_drop3_76: seed 76, ScenarioConfig::default()
        .with_class_faults(allclass(0.3)).with_aggregates(agg_all());
    agg_allclass_bidi_77:  seed 77, ScenarioConfig::default().bidirectional()
        .with_class_faults(allclass(0.2)).with_aggregates(agg_all());

    agg_large_78:          seed 78, ScenarioConfig {
        num_nodes: 20, num_streams: 12, ..ScenarioConfig::default()
    }.with_aggregates(agg_all());
    agg_small_79:          seed 79, ScenarioConfig {
        num_nodes: 4, num_streams: 3, ..ScenarioConfig::default()
    }.with_aggregates(agg_all());
    agg_long_80:           seed 80, ScenarioConfig {
        num_events: 80, ..ScenarioConfig::default()
    }.with_aggregates(agg_all());

    agg_tight_eps_81:      seed 81, ScenarioConfig::default().with_aggregates(
        AggregatesConfig { eps: 0.1, ..agg_all() });
    agg_loose_eps_82:      seed 82, ScenarioConfig::default().with_aggregates(
        AggregatesConfig { eps: 0.4, ..agg_all() });
    agg_long_window_83:    seed 83, ScenarioConfig::default().with_aggregates(
        AggregatesConfig { window_ms: 10_000, ..agg_all() });
    agg_skew_84:           seed 84, hot_shape().correlated(0.9).with_aggregates(agg_all());
}

/// The aggregate pack actually exercises its machinery: queries post,
/// notifications flow, and a lossless run stays violation-free.
#[test]
fn aggregate_scenarios_actually_notify() {
    let report = assert_clean(
        85,
        ScenarioConfig { num_events: 60, ..ScenarioConfig::default() }.with_aggregates(agg_all()),
    );
    assert_eq!(report.aggregates_posted, 4, "one query per configured kind");
    assert!(report.aggregate_notifications > 0, "no aggregate notifications delivered");
}

/// Under all-class loss the degraded collection rounds still notify, and
/// the sketch-accuracy oracle stays green — the advertised bound widened
/// with coverage instead of lying (the oracle's structural rule checks
/// every notification for ε_eff = ε + (1 − coverage) exactly).
#[test]
fn degraded_aggregate_rounds_widen_bounds_honestly() {
    let report = assert_clean(
        86,
        ScenarioConfig { num_events: 60, ..ScenarioConfig::default() }
            .with_class_faults(allclass(0.3))
            .with_aggregates(agg_all()),
    );
    assert_eq!(report.aggregates_posted, 4);
    assert!(report.aggregate_notifications > 0, "lossy run never notified");
    assert!(report.reliability.retries > 0, "30% drop must force retries");
}

/// Oracle 9's negative control (the issue's acceptance criterion): a
/// deliberately under-sized sketch — one row, two counters, k = 1 —
/// advertising a tight ε = 0.05 contract must trip the sketch-accuracy
/// oracle on a pinned seed, and the failing run must serialize a
/// replayable reproducer like any other violation.
#[test]
fn undersized_sketch_trips_the_accuracy_oracle() {
    let cfg = negctrl_config(true);
    let scenario = Scenario::generate(208, cfg);
    let report = run_scenario(&scenario);
    let v = report.violation.expect("an undersized sketch must miss its advertised bound");
    assert_eq!(
        v.oracle, "sketch-accuracy",
        "expected the sketch-accuracy oracle, got `{}`: {}",
        v.oracle, v.detail
    );
    let repro = Reproducer::from_failure(&scenario, v.clone()).with_trace(report.trace);
    let path = write_reproducer(&repro);
    let replayed = load_reproducer(&path).replay().expect("reproducer must replay the violation");
    assert_eq!(replayed, v, "replay must reproduce the identical accuracy violation");
}

/// The same pinned seed with correctly (ε, δ)-derived dimensions passes:
/// the oracle's trip above is the sketch's fault, not the harness's.
#[test]
fn correctly_sized_sketch_passes_the_same_seed() {
    let report = assert_clean(208, negctrl_config(false));
    assert!(report.aggregate_notifications > 0, "control run never notified");
}

/// Negative-control scenario shape: a PointCount query advertising an
/// ε = 0.05 contract. With `undersized` the sketch is forced to one row
/// of two counters with k = 1, so all 64 value bins collide into two
/// counters and the point estimate carries roughly half the whole window
/// population — a miss on nearly every notification (40/40 probed seeds
/// trip; 0/40 with the honest (ε, δ)-derived shape).
fn negctrl_config(undersized: bool) -> ScenarioConfig {
    ScenarioConfig { num_events: 60, ..ScenarioConfig::default() }.with_aggregates(
        AggregatesConfig {
            eps: 0.05,
            undersized,
            kinds: vec![AggregateKind::PointCount { bin: 42 }],
            ..AggregatesConfig::default()
        },
    )
}

/// Multi-tenant quota breach: four tenants capped at two query admissions
/// per NPER round under Zipf-popular anchors — the quota must actually
/// reject (the breach is real), and rejected registrations must leave all
/// oracles untouched.
#[test]
fn tenant_quota_breach_rejects_and_stays_sound() {
    let cfg = hot_shape()
        .zipfian(1.5)
        .with_tenants(TenantPolicy { num_tenants: 4, queries_per_round: 2 });
    let report = assert_clean(43, cfg);
    assert!(report.quota_rejections > 0, "quota never rejected a query");
    assert!(report.queries_posted > 0, "quota rejected everything");
}

/// Oracle 8's negative control (the issue's acceptance criterion): a
/// flash crowd with every stream byte-identical (`rho == 1`) and no
/// mitigation must trip the load-balance oracle; the *same seed* with
/// virtual-node re-weighting armed must end clean, with the re-weighting
/// actually having acted.
#[test]
fn flash_crowd_without_mitigation_trips_load_balance_oracle() {
    let cfg = hot_shape().correlated(1.0).with_load_bound(hotspot_bound());
    let scenario = Scenario::generate(204, cfg);
    let report = run_scenario(&scenario);
    let v = report.violation.expect("unmitigated flash crowd must trip an oracle");
    assert_eq!(
        v.oracle, "load-balance",
        "expected the load-balance oracle, got `{}`: {}",
        v.oracle, v.detail
    );
    assert!(v.detail.contains("no mitigation armed"), "detail must name the verdict: {}", v.detail);
    // The failing run writes a replayable reproducer like any other.
    let repro = Reproducer::from_failure(&scenario, v.clone()).with_trace(report.trace);
    let path = write_reproducer(&repro);
    let replayed = load_reproducer(&path).replay().expect("reproducer must replay the violation");
    assert_eq!(replayed, v, "replay must reproduce the identical load-balance violation");
}

#[test]
fn flash_crowd_with_reweighting_passes_load_balance_oracle() {
    let cfg = hot_shape()
        .correlated(1.0)
        .with_load_bound(hotspot_bound())
        .with_mitigation(ReweightConfig::default());
    let report = assert_clean(204, cfg);
    assert!(report.load.reweight_actions > 0, "mitigation was armed but never acted");
    assert!(report.load.virtual_nodes > 0, "re-weighting must leave live virtual identifiers");
}

#[test]
fn runs_are_deterministic() {
    let scenario = Scenario::generate(42, ScenarioConfig::default().with_faults(lossy()));
    let a = run_scenario(&scenario);
    let b = run_scenario(&scenario);
    assert_eq!(a, b, "same scenario must produce byte-identical reports");
}

#[test]
fn reliable_runs_are_deterministic_and_record_retries() {
    let cfg = ScenarioConfig::default().with_class_faults(allclass(0.2));
    let scenario = Scenario::generate(42, cfg);
    let a = run_scenario(&scenario);
    let b = run_scenario(&scenario);
    assert_eq!(a, b, "armed reliability layer must stay seed-deterministic");
    assert!(a.violation.is_none(), "20% all-class drop must be absorbed: {:?}", a.violation);
    assert!(a.reliability.retries > 0, "a 20% drop rate must force retries");
}

#[test]
fn duplicates_and_delays_on_all_classes_are_absorbed() {
    let plan = FaultPlan::uniform(FaultSpec { drop_prob: 0.0, dup_prob: 0.2, delay_prob: 0.2 });
    let report = assert_clean(57, ScenarioConfig::default().with_class_faults(plan));
    assert!(report.reliability.dups_suppressed > 0, "duplicates must be suppressed");
    assert!(report.reliability.redeliveries > 0, "delays must park redeliveries");
}

/// Oracle 7's own self-test: query dissemination certain to be lost and
/// churn repair disabled, so coverage holes can never close — the
/// eventual-completeness oracle must fire once its grace window lapses.
#[test]
fn unrepaired_holes_trip_the_eventual_completeness_oracle() {
    let lost = FaultSpec { drop_prob: 1.0, dup_prob: 0.0, delay_prob: 0.0 };
    let plan =
        FaultPlan::NONE.with_class(MsgClass::Query, lost).with_class(MsgClass::QueryInternal, lost);
    let mut caught = None;
    for seed in 0..50u64 {
        let cfg = ScenarioConfig {
            disable_churn_repair: true,
            num_events: 60,
            ..ScenarioConfig::default()
        }
        .with_class_faults(plan);
        let scenario = Scenario::generate(seed, cfg);
        let report = run_scenario(&scenario);
        if let Some(v) = report.violation {
            caught = Some(v);
            break;
        }
    }
    let v = caught.expect("total query loss without repair must trip an oracle within 50 seeds");
    assert_eq!(
        v.oracle, "eventual-completeness",
        "expected the grace-window oracle, got `{}`: {}",
        v.oracle, v.detail
    );
}

/// Satellite of the purge-boundary work: a notify round duplicated on
/// every node (NPER dup faults at certainty) must not double-purge or
/// otherwise disturb any oracle.
#[test]
fn duplicated_notify_rounds_never_double_purge() {
    let dup_all = FaultSpec { drop_prob: 0.0, dup_prob: 1.0, delay_prob: 0.0 };
    let report = assert_clean(73, ScenarioConfig::default().with_faults(dup_all));
    assert!(report.mbr_ships > 0);
}

#[test]
fn scenarios_exercise_the_whole_stack() {
    let report = assert_clean(99, ScenarioConfig { num_events: 60, ..ScenarioConfig::default() });
    assert!(report.mbr_ships > 10, "expected steady MBR traffic, got {}", report.mbr_ships);
    assert!(report.queries_posted > 0, "schedule posted no queries");
    assert!(report.final_nodes >= 3, "cluster fell below three nodes");
}

/// The harness's own self-test (the issue's acceptance criterion): disable
/// replica rebalancing on churn — a deliberately injected bug — and the
/// oracles must catch the coverage hole, serialize a reproducer, and that
/// reproducer must replay from disk to the very same failure.
#[test]
fn injected_bug_is_caught_and_replays_from_disk() {
    let mut caught = None;
    for seed in 0..200u64 {
        let cfg = ScenarioConfig {
            disable_churn_repair: true,
            num_events: 60,
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::generate(seed, cfg);
        let report = run_scenario(&scenario);
        if let Some(v) = report.violation.clone() {
            caught = Some((scenario, v, report.trace));
            break;
        }
    }
    let (scenario, violation, trace) =
        caught.expect("disabling churn repair must violate an invariant within 200 seeds");
    assert!(
        violation.oracle == "replica-placement" || violation.oracle == "no-false-dismissal",
        "expected a coverage violation, got `{}`: {}",
        violation.oracle,
        violation.detail
    );

    // Serialize (with the failing run's trace attached), reload from disk,
    // replay: identical failure.
    let repro = Reproducer::from_failure(&scenario, violation.clone()).with_trace(trace);
    let path = write_reproducer(&repro);
    let loaded = load_reproducer(&path);
    assert_eq!(loaded.seed, scenario.seed);
    let attached = loaded.trace.as_ref().expect("reproducer carries the run's trace summary");
    assert!(attached.records > 0, "failing run must have traced messages");
    assert_eq!(attached.dropped, 0, "trace ring must not overflow on tier-1 schedules");
    let replayed = loaded.replay().expect("reproducer must replay to a violation");
    assert_eq!(replayed, violation, "replay must reproduce the identical violation");
    // The reproducer's schedule ends at the failing event, and the failing
    // run exported a loadable timeline next to it.
    assert_eq!(loaded.events.len(), violation.event_index + 1);
    let timeline = path.with_file_name(format!("repro-{}.trace.json", loaded.seed));
    assert!(timeline.exists(), "missing chrome://tracing export {}", timeline.display());
}

// Split-brain pack (ISSUE 10 acceptance): the ring is severed into two or
// three islands mid-run and healed a few NPER rounds later, across 4–100
// nodes, both multicast strategies, and with or without per-class loss
// layered on top of the cut. During the split the coverage oracles
// tolerate the deterministic degradation; after the heal, oracle 10 must
// see successor/finger state reconverge, placement turn green, and no
// unexpired registration lost — all within `K_REFRESH_ROUNDS`.
scenario_tests! {
    part_seq_4n_2i_301:    seed 301, ScenarioConfig {
        num_nodes: 4, num_streams: 3, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![3]], 2, 2));
    part_seq_10n_2i_302:   seed 302, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![7, 8, 9]], 2, 3));
    part_seq_10n_3i_303:   seed 303, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![6, 7], vec![8, 9]], 3, 2));
    part_bidi_10n_2i_304:  seed 304, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.bidirectional().with_partition(split(vec![vec![5, 6, 7, 8]], 2, 3));
    part_bidi_10n_3i_305:  seed 305, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.bidirectional().with_partition(split(vec![vec![4, 5], vec![8, 9]], 2, 2));
    part_seq_20n_2i_306:   seed 306, ScenarioConfig {
        num_nodes: 20, num_streams: 12, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![14, 15, 16, 17, 18, 19]], 2, 4));
    part_seq_20n_3i_307:   seed 307, ScenarioConfig {
        num_nodes: 20, num_streams: 12, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![12, 13, 14], vec![15, 16, 17, 18, 19]], 1, 2));
    part_seq_100n_2i_308:  seed 308, ScenarioConfig {
        num_nodes: 100, num_streams: 8, num_events: 30, ..ScenarioConfig::default()
    }.with_partition(split(vec![(75..100).collect()], 1, 2));
    part_lossy_10n_2i_309: seed 309, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.1)).with_partition(split(vec![vec![7, 8, 9]], 2, 3));
    part_lossy_10n_3i_310: seed 310, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.1)).with_partition(split(vec![vec![6, 7], vec![8, 9]], 2, 2));
    part_lossy_bidi_311:   seed 311, ScenarioConfig {
        num_nodes: 10, num_streams: 8, ..ScenarioConfig::default()
    }.bidirectional().with_class_faults(allclass(0.1))
        .with_partition(split(vec![vec![7, 8, 9]], 3, 2));
    part_long_split_312:   seed 312, ScenarioConfig {
        num_nodes: 10, num_streams: 8, num_events: 60, ..ScenarioConfig::default()
    }.with_partition(split(vec![vec![7, 8, 9]], 1, 6));
    part_lossy_4n_313:     seed 313, ScenarioConfig {
        num_nodes: 4, num_streams: 3, ..ScenarioConfig::default()
    }.with_class_faults(allclass(0.1)).with_partition(split(vec![vec![3]], 2, 2));
    // Aggregates riding a split: collection rounds on a severed ring must
    // widen their advertised bound by the uncovered fraction (oracle 9's
    // honesty contract) rather than silently under-reporting.
    part_agg_10n_2i_315:   seed 315, ScenarioConfig {
        num_nodes: 10, num_streams: 8, num_events: 60, ..ScenarioConfig::default()
    }.with_aggregates(agg_all()).with_partition(split(vec![vec![7, 8, 9]], 2, 3));
}

/// The scenario family the issue names: writes keep landing on the
/// minority island while the majority side keeps reading, with 5%
/// ambient all-class loss so the retry layer keeps probing the cut. The
/// suppression ledger must charge those severed crossings separately
/// from the random drops (oracle 4 reconciles both), and after the heal
/// the majority-side readers must see minority-side writes again:
/// oracle 1 (no false dismissals) plus oracle 10's fresh probe query
/// audit exactly that convergence.
#[test]
fn split_brain_minority_write_majority_read_converges() {
    let cfg = ScenarioConfig {
        num_nodes: 10,
        num_streams: 8,
        num_events: 60,
        ..ScenarioConfig::default()
    }
    .with_class_faults(allclass(0.05))
    .with_partition(split(vec![vec![7, 8, 9]], 2, 3));
    let report = assert_clean(321, cfg);
    assert!(report.partition_suppressed > 0, "the cut never suppressed a crossing");
    assert!(report.notifications > 0, "majority-side readers never saw a match");
    assert!(report.mbr_ships > 0, "minority-side writers never shipped");
}

/// Oracle 10's negative control (the issue's acceptance criterion): the
/// same split-brain shape with ring stabilization disabled heals the
/// links but never re-knits the fork, so the convergence oracle must trip
/// once its grace window lapses — and the failing run must serialize a
/// replayable reproducer whose committed bytes are pinned.
#[test]
fn disabled_stabilization_trips_the_convergence_oracle() {
    let cfg = partition_negctrl_config().without_stabilization();
    let scenario = Scenario::generate(244, cfg);
    let report = run_scenario(&scenario);
    let v = report.violation.expect("a healed-but-never-stabilized fork must trip an oracle");
    assert_eq!(
        v.oracle, "post-heal-convergence",
        "expected the convergence oracle, got `{}`: {}",
        v.oracle, v.detail
    );
    let repro = Reproducer::from_failure(&scenario, v.clone()).with_trace(report.trace);
    let path = write_reproducer(&repro);
    // Byte-stability of the committed reproducer: regenerating it from
    // the pinned seed must reproduce `results/repro-244.json` exactly
    // (schema or behavior drift shows up as a diff here, not in CI logs).
    let pinned = include_str!("../../../results/repro-244.json");
    let fresh = std::fs::read_to_string(&path).expect("read freshly written reproducer");
    assert_eq!(
        fresh, pinned,
        "repro-244.json drifted from the pinned bytes; review `git diff results/` and re-commit \
         if the schema change is intentional"
    );
    let replayed = load_reproducer(&path).replay().expect("reproducer must replay the violation");
    assert_eq!(replayed, v, "replay must reproduce the identical convergence violation");
}

/// The same pinned seed with stabilization left on passes: the trip above
/// is the fork's fault, not the harness's.
#[test]
fn enabled_stabilization_passes_the_same_seed() {
    let report = assert_clean(244, partition_negctrl_config());
    assert!(report.partition_suppressed > 0, "the split never suppressed a crossing");
}

/// Long randomized soak: 30 fresh seeds × 300-event schedules under lossy
/// delivery, across both strategies. Run with:
/// `cargo test -p dsi-faultsim -- --ignored`
#[test]
#[ignore = "long soak; run explicitly or from the scheduled CI job"]
fn soak_lossy_campaign() {
    for seed in 1000..1030u64 {
        let mut cfg = ScenarioConfig {
            num_events: 300,
            num_nodes: 12,
            num_streams: 10,
            ..ScenarioConfig::default().with_faults(lossy())
        };
        if seed % 2 == 1 {
            cfg = cfg.bidirectional();
        }
        let report = assert_clean(seed, cfg);
        assert!(report.mbr_ships > 0);
    }
}

/// All-class lossy soak for the scheduled CI matrix: 20 fresh seeds ×
/// 200-event schedules with every overlay send subject to drop faults.
/// The drop probability comes from `DSI_LOSSY_DROP` (default 0.2; the CI
/// matrix sweeps 0.1/0.2/0.3). Run with:
/// `DSI_LOSSY_DROP=0.3 cargo test -p dsi-faultsim soak_allclass -- --ignored`
#[test]
#[ignore = "long soak; run explicitly or from the scheduled CI matrix"]
fn soak_allclass_lossy_campaign() {
    let drop: f64 = std::env::var("DSI_LOSSY_DROP")
        .ok()
        .map(|v| v.parse().expect("DSI_LOSSY_DROP must be a probability"))
        .unwrap_or(0.2);
    assert!((0.0..=0.3).contains(&drop), "soak drop rates above 0.3 are not a supported regime");
    for seed in 2000..2020u64 {
        let mut cfg = ScenarioConfig {
            num_events: 200,
            num_nodes: 12,
            num_streams: 10,
            ..ScenarioConfig::default()
        }
        .with_class_faults(allclass(drop));
        if seed % 2 == 1 {
            cfg = cfg.bidirectional();
        }
        let report = assert_clean(seed, cfg);
        assert!(report.mbr_ships > 0);
        if drop > 0.0 {
            assert!(report.reliability.retries > 0, "seed {seed}: lossy soak never retried");
        }
    }
}

/// Adversarial skew soak for the scheduled CI matrix: 20 fresh seeds ×
/// 200-event schedules under correlated streams, Zipf-popular query
/// anchors, thundering herds and NPER loss, with virtual-node
/// re-weighting armed on odd seeds (so the ring is actively reshaped
/// while all eight oracles audit every event). The skew comes from
/// `DSI_SKEW_RHO` (default 0.9) and `DSI_ZIPF_EXP` (default 1.5; the CI
/// matrix sweeps both). Run with:
/// `DSI_SKEW_RHO=1.0 DSI_ZIPF_EXP=2.0 cargo test -p dsi-faultsim soak_skew -- --ignored`
#[test]
#[ignore = "long soak; run explicitly or from the scheduled CI matrix"]
fn soak_skew_campaign() {
    let rho: f64 = std::env::var("DSI_SKEW_RHO")
        .ok()
        .map(|v| v.parse().expect("DSI_SKEW_RHO must be a correlation in [0, 1]"))
        .unwrap_or(0.9);
    let zipf: f64 = std::env::var("DSI_ZIPF_EXP")
        .ok()
        .map(|v| v.parse().expect("DSI_ZIPF_EXP must be a non-negative exponent"))
        .unwrap_or(1.5);
    for seed in 3000..3020u64 {
        let mut cfg = ScenarioConfig {
            num_events: 200,
            num_nodes: 12,
            num_streams: 16,
            ..ScenarioConfig::default()
        }
        .correlated(rho)
        .zipfian(zipf)
        .with_herd(12)
        .with_faults(lossy());
        if seed % 2 == 1 {
            cfg = cfg.with_mitigation(ReweightConfig::default());
        }
        let report = assert_clean(seed, cfg);
        assert!(report.mbr_ships > 0);
        assert!(report.queries_posted > 0, "seed {seed}: skew soak posted no queries");
    }
}

/// Sketch-accuracy soak for the scheduled CI matrix: 20 fresh seeds ×
/// 200-event schedules with all four aggregate kinds riding churn and
/// all-class loss, the ninth oracle auditing every notification. The
/// contract comes from `DSI_AGG_EPS` (default 0.2) and the loss from
/// `DSI_LOSSY_DROP` (default 0.2); the CI matrix sweeps ε × drop over
/// 0.1/0.2/0.3. Run with:
/// `DSI_AGG_EPS=0.1 DSI_LOSSY_DROP=0.3 cargo test -p dsi-faultsim soak_accuracy -- --ignored`
#[test]
#[ignore = "long soak; run explicitly or from the scheduled CI matrix"]
fn soak_accuracy_campaign() {
    let eps: f64 = std::env::var("DSI_AGG_EPS")
        .ok()
        .map(|v| v.parse().expect("DSI_AGG_EPS must be a relative error in (0, 1]"))
        .unwrap_or(0.2);
    let drop: f64 = std::env::var("DSI_LOSSY_DROP")
        .ok()
        .map(|v| v.parse().expect("DSI_LOSSY_DROP must be a probability"))
        .unwrap_or(0.2);
    assert!((0.0..=0.3).contains(&drop), "soak drop rates above 0.3 are not a supported regime");
    for seed in 5000..5020u64 {
        let mut cfg = ScenarioConfig {
            num_events: 200,
            num_nodes: 12,
            num_streams: 10,
            ..ScenarioConfig::default()
        }
        .with_aggregates(AggregatesConfig { eps, ..agg_all() })
        .with_class_faults(allclass(drop));
        if seed % 2 == 1 {
            cfg = cfg.bidirectional();
        }
        let report = assert_clean(seed, cfg);
        assert!(report.mbr_ships > 0);
        assert_eq!(report.aggregates_posted, 4, "seed {seed}: aggregate posting went missing");
        assert!(
            report.aggregate_notifications > 0,
            "seed {seed}: accuracy soak never delivered an aggregate notification"
        );
    }
}

/// One seed of the partition soak: a 12-node split-brain schedule of
/// `events` events whose minority is `frac` of the ring, under `drop`
/// ambient all-class loss. Odd seeds run bidirectional; every third seed
/// forks the minority into two islands.
fn partition_soak_case(seed: u64, frac: f64, drop: f64, events: usize) -> RunReport {
    let num_nodes = 12usize;
    let minority = (((num_nodes as f64) * frac).round() as usize).clamp(1, num_nodes - 1);
    let cut: Vec<usize> = (num_nodes - minority..num_nodes).collect();
    let islands = if seed.is_multiple_of(3) && minority >= 2 {
        vec![cut[..minority / 2].to_vec(), cut[minority / 2..].to_vec()]
    } else {
        vec![cut]
    };
    let mut cfg = ScenarioConfig {
        num_events: events,
        num_nodes,
        num_streams: 10,
        ..ScenarioConfig::default()
    }
    .with_partition(split(islands, 2 + (seed % 3) as u32, 2 + (seed % 4) as u32));
    if drop > 0.0 {
        cfg = cfg.with_class_faults(allclass(drop));
    }
    if seed % 2 == 1 {
        cfg = cfg.bidirectional();
    }
    let report = assert_clean(seed, cfg);
    assert!(report.mbr_ships > 0);
    report
}

/// The soak-found seed, in tier-1: seed 4001 at the four lossy nightly
/// cells is where `multicast_with_failover` once picked an entry that
/// disagreed with its route tail (fixed in PR 11).
#[test]
fn partition_soak_seed_4001_stays_clean_at_the_lossy_cells() {
    for events in [120, 300] {
        for frac in [0.25, 0.4] {
            partition_soak_case(4001, frac, 0.1, events);
        }
    }
}

/// Partition soak for the scheduled CI matrix: 16 fresh seeds of
/// split-brain schedules with the minority fraction, schedule length and
/// ambient loss taken from the environment — `DSI_PART_FRAC` (default
/// 0.3), `DSI_PART_EVENTS` (default 200) and `DSI_LOSSY_DROP` (default
/// 0.0; the CI matrix sweeps duration × fraction × drop). Two- and
/// three-way splits both soak. Run with:
/// `DSI_PART_FRAC=0.4 DSI_LOSSY_DROP=0.1 cargo test -p dsi-faultsim soak_partition -- --ignored`
#[test]
#[ignore = "long soak; run explicitly or from the scheduled CI matrix"]
fn soak_partition_campaign() {
    let frac: f64 = std::env::var("DSI_PART_FRAC")
        .ok()
        .map(|v| v.parse().expect("DSI_PART_FRAC must be a fraction in (0, 0.5]"))
        .unwrap_or(0.3);
    assert!((0.0..=0.5).contains(&frac), "a soak minority must stay a minority");
    let drop: f64 = std::env::var("DSI_LOSSY_DROP")
        .ok()
        .map(|v| v.parse().expect("DSI_LOSSY_DROP must be a probability"))
        .unwrap_or(0.0);
    assert!((0.0..=0.3).contains(&drop), "soak drop rates above 0.3 are not a supported regime");
    let events: usize = std::env::var("DSI_PART_EVENTS")
        .ok()
        .map(|v| v.parse().expect("DSI_PART_EVENTS must be an event count"))
        .unwrap_or(200);
    let suppressed_total: u64 = (4000..4016u64)
        .map(|seed| partition_soak_case(seed, frac, drop, events).partition_suppressed)
        .sum();
    // The suppression ledger only charges *attempted* crossings, and only
    // the armed retry layer keeps probing the cut — on the plain path the
    // side-aware ring never tries, so the ledger is legitimately empty.
    if drop > 0.0 {
        assert!(suppressed_total > 0, "16 lossy split-brain seeds never once probed the cut");
    }
}
