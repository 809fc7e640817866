//! The hot-path allocation gate: steady-state ingest allocates nothing on
//! the heap. No other check in the workspace guards this contract.
//!
//! A counting global allocator wraps the system allocator for this whole
//! test process; after a warm-up phase fills every reusable buffer
//! (extractor windows, the cluster's `SummaryScratch`, batcher running
//! bounds, the batch emission slots, sketch bucket storage), 64
//! non-emitting ticks of each entry point — `post_value`, `ingest_batch`
//! and `ingest_batch_into` with a reused `out` — must leave the allocation
//! counter untouched.
//!
//! The test is a table: a branch no case runs is a branch this file does
//! not gate, so each axis of the matrix is there for a branch no other
//! case runs (an M-number names the mutant of DESIGN.md §14's table that
//! only that branch catches):
//!
//! - width bound, `None` or `Some(10.0)` (a bound that never trips): the
//!   width probe of `MbrBatcher::push_reals` (M2);
//! - similarity kind, `Correlation` or `Subsequence`: the z-norm and the
//!   unit-norm arms of `FeatureExtractor::current_into` (M7);
//! - fault plan, disarmed or armed with a drop probability that never
//!   fires on a tick that sends nothing: arming the reliability layer must
//!   add nothing to a tick that ships no MBR;
//! - home node, live or crashed before warm-up: the orphaned
//!   (`homed == false`) arm of `summarize_one` and the replica-less arm of
//!   `update_aggregates`.
//!
//! Every case also runs a live `WindowCount` aggregate (`update_aggregates`
//! and the sketch update), a live similarity query, and one stream that is
//! identically `0.0`, which takes the zero-denominator arm of both
//! normalisations (M9 for z-norm, M10 for unit-norm).
//!
//! The zero-alloc contract covers the *sequential* inline path: batches
//! below `PARALLEL_INGEST_MIN` (32) and the per-value `post_value` loop.
//! The parallel path spawns scoped threads, which allocate by design.
//!
//! An *emitting* tick does allocate — the emitted box, the routed path, the
//! multicast plan, and now and then a receiving store's column growing —
//! but never once per stored replica: every covering node's columns copy
//! the corners out of the one borrowed record (DESIGN.md §14, the emission
//! allocation budget).
//!
//! Kept as its own integration test so the global allocator doesn't
//! interfere with any other suite; allocations are counted per thread, so
//! the tests here don't interfere with each other either.

use dsi_chord::MulticastPlan;
use dsi_core::aggregate::{AggregateKind, AggregateSpec};
use dsi_core::{Cluster, ClusterConfig, SimilarityKind};
use dsi_dsp::Mbr;
use dsi_simnet::{FaultPlan, FaultSpec, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread. Per thread, so the tests of this
    /// file (each measuring on its own test thread) cannot disturb each
    /// other; const-initialised and without a destructor, so touching it
    /// from inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Deterministic pseudo-value for (stream, tick) without any rng.
fn value(stream: u32, tick: u64) -> f64 {
    5.0 + ((stream as f64) * 0.37 + (tick as f64) * 0.11).sin() * 2.0
}

/// One row of the zero-alloc matrix (the axes of the module doc).
#[derive(Debug, Clone, Copy)]
struct Case {
    max_width: Option<f64>,
    kind: SimilarityKind,
    armed: bool,
    orphan: bool,
}

/// The three ingest entry points the contract covers.
#[derive(Debug, Clone, Copy)]
enum Entry {
    PostValue,
    IngestBatch,
    IngestBatchInto,
}

const ENTRIES: [Entry; 3] = [Entry::PostValue, Entry::IngestBatch, Entry::IngestBatchInto];

/// Feeds one tick of `values` through `entry`; returns whether anything
/// was emitted.
fn ingest(
    cluster: &mut Cluster,
    entry: Entry,
    values: &[(u32, f64)],
    now: SimTime,
    out: &mut Vec<(u32, Mbr, MulticastPlan)>,
) -> bool {
    match entry {
        Entry::PostValue => {
            let mut emitted = false;
            for &(s, v) in values {
                emitted |= cluster.post_value(s, v, now).is_some();
            }
            emitted
        }
        Entry::IngestBatch => !cluster.ingest_batch(values, now).is_empty(),
        Entry::IngestBatchInto => {
            cluster.ingest_batch_into(values, now, out);
            !out.is_empty()
        }
    }
}

#[test]
fn steady_state_ingest_is_allocation_free() {
    const STREAMS: usize = 8; // below PARALLEL_INGEST_MIN: inline path
    const WINDOW: usize = 16;
    const NODES: usize = 6;

    let mut cases = Vec::new();
    for max_width in [None, Some(10.0)] {
        for kind in [SimilarityKind::Correlation, SimilarityKind::Subsequence] {
            for armed in [false, true] {
                for orphan in [false, true] {
                    cases.push(Case { max_width, kind, armed, orphan });
                }
            }
        }
    }

    let mut measured = Vec::new();
    for case in cases {
        let mut cfg = ClusterConfig::new(NODES);
        cfg.kind = case.kind;
        cfg.workload.window_len = WINDOW;
        // A batch size no run of this test can reach: every measured tick is
        // a non-emitting one, which is exactly the steady state the
        // zero-alloc contract covers. Normalised features stay within
        // [-1, 1], so a width bound of 10 never ships early either.
        cfg.workload.mbr_batch = 1_000_000;
        cfg.workload.mbr_max_width = case.max_width;
        let mut cluster = Cluster::new(cfg);
        for i in 0..STREAMS {
            cluster.register_stream(&format!("za-{i}"), i % NODES);
        }
        if case.armed {
            let spec = FaultSpec { drop_prob: 1e-9, ..FaultSpec::NONE };
            cluster.set_fault_plan(FaultPlan::uniform(spec), 7);
        }
        // Per-value sketch updates go through preallocated
        // exponential-histogram storage (notify cycles, which merge and
        // allocate, are not part of the measured steady state).
        cluster.post_aggregate_query(
            0,
            AggregateSpec {
                kind: AggregateKind::WindowCount,
                eps: 0.2,
                delta: 0.1,
                window_ms: 5_000,
                lifespan_ms: u64::MAX / 2,
                bins: 64,
                forced_dims: None,
            },
            SimTime::ZERO,
        );
        let target: Vec<f64> = (0..WINDOW as u64).map(|t| value(1, t)).collect();
        cluster.post_similarity_query(0, target, 0.2, 1 << 40, SimTime::ZERO);
        if case.orphan {
            // Streams 1 and 7 lose their home and go silent.
            let home = cluster.streams()[1].home;
            cluster.crash_node(home);
        }

        // Stream 0 is identically zero: both normalisations divide by 0.
        let mut values: Vec<(u32, f64)> = (0..STREAMS as u32).map(|s| (s, 0.0)).collect();
        let mut out = Vec::new();
        let mut tick = 0u64;
        let mut step = |cluster: &mut Cluster, entry: Entry, out: &mut Vec<_>| {
            for slot in values.iter_mut().skip(1) {
                slot.1 = value(slot.0, tick);
            }
            let emitted = ingest(cluster, entry, &values, SimTime::from_ms(tick * 100), out);
            assert!(!emitted, "{case:?} {entry:?} must not emit (huge batch size)");
            tick += 1;
        };

        // Warm-up: fill every window, grow every scratch buffer, run every
        // entry point so `out` and the batcher bounds reach their
        // high-water capacity.
        for round in 0..WINDOW * 4 {
            step(&mut cluster, ENTRIES[round % ENTRIES.len()], &mut out);
        }
        for entry in ENTRIES {
            let before = allocation_count();
            for _ in 0..64 {
                step(&mut cluster, entry, &mut out);
            }
            measured.push((case, entry, allocation_count() - before));
        }
    }

    assert_eq!(measured.len(), 48, "16 configurations x 3 entry points");
    let allocating: Vec<_> = measured.iter().filter(|m| m.2 != 0).collect();
    assert!(
        allocating.is_empty(),
        "warm non-emitting ticks must not allocate; (case, entry, allocations in 64 ticks): \
         {allocating:?}"
    );
}

#[test]
fn emissions_allocate_per_message_not_per_replica() {
    const NODES: usize = 256;
    const STREAMS: u32 = 8;

    let mut cfg = ClusterConfig::new(NODES);
    cfg.workload.window_len = 16;
    // Eight summaries per MBR and no width bound: z-normalised features
    // rotate in phase, so the boxes are wide and each covers tens of nodes.
    cfg.workload.mbr_batch = 8;
    cfg.workload.mbr_max_width = None;
    let mut cluster = Cluster::new(cfg);
    for i in 0..STREAMS {
        cluster.register_stream(&format!("fan-{i}"), i as usize % NODES);
    }

    // Emits through `post_value` (the inline path, on this thread) until
    // `emissions` MBRs shipped; returns (allocations, deliveries).
    let mut tick = 0u64;
    let mut run = |cluster: &mut Cluster, emissions: u64| {
        let (mut shipped, mut deliveries) = (0u64, 0u64);
        let before = allocation_count();
        while shipped < emissions {
            let now = SimTime::from_ms(tick * 100);
            for s in 0..STREAMS {
                if let Some(plan) = cluster.post_value(s, value(s, tick), now) {
                    shipped += 1;
                    deliveries += plan.deliveries.len() as u64;
                }
            }
            tick += 1;
        }
        (allocation_count() - before, shipped, deliveries)
    };

    // Warm-up: windows fill, and every node's store columns grow past their
    // first few doublings.
    run(&mut cluster, 1_000);
    let (allocs, shipped, deliveries) = run(&mut cluster, 2_000);
    let per_emission = allocs as f64 / shipped as f64;
    let fan_out = deliveries as f64 / shipped as f64;
    assert!(fan_out > 16.0, "the configuration must fan out widely, got {fan_out:.1} per emission");
    // What is left: the box, the path, the plan, and the amortised growth of
    // the receivers' store columns (10.5 at a fan-out of 39.5). Two corner
    // `Vec`s per stored copy alone would be 2 x fan-out on top.
    assert!(
        per_emission < fan_out / 3.0,
        "{per_emission:.1} allocations per emission at {fan_out:.1} deliveries per emission: \
         emission cost must not scale with the replica count"
    );
}

#[test]
fn posting_a_query_allocates_per_post_not_per_covering_node() {
    const NODES: usize = 256;
    const WINDOW: u64 = 16;

    let mut cfg = ClusterConfig::new(NODES);
    cfg.workload.window_len = WINDOW as usize;
    let mut cluster = Cluster::new(cfg);
    // One target, so every post is centred on the same key and the wide
    // posts keep landing on the same covering nodes.
    let target: Vec<f64> = (0..WINDOW).map(|t| value(0, t)).collect();

    // Posts `n` queries of `radius` (nothing expires); returns the
    // allocations per post and the covering nodes each subscribed.
    let post = |cluster: &mut Cluster, radius: f64, n: u64| {
        let (mut allocs, mut covered) = (0u64, 0usize);
        for _ in 0..n {
            let target = target.clone();
            let before = allocation_count();
            let id = cluster.post_similarity_query(0, target, radius, 1 << 40, SimTime::ZERO);
            allocs += allocation_count() - before;
            let nodes = cluster.node_ids();
            covered +=
                nodes.iter().filter(|&&node| cluster.node(node).has_subscription(id)).count();
        }
        (allocs as f64 / n as f64, covered as f64 / n as f64)
    };

    // Warm-up: the covering nodes' subscription tables and the registry
    // grow past their first doublings.
    post(&mut cluster, 0.4, 1_024);
    post(&mut cluster, 0.001, 64);
    let (narrow_allocs, narrow_fan) = post(&mut cluster, 0.001, 256);
    let (wide_allocs, wide_fan) = post(&mut cluster, 0.4, 256);
    assert!(narrow_fan < 4.0, "narrow posts must cover few nodes, got {narrow_fan:.1}");
    assert!(wide_fan > 16.0, "wide posts must cover many nodes, got {wide_fan:.1}");
    // What a post allocates — the feature vector, the route, the plan, the
    // registry entry — does not depend on how many nodes subscribe. A copy
    // of the query per covering node would add at least two blocks (its
    // coefficients and its target) per extra node.
    let per_extra_node = (wide_allocs - narrow_allocs) / (wide_fan - narrow_fan);
    assert!(
        per_extra_node < 0.25,
        "{narrow_allocs:.1} allocations per post at {narrow_fan:.1} covering nodes, \
         {wide_allocs:.1} at {wide_fan:.1}: a post must not allocate per covering node"
    );
}
