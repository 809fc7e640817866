//! Proof that steady-state ingest allocates nothing on the heap.
//!
//! A counting global allocator wraps the system allocator for this whole
//! test process; after a warm-up phase fills every reusable buffer
//! (extractor windows, the cluster's `SummaryScratch`, batcher running
//! bounds, the batch emission slots), a non-emitting tick of `post_value`
//! or a sub-threshold `ingest_batch` must leave the allocation counter
//! untouched.
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
//! the two tests here don't interfere with each other either.

use dsi_core::aggregate::{AggregateKind, AggregateSpec};
use dsi_core::{Cluster, ClusterConfig};
use dsi_simnet::SimTime;
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

#[test]
fn steady_state_ingest_is_allocation_free() {
    const STREAMS: usize = 8; // below PARALLEL_INGEST_MIN: inline path
    const WINDOW: usize = 16;

    let mut cfg = ClusterConfig::new(6);
    cfg.workload.window_len = WINDOW;
    // A batch size no run of this test can reach: every measured tick is a
    // non-emitting one, which is exactly the steady state the zero-alloc
    // contract covers.
    cfg.workload.mbr_batch = 1_000_000;
    // No width bound: a width-triggered early shipment would emit (and
    // legitimately allocate) mid-measurement.
    cfg.workload.mbr_max_width = None;
    let mut cluster = Cluster::new(cfg);
    for i in 0..STREAMS {
        cluster.register_stream(&format!("za-{i}"), i % 6);
    }
    // An active aggregate query rides the same contract: per-value sketch
    // updates go through preallocated exponential-histogram storage, so
    // warm non-emitting ticks stay allocation-free with it enabled
    // (notify cycles, which merge and allocate, are not part of the
    // measured steady state).
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

    // Warm-up: fill every window, grow every scratch buffer, exercise both
    // entry points so `emit_scratch` and the batcher bounds reach their
    // high-water capacity.
    let mut values: Vec<(u32, f64)> = (0..STREAMS as u32).map(|s| (s, 0.0)).collect();
    let mut tick = 0u64;
    for _ in 0..(WINDOW as u64 * 4) {
        for slot in values.iter_mut() {
            slot.1 = value(slot.0, tick);
        }
        let now = SimTime::from_ms(tick * 100);
        if tick.is_multiple_of(2) {
            let emitted = cluster.ingest_batch(&values, now);
            assert!(emitted.is_empty(), "warm-up must not emit (huge batch size)");
        } else {
            for &(s, v) in &values {
                assert!(cluster.post_value(s, v, now).is_none());
            }
        }
        tick += 1;
    }

    // Measured phase: per-value posts.
    let before = allocation_count();
    for _ in 0..64 {
        for slot in values.iter_mut() {
            slot.1 = value(slot.0, tick);
        }
        let now = SimTime::from_ms(tick * 100);
        for &(s, v) in &values {
            let plan = cluster.post_value(s, v, now);
            assert!(plan.is_none(), "measured phase must not emit");
        }
        tick += 1;
    }
    let post_value_allocs = allocation_count() - before;
    assert_eq!(
        post_value_allocs, 0,
        "post_value steady state must not allocate ({post_value_allocs} allocations in 64 ticks)"
    );

    // Measured phase: sub-threshold batches on the inline sequential path.
    let before = allocation_count();
    for _ in 0..64 {
        for slot in values.iter_mut() {
            slot.1 = value(slot.0, tick);
        }
        let now = SimTime::from_ms(tick * 100);
        let emitted = cluster.ingest_batch(&values, now);
        assert!(emitted.is_empty(), "measured phase must not emit");
        tick += 1;
    }
    let batch_allocs = allocation_count() - before;
    assert_eq!(
        batch_allocs, 0,
        "inline ingest_batch steady state must not allocate ({batch_allocs} allocations in 64 ticks)"
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
