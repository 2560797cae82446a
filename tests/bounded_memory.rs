//! The engine's memory is bounded by the queries in flight, not by the
//! trace: a run over four times the horizon at the same load peaks at
//! about the same live heap above its inputs. What does grow with the
//! horizon is the per-period output (the metrics' period series, a few
//! hundred bytes a period per shard), so the world is large enough that a
//! period holds hundreds of queries.
//!
//! A counting global allocator tracks the live heap and its peak. A
//! `realloc` counts as the new block allocated before the old one is
//! freed, which is what a growing `Vec`'s copy costs at its peak. The file
//! holds one test so that no other test's allocations run alongside.

use query_markets::core::MechanismKind;
use query_markets::sim::config::BrokerConfig;
use query_markets::sim::experiments::{run_cell, scale_world, two_class_trace};
use query_markets::sim::sharded::{ShardPlan, ShardRunOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live heap while `run` runs, above what was live when it started.
fn peak_above_inputs(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    run();
    PEAK.load(Relaxed) - base
}

#[test]
fn engine_memory_is_bounded_by_the_queries_in_flight() {
    const NODES: usize = 1_000;
    const LOAD: f64 = 0.5;
    // Whole cycles of the 0.05 Hz sinusoid, so both runs see the same
    // crests.
    const H: u64 = 20;
    let world = scale_world(NODES, 11);
    let plan = ShardPlan::build(&world, 4);
    let options = ShardRunOptions {
        budget: 1,
        broker: Some(BrokerConfig::qant()),
        ..ShardRunOptions::default()
    };
    let mut rows = Vec::new();
    for secs in [H, 4 * H] {
        let trace = two_class_trace(&world, 0.05, LOAD, secs);
        let flat = peak_above_inputs(|| {
            run_cell(&world, &trace, MechanismKind::QaNt);
        });
        let broker = peak_above_inputs(|| {
            plan.run_with_options(&trace, &options);
        });
        println!(
            "bounded-memory: {secs} s, {} queries: flat {flat} B, broker (S = 4) {broker} B",
            trace.len()
        );
        rows.push((trace.len(), flat, broker));
    }
    let [(short, flat_h, broker_h), (long, flat_4h, broker_4h)] = rows[..] else {
        unreachable!("two horizons")
    };
    assert!(
        long as f64 >= 3.5 * short as f64,
        "{short} -> {long} queries"
    );
    for (engine, at_h, at_4h) in [("flat", flat_h, flat_4h), ("broker", broker_h, broker_4h)] {
        assert!(
            (at_4h as f64) < 1.25 * at_h as f64,
            "{engine}: peak {at_h} B over {short} queries grew to {at_4h} B over {long}"
        );
    }
}
