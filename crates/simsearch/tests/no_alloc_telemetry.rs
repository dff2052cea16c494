//! Steady-state telemetry must not allocate.
//!
//! Every message a node handles bumps counters, records histogram
//! samples or appends routing events through its `Telemetry` handle, so
//! one allocation per call would put the global allocator on every
//! message's path. Once a metric exists and a query's trace buffer has
//! room, recording is a borrow flag, an array index and a few byte
//! writes. `no_alloc_delivery.rs` in `simnet` pins the same property for
//! the event queue.
//!
//! This file deliberately holds ONE test: the counting allocator is
//! process-global, and a concurrently running sibling test would bleed
//! its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every allocation (alloc +
/// realloc; frees are not counted — handing memory back is fine).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use simnet::{CounterId, HistogramId};
use simsearch::routing::RoutingEvent;
use simsearch::{QueryId, Telemetry};

/// One message's worth of recording: the counters and histogram samples
/// a node writes by id and by name, and one routing event of each kind
/// on query `qid`'s trace (2 bytes each: the tag and the prefix length,
/// with the node named by the tag as the log's most recent).
fn record(tel: &Telemetry, qid: QueryId, i: u64) {
    tel.incr_id(CounterId::SearchMsgsRoute, 1);
    tel.incr_id(CounterId::SearchBytesQuery, 100 + i % 7);
    tel.incr_id(CounterId::StoreEntriesSkipped, 0);
    tel.incr("search.msgs.results", 1);
    tel.incr("index0.scanned", i);
    tel.observe_id(HistogramId::PublishHops, i % 12);
    tel.observe("lb.migrations_per_round", i % 5);
    let prefix_len = (i % 20) as u32;
    for ev in [
        RoutingEvent::Split { prefix_len },
        RoutingEvent::SharedPath { prefix_len },
        RoutingEvent::LocalRefine { prefix_len },
        RoutingEvent::RefinePeel { prefix_len },
    ] {
        tel.record_routing(qid, 5, ev);
    }
}

#[test]
fn steady_state_recording_does_not_allocate() {
    let tel = Telemetry::new();

    // Warm-up: creates every metric, the dynamic name's key, and query
    // 3's trace. 300 rounds write 2 401 bytes (the first event names
    // its node in one more), so the doubling trace buffer ends at 4 096
    // with room for the measured rounds' 600.
    for i in 0..300 {
        record(&tel, 3, i);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..75 {
        record(&tel, 3, i);
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    let st = tel.lock();
    assert_eq!(st.registry.counter("search.msgs.route"), 375);
    assert_eq!(st.registry.counter("routing.peels"), 375);
    assert_eq!(st.traces[&3].byte_len(), 1 + 375 * 4 * 2);
    drop(st);
    assert_eq!(
        delta, 0,
        "steady-state telemetry allocated {delta} times over 75 rounds"
    );
}
