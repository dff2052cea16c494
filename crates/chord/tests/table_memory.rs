//! The routing tables' heap is a CI gate: a stabilized Chord-PNS ring of
//! 1 024 nodes keeps each table's 64 finger rows as a handful of runs,
//! not one slot per row, and no next-hop copy beside them.
//!
//! This file deliberately holds ONE test: the counting allocator is
//! process-global, and a concurrently running sibling test would bleed
//! its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use chord::OracleRing;
use simnet::{SimRng, Topology};

/// System allocator wrapper that keeps the live heap bytes: allocations
/// add their size, frees subtract it, a reallocation adds the change.
struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const NODES: usize = 1_024;

/// Heap bytes per table the gate allows: about 1.25 times the measured
/// 694 (a 96-byte table, 16 successors in 256 bytes and 10.7 runs of 32
/// bytes on average for this ring).
const CEILING: usize = 870;

#[test]
fn stabilized_tables_stay_under_their_heap_ceiling() {
    let ring = OracleRing::with_random_ids(NODES, &mut SimRng::new(42));
    let topo = Topology::king_like(NODES, 42, 180.0);
    // A first build starts the thread pool, whose own allocations stay.
    drop(ring.build_all_tables(16, Some(&topo), 16));

    let before = LIVE.load(Ordering::Relaxed);
    let tables = ring.build_all_tables(16, Some(&topo), 16);
    let per_table = (LIVE.load(Ordering::Relaxed) - before) as usize / NODES;
    assert_eq!(tables.len(), NODES);
    drop(tables);
    assert!(
        per_table <= CEILING,
        "{per_table} heap bytes per routing table, ceiling {CEILING}"
    );
}
