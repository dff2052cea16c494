//! Routing a fragment allocates at its cuts, not at its divisions.
//!
//! Algorithm 4 deepens a fragment's prefix one division at a time over
//! a 64-bit key, so a narrow query walks dozens of divisions before its
//! region first straddles one. Walking them must cost no allocation:
//! the region is copied only where a division cuts it, and the actions
//! land in one buffer. This binary pins that with a counting global
//! allocator: a fragment that descends 40 divisions before its first cut
//! must route within a handful of allocations, however deep the cut.
//!
//! This file deliberately holds ONE test: the counting allocator is
//! process-global, and a concurrently running sibling test would bleed
//! its allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator wrapper that counts every allocation (alloc +
/// realloc; frees are not counted).
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

use chord::{ChordId, OracleRing, RouteDecision};
use lph::{Grid, Prefix, Rect, Rotation};
use simnet::{AgentId, SimRng};
use simsearch::{route_subquery, Action, SubQueryMsg};

/// Allocations one routing call may make, whatever the division count:
/// the action buffer, the descent's per-dimension intervals and, when
/// the halves part ways, the one copy at the cut — with room to spare.
/// (Copying the region at every division cost two allocations each.)
const MAX_ALLOCS: usize = 8;

#[test]
fn routing_a_deep_fragment_allocates_only_at_its_cut() {
    const DEEP: u32 = 40;
    let grid = Grid::new(Rect::cube(2, 0.0, 1024.0), 64);

    // A region inside the cell of a 40-bit prefix that straddles that
    // cell's next division: it descends 40 divisions, then cuts.
    let cell_prefix = Prefix::of_key(0x9E37_79B9_7F4A_7C15, DEEP);
    let cell = grid.cell(cell_prefix);
    let j = grid.split_dim(DEEP + 1);
    let (lo, hi): (Vec<f64>, Vec<f64>) = (0..2)
        .map(|d| {
            let (l, h) = (cell.lo()[d], cell.hi()[d]);
            let (mid, quarter) = (0.5 * (l + h), 0.25 * (h - l));
            let half_width = if d == j { quarter } else { 0.5 * quarter };
            (mid - half_width, mid + half_width)
        })
        .unzip();
    let rect = Rect::new(lo, hi);
    assert_eq!(
        grid.enclosing_prefix(&rect),
        cell_prefix,
        "no cut before division {DEEP}"
    );

    // Start at a node that owns neither half: both pieces leave it, so
    // the call is routing alone, with no local refinement.
    let ring = OracleRing::with_random_ids(16, &mut SimRng::new(1));
    let tables = ring.build_all_tables(16, None, 16);
    let non_local =
        |key: u64, t: &chord::RoutingTable| t.route(ChordId(key)) != RouteDecision::Local;
    let table = tables
        .iter()
        .find(|t| {
            non_local(cell_prefix.child(0).key(), t) && non_local(cell_prefix.child(1).key(), t)
        })
        .expect("some node owns neither half");
    let msg = SubQueryMsg {
        qid: 0,
        index: 0,
        rect,
        prefix: Prefix::ROOT,
        hops: 0,
        origin: AgentId(0),
        ball: None,
        shortcut: false,
    };

    // Warm-up, then the measured call on an identical fragment.
    let warm = route_subquery(table, &grid, Rotation::IDENTITY, msg.clone(), true);
    let fragment = msg.clone();
    let before = ALLOCS.load(Ordering::Relaxed);
    let actions = route_subquery(table, &grid, Rotation::IDENTITY, fragment, true);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(actions.len(), warm.len());
    assert!(actions.iter().all(|a| matches!(a, Action::Send { .. })));
    assert!(
        allocs <= MAX_ALLOCS,
        "routing a fragment through {DEEP} divisions allocated {allocs} times (at most {MAX_ALLOCS})"
    );
}
