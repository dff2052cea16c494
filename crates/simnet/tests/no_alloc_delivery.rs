//! Steady-state message delivery must not allocate.
//!
//! The zero-copy audit (`send_is_zero_copy_without_dup_faults`) pins the
//! *clone* count; this binary pins the *allocator* itself: once the
//! event queue's buckets have grown to the workload's working set, a
//! send → queue → deliver cycle is moves all the way through. At 100k
//! nodes the simulator processes hundreds of millions of deliveries, so
//! a single per-delivery allocation would put the global allocator at
//! the top of every profile.
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

use simnet::{Agent, AgentId, Ctx, Sim, SimTime, Topology};

/// Agent 0 forwards every delivery to agent 1; both count arrivals.
struct Forwarder {
    received: usize,
}

impl Agent for Forwarder {
    type Msg = u64;
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: AgentId, msg: u64) {
        self.received += 1;
        if ctx.me() == AgentId(0) {
            ctx.send(AgentId(1), msg, 16);
        }
    }
}

#[test]
fn steady_state_delivery_does_not_allocate() {
    const BATCH: usize = 500;

    // Zero RTT keeps every event in one calendar bucket, so the warm-up
    // batch grows that bucket's heap to the working-set size once.
    let topo = Topology::uniform(2, SimTime::ZERO);
    let agents = vec![Forwarder { received: 0 }, Forwarder { received: 0 }];
    let mut sim = Sim::new(topo, agents, 42);

    // Warm-up: size the queue, fault RNG streams, and agent state.
    for i in 0..BATCH {
        sim.inject(SimTime::ZERO, AgentId(0), i as u64);
    }
    sim.run();
    assert_eq!(sim.agent(AgentId(1)).received, BATCH);

    // Measured: the identical workload through the warmed machinery.
    // Every inject, send, queue push/pop, and delivery must be
    // allocation-free.
    let now = sim.now();
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..BATCH {
        sim.inject(now, AgentId(0), i as u64);
    }
    sim.run();
    let delta = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(sim.agent(AgentId(1)).received, 2 * BATCH);
    assert_eq!(
        delta, 0,
        "steady-state delivery allocated {delta} times over {BATCH} messages"
    );
    // The high-water mark reflects the real queue population: the
    // warm-up batch parked ~BATCH events at one instant.
    assert!(
        sim.stats().peak_queue >= BATCH as u64,
        "peak_queue {} lost the high-water mark",
        sim.stats().peak_queue
    );
}
