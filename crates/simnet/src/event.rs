//! The event queue.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing sequence number assigned at scheduling time. The sequence
//! tie-break makes simultaneous events fire in scheduling order, which is
//! what keeps the whole simulation deterministic.
//!
//! # Calendar structure
//!
//! A single binary heap pays `O(log n)` pointer-chasing comparisons per
//! operation, which at 100k-node scale (queues holding hundreds of
//! thousands of in-flight deliveries) dominates the event loop. Since
//! almost every event is scheduled a bounded distance into the future —
//! one-way latencies of tens to hundreds of milliseconds, protocol
//! timers of seconds — the queue is a **bucketed calendar**: a ring of
//! `NUM_BUCKETS` buckets, each `1 << BUCKET_WIDTH_BITS` ns of simulated
//! time wide, holding the near future, plus one overflow heap for everything
//! beyond the ring's horizon. Pushes into the near future are `O(1)`
//! bucket selection plus an `O(log b)` push into a *small* per-bucket
//! heap; pops scan forward from the current bucket. Overflow events
//! migrate into the ring lazily as the window advances.
//!
//! The pop order is **identical** to the single heap's — the global
//! `(time, seq)` minimum, every time — so swapping the structure cannot
//! change any simulation outcome (the `calendar_matches_reference_heap`
//! proptest below proves this against a reference heap).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::sim::AgentId;
use crate::time::SimTime;

/// An opaque tag an agent attaches to a timer so it can tell its timers
/// apart when they fire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerTag(pub u64);

/// What happens when an event fires.
pub(crate) enum EventKind<M> {
    /// Deliver a message to `dst` that was sent by `from`.
    Deliver { from: AgentId, msg: M },
    /// Fire a timer previously scheduled by the destination agent.
    Timer { tag: TimerTag },
    /// The destination host crashes: until it restarts, messages and
    /// timers addressed to it are discarded.
    Crash,
    /// The destination host comes back up.
    Restart,
}

pub(crate) struct Event<M> {
    pub time: SimTime,
    pub seq: u64,
    pub dst: AgentId,
    pub kind: EventKind<M>,
}

impl<M> Event<M> {
    /// The total-order key the queue sorts by.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulated width of one calendar bucket: 2^24 ns ≈ 16.8 ms, a fraction
/// of the default 180 ms mean RTT so concurrent deliveries spread over
/// many buckets.
const BUCKET_WIDTH_BITS: u32 = 24;

/// Ring size (a power of two so slot selection is a mask). The window
/// spans `NUM_BUCKETS << BUCKET_WIDTH_BITS` ≈ 34 simulated seconds —
/// wide enough that periodic protocol timers land in the ring, not the
/// overflow heap.
const NUM_BUCKETS: usize = 2048;

/// A deterministic priority queue of simulation events: bucketed
/// calendar ring for the near future, overflow heap beyond the window.
pub(crate) struct EventQueue<M> {
    /// The near-future ring. Bucket for absolute bucket number `b` is
    /// `buckets[b & (NUM_BUCKETS - 1)]`; all events in the ring fall in
    /// the window `[window_start, window_start + NUM_BUCKETS)` (absolute
    /// bucket numbers), so no two live in the same slot for different
    /// absolute buckets.
    buckets: Box<[BinaryHeap<Event<M>>]>,
    /// Events in the ring (sum of bucket lengths).
    near_len: usize,
    /// Overflow: events at or past the window's end — plus, rarely,
    /// events pushed before the window start after a window jump. Served
    /// directly when holding the global minimum, migrated into the ring
    /// when the window advances over them.
    far: BinaryHeap<Event<M>>,
    /// Absolute bucket number of the window origin.
    window_start: u64,
    /// Scan position (absolute bucket number), `>= window_start`. Pushes
    /// rewind it; pops advance it over empty buckets.
    cursor: u64,
    next_seq: u64,
    /// High-water mark of the queue length, for capacity telemetry.
    peak_len: usize,
}

#[inline]
fn abs_bucket(time: SimTime) -> u64 {
    time.0 >> BUCKET_WIDTH_BITS
}

#[inline]
fn slot(b: u64) -> usize {
    b as usize & (NUM_BUCKETS - 1)
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| BinaryHeap::new()).collect(),
            near_len: 0,
            far: BinaryHeap::new(),
            window_start: 0,
            cursor: 0,
            next_seq: 0,
            peak_len: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, dst: AgentId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Event {
            time,
            seq,
            dst,
            kind,
        };
        let b = abs_bucket(time);
        if b >= self.window_start && b < self.window_start + NUM_BUCKETS as u64 {
            if b < self.cursor {
                // Legal when simulated time sits mid-window behind the
                // scan position (e.g. an inject after `run_until`).
                self.cursor = b;
            }
            self.buckets[slot(b)].push(ev);
            self.near_len += 1;
        } else {
            // Beyond the horizon (or, after a window jump, before the
            // origin): overflow. Migrates ringward as the window moves.
            self.far.push(ev);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Advance `cursor` to the first non-empty ring bucket and return its
    /// slot. `None` when the ring is empty.
    ///
    /// Every bucket the cursor skipped is empty, so the window origin can
    /// slide up to the cursor ([`Self::slide_window`]) — without that,
    /// simulations running past the initial ~34 s window would push every
    /// new event through the `O(log n)` overflow heap until the ring
    /// happened to drain completely.
    fn scan_near(&mut self) -> Option<usize> {
        if self.near_len == 0 {
            return None;
        }
        let end = self.window_start + NUM_BUCKETS as u64;
        while self.cursor < end {
            let s = slot(self.cursor);
            if !self.buckets[s].is_empty() {
                self.slide_window();
                return Some(s);
            }
            self.cursor += 1;
        }
        unreachable!("near_len > 0 but no non-empty bucket in window");
    }

    /// Slide the window origin forward to the cursor and migrate overflow
    /// events that now fit into the ring.
    ///
    /// Sound because every ring event lives in `[cursor, old_end)` — the
    /// scan only advances over empty buckets and pushes rewind it — so
    /// the new window `[cursor, cursor + NUM_BUCKETS)` still covers them
    /// all and no slot is shared by two absolute buckets. Overflow events
    /// *before* the new origin (rare injects after a window jump) stay in
    /// the overflow heap, where [`Self::pop`]'s near/far key comparison
    /// already serves them in exact order; they also block migration of
    /// later overflow events until popped, which is fine for the same
    /// reason.
    fn slide_window(&mut self) {
        if self.cursor == self.window_start {
            return;
        }
        self.window_start = self.cursor;
        let end = self.window_start + NUM_BUCKETS as u64;
        while let Some(ev) = self.far.peek() {
            let b = abs_bucket(ev.time);
            if b < self.window_start || b >= end {
                break;
            }
            let ev = self.far.pop().expect("peeked");
            self.buckets[slot(b)].push(ev);
            self.near_len += 1;
        }
    }

    /// When the ring is empty but overflow is not, re-origin the window
    /// at the overflow minimum and migrate every overflow event that now
    /// fits the window into the ring.
    fn migrate_far(&mut self) {
        debug_assert_eq!(self.near_len, 0);
        let Some(first) = self.far.peek() else {
            return;
        };
        self.window_start = abs_bucket(first.time);
        self.cursor = self.window_start;
        let end = self.window_start + NUM_BUCKETS as u64;
        while let Some(ev) = self.far.peek() {
            if abs_bucket(ev.time) >= end {
                break;
            }
            let ev = self.far.pop().expect("peeked");
            self.buckets[slot(abs_bucket(ev.time))].push(ev);
            self.near_len += 1;
        }
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.near_len == 0 {
            self.migrate_far();
        }
        let near = self.scan_near();
        match (near, self.far.peek()) {
            (None, None) => None,
            (Some(s), far_min) => {
                // The ring minimum is the head of the bucket at the
                // cursor; overflow may still beat it when a push landed
                // before the window origin after a jump.
                let near_key = self.buckets[s].peek().expect("scanned non-empty").key();
                if far_min.is_some_and(|f| f.key() < near_key) {
                    self.far.pop()
                } else {
                    self.near_len -= 1;
                    self.buckets[s].pop()
                }
            }
            (None, Some(_)) => self.far.pop(),
        }
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.near_len == 0 {
            self.migrate_far();
        }
        let near = self.scan_near();
        let near_t = near.map(|s| self.buckets[s].peek().expect("non-empty").time);
        let far_t = self.far.peek().map(|e| e.time);
        match (near_t, far_t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// Most events ever simultaneously queued.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl<M> EventQueue<M> {
    /// Test helper: push a timer event with a default tag.
    fn push_marker(&mut self, time: SimTime, dst: AgentId) {
        self.push(time, dst, EventKind::Timer { tag: TimerTag(0) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;

    fn drain_order(q: &mut EventQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = vec![];
        while let Some(e) = q.pop() {
            out.push((e.time.0, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(
            SimTime(30),
            AgentId(0),
            EventKind::Timer { tag: TimerTag(0) },
        );
        q.push(
            SimTime(10),
            AgentId(0),
            EventKind::Timer { tag: TimerTag(1) },
        );
        q.push(
            SimTime(20),
            AgentId(0),
            EventKind::Timer { tag: TimerTag(2) },
        );
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for _ in 0..5 {
            q.push_marker(SimTime(7), AgentId(0));
        }
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push_marker(SimTime(42), AgentId(1));
        q.push_marker(SimTime(41), AgentId(2));
        assert_eq!(q.peek_time(), Some(SimTime(41)));
        assert_eq!(q.len(), 2);
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime(41));
        assert_eq!(e.dst, AgentId(2));
        assert!(!q.is_empty());
    }

    /// Events past the ring window land in the overflow heap and still
    /// pop in exact global order as the window advances over them.
    #[test]
    fn far_future_events_migrate_in_order() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;
        let mut q: EventQueue<u32> = EventQueue::new();
        // Interleave near, far, and very far events.
        q.push_marker(SimTime(3 * window_ns), AgentId(0));
        q.push_marker(SimTime(5), AgentId(0));
        q.push_marker(SimTime(window_ns + 1), AgentId(0));
        q.push_marker(SimTime(window_ns), AgentId(0));
        q.push_marker(SimTime(7), AgentId(0));
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![5, 7, window_ns, window_ns + 1, 3 * window_ns]
        );
        // Ties across the near/far boundary break by seq.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_marker(SimTime(2 * window_ns), AgentId(0)); // seq 0, far
        q.push_marker(SimTime(1), AgentId(0)); // seq 1, near
        assert_eq!(drain_order(&mut q), vec![(1, 1), (2 * window_ns, 0)]);
    }

    /// A push behind the scan position (legal after `run_until` + inject)
    /// must still be found.
    #[test]
    fn push_behind_cursor_is_not_lost() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let w = 1u64 << BUCKET_WIDTH_BITS;
        q.push_marker(SimTime(10 * w), AgentId(0));
        // Peek advances the cursor to bucket 10.
        assert_eq!(q.peek_time(), Some(SimTime(10 * w)));
        // Now an event lands in bucket 2, behind the cursor.
        q.push_marker(SimTime(2 * w), AgentId(1));
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![2 * w, 10 * w]
        );
    }

    /// After a window jump driven by the overflow heap, a push *before*
    /// the new window origin (but after the last popped time) must still
    /// pop first, straight from the overflow heap.
    #[test]
    fn push_before_window_origin_after_jump() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push_marker(SimTime(2 * window_ns), AgentId(0));
        // Drain nothing yet; peek forces the window jump to bucket of
        // 2*window_ns.
        assert_eq!(q.peek_time(), Some(SimTime(2 * window_ns)));
        // An inject at a time before the new origin.
        q.push_marker(SimTime(window_ns + 5), AgentId(1));
        let order = drain_order(&mut q);
        assert_eq!(
            order.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            vec![window_ns + 5, 2 * window_ns]
        );
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The load-bearing property: against an arbitrary interleaving
        /// of pushes and pops — push times at or after the last popped
        /// time, as the simulator guarantees — the calendar queue pops
        /// in exactly the order a plain `(time, seq)` min-heap would.
        /// Each op is `(kind, raw)`: kinds 0–2 push within one bucket,
        /// 3–4 push anywhere inside ~one window, 5 pushes one to three
        /// windows out (the overflow/migration path), 6–8 pop.
        #[test]
        fn calendar_matches_reference_heap(
            ops in prop::collection::vec((0u8..9, any::<u64>()), 1..400),
        ) {
            let window_ns = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;
            let mut cal: EventQueue<u32> = EventQueue::new();
            // Reference: one max-heap over inverted-Ord events.
            let mut reference: BinaryHeap<Event<u32>> = BinaryHeap::new();
            let mut ref_seq = 0u64;
            // The simulator only schedules at or after `now`; track the
            // same lower bound here.
            let mut now = SimTime::ZERO;
            for (kind, raw) in ops {
                let delta = match kind {
                    0..=2 => Some(raw % (1 << BUCKET_WIDTH_BITS)),
                    3..=4 => Some(raw % (window_ns + (4 << BUCKET_WIDTH_BITS))),
                    5 => Some(window_ns + raw % (2 * window_ns)),
                    _ => None,
                };
                match delta {
                    Some(delta_ns) => {
                        let t = SimTime(now.0 + delta_ns);
                        cal.push(t, AgentId(0), EventKind::Timer { tag: TimerTag(0) });
                        reference.push(Event {
                            time: t,
                            seq: ref_seq,
                            dst: AgentId(0),
                            kind: EventKind::Timer { tag: TimerTag(0) },
                        });
                        ref_seq += 1;
                    }
                    None => {
                        prop_assert_eq!(cal.peek_time(), reference.peek().map(|e| e.time));
                        let got = cal.pop();
                        let want = reference.pop();
                        match (got, want) {
                            (None, None) => {}
                            (Some(g), Some(w)) => {
                                prop_assert_eq!((g.time, g.seq), (w.time, w.seq));
                                now = g.time;
                            }
                            (g, w) => prop_assert!(
                                false,
                                "pop mismatch: calendar {:?} vs reference {:?}",
                                g.map(|e| (e.time, e.seq)),
                                w.map(|e| (e.time, e.seq))
                            ),
                        }
                    }
                }
                prop_assert_eq!(cal.len(), reference.len());
            }
            // Drain both to the end.
            while let Some(w) = reference.pop() {
                let g = cal.pop().expect("calendar drained early");
                prop_assert_eq!((g.time, g.seq), (w.time, w.seq));
            }
            prop_assert!(cal.pop().is_none());
        }
    }

    /// Sustained load across several window wraps: events keep arriving a
    /// bounded distance ahead of the pop frontier, so simulated time walks
    /// far past the initial `[0, NUM_BUCKETS << BUCKET_WIDTH_BITS)` window
    /// while the ring never drains. Pops must stay heap-identical to a
    /// reference min-heap the whole way, and — the point of the sliding
    /// window — the overflow heap must stay empty, because every push
    /// lands within one bucket-width window of the current frontier.
    #[test]
    fn sustained_load_pops_in_order_across_window_wraps() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut reference: BinaryHeap<Event<u32>> = BinaryHeap::new();
        let mut ref_seq = 0u64;
        let mut now = SimTime::ZERO;
        // Deterministic pseudo-random deltas (no RNG dependency here).
        let mut state = 0x1234_5678_9abc_def0u64;
        let horizon = SimTime(6 * window_ns); // several full wraps
        let mut in_flight = 0usize;
        while now < horizon || in_flight > 0 {
            // Keep ~8 events in flight, each within half a window of now.
            while in_flight < 8 && now < horizon {
                let delta = splitmix64(&mut state) % (window_ns / 2) + 1;
                let t = SimTime(now.0 + delta);
                cal.push(t, AgentId(0), EventKind::Timer { tag: TimerTag(0) });
                reference.push(Event {
                    time: t,
                    seq: ref_seq,
                    dst: AgentId(0),
                    kind: EventKind::Timer { tag: TimerTag(0) },
                });
                ref_seq += 1;
                in_flight += 1;
            }
            let got = cal.pop().expect("calendar has in-flight events");
            let want = reference.pop().expect("reference has in-flight events");
            assert_eq!((got.time, got.seq), (want.time, want.seq));
            now = got.time;
            in_flight -= 1;
            // The sliding window keeps sustained traffic out of the
            // overflow heap entirely.
            assert!(
                cal.far.is_empty(),
                "overflow heap grew to {} at t={} — window failed to slide",
                cal.far.len(),
                now.0
            );
        }
        assert!(now.0 >= 5 * window_ns, "run covered several window wraps");
        assert!(cal.is_empty());
    }

    /// A far-future event pushed early must coexist with sustained near
    /// traffic: it migrates into the ring when the window slides over it
    /// and pops at exactly its turn.
    #[test]
    fn far_event_migrates_during_sustained_run() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_WIDTH_BITS;
        let mut q: EventQueue<u32> = EventQueue::new();
        // One event three windows out (overflow at push time)...
        let far_t = SimTime(3 * window_ns + 17);
        q.push_marker(far_t, AgentId(9));
        // ...plus a steady stream that keeps the ring non-empty, so the
        // lazy `migrate_far` path (which requires an empty ring) never
        // runs; only the sliding window can migrate the far event.
        let mut now = 0u64;
        let step = window_ns / 4;
        let mut popped = vec![];
        for i in 0..20u64 {
            q.push_marker(SimTime(now + step), AgentId(i as usize));
            let e = q.pop().expect("stream event");
            popped.push(e.time.0);
            now = e.time.0;
        }
        while let Some(e) = q.pop() {
            popped.push(e.time.0);
        }
        // The stream passes 3*window_ns around iteration 12; the far
        // event must have popped in order within the stream.
        assert!(popped.contains(&far_t.0), "far event popped: {popped:?}");
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted, "pops were globally ordered");
        assert!(q.is_empty());
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for t in 0..10 {
            q.push_marker(SimTime(t), AgentId(0));
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push_marker(SimTime(20), AgentId(0));
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 6);
    }
}
