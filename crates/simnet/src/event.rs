//! The event queue.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing sequence number assigned at scheduling time. The sequence
//! tie-break makes simultaneous events fire in scheduling order, which is
//! what keeps the whole simulation deterministic.
//!
//! The queue is one binary heap over that order, so every pop returns the
//! global `(time, seq)` minimum.

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

/// A deterministic priority queue of simulation events.
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
    /// High-water mark of the queue length, for capacity telemetry.
    peak_len: usize,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak_len: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, dst: AgentId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            seq,
            dst,
            kind,
        });
        self.peak_len = self.peak_len.max(self.len());
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
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

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The load-bearing property: against an arbitrary interleaving
        /// of pushes and pops — push times at or after the last popped
        /// time, as the simulator guarantees — the queue pops in the order
        /// of a `Vec` of `(time, seq)` stable-sorted by time alone, so
        /// equal times leave in schedule order. Each op is `(kind, raw)`:
        /// kinds 0–2 push a few ns ahead (many exact ties), 3–5 push up to
        /// ~18 simulated minutes ahead, 6–8 pop.
        #[test]
        fn pops_match_sorted_oracle(
            ops in prop::collection::vec((0u8..9, any::<u64>()), 1..400),
        ) {
            let mut q: EventQueue<u32> = EventQueue::new();
            // Oracle: pending `(time, seq)` in schedule order.
            let mut oracle: Vec<(SimTime, u64)> = vec![];
            let mut seq = 0u64;
            // The simulator only schedules at or after `now`; track the
            // same lower bound here.
            let mut now = SimTime::ZERO;
            for (kind, raw) in ops {
                let delta = match kind {
                    0..=2 => Some(raw % 4),
                    3..=5 => Some(raw % (1 << 40)),
                    _ => None,
                };
                match delta {
                    Some(delta_ns) => {
                        let t = SimTime(now.0 + delta_ns);
                        q.push_marker(t, AgentId(0));
                        oracle.push((t, seq));
                        seq += 1;
                    }
                    None => {
                        oracle.sort_by_key(|&(t, _)| t);
                        let want = (!oracle.is_empty()).then(|| oracle.remove(0));
                        prop_assert_eq!(q.peek_time(), want.map(|(t, _)| t));
                        let got = q.pop().map(|e| (e.time, e.seq));
                        prop_assert_eq!(got, want);
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            // Drain both to the end.
            oracle.sort_by_key(|&(t, _)| t);
            prop_assert_eq!(
                drain_order(&mut q),
                oracle.iter().map(|&(t, s)| (t.0, s)).collect::<Vec<_>>()
            );
        }
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
