//! Per-query traces and the run-wide metrics registry.
//!
//! A [`Telemetry`] handle is shared between the experiment driver and
//! every [`crate::node::SearchNode`] of one simulated system. Nodes
//! record [`TraceEvent`]s as they route, split, refine and answer query
//! fragments, each query's into one compact [`TraceLog`]; the overlay
//! and load-balancer layers add counters to the
//! embedded [`simnet::Registry`]. Everything recorded is an integer
//! derived from simulated events — never a wall-clock reading — so two
//! runs with the same seed produce byte-identical JSON, which is what
//! the golden-snapshot CI gate relies on.

use std::cell::{RefCell, RefMut};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use serde_json::Value;
use simnet::telemetry::{CounterId, HistogramId, Registry};
use simnet::AgentId;

use crate::msg::QueryId;

/// One observed event in a query's life, in simulation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A batch of subqueries left `from` toward `to` (an Algorithm 3
    /// overlay hop; the batch is one wire message).
    Forward {
        /// Sending node address.
        from: usize,
        /// Receiving node address.
        to: usize,
        /// Subqueries in the batch.
        subqueries: u32,
        /// Wire size under the paper's byte model.
        bytes: u32,
    },
    /// A fragment was handed to its surrogate owner (Algorithm 5 entry).
    Handoff {
        /// Sending node address.
        from: usize,
        /// The surrogate's address.
        to: usize,
        /// Wire size under the paper's byte model.
        bytes: u32,
    },
    /// Both halves of a bisection shared their next hop, so the split
    /// was deferred and the fragment travelled whole (§3.3 shared path).
    SharedPath {
        /// Node where the decision was made.
        at: usize,
        /// Prefix length of the fragment at that point.
        prefix_len: u32,
    },
    /// The fragment's region straddled a bisection whose halves part
    /// ways; it split into two independent subqueries.
    Split {
        /// Node where the split happened.
        at: usize,
        /// Prefix length at which the region was divided.
        prefix_len: u32,
    },
    /// An owner began local surrogate refinement of a fragment.
    Refine {
        /// The refining (owner) node.
        at: usize,
        /// The fragment's prefix length.
        prefix_len: u32,
    },
    /// Refinement peeled a sub-prefix off toward another owner.
    Peel {
        /// The refining node.
        at: usize,
        /// Prefix length of the peeled child fragment.
        prefix_len: u32,
    },
    /// A node answered fragments of the query from its local store.
    Answer {
        /// The answering node.
        at: usize,
        /// Overlay hops the query took to reach it.
        hops: u32,
        /// Store entries examined.
        scanned: u64,
        /// Entries inside the query region.
        matched: u64,
        /// Entries returned after distance ranking and top-k capping.
        returned: u64,
        /// Result-message wire size.
        bytes: u32,
    },
}

/// Each variant's snake_case tag, field names and number of leading
/// node fields, indexed by the variant number in the low bits of its
/// [`TraceLog`] tag byte. [`TraceEvent::fields`] lists the values in
/// this order, and both the JSON form and the log follow it.
const LAYOUT: [(&str, &[&str], usize); 7] = [
    ("forward", &["from", "to", "subqueries", "bytes"], 2),
    ("handoff", &["from", "to", "bytes"], 2),
    ("shared_path", &["at", "prefix_len"], 1),
    ("split", &["at", "prefix_len"], 1),
    ("refine", &["at", "prefix_len"], 1),
    ("peel", &["at", "prefix_len"], 1),
    (
        "answer",
        &["at", "hops", "scanned", "matched", "returned", "bytes"],
        1,
    ),
];

impl TraceEvent {
    /// The event's variant number and its field values widened to `u64`, in
    /// [`LAYOUT`] order; slots past the variant's field count are 0.
    fn fields(&self) -> (u8, [u64; 6]) {
        use TraceEvent as E;
        match *self {
            E::Forward {
                from,
                to,
                subqueries,
                bytes,
            } => (
                0,
                [
                    from as u64,
                    to as u64,
                    subqueries.into(),
                    bytes.into(),
                    0,
                    0,
                ],
            ),
            E::Handoff { from, to, bytes } => (1, [from as u64, to as u64, bytes.into(), 0, 0, 0]),
            E::SharedPath { at, prefix_len } => (2, [at as u64, prefix_len.into(), 0, 0, 0, 0]),
            E::Split { at, prefix_len } => (3, [at as u64, prefix_len.into(), 0, 0, 0, 0]),
            E::Refine { at, prefix_len } => (4, [at as u64, prefix_len.into(), 0, 0, 0, 0]),
            E::Peel { at, prefix_len } => (5, [at as u64, prefix_len.into(), 0, 0, 0, 0]),
            E::Answer {
                at,
                hops,
                scanned,
                matched,
                returned,
                bytes,
            } => (
                6,
                [
                    at as u64,
                    hops.into(),
                    scanned,
                    matched,
                    returned,
                    bytes.into(),
                ],
            ),
        }
    }

    /// The inverse of [`Self::fields`]. The narrowing casts are lossless:
    /// every value was widened from the field it returns to.
    fn from_fields(tag: u8, [a, b, c, d, e, f]: [u64; 6]) -> TraceEvent {
        use TraceEvent as E;
        let (at, prefix_len) = (a as usize, b as u32);
        match tag {
            0 => E::Forward {
                from: a as usize,
                to: b as usize,
                subqueries: c as u32,
                bytes: d as u32,
            },
            1 => E::Handoff {
                from: a as usize,
                to: b as usize,
                bytes: c as u32,
            },
            2 => E::SharedPath { at, prefix_len },
            3 => E::Split { at, prefix_len },
            4 => E::Refine { at, prefix_len },
            5 => E::Peel { at, prefix_len },
            6 => E::Answer {
                at,
                hops: b as u32,
                scanned: c,
                matched: d,
                returned: e,
                bytes: f as u32,
            },
            _ => unreachable!("trace log tag {tag}"),
        }
    }

    /// The event's snake_case tag.
    pub fn kind(&self) -> &'static str {
        LAYOUT[self.fields().0 as usize].0
    }

    /// Canonical JSON: an object tagged by `"event"`, integer fields only.
    pub fn to_json(&self) -> Value {
        let (tag, values) = self.fields();
        let (kind, names, _) = LAYOUT[tag as usize];
        let mut obj: BTreeMap<String, Value> = names
            .iter()
            .zip(values)
            .map(|(&k, v)| (k.to_string(), Value::UInt(v)))
            .collect();
        obj.insert("event".into(), Value::String(kind.into()));
        Value::Object(obj)
    }
}

/// The recorded life of one query.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    /// The issuing node's address.
    pub origin: usize,
    /// Events in simulation order.
    pub events: Vec<TraceEvent>,
}

/// Integer roll-up of one query's trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuerySummary {
    /// Maximum hop count over all answering nodes.
    pub hops: u32,
    /// Region splits along the way.
    pub splits: u32,
    /// Deferred splits (shared next hop).
    pub shared_paths: u32,
    /// Forwarded wire messages (batches).
    pub forwards: u32,
    /// Surrogate hand-offs.
    pub handoffs: u32,
    /// Local refinements started.
    pub refines: u32,
    /// Prefixes peeled during refinement.
    pub peels: u32,
    /// Nodes that answered.
    pub answers: u32,
    /// Store entries examined across all answering nodes.
    pub scanned: u64,
    /// Entries matched across all answering nodes.
    pub matched: u64,
    /// Entries returned across all answering nodes.
    pub returned: u64,
    /// Query-delivery bytes (forwards + hand-offs).
    pub query_bytes: u64,
    /// Result bytes.
    pub result_bytes: u64,
}

impl QuerySummary {
    /// Fold another roll-up of the *same query* into this one: counters
    /// sum, `hops` takes the maximum. Order-independent (sum and max are
    /// commutative and associative), so per-node partial summaries from
    /// a distributed run merge to the same totals in any order — the
    /// property the sim-vs-socket parity digest relies on.
    pub fn merge(&mut self, other: &QuerySummary) {
        self.hops = self.hops.max(other.hops);
        self.splits += other.splits;
        self.shared_paths += other.shared_paths;
        self.forwards += other.forwards;
        self.handoffs += other.handoffs;
        self.refines += other.refines;
        self.peels += other.peels;
        self.answers += other.answers;
        self.scanned += other.scanned;
        self.matched += other.matched;
        self.returned += other.returned;
        self.query_bytes += other.query_bytes;
        self.result_bytes += other.result_bytes;
    }

    /// Roll a query's events up into integer totals.
    fn of(events: impl IntoIterator<Item = TraceEvent>) -> QuerySummary {
        let mut s = QuerySummary::default();
        for e in events {
            match e {
                TraceEvent::Forward { bytes, .. } => {
                    s.forwards += 1;
                    s.query_bytes += bytes as u64;
                }
                TraceEvent::Handoff { bytes, .. } => {
                    s.handoffs += 1;
                    s.query_bytes += bytes as u64;
                }
                TraceEvent::SharedPath { .. } => s.shared_paths += 1,
                TraceEvent::Split { .. } => s.splits += 1,
                TraceEvent::Refine { .. } => s.refines += 1,
                TraceEvent::Peel { .. } => s.peels += 1,
                TraceEvent::Answer {
                    hops,
                    scanned,
                    matched,
                    returned,
                    bytes,
                    ..
                } => {
                    s.answers += 1;
                    s.hops = s.hops.max(hops);
                    s.scanned += scanned;
                    s.matched += matched;
                    s.returned += returned;
                    s.result_bytes += bytes as u64;
                }
            }
        }
        s
    }
}

impl QueryTrace {
    /// Roll the event list up into integer totals.
    pub fn summary(&self) -> QuerySummary {
        QuerySummary::of(self.events.iter().copied())
    }

    /// Canonical JSON: origin, the integer summary, and the event list.
    pub fn to_json(&self) -> Value {
        let s = self.summary();
        let events: Vec<Value> = self.events.iter().map(TraceEvent::to_json).collect();
        serde_json::json!({
            "origin": Value::UInt(self.origin as u64),
            "hops": Value::UInt(s.hops as u64),
            "splits": Value::UInt(s.splits as u64),
            "shared_paths": Value::UInt(s.shared_paths as u64),
            "forwards": Value::UInt(s.forwards as u64),
            "handoffs": Value::UInt(s.handoffs as u64),
            "refines": Value::UInt(s.refines as u64),
            "peels": Value::UInt(s.peels as u64),
            "answers": Value::UInt(s.answers as u64),
            "scanned": Value::UInt(s.scanned),
            "matched": Value::UInt(s.matched),
            "returned": Value::UInt(s.returned),
            "query_bytes": Value::UInt(s.query_bytes),
            "result_bytes": Value::UInt(s.result_bytes),
            "events": Value::Array(events),
        })
    }
}

/// One query's trace as it is stored: the origin plus a byte log in
/// which each event is a tag byte followed by its fields as LEB128
/// varints (7 bits a byte, low group first).
///
/// The tag byte's low three bits are the variant; each node field
/// (`at`, or `from` then `to`) takes two more bits, from bit 3 up, that
/// code it against the two nodes the log named last: 1 for the most
/// recent, 2 for the one before it, 0 for a varint that follows. A
/// query's events mostly name the node the previous event ended at, so
/// those fields cost no byte. Hop counts and prefix lengths are small,
/// so an event averages a few bytes rather than the 48 of a
/// [`TraceEvent`]; every field's full range still round-trips.
/// [`Self::to_trace`] decodes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// The issuing node's address.
    pub origin: usize,
    bytes: Vec<u8>,
    /// The two nodes the log named last, newest first; both start at 0.
    recent: [u64; 2],
}

/// Note that a log named `node`: it becomes the most recent of the two.
fn remember(recent: &mut [u64; 2], node: u64) {
    if recent[0] != node {
        *recent = [node, recent[0]];
    }
}

impl TraceLog {
    /// Append one event.
    pub fn push(&mut self, event: &TraceEvent) {
        let (tag, values) = event.fields();
        let (_, names, nodes) = LAYOUT[tag as usize];
        let at = self.bytes.len();
        self.bytes.push(tag);
        for (i, mut v) in values.into_iter().take(names.len()).enumerate() {
            if i < nodes {
                let code = self.recent.iter().position(|&r| r == v);
                remember(&mut self.recent, v);
                if let Some(slot) = code {
                    self.bytes[at] |= (slot as u8 + 1) << (3 + 2 * i);
                    continue;
                }
            }
            while v >= 0x80 {
                self.bytes.push(v as u8 | 0x80);
                v >>= 7;
            }
            self.bytes.push(v as u8);
        }
    }

    /// The events in recording order, decoded one at a time.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        let mut rest = self.bytes.as_slice();
        let mut recent = [0u64; 2];
        std::iter::from_fn(move || {
            let (&head, tail) = rest.split_first()?;
            rest = tail;
            let tag = head & 0b111;
            let (_, names, nodes) = LAYOUT[tag as usize];
            let mut values = [0u64; 6];
            for (i, v) in values.iter_mut().take(names.len()).enumerate() {
                let code = (i < nodes).then(|| usize::from(head >> (3 + 2 * i) & 0b11));
                if let Some(slot @ 1..) = code {
                    *v = recent[slot - 1];
                } else {
                    let mut shift = 0;
                    loop {
                        let (&b, tail) = rest.split_first().expect("truncated trace log");
                        rest = tail;
                        *v |= u64::from(b & 0x7f) << shift;
                        if b < 0x80 {
                            break;
                        }
                        shift += 7;
                    }
                }
                if code.is_some() {
                    remember(&mut recent, *v);
                }
            }
            Some(TraceEvent::from_fields(tag, values))
        })
    }

    /// Bytes the log occupies (its length, not its capacity).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Roll the log up into integer totals, decoding as it folds.
    pub fn summary(&self) -> QuerySummary {
        QuerySummary::of(self.events())
    }

    /// Query-delivery messages sent: one per `Forward` (a `Route` batch
    /// is one wire message, whatever its fragment count) and one per
    /// `Handoff`.
    pub fn query_msgs(&self) -> u32 {
        let sent =
            |e: &TraceEvent| matches!(e, TraceEvent::Forward { .. } | TraceEvent::Handoff { .. });
        self.events().filter(sent).count() as u32
    }

    /// The decoded trace.
    pub fn to_trace(&self) -> QueryTrace {
        QueryTrace {
            origin: self.origin,
            events: self.events().collect(),
        }
    }
}

/// Shared telemetry state of one simulated system.
#[derive(Debug, Default)]
pub struct TelemetryState {
    /// Named counters and histograms (overlay, routing, store, balancer).
    pub registry: Registry,
    /// Per-query traces, keyed by query id.
    pub traces: BTreeMap<QueryId, TraceLog>,
    /// The keys of `traces`, in the order their traces were created:
    /// the first-touch order [`crate::SearchNode::retire_oldest`]
    /// retires queries in.
    pub(crate) order: VecDeque<QueryId>,
    /// Queries whose log outgrew its buffer since the last
    /// [`Self::trim`]: the only logs that can hold spare capacity.
    pub(crate) grown: Vec<QueryId>,
}

/// Cloneable handle to one system's telemetry. Cheap to clone (an `Rc`);
/// every node of a system holds the same handle. A system runs on one
/// thread, so the state sits in a `RefCell`: recording is a borrow flag
/// and an array index, never a lock.
#[derive(Clone, Debug, Default)]
pub struct Telemetry(Rc<RefCell<TelemetryState>>);

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Borrow the state for direct inspection or mutation. Only one
    /// borrow may be live at a time; a second one panics.
    #[inline]
    pub fn lock(&self) -> RefMut<'_, TelemetryState> {
        self.0.borrow_mut()
    }

    /// Start (or re-anchor) the trace of `qid` at its issuing node.
    pub fn begin_query(&self, qid: QueryId, origin: AgentId) {
        self.lock().log_mut(qid).origin = origin.0;
    }

    /// Add `by` to a named counter.
    #[inline]
    pub fn incr(&self, name: &str, by: u64) {
        self.lock().registry.incr(name, by);
    }

    /// Add `by` to a declared counter.
    #[inline]
    pub fn incr_id(&self, id: CounterId, by: u64) {
        self.lock().registry.incr_id(id, by);
    }

    /// Record one histogram sample.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        self.lock().registry.observe(name, value);
    }

    /// Record one sample into a declared histogram.
    #[inline]
    pub fn observe_id(&self, id: HistogramId, value: u64) {
        self.lock().registry.observe_id(id, value);
    }

    /// Record a routing-layer event observed at node `at` while working
    /// on query `qid`: appends the trace event and bumps the matching
    /// counter in one borrow.
    pub fn record_routing(&self, qid: QueryId, at: usize, ev: crate::routing::RoutingEvent) {
        use crate::routing::RoutingEvent as R;
        use CounterId as C;
        let (counter, event) = match ev {
            R::Split { prefix_len } => (C::RoutingSplits, TraceEvent::Split { at, prefix_len }),
            R::SharedPath { prefix_len } => (
                C::RoutingSharedPath,
                TraceEvent::SharedPath { at, prefix_len },
            ),
            R::LocalRefine { prefix_len } => (
                C::RoutingLocalRefines,
                TraceEvent::Refine { at, prefix_len },
            ),
            R::RefinePeel { prefix_len } => (C::RoutingPeels, TraceEvent::Peel { at, prefix_len }),
        };
        let mut st = self.lock();
        st.registry.incr_id(counter, 1);
        st.push(qid, &event);
    }

    /// Drop the trace of `qid`; a later event on it starts a fresh one.
    /// Registry counters and histograms keep everything it added. Its
    /// place in the first-touch order is searched for from the oldest
    /// end, where a batch's reused ids sit.
    pub fn forget(&self, qid: QueryId) {
        let mut st = self.lock();
        if st.traces.remove(&qid).is_some() {
            let at = st.order.iter().position(|&q| q == qid);
            st.order.remove(at.expect("every trace is in the order"));
        }
    }

    /// The decoded trace of `qid`, if the query was seen.
    pub fn trace(&self, qid: QueryId) -> Option<QueryTrace> {
        self.lock().traces.get(&qid).map(TraceLog::to_trace)
    }
}

impl TelemetryState {
    /// The trace of `qid`, created (and appended to the first-touch
    /// order) on first touch.
    fn log_mut(&mut self, qid: QueryId) -> &mut TraceLog {
        match self.traces.entry(qid) {
            Entry::Occupied(log) => log.into_mut(),
            Entry::Vacant(log) => {
                self.order.push_back(qid);
                log.insert(TraceLog::default())
            }
        }
    }

    /// Append one event to the trace of `qid`, noting the log if its
    /// buffer grew.
    pub fn push(&mut self, qid: QueryId, event: &TraceEvent) {
        let log = self.log_mut(qid);
        let capacity = log.bytes.capacity();
        log.push(event);
        if log.bytes.capacity() != capacity {
            self.grown.push(qid);
        }
    }

    /// Shrink every log that grew since the last trim to its exact
    /// length. A buffer grows by doubling, so a finished log can hold up
    /// to twice its bytes; a driver calls this once the logs it wrote
    /// are complete.
    pub(crate) fn trim(&mut self) {
        for qid in self.grown.drain(..) {
            if let Some(log) = self.traces.get_mut(&qid) {
                log.bytes.shrink_to_fit();
            }
        }
    }

    /// Drop the oldest trace if more than `keep` exist, returning its
    /// query id.
    pub(crate) fn pop_oldest_beyond(&mut self, keep: usize) -> Option<QueryId> {
        if self.order.len() <= keep {
            return None;
        }
        let qid = self.order.pop_front()?;
        self.traces.remove(&qid);
        Some(qid)
    }

    /// Canonical JSON of every trace, keyed by decimal query id.
    pub fn traces_json(&self) -> Value {
        let map: BTreeMap<String, Value> = self
            .traces
            .iter()
            .map(|(qid, t)| (format!("{qid:010}"), t.to_trace().to_json()))
            .collect();
        Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_rolls_up_events() {
        let mut t = QueryTrace {
            origin: 3,
            events: Vec::new(),
        };
        t.events.push(TraceEvent::Split {
            at: 3,
            prefix_len: 1,
        });
        t.events.push(TraceEvent::Forward {
            from: 3,
            to: 5,
            subqueries: 2,
            bytes: 100,
        });
        t.events.push(TraceEvent::Handoff {
            from: 5,
            to: 6,
            bytes: 73,
        });
        t.events.push(TraceEvent::Answer {
            at: 6,
            hops: 2,
            scanned: 40,
            matched: 7,
            returned: 5,
            bytes: 50,
        });
        t.events.push(TraceEvent::Answer {
            at: 3,
            hops: 0,
            scanned: 10,
            matched: 1,
            returned: 1,
            bytes: 26,
        });
        let s = t.summary();
        assert_eq!(s.hops, 2);
        assert_eq!(s.splits, 1);
        assert_eq!(s.forwards, 1);
        assert_eq!(s.handoffs, 1);
        assert_eq!(s.answers, 2);
        assert_eq!(s.scanned, 50);
        assert_eq!(s.matched, 8);
        assert_eq!(s.returned, 6);
        assert_eq!(s.query_bytes, 173);
        assert_eq!(s.result_bytes, 76);
    }

    #[test]
    fn event_json_is_tagged_and_integer() {
        let e = TraceEvent::Answer {
            at: 4,
            hops: 3,
            scanned: 100,
            matched: 9,
            returned: 9,
            bytes: 74,
        };
        let j = e.to_json().to_string();
        assert!(j.contains(r#""event":"answer""#), "{j}");
        assert!(j.contains(r#""scanned":100"#), "{j}");
        assert!(!j.contains('.'), "integers only: {j}");
    }

    #[test]
    fn handle_is_shared() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.begin_query(7, AgentId(2));
        t2.lock().push(
            7,
            &TraceEvent::Split {
                at: 2,
                prefix_len: 1,
            },
        );
        t.incr("routing.splits", 1);
        let trace = t2.trace(7).unwrap();
        assert_eq!(trace.origin, 2);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(t.lock().registry.counter("routing.splits"), 1);
    }

    #[test]
    fn forget_drops_one_trace_and_no_counter() {
        let t = Telemetry::new();
        for qid in [1, 2] {
            t.begin_query(qid, AgentId(0));
            t.record_routing(
                qid,
                0,
                crate::routing::RoutingEvent::Split { prefix_len: 1 },
            );
        }
        t.forget(1);
        t.forget(9);
        assert!(t.trace(1).is_none());
        assert_eq!(t.trace(2).unwrap().events.len(), 1);
        assert_eq!(t.lock().registry.counter("routing.splits"), 2);
    }

    #[test]
    fn the_order_is_first_touch_through_forget_and_retirement() {
        let t = Telemetry::new();
        let split = TraceEvent::Split {
            at: 0,
            prefix_len: 1,
        };
        for qid in [5, 2, 9, 2] {
            t.lock().push(qid, &split);
        }
        assert_eq!(t.lock().order, [5, 2, 9]);
        t.forget(2);
        t.begin_query(2, AgentId(0));
        let mut st = t.lock();
        assert_eq!(st.order, [5, 9, 2]);
        assert_eq!(st.pop_oldest_beyond(1), Some(5));
        assert_eq!(st.pop_oldest_beyond(1), Some(9));
        assert_eq!(st.pop_oldest_beyond(1), None);
        assert_eq!(st.traces.keys().copied().collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn trim_leaves_every_grown_log_at_its_length() {
        let mut st = TelemetryState::default();
        let split = TraceEvent::Split {
            at: 1,
            prefix_len: 2,
        };
        for qid in (0..100).map(|i| i % 3) {
            st.push(qid, &split);
        }
        let slack = |st: &TelemetryState| -> Vec<usize> {
            let logs = st.traces.values();
            logs.map(|l| l.bytes.capacity() - l.bytes.len()).collect()
        };
        assert!(slack(&st).iter().any(|&s| s > 0));
        st.trim();
        assert_eq!(slack(&st), [0, 0, 0]);
        assert!(st.grown.is_empty());
        // A trimmed log that grows again is trimmed again.
        st.push(0, &split);
        assert_eq!(st.grown, [0]);
    }

    #[test]
    fn query_msgs_counts_messages_sent() {
        let mut log = TraceLog::default();
        log.push(&TraceEvent::Forward {
            from: 0,
            to: 1,
            subqueries: 3,
            bytes: 111,
        });
        log.push(&TraceEvent::Refine {
            at: 1,
            prefix_len: 4,
        });
        log.push(&TraceEvent::Handoff {
            from: 1,
            to: 2,
            bytes: 73,
        });
        // The three-fragment batch is one message.
        assert_eq!(log.query_msgs(), 2);
        assert_eq!(log.summary().forwards + log.summary().handoffs, 2);
    }

    #[test]
    fn traces_json_sorted_by_qid() {
        let t = Telemetry::new();
        t.begin_query(10, AgentId(0));
        t.begin_query(2, AgentId(1));
        let j = t.lock().traces_json().to_string();
        let p2 = j.find("0000000002").unwrap();
        let p10 = j.find("0000000010").unwrap();
        assert!(p2 < p10, "{j}");
    }
}
