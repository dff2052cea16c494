//! Per-query traces and the run-wide metrics registry.
//!
//! A [`Telemetry`] handle is shared between the experiment driver and
//! every [`crate::node::SearchNode`] of one simulated system. Nodes
//! record [`TraceEvent`]s as they route, split, refine and answer query
//! fragments; the overlay and load-balancer layers add counters to the
//! embedded [`simnet::Registry`]. Everything recorded is an integer
//! derived from simulated events — never a wall-clock reading — so two
//! runs with the same seed produce byte-identical JSON, which is what
//! the golden-snapshot CI gate relies on.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use serde_json::Value;
use simnet::telemetry::Registry;
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

impl TraceEvent {
    /// The event's snake_case tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Forward { .. } => "forward",
            TraceEvent::Handoff { .. } => "handoff",
            TraceEvent::SharedPath { .. } => "shared_path",
            TraceEvent::Split { .. } => "split",
            TraceEvent::Refine { .. } => "refine",
            TraceEvent::Peel { .. } => "peel",
            TraceEvent::Answer { .. } => "answer",
        }
    }

    /// Canonical JSON: an object tagged by `"event"`, integer fields only.
    pub fn to_json(&self) -> Value {
        let mut obj: BTreeMap<String, Value> = BTreeMap::new();
        obj.insert("event".into(), Value::String(self.kind().into()));
        let mut put = |k: &str, v: u64| {
            obj.insert(k.into(), Value::UInt(v));
        };
        match *self {
            TraceEvent::Forward {
                from,
                to,
                subqueries,
                bytes,
            } => {
                put("from", from as u64);
                put("to", to as u64);
                put("subqueries", subqueries as u64);
                put("bytes", bytes as u64);
            }
            TraceEvent::Handoff { from, to, bytes } => {
                put("from", from as u64);
                put("to", to as u64);
                put("bytes", bytes as u64);
            }
            TraceEvent::SharedPath { at, prefix_len }
            | TraceEvent::Split { at, prefix_len }
            | TraceEvent::Refine { at, prefix_len }
            | TraceEvent::Peel { at, prefix_len } => {
                put("at", at as u64);
                put("prefix_len", prefix_len as u64);
            }
            TraceEvent::Answer {
                at,
                hops,
                scanned,
                matched,
                returned,
                bytes,
            } => {
                put("at", at as u64);
                put("hops", hops as u64);
                put("scanned", scanned);
                put("matched", matched);
                put("returned", returned);
                put("bytes", bytes as u64);
            }
        }
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
}

impl QueryTrace {
    /// Roll the event list up into integer totals.
    pub fn summary(&self) -> QuerySummary {
        let mut s = QuerySummary::default();
        for e in &self.events {
            match *e {
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

/// Shared telemetry state of one simulated system.
#[derive(Debug, Default)]
pub struct TelemetryState {
    /// Named counters and histograms (overlay, routing, store, balancer).
    pub registry: Registry,
    /// Per-query traces, keyed by query id.
    pub traces: BTreeMap<QueryId, QueryTrace>,
}

/// Cloneable handle to one system's telemetry. Cheap to clone (an `Arc`);
/// every node of a system holds the same handle.
#[derive(Clone, Debug, Default)]
pub struct Telemetry(Arc<Mutex<TelemetryState>>);

impl Telemetry {
    /// Fresh, empty telemetry.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Lock the state for direct inspection or mutation.
    pub fn lock(&self) -> MutexGuard<'_, TelemetryState> {
        self.0.lock().expect("telemetry poisoned")
    }

    /// Start (or re-anchor) the trace of `qid` at its issuing node.
    pub fn begin_query(&self, qid: QueryId, origin: AgentId) {
        self.lock().traces.entry(qid).or_default().origin = origin.0;
    }

    /// Append one event to the trace of `qid`.
    pub fn record(&self, qid: QueryId, event: TraceEvent) {
        self.lock()
            .traces
            .entry(qid)
            .or_default()
            .events
            .push(event);
    }

    /// Add `by` to a named counter.
    pub fn incr(&self, name: &str, by: u64) {
        self.lock().registry.incr(name, by);
    }

    /// Record one histogram sample.
    pub fn observe(&self, name: &str, value: u64) {
        self.lock().registry.observe(name, value);
    }

    /// Record a routing-layer event observed at node `at` while working
    /// on query `qid`: appends the trace event and bumps the matching
    /// counter in one lock acquisition.
    pub fn record_routing(&self, qid: QueryId, at: usize, ev: crate::routing::RoutingEvent) {
        use crate::routing::RoutingEvent as R;
        let (counter, event) = match ev {
            R::Split { prefix_len } => ("routing.splits", TraceEvent::Split { at, prefix_len }),
            R::SharedPath { prefix_len } => (
                "routing.shared_path",
                TraceEvent::SharedPath { at, prefix_len },
            ),
            R::LocalRefine { prefix_len } => (
                "routing.local_refines",
                TraceEvent::Refine { at, prefix_len },
            ),
            R::RefinePeel { prefix_len } => ("routing.peels", TraceEvent::Peel { at, prefix_len }),
        };
        let mut st = self.lock();
        st.registry.incr(counter, 1);
        st.traces.entry(qid).or_default().events.push(event);
    }

    /// Drop the trace of `qid`; a later event on it starts a fresh one.
    /// Registry counters and histograms keep everything it added.
    pub fn forget(&self, qid: QueryId) {
        self.lock().traces.remove(&qid);
    }

    /// Clone of the trace of `qid`, if the query was seen.
    pub fn trace(&self, qid: QueryId) -> Option<QueryTrace> {
        self.lock().traces.get(&qid).cloned()
    }

    /// Canonical JSON of every trace, keyed by decimal query id.
    pub fn traces_json(&self) -> Value {
        let state = self.lock();
        let map: BTreeMap<String, Value> = state
            .traces
            .iter()
            .map(|(qid, t)| (format!("{qid:010}"), t.to_json()))
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
        t2.record(
            7,
            TraceEvent::Split {
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
    fn traces_json_sorted_by_qid() {
        let t = Telemetry::new();
        t.begin_query(10, AgentId(0));
        t.begin_query(2, AgentId(1));
        let j = t.traces_json().to_string();
        let p2 = j.find("0000000002").unwrap();
        let p10 = j.find("0000000010").unwrap();
        assert!(p2 < p10, "{j}");
    }
}
