//! Query explanation: render what a simulated query did.
//!
//! [`SearchSystem::query_plan`] renders a query's recorded trace — which
//! node forwarded, split, refined and answered what, and what each step
//! cost on the wire — so it is the tool for answering "why did this
//! query visit 14 nodes?". The trace is the record the query's reported
//! costs are read from, so the plan and the costs cannot disagree. The
//! two diagnostics below it locate a point's owner and a region's
//! routing prefix.

use chord::ChordId;
use metric::ObjectId;
use simnet::AgentId;

use crate::msg::QueryId;
use crate::store::Entry;
use crate::system::SearchSystem;

impl SearchSystem {
    /// Render the recorded telemetry trace of a simulated query as a
    /// human-readable query plan: what actually happened on the
    /// simulated wire — batching, shared paths and all. `None` when the
    /// query id was never traced.
    pub fn query_plan(&self, qid: QueryId) -> Option<String> {
        use crate::telemetry::TraceEvent;
        use std::fmt::Write;
        let trace = self.telemetry().trace(qid)?;
        let s = trace.summary();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "query {qid}: issued at node {}, {} answering nodes, max {} hops",
            trace.origin, s.answers, s.hops
        );
        let _ = writeln!(
            out,
            "  {} splits ({} deferred on shared paths), {} refines, {} peels",
            s.splits, s.shared_paths, s.refines, s.peels
        );
        let _ = writeln!(
            out,
            "  {} query bytes in {} messages, {} result bytes; \
             scanned {}, matched {}, returned {}",
            s.query_bytes,
            s.forwards + s.handoffs,
            s.result_bytes,
            s.scanned,
            s.matched,
            s.returned
        );
        for e in &trace.events {
            let line = match *e {
                TraceEvent::Forward {
                    from,
                    to,
                    subqueries,
                    bytes,
                } => {
                    format!("forward node {from} -> node {to} ({subqueries} subqueries, {bytes} B)")
                }
                TraceEvent::Handoff { from, to, bytes } => {
                    format!("handoff node {from} -> node {to} ({bytes} B)")
                }
                TraceEvent::SharedPath { at, prefix_len } => {
                    format!("shared path at node {at} (prefix {prefix_len} bits)")
                }
                TraceEvent::Split { at, prefix_len } => {
                    format!("split at node {at} (prefix {prefix_len} bits)")
                }
                TraceEvent::Refine { at, prefix_len } => {
                    format!("refine at node {at} (prefix {prefix_len} bits)")
                }
                TraceEvent::Peel { at, prefix_len } => {
                    format!("peel at node {at} (child prefix {prefix_len} bits)")
                }
                TraceEvent::Answer {
                    at,
                    hops,
                    scanned,
                    matched,
                    returned,
                    bytes,
                } => format!(
                    "ANSWER at node {at}: scanned {scanned}, matched {matched}, \
                     returned {returned} (hop {hops}, {bytes} B)"
                ),
            };
            let _ = writeln!(out, "    {line}");
        }
        Some(out)
    }

    /// The node that owns a given index-space point (diagnostics).
    pub fn owner_of_point(&self, index: u8, point: &[f64]) -> AgentId {
        let grid = &self.grids[index as usize];
        let entry = Entry::new(grid, self.rotations[index as usize], ObjectId(0), point);
        self.ring().owner_of(ChordId(entry.ring_key)).addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::DistanceOracle;
    use crate::system::{IndexSpec, QuerySpec, SystemConfig};
    use std::sync::Arc;

    fn world() -> SearchSystem {
        let side = 20usize;
        let points: Vec<Vec<f64>> = (0..side * side)
            .map(|i| {
                vec![
                    (i % side) as f64 * 100.0 / side as f64,
                    (i / side) as f64 * 100.0 / side as f64,
                ]
            })
            .collect();
        let op = points.clone();
        let oracle: DistanceOracle = Arc::new(move |_q, obj: ObjectId| {
            let p = &op[obj.0 as usize];
            ((p[0] - 50.0).powi(2) + (p[1] - 50.0).powi(2)).sqrt()
        });
        SearchSystem::build(
            SystemConfig {
                n_nodes: 20,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "explain".into(),
                boundary: vec![(0.0, 100.0); 2],
                points,
                rotate: false,
                rotation: None,
            }],
            oracle,
        )
    }

    #[test]
    fn query_plan_renders_the_recorded_run() {
        let mut system = world();
        let outcomes = system.run_queries(
            &[QuerySpec {
                index: 0,
                point: vec![30.0, 70.0],
                radius: 9.0,
                truth: vec![],
            }],
            1.0,
        );
        let o = &outcomes[0];
        // The recorded trace renders as a query plan and agrees on hops
        // and on the costs the outcome reports, which it is the record of.
        let plan = system.query_plan(0).expect("query 0 was traced");
        assert!(plan.contains("ANSWER"), "{plan}");
        assert!(plan.contains(&format!("max {} hops", o.hops)), "{plan}");
        assert!(
            plan.contains(&format!("{} query bytes", o.query_bytes)),
            "{plan}"
        );
        assert!(
            plan.contains(&format!("{} result bytes", o.result_bytes)),
            "{plan}"
        );
        assert!(system.query_plan(999).is_none());
    }

    #[test]
    fn diagnostics_helpers() {
        let system = world();
        let owner = system.owner_of_point(0, &[10.0, 10.0]);
        assert!(owner.0 < 20);
    }
}
