//! Query explanation: trace a range query's resolution offline.
//!
//! [`SearchSystem::explain`] replays Algorithms 3–5 against the system's
//! routing tables *without* the event simulation, recording every step —
//! which node handled which fragment, where it split, who answered what.
//! The trace is exact (the same pure functions drive the simulated
//! execution), so it is the tool for answering "why did this query visit
//! 14 nodes?" and for teaching the embedded-tree mechanics.

use chord::ChordId;
use lph::{Prefix, Rect};
use simnet::AgentId;

use crate::msg::{query_msg_bytes, QueryId, SubQueryMsg};
use crate::routing::{route_subquery, surrogate_refine, Action};
use crate::system::SearchSystem;

/// One step of a query's resolution.
#[derive(Clone, Debug)]
pub struct ExplainStep {
    /// The node the fragment was processed on.
    pub at: AgentId,
    /// Overlay hops taken to reach this step.
    pub hops: u32,
    /// The fragment's prefix length on arrival.
    pub prefix_len: u32,
    /// What happened.
    pub what: StepKind,
}

/// What a node did with a fragment.
#[derive(Clone, Debug)]
pub enum StepKind {
    /// Answered locally with this many matching entries.
    Answer {
        /// Matching entries in the node's store.
        matches: usize,
    },
    /// Handed to the surrogate (owner) node.
    Handoff {
        /// The surrogate's address.
        to: AgentId,
    },
    /// Forwarded along the DHT links.
    Forward {
        /// The next hop's address.
        to: AgentId,
    },
}

/// The full trace of one query.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    /// Every step, in processing order.
    pub steps: Vec<ExplainStep>,
    /// Distinct nodes that answered.
    pub answering_nodes: Vec<AgentId>,
    /// Total matching entries across answers (before top-k merging).
    pub total_matches: usize,
    /// Inter-node messages the resolution would send.
    pub messages: usize,
    /// Estimated query-delivery bytes (paper size model, unbatched).
    pub est_query_bytes: u64,
    /// Maximum hops to any answering node.
    pub max_hops: u32,
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} steps, {} messages, {} answering nodes, {} matches, max {} hops",
            self.steps.len(),
            self.messages,
            self.answering_nodes.len(),
            self.total_matches,
            self.max_hops
        )?;
        for s in &self.steps {
            let what = match &s.what {
                StepKind::Answer { matches } => format!("ANSWER {matches} entries"),
                StepKind::Handoff { to } => format!("handoff -> node {}", to.0),
                StepKind::Forward { to } => format!("forward -> node {}", to.0),
            };
            writeln!(
                f,
                "  [hop {:>2}] node {:>4} (prefix {:>2} bits): {what}",
                s.hops, s.at.0, s.prefix_len
            )?;
        }
        Ok(())
    }
}

impl SearchSystem {
    /// Trace the resolution of a range query from `origin` without
    /// running the simulator. The trace matches what the simulated
    /// execution does (same routing functions, same tables).
    pub fn explain(&self, index: u8, point: &[f64], radius: f64, origin: usize) -> ExplainReport {
        let grid = &self.grids[index as usize];
        let rot = self.rotations[index as usize];
        let rect = Rect::ball(point, radius, grid.bounds());
        let prefix = grid.enclosing_prefix(&rect);
        let k = grid.dims();
        let sq = SubQueryMsg {
            qid: QueryId::MAX, // never collides with real workload ids
            index,
            rect,
            prefix,
            hops: 0,
            origin: AgentId(origin),
            ball: None,
            shortcut: false,
        };

        let mut report = ExplainReport::default();
        let mut work: Vec<(AgentId, SubQueryMsg, bool)> = vec![(AgentId(origin), sq, false)];
        while let Some((at, q, is_refine)) = work.pop() {
            let node = self.sim.agent(at);
            let actions = if is_refine {
                surrogate_refine(&node.table, grid, rot, q, true)
            } else {
                route_subquery(&node.table, grid, rot, q, true)
            };
            for a in actions {
                match a {
                    Action::Answer(ans) => {
                        let ix = &node.indexes[index as usize];
                        let (lo, hi) = grid.key_span(&ans.rect);
                        let span = (ix.rotation.to_ring(lo), ix.rotation.to_ring(hi));
                        let matches = ix.store.scan_range(&ans.rect, span).1.matched;
                        report.total_matches += matches;
                        report.max_hops = report.max_hops.max(ans.hops);
                        if !report.answering_nodes.contains(&at) {
                            report.answering_nodes.push(at);
                        }
                        report.steps.push(ExplainStep {
                            at,
                            hops: ans.hops,
                            prefix_len: ans.prefix.len(),
                            what: StepKind::Answer { matches },
                        });
                    }
                    Action::Handoff { to, mut sq } => {
                        report.messages += 1;
                        report.est_query_bytes += query_msg_bytes(1, k) as u64;
                        report.steps.push(ExplainStep {
                            at,
                            hops: sq.hops,
                            prefix_len: sq.prefix.len(),
                            what: StepKind::Handoff { to },
                        });
                        sq.hops += 1;
                        work.push((to, sq, true));
                    }
                    Action::Forward { to, mut sq } => {
                        report.messages += 1;
                        report.est_query_bytes += query_msg_bytes(1, k) as u64;
                        report.steps.push(ExplainStep {
                            at,
                            hops: sq.hops,
                            prefix_len: sq.prefix.len(),
                            what: StepKind::Forward { to },
                        });
                        sq.hops += 1;
                        work.push((to, sq, false));
                    }
                }
            }
            assert!(report.messages < 100_000, "explain runaway — routing bug");
        }
        report
    }

    /// Render the *recorded* telemetry trace of a simulated query as a
    /// human-readable query plan. Unlike [`SearchSystem::explain`], which
    /// replays routing offline, this reports what actually happened on
    /// the simulated wire — batching, shared paths and all. `None` when
    /// the query id was never traced.
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
        let rot = self.rotations[index as usize];
        let clamped: Vec<f64> = point
            .iter()
            .enumerate()
            .map(|(d, &v)| v.clamp(grid.bounds().lo()[d], grid.bounds().hi()[d]))
            .collect();
        let key = rot.to_ring(grid.hash(&clamped));
        self.ring().owner_of(ChordId(key)).addr
    }

    /// The prefix a query region would be routed with (diagnostics).
    pub fn enclosing_prefix_of(&self, index: u8, point: &[f64], radius: f64) -> Prefix {
        let grid = &self.grids[index as usize];
        let rect = Rect::ball(point, radius, grid.bounds());
        grid.enclosing_prefix(&rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::DistanceOracle;
    use crate::system::{IndexSpec, QuerySpec, SystemConfig};
    use metric::ObjectId;
    use std::sync::Arc;

    fn world() -> (SearchSystem, Vec<Vec<f64>>) {
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
        let system = SearchSystem::build(
            SystemConfig {
                n_nodes: 20,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "explain".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.clone(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        (system, points)
    }

    #[test]
    fn explain_matches_brute_force_counts() {
        let (system, points) = world();
        let report = system.explain(0, &[50.0, 50.0], 12.0, 3);
        // Matches = objects in the clipped box (dedup: explain counts
        // per-answer matches; duplicates can only arise from boundary
        // overhang answers, absent on this grid-aligned world).
        let expect = points
            .iter()
            .filter(|p| (p[0] - 50.0).abs() <= 12.0 && (p[1] - 50.0).abs() <= 12.0)
            .count();
        assert_eq!(report.total_matches, expect, "{report}");
        assert!(!report.answering_nodes.is_empty());
        assert!(report.messages < 200);
        // The display renders every step.
        let text = format!("{report}");
        assert!(text.contains("ANSWER"));
    }

    #[test]
    fn explain_agrees_with_simulated_execution() {
        let (mut system, _points) = world();
        let report = system.explain(0, &[30.0, 70.0], 9.0, 7);
        // Run the same query for real; the merged result count must not
        // exceed explain's match count, and the answering-node count
        // must line up with the responses.
        let outcomes = system.run_queries(
            &[QuerySpec {
                index: 0,
                point: vec![30.0, 70.0],
                radius: 9.0,
                truth: vec![],
            }],
            1.0,
        );
        // Every answering node sends at least one result message (a node
        // visited by several independent fragments replies per visit, so
        // responses can exceed the distinct-node count).
        assert!(outcomes[0].responses as usize >= report.answering_nodes.len());
        assert_eq!(outcomes[0].hops, report.max_hops);
        // The recorded trace renders as a query plan and agrees on hops.
        let plan = system.query_plan(0).expect("query 0 was traced");
        assert!(plan.contains("ANSWER"), "{plan}");
        assert!(
            plan.contains(&format!("max {} hops", outcomes[0].hops)),
            "{plan}"
        );
        assert!(system.query_plan(999).is_none());
    }

    #[test]
    fn diagnostics_helpers() {
        let (system, _) = world();
        let owner = system.owner_of_point(0, &[10.0, 10.0]);
        assert!(owner.0 < 20);
        let p = system.enclosing_prefix_of(0, &[10.0, 10.0], 1.0);
        assert!(!p.is_empty());
        // A huge radius forces the root prefix.
        let root = system.enclosing_prefix_of(0, &[50.0, 50.0], 60.0);
        assert_eq!(root.len(), 0);
    }
}
