//! Global ring knowledge: ground truth for tests and the stabilized-state
//! builder experiments start from.
//!
//! The paper's experiments run "after system stabilization". Rather than
//! burning simulated hours of stabilization traffic before every
//! experiment, [`OracleRing::build_table`] constructs the exact routing
//! state a converged Chord-PNS ring has: perfect successor lists and
//! predecessors, and fingers chosen by **proximity neighbor selection** —
//! for finger row `i`, any node in `[me + 2^i, me + 2^{i+1})` is a valid
//! entry, and PNS picks the one with the lowest RTT to `me` among the
//! first `pns_candidates` of the interval (p2psim's Chord-PNS samples 16
//! candidates). The live protocol in [`crate::protocol`] converges to the
//! same invariants, which the protocol tests assert.

use simnet::{AgentId, SimRng, Topology};

use crate::id::{ChordId, NodeRef};
use crate::table::{RoutingTable, FINGER_ROWS};

/// A sorted view of the full ring membership.
#[derive(Clone, Debug)]
pub struct OracleRing {
    /// Nodes sorted by identifier (all distinct).
    nodes: Vec<NodeRef>,
}

impl OracleRing {
    /// Build from node references. Panics on duplicate identifiers.
    pub fn new(mut nodes: Vec<NodeRef>) -> OracleRing {
        assert!(!nodes.is_empty(), "a ring needs at least one node");
        nodes.sort_unstable_by_key(|n| n.id);
        for w in nodes.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate chord id {:?}", w[0].id);
        }
        OracleRing { nodes }
    }

    /// Assign `n` distinct pseudo-random identifiers to agents `0..n`
    /// (Chord hashes node addresses with SHA-1; we draw uniform ids from
    /// the seeded generator, retrying the measure-zero collisions).
    pub fn with_random_ids(n: usize, rng: &mut SimRng) -> OracleRing {
        use rand::RngCore;
        assert!(n >= 1);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let nodes = (0..n)
            .map(|addr| {
                let mut id = rng.next_u64();
                while !seen.insert(id) {
                    id = rng.next_u64();
                }
                NodeRef {
                    id: ChordId(id),
                    addr: AgentId(addr),
                }
            })
            .collect();
        OracleRing::new(nodes)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the ring is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes sorted by identifier.
    pub fn nodes(&self) -> &[NodeRef] {
        &self.nodes
    }

    /// `successor(key)`: the first node whose id is `>= key`, wrapping.
    pub fn successor_of(&self, key: ChordId) -> NodeRef {
        let idx = self.nodes.partition_point(|n| n.id < key);
        self.nodes[idx % self.nodes.len()]
    }

    /// The node owning `key` (same as [`OracleRing::successor_of`]).
    pub fn owner_of(&self, key: ChordId) -> NodeRef {
        self.successor_of(key)
    }

    /// `predecessor(key)`: the last node whose id is `< key`, wrapping.
    pub fn predecessor_of(&self, key: ChordId) -> NodeRef {
        let idx = self.nodes.partition_point(|n| n.id < key);
        self.nodes[(idx + self.nodes.len() - 1) % self.nodes.len()]
    }

    /// The ring successor of the node at sorted position `i`.
    pub fn next_of(&self, i: usize) -> NodeRef {
        self.nodes[(i + 1) % self.nodes.len()]
    }

    /// The ring predecessor of the node at sorted position `i`.
    pub fn prev_of(&self, i: usize) -> NodeRef {
        self.nodes[(i + self.nodes.len() - 1) % self.nodes.len()]
    }

    /// Build the fully-stabilized routing table for the node at sorted
    /// position `i`.
    ///
    /// * `n_successors` — successor-list length (paper: 16).
    /// * `topo` — when given, fingers use proximity neighbor selection
    ///   against this latency matrix; when `None`, fingers are the exact
    ///   `successor(me + 2^row)` (plain Chord).
    /// * `pns_candidates` — how many nodes of each finger interval PNS
    ///   considers (p2psim default: 16).
    pub fn build_table(
        &self,
        i: usize,
        n_successors: usize,
        topo: Option<&Topology>,
        pns_candidates: usize,
    ) -> RoutingTable {
        let me = self.nodes[i];
        let n = self.nodes.len();
        let mut t = RoutingTable::new(me, n_successors);
        if n == 1 {
            return t;
        }
        t.set_predecessor(Some(self.prev_of(i)));
        for s in 1..=n_successors.min(n - 1) {
            t.add_successor(self.nodes[(i + s) % n]);
        }
        let mut rows = [me; FINGER_ROWS];
        for (row, slot) in rows.iter_mut().enumerate() {
            let start = me.id.finger_start(row as u32);
            // The interval [me + 2^row, me + 2^(row+1)) has length 2^row
            // (for row 63 it is the half-ring ending at me).
            let interval_len = 1u64 << row;
            let ideal = self.successor_of(start);
            let mut chosen = ideal;
            if let Some(topo) = topo {
                // PNS: among the first `pns_candidates` nodes of the
                // interval (clockwise from `start`), pick the lowest-RTT
                // one. When the interval holds no node, keep the ideal
                // finger (the plain-Chord fallback).
                let mut best_rtt = None;
                let mut idx = self.nodes.partition_point(|nd| nd.id < start) % n;
                for _ in 0..pns_candidates.min(n) {
                    let cand = self.nodes[idx];
                    if start.cw_dist(cand.id) >= interval_len {
                        break; // left the interval
                    }
                    if cand.id != me.id {
                        let rtt = topo.rtt(me.addr.0, cand.addr.0);
                        if best_rtt.is_none_or(|b| rtt < b) {
                            best_rtt = Some(rtt);
                            chosen = cand;
                        }
                    }
                    idx = (idx + 1) % n;
                }
            }
            *slot = chosen;
        }
        t.set_fingers(&rows);
        t
    }

    /// Build stabilized tables for every node, in agent-address order.
    ///
    /// Tables build in parallel: each is a pure function of the
    /// (immutable) membership and topology, so fan-out changes nothing
    /// about the result — the same tables come back on one core or
    /// sixteen. This is the "instant ring" that makes a stabilized 100k
    /// node overlay constructible in seconds where sequential
    /// join/stabilize would take simulated hours.
    pub fn build_all_tables(
        &self,
        n_successors: usize,
        topo: Option<&Topology>,
        pns_candidates: usize,
    ) -> Vec<RoutingTable> {
        use rayon::prelude::*;
        let indices: Vec<usize> = (0..self.nodes.len()).collect();
        let tables: Vec<RoutingTable> = indices
            .par_iter()
            .map(|&i| self.build_table(i, n_successors, topo, pns_candidates))
            .collect();
        let mut by_addr: Vec<Option<RoutingTable>> = vec![None; self.nodes.len()];
        for t in tables {
            let addr = t.me().addr.0;
            by_addr[addr] = Some(t);
        }
        by_addr.into_iter().map(|t| t.expect("addr gap")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RouteDecision;

    fn ring(ids: &[u64]) -> OracleRing {
        OracleRing::new(
            ids.iter()
                .enumerate()
                .map(|(addr, &id)| NodeRef::new(id, addr))
                .collect(),
        )
    }

    #[test]
    fn successor_and_predecessor() {
        let r = ring(&[100, 300, 700]);
        assert_eq!(r.successor_of(ChordId(100)).id.0, 100);
        assert_eq!(r.successor_of(ChordId(101)).id.0, 300);
        assert_eq!(r.successor_of(ChordId(700)).id.0, 700);
        assert_eq!(r.successor_of(ChordId(701)).id.0, 100); // wraps
        assert_eq!(r.predecessor_of(ChordId(100)).id.0, 700); // wraps
        assert_eq!(r.predecessor_of(ChordId(101)).id.0, 100);
        assert_eq!(r.predecessor_of(ChordId(0)).id.0, 700);
    }

    #[test]
    fn random_ids_are_distinct() {
        let mut rng = SimRng::new(1);
        let r = OracleRing::with_random_ids(500, &mut rng);
        assert_eq!(r.len(), 500);
        let mut ids: Vec<u64> = r.nodes().iter().map(|n| n.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 500);
        // Agents 0..n are all present.
        let mut addrs: Vec<usize> = r.nodes().iter().map(|n| n.addr.0).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn stabilized_tables_have_ring_invariants() {
        let mut rng = SimRng::new(7);
        let r = OracleRing::with_random_ids(64, &mut rng);
        let tables = r.build_all_tables(16, None, 16);
        for (i, node) in r.nodes().iter().enumerate() {
            let t = &tables[node.addr.0];
            assert_eq!(t.me(), *node);
            assert_eq!(t.predecessor().unwrap(), r.prev_of(i));
            assert_eq!(t.successor().unwrap(), r.next_of(i));
            assert_eq!(t.successors().len(), 16);
            // Every finger row targets its interval's true successor.
            for row in 0..FINGER_ROWS {
                let start = node.id.finger_start(row as u32);
                let expect = r.successor_of(start);
                if expect.id != node.id {
                    assert_eq!(t.finger(row).unwrap(), expect, "node {i} row {row}");
                }
            }
        }
    }

    #[test]
    fn successors_order_by_clockwise_distance() {
        let mut rng = SimRng::new(6);
        let ring = OracleRing::with_random_ids(12, &mut rng);
        let table = ring.build_table(0, 8, None, 8);
        let me = table.me();
        let list = table.successors();
        assert!(!list.is_empty());
        for w in list.windows(2) {
            assert!(me.id.cw_dist(w[0].id) <= me.id.cw_dist(w[1].id));
        }
        // The first entry is the ring successor.
        let pos = ring.nodes().iter().position(|n| n.id == me.id).unwrap();
        assert_eq!(list[0].id, ring.next_of(pos).id);
    }

    #[test]
    fn greedy_routing_reaches_owner_in_log_hops() {
        let mut rng = SimRng::new(3);
        let r = OracleRing::with_random_ids(256, &mut rng);
        let tables = r.build_all_tables(16, None, 16);
        let mut max_hops = 0;
        for trial in 0..200 {
            let key = ChordId(SimRng::new(trial).fork(9).f64().to_bits());
            let start = &tables[(trial as usize * 37) % 256];
            let mut cur = start;
            let mut hops = 0;
            let owner = loop {
                match cur.route(key) {
                    RouteDecision::Local => break cur.me(),
                    RouteDecision::Surrogate(s) => {
                        hops += 1;
                        break s;
                    }
                    RouteDecision::Forward(next) => {
                        hops += 1;
                        assert!(hops < 64, "routing loop for key {key:?}");
                        cur = &tables[next.addr.0];
                    }
                }
            };
            assert_eq!(owner, r.owner_of(key), "wrong owner for {key:?}");
            max_hops = max_hops.max(hops);
        }
        // log2(256) = 8; allow headroom but catch pathological routing.
        assert!(max_hops <= 12, "max hops {max_hops}");
    }

    #[test]
    fn pns_fingers_stay_in_interval_and_lower_latency() {
        let mut rng = SimRng::new(11);
        let n = 128;
        let r = OracleRing::with_random_ids(n, &mut rng);
        let topo = Topology::king_like(n, 5, 180.0);
        let plain = r.build_all_tables(16, None, 16);
        let pns = r.build_all_tables(16, Some(&topo), 16);
        let mut plain_sum = 0u128;
        let mut pns_sum = 0u128;
        let mut rows = 0u64;
        for node in r.nodes() {
            let tp = &plain[node.addr.0];
            let tq = &pns[node.addr.0];
            for row in 0..FINGER_ROWS {
                let (Some(fp), Some(fq)) = (tp.finger(row), tq.finger(row)) else {
                    continue;
                };
                // The PNS finger must be valid for the interval: its id
                // must not precede the ideal interval start... i.e. the
                // plain finger must not be strictly between start and the
                // PNS finger's id going clockwise — both must serve the
                // same interval. Validity: routing correctness is covered
                // by the routing test; here check latency improvement.
                plain_sum += topo.rtt(node.addr.0, fp.addr.0).0 as u128;
                pns_sum += topo.rtt(node.addr.0, fq.addr.0).0 as u128;
                rows += 1;
            }
        }
        assert!(rows > 0);
        assert!(
            pns_sum < plain_sum,
            "PNS should reduce mean finger RTT ({pns_sum} vs {plain_sum})"
        );
    }

    #[test]
    fn pns_routing_is_still_correct() {
        let mut rng = SimRng::new(13);
        let n = 128;
        let r = OracleRing::with_random_ids(n, &mut rng);
        let topo = Topology::king_like(n, 6, 180.0);
        let tables = r.build_all_tables(16, Some(&topo), 16);
        for trial in 0u64..100 {
            let key = ChordId(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut cur = &tables[(trial as usize * 13) % n];
            let mut hops = 0;
            let owner = loop {
                match cur.route(key) {
                    RouteDecision::Local => break cur.me(),
                    RouteDecision::Surrogate(s) => break s,
                    RouteDecision::Forward(next) => {
                        hops += 1;
                        assert!(hops < 100, "loop");
                        cur = &tables[next.addr.0];
                    }
                }
            };
            assert_eq!(owner, r.owner_of(key));
        }
    }

    #[test]
    fn single_node_ring() {
        let r = ring(&[42]);
        assert_eq!(r.successor_of(ChordId(7)).id.0, 42);
        assert_eq!(r.predecessor_of(ChordId(7)).id.0, 42);
        let t = r.build_table(0, 16, None, 16);
        assert_eq!(t.route(ChordId(0)), RouteDecision::Local);
    }

    #[test]
    #[should_panic(expected = "duplicate chord id")]
    fn duplicate_ids_rejected() {
        let _ = ring(&[5, 5]);
    }
}
