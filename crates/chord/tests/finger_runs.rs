//! The run-coded finger table is the 64-row table it replaced: driven
//! through the same `set_finger` / `remove` / `add_successor` sequence,
//! it reads back the same finger in every row and decides every route
//! exactly as a model that keeps one slot per row and scans a
//! deduplicated next-hop list (fingers, then successors) does.

use chord::table::FINGER_ROWS;
use chord::{ChordId, NodeRef, OracleRing, RouteDecision, RoutingTable};
use proptest::prelude::*;
use simnet::{SimRng, Topology};

/// The table as it was stored before runs: one slot per finger row and
/// a next-hop list rebuilt whenever the entries change.
struct Model {
    me: NodeRef,
    fingers: [Option<NodeRef>; FINGER_ROWS],
    successors: Vec<NodeRef>,
    max_successors: usize,
    predecessor: Option<NodeRef>,
    hops: Vec<NodeRef>,
}

impl Model {
    /// The model of `t`'s current state, read through its public view.
    fn of(t: &RoutingTable, max_successors: usize) -> Model {
        let mut m = Model {
            me: t.me(),
            fingers: std::array::from_fn(|i| t.finger(i)),
            successors: t.successors().to_vec(),
            max_successors,
            predecessor: t.predecessor(),
            hops: Vec::new(),
        };
        m.rebuild_hops();
        m
    }

    fn is_me(&self, n: NodeRef) -> bool {
        n.id == self.me.id || n.addr == self.me.addr
    }

    fn set_finger(&mut self, i: usize, node: Option<NodeRef>) {
        self.fingers[i] = node.filter(|&n| !self.is_me(n));
        self.rebuild_hops();
    }

    fn add_successor(&mut self, node: NodeRef) {
        if self.is_me(node) {
            return;
        }
        let me = self.me.id;
        let key = me.cw_dist(node.id);
        if let Err(pos) = self
            .successors
            .binary_search_by_key(&key, |s| me.cw_dist(s.id))
        {
            self.successors.insert(pos, node);
            self.successors.truncate(self.max_successors);
            self.rebuild_hops();
        }
    }

    fn remove(&mut self, node: NodeRef) {
        self.successors.retain(|s| s.id != node.id);
        for f in &mut self.fingers {
            if *f == Some(node) {
                *f = None;
            }
        }
        if self.predecessor == Some(node) {
            self.predecessor = None;
        }
        self.rebuild_hops();
    }

    fn rebuild_hops(&mut self) {
        self.hops.clear();
        for &n in self.fingers.iter().flatten().chain(&self.successors) {
            if !self.hops.contains(&n) {
                self.hops.push(n);
            }
        }
    }

    fn known_nodes(&self) -> Vec<NodeRef> {
        let mut all: Vec<NodeRef> = self.hops.iter().copied().chain(self.predecessor).collect();
        all.sort_unstable_by_key(|n| n.id);
        all.dedup_by_key(|n| n.id);
        all
    }

    fn closest_live(&self, key: ChordId, dead: &[u64]) -> NodeRef {
        let (mut best, mut best_dist) = (self.me, u64::MAX);
        for &c in &self.hops {
            if c.id.in_open(self.me.id, key) && !dead.contains(&c.id.0) {
                let d = c.id.cw_dist(key);
                if d < best_dist {
                    best_dist = d;
                    best = c;
                }
            }
        }
        best
    }

    fn route_excluding(&self, key: ChordId, dead: &[u64]) -> RouteDecision {
        let owns = match self.predecessor {
            Some(p) => key.in_half_open(p.id, self.me.id),
            None => true,
        };
        if owns {
            return RouteDecision::Local;
        }
        let best = self.closest_live(key, dead);
        if best.id != self.me.id {
            return RouteDecision::Forward(best);
        }
        match self.successors.iter().find(|s| !dead.contains(&s.id.0)) {
            Some(s) => RouteDecision::Surrogate(*s),
            None => RouteDecision::Local,
        }
    }
}

/// One change to both tables, naming ring members by sorted position:
/// `(kind, row, member)` sets finger `row` (kind 0: to the member; kind
/// 1: cleared), adds the member as a successor (kind 2) or removes it
/// from every slot (kind 3). Kind 4 sets finger `row` to the member
/// under the address of the table's own node, which both must refuse.
/// Kinds 5 and 6 set finger `row` to, or add as a successor, an alias:
/// the member's identifier at another address, so that equal distances
/// occur and the order the candidates are scanned in shows.
fn apply(
    t: &mut RoutingTable,
    m: &mut Model,
    ring: &OracleRing,
    (kind, row, member): (u8, usize, usize),
) {
    let node = ring.nodes()[member % ring.len()];
    match kind {
        0 => {
            t.set_finger(row, Some(node));
            m.set_finger(row, Some(node));
        }
        1 => {
            t.set_finger(row, None);
            m.set_finger(row, None);
        }
        2 => {
            t.add_successor(node);
            m.add_successor(node);
        }
        3 => {
            t.remove(node);
            m.remove(node);
        }
        4 => {
            let ghost = NodeRef {
                addr: t.me().addr,
                ..node
            };
            t.set_finger(row, Some(ghost));
            m.set_finger(row, Some(ghost));
        }
        _ => {
            let alias = NodeRef::new(node.id.0, node.addr.0 + 1_000);
            if kind == 5 {
                t.set_finger(row, Some(alias));
                m.set_finger(row, Some(alias));
            } else {
                t.add_successor(alias);
                m.add_successor(alias);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn runs_match_the_64_row_model(
        seed in any::<u64>(),
        n in 1usize..48,
        n_successors in 1usize..=16,
        start in 0u8..3,
        ops in prop::collection::vec((0u8..7, 0..FINGER_ROWS, 0usize..64), 0..48),
        keys in prop::collection::vec(any::<u64>(), 16),
        dead_mask in any::<u64>(),
    ) {
        let ring = OracleRing::with_random_ids(n, &mut SimRng::new(seed));
        let topo = Topology::king_like(n, seed, 180.0);
        let i = (seed % n as u64) as usize;
        // Start empty, stabilized without PNS, or stabilized with PNS.
        let mut t = match start {
            0 => RoutingTable::new(ring.nodes()[i], n_successors),
            1 => ring.build_table(i, n_successors, None, 8),
            _ => ring.build_table(i, n_successors, Some(&topo), 8),
        };
        let mut m = Model::of(&t, n_successors);
        for &op in &ops {
            apply(&mut t, &mut m, &ring, op);
            for row in 0..FINGER_ROWS {
                prop_assert_eq!(t.finger(row), m.fingers[row], "row {}", row);
            }
        }
        prop_assert_eq!(t.successors(), &m.successors[..]);
        let dead: Vec<u64> = ring
            .nodes()
            .iter()
            .enumerate()
            .filter(|(j, _)| dead_mask >> (j % 64) & 1 == 1)
            .map(|(_, nd)| nd.id.0)
            .collect();
        // Keys at every member and just past it, beside random ones.
        let members = ring.nodes().iter().flat_map(|nd| [nd.id.0, nd.id.0.wrapping_add(1)]);
        for k in keys.iter().copied().chain(members) {
            let key = ChordId(k);
            prop_assert_eq!(t.closest_preceding(key), m.closest_live(key, &[]));
            prop_assert_eq!(t.route(key), m.route_excluding(key, &[]));
            prop_assert_eq!(
                t.route_excluding(key, |id| dead.contains(&id)),
                m.route_excluding(key, &dead)
            );
        }
        prop_assert_eq!(t.known_nodes(), m.known_nodes());
    }
}

#[test]
fn a_row_split_off_and_restored_merges_back_into_its_run() {
    // Setting a row to the entry it holds changes nothing; setting it
    // to another entry splits its run in three, and setting it back
    // merges the pieces into the run they came from.
    let ring = OracleRing::with_random_ids(1_024, &mut SimRng::new(7));
    let mut t = ring.build_table(0, 16, None, 8);
    let rows: Vec<Option<NodeRef>> = (0..FINGER_ROWS).map(|i| t.finger(i)).collect();
    // The low rows all name the successor: row 1 sits inside a run.
    assert!(rows[0] == rows[1] && rows[1] == rows[2] && rows[1] != rows[63]);
    let before = format!("{t:?}");
    t.set_finger(1, rows[1]);
    assert_eq!(format!("{t:?}"), before);
    t.set_finger(1, rows[63]);
    assert_ne!(format!("{t:?}"), before);
    t.set_finger(1, rows[1]);
    assert_eq!(format!("{t:?}"), before);
    for (i, &row) in rows.iter().enumerate() {
        assert_eq!(t.finger(i), row, "row {i}");
    }
}
