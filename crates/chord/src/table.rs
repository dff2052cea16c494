//! Per-node routing state and the next-hop rule.

use crate::id::{ChordId, NodeRef};

/// Number of finger-table rows (one per identifier bit).
pub const FINGER_ROWS: usize = 64;

/// Default successor-list length (the paper's p2psim configuration).
pub const DEFAULT_SUCCESSORS: usize = 16;

/// What a node should do with a key it is routing toward (paper
/// Algorithm 3's `nexthop` plus the ownership cases).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteDecision {
    /// This node owns the key (`key ∈ (predecessor, me]`): handle it here.
    Local,
    /// Hand the key to its owner, the surrogate. [`RoutingTable::route`]
    /// decides this when no known node lies between this node and the
    /// key, so the immediate successor owns it; the index layer also
    /// decides it for any owner [`RoutingTable::listed_owner`] names.
    Surrogate(NodeRef),
    /// Forward to the table entry closest-preceding the key.
    Forward(NodeRef),
}

/// A Chord node's routing table: finger table + successor list +
/// predecessor (the composition the paper's footnote 4 describes).
///
/// The 64 finger rows are stored as runs: in a stabilized table the low
/// rows all name the successor and each node fills a block of adjacent
/// rows, so about `log2(n)` runs cover them. Next hops are chosen from
/// the runs' nodes, then the successors. A node that repeats (in a later
/// run or in the successor list) changes no choice: it has the same
/// distance to the key, and the strict `<` keeps the first one seen.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    me: NodeRef,
    /// Rows `runs[j].first` up to the next run's first row (or
    /// [`FINGER_ROWS`]) all hold `runs[j].node`. The first run starts at
    /// row 0, and adjacent runs hold different entries.
    runs: Vec<Run>,
    successors: Vec<NodeRef>,
    max_successors: usize,
    predecessor: Option<NodeRef>,
}

/// A block of adjacent finger rows holding the same entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    first: u8,
    node: Option<NodeRef>,
}

impl RoutingTable {
    /// An empty table for a node that has not joined yet.
    pub fn new(me: NodeRef, max_successors: usize) -> RoutingTable {
        assert!(max_successors >= 1);
        RoutingTable {
            me,
            runs: vec![Run {
                first: 0,
                node: None,
            }],
            successors: Vec::new(),
            max_successors,
            predecessor: None,
        }
    }

    /// This node's identity.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// The immediate successor, if known.
    pub fn successor(&self) -> Option<NodeRef> {
        self.successors.first().copied()
    }

    /// The whole successor list, nearest first.
    pub fn successors(&self) -> &[NodeRef] {
        &self.successors
    }

    /// The predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeRef> {
        self.predecessor
    }

    /// Set the predecessor. A reference carrying this node's own address
    /// (under any identifier) is rejected — see [`Self::add_successor`].
    pub fn set_predecessor(&mut self, pred: Option<NodeRef>) {
        self.predecessor = pred.filter(|p| p.addr != self.me.addr);
    }

    /// The run holding finger row `i`.
    fn run_of(&self, i: usize) -> usize {
        assert!(i < FINGER_ROWS, "finger row {i} out of range");
        self.runs.partition_point(|r| usize::from(r.first) <= i) - 1
    }

    /// Finger `i` (row `i` targets `me + 2^i`).
    pub fn finger(&self, i: usize) -> Option<NodeRef> {
        self.runs[self.run_of(i)].node
    }

    /// Install finger `i`: its run splits around row `i`, and runs left
    /// holding the same entry as their neighbour merge.
    pub fn set_finger(&mut self, i: usize, node: Option<NodeRef>) {
        let j = self.run_of(i);
        let end = self
            .runs
            .get(j + 1)
            .map_or(FINGER_ROWS, |r| usize::from(r.first));
        let run = |first: usize, node| Run {
            first: first as u8,
            node,
        };
        let old = self.runs[j];
        let parts = [
            (usize::from(old.first) < i).then_some(old),
            Some(run(i, node.filter(|n| self.admits(n)))),
            (i + 1 < end).then(|| run(i + 1, old.node)),
        ];
        self.runs.splice(j..=j, parts.into_iter().flatten());
        self.runs.dedup_by_key(|r| r.node);
    }

    /// Fill every finger row at once, `rows[i]` into row `i`, storing the
    /// runs without spare capacity (one table per node).
    pub(crate) fn set_fingers(&mut self, rows: &[NodeRef; FINGER_ROWS]) {
        let row = |(i, n): (usize, &NodeRef)| Run {
            first: i as u8,
            node: Some(*n).filter(|n| self.admits(n)),
        };
        self.runs = rows.iter().enumerate().map(row).collect();
        self.runs.dedup_by_key(|r| r.node);
        self.runs.shrink_to_fit();
    }

    /// False for a reference to this node, under its identifier or its
    /// address: such a reference never enters the table.
    fn admits(&self, n: &NodeRef) -> bool {
        n.id != self.me.id && n.addr != self.me.addr
    }

    /// Insert a successor, keeping the list sorted by clockwise distance
    /// from `me`, deduplicated, and capped at the configured length (a
    /// full list drops its farthest entry before the insert, so it never
    /// outgrows the cap).
    ///
    /// A reference with this node's own address is rejected even when its
    /// identifier differs: after a leave/rejoin migration the host keeps
    /// its address but changes id, and peers may still hand back the
    /// stale identity. Admitting it would make `closest_preceding` route
    /// a key to ourselves — a zero-delay self-send loop.
    pub fn add_successor(&mut self, node: NodeRef) {
        if !self.admits(&node) {
            return;
        }
        let key = self.me.id.cw_dist(node.id);
        if let Err(pos) = self
            .successors
            .binary_search_by_key(&key, |s| self.me.id.cw_dist(s.id))
        {
            if pos < self.max_successors {
                self.successors.truncate(self.max_successors - 1);
                self.successors.insert(pos, node);
            }
        }
    }

    /// Drop a node (believed failed) from every table slot.
    pub fn remove(&mut self, node: NodeRef) {
        self.successors.retain(|s| s.id != node.id);
        for r in &mut self.runs {
            if r.node == Some(node) {
                r.node = None;
            }
        }
        self.runs.dedup_by_key(|r| r.node);
        if self.predecessor == Some(node) {
            self.predecessor = None;
        }
    }

    /// Every distinct node this table knows about (fingers, successors,
    /// predecessor), by identifier.
    pub fn known_nodes(&self) -> Vec<NodeRef> {
        let mut all: Vec<NodeRef> = Vec::new();
        let fingers = self.runs.iter().filter_map(|r| r.node);
        for n in fingers.chain(self.successors.iter().copied()) {
            if !all.contains(&n) {
                all.push(n);
            }
        }
        all.extend(self.predecessor);
        all.sort_unstable_by_key(|n| n.id);
        all.dedup_by_key(|n| n.id);
        all
    }

    /// True when this node owns `key` (`key ∈ (predecessor, me]`). A
    /// node with no predecessor (single-node ring) owns everything.
    pub fn owns(&self, key: ChordId) -> bool {
        match self.predecessor {
            Some(p) => key.in_half_open(p.id, self.me.id),
            None => true,
        }
    }

    /// The table entry closest-preceding `key`: the known node with the
    /// largest identifier in `(me, key)`, or `me` itself when none
    /// exists (then `key ∈ (me, successor]` and the successor owns it).
    pub fn closest_preceding(&self, key: ChordId) -> NodeRef {
        self.closest_live(key, |_| false)
    }

    /// [`Self::closest_preceding`] among the nodes `is_dead` does not
    /// report: one pass over the runs, then one successor.
    fn closest_live(&self, key: ChordId, is_dead: impl Fn(u64) -> bool) -> NodeRef {
        let mut best = self.me;
        let mut best_dist = u64::MAX; // cw distance from candidate to key; smaller = closer before key
        for c in self.runs.iter().filter_map(|r| r.node) {
            if c.id.in_open(self.me.id, key) && !is_dead(c.id.0) {
                let d = c.id.cw_dist(key);
                if d < best_dist {
                    best_dist = d;
                    best = c;
                }
            }
        }
        // The successors are sorted by distance from `me` with distinct
        // ids, so the nearest before the key is the last live one inside.
        let before_key = |s: &NodeRef| s.id.in_open(self.me.id, key);
        let inside = &self.successors[..self.successors.partition_point(before_key)];
        match inside.iter().rev().find(|s| !is_dead(s.id.0)) {
            Some(&s) if s.id.cw_dist(key) < best_dist => s,
            _ => best,
        }
    }

    /// The owner of `key` as the successor list names it: the first
    /// successor at or past `key` that `is_dead` does not report (a live
    /// successor inherits a dead one's range), or `None` when `key` lies
    /// beyond the last successor or every listed node from it on is
    /// dead. Pure; callers check [`Self::owns`] first.
    pub fn listed_owner(&self, key: ChordId, is_dead: impl Fn(u64) -> bool) -> Option<NodeRef> {
        let before_key = |s: &NodeRef| s.id.in_open(self.me.id, key);
        let from = self.successors.partition_point(before_key);
        self.successors[from..]
            .iter()
            .copied()
            .find(|s| !is_dead(s.id.0))
    }

    /// The routing decision for `key` — the dispatch at the heart of the
    /// paper's Algorithm 3 (`nexthop`, lines 15–20).
    pub fn route(&self, key: ChordId) -> RouteDecision {
        self.route_excluding(key, |_| false)
    }

    /// [`RoutingTable::route`] that refuses to hand the key to any node
    /// `is_dead` reports as suspected: the closest-preceding choice skips
    /// dead fingers (falling back to farther-preceding live ones), and
    /// the surrogate is the first *live* entry of the successor list —
    /// exactly the node that owns a dead successor's key range. The
    /// table itself is untouched; suspicion is the caller's state, so a
    /// recovered node routes normally again the moment the caller stops
    /// reporting it.
    pub fn route_excluding(&self, key: ChordId, is_dead: impl Fn(u64) -> bool) -> RouteDecision {
        if self.owns(key) {
            return RouteDecision::Local;
        }
        let best = self.closest_live(key, &is_dead);
        if best.id == self.me.id {
            match self.successors.iter().find(|s| !is_dead(s.id.0)) {
                // No live node precedes the key: the first live successor
                // owns it (it inherited every dead predecessor's range).
                Some(s) => RouteDecision::Surrogate(*s),
                // Everyone we know is dead: answer locally as a last
                // resort rather than routing into a void.
                None => RouteDecision::Local,
            }
        } else {
            RouteDecision::Forward(best)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u64) -> NodeRef {
        // Address derived from id for readability.
        NodeRef::new(id, (id % 1000) as usize)
    }

    fn table_with(me: u64, others: &[u64]) -> RoutingTable {
        let mut t = RoutingTable::new(node(me), DEFAULT_SUCCESSORS);
        for (i, &o) in others.iter().enumerate() {
            t.add_successor(node(o));
            t.set_finger(i, Some(node(o)));
        }
        t
    }

    #[test]
    fn successor_list_sorted_and_capped() {
        let mut t = RoutingTable::new(node(100), 3);
        for id in [500, 200, 900, 300, 150] {
            t.add_successor(node(id));
        }
        let ids: Vec<u64> = t.successors().iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![150, 200, 300]);
        assert_eq!(t.successor().unwrap().id.0, 150);
        // Duplicates are ignored.
        t.add_successor(node(150));
        assert_eq!(t.successors().len(), 3);
        // Own id is ignored.
        t.add_successor(node(100));
        assert_eq!(t.successors().len(), 3);
    }

    #[test]
    fn a_full_successor_list_keeps_its_buffer() {
        let mut t = RoutingTable::new(node(100), 4);
        for id in [500, 400, 300, 200, 150, 600] {
            t.add_successor(node(id));
        }
        let ids: Vec<u64> = t.successors().iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![150, 200, 300, 400]);
        assert_eq!(t.successors.capacity(), 4);
    }

    #[test]
    fn successor_list_wraps() {
        let mut t = RoutingTable::new(node(u64::MAX - 10), 4);
        t.add_successor(node(5));
        t.add_successor(node(u64::MAX - 2));
        let ids: Vec<u64> = t.successors().iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![u64::MAX - 2, 5]);
    }

    #[test]
    fn ownership() {
        let mut t = RoutingTable::new(node(100), 16);
        // No predecessor: owns everything.
        assert!(t.owns(ChordId(0)));
        t.set_predecessor(Some(node(50)));
        assert!(t.owns(ChordId(100)));
        assert!(t.owns(ChordId(51)));
        assert!(!t.owns(ChordId(50)));
        assert!(!t.owns(ChordId(101)));
        assert!(!t.owns(ChordId(0)));
    }

    #[test]
    fn closest_preceding_picks_nearest_before_key() {
        let t = table_with(100, &[200, 400, 800]);
        assert_eq!(t.closest_preceding(ChordId(500)).id.0, 400);
        assert_eq!(t.closest_preceding(ChordId(900)).id.0, 800);
        assert_eq!(t.closest_preceding(ChordId(250)).id.0, 200);
        // Nothing in (100, 150): me.
        assert_eq!(t.closest_preceding(ChordId(150)).id.0, 100);
        // Entry exactly at key is NOT in the open interval.
        assert_eq!(t.closest_preceding(ChordId(200)).id.0, 100);
    }

    #[test]
    fn route_decisions() {
        let mut t = table_with(100, &[200, 400, 800]);
        t.set_predecessor(Some(node(900)));
        // Owned keys (wrapping from 900 through 100).
        assert_eq!(t.route(ChordId(950)), RouteDecision::Local);
        assert_eq!(t.route(ChordId(100)), RouteDecision::Local);
        assert_eq!(t.route(ChordId(0)), RouteDecision::Local);
        // Key just past me, before first successor: surrogate.
        assert_eq!(t.route(ChordId(150)), RouteDecision::Surrogate(node(200)));
        assert_eq!(t.route(ChordId(200)), RouteDecision::Surrogate(node(200)));
        // Far keys: forward to the closest preceding entry.
        assert_eq!(t.route(ChordId(500)), RouteDecision::Forward(node(400)));
        assert_eq!(t.route(ChordId(850)), RouteDecision::Forward(node(800)));
    }

    #[test]
    fn remove_scrubs_all_slots() {
        let mut t = table_with(100, &[200, 400]);
        t.set_predecessor(Some(node(400)));
        t.remove(node(400));
        assert!(t.successors().iter().all(|n| n.id.0 != 400));
        assert!(t.predecessor().is_none());
        assert!((0..FINGER_ROWS).all(|i| t.finger(i).map(|n| n.id.0) != Some(400)));
    }

    #[test]
    fn known_nodes_deduplicates() {
        let mut t = table_with(100, &[200, 400]);
        t.set_predecessor(Some(node(400)));
        let known = t.known_nodes();
        let ids: Vec<u64> = known.iter().map(|n| n.id.0).collect();
        assert_eq!(ids, vec![200, 400]);
    }

    #[test]
    fn stale_self_reference_under_old_id_is_rejected() {
        // After a leave/rejoin migration the host keeps its address but
        // changes id; peers may still hand back the old identity. It must
        // never enter the table, or routing would forward to ourselves.
        let mut t = RoutingTable::new(NodeRef::new(500, 5), DEFAULT_SUCCESSORS);
        let ghost = NodeRef::new(100, 5); // same address, stale id
        t.add_successor(ghost);
        assert!(t.successors().is_empty());
        t.set_finger(0, Some(ghost));
        assert!(t.finger(0).is_none());
        t.set_predecessor(Some(ghost));
        assert!(t.predecessor().is_none());
    }

    #[test]
    fn lone_node_routes_local() {
        let t = RoutingTable::new(node(42), 16);
        assert_eq!(t.route(ChordId(7)), RouteDecision::Local);
    }

    #[test]
    fn route_excluding_skips_dead_forward_target() {
        let mut t = table_with(100, &[200, 400, 800]);
        t.set_predecessor(Some(node(900)));
        // Normally 400 is the closest preceding node for key 500; with
        // 400 suspected, routing falls back to the next-best live entry.
        assert_eq!(t.route(ChordId(500)), RouteDecision::Forward(node(400)));
        let dead = |id: u64| id == 400;
        assert_eq!(
            t.route_excluding(ChordId(500), dead),
            RouteDecision::Forward(node(200))
        );
    }

    #[test]
    fn route_excluding_surrogate_is_first_live_successor() {
        let mut t = table_with(100, &[200, 400, 800]);
        t.set_predecessor(Some(node(900)));
        // Key 150 is owned by successor 200; with 200 dead its range is
        // inherited by the next live successor, 400.
        assert_eq!(t.route(ChordId(150)), RouteDecision::Surrogate(node(200)));
        assert_eq!(
            t.route_excluding(ChordId(150), |id| id == 200),
            RouteDecision::Surrogate(node(400))
        );
        // With every successor dead, answering locally is the last resort.
        assert_eq!(
            t.route_excluding(ChordId(150), |_| true),
            RouteDecision::Local
        );
    }

    #[test]
    fn listed_owner_names_the_first_successor_at_or_past_the_key() {
        let mut t = table_with(100, &[200, 400, 800]);
        t.set_predecessor(Some(node(900)));
        let alive = |_: u64| false;
        assert_eq!(t.listed_owner(ChordId(150), alive), Some(node(200)));
        assert_eq!(t.listed_owner(ChordId(200), alive), Some(node(200)));
        assert_eq!(t.listed_owner(ChordId(201), alive), Some(node(400)));
        assert_eq!(t.listed_owner(ChordId(800), alive), Some(node(800)));
        // Past the last successor the list names no owner.
        assert_eq!(t.listed_owner(ChordId(850), alive), None);
        assert_eq!(t.listed_owner(ChordId(50), alive), None);
    }

    #[test]
    fn listed_owner_wraps_past_zero() {
        let mut t = RoutingTable::new(node(u64::MAX - 10), 4);
        for id in [u64::MAX - 2, 5, 40] {
            t.add_successor(node(id));
        }
        let alive = |_: u64| false;
        assert_eq!(t.listed_owner(ChordId(u64::MAX), alive), Some(node(5)));
        assert_eq!(t.listed_owner(ChordId(3), alive), Some(node(5)));
        assert_eq!(t.listed_owner(ChordId(6), alive), Some(node(40)));
        assert_eq!(t.listed_owner(ChordId(41), alive), None);
    }

    #[test]
    fn listed_owner_skips_a_dead_owner() {
        let t = table_with(100, &[200, 400, 800]);
        // 400 owns 300; with it dead its range passes to 800.
        assert_eq!(
            t.listed_owner(ChordId(300), |id| id == 400),
            Some(node(800))
        );
        // A dead node before the key changes nothing.
        assert_eq!(
            t.listed_owner(ChordId(300), |id| id == 200),
            Some(node(400))
        );
        // Nobody live at or past the key: no listed owner.
        assert_eq!(t.listed_owner(ChordId(500), |id| id == 800), None);
    }

    #[test]
    fn route_excluding_ownership_unaffected_by_suspicion() {
        let mut t = table_with(100, &[200]);
        t.set_predecessor(Some(node(900)));
        assert_eq!(
            t.route_excluding(ChordId(50), |_| true),
            RouteDecision::Local
        );
    }
}
