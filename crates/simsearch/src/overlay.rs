//! Overlay abstraction: the index layer (Algorithms 3–5) needs exactly
//! two things from its DHT — *next-hop routing toward a key* and *ring
//! ownership arcs*. [`OverlayTable`] captures that interface; Chord's
//! [`RoutingTable`] (finger table + successor list, the paper's
//! evaluation platform) is the substrate, and [`FailureAware`] and
//! [`crate::WithShortcuts`] are views over it.

use chord::{ChordId, NodeRef, RouteDecision, RoutingTable};

/// The routing interface the index layer programs against.
pub trait OverlayTable {
    /// This node's identity.
    fn me_ref(&self) -> NodeRef;
    /// Chord-semantics routing decision for a key.
    fn decide(&self, key: ChordId) -> RouteDecision;
    /// Every node this table knows (used by load-balance probing).
    fn neighbors(&self) -> Vec<NodeRef>;
    /// This node's ring predecessor, when the table knows one — it
    /// bounds the node's owned arc `(pred, me]`, which the routing-plane
    /// result cache uses to prove answer completeness. `None` means the
    /// node cannot prove an arc claim (and the caches simply learn
    /// nothing from its answers).
    fn predecessor_ref(&self) -> Option<NodeRef> {
        None
    }
    /// Known nodes ordered by clockwise ring distance from this node —
    /// replica placement targets (Chord's successor list).
    fn successor_list(&self) -> Vec<NodeRef>;
}

impl OverlayTable for RoutingTable {
    fn me_ref(&self) -> NodeRef {
        self.me()
    }
    fn decide(&self, key: ChordId) -> RouteDecision {
        self.route(key)
    }
    fn neighbors(&self) -> Vec<NodeRef> {
        self.known_nodes()
    }
    fn successor_list(&self) -> Vec<NodeRef> {
        self.successors().to_vec()
    }
    fn predecessor_ref(&self) -> Option<NodeRef> {
        self.predecessor()
    }
}

/// A view of a [`RoutingTable`] that routes *around* suspected-dead
/// nodes.
///
/// Constructed per-decision by a resilient node from its current
/// suspicion set; the underlying table is untouched, so a node cleared
/// of suspicion is immediately routable again. Decisions come from
/// [`RoutingTable::route_excluding`].
pub struct FailureAware<'a> {
    inner: &'a RoutingTable,
    dead: &'a std::collections::BTreeSet<u64>,
}

impl<'a> FailureAware<'a> {
    /// Wrap `inner`, treating every id in `dead` as unroutable.
    pub fn new(
        inner: &'a RoutingTable,
        dead: &'a std::collections::BTreeSet<u64>,
    ) -> FailureAware<'a> {
        FailureAware { inner, dead }
    }
}

impl OverlayTable for FailureAware<'_> {
    fn me_ref(&self) -> NodeRef {
        self.inner.me()
    }
    fn decide(&self, key: ChordId) -> RouteDecision {
        self.inner
            .route_excluding(key, |id| self.dead.contains(&id))
    }
    fn neighbors(&self) -> Vec<NodeRef> {
        self.inner
            .known_nodes()
            .into_iter()
            .filter(|n| !self.dead.contains(&n.id.0))
            .collect()
    }
    fn successor_list(&self) -> Vec<NodeRef> {
        self.inner
            .successors()
            .iter()
            .filter(|n| !self.dead.contains(&n.id.0))
            .copied()
            .collect()
    }
    fn predecessor_ref(&self) -> Option<NodeRef> {
        // The raw predecessor: the owned-arc claim is about ring
        // geometry, not liveness, and a suspected predecessor does not
        // change which keys this node stores.
        self.inner.predecessor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::OracleRing;
    use simnet::SimRng;

    #[test]
    fn failure_aware_avoids_dead_nodes() {
        use std::collections::BTreeSet;
        let mut rng = SimRng::new(9);
        let ring = OracleRing::with_random_ids(16, &mut rng);
        let tables = ring.build_all_tables(8, None, 8);
        use rand::RngCore;
        for trial in 0..50 {
            let key = ChordId(rng.next_u64());
            let owner = ring.owner_of(key);
            // Suspect the owner; every other node must still route the
            // key somewhere live.
            let dead: BTreeSet<u64> = [owner.id.0].into_iter().collect();
            for node in ring.nodes() {
                if node.id == owner.id {
                    continue;
                }
                let fa = FailureAware::new(&tables[node.addr.0], &dead);
                match fa.decide(key) {
                    RouteDecision::Local => {}
                    RouteDecision::Surrogate(n) | RouteDecision::Forward(n) => {
                        assert_ne!(n.id, owner.id, "trial {trial}: routed to dead owner");
                    }
                }
                assert!(fa.neighbors().iter().all(|n| n.id != owner.id));
            }
        }
    }

    #[test]
    fn failure_aware_empty_set_is_transparent() {
        use std::collections::BTreeSet;
        let mut rng = SimRng::new(5);
        let ring = OracleRing::with_random_ids(8, &mut rng);
        let table = ring.build_table(0, 8, None, 8);
        let dead = BTreeSet::new();
        let fa = FailureAware::new(&table, &dead);
        use rand::RngCore;
        for _ in 0..20 {
            let key = ChordId(rng.next_u64());
            assert_eq!(fa.decide(key), table.decide(key));
        }
        assert_eq!(fa.successor_list(), table.successor_list());
    }

    #[test]
    fn successor_list_orders_by_clockwise_distance() {
        let mut rng = SimRng::new(6);
        let ring = OracleRing::with_random_ids(12, &mut rng);
        let table = ring.build_table(0, 8, None, 8);
        let me = table.me_ref();
        let list = table.successor_list();
        assert!(!list.is_empty());
        for w in list.windows(2) {
            assert!(me.id.cw_dist(w[0].id) <= me.id.cw_dist(w[1].id));
        }
        // The first entry is the ring successor.
        let pos = ring.nodes().iter().position(|n| n.id == me.id).unwrap();
        let next = ring.next_of(pos);
        assert_eq!(list[0].id, next.id);
    }
}
