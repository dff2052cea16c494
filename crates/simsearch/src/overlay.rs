//! Overlay abstraction: the index layer (Algorithms 3–5) needs exactly
//! two things from its DHT — *next-hop routing toward a key* and *ring
//! ownership arcs*. [`OverlayTable`] captures that interface; Chord's
//! [`RoutingTable`] (finger table + successor list, the paper's
//! evaluation platform) is the substrate, and [`FailureAware`] is a
//! view over it.
//!
//! Both route *owner first*: a key whose owner the successor list names
//! goes straight to that owner as its surrogate; any other key takes
//! Chord's closest-preceding hop (DESIGN.md §11, "One hop to a listed
//! owner"). Chord's own lookups keep [`RoutingTable::route`]. Routing,
//! refinement and publishing all take their next hop from
//! [`OverlayTable::next_hop`], always over a [`FailureAware`] view: its
//! suspicion set is empty unless resilience is on, and an empty set
//! decides exactly as the bare table does.

use chord::{ChordId, NodeRef, RouteDecision, RoutingTable};
use simnet::AgentId;

/// The routing interface the index layer programs against.
pub trait OverlayTable {
    /// This node's identity.
    fn me_ref(&self) -> NodeRef;
    /// The routing decision for a key: `Local` when this node owns it,
    /// `Surrogate(owner)` when the successor list names its owner, else
    /// Chord's decision.
    fn decide(&self, key: ChordId) -> RouteDecision;
    /// The paper's `nexthop` (footnote 4), the one next-hop rule of the
    /// index layer: `None` to handle the key here — this node owns it,
    /// or the table names this node itself (a stale entry, or every
    /// other node suspected) — else `Some((to, owner))`, the address to
    /// send to and whether `to` owns the key. One [`Self::decide`] call.
    fn next_hop(&self, key: ChordId) -> Option<(AgentId, bool)> {
        let (to, owner) = match self.decide(key) {
            RouteDecision::Local => return None,
            RouteDecision::Surrogate(s) => (s.addr, true),
            RouteDecision::Forward(n) => (n.addr, false),
        };
        (to != self.me_ref().addr).then_some((to, owner))
    }
}

impl OverlayTable for RoutingTable {
    fn me_ref(&self) -> NodeRef {
        self.me()
    }
    fn decide(&self, key: ChordId) -> RouteDecision {
        owner_first(self, key, |_| false)
    }
}

/// The owner-first rule over `table`, skipping the nodes `is_dead`
/// reports.
fn owner_first(table: &RoutingTable, key: ChordId, is_dead: impl Fn(u64) -> bool) -> RouteDecision {
    if table.owns(key) {
        return RouteDecision::Local;
    }
    match table.listed_owner(key, &is_dead) {
        Some(owner) => RouteDecision::Surrogate(owner),
        None => table.route_excluding(key, is_dead),
    }
}

/// A view of a [`RoutingTable`] that routes *around* suspected-dead
/// nodes.
///
/// Constructed per-decision by a resilient node from its current
/// suspicion set; the underlying table is untouched, so a node cleared
/// of suspicion is immediately routable again. A dead listed owner's
/// range goes to the next live successor; other keys take
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
        owner_first(self.inner, key, |id| self.dead.contains(&id))
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
    }
}
