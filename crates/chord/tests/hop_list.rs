//! The next-hop list is a view of the table, not a second routing
//! structure: whatever the table holds and whoever is suspected dead,
//! routing over it decides exactly as a scan over every finger slot and
//! then the successor list does.

use chord::table::FINGER_ROWS;
use chord::{ChordId, NodeRef, OracleRing, RouteDecision, RoutingTable};
use proptest::prelude::*;
use simnet::{SimRng, Topology};

/// One change to a table, naming ring members by their sorted position:
/// `(kind, row, member)` sets finger `row` (kind 0: to the member; kind
/// 1: cleared), adds the member as a successor (kind 2) or removes it
/// from every slot (kind 3).
fn apply(t: &mut RoutingTable, ring: &OracleRing, (kind, row, member): (u8, usize, usize)) {
    let node = ring.nodes()[member % ring.len()];
    match kind {
        0 => t.set_finger(row, Some(node)),
        1 => t.set_finger(row, None),
        2 => t.add_successor(node),
        _ => t.remove(node),
    }
}

/// The routing rule written out over every slot: fingers in row order,
/// then successors, strict `<` on distance; the surrogate is the first
/// live successor.
fn reference(t: &RoutingTable, key: ChordId, dead: &[u64]) -> RouteDecision {
    if t.owns(key) {
        return RouteDecision::Local;
    }
    let me = t.me();
    let (mut best, mut best_dist) = (me, u64::MAX);
    let slots = (0..FINGER_ROWS).filter_map(|i| t.finger(i));
    for c in slots.chain(t.successors().iter().copied()) {
        if !dead.contains(&c.id.0) && c.id.in_open(me.id, key) && c.id.cw_dist(key) < best_dist {
            best_dist = c.id.cw_dist(key);
            best = c;
        }
    }
    if best.id != me.id {
        return RouteDecision::Forward(best);
    }
    match t.successors().iter().find(|s| !dead.contains(&s.id.0)) {
        Some(s) => RouteDecision::Surrogate(*s),
        None => RouteDecision::Local,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hop_list_routes_like_the_full_scan(
        seed in any::<u64>(),
        n in 1usize..48,
        n_successors in 1usize..=16,
        pns in any::<bool>(),
        ops in prop::collection::vec((0u8..4, 0..FINGER_ROWS, 0usize..64), 0..24),
        keys in prop::collection::vec(any::<u64>(), 16),
        dead_mask in any::<u64>(),
    ) {
        let ring = OracleRing::with_random_ids(n, &mut SimRng::new(seed));
        let topo = Topology::king_like(n, seed, 180.0);
        let i = (seed % n as u64) as usize;
        let mut t = ring.build_table(i, n_successors, pns.then_some(&topo), 8);
        for &op in &ops {
            apply(&mut t, &ring, op);
        }
        let dead: Vec<u64> = ring
            .nodes()
            .iter()
            .enumerate()
            .filter(|(j, _)| dead_mask >> (j % 64) & 1 == 1)
            .map(|(_, nd)| nd.id.0)
            .collect();
        for &k in &keys {
            let key = ChordId(k);
            prop_assert_eq!(t.route(key), reference(&t, key, &[]));
            prop_assert_eq!(
                t.route_excluding(key, |id| dead.contains(&id)),
                reference(&t, key, &dead)
            );
        }
        // Every known node once, by identifier, predecessor included.
        let mut known: Vec<NodeRef> = (0..FINGER_ROWS)
            .filter_map(|r| t.finger(r))
            .chain(t.successors().iter().copied())
            .chain(t.predecessor())
            .collect();
        known.sort_unstable_by_key(|nd| nd.id);
        known.dedup_by_key(|nd| nd.id);
        prop_assert_eq!(t.known_nodes(), known);
    }
}
