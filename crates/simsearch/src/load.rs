//! Dynamic load migration (paper §3.4).
//!
//! A node's load is the number of index entries it stores. Each round,
//! every node probes the load of its routing-table neighborhood out to
//! probe level `P_l`; a node whose load exceeds the neighborhood average
//! by the threshold factor `δ` recruits the lightest probed node to
//! *leave* (handing its entries to its successor) and *re-join* with an
//! identifier at the heavy node's split point — the median ring key of
//! its entries — taking over half of them.
//!
//! Differences from the paper's in-protocol description, both chosen to
//! keep experiments deterministic and are noted in DESIGN.md:
//!
//! * migration runs between simulation phases (after publication, before
//!   queries) rather than on piggybacked runtime probes — the measured
//!   effect (final load distribution and the routing cost on the skewed
//!   ring, figures 3/4/6) is the same;
//! * after each round the membership change is applied globally: ring
//!   rebuilt, routing tables re-stabilized, entries re-assigned to their
//!   owners. Entry conservation is asserted.

use chord::{ChordId, NodeRef, OracleRing};
use simnet::{CounterId, HistogramId, SimRng, Topology};

use crate::node::SearchNode;
use crate::store::Entry;

/// Parameters of the dynamic load-migration mechanism.
#[derive(Clone, Copy, Debug)]
pub struct LoadBalanceConfig {
    /// Threshold factor `δ`: a node is heavy when
    /// `load > avg_neighbors * (1 + δ)`. The paper's experiments use 0.
    pub delta: f64,
    /// Probe level `P_l`: how many routing-table hops the load probe
    /// explores. The paper's experiments use 4.
    pub probe_level: u32,
    /// Safety cap on migration rounds.
    pub max_rounds: usize,
}

impl Default for LoadBalanceConfig {
    fn default() -> Self {
        LoadBalanceConfig {
            delta: 0.0,
            probe_level: 4,
            max_rounds: 8,
        }
    }
}

/// What the balancer did.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBalanceReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Total leave-and-rejoin migrations performed.
    pub migrations: usize,
}

/// Join-time balancing (paper §3.4, first mechanism): "when a new node
/// joins the system, the join request is forwarded toward a heavily
/// loaded node, which will divide its key range and assign one half to
/// the new node."
///
/// Given the ring keys of the entries to be hosted, place `n_nodes`
/// identifiers by admitting nodes one at a time: the first gets a random
/// id; every later joiner splits the key range of the currently
/// heaviest node at the median of its entries. Falls back to a random
/// id when the heaviest range cannot be divided (single-key pile-up).
///
/// The arc of id `b` with predecessor `a` is `(a, b]`, wrapping. A join
/// changes only the arc it lands in, so each join counts the joiner's
/// half of that arc from the sorted keys instead of recounting the ring.
pub fn load_aware_ids(entry_keys: &[u64], n_nodes: usize, rng: &mut SimRng) -> Vec<u64> {
    use rand::RngCore;
    assert!(n_nodes >= 1);
    let mut keys = entry_keys.to_vec();
    keys.sort_unstable();
    // Positions (modulo `keys.len()`) of the keys in arc `(a, b]`; the
    // whole ring when `a == b`.
    let arc = |a: u64, b: u64| {
        let (lo, hi) = (
            keys.partition_point(|&k| k <= a),
            keys.partition_point(|&k| k <= b),
        );
        lo..if a < b { hi } else { keys.len() + hi }
    };
    // Sorted ids, each with its arc's entry count.
    let mut ids: Vec<u64> = vec![rng.next_u64()];
    let mut counts = vec![keys.len()];
    let mut last = 0;
    while ids.len() < n_nodes {
        let (heavy, _) = counts
            .iter()
            .enumerate()
            .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
            .expect("ids holds at least the bootstrap id, so counts is never empty");
        // Split the heavy arc in offset space from its start (the
        // predecessor id + 1): its keys above the start, then those
        // wrapped past zero, are in offset order.
        let below = ids[(heavy + ids.len() - 1) % ids.len()];
        let start = below.wrapping_add(1);
        let offsets: Vec<u64> = arc(below, ids[heavy])
            .map(|i| keys[i % keys.len()].wrapping_sub(start))
            .collect();
        let new_id = median_split(&offsets)
            .map(|m| start.wrapping_add(m))
            .filter(|c| ids.binary_search(c).is_err());
        let id = new_id.unwrap_or_else(|| {
            let mut id = rng.next_u64();
            while ids.binary_search(&id).is_ok() {
                id = rng.next_u64();
            }
            id
        });
        // The joiner takes the low part of the arc it lands in.
        last = ids.partition_point(|&x| x < id);
        let taken = arc(ids[(last + ids.len() - 1) % ids.len()], id).len();
        counts[last % ids.len()] -= taken;
        ids.insert(last, id);
        counts.insert(last, taken);
    }
    // Every id but the last joiner's in ascending order, then the last
    // joiner's: callers pair ids with agent addresses positionally.
    let id = ids.remove(last);
    ids.push(id);
    ids
}

/// The set of node addresses within `level` routing-table hops of
/// `start` (excluding `start` itself).
fn probe_set(nodes: &[SearchNode], start: usize, level: u32) -> Vec<usize> {
    let mut seen = vec![false; nodes.len()];
    seen[start] = true;
    let mut frontier = vec![start];
    let mut out = Vec::new();
    for _ in 0..level {
        let mut next = Vec::new();
        for &addr in &frontier {
            for n in nodes[addr].table.known_nodes() {
                let a = n.addr.0;
                if !seen[a] {
                    seen[a] = true;
                    out.push(a);
                    next.push(a);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out
}

/// The one §3.4 split rule, shared by join-time splitting and
/// leave-and-rejoin migration: the median of a heavy range's sorted key
/// offsets. Entries exactly at the split go to the lower half, so a
/// median equal to the largest offset walks down to the previous
/// distinct one and the upper half stays non-empty. `None` when the
/// range cannot be divided (fewer than 2 entries, or every entry hashed
/// to a single key — the paper's greedy/TREC pathology).
fn median_split(offsets: &[u64]) -> Option<u64> {
    let (&first, &last) = (offsets.first()?, offsets.last()?);
    if first == last {
        return None;
    }
    let m = offsets[(offsets.len() - 1) / 2];
    Some(if m == last {
        offsets[offsets.partition_point(|&o| o < m) - 1]
    } else {
        m
    })
}

/// The split identifier for a heavy node: [`median_split`] over its
/// entries' ring keys in offset space from the start of its arc.
fn split_point(node: &SearchNode, arc_start: u64) -> Option<u64> {
    let mut offsets: Vec<u64> = node
        .indexes
        .iter()
        .flat_map(|ix| ix.store.entries())
        .map(|e| e.ring_key.wrapping_sub(arc_start))
        .collect();
    offsets.sort_unstable();
    median_split(&offsets).map(|m| arc_start.wrapping_add(m))
}

/// Place a batch of index `index`'s entries as primaries on the owners
/// their ring keys map to (§3.2), in batch order among equal keys. The
/// one placement pass: build, re-index and migration all publish
/// through it.
pub(crate) fn place(
    ring: &OracleRing,
    nodes: &mut [SearchNode],
    index: usize,
    entries: impl IntoIterator<Item = Entry>,
) {
    let mut per_addr: Vec<Vec<Entry>> = vec![Vec::new(); nodes.len()];
    for e in entries {
        per_addr[ring.owner_of(ChordId(e.ring_key)).addr.0].push(e);
    }
    for (node, batch) in nodes.iter_mut().zip(per_addr) {
        node.indexes[index].store.extend(batch);
    }
}

/// Redistribute every entry to the owner its ring key maps to under the
/// (possibly new) ring. Returns the total entry count (for conservation
/// checks).
pub fn redistribute(ring: &OracleRing, nodes: &mut [SearchNode]) -> usize {
    let n_indexes = nodes.first().map(|n| n.indexes.len()).unwrap_or(0);
    let mut total = 0;
    for ix in 0..n_indexes {
        let all: Vec<Entry> = nodes
            .iter_mut()
            .flat_map(|node| node.indexes[ix].store.take_all())
            .collect();
        total += all.len();
        place(ring, nodes, ix, all);
    }
    total
}

/// Rebuild stabilized routing tables for the (new) ring into the nodes.
pub fn rebuild_tables(
    ring: &OracleRing,
    nodes: &mut [SearchNode],
    n_successors: usize,
    topo: Option<&Topology>,
    pns_candidates: usize,
) {
    for t in ring.build_all_tables(n_successors, topo, pns_candidates) {
        let addr = t.me().addr.0;
        nodes[addr].table = t;
    }
}

/// Run dynamic load migration to convergence (or `max_rounds`). With a
/// `registry`, also record `lb.rounds`, `lb.migrations` and a per-round
/// `lb.migrations_per_round` histogram into it. Every choice is
/// deterministic (heaviest first, ties by address), so no randomness is
/// drawn.
pub fn balance(
    ring: &mut OracleRing,
    nodes: &mut [SearchNode],
    cfg: &LoadBalanceConfig,
    topo: &Topology,
    n_successors: usize,
    pns_candidates: usize,
    mut registry: Option<&mut simnet::Registry>,
) -> LoadBalanceReport {
    let mut report = LoadBalanceReport::default();
    let before: usize = nodes.iter().map(|n| n.load()).sum();
    for _round in 0..cfg.max_rounds {
        report.rounds += 1;
        // Current ids by address.
        let mut id_of: Vec<u64> = vec![0; nodes.len()];
        for nd in ring.nodes() {
            id_of[nd.addr.0] = nd.id.0;
        }
        let mut loads: Vec<usize> = nodes.iter().map(|n| n.load()).collect();
        let mut new_ids = id_of.clone();
        let mut moved_this_round = 0usize;
        let mut migrated: Vec<bool> = vec![false; nodes.len()];

        // Heaviest nodes act first (deterministic tie-break by address).
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&a| (std::cmp::Reverse(loads[a]), a));
        for h in order {
            if migrated[h] || loads[h] < 2 {
                continue;
            }
            let probes = probe_set(nodes, h, cfg.probe_level);
            let candidates: Vec<usize> = probes.into_iter().filter(|&a| !migrated[a]).collect();
            if candidates.is_empty() {
                continue;
            }
            let avg =
                candidates.iter().map(|&a| loads[a] as f64).sum::<f64>() / candidates.len() as f64;
            if (loads[h] as f64) <= avg * (1.0 + cfg.delta) {
                continue;
            }
            // Lightest probed node becomes the helper; only worth it if
            // taking half the heavy node's load is a strict improvement
            // for the maximum of the pair.
            let &victim = candidates
                .iter()
                .min_by_key(|&&a| (loads[a], a))
                .expect("candidates checked non-empty above");
            if victim == h || loads[victim] * 2 >= loads[h] {
                continue;
            }
            // The victim's entries are handed to its successor when it
            // leaves. If that handoff would make the successor the new
            // hot spot, the migration is a net loss — it shifts the
            // peak instead of removing it and can cascade for rounds
            // (each round's new peak recruiting another victim). Only
            // migrate when every affected node ends below the current
            // peak. (When the successor IS the heavy node the handoff
            // is folded into the split itself and the earlier
            // half-load guard already bounds it.)
            let handoff_succ = ring.successor_of(ChordId(id_of[victim].wrapping_add(1)));
            if handoff_succ.addr.0 != victim
                && handoff_succ.addr.0 != h
                && loads[handoff_succ.addr.0] + loads[victim] >= loads[h]
            {
                continue;
            }
            let pred = ring.predecessor_of(ChordId(id_of[h]));
            let arc_start = if pred.addr.0 == h {
                // Single-node ring: arc is the whole circle.
                id_of[h].wrapping_add(1)
            } else {
                id_of[pred.addr.0].wrapping_add(1)
            };
            let Some(split) = split_point(&nodes[h], arc_start) else {
                continue; // indivisible hotspot (single-key pile-up)
            };
            // The victim leaves and rejoins at the split point. Collision
            // avoidance: bump until the id is free.
            let mut id = split;
            let taken: std::collections::HashSet<u64> = new_ids
                .iter()
                .enumerate()
                .filter(|&(a, _)| a != victim)
                .map(|(_, &v)| v)
                .collect();
            while taken.contains(&id) {
                id = id.wrapping_add(1);
            }
            new_ids[victim] = id;
            migrated[victim] = true;
            migrated[h] = true;
            moved_this_round += 1;
            // Approximate load bookkeeping for the rest of this round;
            // exact loads are restored by the redistribution below.
            let succ = ring.successor_of(ChordId(id_of[victim].wrapping_add(1)));
            if succ.addr.0 != victim {
                loads[succ.addr.0] += loads[victim];
            }
            let moved = loads[h] / 2;
            loads[victim] = moved;
            loads[h] -= moved;
        }

        if let Some(reg) = registry.as_deref_mut() {
            reg.incr_id(CounterId::LbRounds, 1);
            reg.observe_id(HistogramId::LbMigrationsPerRound, moved_this_round as u64);
        }
        if moved_this_round == 0 {
            break;
        }
        report.migrations += moved_this_round;
        if let Some(reg) = registry.as_deref_mut() {
            reg.incr_id(CounterId::LbMigrations, moved_this_round as u64);
        }
        *ring = OracleRing::new(
            new_ids
                .iter()
                .enumerate()
                .map(|(addr, &id)| NodeRef::new(id, addr))
                .collect(),
        );
        let after = redistribute(ring, nodes);
        assert_eq!(before, after, "load migration lost or duplicated entries");
        rebuild_tables(ring, nodes, n_successors, Some(topo), pns_candidates);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::DistanceOracle;
    use crate::node::IndexState;
    use crate::store::{Entry, Store};
    use lph::{Grid, Rect, Rotation};
    use metric::ObjectId;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn make_world(n: usize, entry_keys: &[u64]) -> (OracleRing, Vec<SearchNode>, Topology) {
        let mut rng = SimRng::new(99);
        let ring = OracleRing::with_random_ids(n, &mut rng);
        let topo = Topology::king_like(n, 3, 180.0);
        let tables = ring.build_all_tables(8, None, 8);
        let grid = Arc::new(Grid::new(Rect::cube(1, 0.0, 1.0), 16));
        let oracle: DistanceOracle = Arc::new(|_q, _o: ObjectId| 0.0);
        let mut nodes: Vec<SearchNode> = tables
            .into_iter()
            .map(|t| {
                SearchNode::new(
                    t,
                    vec![IndexState {
                        grid: Arc::clone(&grid),
                        rotation: Rotation::IDENTITY,
                        store: Store::new(),
                    }],
                    Arc::clone(&oracle),
                    10,
                    None,
                )
            })
            .collect();
        for (i, &k) in entry_keys.iter().enumerate() {
            let owner = ring.owner_of(ChordId(k));
            nodes[owner.addr.0].indexes[0].store.insert(Entry {
                ring_key: k,
                obj: ObjectId(i as u32),
                point: vec![0.5].into_boxed_slice(),
            });
        }
        (ring, nodes, topo)
    }

    #[test]
    fn skewed_load_gets_flattened() {
        // 2000 entries crammed into a narrow key band: one or two nodes
        // hold everything before balancing.
        let keys: Vec<u64> = (0..2000u64).map(|i| (1u64 << 40) + i * 1000).collect();
        let (mut ring, mut nodes, topo) = make_world(32, &keys);
        let max_before = nodes.iter().map(|n| n.load()).max().unwrap();
        assert!(max_before > 500, "setup must be skewed, got {max_before}");
        let cfg = LoadBalanceConfig::default();
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert!(report.migrations > 0);
        let max_after = nodes.iter().map(|n| n.load()).max().unwrap();
        let total: usize = nodes.iter().map(|n| n.load()).sum();
        assert_eq!(total, 2000, "entries conserved");
        assert!(
            max_after * 4 < max_before,
            "max load should drop: {max_before} -> {max_after}"
        );
    }

    #[test]
    fn balance_records_telemetry() {
        let keys: Vec<u64> = (0..2000u64).map(|i| (1u64 << 40) + i * 1000).collect();
        let (mut ring, mut nodes, topo) = make_world(32, &keys);
        let cfg = LoadBalanceConfig::default();
        let mut reg = simnet::Registry::new();
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, Some(&mut reg));
        assert_eq!(reg.counter("lb.rounds") as usize, report.rounds);
        assert_eq!(reg.counter("lb.migrations") as usize, report.migrations);
        let h = reg.histogram("lb.migrations_per_round").unwrap();
        assert_eq!(h.count() as usize, report.rounds);
        assert_eq!(h.sum() as usize, report.migrations);
    }

    #[test]
    fn single_key_pileup_cannot_be_divided() {
        // Every entry hashes to one key — the paper's greedy/TREC
        // pathology: migration must refuse to split it.
        let keys: Vec<u64> = vec![12345; 500];
        let (mut ring, mut nodes, topo) = make_world(16, &keys);
        let cfg = LoadBalanceConfig::default();
        let _ = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        let max_after = nodes.iter().map(|n| n.load()).max().unwrap();
        assert_eq!(max_after, 500, "single-key load is indivisible");
        let total: usize = nodes.iter().map(|n| n.load()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn uniform_load_is_left_alone_under_positive_delta() {
        // Perfectly spreadable uniform keys with a generous threshold:
        // few or no migrations needed after the first smoothing.
        let keys: Vec<u64> = (0..1024u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let (mut ring, mut nodes, topo) = make_world(64, &keys);
        let cfg = LoadBalanceConfig {
            delta: 4.0,
            ..LoadBalanceConfig::default()
        };
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        let total: usize = nodes.iter().map(|n| n.load()).sum();
        assert_eq!(total, 1024);
        assert!(
            report.migrations <= 4,
            "high delta should suppress migration, got {}",
            report.migrations
        );
    }

    #[test]
    fn load_aware_ids_flatten_skewed_keys() {
        // 2000 keys in a narrow band: random ids put almost everything
        // on one node; load-aware admission splits the hot range.
        let keys: Vec<u64> = (0..2000u64).map(|i| (1u64 << 40) + i * 1000).collect();
        let count_max = |ids: &[u64]| {
            let mut sorted = ids.to_vec();
            sorted.sort_unstable();
            let mut counts = vec![0usize; sorted.len()];
            for &k in &keys {
                let idx = sorted.partition_point(|&id| id < k) % sorted.len();
                counts[idx] += 1;
            }
            counts.into_iter().max().unwrap()
        };
        let mut rng = SimRng::new(12);
        let aware = load_aware_ids(&keys, 32, &mut rng);
        assert_eq!(aware.len(), 32);
        let mut dedup = aware.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 32, "ids must be distinct");
        let mut rng2 = SimRng::new(12);
        let random = OracleRing::with_random_ids(32, &mut rng2)
            .nodes()
            .iter()
            .map(|n| n.id.0)
            .collect::<Vec<_>>();
        let aware_max = count_max(&aware);
        let random_max = count_max(&random);
        assert!(
            aware_max * 4 <= random_max,
            "load-aware {aware_max} should be far below random {random_max}"
        );
        // Near-perfect split: 2000 entries / 32 nodes ≈ 63.
        assert!(aware_max <= 2000 / 32 * 3, "max arc load {aware_max}");
    }

    #[test]
    fn load_aware_ids_survive_single_key_pileup() {
        let keys = vec![77u64; 500];
        let mut rng = SimRng::new(3);
        let ids = load_aware_ids(&keys, 8, &mut rng);
        assert_eq!(ids.len(), 8);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
    }

    /// The join-at-a-time rule written out directly: recount every key
    /// against every arc for each joiner. [`load_aware_ids`] must
    /// return exactly its ids, in its order.
    fn load_aware_ids_reference(entry_keys: &[u64], n_nodes: usize, rng: &mut SimRng) -> Vec<u64> {
        use rand::RngCore;
        let mut keys = entry_keys.to_vec();
        keys.sort_unstable();
        let mut ids: Vec<u64> = vec![rng.next_u64()];
        let mut taken: std::collections::HashSet<u64> = ids.iter().copied().collect();
        while ids.len() < n_nodes {
            ids.sort_unstable();
            let mut counts = vec![0usize; ids.len()];
            for &k in &keys {
                let idx = ids.partition_point(|&id| id < k) % ids.len();
                counts[idx] += 1;
            }
            let (heavy, _) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                .unwrap();
            let start = ids[(heavy + ids.len() - 1) % ids.len()].wrapping_add(1);
            let mut offsets: Vec<u64> = keys
                .iter()
                .filter(|&&k| ids.partition_point(|&id| id < k) % ids.len() == heavy)
                .map(|&k| k.wrapping_sub(start))
                .collect();
            offsets.sort_unstable();
            let new_id = median_split(&offsets)
                .map(|m| start.wrapping_add(m))
                .filter(|c| !taken.contains(c));
            let id = new_id.unwrap_or_else(|| {
                let mut id = rng.next_u64();
                while taken.contains(&id) {
                    id = rng.next_u64();
                }
                id
            });
            taken.insert(id);
            ids.push(id);
        }
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn load_aware_ids_match_the_reference(
            seed in 0u64..1_000,
            n_nodes in 1usize..40,
            base in any::<u64>(),
            spread_bits in 0u32..64,
            raw in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            // Keys clustered in a band of 2^spread_bits from `base`
            // (wrapping past zero when the band crosses it), so arcs
            // pile up, repeat keys and wrap.
            let mask = if spread_bits == 0 { 0 } else { u64::MAX >> (64 - spread_bits) };
            let keys: Vec<u64> = raw.iter().map(|&r| base.wrapping_add(r & mask)).collect();
            let got = load_aware_ids(&keys, n_nodes, &mut SimRng::new(seed));
            let want = load_aware_ids_reference(&keys, n_nodes, &mut SimRng::new(seed));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn probe_set_respects_level() {
        let keys: Vec<u64> = (0..100u64).map(|i| i << 32).collect();
        let (_ring, nodes, _topo) = make_world(40, &keys);
        let l1 = probe_set(&nodes, 0, 1);
        let l2 = probe_set(&nodes, 0, 2);
        assert!(!l1.is_empty());
        assert!(l2.len() >= l1.len());
        assert!(!l1.contains(&0));
        // Level-1 probes are exactly the routing table's known nodes.
        let known: Vec<usize> = nodes[0]
            .table
            .known_nodes()
            .iter()
            .map(|n| n.addr.0)
            .collect();
        let mut l1s = l1.clone();
        l1s.sort_unstable();
        let mut ks = known;
        ks.sort_unstable();
        ks.dedup();
        assert_eq!(l1s, ks);
    }

    #[test]
    fn redistribute_is_conservative_and_correct() {
        let keys: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(0xABCDEF123)).collect();
        let (ring, mut nodes, _topo) = make_world(16, &keys);
        let total = redistribute(&ring, &mut nodes);
        assert_eq!(total, 300);
        // Every entry sits on its owner.
        for node in &nodes {
            for e in node.indexes[0].store.entries() {
                let owner = ring.owner_of(ChordId(e.ring_key));
                assert_eq!(owner.id, node.table.me().id);
            }
        }
    }

    /// A world with an exact, hand-placed load per node: `loads[slot]`
    /// entries land on the node at sorted-ring position `slot` (keys
    /// just below each node's own id — random 64-bit ids leave arcs
    /// wide enough that the keys stay in-arc, which the assertions at
    /// the end re-check).
    fn world_with_loads(loads: &[usize]) -> (OracleRing, Vec<SearchNode>, Topology) {
        let n = loads.len();
        let mut rng = SimRng::new(424_242);
        let ring = OracleRing::with_random_ids(n, &mut rng);
        let mut order: Vec<NodeRef> = ring.nodes().to_vec();
        order.sort_by_key(|nd| nd.id.0);
        let mut keys = Vec::new();
        for (slot, nd) in order.iter().enumerate() {
            for j in 0..loads[slot] {
                keys.push(nd.id.0 - j as u64);
            }
        }
        let topo2 = Topology::king_like(n, 3, 180.0);
        let tables = ring.build_all_tables(8, None, 8);
        let grid = Arc::new(Grid::new(Rect::cube(1, 0.0, 1.0), 16));
        let oracle: DistanceOracle = Arc::new(|_q, _o: ObjectId| 0.0);
        let mut nodes2: Vec<SearchNode> = tables
            .into_iter()
            .map(|t| {
                SearchNode::new(
                    t,
                    vec![IndexState {
                        grid: Arc::clone(&grid),
                        rotation: Rotation::IDENTITY,
                        store: Store::new(),
                    }],
                    Arc::clone(&oracle),
                    10,
                    None,
                )
            })
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            let owner = ring.owner_of(ChordId(k));
            nodes2[owner.addr.0].indexes[0].store.insert(Entry {
                ring_key: k,
                obj: ObjectId(i as u32),
                point: vec![0.5].into_boxed_slice(),
            });
        }
        for (slot, nd) in order.iter().enumerate() {
            assert_eq!(
                nodes2[nd.addr.0].load(),
                loads[slot],
                "arc too narrow for hand-placed load at slot {slot}"
            );
        }
        (ring, nodes2, topo2)
    }

    #[test]
    fn probe_level_zero_never_triggers() {
        // With no probe reach there is no neighborhood to compare
        // against, so even an extreme hot spot must stay put.
        let (mut ring, mut nodes, topo) = world_with_loads(&[100, 0, 0, 0]);
        let cfg = LoadBalanceConfig {
            probe_level: 0,
            ..LoadBalanceConfig::default()
        };
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert_eq!(report.migrations, 0, "probe level 0 must never migrate");
        assert_eq!(nodes.iter().map(|n| n.load()).max().unwrap(), 100);
    }

    #[test]
    fn exact_threshold_load_does_not_trigger() {
        // Heavy node at EXACTLY avg * (1 + δ): the paper's trigger is
        // strict (`load > avg (1 + δ)`), so nothing may move; one unit
        // of slack under the threshold must migrate.
        // 4 nodes, level-4 probes reach everyone: avg of the others is
        // 10, so δ = 2.0 puts the threshold exactly at 30.
        let (mut ring, mut nodes, topo) = world_with_loads(&[30, 10, 10, 10]);
        let cfg = LoadBalanceConfig {
            delta: 2.0,
            ..LoadBalanceConfig::default()
        };
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert_eq!(report.migrations, 0, "load == avg*(1+δ) must not trigger");

        let (mut ring, mut nodes, topo) = world_with_loads(&[30, 10, 10, 10]);
        let cfg = LoadBalanceConfig {
            delta: 1.9,
            ..LoadBalanceConfig::default()
        };
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert!(report.migrations > 0, "load above avg*(1+δ) must trigger");
    }

    #[test]
    fn victim_with_half_the_heavy_load_is_not_recruited() {
        // The only victims on offer already hold half the heavy node's
        // load: splitting with them cannot strictly improve the peak.
        let (mut ring, mut nodes, topo) = world_with_loads(&[40, 25, 25, 25]);
        let cfg = LoadBalanceConfig::default(); // δ = 0: 40 > 25 triggers
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert_eq!(
            report.migrations, 0,
            "a victim holding >= half the heavy load must be refused"
        );
        assert_eq!(nodes.iter().map(|n| n.load()).max().unwrap(), 40);
    }

    #[test]
    fn handoff_that_creates_a_new_peak_is_refused() {
        // The trigger bug surfaced by the flash-crowd scenario: the
        // lightest probed node (8) is a fine split helper by the
        // half-load guard alone, but leaving hands its 8 entries to its
        // successor (35), creating a NEW 43-entry peak above the
        // original 40 — and cascading for rounds. The handoff guard
        // must refuse the migration outright.
        // Sorted-ring layout: [victim 8, its successor 35, heavy 40,
        // 20, 20]; δ = 0.8 puts only the 40-node over threshold
        // (its neighborhood average is 20.75 → threshold 37.35).
        let (mut ring, mut nodes, topo) = world_with_loads(&[8, 35, 40, 20, 20]);
        let cfg = LoadBalanceConfig {
            delta: 0.8,
            ..LoadBalanceConfig::default()
        };
        let report = balance(&mut ring, &mut nodes, &cfg, &topo, 8, 8, None);
        assert_eq!(
            report.migrations, 0,
            "migration that shifts the peak to the victim's successor must be refused"
        );
        assert_eq!(nodes.iter().map(|n| n.load()).max().unwrap(), 40);
        let total: usize = nodes.iter().map(|n| n.load()).sum();
        assert_eq!(total, 123);
    }

    #[test]
    fn split_point_balances_halves() {
        let keys: Vec<u64> = (0..101u64).map(|i| 1000 + i * 10).collect();
        let (ring, nodes, _topo) = make_world(1, &keys);
        let me = ring.nodes()[0];
        let arc_start = me.id.0.wrapping_add(1); // single node: whole circle
        let split = split_point(&nodes[0], arc_start).unwrap();
        let lower = keys
            .iter()
            .filter(|&&k| k.wrapping_sub(arc_start) <= split.wrapping_sub(arc_start))
            .count();
        assert!(
            (lower as i64 - 50).abs() <= 1,
            "split should halve: lower={lower}"
        );
    }

    #[test]
    fn median_split_keeps_both_halves_non_empty() {
        assert_eq!(median_split(&[]), None);
        assert_eq!(median_split(&[7]), None);
        assert_eq!(
            median_split(&[7, 7, 7]),
            None,
            "a single key is indivisible"
        );
        assert_eq!(median_split(&[1, 2, 3, 4]), Some(2));
        assert_eq!(median_split(&[1, 2, 3, 4, 5]), Some(3));
        // The median equals the largest offset: walk down to the
        // previous distinct one, so the upper half keeps the 9s.
        assert_eq!(median_split(&[1, 9, 9]), Some(1));
        assert_eq!(median_split(&[1, 1, 4, 9, 9, 9, 9]), Some(4));
        assert_eq!(median_split(&[1, 1, 9, 9, 9, 9, 9]), Some(1));
    }
}
