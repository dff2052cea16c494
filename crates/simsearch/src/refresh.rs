//! Online maintenance: re-indexing under new landmarks and on-demand
//! re-balancing — the paper's §6 "dynamic datasets" direction:
//!
//! > "New landmark sets can be periodically generated and evaluated. If
//! > the new landmark set outperforms the current one according to some
//! > threshold, the new landmarks will be disseminated to the nodes in
//! > the system. Indices will be recalculated and migrated to new nodes
//! > accordingly."
//!
//! The evaluation half lives in [`landmark::quality`]; this module
//! provides the recalculate-and-migrate half on a running
//! [`SearchSystem`], plus on-demand dynamic load migration for datasets
//! whose distribution drifted after build time.

use chord::ChordId;
use lph::{Grid, Rect};
use metric::ObjectId;
use simnet::SimRng;
use std::sync::Arc;

use crate::load::{self, LoadBalanceConfig, LoadBalanceReport};
use crate::store::Entry;
use crate::system::{publish_entry, SearchSystem};

/// What a re-index did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReindexReport {
    /// Entries published under the new mapping.
    pub published: usize,
    /// Entries whose owning node changed relative to the old mapping.
    pub migrated: usize,
}

impl SearchSystem {
    /// Replace index `index` wholesale: new per-dimension boundary, new
    /// mapped points (the dataset may have grown or shrunk — `ObjectId`s
    /// are re-assigned as positions of `points`). Entries are re-hashed
    /// and migrated to their new owners; the rotation offset is kept.
    ///
    /// This is the "indices recalculated and migrated" step of a
    /// landmark refresh; pair it with [`landmark::should_refresh`] for
    /// the decision and re-run queries with an oracle matching the new
    /// object set.
    pub fn reindex(
        &mut self,
        index: usize,
        boundary: &[(f64, f64)],
        points: &[Vec<f64>],
    ) -> ReindexReport {
        let lo: Vec<f64> = boundary.iter().map(|&(l, _)| l).collect();
        let hi: Vec<f64> = boundary.iter().map(|&(_, h)| h).collect();
        let grid = Arc::new(Grid::new(Rect::new(lo, hi), self.cfg.depth));
        let rot = self.rotations[index];

        // Record old ownership for the migration count, then drop the
        // old entries.
        let mut old_owner: std::collections::HashMap<ObjectId, usize> =
            std::collections::HashMap::new();
        let (_, nodes) = self.sim.topology_and_agents_mut();
        for (addr, node) in nodes.iter_mut().enumerate() {
            node.indexes[index].grid = Arc::clone(&grid);
            for e in node.indexes[index].store.take_all() {
                old_owner.insert(e.obj, addr);
            }
        }

        // Publish the new mapping.
        let mut per_addr: Vec<Vec<Entry>> = vec![Vec::new(); self.cfg.n_nodes];
        let mut migrated = 0usize;
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.len(), grid.dims(), "point {i} has wrong dimensionality");
            let entry = publish_entry(&grid, rot, ObjectId(i as u32), p);
            let owner = self.ring.owner_of(ChordId(entry.ring_key));
            if old_owner.get(&entry.obj).copied() != Some(owner.addr.0) {
                migrated += 1;
            }
            per_addr[owner.addr.0].push(entry);
        }
        let (_, nodes) = self.sim.topology_and_agents_mut();
        for (addr, entries) in per_addr.into_iter().enumerate() {
            nodes[addr].indexes[index].store.extend(entries);
        }
        self.grids[index] = grid;
        // Ownership moved wholesale: old replica copies now shadow the
        // wrong owners. Recompute placement from the new primaries.
        self.re_replicate(index);
        ReindexReport {
            published: points.len(),
            migrated,
        }
    }

    /// Recompute replica placement for one index from the current
    /// primaries and ring membership: every owner's entries are copied to
    /// its `replication - 1` ring successors, and all previously held
    /// replicas are dropped first. No-op (returning 0) outside resilient
    /// mode. Call after any operation that moves primaries or ring
    /// identifiers — re-indexing, load migration — since ownership
    /// changes strand old copies on the wrong successors.
    pub fn re_replicate(&mut self, index: usize) -> usize {
        let replication = match &self.cfg.resilience {
            Some(rc) if rc.replication > 1 => rc.replication,
            _ => return 0,
        };
        let ring_nodes: Vec<chord::NodeRef> = self.ring.nodes().to_vec();
        let n_ring = ring_nodes.len();
        let (_, nodes) = self.sim.topology_and_agents_mut();
        // Phase 1 (read-only): collect copies per target address.
        let mut copies: Vec<Vec<(u64, Entry)>> = vec![Vec::new(); nodes.len()];
        for (pos, owner) in ring_nodes.iter().enumerate() {
            let store = &nodes[owner.addr.0].indexes[index].store;
            if store.is_empty() {
                continue;
            }
            for j in 1..replication {
                let tgt = ring_nodes[(pos + j) % n_ring];
                if tgt.addr == owner.addr {
                    break; // wrapped all the way around
                }
                for e in store.entries() {
                    copies[tgt.addr.0].push((owner.id.0, e.to_entry()));
                }
            }
        }
        // Phase 2: replace every node's replica set.
        for node in nodes.iter_mut() {
            node.indexes[index].store.clear_replicas();
        }
        let mut placed = 0usize;
        for (addr, list) in copies.into_iter().enumerate() {
            for (owner_id, e) in list {
                nodes[addr].indexes[index].store.put_replica(owner_id, e);
                placed += 1;
            }
        }
        placed
    }

    /// Publish one object into a running index *over the network*: the
    /// entry is routed from a random node toward its ring key and stored
    /// at the owner (the runtime half of §6's "dynamic datasets";
    /// build-time publication places entries directly since the paper
    /// does not measure insertion traffic). Returns the hops the
    /// publication took.
    ///
    /// The caller owns `ObjectId` assignment and must extend its
    /// distance oracle to cover the new id before querying.
    pub fn publish(&mut self, index: u8, obj: metric::ObjectId, point: &[f64]) -> u32 {
        use crate::msg::SearchMsg;
        use simnet::{AgentId, SimDuration, SimTime};

        let grid = &self.grids[index as usize];
        let entry = publish_entry(grid, self.rotations[index as usize], obj, point);
        let key = entry.ring_key;
        let mut rng = simnet::SimRng::new(self.cfg.seed).fork(0x9B ^ obj.0 as u64);
        let origin = AgentId(rng.index(self.cfg.n_nodes));
        let at: SimTime = self.sim.now() + SimDuration::from_millis(1);
        self.sim.inject(
            at,
            origin,
            SearchMsg::Publish {
                index,
                entry,
                hops: 0,
            },
        );
        self.sim.run();
        // The owner recorded the arrival.
        let owner = self.ring.owner_of(chord::ChordId(key)).addr;
        self.sim
            .agent(owner)
            .publishes_stored
            .iter()
            .rev()
            .find(|&&(_, o)| o == obj)
            .map(|&(h, _)| h)
            .expect("publication must land on the owner")
    }

    /// Run dynamic load migration now (e.g. after a [`Self::reindex`]
    /// skewed the placement). Same mechanism as the build-time `lb`
    /// option.
    pub fn rebalance(&mut self, lb: &LoadBalanceConfig) -> LoadBalanceReport {
        let n_succ = self.cfg.n_successors;
        let pns = self.cfg.pns_candidates.max(1);
        let (topo, nodes) = self.sim.topology_and_agents_mut();
        let report = load::balance(&mut self.ring, nodes, lb, topo, n_succ, pns, None);
        // Migration rewrites ring identifiers and moves primaries, so
        // every index's replica placement is recomputed from scratch.
        for ix in 0..self.grids.len() {
            self.re_replicate(ix);
        }
        report
    }

    /// Replace every node's routing table with one produced by the *live*
    /// Chord protocol: run a separate protocol simulation (same
    /// membership, same topology, staggered joins, stabilization and
    /// finger repair to convergence) and adopt the tables it produced.
    ///
    /// The experiments default to the instant stabilized builder
    /// (`chord::ring`); this method exists to *validate* that shortcut —
    /// queries over protocol-built tables must behave the same, which
    /// `tests/live_tables.rs` asserts. Returns the simulated seconds the
    /// protocol ran.
    pub fn adopt_live_tables(&mut self, settle: simnet::SimDuration) -> f64 {
        use chord::protocol::{ChordAgent, ChordConfig, ChordMsg};
        use simnet::{AgentId, Sim, SimTime};

        let n = self.cfg.n_nodes;
        // Same representation selection as `SearchSystem::build`, so the
        // protocol sim sees the identical latency draws the system did.
        let topo = crate::system::build_topology(&self.cfg);
        let proto_cfg = ChordConfig {
            n_successors: self.cfg.n_successors,
            pns_candidates: self.cfg.pns_candidates,
            ..ChordConfig::default()
        };
        let mut by_addr: Vec<Option<chord::NodeRef>> = vec![None; n];
        for node in self.ring.nodes() {
            by_addr[node.addr.0] = Some(*node);
        }
        let agents: Vec<ChordAgent> = by_addr
            .into_iter()
            .map(|nr| ChordAgent::new(nr.expect("gap"), proto_cfg.clone()))
            .collect();
        let mut proto = Sim::new(topo, agents, self.cfg.seed ^ 0x11FE);
        let bootstrap = *self
            .ring
            .nodes()
            .iter()
            .find(|nd| nd.addr.0 == 0)
            .expect("node 0");
        proto.inject(SimTime::ZERO, AgentId(0), ChordMsg::StartJoin { bootstrap });
        let mut jrng = SimRng::new(self.cfg.seed).fork(0x70F);
        for addr in 1..n {
            let at = SimTime::from_millis(500 + jrng.below(30_000));
            proto.inject(at, AgentId(addr), ChordMsg::StartJoin { bootstrap });
        }
        proto.run_until(SimTime::ZERO + settle);
        let elapsed = proto.now().as_secs_f64();
        let tables: Vec<_> = proto.into_agents().into_iter().map(|a| a.table).collect();
        let (_, nodes) = self.sim.topology_and_agents_mut();
        for (addr, t) in tables.into_iter().enumerate() {
            debug_assert_eq!(t.me().addr.0, addr);
            nodes[addr].table = t;
        }
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{DistanceOracle, QueryId};
    use crate::system::{IndexSpec, QuerySpec, SystemConfig};
    use metric::{Metric, L2};

    fn grid_points(side: usize, scale: f64) -> Vec<Vec<f64>> {
        (0..side * side)
            .map(|i| {
                vec![
                    (i % side) as f64 * scale / side as f64,
                    (i / side) as f64 * scale / side as f64,
                ]
            })
            .collect()
    }

    fn build(points: &[Vec<f64>]) -> SearchSystem {
        let op: Vec<Vec<f64>> = points.to_vec();
        let oracle: DistanceOracle = Arc::new(move |_q: QueryId, obj: ObjectId| {
            let p = &op[obj.0 as usize];
            let a: Vec<f32> = p.iter().map(|&x| x as f32).collect();
            L2::new().distance(&a, &[50.0f32, 50.0])
        });
        SearchSystem::build(
            SystemConfig {
                n_nodes: 20,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "refresh".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.to_vec(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        )
    }

    /// Every owner's primaries must be mirrored, entry for entry, on its
    /// immediate ring successor (replication factor 2), and nothing else
    /// may be held as a replica.
    fn assert_replicas_consistent(system: &mut SearchSystem) {
        let ring_nodes: Vec<chord::NodeRef> = system.ring().nodes().to_vec();
        let n = ring_nodes.len();
        let (_, nodes) = system.sim.topology_and_agents_mut();
        let mut expected_total = 0usize;
        for (pos, owner) in ring_nodes.iter().enumerate() {
            let primary: Vec<metric::ObjectId> = nodes[owner.addr.0].indexes[0]
                .store
                .entries()
                .map(|e| e.obj)
                .collect();
            expected_total += primary.len();
            let holder = ring_nodes[(pos + 1) % n];
            let held: Vec<metric::ObjectId> = nodes[holder.addr.0].indexes[0]
                .store
                .replicas()
                .iter()
                .filter(|(o, _)| *o == owner.id.0)
                .map(|(_, e)| e.obj)
                .collect();
            assert_eq!(
                held.len(),
                primary.len(),
                "successor of {:?} must mirror all its primaries",
                owner.id
            );
            for obj in &primary {
                assert!(held.contains(obj));
            }
        }
        let total: usize = nodes
            .iter()
            .map(|node| node.indexes[0].store.replica_count())
            .sum();
        assert_eq!(total, expected_total, "no stale replicas may survive");
    }

    #[test]
    fn reindex_and_rebalance_recompute_replica_placement() {
        let points = grid_points(20, 100.0);
        let op: Vec<Vec<f64>> = points.clone();
        let oracle: DistanceOracle = Arc::new(move |_q: QueryId, obj: ObjectId| {
            let p = &op[obj.0 as usize];
            let a: Vec<f32> = p.iter().map(|&x| x as f32).collect();
            L2::new().distance(&a, &[50.0f32, 50.0])
        });
        let mut system = SearchSystem::build(
            SystemConfig {
                n_nodes: 20,
                depth: 16,
                resilience: Some(crate::resilience::ResilienceConfig::default()),
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "refresh".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.clone(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        assert_replicas_consistent(&mut system);

        let new_points: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.iter().map(|&x| x * 0.5).collect())
            .collect();
        system.reindex(0, &[(0.0, 100.0); 2], &new_points);
        assert_replicas_consistent(&mut system);

        system.rebalance(&LoadBalanceConfig::default());
        assert_replicas_consistent(&mut system);
    }

    #[test]
    fn reindex_conserves_and_migrates() {
        let points = grid_points(20, 100.0);
        let mut system = build(&points);
        assert_eq!(system.total_entries(0), 400);
        // Re-index with a *shifted* mapping (simulating new landmarks):
        // all coordinates scaled down — keys change, entries move.
        let new_points: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.iter().map(|&x| x * 0.5).collect())
            .collect();
        let report = system.reindex(0, &[(0.0, 100.0); 2], &new_points);
        assert_eq!(report.published, 400);
        assert!(report.migrated > 100, "rescaling must move most entries");
        assert_eq!(system.total_entries(0), 400);
        // And queries against the new mapping still work end to end.
        let outcomes = system.run_queries(
            &[QuerySpec {
                index: 0,
                point: vec![25.0, 25.0], // = old (50, 50) after scaling
                radius: 10.0,
                truth: vec![],
            }],
            1.0,
        );
        assert!(!outcomes[0].results.is_empty());
    }

    #[test]
    fn reindex_supports_grown_dataset() {
        let points = grid_points(10, 100.0);
        let mut system = build(&points);
        assert_eq!(system.total_entries(0), 100);
        let bigger = grid_points(16, 100.0);
        let report = system.reindex(0, &[(0.0, 100.0); 2], &bigger);
        assert_eq!(report.published, 256);
        assert_eq!(system.total_entries(0), 256);
    }

    #[test]
    fn runtime_publish_lands_on_owner_and_is_queryable() {
        let points = grid_points(12, 100.0);
        // Oracle must already know the ids that will be published later.
        let new_points = [vec![50.1, 50.2], vec![49.8, 50.0], vec![50.4, 49.7]];
        let mut all = points.clone();
        all.extend(new_points.iter().cloned());
        let op = all.clone();
        let oracle: DistanceOracle = Arc::new(move |_q: QueryId, obj: ObjectId| {
            let p = &op[obj.0 as usize];
            let a: Vec<f32> = p.iter().map(|&x| x as f32).collect();
            L2::new().distance(&a, &[50.0f32, 50.0])
        });
        let mut system = SearchSystem::build(
            SystemConfig {
                n_nodes: 20,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "publish".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.clone(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        assert_eq!(system.total_entries(0), 144);
        // Publish three new objects near (50, 50) over the network.
        for (i, p) in new_points.iter().enumerate() {
            let hops = system.publish(0, ObjectId(144 + i as u32), p);
            assert!(hops <= 12, "publication hop count {hops}");
        }
        assert_eq!(system.total_entries(0), 147);
        // The new entries sit on their owners.
        for p in &new_points {
            let owner = system.owner_of_point(0, p);
            let held = system.sim.agent(owner).indexes[0]
                .store
                .entries()
                .any(|e| new_points.iter().any(|np| np.as_slice() == e.point));
            assert!(held, "owner {owner:?} lacks the published entry");
        }
        // And a query around (50,50) retrieves them (the oracle in
        // `build` measures distance to (50,50), so the new points rank
        // first).
        let outcomes = system.run_queries(
            &[QuerySpec {
                index: 0,
                point: vec![50.0, 50.0],
                radius: 3.0,
                truth: vec![ObjectId(144), ObjectId(145), ObjectId(146)],
            }],
            1.0,
        );
        assert_eq!(outcomes[0].recall, 1.0, "published objects must be found");
    }

    #[test]
    fn rebalance_after_skewed_reindex() {
        let points = grid_points(20, 100.0);
        let mut system = build(&points);
        // Cram everything into one corner: heavy skew.
        let skewed: Vec<Vec<f64>> = points
            .iter()
            .map(|p| p.iter().map(|&x| x * 0.02).collect())
            .collect();
        system.reindex(0, &[(0.0, 100.0); 2], &skewed);
        let max_before = system.load_distribution(0)[0];
        assert!(max_before > 100, "corner pile expected, got {max_before}");
        let report = system.rebalance(&LoadBalanceConfig::default());
        assert!(report.migrations > 0);
        let max_after = system.load_distribution(0)[0];
        assert!(
            max_after * 2 < max_before,
            "rebalance should flatten: {max_before} -> {max_after}"
        );
        assert_eq!(system.total_entries(0), 400);
    }
}
