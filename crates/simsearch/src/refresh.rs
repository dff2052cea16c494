//! Maintenance of a running [`SearchSystem`]: recomputing replica
//! placement after primaries move, on-demand dynamic load migration for
//! datasets whose distribution drifted after build time, and adopting
//! routing tables built by the live Chord protocol in place of the
//! instant stabilized ones.

use simnet::SimRng;

use crate::load::{self, LoadBalanceConfig, LoadBalanceReport};
use crate::store::Entry;
use crate::system::SearchSystem;

impl SearchSystem {
    /// Recompute replica placement for one index from the current
    /// primaries and ring membership: every owner's entries are copied to
    /// its `replication - 1` ring successors, and all previously held
    /// replicas are dropped first. No-op (returning 0) outside resilient
    /// mode. Call after any operation that moves primaries or ring
    /// identifiers, such as load migration, since ownership changes
    /// strand old copies on the wrong successors.
    pub fn re_replicate(&mut self, index: usize) -> usize {
        let replication = match &self.cfg.resilience {
            Some(rc) if rc.replication > 1 => rc.replication,
            _ => return 0,
        };
        let ring = self.ring.nodes();
        let (_, nodes) = self.sim.topology_and_agents_mut();
        // Phase 1 (read-only): collect copies per target address, each
        // owner's in its store's ring-key order.
        let mut copies: Vec<Vec<(u64, Entry)>> = vec![Vec::new(); nodes.len()];
        for (pos, owner) in ring.iter().enumerate() {
            let store = &nodes[owner.addr.0].indexes[index].store;
            let targets = (1..replication).map(|j| ring[(pos + j) % ring.len()]);
            // Stop where the successors wrap all the way around.
            for tgt in targets.take_while(|t| t.addr != owner.addr) {
                copies[tgt.addr.0].extend(store.entries().map(|e| (owner.id.0, e.to_entry())));
            }
        }
        // Phase 2: replace every node's replica set.
        let mut placed = 0usize;
        for (node, list) in nodes.iter_mut().zip(copies) {
            let store = &mut node.indexes[index].store;
            store.clear_replicas();
            placed += list.len();
            for (owner_id, e) in list {
                store.put_replica(owner_id, e);
            }
        }
        placed
    }

    /// Run dynamic load migration now (e.g. on a placement that
    /// publications skewed after build time). Same mechanism as the
    /// build-time `lb` option.
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
    use metric::ObjectId;
    use metric::{Metric, L2};
    use std::sync::Arc;

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
    fn rebalance_recomputes_replica_placement() {
        // Every coordinate halved: the entries crowd into one quadrant,
        // so migration has primaries to move.
        let points: Vec<Vec<f64>> = grid_points(20, 100.0)
            .iter()
            .map(|p| p.iter().map(|&x| x * 0.5).collect())
            .collect();
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
                points,
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        assert_replicas_consistent(&mut system);

        system.rebalance(&LoadBalanceConfig::default());
        assert_replicas_consistent(&mut system);
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
        // Publish three new objects near (50, 50) over the network, each
        // entering at a different node.
        for (i, p) in new_points.iter().enumerate() {
            let at = system.now() + simnet::SimDuration::from_millis(1);
            let origin = simnet::AgentId(7 * i);
            system.inject_publish(at, origin, 0, ObjectId(144 + i as u32), p);
            system.run_to_quiescence();
        }
        assert_eq!(system.total_entries(0), 147);
        let tel = system.telemetry().lock();
        let hops = tel
            .registry
            .histogram("publish.hops")
            .expect("publications stored");
        assert_eq!(hops.count(), 3);
        assert!(hops.max() <= 12, "publication hop count {}", hops.max());
        drop(tel);
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
    fn rebalance_flattens_skewed_placement() {
        // Cram everything into one corner: heavy skew.
        let skewed: Vec<Vec<f64>> = grid_points(20, 100.0)
            .iter()
            .map(|p| p.iter().map(|&x| x * 0.02).collect())
            .collect();
        let mut system = build(&skewed);
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
