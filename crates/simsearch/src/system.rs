//! The experiment driver: build a stabilized system, publish an index,
//! optionally balance load, run a query workload, and fold the paper's
//! cost metrics (§4.1) per query.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use chord::OracleRing;
use landmark::{Boundary, Mapper};
use lph::{Grid, Rect, Rotation};
use metric::{Metric, ObjectId};
use serde_json::Value;
use simnet::telemetry::histogram_of;
use simnet::{AgentId, Sim, SimRng, SimTime, Topology};

use crate::load::{self, LoadBalanceReport};
use crate::msg::{DistanceOracle, QueryBall, QueryId, SearchMsg, SubQueryMsg};
use crate::node::{IndexState, IssuedQuery, SearchNode};
use crate::resilience::ResilienceConfig;
use crate::store::{Entry, Store};
use crate::telemetry::Telemetry;

pub use crate::load::LoadBalanceConfig;

/// System-wide parameters. Defaults follow the paper's p2psim setup
/// (64-bit identifiers, 16 successors, PNS on, 180 ms mean RTT, top-10
/// results) at a node count that keeps a full sweep fast.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of nodes in the overlay.
    pub n_nodes: usize,
    /// Root seed: every random decision in the run derives from it.
    pub seed: u64,
    /// Successor-list length.
    pub n_successors: usize,
    /// PNS candidate count (0 = plain Chord fingers).
    pub pns_candidates: usize,
    /// How many nearest results each index node returns, and the merge
    /// cap at the querier (the paper's `k = 10`).
    pub knn_k: usize,
    /// Mean RTT of the synthesized King-like topology, milliseconds.
    pub mean_rtt_ms: f64,
    /// Bisection depth of every index grid (the paper's `m = 64`).
    pub depth: u32,
    /// `Some(level)`: use the naive per-cuboid routing baseline at the
    /// given decomposition level instead of Algorithms 3–5.
    pub naive_level: Option<u32>,
    /// Dynamic load migration, run after publication when set.
    pub lb: Option<LoadBalanceConfig>,
    /// Join-time balancing (paper §3.4's first mechanism): node
    /// identifiers are chosen by splitting the heaviest key range of
    /// index 0's entries instead of uniformly at random.
    pub load_aware_join: bool,
    /// `Some` turns on query retry/failover and replicated publication
    /// (see [`crate::resilience`]). `None` (default) keeps the wire
    /// protocol identical to the fault-free implementation.
    pub resilience: Option<ResilienceConfig>,
    /// Inert: nothing reads it, and the simulator always runs one
    /// serial event loop. It remains only because the repo benchmark
    /// (`benchmark/src/sim.rs`) names it in a struct literal and that
    /// harness is frozen; the next `benchmark` PR (ROADMAP item 1)
    /// deletes it. Defaults to 1.
    pub threads: usize,
    /// Additionally maintain per-index namespaced counters
    /// (`index{i}.answers`, `index{i}.scanned`, `index{i}.dist_calls`,
    /// `index{i}.routed`, `index{i}.published`) so co-hosted schemes are
    /// attributable individually. Off by default: the extra registry
    /// keys would perturb the historical golden snapshots.
    pub index_telemetry: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_nodes: 256,
            seed: 42,
            n_successors: 16,
            pns_candidates: 16,
            knn_k: 10,
            mean_rtt_ms: 180.0,
            depth: 64,
            naive_level: None,
            lb: None,
            load_aware_join: false,
            resilience: None,
            threads: 1,
            index_telemetry: false,
        }
    }
}

/// One index scheme to host: a named, bounded index space and the mapped
/// dataset to publish into it. `ObjectId(i)` is position `i` of `points`.
#[derive(Clone, Debug)]
pub struct IndexSpec {
    /// Index name (also the rotation-offset seed when `rotate`).
    pub name: String,
    /// Per-dimension index-space bounds.
    pub boundary: Vec<(f64, f64)>,
    /// Mapped dataset: one index point per object.
    pub points: Vec<Vec<f64>>,
    /// Apply the static space-mapping rotation (§3.4).
    pub rotate: bool,
    /// Explicit rotation offset, overriding the name-derived one — the
    /// ablation hook: forcing two indexes to the *same* offset
    /// reproduces the correlated-hot-arc pileup §3.4's staggering
    /// prevents. `None` keeps the default behavior (`rotate` decides
    /// between [`Rotation::from_name`] and [`Rotation::IDENTITY`]).
    pub rotation: Option<u64>,
}

/// True distance from query-pool item `q` to object `oid`.
pub type TrueDist = Arc<dyn Fn(usize, usize) -> f64 + Send + Sync>;

/// What [`map_index`] returns beside the index to publish: the query
/// side of the mapping and the objects held out of the index.
pub struct Mapping {
    /// The mapped query pool, in pool order.
    pub pool: Vec<Vec<f64>>,
    /// The mapped objects past `base_n`, in order: runtime publishes.
    pub held_out: Vec<Vec<f64>>,
    /// True distance from pool item `q` to object `oid`.
    pub dist: TrueDist,
}

impl Mapping {
    /// The refinement oracle of a batch whose query `qid` probes pool
    /// item `probe(qid)`.
    pub fn oracle(
        &self,
        probe: impl Fn(QueryId) -> usize + Send + Sync + 'static,
    ) -> DistanceOracle {
        let dist = Arc::clone(&self.dist);
        Arc::new(move |qid: QueryId, obj: ObjectId| dist(probe(qid), obj.0 as usize))
    }
}

/// The one §3.1 mapping pipeline: sample `objects` on `sel_rng`,
/// `select` the landmarks from the sample on the same stream, map the
/// objects, fix the boundary, map the query `pool`, hold the objects
/// past `base_n` out as runtime publishes, and keep the true distance
/// for the oracle. The spec publishes the first `base_n` objects; its
/// name is empty and it is not rotated, so a caller that names or
/// rotates its index sets those fields. Every experiment maps through
/// it, so keep its `sel_rng` draw order or every figure and golden
/// moves.
#[allow(clippy::too_many_arguments)]
pub fn map_index<T, Q, M>(
    sample: usize,
    sel_rng: &mut SimRng,
    pool: Vec<T>,
    objects: Vec<T>,
    metric: M,
    base_n: usize,
    select: impl FnOnce(&M, &[T], &mut SimRng) -> Vec<T>,
    boundary: impl FnOnce(&Mapper<T, M>, &[T]) -> Boundary,
) -> (IndexSpec, Mapping)
where
    T: Clone + Borrow<Q> + Send + Sync + 'static,
    Q: ?Sized + Sync,
    M: Metric<Q> + Clone + 'static,
{
    let total = objects.len();
    let sample: Vec<T> = sel_rng
        .sample_indices(total, sample.min(total))
        .into_iter()
        .map(|i| objects[i].clone())
        .collect();
    let landmarks = select(&metric, &sample, sel_rng);
    let mapper = Mapper::new(metric.clone(), landmarks);
    let mut points = mapper.map_all::<Q, T>(&objects);
    let boundary = boundary(&mapper, &sample).dims;
    let pool_points = mapper.map_all::<Q, T>(&pool);
    let held_out = points.split_off(base_n);
    let dist = Arc::new(move |q: usize, oid: usize| {
        metric.distance(pool[q].borrow(), objects[oid].borrow())
    });
    let spec = IndexSpec {
        name: String::new(),
        boundary,
        points,
        rotate: false,
        rotation: None,
    };
    let mapping = Mapping {
        pool: pool_points,
        held_out,
        dist,
    };
    (spec, mapping)
}

/// One query of the workload. The caller maps the query object to its
/// index point and supplies the ground-truth k-nearest ids for recall.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Which index the query targets.
    pub index: u8,
    /// The mapped query point.
    pub point: Vec<f64>,
    /// Metric search radius `r`; the searched region is the hypercube of
    /// side `2r` around `point`, clipped to the boundary.
    pub radius: f64,
    /// Ground-truth k-nearest object ids (from an exhaustive scan).
    pub truth: Vec<ObjectId>,
}

/// Per-query outcome: the paper's metric set.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Query id (position in the submitted workload).
    pub qid: QueryId,
    /// The node that issued the query.
    pub origin: AgentId,
    /// Maximum query-delivery path length over all answering nodes.
    pub hops: u32,
    /// True when at least one result reached the origin. When `false`
    /// the query produced nothing — `response_ms` / `max_latency_ms`
    /// are 0.0 by convention and must not enter latency statistics
    /// (a zero-result query is a *timeout*, not an instant answer).
    pub completed: bool,
    /// Time to the first result, milliseconds. Meaningless (0.0) when
    /// `completed` is false.
    pub response_ms: f64,
    /// Time to the last result, milliseconds. Meaningless (0.0) when
    /// `completed` is false.
    pub max_latency_ms: f64,
    /// Query-delivery bandwidth, bytes (the trace's `query_bytes`).
    pub query_bytes: u64,
    /// Result-delivery bandwidth, bytes (the trace's `result_bytes`).
    pub result_bytes: u64,
    /// Query-delivery messages sent, one per `Route` batch
    /// ([`crate::TraceLog::query_msgs`]).
    pub query_msgs: u32,
    /// Result messages received.
    pub responses: u32,
    /// Merged `(object, distance)` top-k.
    pub results: Vec<(ObjectId, f64)>,
    /// `|truth ∩ results| / |truth|`.
    pub recall: f64,
    /// True when any answering node reported part of the queried key
    /// range possibly lost with a dead node it had no replicas for.
    pub degraded: bool,
}

/// Largest population that still gets the dense (exact, O(n²)-memory)
/// latency matrix. Every historical experiment and golden runs at or
/// below this size, so their RTT draws — and therefore their telemetry
/// bytes — are untouched; above it the O(n)-memory coordinate
/// representation takes over (8 GB of matrix at 32k nodes would
/// otherwise dwarf the simulation itself).
pub(crate) const DENSE_TOPOLOGY_MAX_NODES: usize = 2048;

/// The latency model for a system of `cfg.n_nodes` hosts: dense matrix
/// at historical sizes, coordinate-based above (see
/// [`DENSE_TOPOLOGY_MAX_NODES`]).
pub(crate) fn build_topology(cfg: &SystemConfig) -> Topology {
    let seed = cfg.seed ^ 0x7070_7070;
    if cfg.n_nodes <= DENSE_TOPOLOGY_MAX_NODES {
        Topology::king_like(cfg.n_nodes, seed, cfg.mean_rtt_ms)
    } else {
        Topology::king_like_scalable(cfg.n_nodes, seed, cfg.mean_rtt_ms)
    }
}

/// A built, publishable, queryable system.
pub struct SearchSystem {
    pub(crate) sim: Sim<SearchNode>,
    pub(crate) ring: OracleRing,
    pub(crate) cfg: SystemConfig,
    pub(crate) grids: Vec<Arc<Grid>>,
    pub(crate) rotations: Vec<Rotation>,
    /// What the load balancer did at build time (if enabled).
    pub lb_report: Option<LoadBalanceReport>,
    /// Always-on run telemetry, shared with every node.
    pub(crate) telemetry: Telemetry,
}

impl SearchSystem {
    /// Build the overlay, publish every index, and (optionally) run load
    /// migration. The `oracle` must be able to answer
    /// `distance(qid, obj)` for the query ids of the workload later
    /// passed to [`SearchSystem::run_queries`] — construct both from the
    /// same query list.
    pub fn build(cfg: SystemConfig, specs: &[IndexSpec], oracle: DistanceOracle) -> SearchSystem {
        assert!(!specs.is_empty(), "at least one index required");
        assert!(specs.len() <= u8::MAX as usize, "too many indexes");
        let root = SimRng::new(cfg.seed);
        let topo = build_topology(&cfg);
        let mut ring_rng = root.fork(0x0126);

        let grids: Vec<Arc<Grid>> = specs
            .iter()
            .map(|s| {
                let (lo, hi) = s.boundary.iter().copied().unzip();
                Arc::new(Grid::new(Rect::new(lo, hi), cfg.depth))
            })
            .collect();
        let rotations: Vec<Rotation> = specs
            .iter()
            .map(|s| match s.rotation {
                Some(off) => Rotation(off),
                None if s.rotate => Rotation::from_name(&s.name),
                None => Rotation::IDENTITY,
            })
            .collect();

        // Every index's entries, built once: clamp, hash and rotate.
        let entries_of = |ix: usize| {
            let (spec, grid, rot) = (&specs[ix], &grids[ix], rotations[ix]);
            spec.points.iter().enumerate().map(move |(i, p)| {
                assert_eq!(
                    p.len(),
                    grid.dims(),
                    "index {} point {} has wrong dimensionality",
                    spec.name,
                    i
                );
                Entry::new(grid, rot, ObjectId(i as u32), p)
            })
        };
        // Paper §3.4: joiners split the heaviest node's key range, with
        // identifiers derived from index 0's entry keys; those entries
        // are then the ones placed.
        let mut first: Option<Vec<Entry>> = cfg.load_aware_join.then(|| entries_of(0).collect());
        let ring = match &first {
            Some(entries) => {
                let keys: Vec<u64> = entries.iter().map(|e| e.ring_key).collect();
                let ids = load::load_aware_ids(&keys, cfg.n_nodes, &mut ring_rng);
                OracleRing::new(
                    ids.iter()
                        .enumerate()
                        .map(|(addr, &id)| chord::NodeRef::new(id, addr))
                        .collect(),
                )
            }
            None => OracleRing::with_random_ids(cfg.n_nodes, &mut ring_rng),
        };
        let topo_opt = (cfg.pns_candidates > 0).then_some(&topo);
        let mut nodes: Vec<SearchNode> = ring
            .build_all_tables(cfg.n_successors, topo_opt, cfg.pns_candidates.max(1))
            .into_iter()
            .map(|t| {
                let indexes = grids
                    .iter()
                    .zip(&rotations)
                    .map(|(g, &r)| IndexState {
                        grid: Arc::clone(g),
                        rotation: r,
                        store: Store::new(),
                    })
                    .collect();
                SearchNode::new(t, indexes, Arc::clone(&oracle), cfg.knn_k, cfg.naive_level)
            })
            .collect();

        // Publish: place every entry directly on its owner (insertion
        // traffic is not part of the paper's measured metrics; queries
        // are). Replicas are placed once the ring has settled, below.
        for ix in 0..specs.len() {
            match first.take() {
                Some(entries) => load::place(&ring, &mut nodes, ix, entries),
                None => load::place(&ring, &mut nodes, ix, entries_of(ix)),
            }
        }

        let telemetry = Telemetry::new();
        for node in &mut nodes {
            node.attach_telemetry(telemetry.clone());
            node.index_telemetry = cfg.index_telemetry;
            if let Some(rc) = &cfg.resilience {
                node.enable_resilience(rc.clone());
            }
        }

        let mut ring = ring;
        let lb_report = cfg.lb.as_ref().map(|lb| {
            let mut st = telemetry.lock();
            load::balance(
                &mut ring,
                &mut nodes,
                lb,
                &topo,
                cfg.n_successors,
                cfg.pns_candidates.max(1),
                Some(&mut st.registry),
            )
        });

        let sim = Sim::new(topo, nodes, cfg.seed ^ 0x51);
        let mut system = SearchSystem {
            sim,
            ring,
            cfg,
            grids,
            rotations,
            lb_report,
            telemetry,
        };
        // In resilient mode, a replica copy of every primary on each of
        // its owner's `replication - 1` ring successors.
        for ix in 0..system.grids.len() {
            system.re_replicate(ix);
        }
        system
    }

    /// The overlay membership.
    pub fn ring(&self) -> &OracleRing {
        &self.ring
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Entries stored per node for one index, sorted descending — the
    /// paper's load-distribution plots (figures 4 and 6).
    pub fn load_distribution(&self, index: usize) -> Vec<usize> {
        let mut loads: Vec<usize> = self
            .sim
            .agents()
            .map(|n| n.indexes[index].store.load())
            .collect();
        loads.sort_unstable_by(|a, b| b.cmp(a));
        loads
    }

    /// The rotation offset an index was built with.
    pub fn rotation(&self, index: usize) -> Rotation {
        self.rotations[index]
    }

    /// Entries stored per node for one index, in node-address order
    /// (unsorted; lines up across co-hosted indexes).
    pub fn load_per_node(&self, index: usize) -> Vec<usize> {
        self.sim
            .agents()
            .map(|n| n.indexes[index].store.load())
            .collect()
    }

    /// Total entries across nodes for an index (conservation checks).
    pub fn total_entries(&self, index: usize) -> usize {
        self.sim
            .agents()
            .map(|n| n.indexes[index].store.load())
            .sum()
    }

    /// Aggregate network counters so far.
    pub fn net_stats(&self) -> simnet::NetStats {
        self.sim.stats()
    }

    /// Install a fault-injection configuration on the underlying
    /// simulator (drop/duplication/spike rates, partition windows).
    pub fn set_faults(&mut self, faults: simnet::FaultPlane) {
        self.sim.set_faults(faults);
    }

    /// Drop each cross-host message independently with probability
    /// `rate` — shorthand for the drop fault of [`Self::set_faults`].
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.sim.set_loss_rate(rate);
    }

    /// Schedule node `who` to crash at absolute simulated time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, who: AgentId) {
        self.sim.schedule_crash(at, who);
    }

    /// Schedule node `who` to come back up at absolute time `at`.
    pub fn schedule_restart(&mut self, at: SimTime, who: AgentId) {
        self.sim.schedule_restart(at, who);
    }

    /// Is node `who` currently crashed?
    pub fn is_down(&self, who: AgentId) -> bool {
        self.sim.is_down(who)
    }

    /// The exact `(injection time, origin)` sequence
    /// [`SearchSystem::run_queries`] will use for an `n`-query workload
    /// with the given mean inter-arrival time, without injecting
    /// anything. Fault scenarios use this to aim crash windows at (or
    /// away from) specific queries and origins deterministically.
    pub fn query_schedule(
        &self,
        n_queries: usize,
        mean_interarrival_s: f64,
    ) -> Vec<(SimTime, AgentId)> {
        let mut rng = SimRng::new(self.cfg.seed).fork(0x9E);
        let mut t = self.sim.now().as_secs_f64();
        (0..n_queries)
            .map(|_| {
                t += rng.exponential(mean_interarrival_s);
                let origin = AgentId(rng.index(self.cfg.n_nodes));
                (SimTime::from_secs_f64(t), origin)
            })
            .collect()
    }

    /// The run's telemetry handle (traces + counter registry).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A canonical JSON snapshot of everything this run observed:
    /// configuration, simulator-level network totals, the counter/
    /// histogram registry, per-index load histograms, and one roll-up +
    /// event list per query. Every value is an integer or a string and
    /// every object is key-sorted, so two runs from the same seed
    /// serialize byte-identically — the golden-snapshot CI gate diffs
    /// exactly this.
    pub fn telemetry_snapshot(&self) -> Value {
        let st = self.telemetry.lock();
        let net = self.sim.stats();
        let mut load: BTreeMap<String, Value> = BTreeMap::new();
        for ix in 0..self.grids.len() {
            let h = histogram_of(self.sim.agents().map(|n| n.indexes[ix].store.load() as u64));
            load.insert(format!("index{ix}"), h.to_json());
        }
        let config = serde_json::json!({
            "n_nodes": Value::UInt(self.cfg.n_nodes as u64),
            "seed": Value::UInt(self.cfg.seed),
            "n_successors": Value::UInt(self.cfg.n_successors as u64),
            "pns_candidates": Value::UInt(self.cfg.pns_candidates as u64),
            "knn_k": Value::UInt(self.cfg.knn_k as u64),
            "depth": Value::UInt(self.cfg.depth as u64),
            // Chord is the only substrate; the key keeps the config
            // block's shape, which every golden snapshot pins.
            "overlay": Value::String("chord".to_string()),
            "replication": Value::UInt(
                self.cfg.resilience.as_ref().map_or(1, |rc| rc.replication) as u64
            ),
        });
        serde_json::json!({
            "config": config,
            "net": serde_json::json!({
                "messages": Value::UInt(net.messages),
                "bytes": Value::UInt(net.bytes),
                "timers": Value::UInt(net.timers),
                "events": Value::UInt(net.events),
                "dropped": Value::UInt(net.dropped),
            }),
            "faults": serde_json::json!({
                "dropped_down": Value::UInt(net.dropped_down),
                "partitioned": Value::UInt(net.partitioned),
                "duplicated": Value::UInt(net.duplicated),
                "spiked": Value::UInt(net.spiked),
                "crashes": Value::UInt(net.crashes),
                "restarts": Value::UInt(net.restarts),
            }),
            "registry": st.registry.to_json(),
            "load": Value::Object(load),
            "queries": st.traces_json(),
        })
    }

    /// [`SearchSystem::telemetry_snapshot`] pretty-printed, with a
    /// trailing newline — the exact bytes of the checked-in golden file.
    pub fn telemetry_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.telemetry_snapshot())
            .expect("serialization is infallible");
        s.push('\n');
        s
    }

    /// Inject the workload (Poisson arrivals with the given mean
    /// inter-arrival time, issued from uniformly random nodes), run the
    /// simulation to completion, and fold per-query outcomes.
    pub fn run_queries(
        &mut self,
        queries: &[QuerySpec],
        mean_interarrival_s: f64,
    ) -> Vec<QueryOutcome> {
        let n = self.cfg.n_nodes;
        self.run_batch(queries, mean_interarrival_s, |_, rng| rng.index(n))
    }

    /// Inject one query as a simulation event: `q` is issued by `origin`
    /// at absolute time `at` under id `qid`. This is the admission
    /// primitive for drivers that admit queries by arrival time with
    /// many in flight (the scenario runner); [`SearchSystem::run_queries`]
    /// is the batch convenience built on it.
    pub fn inject_query(&mut self, at: SimTime, origin: AgentId, qid: QueryId, q: &QuerySpec) {
        let ball = QueryBall {
            center: q.point.clone().into(),
            radius: q.radius,
        };
        let grid = &self.grids[q.index as usize];
        let msg = SubQueryMsg::issue(qid, q.index, origin, grid, ball);
        self.sim.inject(at, origin, SearchMsg::Issue(msg));
    }

    /// Inject a runtime publication: the entry for `(obj, point)` enters
    /// the overlay at `origin` at time `at` and routes greedily to its
    /// owner (§6 "dynamic datasets"). The point is clamped to the index
    /// boundary exactly as build-time publication clamps it.
    pub fn inject_publish(
        &mut self,
        at: SimTime,
        origin: AgentId,
        index: u8,
        obj: ObjectId,
        point: &[f64],
    ) {
        let grid = &self.grids[index as usize];
        assert_eq!(
            point.len(),
            grid.dims(),
            "publish point has wrong dimensionality"
        );
        let entry = Entry::new(grid, self.rotations[index as usize], obj, point);
        self.sim.inject(
            at,
            origin,
            SearchMsg::Publish {
                index,
                entry,
                hops: 0,
            },
        );
    }

    /// Run the simulation until no events remain, then trim every trace
    /// log written since the last quiescence to its exact length: no
    /// more events can reach it until the next injection.
    pub fn run_to_quiescence(&mut self) {
        self.sim.run();
        self.telemetry.lock().trim();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The origin-side record of query `qid` as issued by `origin`, if
    /// that node has issued it. This is the completion probe: a query
    /// has completed once `first_result` is set, and its full answer
    /// latency is `last_result`.
    pub fn issued_query(&self, origin: AgentId, qid: QueryId) -> Option<&IssuedQuery> {
        self.sim.agent(origin).issued.get(&qid)
    }

    /// [`SearchSystem::run_queries`] with caller-chosen issuing nodes:
    /// query `i` is issued from `origins[i % origins.len()]`. Arrival
    /// times still come from the same seeded Poisson process — only the
    /// origin draw is skipped — so repeated-origin (hot) workloads stay
    /// deterministic.
    pub fn run_queries_from(
        &mut self,
        queries: &[QuerySpec],
        origins: &[usize],
        mean_interarrival_s: f64,
    ) -> Vec<QueryOutcome> {
        assert!(!origins.is_empty(), "need at least one origin");
        let n = self.cfg.n_nodes;
        self.run_batch(queries, mean_interarrival_s, |qid, _| {
            origins[qid % origins.len()] % n
        })
    }

    /// The batch driver under [`Self::run_queries`] and
    /// [`Self::run_queries_from`]: forget every node's origin records and
    /// the traces of the ids this batch reuses (query ids restart at 0 in
    /// each), inject query `i` at the `i`-th arrival of the seeded
    /// Poisson process from the node `origin(i, rng)` picks, run to
    /// quiescence and fold the outcomes. Counters keep accumulating
    /// across batches, and so do the traces of ids only an earlier batch
    /// used.
    fn run_batch(
        &mut self,
        queries: &[QuerySpec],
        mean_interarrival_s: f64,
        mut origin: impl FnMut(usize, &mut SimRng) -> usize,
    ) -> Vec<QueryOutcome> {
        assert!(queries.len() <= u32::MAX as usize);
        let (_, nodes) = self.sim.topology_and_agents_mut();
        for node in nodes.iter_mut() {
            node.issued.clear();
        }
        for qid in 0..queries.len() {
            self.telemetry.forget(qid as QueryId);
        }
        let mut rng = SimRng::new(self.cfg.seed).fork(0x9E);
        let mut t = self.sim.now().as_secs_f64();
        for (qid, q) in queries.iter().enumerate() {
            t += rng.exponential(mean_interarrival_s);
            let origin = AgentId(origin(qid, &mut rng));
            self.inject_query(SimTime::from_secs_f64(t), origin, qid as QueryId, q);
        }
        self.run_to_quiescence();
        self.collect(queries)
    }

    /// Fold each query's outcome from its origin's record and, for its
    /// costs, from its trace.
    fn collect(&self, queries: &[QuerySpec]) -> Vec<QueryOutcome> {
        // One pass over the population finds every origin record — at
        // 100k nodes a per-query scan for its origin would dominate
        // everything else here.
        let mut issued_at: Vec<Option<(usize, &IssuedQuery)>> = vec![None; queries.len()];
        for (addr, node) in self.sim.agents().enumerate() {
            for (&qid, iq) in &node.issued {
                issued_at[qid as usize] = Some((addr, iq));
            }
        }
        let st = self.telemetry.lock();
        let mut out = Vec::with_capacity(queries.len());
        for (qid, q) in queries.iter().enumerate() {
            let (origin, iq) = issued_at[qid].expect("query was issued");
            // The issue started the trace.
            let trace = &st.traces[&(qid as QueryId)];
            let costs = trace.summary();
            let issued = iq.issued_at;
            let response_ms = iq
                .first_result
                .map(|t| t.since(issued).as_millis_f64())
                .unwrap_or(0.0);
            let max_latency_ms = iq
                .last_result
                .map(|t| t.since(issued).as_millis_f64())
                .unwrap_or(0.0);
            out.push(QueryOutcome {
                qid: qid as QueryId,
                origin: AgentId(origin),
                hops: iq.max_hops,
                completed: iq.first_result.is_some(),
                response_ms,
                max_latency_ms,
                query_bytes: costs.query_bytes,
                result_bytes: costs.result_bytes,
                query_msgs: trace.query_msgs(),
                responses: iq.responses,
                results: iq.merged.clone(),
                recall: iq.recall(&q.truth),
                degraded: iq.degraded,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small 2-D world: objects on a grid in [0,100]^2, L∞-mapped
    /// directly (the index space IS the data space, i.e. 2 landmarks at
    /// known positions would give exactly these coordinates — here we
    /// feed points straight in to test the machinery end to end).
    fn small_spec(n_obj: usize) -> (IndexSpec, Vec<Vec<f64>>) {
        let side = (n_obj as f64).sqrt().ceil() as usize;
        let mut points = Vec::with_capacity(n_obj);
        for i in 0..n_obj {
            let x = (i % side) as f64 * 100.0 / side as f64;
            let y = (i / side) as f64 * 100.0 / side as f64;
            points.push(vec![x, y]);
        }
        (
            IndexSpec {
                name: "test".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.clone(),
                rotate: false,
                rotation: None,
            },
            points,
        )
    }

    fn l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn build_queries(
        points: &[Vec<f64>],
        qpoints: &[Vec<f64>],
        r: f64,
        k: usize,
    ) -> Vec<QuerySpec> {
        qpoints
            .iter()
            .map(|qp| {
                let mut d: Vec<(ObjectId, f64)> = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (ObjectId(i as u32), l2(qp, p)))
                    .collect();
                d.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                QuerySpec {
                    index: 0,
                    point: qp.clone(),
                    radius: r,
                    truth: d.iter().take(k).map(|&(o, _)| o).collect(),
                }
            })
            .collect()
    }

    fn run_world(
        cfg: SystemConfig,
        n_obj: usize,
        radius: f64,
    ) -> (Vec<QueryOutcome>, SearchSystem) {
        let (spec, points) = small_spec(n_obj);
        let qpoints: Vec<Vec<f64>> = vec![
            vec![50.0, 50.0],
            vec![10.0, 90.0],
            vec![99.0, 1.0],
            vec![0.0, 0.0],
        ];
        let queries = build_queries(&points, &qpoints, radius, cfg.knn_k);
        let oracle_points = points;
        let oracle_q = qpoints;
        let oracle: DistanceOracle = Arc::new(move |qid: QueryId, obj: ObjectId| {
            l2(&oracle_q[qid as usize], &oracle_points[obj.0 as usize])
        });
        let mut sys = SearchSystem::build(cfg, &[spec], oracle);
        let outcomes = sys.run_queries(&queries, 10.0);
        (outcomes, sys)
    }

    #[test]
    fn a_second_batch_reports_only_its_own_costs() {
        // Eight queries, then the first four again on the same system.
        // Without faults routing does not depend on time, and each batch
        // draws its origins from the same seeded stream, so the second
        // batch must cost exactly what it costs a fresh system: nothing
        // of the first batch added in, and no index past its own end.
        let (spec, points) = small_spec(400);
        let qpoints: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![5.0 + 12.5 * i as f64, 90.0 - 11.0 * i as f64])
            .collect();
        let queries = build_queries(&points, &qpoints, 15.0, 5);
        let build = || {
            let (p, q) = (points.clone(), qpoints.clone());
            let oracle: DistanceOracle = Arc::new(move |qid: QueryId, obj: ObjectId| {
                l2(&q[qid as usize], &p[obj.0 as usize])
            });
            let cfg = SystemConfig {
                n_nodes: 24,
                knn_k: 5,
                depth: 16,
                ..SystemConfig::default()
            };
            SearchSystem::build(cfg, std::slice::from_ref(&spec), oracle)
        };
        let costs = |outcomes: &[QueryOutcome]| -> Vec<(AgentId, u32, u64, u64)> {
            outcomes
                .iter()
                .map(|o| (o.origin, o.query_msgs, o.query_bytes, o.result_bytes))
                .collect()
        };
        let mut reused = build();
        reused.run_queries(&queries, 10.0);
        let again = reused.run_queries(&queries[..4], 10.0);
        let fresh = build().run_queries(&queries[..4], 10.0);
        assert_eq!(costs(&again), costs(&fresh));
        assert!(again.iter().all(|o| o.query_msgs > 0 && o.recall == 1.0));
    }

    #[test]
    fn end_to_end_recall_is_perfect_with_big_radius() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            ..SystemConfig::default()
        };
        // Radius large enough that the true 5-NN always fall inside the
        // searched hypercube (L∞ box of side 2r ⊇ L2 ball of radius r,
        // and the mapping here is the identity, so recall must be 1).
        let (outcomes, sys) = run_world(cfg, 400, 30.0);
        for o in &outcomes {
            assert!(
                (o.recall - 1.0).abs() < 1e-12,
                "query {} recall {}",
                o.qid,
                o.recall
            );
            assert!(o.responses >= 1);
            assert!(o.response_ms <= o.max_latency_ms);
        }
        assert_eq!(sys.total_entries(0), 400);
    }

    #[test]
    fn tiny_radius_lowers_recall_but_never_wrong_results() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            ..SystemConfig::default()
        };
        let (outcomes, _sys) = run_world(cfg, 400, 2.0);
        for o in &outcomes {
            // Every returned result must genuinely be within the box, so
            // distances are real; recall may be below 1.
            assert!(o.recall <= 1.0);
            for &(_, d) in &o.results {
                assert!(d.is_finite());
            }
        }
        // At least one tight query misses part of its true 5-NN.
        assert!(outcomes.iter().any(|o| o.recall < 1.0));
    }

    /// A user-supplied distance oracle is a black box; if it returns NaN
    /// the answering nodes must rank with a total order, not panic
    /// mid-simulation (regression for the `partial_cmp().unwrap()` sweep).
    #[test]
    fn nan_distance_oracle_never_panics_a_query() {
        let (spec, points) = small_spec(100);
        let queries = build_queries(&points, &[vec![50.0, 50.0]], 20.0, 5);
        let oracle: DistanceOracle = Arc::new(|_qid: QueryId, _obj: ObjectId| f64::NAN);
        let mut sys = SearchSystem::build(
            SystemConfig {
                n_nodes: 16,
                knn_k: 5,
                depth: 16,
                ..SystemConfig::default()
            },
            &[spec],
            oracle,
        );
        let outcomes = sys.run_queries(&queries, 10.0);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].responses >= 1, "query must still complete");
    }

    #[test]
    fn load_balancing_preserves_entries_and_results() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            lb: Some(LoadBalanceConfig::default()),
            ..SystemConfig::default()
        };
        let (outcomes, sys) = run_world(cfg, 400, 30.0);
        assert_eq!(sys.total_entries(0), 400, "entries conserved through LB");
        for o in &outcomes {
            assert!(
                (o.recall - 1.0).abs() < 1e-12,
                "LB must not change results; query {} recall {}",
                o.qid,
                o.recall
            );
        }
    }

    #[test]
    fn naive_baseline_matches_results_with_more_messages() {
        let mk = |naive| SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            naive_level: naive,
            ..SystemConfig::default()
        };
        let (fast, _) = run_world(mk(None), 400, 20.0);
        let (naive, _) = run_world(mk(Some(8)), 400, 20.0);
        for (f, n) in fast.iter().zip(&naive) {
            let fi: Vec<u32> = f.results.iter().map(|&(o, _)| o.0).collect();
            let ni: Vec<u32> = n.results.iter().map(|&(o, _)| o.0).collect();
            assert_eq!(fi, ni, "query {}", f.qid);
        }
        let fast_msgs: u32 = fast.iter().map(|o| o.query_msgs).sum();
        let naive_msgs: u32 = naive.iter().map(|o| o.query_msgs).sum();
        assert!(
            naive_msgs > fast_msgs,
            "naive should cost more messages: {naive_msgs} vs {fast_msgs}"
        );
    }

    #[test]
    fn rotation_changes_placement_not_results() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            ..SystemConfig::default()
        };
        let (spec, points) = small_spec(400);
        let rotated = IndexSpec {
            rotate: true,
            rotation: None,
            ..spec.clone()
        };
        let qp = vec![vec![50.0, 50.0]];
        let queries = build_queries(&points, &qp, 30.0, 5);
        let mk_oracle = |points: Vec<Vec<f64>>, qp: Vec<Vec<f64>>| -> DistanceOracle {
            Arc::new(move |qid: QueryId, obj: ObjectId| {
                l2(&qp[qid as usize], &points[obj.0 as usize])
            })
        };
        let mut plain =
            SearchSystem::build(cfg.clone(), &[spec], mk_oracle(points.clone(), qp.clone()));
        let mut rot = SearchSystem::build(cfg, &[rotated], mk_oracle(points.clone(), qp.clone()));
        let a = plain.run_queries(&queries, 10.0);
        let b = rot.run_queries(&queries, 10.0);
        assert_eq!(
            a[0].results.iter().map(|&(o, _)| o.0).collect::<Vec<_>>(),
            b[0].results.iter().map(|&(o, _)| o.0).collect::<Vec<_>>(),
        );
        // Sorted load distributions may rarely coincide even when placement
        // differs, so only sanity-check that both systems hold entries; the
        // strong rotation check lives in the lph tests.
        let da = plain.load_distribution(0);
        let db = rot.load_distribution(0);
        assert_eq!(da.iter().sum::<usize>(), db.iter().sum::<usize>());
    }

    #[test]
    fn telemetry_snapshot_is_deterministic_and_complete() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            lb: Some(LoadBalanceConfig::default()),
            ..SystemConfig::default()
        };
        let (_a, sys_a) = run_world(cfg.clone(), 400, 20.0);
        let (_b, sys_b) = run_world(cfg, 400, 20.0);
        assert_eq!(
            sys_a.telemetry_json(),
            sys_b.telemetry_json(),
            "same seed must serialize byte-identically"
        );
        let snap = sys_a.telemetry_snapshot();
        assert_eq!(snap["config"]["n_nodes"].as_u64(), Some(24));
        assert_eq!(snap["config"]["overlay"].as_str(), Some("chord"));
        // One load sample per node.
        assert_eq!(snap["load"]["index0"]["count"].as_u64(), Some(24));
        // All four queries answered and traced with integer roll-ups.
        for qid in 0..4 {
            let key = format!("{qid:010}");
            let q = &snap["queries"][key.as_str()];
            assert!(q["answers"].as_u64().unwrap() >= 1, "query {qid}");
            assert!(q["hops"].as_u64().is_some(), "query {qid}");
            assert!(q["scanned"].as_u64().unwrap() > 0, "query {qid}");
        }
        let counters = &snap["registry"]["counters"];
        assert!(counters["search.msgs.results"].as_u64().unwrap() >= 4);
        assert!(counters["lb.rounds"].as_u64().unwrap() >= 1);
        assert!(snap["net"]["bytes"].as_u64().unwrap() > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig {
            n_nodes: 24,
            knn_k: 5,
            depth: 16,
            ..SystemConfig::default()
        };
        let (a, _) = run_world(cfg.clone(), 400, 10.0);
        let (b, _) = run_world(cfg, 400, 10.0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hops, y.hops);
            assert_eq!(x.query_bytes, y.query_bytes);
            assert_eq!(x.response_ms, y.response_ms);
            assert_eq!(
                x.results.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
                y.results.iter().map(|&(o, _)| o).collect::<Vec<_>>()
            );
        }
    }
}
