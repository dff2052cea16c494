//! The bench-owned in-process sans-io driver behind the traced run.
//!
//! It replays a cluster workload's op list through N [`SearchNode`]s
//! built exactly as `node::runtime::run_server` builds them, carrying
//! every message through `encode_frame` → `decode_frame` →
//! `sansio::dispatch` with one span per call. No sockets, threads or
//! channels: what this driver costs per query is what the *layers*
//! cost, and the cluster's CPU per op minus that is what the runtime
//! around them costs.
//!
//! `dispatch` is opaque from outside, so a separate pass
//! ([`Mode::Kernels`]) replays, before each dispatch, the inputs the
//! handler is about to see against the public kernels
//! (`route_subquery`/`surrogate_refine` per sub-query; `key_span` +
//! `scan_range`, the exclusion loop and the ranking loop per answered
//! leaf; `Store::insert` per stored publish). The replays are pure, so
//! they change nothing; their scanned-entry and distance-call totals
//! must equal the handlers' own counters or the trace is rejected.
//!
//! Replays and pipeline spans come from different passes on purpose: a
//! replay leaves the store and tables in cache for the dispatch that
//! follows, so timing both in one pass measured the kernels cold and
//! the handlers warm, and `wide`'s kernels came out costing more than
//! the handlers that contain them.

use crate::gen::{answer_bits, ClusterInputs, Op, QueryOp};
use crate::load::CONNS;
use crate::trace::{Spans, ROOT};
use lph::Rect;
use metric::ObjectId;
use node::scenario::{l2, rotation, KNN_K};
use node::wire::{decode_frame, encode_frame, Frame};
use sansio::{dispatch, Input, Links, Output, ProtoCtx};
use simnet::{AgentId, SimDuration, SimTime};
use simsearch::msg::DistanceOracle;
use simsearch::node::IndexState;
use simsearch::routing::{route_subquery, surrogate_refine, Action};
use simsearch::{Entry, QueryBall, QueryId, SearchMsg, SearchNode, Store, SubQueryMsg, Telemetry};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The runtime's constant peer round-trip estimate.
struct ConstLinks;

impl Links for ConstLinks {
    fn rtt_to(&self, _other: AgentId) -> SimDuration {
        SimDuration(10_000_000)
    }
}

/// What a node has learned from the frames it handled: the same
/// process-local maps (behind the same kind of lock) the runtime's
/// distance oracle answers from.
#[derive(Default)]
struct OracleData {
    centers: HashMap<QueryId, Arc<[f64]>>,
    points: HashMap<u32, Box<[f64]>>,
}

impl OracleData {
    fn sniff(&mut self, msg: &SearchMsg) {
        let mut center = |sq: &SubQueryMsg| {
            if let Some(ball) = &sq.ball {
                self.centers
                    .entry(sq.qid)
                    .or_insert_with(|| ball.center.clone());
            }
        };
        match msg {
            SearchMsg::Route(subs) => subs.iter().for_each(center),
            SearchMsg::Refine(sq) | SearchMsg::Issue(sq) => center(sq),
            SearchMsg::Publish { entry, .. } => {
                self.points
                    .entry(entry.obj.0)
                    .or_insert_with(|| entry.point.clone());
            }
            _ => {}
        }
    }
}

fn dispatch_span(msg: &SearchMsg) -> &'static str {
    match msg {
        SearchMsg::Issue(_) => "sansio.dispatch.issue",
        SearchMsg::Route(_) => "sansio.dispatch.route",
        SearchMsg::Refine(_) => "sansio.dispatch.refine",
        SearchMsg::Results { .. } => "sansio.dispatch.results",
        SearchMsg::Publish { .. } => "sansio.dispatch.publish",
        _ => "sansio.dispatch.other",
    }
}

/// A message in flight: self-sends skip the codec, as in the runtime.
enum Wire {
    Local(SearchMsg),
    Framed(Vec<u8>),
}

/// Totals the spans cannot carry.
#[derive(Default)]
pub struct Tally {
    pub frames: u64,
    pub frame_bytes: u64,
    pub nodes_touched: u64,
    pub max_hops: Vec<u64>,
    pub replay_scanned: u64,
    pub replay_dist_calls: u64,
    pub queries: u64,
    pub publishes: u64,
}

/// What one pass over the ops records.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// Nothing: the baseline the tracing overhead is measured against.
    Plain,
    /// One span per pipeline call (codec, sniff, dispatch).
    Pipeline,
    /// One span per kernel replay, nothing else.
    Kernels,
}

pub struct Driver {
    mode: Mode,
    nodes: Vec<SearchNode>,
    telemetry: Vec<Telemetry>,
    data: Vec<Arc<Mutex<OracleData>>>,
    /// Per-node copy of the primary store that only the insert replay
    /// writes to.
    shadow: Vec<Store>,
    epoch: Instant,
    queue: VecDeque<(usize, usize, Wire, u32)>,
    touched: BTreeSet<usize>,
    /// The pass's spans (empty in [`Mode::Plain`]).
    pub spans: Spans,
    pub tally: Tally,
}

impl Driver {
    pub fn new(inp: &ClusterInputs, mode: Mode) -> Driver {
        let sc = inp.scenario;
        let grid = Arc::new(sc.grid());
        let mut driver = Driver {
            mode,
            nodes: Vec::new(),
            telemetry: Vec::new(),
            data: Vec::new(),
            shadow: Vec::new(),
            epoch: Instant::now(),
            queue: VecDeque::new(),
            touched: BTreeSet::new(),
            spans: Spans::new(),
            tally: Tally::default(),
        };
        for table in sc.ring().build_all_tables(16, None, 16) {
            let data = Arc::new(Mutex::new(OracleData::default()));
            let oracle_data = Arc::clone(&data);
            let oracle: DistanceOracle = Arc::new(move |qid: QueryId, obj: ObjectId| {
                let d = oracle_data.lock().expect("oracle data lock poisoned");
                l2(&d.centers[&qid], &d.points[&obj.0])
            });
            let mut node = SearchNode::new(
                table,
                vec![IndexState {
                    grid: Arc::clone(&grid),
                    rotation: rotation(),
                    store: Store::new(),
                }],
                oracle,
                KNN_K,
                None,
            );
            let telemetry = Telemetry::new();
            node.attach_telemetry(telemetry.clone());
            driver.nodes.push(node);
            driver.telemetry.push(telemetry);
            driver.data.push(data);
            driver.shadow.push(Store::new());
        }
        driver
    }

    /// Counters summed over every node, as a cluster sweep sums them.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut sum = BTreeMap::new();
        for t in &self.telemetry {
            for (name, v) in t.lock().registry.counters() {
                *sum.entry(name.to_string()).or_insert(0) += v;
            }
        }
        sum
    }

    pub fn loads(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.load() as u64).collect()
    }

    /// Open a pipeline span (a no-op outside [`Mode::Pipeline`]).
    fn open(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        if self.mode == Mode::Pipeline {
            self.spans.open(name, op, parent)
        } else {
            ROOT
        }
    }

    fn close(&mut self, id: u32) {
        if id != ROOT {
            self.spans.close(id);
        }
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce(&mut Driver) -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f(self);
        self.close(id);
        r
    }

    /// Publish one object through `entry_node`, as `handle_client` does.
    pub fn publish(&mut self, entry_node: usize, obj: u32, point: &[f64]) {
        self.tally.publishes += 1;
        let root = self.open("op.publish", obj, ROOT);
        let msg = self.time("runtime.client_publish", obj, root, |d| {
            let point: Box<[f64]> = point.into();
            d.data[entry_node]
                .lock()
                .expect("oracle data lock poisoned")
                .points
                .entry(obj)
                .or_insert_with(|| point.clone());
            let ring_key = d.nodes[entry_node].indexes[0].grid.hash(&point);
            SearchMsg::Publish {
                index: 0,
                entry: Entry {
                    ring_key,
                    obj: ObjectId(obj),
                    point,
                },
                hops: 0,
            }
        });
        self.run_op(obj, entry_node, msg, root);
    }

    /// Issue one query at `origin` and run it to quiescence; errors
    /// unless the origin's merged list is the expected one.
    pub fn query(
        &mut self,
        origin: usize,
        qid: u32,
        op: &QueryOp,
        radius: f64,
    ) -> Result<(), String> {
        self.tally.queries += 1;
        let root = self.open("op.query", qid, ROOT);
        let msg = self.time("runtime.client_issue", qid, root, |d| {
            let center: Arc<[f64]> = op.center.clone().into();
            d.data[origin]
                .lock()
                .expect("oracle data lock poisoned")
                .centers
                .insert(qid, center.clone());
            let grid = d.nodes[origin].indexes[0].grid.clone();
            let rect = Rect::ball(&center, radius, grid.bounds());
            let prefix = grid.enclosing_prefix(&rect);
            SearchMsg::Issue(SubQueryMsg {
                qid,
                index: 0,
                rect,
                prefix,
                hops: 0,
                origin: AgentId(origin),
                ball: Some(QueryBall { center, radius }),
                shortcut: false,
            })
        });
        self.touched.clear();
        self.run_op(qid, origin, msg, root);
        self.tally.nodes_touched += self.touched.len() as u64;
        let iq = &self.nodes[origin].issued[&qid];
        self.tally.max_hops.push(iq.max_hops as u64);
        let merged: Vec<(u32, f64)> = iq.merged.iter().map(|&(o, d)| (o.0, d)).collect();
        if answer_bits(&merged) != op.expected {
            return Err(format!(
                "in-process driver: qid {qid} merged {} entries, expected {}",
                merged.len(),
                op.expected.len()
            ));
        }
        Ok(())
    }

    fn run_op(&mut self, op: u32, at: usize, msg: SearchMsg, root: u32) {
        self.queue.push_back((at, at, Wire::Local(msg), root));
        while let Some((from, to, wire, parent)) = self.queue.pop_front() {
            let span = self.open("msg", op, parent);
            let msg = match wire {
                Wire::Local(msg) => msg,
                Wire::Framed(buf) => {
                    self.time("wire.decode", op, span, |_| match decode_frame(&buf) {
                        Ok(Some((Frame::Search(msg), _))) => msg,
                        other => panic!("own frame did not decode to a search message: {other:?}"),
                    })
                }
            };
            self.feed(op, from, to, msg, span);
            self.close(span);
        }
        self.close(root);
    }

    /// One input through the core, as `Runtime::feed` drives it.
    fn feed(&mut self, op: u32, from: usize, to: usize, msg: SearchMsg, span: u32) {
        self.touched.insert(to);
        self.time("runtime.sniff", op, span, |d| {
            d.data[to]
                .lock()
                .expect("oracle data lock poisoned")
                .sniff(&msg)
        });
        let kernels = self.mode == Mode::Kernels;
        let stored = match &msg {
            SearchMsg::Publish { entry, .. } if kernels => Some(entry.clone()),
            _ => None,
        };
        if kernels {
            self.replay(op, to, &msg);
        }
        let load_before = self.nodes[to].load();
        let n = self.nodes.len();
        let now = SimTime(self.epoch.elapsed().as_nanos() as u64);
        let outputs = self.time(dispatch_span(&msg), op, span, |d| {
            let mut ctx = ProtoCtx::new(AgentId(to), now, n, &ConstLinks);
            dispatch(
                &mut d.nodes[to],
                &mut ctx,
                Input::Message {
                    from: AgentId(from),
                    msg,
                },
            );
            ctx.into_outputs()
        });
        if let Some(entry) = stored.filter(|_| self.nodes[to].load() > load_before) {
            let Driver { spans, shadow, .. } = self;
            spans.time("replay.insert", op, ROOT, || shadow[to].insert(entry));
        }
        for out in outputs {
            let Output::Send { to: dst, msg, .. } = out else {
                continue; // no timers are armed with the resilience layer off
            };
            if dst.0 == to {
                self.queue.push_back((to, to, Wire::Local(msg), span));
                continue;
            }
            let name = match msg {
                SearchMsg::Results { .. } => "wire.encode.results",
                _ => "wire.encode",
            };
            let buf = self.time(name, op, span, |_| encode_frame(&Frame::Search(msg)));
            self.tally.frames += 1;
            self.tally.frame_bytes += buf.len() as u64;
            self.queue.push_back((to, dst.0, Wire::Framed(buf), span));
        }
    }

    /// Replay what the handler of `msg` at node `at` is about to do
    /// against the public kernels. Pure: runs before the dispatch, on
    /// the state the dispatch will see.
    fn replay(&mut self, op: u32, at: usize, msg: &SearchMsg) {
        let span = ROOT;
        let subs: Vec<(&SubQueryMsg, bool)> = match msg {
            SearchMsg::Issue(sq) => vec![(sq, false)],
            SearchMsg::Route(subs) => subs.iter().map(|sq| (sq, false)).collect(),
            SearchMsg::Refine(sq) => vec![(sq, true)],
            _ => return,
        };
        let Driver {
            nodes,
            spans,
            tally,
            ..
        } = self;
        let node = &nodes[at];
        let ix = &node.indexes[0];
        let mut leaves: BTreeMap<QueryId, Vec<SubQueryMsg>> = BTreeMap::new();
        for (sq, refine) in subs {
            let sq = sq.clone();
            let actions = spans.time("replay.route", op, span, || {
                if refine {
                    surrogate_refine(&node.table, &ix.grid, ix.rotation, sq, true)
                } else {
                    route_subquery(&node.table, &ix.grid, ix.rotation, sq, true)
                }
            });
            for a in actions {
                if let Action::Answer(sq) = a {
                    leaves.entry(sq.qid).or_default().push(sq);
                }
            }
        }
        for (qid, fragments) in leaves {
            let bounds = ix.grid.bounds();
            let hits = spans.time("replay.scan", op, span, || {
                let mut hits = Vec::new();
                for f in &fragments {
                    let (lo, hi) = ix.grid.key_span(&f.rect);
                    let (h, work) = ix
                        .store
                        .scan_range(&f.rect, (ix.rotation.to_ring(lo), ix.rotation.to_ring(hi)));
                    tally.replay_scanned += work.scanned as u64;
                    hits.extend(h);
                }
                hits
            });
            let ball = fragments[0]
                .ball
                .as_ref()
                .expect("every benchmark query carries its ball");
            // The candidate loop of the answering handler: dedup by
            // object, drop what the L∞ bound excludes, keep the bound.
            let cands = spans.time("replay.prune", op, span, || {
                let mut cands: Vec<(ObjectId, f64)> = Vec::new();
                let mut pruned: Vec<ObjectId> = Vec::new();
                for e in hits {
                    if cands.iter().any(|(o, _)| *o == e.obj) || pruned.contains(&e.obj) {
                        continue;
                    }
                    if ball.excludes(&e.point, bounds) {
                        pruned.push(e.obj);
                    } else {
                        cands.push((e.obj, ball.lower_bound(&e.point, bounds)));
                    }
                }
                cands
            });
            // The ranking loop: true distance unless the bound already
            // exceeds the k-th best.
            let calls = spans.time("replay.dist", op, span, || {
                let mut ranked: Vec<(ObjectId, f64)> = Vec::new();
                let mut calls = 0;
                for (o, lb) in cands {
                    if ranked.len() == node.knn_k
                        && ranked.last().is_some_and(|&(_, worst)| lb > worst)
                    {
                        continue;
                    }
                    let d = node.oracle.distance(qid, o);
                    calls += 1;
                    let pos =
                        ranked.partition_point(|x| x.1.total_cmp(&d).then(x.0.cmp(&o)).is_lt());
                    ranked.insert(pos, (o, d));
                    ranked.truncate(node.knn_k);
                }
                std::hint::black_box(ranked);
                calls
            });
            tally.replay_dist_calls += calls;
        }
    }
}

/// Replay a cluster lap: the corpus publish, then the lap's ops with
/// the connections taking turns. Returns the wall time and counter
/// delta of the op phase, and the index of its first span.
pub fn replay_ops(
    driver: &mut Driver,
    corpus: &[Vec<f64>],
    ops: &[Vec<Op>],
    origins: &[usize],
    radius: f64,
) -> Result<(std::time::Duration, BTreeMap<String, u64>, usize), String> {
    let n = driver.nodes.len();
    for (obj, point) in corpus.iter().enumerate() {
        driver.publish((obj % CONNS) % n, obj as u32, point);
    }
    let before = driver.counters();
    let mark = driver.spans.spans.len();
    let t0 = Instant::now();
    let longest = ops.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (conn, list) in ops.iter().enumerate() {
            match list.get(i) {
                Some(Op::Publish { obj, point }) => driver.publish(origins[conn], *obj, point),
                Some(Op::Query(q)) => {
                    driver.query(origins[conn], (i * ops.len() + conn) as u32, q, radius)?
                }
                None => {}
            }
        }
    }
    let wall = t0.elapsed();
    let delta = crate::stats::delta(&driver.counters(), &before);
    Ok((wall, delta, mark))
}
