//! The index node as a sans-io [`simnet::Protocol`]: executes routing
//! actions as messages, answers queries from its local store, and
//! records each query's costs on its trace, the one per-query record the
//! experiments report from. Each job has one path: `route_all` routes or
//! refines a round of fragments, `send_query` prices and traces every
//! query delivery, `record_answer` traces every local answer, and
//! `insert_ranked` is the one ranking. Telemetry is always on: every
//! node records into a handle, its own or its system's. The deterministic
//! simulator drives this state machine directly; `crates/node` drives it
//! over real sockets.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use chord::RoutingTable;
use lph::{Grid, Rotation};
use metric::ObjectId;
use simnet::telemetry::{CounterId as C, HistogramId as H};
use simnet::{AgentId, ProtoCtx, Protocol, SimDuration, SimTime, TimerTag};

use crate::msg::{
    ack_msg_bytes, msg_bytes, tracked_overhead_bytes, DistanceOracle, QueryId, SearchMsg,
    SubQueryMsg,
};
use crate::overlay::{FailureAware, OverlayTable};
use crate::resilience::{ResilienceConfig, SuspicionSet, MAX_RETRIES};
use crate::store::{Entry, Store};
use crate::telemetry::Telemetry;

mod answer;
mod round;
mod tracking;

/// One co-hosted index scheme's node-local state.
pub struct IndexState {
    /// The shared bisection grid over this index's space.
    pub grid: Arc<Grid>,
    /// This index's rotation offset (static load balancing).
    pub rotation: Rotation,
    /// Entries this node owns.
    pub store: Store,
}

/// Origin-side record of a query this node issued.
#[derive(Clone, Debug)]
pub struct IssuedQuery {
    /// When the query entered the system.
    pub issued_at: SimTime,
    /// Arrival of the first result message.
    pub first_result: Option<SimTime>,
    /// Arrival of the last result message seen.
    pub last_result: Option<SimTime>,
    /// Maximum query-delivery path length over all responding index nodes.
    pub max_hops: u32,
    /// Number of result messages received.
    pub responses: u32,
    /// Merged `(object, distance)` results, ascending distance, capped at
    /// the system's `k` and deduplicated by object.
    pub merged: Vec<(ObjectId, f64)>,
    /// True when any answering node flagged its reply as degraded: part
    /// of the queried key range was lost with a dead node no replicas
    /// exist for, so the merged result may be incomplete.
    pub degraded: bool,
}

impl IssuedQuery {
    /// `|truth ∩ merged| / |truth|`, and 1.0 for an empty truth: the
    /// one recall rule of `SearchSystem` and the scenario runner.
    pub fn recall(&self, truth: &[ObjectId]) -> f64 {
        let hit = |t: &&ObjectId| self.merged.iter().any(|&(o, _)| o == **t);
        match truth.len() {
            0 => 1.0,
            n => truth.iter().filter(hit).count() as f64 / n as f64,
        }
    }
}

/// Insert `hit` into `ranked`, kept ascending by distance then object
/// id, and keep the best `k`. The list never holds more than `k`, and
/// its buffer doubles as a `Vec`'s does but stops at `k`, so a list that
/// fills ends at exactly `k` slots. Every ranking in the node — an answerer's
/// reply and the origin's merge — goes through here, so the origin
/// merges in exactly the order answerers rank. `total_cmp`, not
/// `partial_cmp().unwrap()`: a NaN distance from a degenerate oracle
/// must not panic the node mid-query, and a `<` on f64 would break
/// `partition_point`'s precondition for every later entry.
fn insert_ranked(ranked: &mut Vec<(ObjectId, f64)>, hit: (ObjectId, f64), k: usize) {
    let (obj, d) = hit;
    let precedes = |&(o, x): &(ObjectId, f64)| x.total_cmp(&d).then(o.cmp(&obj)).is_lt();
    // A full list the hit does not beat: one comparison, the common case.
    if ranked.len() >= k && ranked.last().is_none_or(precedes) {
        return;
    }
    let pos = ranked.partition_point(precedes);
    if pos < k {
        ranked.truncate(k - 1);
        let len = ranked.len();
        if len == ranked.capacity() {
            ranked.reserve_exact((2 * len).max(4).min(k) - len);
        }
        ranked.insert(pos, hit);
    }
}

/// What one local answering pass produced.
struct AnswerCore {
    /// The node's `k` best candidates by true distance, sorted.
    ranked: Vec<(ObjectId, f64)>,
    /// True when part of the queried range is known lost.
    degraded: bool,
    /// Store entries rect-tested.
    scanned: u64,
    /// Entries whose rect matched a fragment.
    matched: u64,
    /// Entries passed over without a rect test (outside the key span, or
    /// in a block whose bounds miss the fragment).
    skipped: u64,
    /// Candidates dropped by radius or lower-bound pruning.
    pruned: u64,
    /// True-distance evaluations performed.
    dist_calls: u64,
    /// Candidates contributed from replicas of suspected owners.
    replica_answers: u64,
}

/// An unacknowledged cross-host message awaiting its retransmit timer.
struct PendingSend {
    /// Destination address.
    to: AgentId,
    /// Destination's ring identifier, when the routing table knows it —
    /// the id that gets suspected if every retry times out.
    dst_id: Option<u64>,
    /// The unwrapped payload (re-wrapped with a fresh dead-list on each
    /// retransmission).
    msg: SearchMsg,
    /// Payload wire size (without the tracking envelope).
    bytes: u32,
    /// Retransmissions performed so far.
    attempts: u32,
    /// The first timeout used; backoff grows geometrically from it.
    first_timeout: SimDuration,
}

/// A node of the distributed index.
pub struct SearchNode {
    /// Chord routing state (pre-stabilized).
    pub table: RoutingTable,
    /// Per-index grid/rotation/store.
    pub indexes: Vec<IndexState>,
    /// True-distance oracle for ranking local candidates. The node only
    /// ever calls [`crate::QueryDistance::refine`], passing the ball and
    /// the admitted copy's stored vector.
    pub oracle: DistanceOracle,
    /// How many nearest local results an index node returns (paper: 10).
    pub knn_k: usize,
    /// `Some(level)` switches this node to the naive routing baseline:
    /// the issuing node decomposes the query into all level-`level`
    /// cuboids and routes each independently.
    pub naive_level: Option<u32>,
    /// Queries this node originated.
    pub issued: HashMap<QueryId, IssuedQuery>,
    /// Telemetry this node records every counter and trace event into:
    /// a fresh handle of its own from [`SearchNode::new`], or the one its
    /// system shares across nodes after [`SearchNode::attach_telemetry`].
    /// No node runs untraced.
    pub telemetry: Telemetry,
    /// Also maintain per-index namespaced counters (`index{i}.*`) next
    /// to the global ones. Off by default: extra registry keys would
    /// perturb historical golden snapshots.
    pub index_telemetry: bool,
    /// `Some` switches on retry/failover and replica answering. `None`
    /// (the default) keeps the wire protocol byte-identical to the
    /// pre-resilience implementation.
    pub resilience: Option<ResilienceConfig>,
    /// Ring ids this node currently believes dead (local suspicion +
    /// gossip merged from tracking envelopes).
    pub suspected: SuspicionSet,
    /// Next tracking-envelope sequence number (monotonic per node).
    next_seq: u64,
    /// Unacked tracked sends, keyed by sequence number.
    pending: BTreeMap<u64, PendingSend>,
    /// `(sender, seq)` pairs already processed — retransmissions and
    /// network duplicates are acked again but executed only once.
    seen_tracked: HashSet<(usize, u64)>,
}

impl SearchNode {
    /// Build a node from its routing table and per-index state.
    pub fn new(
        table: RoutingTable,
        indexes: Vec<IndexState>,
        oracle: DistanceOracle,
        knn_k: usize,
        naive_level: Option<u32>,
    ) -> SearchNode {
        SearchNode {
            table,
            indexes,
            oracle,
            knn_k,
            naive_level,
            issued: HashMap::new(),
            telemetry: Telemetry::new(),
            index_telemetry: false,
            resilience: None,
            suspected: SuspicionSet::new(),
            next_seq: 0,
            pending: BTreeMap::new(),
            seen_tracked: HashSet::new(),
        }
    }

    /// Replace the node's telemetry handle with `telemetry` (a system's
    /// handle, shared across its nodes).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Switch on retry/failover, replica answering, and failure-aware
    /// routing with the given knobs.
    pub fn enable_resilience(&mut self, rc: ResilienceConfig) {
        rc.validate();
        self.resilience = Some(rc);
    }

    /// Increment the per-index twin of a global counter — a no-op unless
    /// per-index namespacing is on (see
    /// [`crate::system::SystemConfig::index_telemetry`]).
    fn incr_index(&self, index: u8, what: &str, by: u64) {
        if self.index_telemetry && by > 0 {
            self.telemetry.incr(&format!("index{index}.{what}"), by);
        }
    }

    /// Forget the oldest queries this node touched until at most `keep`
    /// remain: each one's telemetry trace and [`Self::issued`] entry.
    /// Age is first touch at this node — the first event on the query's
    /// trace: an issue, a routing step, or a message sent on the query's
    /// behalf — and a query touched again after retirement starts over
    /// as the newest. Amortised O(1) per query; a no-op while at most
    /// `keep` queries are held.
    ///
    /// Age is read from the attached telemetry, so only a driver that
    /// gives each node a handle of its own may call this (the socket
    /// runtime does; the simulator, whose nodes share one, never
    /// retires). Such a driver never reaches quiescence, so this also
    /// trims the traces once more than `keep` logs grew since the last
    /// trim, which bounds the list of grown logs.
    pub fn retire_oldest(&mut self, keep: usize) {
        let mut st = self.telemetry.lock();
        while let Some(qid) = st.pop_oldest_beyond(keep) {
            self.issued.remove(&qid);
        }
        if st.grown.len() > keep {
            st.trim();
        }
    }

    /// Total entries stored across all indexes — the node's load.
    pub fn load(&self) -> usize {
        self.indexes.iter().map(|ix| ix.store.load()).sum()
    }

    fn k_of(&self, index: u8) -> usize {
        self.indexes[index as usize].grid.dims()
    }

    fn on_issue(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, sq: SubQueryMsg) {
        self.telemetry.begin_query(sq.qid, ctx.me());
        self.issued.insert(
            sq.qid,
            IssuedQuery {
                issued_at: ctx.now(),
                first_result: None,
                last_result: None,
                max_hops: 0,
                responses: 0,
                merged: Vec::new(),
                degraded: false,
            },
        );
        let Some(level) = self.naive_level else {
            return self.route_all(ctx, vec![sq]);
        };
        // Naive baseline: decompose fully at the issuing node and route
        // every cuboid independently (no shared paths).
        let grid = &self.indexes[sq.index as usize].grid;
        let fragments = grid
            .decompose(&sq.rect, level.min(grid.depth()))
            .into_iter()
            .map(|part| SubQueryMsg {
                rect: part.rect,
                prefix: part.prefix,
                ..sq.clone()
            })
            .collect();
        self.route_all(ctx, fragments);
    }

    fn on_results(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        qid: QueryId,
        hops: u32,
        entries: Vec<(ObjectId, f64)>,
        degraded: bool,
    ) {
        let k = self.knn_k;
        let Some(iq) = self.issued.get_mut(&qid) else {
            return; // results for a query we did not issue: ignore
        };
        let now = ctx.now();
        iq.first_result.get_or_insert(now);
        iq.last_result = Some(now);
        iq.max_hops = iq.max_hops.max(hops);
        iq.responses += 1;
        iq.degraded |= degraded;
        for (obj, d) in entries {
            if !iq.merged.iter().any(|&(o, _)| o == obj) {
                insert_ranked(&mut iq.merged, (obj, d), k);
            }
        }
    }

    /// Route or store one published entry, with `route_all`'s next-hop
    /// rule: it stops here when this node owns its key or the table names
    /// this node (never a wire message to itself). In resilient mode a
    /// stored entry is pushed to `replication - 1` ring successors.
    fn on_publish(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        index: u8,
        entry: Entry,
        hops: u32,
    ) {
        let table = FailureAware::new(&self.table, self.suspected.as_set());
        let Some((next, _)) = table.next_hop(chord::ChordId(entry.ring_key)) else {
            return self.store_publish(ctx, index, entry, hops);
        };
        let msg = SearchMsg::Publish {
            index,
            entry,
            hops: hops + 1,
        };
        let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
        self.telemetry.incr_id(C::SearchMsgsPublish, 1);
        self.telemetry.incr_id(C::SearchBytesPublish, bytes as u64);
        self.send_search(ctx, next, msg, bytes);
    }

    fn store_publish(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        index: u8,
        entry: Entry,
        hops: u32,
    ) {
        self.telemetry.incr_id(C::PublishStored, 1);
        self.telemetry.observe_id(H::PublishHops, hops as u64);
        self.incr_index(index, "published", 1);
        self.indexes[index as usize].store.insert(entry.clone());
        self.replicate_out(ctx, index, entry);
    }
}

impl Protocol for SearchNode {
    type Msg = SearchMsg;

    fn on_message(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, from: AgentId, msg: SearchMsg) {
        match msg {
            SearchMsg::Issue(sq) => self.on_issue(ctx, sq),
            SearchMsg::Route(subs) => self.route_all(ctx, subs),
            SearchMsg::Refine(mut sq) => {
                sq.shortcut = true;
                self.route_all(ctx, vec![sq])
            }
            SearchMsg::Results {
                qid,
                hops,
                entries,
                degraded,
            } => {
                self.on_results(ctx, qid, hops, entries, degraded);
            }
            SearchMsg::Publish { index, entry, hops } => {
                self.on_publish(ctx, index, entry, hops);
            }
            SearchMsg::Replicate {
                index,
                owner,
                entry,
            } => {
                self.telemetry.incr_id(C::ReplicateStored, 1);
                self.indexes[index as usize].store.put_replica(owner, entry);
            }
            SearchMsg::Tracked { seq, dead, inner } => {
                // Ack first. In the simulator the ack and the processing
                // below happen inside one delivery event, so there is no
                // acked-then-crashed window: either both occurred or the
                // message (and its ack) never arrived and the sender
                // retries.
                ctx.send(from, SearchMsg::Ack { seq }, ack_msg_bytes());
                let me_id = self.table.me().id.0;
                for d in dead {
                    if d != me_id {
                        self.suspected.insert(d);
                    }
                }
                if !self.seen_tracked.insert((from.0, seq)) {
                    // Retransmission or network duplicate of a payload
                    // already executed: ack again (above), run nothing.
                    self.telemetry.incr_id(C::ResilienceDupDropped, 1);
                    return;
                }
                Protocol::on_message(self, ctx, from, *inner);
            }
            SearchMsg::Ack { seq } => {
                if self.pending.remove(&seq).is_some() {
                    self.telemetry.incr_id(C::ResilienceAcked, 1);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, tag: TimerTag) {
        let seq = tag.0;
        let Some(mut p) = self.pending.remove(&seq) else {
            return; // acked in the meantime
        };
        let Some(rc) = &self.resilience else {
            return;
        };
        if p.attempts < MAX_RETRIES {
            p.attempts += 1;
            let dead: Vec<u64> = self.suspected.iter().collect();
            let wire_bytes = p.bytes + tracked_overhead_bytes(dead.len());
            let wire = SearchMsg::Tracked {
                seq,
                dead,
                inner: Box::new(p.msg.clone()),
            };
            let delay = rc.backoff_timeout(p.first_timeout, p.attempts);
            self.telemetry.incr_id(C::ResilienceRetries, 1);
            ctx.schedule(delay, TimerTag(seq));
            ctx.send(p.to, wire, wire_bytes);
            self.pending.insert(seq, p);
        } else {
            // Retry budget exhausted: suspect the destination and route
            // the payload around it.
            if let Some(id) = p.dst_id {
                if id != self.table.me().id.0 {
                    self.suspected.insert(id);
                }
            }
            self.telemetry.incr_id(C::ResilienceFailovers, 1);
            self.redispatch(ctx, p.msg);
        }
    }

    fn on_crash(&mut self) {
        // The simulator discarded this host's timers with the crash;
        // clear the bookkeeping that assumed they would fire. In-flight
        // requests die here — the *senders'* retry timers cover them.
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{QueryBall, QueryDistance};
    use crate::store::Entry;
    use crate::telemetry::{TraceEvent, TraceLog};
    use chord::{NodeRef, OracleRing};
    use lph::{Prefix, Rect};
    use simnet::{Input, Output, Sim, SimTime, Topology};
    use std::collections::VecDeque;

    /// Two-node world over a 1-D [0,8) index space, depth 3, whose
    /// oracle's distance is the object id.
    fn build() -> (Sim<SearchNode>, OracleRing, Arc<Grid>) {
        build_with(Arc::new(|_q: QueryId, o: ObjectId| o.0 as f64))
    }

    /// The same world around any oracle.
    fn build_with(oracle: DistanceOracle) -> (Sim<SearchNode>, OracleRing, Arc<Grid>) {
        build_ring(&[3u64 << 61, 7u64 << 61], oracle)
    }

    /// The [0,8) world, one object per cell, on a ring of nodes with
    /// these ids.
    fn build_ring(ids: &[u64], oracle: DistanceOracle) -> (Sim<SearchNode>, OracleRing, Arc<Grid>) {
        let grid = Arc::new(Grid::new(Rect::cube(1, 0.0, 8.0), 3));
        let ring = OracleRing::new(
            ids.iter()
                .enumerate()
                .map(|(a, &id)| NodeRef::new(id, a))
                .collect(),
        );
        let tables = ring.build_all_tables(16, None, 16);
        // Objects: one per cell center, object id = cell.
        let nodes: Vec<SearchNode> = tables
            .into_iter()
            .map(|t| {
                let mut st = Store::new();
                for cell in 0..8u64 {
                    let key = cell << 61;
                    let owner = ring.owner_of(chord::ChordId(key));
                    if owner.id == t.me().id {
                        st.insert(Entry {
                            ring_key: key,
                            obj: ObjectId(cell as u32),
                            point: vec![cell as f64 + 0.5].into_boxed_slice(),
                        });
                    }
                }
                SearchNode::new(
                    t,
                    vec![IndexState {
                        grid: Arc::clone(&grid),
                        rotation: Rotation::IDENTITY,
                        store: st,
                    }],
                    Arc::clone(&oracle),
                    10,
                    None,
                )
            })
            .collect();
        let topo = Topology::uniform(ids.len(), SimTime::from_millis(100));
        (Sim::new(topo, nodes, 1), ring, grid)
    }

    /// `cost` of every trace every node holds, summed.
    fn traced_total(sim: &Sim<SearchNode>, cost: impl Fn(&TraceLog) -> u64) -> u64 {
        sim.agents()
            .map(|n| n.telemetry.lock().traces.values().map(&cost).sum::<u64>())
            .sum()
    }

    fn issue(rect: Rect, grid: &Grid, qid: QueryId) -> SearchMsg {
        let prefix = grid.enclosing_prefix(&rect);
        SearchMsg::Issue(SubQueryMsg {
            qid,
            index: 0,
            rect,
            prefix,
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        })
    }

    #[test]
    fn full_range_query_finds_everything() {
        let (mut sim, _ring, grid) = build();
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let iq = &sim.agent(AgentId(0)).issued[&0];
        let found: Vec<u32> = iq.merged.iter().map(|&(o, _)| o.0).collect();
        assert_eq!(found, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(iq.responses >= 2, "both owners must reply");
        assert!(iq.first_result.is_some());
        assert!(iq.last_result.unwrap() >= iq.first_result.unwrap());
    }

    #[test]
    fn narrow_query_finds_only_matching() {
        let (mut sim, _ring, grid) = build();
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![4.2], vec![5.8]), &grid, 7),
        );
        sim.run();
        let iq = &sim.agent(AgentId(0)).issued[&7];
        let found: Vec<u32> = iq.merged.iter().map(|&(o, _)| o.0).collect();
        assert_eq!(found, vec![4, 5]);
    }

    #[test]
    fn results_ranked_by_oracle_distance_and_capped() {
        let (mut sim, _, _grid) = build();
        // knn_k = 10 > 8 objects, so all 8 come back ranked by obj id
        // (the oracle uses obj id as distance).
        sim.inject(
            SimTime::ZERO,
            AgentId(1),
            SearchMsg::Issue(SubQueryMsg {
                qid: 3,
                index: 0,
                rect: Rect::new(vec![0.0], vec![8.0]),
                prefix: Prefix::ROOT,
                hops: 0,
                origin: AgentId(1),
                ball: None,
                shortcut: false,
            }),
        );
        sim.run();
        let iq = &sim.agent(AgentId(1)).issued[&3];
        let dists: Vec<f64> = iq.merged.iter().map(|&(_, d)| d).collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(dists, sorted);
        assert_eq!(iq.merged.len(), 8);
    }

    #[test]
    fn a_ranking_keeps_the_best_k_in_at_most_k_slots() {
        // Worst first, so every hit lands at the head and displaces the
        // tail once the list is full.
        for (k, hits, slots) in [(10, 25, 10), (10, 3, 4), (3, 9, 3), (1, 5, 1)] {
            let mut ranked = Vec::new();
            for i in (0..hits).rev() {
                insert_ranked(&mut ranked, (ObjectId(i), f64::from(i)), k);
            }
            let want: Vec<u32> = (0..hits.min(k as u32)).collect();
            let got: Vec<u32> = ranked.iter().map(|&(o, _)| o.0).collect();
            assert_eq!(got, want, "k {k}");
            assert_eq!(ranked.capacity(), slots, "k {k}, {hits} hits");
        }
    }

    #[test]
    fn a_nan_distance_merges_where_the_answering_node_ranks_it() {
        // Distance = id, except object 2 whose distance is NaN. With
        // k = 4, node 0 (cells 0..=3) replies [0, 1, 3, NaN], so the NaN
        // reaches the origin and must not displace object 4.
        let oracle = |_q: QueryId, o: ObjectId| if o.0 == 2 { f64::NAN } else { o.0 as f64 };
        let (mut sim, _ring, grid) = build_with(Arc::new(oracle));
        let k = 4;
        for a in 0..2 {
            sim.agent_mut(AgentId(a)).knn_k = k;
        }
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let mut want: Vec<(ObjectId, f64)> = (0..8)
            .map(|o| (ObjectId(o), oracle(0, ObjectId(o))))
            .collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(k);
        let bits = |v: &[(ObjectId, f64)]| -> Vec<(u32, u64)> {
            v.iter().map(|&(o, d)| (o.0, d.to_bits())).collect()
        };
        let got = &sim.agent(AgentId(0)).issued[&0].merged;
        assert_eq!(bits(got), bits(&want));
        assert_eq!(
            got.iter().map(|&(o, _)| o.0).collect::<Vec<_>>(),
            [0, 1, 3, 4]
        );
    }

    #[test]
    fn bandwidth_accounting_matches_sim_totals() {
        let (mut sim, _, grid) = build();
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let total = traced_total(&sim, |t| {
            let s = t.summary();
            s.query_bytes + s.result_bytes
        });
        // Self-sends (origin answering itself) carry no network bytes in
        // sim stats but are attributed in node accounting; so node totals
        // >= wire totals, and both are nonzero here.
        assert!(sim.stats().bytes > 0);
        assert!(total >= sim.stats().bytes);
    }

    #[test]
    fn hops_reflect_path_length() {
        let (mut sim, _, grid) = build();
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let iq = &sim.agent(AgentId(0)).issued[&0];
        // Two nodes: the remote owner is one hop away.
        assert!(iq.max_hops >= 1);
        assert!(iq.max_hops <= 3);
    }

    #[test]
    fn telemetry_traces_a_query_end_to_end() {
        let (mut sim, _ring, grid) = build();
        let tel = crate::telemetry::Telemetry::new();
        for a in 0..2 {
            sim.agent_mut(AgentId(a)).attach_telemetry(tel.clone());
        }
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let trace = tel.trace(0).unwrap();
        assert_eq!(trace.origin, 0);
        let s = trace.summary();
        assert!(s.answers >= 2, "both owners answer: {s:?}");
        assert!(s.forwards + s.handoffs >= 1, "query must travel: {s:?}");
        assert_eq!(s.returned, 8, "all 8 objects come back: {s:?}");
        assert!(s.query_bytes > 0 && s.result_bytes > 0);
        // Registry counters agree with the trace roll-up.
        let st = tel.lock();
        assert_eq!(st.registry.counter("store.entries_scanned"), s.scanned);
        assert_eq!(st.registry.counter("store.entries_matched"), s.matched);
        assert_eq!(st.registry.counter("search.bytes.results"), s.result_bytes);
    }

    #[test]
    fn an_object_on_a_split_midpoint_is_answered_once() {
        let (mut sim, _ring, grid) = build();
        // Node 0 owns cells 0..=3. An object at exactly 2.0 — the
        // midpoint both fragments below end on — hashes to cell 1 (the
        // lower half) and lies in both closed rects.
        let node = sim.agent_mut(AgentId(0));
        node.indexes[0].store.insert(Entry {
            ring_key: grid.hash(&[2.0]),
            obj: ObjectId(100),
            point: vec![2.0].into_boxed_slice(),
        });
        let fragment = |lo: f64, hi: f64, key: u64| SubQueryMsg {
            qid: 0,
            index: 0,
            rect: Rect::new(vec![lo], vec![hi]),
            prefix: Prefix::of_key(key << 62, 2),
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        };
        let fragments = [fragment(0.5, 2.0, 0b00), fragment(2.0, 3.5, 0b01)];
        let core = node.collect_answer(0, 0, &fragments);
        // Each fragment matched three entries, object 100 both times...
        assert_eq!(core.matched, 6);
        assert_eq!(core.scanned + core.skipped, 2 * 5);
        // ...but it is ranked and measured once, where the first
        // fragment's scan met it (the oracle's distance is the object id).
        let ranked: Vec<u32> = core.ranked.iter().map(|&(o, _)| o.0).collect();
        assert_eq!(ranked, vec![0, 1, 2, 3, 100]);
        assert_eq!(core.dist_calls, 5);
        assert_eq!(core.pruned, 0);
    }

    #[test]
    fn an_object_published_twice_is_answered_once() {
        let (mut sim, _ring, grid) = build();
        let tel = crate::telemetry::Telemetry::new();
        for a in 0..2 {
            sim.agent_mut(AgentId(a)).attach_telemetry(tel.clone());
        }
        // The same entry arrives twice at a node that does not own it.
        for _ in 0..2 {
            sim.inject(
                SimTime::ZERO,
                AgentId(0),
                SearchMsg::Publish {
                    index: 0,
                    entry: Entry {
                        ring_key: grid.hash(&[6.25]),
                        obj: ObjectId(100),
                        point: vec![6.25].into_boxed_slice(),
                    },
                    hops: 0,
                },
            );
        }
        sim.run();
        assert_eq!(sim.agent(AgentId(1)).indexes[0].store.load(), 4 + 2);
        sim.inject(
            sim.now(),
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let iq = &sim.agent(AgentId(0)).issued[&0];
        let found: Vec<u32> = iq.merged.iter().map(|&(o, _)| o.0).collect();
        assert_eq!(found, vec![0, 1, 2, 3, 4, 5, 6, 7, 100]);
        // Both stored copies match the rect; one distance is computed.
        let st = tel.lock();
        assert_eq!(st.registry.counter("store.entries_matched"), 10);
        assert_eq!(st.registry.counter("search.refine.dist_calls"), 9);
    }

    /// One refinement call: `(qid, object, ball center, stored vector)`.
    type Call = (QueryId, u32, Option<Vec<f64>>, Vec<f64>);

    /// An oracle that can only refine: `distance` panics, and `refine`
    /// records what it was handed and answers with the stored vector's
    /// first coordinate.
    #[derive(Default)]
    struct RefineOnly {
        calls: std::sync::Mutex<Vec<Call>>,
    }

    impl QueryDistance for RefineOnly {
        fn distance(&self, qid: QueryId, obj: ObjectId) -> f64 {
            panic!("SearchNode called distance({qid}, {}), not refine", obj.0)
        }

        fn refine(
            &self,
            qid: QueryId,
            obj: ObjectId,
            ball: Option<&QueryBall>,
            stored: &[f64],
        ) -> f64 {
            let center = ball.map(|b| b.center.to_vec());
            let mut calls = self.calls.lock().unwrap();
            calls.push((qid, obj.0, center, stored.to_vec()));
            stored[0]
        }
    }

    impl RefineOnly {
        /// The calls so far, by object id.
        fn calls(&self) -> Vec<Call> {
            let mut calls = self.calls.lock().unwrap().clone();
            calls.sort_by_key(|c| c.1);
            calls
        }
    }

    fn refine_only() -> (Arc<RefineOnly>, (Sim<SearchNode>, OracleRing, Arc<Grid>)) {
        let oracle = Arc::new(RefineOnly::default());
        (Arc::clone(&oracle), build_with(oracle))
    }

    /// A query at node 0 whose fragment carries its ball.
    fn ball_query(qid: QueryId, center: f64, radius: f64, grid: &Grid) -> SubQueryMsg {
        let rect = Rect::ball(&[center], radius, grid.bounds());
        SubQueryMsg {
            qid,
            index: 0,
            prefix: grid.enclosing_prefix(&rect),
            rect,
            hops: 0,
            origin: AgentId(0),
            ball: Some(QueryBall {
                center: Arc::from(vec![center]),
                radius,
            }),
            shortcut: false,
        }
    }

    /// The calls of query `qid` at `center` for every cell object.
    fn cell_calls(qid: QueryId, center: f64) -> Vec<Call> {
        (0..8u32)
            .map(|c| (qid, c, Some(vec![center]), vec![f64::from(c) + 0.5]))
            .collect()
    }

    #[test]
    fn the_primary_arm_refines_from_the_ball_and_the_stored_vector() {
        let (oracle, (mut sim, _ring, grid)) = refine_only();
        let sq = ball_query(5, 4.0, 4.0, &grid);
        sim.inject(SimTime::ZERO, AgentId(0), SearchMsg::Issue(sq));
        sim.run();
        let merged: Vec<(u32, f64)> = sim.agent(AgentId(0)).issued[&5]
            .merged
            .iter()
            .map(|&(o, d)| (o.0, d))
            .collect();
        let want: Vec<(u32, f64)> = (0..8u32).map(|c| (c, f64::from(c) + 0.5)).collect();
        assert_eq!(merged, want);
        assert_eq!(oracle.calls(), cell_calls(5, 4.0));
    }

    #[test]
    fn the_replica_arm_refines_from_the_replica_copy() {
        let (oracle, (mut sim, _ring, grid)) = refine_only();
        // Node 1 (ring id 7 << 61, owner of cells 4..=7) is suspected
        // dead, and node 0 holds its replica of object 100.
        let node = sim.agent_mut(AgentId(0));
        node.enable_resilience(ResilienceConfig::default());
        node.suspected.insert(7 << 61);
        node.indexes[0].store.put_replica(
            7 << 61,
            Entry {
                ring_key: grid.hash(&[6.25]),
                obj: ObjectId(100),
                point: vec![6.25].into_boxed_slice(),
            },
        );
        let core = node.collect_answer(9, 0, &[ball_query(9, 4.0, 4.0, &grid)]);
        assert_eq!(core.replica_answers, 1);
        let ranked: Vec<(u32, f64)> = core.ranked.iter().map(|&(o, d)| (o.0, d)).collect();
        assert_eq!(
            ranked,
            vec![(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5), (100, 6.25)]
        );
        let mut want = cell_calls(9, 4.0);
        want.truncate(4);
        want.push((9, 100, Some(vec![4.0]), vec![6.25]));
        assert_eq!(oracle.calls(), want);
    }

    #[test]
    fn an_object_published_twice_is_ranked_by_its_first_admitted_copy() {
        let (oracle, (mut sim, _ring, grid)) = refine_only();
        // Two copies of object 100 under node 1's cell-6 key, the farther
        // one first: equal keys keep arrival order, so it is admitted.
        for x in [6.75, 6.25] {
            let entry = Entry {
                ring_key: grid.hash(&[x]),
                obj: ObjectId(100),
                point: vec![x].into_boxed_slice(),
            };
            let publish = SearchMsg::Publish {
                index: 0,
                entry,
                hops: 0,
            };
            sim.inject(SimTime::ZERO, AgentId(0), publish);
        }
        sim.run();
        assert_eq!(sim.agent(AgentId(1)).indexes[0].store.load(), 4 + 2);
        let sq = ball_query(0, 4.0, 4.0, &grid);
        sim.inject(sim.now(), AgentId(0), SearchMsg::Issue(sq));
        sim.run();
        let merged = &sim.agent(AgentId(0)).issued[&0].merged;
        let copies: Vec<f64> = merged
            .iter()
            .filter(|(o, _)| o.0 == 100)
            .map(|&(_, d)| d)
            .collect();
        assert_eq!(copies, vec![6.75], "answered once, at the first copy");
        let calls: Vec<_> = oracle.calls().into_iter().filter(|c| c.1 == 100).collect();
        assert_eq!(calls, vec![(0, 100, Some(vec![4.0]), vec![6.75])]);
    }

    /// Node 0 (id 2^61 − 1) owns cell 0 only, node 1 (the last id) the
    /// rest. A full-range query issued at node 0 splits there; refining
    /// the lower half peels cells 1 and 2–3 off toward node 1, and the
    /// upper half is handed to it too: three hand-offs, one destination.
    #[test]
    fn peeled_cut_outs_to_one_successor_travel_in_one_route() {
        let oracle: DistanceOracle = Arc::new(|_q: QueryId, o: ObjectId| o.0 as f64);
        let (mut sim, _ring, grid) = build_ring(&[(1u64 << 61) - 1, u64::MAX], oracle);
        let tel = Telemetry::new();
        for a in 0..2 {
            sim.agent_mut(AgentId(a)).attach_telemetry(tel.clone());
        }
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 0),
        );
        sim.run();
        let iq = &sim.agent(AgentId(0)).issued[&0];
        let found: Vec<u32> = iq.merged.iter().map(|&(o, _)| o.0).collect();
        assert_eq!(found, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // One answer from node 0 itself, one for the whole batch.
        assert_eq!(iq.responses, 2);
        let st = tel.lock();
        assert_eq!(st.registry.counter("search.msgs.route"), 1);
        assert_eq!(st.registry.counter("search.msgs.refine"), 0);
        assert_eq!(st.registry.counter("search.msgs.results"), 2);
        drop(st);
        let events = tel.trace(0).unwrap().events;
        let forwards: Vec<_> = (events.iter())
            .filter(|e| matches!(e, TraceEvent::Forward { .. }))
            .collect();
        assert!(
            matches!(
                forwards[..],
                [TraceEvent::Forward {
                    from: 0,
                    to: 1,
                    subqueries: 3,
                    ..
                }]
            ),
            "{events:?}"
        );
    }

    /// A constant round-trip time for driving nodes by hand.
    struct Rtt;

    impl simnet::Links for Rtt {
        fn rtt_to(&self, _other: AgentId) -> SimDuration {
            SimDuration(10_000_000)
        }
    }

    /// The `search.msgs.*` counters, summed.
    fn msgs_sent(tel: &Telemetry) -> u64 {
        let names = ["route", "refine", "results", "publish", "replicate"];
        let st = tel.lock();
        (names.iter())
            .map(|n| st.registry.counter(&format!("search.msgs.{n}")))
            .sum()
    }

    #[test]
    fn no_round_sends_two_query_messages_to_one_destination() {
        use crate::msg::QueryBall;
        use crate::system::{IndexSpec, SearchSystem, SystemConfig};
        let points: Vec<Vec<f64>> = (0..900)
            .map(|i| {
                vec![
                    (i % 30) as f64 * 100.0 / 30.0,
                    (i / 30) as f64 * 100.0 / 30.0,
                ]
            })
            .collect();
        let spec = IndexSpec {
            name: "rounds".into(),
            boundary: vec![(0.0, 100.0); 2],
            points,
            rotate: false,
            rotation: None,
        };
        let cfg = SystemConfig {
            n_nodes: 64,
            depth: 16,
            seed: 64,
            ..SystemConfig::default()
        };
        let oracle: DistanceOracle = Arc::new(|_q: QueryId, o: ObjectId| o.0 as f64);
        let sys = SearchSystem::build(cfg, &[spec], oracle);
        let grid = Arc::clone(&sys.grids[0]);
        let tel = sys.telemetry.clone();
        let mut nodes = sys.sim.into_agents();
        let before = msgs_sent(&tel);
        let (mut sends, mut batched_handoffs) = (0, 0);
        for qid in 0..24u32 {
            let origin = AgentId((qid as usize * 37) % 64);
            let ball = QueryBall {
                center: vec![(qid * 13 % 100) as f64, (qid * 29 % 100) as f64].into(),
                radius: 5.0 + qid as f64,
            };
            let sq = SubQueryMsg::issue(qid, 0, origin, &grid, ball);
            let mut queue = VecDeque::from([(origin, origin, SearchMsg::Issue(sq))]);
            while let Some((from, at, msg)) = queue.pop_front() {
                let mut ctx = ProtoCtx::new(at, SimTime::ZERO, nodes.len(), &Rtt);
                simnet::dispatch(&mut nodes[at.0], &mut ctx, Input::Message { from, msg });
                let mut seen = HashSet::new();
                for out in ctx.into_outputs() {
                    let Output::Send { to, msg, .. } = out else {
                        continue;
                    };
                    sends += 1;
                    match &msg {
                        SearchMsg::Route(subs) => {
                            assert!(seen.insert(to), "query {qid}: two batches {at:?} -> {to:?}");
                            let marked = subs.iter().filter(|s| s.shortcut).count();
                            batched_handoffs += usize::from(marked > 0 && subs.len() > 1);
                        }
                        SearchMsg::Results { .. } => {}
                        other => panic!("query {qid}: {at:?} sent {other:?}"),
                    }
                    queue.push_back((at, to, msg));
                }
            }
        }
        assert!(batched_handoffs > 0, "no hand-off shared a batch");
        assert_eq!(msgs_sent(&tel) - before, sends, "one counter per message");
    }

    /// A batch whose destination died is re-routed from the sender with
    /// its hand-off marks cleared: the outputs equal those of re-routing
    /// the same fragment unmarked, and the fragment goes on to the next
    /// live owner, marked afresh.
    #[test]
    fn a_dead_destinations_batch_is_rerouted_unmarked() {
        let ids = [1u64 << 62, 2 << 62, 3 << 62, u64::MAX];
        let redispatched = |msg: SearchMsg| {
            let oracle: DistanceOracle = Arc::new(|_q: QueryId, o: ObjectId| o.0 as f64);
            let (sim, _ring, _grid) = build_ring(&ids, oracle);
            let mut nodes = sim.into_agents();
            let node = &mut nodes[0];
            node.enable_resilience(ResilienceConfig { replication: 2 });
            node.suspected.insert(ids[1]);
            let mut ctx = ProtoCtx::new(AgentId(0), SimTime::ZERO, ids.len(), &Rtt);
            node.redispatch(&mut ctx, msg);
            format!("{:?}", ctx.into_outputs())
        };
        // Cell 3 (prefix 011) belongs to node 1, which died.
        let rect = Rect::new(vec![3.2], vec![3.8]);
        let SearchMsg::Issue(mut sq) = issue(rect, &Grid::new(Rect::cube(1, 0.0, 8.0), 3), 0)
        else {
            unreachable!()
        };
        sq.hops = 1;
        let unmarked = redispatched(SearchMsg::Route(vec![sq.clone()]));
        sq.shortcut = true;
        let marked = redispatched(SearchMsg::Route(vec![sq]));
        assert_eq!(marked, unmarked);
        assert!(
            unmarked.contains("to: AgentId(2), msg: Tracked")
                && unmarked.contains("shortcut: true"),
            "{unmarked}"
        );
    }

    #[test]
    fn naive_mode_still_correct() {
        let (mut sim_fast, _, grid) = build();
        let (mut sim_naive, _, _) = build();
        for node_idx in 0..2 {
            sim_naive.agent_mut(AgentId(node_idx)).naive_level = Some(3);
        }
        let q = issue(Rect::new(vec![1.2], vec![6.8]), &grid, 0);
        sim_fast.inject(SimTime::ZERO, AgentId(0), q.clone());
        sim_naive.inject(SimTime::ZERO, AgentId(0), q);
        sim_fast.run();
        sim_naive.run();
        let fast: Vec<u32> = sim_fast.agent(AgentId(0)).issued[&0]
            .merged
            .iter()
            .map(|&(o, _)| o.0)
            .collect();
        let naive: Vec<u32> = sim_naive.agent(AgentId(0)).issued[&0]
            .merged
            .iter()
            .map(|&(o, _)| o.0)
            .collect();
        assert_eq!(fast, naive, "naive and embedded-tree answers must agree");
        // The naive router sends at least as many query messages.
        let fast_msgs = traced_total(&sim_fast, |t| t.query_msgs().into());
        let naive_msgs = traced_total(&sim_naive, |t| t.query_msgs().into());
        assert!(
            naive_msgs >= fast_msgs,
            "naive {naive_msgs} < fast {fast_msgs}"
        );
    }

    /// The naive baseline's origin routes its cuboids through the same
    /// sink as every other round, so each of its local answers follows a
    /// refinement or peel on the query's trace, and both are counted.
    #[test]
    fn a_naive_origins_local_answers_follow_its_refines() {
        let (mut sim, _, grid) = build();
        for node_idx in 0..2 {
            sim.agent_mut(AgentId(node_idx)).naive_level = Some(3);
        }
        // Node 0 owns cells 0..=3, so cells 1..=3 are answered at the origin.
        sim.inject(
            SimTime::ZERO,
            AgentId(0),
            issue(Rect::new(vec![1.2], vec![6.8]), &grid, 0),
        );
        sim.run();
        let tel = &sim.agent(AgentId(0)).telemetry;
        let events = tel.trace(0).unwrap().events;
        let (mut refined, mut answers) = (false, 0);
        for ev in &events {
            match *ev {
                TraceEvent::Refine { at: 0, .. } | TraceEvent::Peel { at: 0, .. } => refined = true,
                TraceEvent::Answer { at: 0, .. } => {
                    assert!(refined, "an origin answer before any refine: {events:?}");
                    answers += 1;
                }
                _ => {}
            }
        }
        assert!(answers > 0, "{events:?}");
        assert!(tel.lock().registry.counter("routing.local_refines") > 0);
    }

    /// The two-node world with a telemetry handle per node, as the socket
    /// runtime gives them, after full-range queries `qids` were issued at
    /// node 0 one at a time, in that order. Both nodes answer each.
    fn touched(qids: &[QueryId]) -> (Sim<SearchNode>, Arc<Grid>, Vec<Telemetry>) {
        let (mut sim, _, grid) = build();
        let tels: Vec<Telemetry> = (0..2)
            .map(|a| {
                let tel = Telemetry::new();
                sim.agent_mut(AgentId(a)).attach_telemetry(tel.clone());
                tel
            })
            .collect();
        for &qid in qids {
            let q = issue(Rect::new(vec![0.0], vec![8.0]), &grid, qid);
            sim.inject(sim.now(), AgentId(0), q);
            sim.run();
        }
        (sim, grid, tels)
    }

    /// The qids node `a` holds in each of its per-query stores, sorted:
    /// `issued`, telemetry traces.
    fn held(sim: &Sim<SearchNode>, tels: &[Telemetry], a: usize) -> [Vec<QueryId>; 2] {
        let node = sim.agent(AgentId(a));
        let mut issued: Vec<QueryId> = node.issued.keys().copied().collect();
        issued.sort_unstable();
        let traces = tels[a].lock().traces.keys().copied().collect();
        [issued, traces]
    }

    fn retire_all(sim: &mut Sim<SearchNode>, keep: usize) {
        for a in 0..2 {
            sim.agent_mut(AgentId(a)).retire_oldest(keep);
        }
    }

    #[test]
    fn retiring_drops_exactly_the_oldest_queries_from_every_store() {
        // Age is first touch, not qid order.
        let (mut sim, _, tels) = touched(&[4, 1, 3, 0, 2]);
        let all = vec![0, 1, 2, 3, 4];
        assert_eq!(held(&sim, &tels, 0), [all.clone(), all.clone()]);
        assert_eq!(held(&sim, &tels, 1), [vec![], all]);
        retire_all(&mut sim, 2);
        assert_eq!(held(&sim, &tels, 0), [vec![0, 2], vec![0, 2]]);
        assert_eq!(held(&sim, &tels, 1), [vec![], vec![0, 2]]);
        assert_eq!(tels[0].lock().order, [0, 2]);
    }

    #[test]
    fn retiring_bounds_the_list_of_grown_logs() {
        let (mut sim, _, tels) = touched(&[4, 1, 3, 0, 2]);
        assert!(tels[0].lock().grown.len() > 2);
        retire_all(&mut sim, 2);
        for tel in &tels {
            assert!(tel.lock().grown.len() <= 2);
        }
    }

    #[test]
    fn retiring_to_a_window_not_yet_full_is_a_no_op() {
        let (mut sim, _, tels) = touched(&[4, 1, 3]);
        let before = [held(&sim, &tels, 0), held(&sim, &tels, 1)];
        for keep in [3, 4, usize::MAX] {
            retire_all(&mut sim, keep);
            assert_eq!([held(&sim, &tels, 0), held(&sim, &tels, 1)], before);
        }
    }

    #[test]
    fn a_query_touched_after_retirement_is_the_newest() {
        let (mut sim, grid, tels) = touched(&[4, 1, 3]);
        retire_all(&mut sim, 2);
        assert_eq!(held(&sim, &tels, 1)[1], vec![1, 3]);
        // Issued again at node 0; node 1 sees it again as a routed
        // fragment. Both recreate its state as their newest query.
        sim.inject(
            sim.now(),
            AgentId(0),
            issue(Rect::new(vec![0.0], vec![8.0]), &grid, 4),
        );
        sim.run();
        retire_all(&mut sim, 1);
        assert_eq!(held(&sim, &tels, 0), [vec![4], vec![4]]);
        assert_eq!(held(&sim, &tels, 1), [vec![], vec![4]]);
        let found: Vec<u32> = sim.agent(AgentId(0)).issued[&4]
            .merged
            .iter()
            .map(|&(o, _)| o.0)
            .collect();
        assert_eq!(found, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn results_for_a_retired_query_change_nothing() {
        let (mut sim, _, tels) = touched(&[4, 1, 3]);
        retire_all(&mut sim, 2);
        let before = held(&sim, &tels, 0);
        sim.inject(
            sim.now(),
            AgentId(0),
            SearchMsg::Results {
                qid: 4,
                hops: 1,
                entries: vec![(ObjectId(5), 5.0)],
                degraded: false,
            },
        );
        sim.run();
        assert_eq!(held(&sim, &tels, 0), before);
        assert_eq!(tels[0].lock().order, [1, 3]);
    }
}
