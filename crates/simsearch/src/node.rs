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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use chord::RoutingTable;
use lph::{Grid, Rotation};
use metric::ObjectId;
use simnet::telemetry::{CounterId as C, HistogramId as H};
use simnet::{AgentId, ProtoCtx, Protocol, SimDuration, SimTime, TimerTag};

use crate::msg::{
    ack_msg_bytes, msg_bytes, result_msg_bytes, tracked_overhead_bytes, DistanceOracle, QueryId,
    SearchMsg, SubQueryMsg,
};
use crate::overlay::{FailureAware, OverlayTable};
use crate::resilience::{ResilienceConfig, SuspicionSet};
use crate::routing::{refine_into, route_into, Action};
use crate::store::{Entry, Store};
use crate::telemetry::{Telemetry, TraceEvent};

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

/// The hasher of one answer's object-dedup set, in place of SipHash: a
/// Fibonacci multiply of the `u32` id with the high half folded into the
/// low bits the table indexes by. It is unkeyed and publishers choose
/// object ids, but the set lives for one answer and holds at most that
/// answer's hits, which bounds what colliding ids can cost. The
/// qid-keyed maps, whose keys clients choose, stay on SipHash.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32((self.0 as u32).rotate_left(8) ^ u32::from(b));
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

    /// Route every fragment of one round — or, with `refine`, run
    /// `SurrogateRefine` on each — against its index's grid and rotation,
    /// recording routing events on each fragment's trace, then execute
    /// the round's actions at once so its outputs coalesce.
    ///
    /// Fragments route over the failure-aware view of the node's table
    /// when resilient, over the table itself otherwise.
    fn route_all(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        fragments: Vec<SubQueryMsg>,
        refine: bool,
    ) {
        let me = ctx.me().0;
        let split = self.naive_level.is_none();
        let fa;
        let table: &dyn OverlayTable = if self.resilience.is_some() {
            fa = FailureAware::new(&self.table, self.suspected.as_set());
            &fa
        } else {
            &self.table
        };
        let mut actions = Vec::new();
        for sq in fragments {
            let ix = &self.indexes[sq.index as usize];
            let qid = sq.qid;
            let mut sink = |ev| self.telemetry.record_routing(qid, me, ev);
            let (grid, rot) = (&ix.grid, ix.rotation);
            let route = if refine { refine_into } else { route_into };
            route(table, grid, rot, sq, split, &mut sink, &mut actions);
        }
        self.execute(ctx, actions);
    }

    /// Send an index-layer message, wrapping it in a tracked envelope
    /// (with retransmit timer) when resilience is on. Self-sends and the
    /// non-resilient path go out unwrapped, exactly as before.
    fn send_search(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        to: AgentId,
        msg: SearchMsg,
        bytes: u32,
    ) {
        let Some(rc) = &self.resilience else {
            ctx.send(to, msg, bytes);
            return;
        };
        if to == ctx.me() {
            ctx.send(to, msg, bytes);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let dead: Vec<u64> = self.suspected.iter().collect();
        let wire_bytes = bytes + tracked_overhead_bytes(dead.len());
        let wire = SearchMsg::Tracked {
            seq,
            dead,
            inner: Box::new(msg.clone()),
        };
        let dst_id = self
            .table
            .known_nodes()
            .into_iter()
            .find(|n| n.addr == to)
            .map(|n| n.id.0);
        let timeout = rc.timeout_for(ctx.rtt_to(to));
        self.pending.insert(
            seq,
            PendingSend {
                to,
                dst_id,
                msg,
                bytes,
                attempts: 0,
                first_timeout: timeout,
            },
        );
        self.telemetry.incr_id(C::ResilienceTrackedSent, 1);
        ctx.schedule(timeout, TimerTag(seq));
        ctx.send(to, wire, wire_bytes);
    }

    /// A tracked send ran out of retries: suspect the destination and
    /// route the payload around it.
    fn redispatch(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, msg: SearchMsg) {
        match msg {
            // The next hop or surrogate died: re-route every fragment
            // from here; failure-aware routing finds the next live owner
            // around the suspicion set above.
            SearchMsg::Route(subs) => self.route_all(ctx, subs, false),
            SearchMsg::Refine(sq) => self.route_all(ctx, vec![sq], false),
            SearchMsg::Publish { index, entry, hops } => self.on_publish(ctx, index, entry, hops),
            // The query's origin is gone; there is nowhere else for its
            // results to go. Count the loss instead of hiding it.
            SearchMsg::Results { .. } => self.telemetry.incr_id(C::ResilienceResultsLost, 1),
            // The chosen replica holder is dead: the entry keeps fewer
            // copies until the next re-replication pass.
            SearchMsg::Replicate { .. } => self.telemetry.incr_id(C::ResilienceReplicasLost, 1),
            // Never wrapped in tracked envelopes.
            SearchMsg::Issue(_) | SearchMsg::Tracked { .. } | SearchMsg::Ack { .. } => {}
        }
    }

    /// Execute routing actions: batch forwards per destination (the
    /// paper's n-subquery messages), hand off refinements, and answer
    /// local fragments with one result message per query.
    fn execute(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, actions: Vec<Action>) {
        // BTreeMaps, not HashMaps: iteration order decides message send
        // order, which decides simulated event order — telemetry
        // snapshots must not depend on the process's hash seed.
        let mut forwards: BTreeMap<AgentId, Vec<SubQueryMsg>> = BTreeMap::new();
        let mut handoffs: Vec<(AgentId, SubQueryMsg)> = Vec::new();
        // (qid, index) -> (max hops, fragments)
        let mut answers: BTreeMap<(QueryId, u8), (u32, Vec<SubQueryMsg>)> = BTreeMap::new();
        for a in actions {
            match a {
                Action::Forward { to, mut sq } => {
                    sq.hops += 1;
                    forwards.entry(to).or_default().push(sq);
                }
                Action::Handoff { to, mut sq } => {
                    sq.hops += 1;
                    handoffs.push((to, sq));
                }
                Action::Answer(sq) => {
                    let slot = answers.entry((sq.qid, sq.index)).or_default();
                    slot.0 = slot.0.max(sq.hops);
                    slot.1.push(sq);
                }
            }
        }
        for (to, mut subs) in forwards {
            // Deterministic order inside a batch.
            subs.sort_by_key(|s| (s.qid, s.prefix.key(), s.prefix.len()));
            self.send_query(ctx, to, SearchMsg::Route(subs));
        }
        // Surrogate hand-offs go one `Refine` each, in action order.
        for (to, sq) in handoffs {
            self.send_query(ctx, to, SearchMsg::Refine(sq));
        }
        for ((qid, index), (hops, fragments)) in answers {
            self.answer(ctx, qid, index, hops, fragments);
        }
    }

    /// Price, trace and send one query-delivery message — a `Route` or a
    /// `Refine`. The query's trace records a `Forward` (`Route`, with its
    /// fragment count) or a `Handoff`, which is what the query's
    /// `query_bytes` and `query_msgs` are read from. A batch carries one
    /// query's fragments only: each round of actions comes from one
    /// input, and an input names one query.
    fn send_query(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, to: AgentId, msg: SearchMsg) {
        let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
        let from = ctx.me().0;
        let handoff = TraceEvent::Handoff {
            from,
            to: to.0,
            bytes,
        };
        let (subs, event, counter) = match &msg {
            SearchMsg::Route(subs) => {
                let subqueries = subs.len() as u32;
                let forward = TraceEvent::Forward {
                    from,
                    to: to.0,
                    subqueries,
                    bytes,
                };
                (&subs[..], forward, C::SearchMsgsRoute)
            }
            SearchMsg::Refine(sq) => (std::slice::from_ref(sq), handoff, C::SearchMsgsRefine),
            _ => unreachable!("send_query sends query deliveries only"),
        };
        let mut st = self.telemetry.lock();
        st.push(subs[0].qid, &event);
        st.registry.incr_id(counter, 1);
        st.registry.incr_id(C::SearchBytesQuery, bytes as u64);
        drop(st);
        for s in subs {
            self.incr_index(s.index, "routed", 1);
        }
        self.send_search(ctx, to, msg, bytes);
    }

    /// Answer a set of fragments of one query from the local store: the
    /// node's `k` nearest matching entries by true distance (the paper's
    /// refinement + top-10 reply).
    fn answer(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        qid: QueryId,
        index: u8,
        hops: u32,
        fragments: Vec<SubQueryMsg>,
    ) {
        let core = self.collect_answer(qid, index, &fragments);
        let bytes = result_msg_bytes(core.ranked.len());
        self.record_answer(ctx.me(), qid, index, hops, &core, bytes);
        let msg = SearchMsg::Results {
            qid,
            hops,
            entries: core.ranked,
            degraded: core.degraded,
        };
        self.send_search(ctx, fragments[0].origin, msg, bytes);
    }

    /// Account one local answer of `bytes` on the wire: the `Answer`
    /// event on the query's trace (its result bytes among them), the
    /// result message, and the store, refinement, resilience and
    /// per-index counters of the scan behind it.
    fn record_answer(
        &mut self,
        at: AgentId,
        qid: QueryId,
        index: u8,
        hops: u32,
        core: &AnswerCore,
        bytes: u32,
    ) {
        let mut st = self.telemetry.lock();
        st.push(
            qid,
            &TraceEvent::Answer {
                at: at.0,
                hops,
                scanned: core.scanned,
                matched: core.matched,
                returned: core.ranked.len() as u64,
                bytes,
            },
        );
        let reg = &mut st.registry;
        reg.incr_id(C::SearchMsgsResults, 1);
        reg.incr_id(C::SearchBytesResults, bytes as u64);
        reg.incr_id(C::StoreEntriesScanned, core.scanned);
        reg.incr_id(C::StoreEntriesMatched, core.matched);
        reg.incr_id(C::StoreEntriesSkipped, core.skipped);
        reg.incr_id(C::SearchRefineDistCalls, core.dist_calls);
        if core.pruned > 0 {
            reg.incr_id(C::SearchRefinePruned, core.pruned);
        }
        if core.replica_answers > 0 {
            reg.incr_id(C::ResilienceReplicaAnswers, core.replica_answers);
        }
        if core.degraded {
            reg.incr_id(C::ResilienceDegradedAnswers, 1);
        }
        drop(st);
        self.incr_index(index, "answers", 1);
        self.incr_index(index, "scanned", core.scanned);
        self.incr_index(index, "dist_calls", core.dist_calls);
    }

    /// The answering core of [`Self::answer`]: scan the fragments' ring
    /// spans, dedup and radius-prune candidates, answer replicas for
    /// suspected owners, detect degradation, and rank by true distance.
    fn collect_answer<'s>(
        &'s self,
        qid: QueryId,
        index: u8,
        fragments: &[SubQueryMsg],
    ) -> AnswerCore {
        let resilient = self.resilience.is_some();
        let ix = &self.indexes[index as usize];
        // Every fragment of one query shares the same ball, so any copy
        // serves for refinement pruning.
        let ball = fragments[0].ball.clone();
        // Each fragment's region occupies a contiguous ring-key span (the
        // hash is monotone; see `lph::Grid::key_span`), so the ordered
        // store is binary-searched down to that span instead of scanned
        // end to end.
        let span = |f: &SubQueryMsg| {
            let (lo, hi) = ix.grid.key_span(&f.rect);
            (ix.rotation.to_ring(lo), ix.rotation.to_ring(hi))
        };
        // Collect matching entries over all fragments, each object once
        // however many fragments (a point on a split face lies in both
        // halves) or stored copies (an object published twice) or replica
        // copies match it: the first sighting, in scan order, decides. A
        // candidate carries its pivot lower bound if the range test
        // computed one and the admitted copy's stored vector, borrowed
        // for refinement; candidates provably outside the metric range
        // are dropped before refinement.
        let bounds = ix.grid.bounds();
        // Every candidate lies in some fragment's rect, so its pivot
        // lower bound is at most `reach` (`QueryBall::reach`), and at
        // most the radius when every coordinate lies in `safe`
        // (`QueryBall::narrow_safe`). A prune test these settle needs no
        // bound. A ball-less query prunes nothing.
        let reach = ball.as_ref().map(|b| {
            fragments
                .iter()
                .fold(0.0f64, |r, f| r.max(b.reach(&f.rect, bounds)))
        });
        let cannot_exceed = |limit: f64| reach.is_none_or(|r| r <= limit);
        let mut safe = Vec::new();
        if let Some(b) = &ball {
            safe.resize(
                b.center.len().min(bounds.dims()),
                (f64::NEG_INFINITY, f64::INFINITY),
            );
            for f in fragments {
                b.narrow_safe(&f.rect, bounds, b.radius, &mut safe);
            }
        }
        let in_safe = |p: &[f64]| p.iter().zip(&safe).all(|(&x, &(a, b))| a <= x && x <= b);
        let mut hits = Vec::new();
        let (mut scanned, mut matched, mut skipped) = (0u64, 0u64, 0u64);
        for f in fragments {
            let work = ix.store.scan_into(&f.rect, span(f), &mut hits);
            scanned += work.scanned as u64;
            matched += work.matched as u64;
            skipped += work.skipped as u64;
        }
        // Sized up front: growing a hash set rehashes it again and again.
        let mut seen: HashSet<ObjectId, BuildHasherDefault<IdHasher>> =
            HashSet::with_capacity_and_hasher(hits.len(), Default::default());
        let mut cands: Vec<(ObjectId, Option<f64>, &'s [f64])> = Vec::with_capacity(hits.len());
        let mut pruned = 0u64;
        // The pivot lower bound of one new candidate, computed at most
        // once: by the range test here unless `safe` settles it, else by
        // the k-th-best test below unless `reach` settles that. The range
        // test can fire only within rounding of the faces while the
        // fragment's rect lies inside the ball's own bounding box, which
        // is how every driver in this repository builds its queries; it
        // stays as the guard for a caller whose rect is looser than its
        // ball. Strict `>`: a NaN bound excludes nothing.
        let mut admit = |obj: ObjectId, point: &'s [f64]| -> bool {
            let range_test = ball.as_ref().filter(|_| !in_safe(point));
            let lb = range_test.map(|b| b.lower_bound(point, bounds));
            if lb.zip(range_test).is_some_and(|(lb, b)| lb > b.radius) {
                pruned += 1;
                return false;
            }
            cands.push((obj, lb, point));
            true
        };
        for e in hits {
            if seen.insert(e.obj) {
                admit(e.obj, e.point);
            }
        }
        // Resilient mode: also answer, on behalf of suspected-dead
        // owners, the replica copies they pushed here. Safe even when the
        // suspicion is false — the origin deduplicates by object.
        let mut replica_answers = 0u64;
        if resilient && !self.suspected.is_empty() {
            for f in fragments {
                let (reps, _) = ix.store.replicas_in_span(span(f));
                for (owner, e) in reps {
                    if !self.suspected.contains(*owner) || !f.rect.contains_point(&e.point) {
                        continue;
                    }
                    if seen.insert(e.obj) && admit(e.obj, &e.point) {
                        replica_answers += 1;
                    }
                }
            }
        }
        // Degraded detection: a suspected node whose identifier falls in
        // a queried fragment's ring arc may have taken owned entries down
        // with it; if we hold no replicas for it, say so rather than
        // letting recall silently shrink.
        let mut degraded = false;
        if resilient {
            for s in self.suspected.iter() {
                let in_queried_range = fragments.iter().any(|f| {
                    let (start, end) = ix.rotation.ring_arc(f.prefix);
                    s.wrapping_sub(start) <= end.wrapping_sub(start)
                });
                if in_queried_range && !ix.store.replicas().iter().any(|(o, _)| *o == s) {
                    degraded = true;
                    break;
                }
            }
        }
        // Refinement: rank candidates by true metric distance, keeping
        // the node's k best in sorted order as we go. Once k distances
        // are known, a candidate whose lower bound exceeds the current
        // k-th distance cannot enter the reply, so its (potentially
        // expensive) metric call is skipped. Strict `>` means ties — and
        // NaN bounds or distances — fall through to the metric call, so
        // the reply is identical to the unpruned sort-then-truncate.
        let mut ranked: Vec<(ObjectId, f64)> = Vec::with_capacity(self.knn_k);
        let mut dist_calls = 0u64;
        for (o, lb, point) in cands {
            if ranked.len() == self.knn_k {
                if let (Some(b), Some(&(_, worst))) = (&ball, ranked.last()) {
                    let bound = || lb.unwrap_or_else(|| b.lower_bound(point, bounds));
                    if !cannot_exceed(worst) && bound() > worst {
                        pruned += 1;
                        continue;
                    }
                }
            }
            let d = self.oracle.refine(qid, o, ball.as_ref(), point);
            dist_calls += 1;
            insert_ranked(&mut ranked, (o, d), self.knn_k);
        }
        AnswerCore {
            ranked,
            degraded,
            scanned,
            matched,
            skipped,
            pruned,
            dist_calls,
            replica_answers,
        }
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
        let ix = &self.indexes[sq.index as usize];
        let grid = Arc::clone(&ix.grid);
        let rot = ix.rotation;
        let Some(level) = self.naive_level else {
            return self.route_all(ctx, vec![sq], false);
        };
        // Naive baseline: decompose fully at the issuing node and route
        // every cuboid independently (no shared paths).
        let mut actions = Vec::new();
        for part in grid.decompose(&sq.rect, level.min(grid.depth())) {
            let frag = SubQueryMsg {
                rect: part.rect,
                prefix: part.prefix,
                ..sq.clone()
            };
            let table = &self.table;
            route_into(table, &grid, rot, frag, false, &mut |_| {}, &mut actions);
        }
        self.execute(ctx, actions);
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

    /// Route or store one published entry. In resilient mode the routing
    /// is failure-aware and a stored entry is pushed to `replication - 1`
    /// ring successors.
    fn on_publish(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        index: u8,
        entry: Entry,
        hops: u32,
    ) {
        let key = chord::ChordId(entry.ring_key);
        let decision = if self.resilience.is_some() {
            FailureAware::new(&self.table, self.suspected.as_set()).decide(key)
        } else {
            self.table.route(key)
        };
        match decision {
            chord::RouteDecision::Local => self.store_publish(ctx, index, entry, hops),
            chord::RouteDecision::Surrogate(next) | chord::RouteDecision::Forward(next) => {
                if next.addr == ctx.me() {
                    // Self-handoff audit: a stale or failure-narrowed
                    // table naming *us* as next hop means the entry stops
                    // here — never a wire message to ourselves.
                    self.store_publish(ctx, index, entry, hops);
                    return;
                }
                let msg = SearchMsg::Publish {
                    index,
                    entry,
                    hops: hops + 1,
                };
                let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
                self.telemetry.incr_id(C::SearchMsgsPublish, 1);
                self.telemetry.incr_id(C::SearchBytesPublish, bytes as u64);
                self.send_search(ctx, next.addr, msg, bytes);
            }
        }
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

    /// Push one owned entry to this node's first `replication - 1` live
    /// ring successors (no-op outside resilient mode).
    fn replicate_out(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, index: u8, entry: Entry) {
        let Some(rc) = &self.resilience else {
            return;
        };
        if rc.replication <= 1 {
            return;
        }
        let want = rc.replication - 1;
        let me = self.table.me();
        let targets: Vec<_> = self
            .table
            .successors()
            .iter()
            .copied()
            .filter(|s| s.addr != me.addr && !self.suspected.contains(s.id.0))
            .take(want)
            .collect();
        for s in targets {
            let msg = SearchMsg::Replicate {
                index,
                owner: me.id.0,
                entry: entry.clone(),
            };
            let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
            self.telemetry.incr_id(C::SearchMsgsReplicate, 1);
            self.telemetry
                .incr_id(C::SearchBytesReplicate, bytes as u64);
            self.send_search(ctx, s.addr, msg, bytes);
        }
    }
}

impl Protocol for SearchNode {
    type Msg = SearchMsg;

    fn on_message(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, from: AgentId, msg: SearchMsg) {
        match msg {
            SearchMsg::Issue(sq) => self.on_issue(ctx, sq),
            SearchMsg::Route(subs) => self.route_all(ctx, subs, false),
            SearchMsg::Refine(sq) => self.route_all(ctx, vec![sq], true),
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
        if p.attempts < rc.max_retries {
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
    use crate::telemetry::TraceLog;
    use chord::{NodeRef, OracleRing};
    use lph::{Prefix, Rect};
    use simnet::{Sim, SimTime, Topology};

    /// Two-node world over a 1-D [0,8) index space, depth 3, whose
    /// oracle's distance is the object id.
    fn build() -> (Sim<SearchNode>, OracleRing, Arc<Grid>) {
        build_with(Arc::new(|_q: QueryId, o: ObjectId| o.0 as f64))
    }

    /// The same world around any oracle.
    fn build_with(oracle: DistanceOracle) -> (Sim<SearchNode>, OracleRing, Arc<Grid>) {
        let grid = Arc::new(Grid::new(Rect::cube(1, 0.0, 8.0), 3));
        let ids = [3u64 << 61, 7u64 << 61];
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
        let topo = Topology::uniform(2, SimTime::from_millis(100));
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
