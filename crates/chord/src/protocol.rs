//! The live Chord protocol as a sans-io [`simnet::Protocol`]: recursive
//! lookups, joins, stabilization, finger repair, and proximity neighbor
//! selection. The deterministic simulator drives it directly.
//!
//! The index experiments start from pre-stabilized tables (see
//! [`crate::ring`]); this module exists to *justify* that shortcut — the
//! protocol tests drive real joins and assert convergence to exactly the
//! oracle invariants — and to power the PNS/lookup ablations.

use std::collections::HashMap;

use simnet::telemetry::{CounterId, HistogramId, SharedRegistry};
use simnet::{AgentId, ProtoCtx, Protocol, SimDuration, SimTime, TimerTag};

use crate::id::{ChordId, NodeRef};
use crate::table::{RouteDecision, RoutingTable, FINGER_ROWS};

/// Protocol parameters (defaults follow the paper's p2psim setup).
#[derive(Clone, Debug)]
pub struct ChordConfig {
    /// Successor-list length (paper: 16).
    pub n_successors: usize,
    /// Stabilization period.
    pub stabilize_every: SimDuration,
    /// Finger-repair period; each tick repairs [`Self::fingers_per_tick`] rows.
    pub fix_fingers_every: SimDuration,
    /// Finger rows refreshed per repair tick.
    pub fingers_per_tick: usize,
    /// PNS candidate-set size; 0 disables PNS (plain Chord).
    pub pns_candidates: usize,
}

impl Default for ChordConfig {
    fn default() -> Self {
        ChordConfig {
            n_successors: 16,
            stabilize_every: SimDuration::from_secs(1),
            fix_fingers_every: SimDuration::from_secs(1),
            fingers_per_tick: 8,
            pns_candidates: 16,
        }
    }
}

/// Chord wire messages. Byte sizes are modelled per message in
/// [`msg_bytes`].
#[derive(Clone, Debug)]
pub enum ChordMsg {
    /// Recursive owner lookup, forwarded hop by hop.
    FindSuccessor {
        key: ChordId,
        origin: NodeRef,
        req: u64,
        hops: u32,
    },
    /// Lookup answer, sent directly to the origin. Carries the owner's
    /// successor list as PNS candidates.
    FoundSuccessor {
        owner: NodeRef,
        candidates: Vec<NodeRef>,
        req: u64,
        hops: u32,
    },
    /// Stabilization probe.
    GetPredecessor,
    /// Stabilization answer. `node` is the responder's *current*
    /// identity: after a leave/rejoin migration the same host answers
    /// under a new identifier, and the prober must notice and scrub its
    /// stale table entry.
    PredecessorReply {
        node: NodeRef,
        pred: Option<NodeRef>,
        successors: Vec<NodeRef>,
    },
    /// "I might be your predecessor."
    Notify { node: NodeRef },
    /// Control: injected to make this node join via `bootstrap`.
    StartJoin { bootstrap: NodeRef },
    /// Control: injected to make this node look up `key`.
    StartLookup { key: ChordId },
    /// Liveness probe.
    Ping { nonce: u64 },
    /// Liveness answer, carrying the responder's current identity (see
    /// [`ChordMsg::PredecessorReply`] for why the id must be echoed).
    Pong { nonce: u64, node: NodeRef },
    /// Control: injected to crash this node (it stops responding to
    /// everything; the rest of the ring must detect and route around it).
    Fail,
    /// Control: gracefully leave the ring — notify the predecessor and
    /// successor of each other, then go silent. The primitive behind the
    /// paper's "ask it to leave and then rejoin" load migration.
    Leave,
    /// A departing node telling its neighbors to link up: `pred` and
    /// `succ` are the leaver's neighbors (each receiver adopts the one
    /// it is missing).
    Departing {
        /// The leaver's predecessor.
        pred: Option<NodeRef>,
        /// The leaver's successor.
        succ: Option<NodeRef>,
    },
    /// Control: re-join the ring under a new identifier via `bootstrap`
    /// (leave must have completed first). Implements the re-join half of
    /// the migration primitive.
    Rejoin {
        /// The identifier to adopt.
        new_id: ChordId,
        /// A live node to route the join through.
        bootstrap: NodeRef,
    },
}

impl ChordMsg {
    /// Stable short name, used as the telemetry counter suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            ChordMsg::FindSuccessor { .. } => "find_successor",
            ChordMsg::FoundSuccessor { .. } => "found_successor",
            ChordMsg::GetPredecessor => "get_predecessor",
            ChordMsg::PredecessorReply { .. } => "predecessor_reply",
            ChordMsg::Notify { .. } => "notify",
            ChordMsg::StartJoin { .. } => "start_join",
            ChordMsg::StartLookup { .. } => "start_lookup",
            ChordMsg::Ping { .. } => "ping",
            ChordMsg::Pong { .. } => "pong",
            ChordMsg::Fail => "fail",
            ChordMsg::Leave => "leave",
            ChordMsg::Departing { .. } => "departing",
            ChordMsg::Rejoin { .. } => "rejoin",
        }
    }
}

/// Modelled wire size of a message: 20-byte header plus payload (ids are
/// 8 bytes, node references 12).
pub fn msg_bytes(msg: &ChordMsg) -> u32 {
    const HDR: u32 = 20;
    const REF: u32 = 12;
    match msg {
        ChordMsg::FindSuccessor { .. } => HDR + 8 + REF + 8 + 4,
        ChordMsg::FoundSuccessor { candidates, .. } => {
            HDR + REF + 8 + 4 + REF * candidates.len() as u32
        }
        ChordMsg::GetPredecessor => HDR,
        ChordMsg::PredecessorReply { successors, .. } => {
            HDR + 2 * REF + REF * successors.len() as u32
        }
        ChordMsg::Notify { .. } => HDR + REF,
        ChordMsg::Ping { .. } => HDR + 8,
        ChordMsg::Pong { .. } => HDR + 8 + REF,
        ChordMsg::Departing { .. } => HDR + 2 * REF,
        ChordMsg::StartJoin { .. }
        | ChordMsg::StartLookup { .. }
        | ChordMsg::Fail
        | ChordMsg::Leave
        | ChordMsg::Rejoin { .. } => 0, // control
    }
}

const STABILIZE: TimerTag = TimerTag(1);
const FIX_FINGERS: TimerTag = TimerTag(2);
const FAILCHECK: TimerTag = TimerTag(3);

/// User-lookup retry attempts before giving up.
const LOOKUP_RETRIES: u32 = 4;

/// Forwarding cap: a `FindSuccessor` that exceeds this many hops is
/// dropped. A healthy ring resolves any key in O(log n) hops; a request
/// this old is circling through inconsistent tables (e.g. mid-migration)
/// and must not live forever — the origin's retry machinery re-issues it
/// once the ring has healed.
const MAX_LOOKUP_HOPS: u32 = 2 * FINGER_ROWS as u32;

/// A completed lookup, recorded at the origin (test/ablation output).
#[derive(Clone, Copy, Debug)]
pub struct LookupResult {
    /// The key that was looked up.
    pub key: ChordId,
    /// The node found to own it.
    pub owner: NodeRef,
    /// Overlay hops the request took.
    pub hops: u32,
    /// Wall-clock (simulated) time from issue to answer.
    pub latency: SimDuration,
}

enum Pending {
    Join,
    FingerRow(usize),
    UserLookup {
        key: ChordId,
        started: SimTime,
        issued: SimTime,
        attempt: u32,
    },
}

/// One Chord node as a sans-io [`simnet::Protocol`].
pub struct ChordAgent {
    /// Routing state (public for test inspection).
    pub table: RoutingTable,
    cfg: ChordConfig,
    joined: bool,
    /// False after a crash: the node ignores everything.
    pub alive: bool,
    next_req: u64,
    pending: HashMap<u64, Pending>,
    next_finger_row: usize,
    /// Completed lookups issued from this node.
    pub lookups: Vec<LookupResult>,
    /// Lookups abandoned after every retry failed.
    pub failed_lookups: Vec<ChordId>,
    /// (probed node, nonce, sent-at) of the outstanding liveness probe.
    /// The probe must stay unanswered for [`ChordAgent::reply_timeout`]
    /// before the target is declared dead — a WAN round trip can
    /// legitimately exceed one maintenance period.
    outstanding_ping: Option<(NodeRef, u64, SimTime)>,
    /// (successor, first-probe-at) awaiting a PredecessorReply.
    awaiting_stab: Option<(NodeRef, SimTime)>,
    /// Round-robin cursor over ping targets.
    ping_cursor: usize,
    /// Shared metrics registry: per-kind message/byte counters and the
    /// lookup hop histogram. `None` disables instrumentation.
    telemetry: Option<SharedRegistry>,
}

impl ChordAgent {
    /// A node that knows its own identity but has not joined.
    pub fn new(me: NodeRef, cfg: ChordConfig) -> ChordAgent {
        ChordAgent {
            table: RoutingTable::new(me, cfg.n_successors),
            cfg,
            joined: false,
            alive: true,
            next_req: 0,
            pending: HashMap::new(),
            next_finger_row: 0,
            lookups: Vec::new(),
            failed_lookups: Vec::new(),
            outstanding_ping: None,
            awaiting_stab: None,
            ping_cursor: 0,
            telemetry: None,
        }
    }

    /// Whether the node has completed its join.
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Attach a shared metrics registry. Every message this node sends is
    /// counted per kind (`chord.msgs.<kind>`, `chord.bytes`) and every
    /// completed user lookup feeds the `chord.lookup_hops` histogram.
    pub fn attach_telemetry(&mut self, registry: SharedRegistry) {
        self.telemetry = Some(registry);
    }

    fn me(&self) -> NodeRef {
        self.table.me()
    }

    fn count_msg(&self, msg: &ChordMsg, bytes: u32) {
        if let Some(reg) = &self.telemetry {
            let mut reg = reg.lock().expect("telemetry lock");
            reg.incr(&format!("chord.msgs.{}", msg.kind()), 1);
            reg.incr_id(CounterId::ChordBytes, bytes as u64);
        }
    }

    fn send(&self, ctx: &mut ProtoCtx<'_, ChordMsg>, to: NodeRef, msg: ChordMsg) {
        let bytes = msg_bytes(&msg);
        self.count_msg(&msg, bytes);
        ctx.send(to.addr, msg, bytes);
    }

    fn issue_lookup(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>, key: ChordId, purpose: Pending) {
        let req = self.next_req;
        self.next_req += 1;
        self.pending.insert(req, purpose);
        let me = self.me();
        // Start the recursive search at ourselves (zero-cost self-send
        // keeps a single code path for hop counting).
        self.send(
            ctx,
            me,
            ChordMsg::FindSuccessor {
                key,
                origin: me,
                req,
                hops: 0,
            },
        );
    }

    fn become_joined(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>) {
        if self.joined {
            return;
        }
        self.joined = true;
        ctx.schedule(self.cfg.stabilize_every, STABILIZE);
        ctx.schedule(self.cfg.fix_fingers_every, FIX_FINGERS);
        ctx.schedule(self.cfg.stabilize_every, FAILCHECK);
    }

    fn handle_find_successor(
        &mut self,
        ctx: &mut ProtoCtx<'_, ChordMsg>,
        key: ChordId,
        origin: NodeRef,
        req: u64,
        hops: u32,
    ) {
        if !self.joined {
            return; // mid-join node: drop, the origin's next try re-routes
        }
        if hops > MAX_LOOKUP_HOPS {
            return; // circling through inconsistent tables: drop
        }
        // A freshly-joined node that has not yet learnt its predecessor
        // must not claim ownership of anything (RoutingTable::owns treats
        // an unknown predecessor as "owns all", which is only correct for
        // a lone node): route via its successor instead.
        let decision = if self.table.predecessor().is_none() && self.table.successor().is_some() {
            let cp = self.table.closest_preceding(key);
            if cp.id == self.me().id {
                RouteDecision::Surrogate(self.table.successor().expect("checked"))
            } else {
                RouteDecision::Forward(cp)
            }
        } else {
            self.table.route(key)
        };
        match decision {
            RouteDecision::Local => {
                let candidates = self.table.successors().to_vec();
                let me = self.me();
                self.send(
                    ctx,
                    origin,
                    ChordMsg::FoundSuccessor {
                        owner: me,
                        candidates,
                        req,
                        hops,
                    },
                );
            }
            RouteDecision::Surrogate(next) | RouteDecision::Forward(next) => {
                self.send(
                    ctx,
                    next,
                    ChordMsg::FindSuccessor {
                        key,
                        origin,
                        req,
                        hops: hops + 1,
                    },
                );
            }
        }
    }

    fn handle_found(
        &mut self,
        ctx: &mut ProtoCtx<'_, ChordMsg>,
        owner: NodeRef,
        candidates: Vec<NodeRef>,
        req: u64,
        hops: u32,
    ) {
        let Some(purpose) = self.pending.remove(&req) else {
            return; // stale/duplicate answer
        };
        match purpose {
            Pending::Join => {
                self.table.add_successor(owner);
                self.become_joined(ctx);
                let me = self.me();
                self.send(ctx, owner, ChordMsg::Notify { node: me });
            }
            Pending::FingerRow(row) => {
                let start = self.me().id.finger_start(row as u32);
                let interval = 1u64 << row;
                let mut chosen = owner;
                if self.cfg.pns_candidates > 0 {
                    // PNS: the owner's successor list members that still
                    // fall inside this finger's interval are equally
                    // valid entries; pick the closest by RTT.
                    let mut best_rtt = ctx.rtt_to(owner.addr);
                    for c in candidates.into_iter().take(self.cfg.pns_candidates) {
                        if c.id != self.me().id && start.cw_dist(c.id) < interval {
                            let rtt = ctx.rtt_to(c.addr);
                            if rtt < best_rtt {
                                best_rtt = rtt;
                                chosen = c;
                            }
                        }
                    }
                }
                self.table.set_finger(row, Some(chosen));
            }
            Pending::UserLookup { key, started, .. } => {
                if let Some(reg) = &self.telemetry {
                    let mut reg = reg.lock().expect("telemetry lock");
                    reg.incr_id(CounterId::ChordLookups, 1);
                    reg.observe_id(HistogramId::ChordLookupHops, hops as u64);
                }
                self.lookups.push(LookupResult {
                    key,
                    owner,
                    hops,
                    latency: ctx.now().since(started),
                });
            }
        }
    }

    /// How long an unanswered probe is tolerated before its target is
    /// declared dead. Several periods, not one: a single slow round trip
    /// must not kill a healthy neighbor (heavy-tailed WAN latencies can
    /// exceed the maintenance period outright).
    fn reply_timeout(&self) -> SimDuration {
        SimDuration(self.cfg.stabilize_every.0 * 4)
    }

    fn stabilize(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>) {
        let now = ctx.now();
        // A probe from an earlier tick is still unanswered: once it has
        // aged past the reply timeout the successor is dead — scrub it
        // and fail over to the next list entry.
        if let Some((suspect, since)) = self.awaiting_stab {
            if self.table.successor() != Some(suspect) {
                self.awaiting_stab = None; // failed over some other way
            } else if now.since(since) >= self.reply_timeout() {
                self.table.remove(suspect);
                self.awaiting_stab = None;
            }
        }
        if let Some(succ) = self.table.successor() {
            self.send(ctx, succ, ChordMsg::GetPredecessor);
            if self.awaiting_stab.is_none() {
                self.awaiting_stab = Some((succ, now));
            }
        }
    }

    /// Liveness maintenance: ping one known node per tick (round-robin
    /// over the table, predecessor included); a probe unanswered for
    /// [`Self::reply_timeout`] removes the node from every table slot.
    /// Also garbage-collects and retries stale pending lookups.
    fn failure_check(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>) {
        let now = ctx.now();
        if let Some((suspect, _, sent)) = self.outstanding_ping {
            if now.since(sent) >= self.reply_timeout() {
                self.table.remove(suspect);
                self.outstanding_ping = None;
            }
        }
        // One probe in flight at a time: the next target is pinged once
        // the current probe is answered or times out.
        if self.outstanding_ping.is_none() {
            let known = self.table.known_nodes();
            if !known.is_empty() {
                let target = known[self.ping_cursor % known.len()];
                self.ping_cursor = self.ping_cursor.wrapping_add(1);
                let nonce = self.next_req;
                self.next_req += 1;
                self.outstanding_ping = Some((target, nonce, now));
                self.send(ctx, target, ChordMsg::Ping { nonce });
            }
        }
        // Retry or abandon user lookups that never completed (their path
        // crossed a dead node); drop stale finger repairs (the cycle
        // re-issues them anyway).
        let timeout = SimDuration(self.cfg.stabilize_every.0 * 4);
        let now = ctx.now();
        let stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| match p {
                Pending::UserLookup { issued, .. } => now.since(*issued) > timeout,
                Pending::FingerRow(_) => false,
                Pending::Join => false,
            })
            .map(|(&req, _)| req)
            .collect();
        for req in stale {
            let Some(Pending::UserLookup {
                key,
                started,
                attempt,
                ..
            }) = self.pending.remove(&req)
            else {
                continue;
            };
            if attempt + 1 >= LOOKUP_RETRIES {
                if let Some(reg) = &self.telemetry {
                    reg.lock()
                        .expect("telemetry lock")
                        .incr_id(CounterId::ChordFailedLookups, 1);
                }
                self.failed_lookups.push(key);
            } else {
                self.issue_lookup(
                    ctx,
                    key,
                    Pending::UserLookup {
                        key,
                        started,
                        issued: now,
                        attempt: attempt + 1,
                    },
                );
            }
        }
    }

    fn on_predecessor_reply(
        &mut self,
        ctx: &mut ProtoCtx<'_, ChordMsg>,
        from: AgentId,
        node: NodeRef,
        pred: Option<NodeRef>,
        successors: Vec<NodeRef>,
    ) {
        if self.awaiting_stab.map(|(n, _)| n.addr) == Some(from) {
            self.awaiting_stab = None;
        }
        let Some(succ) = self.table.successor() else {
            return;
        };
        if succ.addr != from {
            return; // stale reply from a node no longer our successor
        }
        if succ.id != node.id {
            // The host we probed now carries a different identifier
            // (leave/rejoin migration): our successor entry is a ghost.
            // Scrub it everywhere and adopt the live identity; the next
            // stabilize round sorts out the ordering.
            self.table.remove(succ);
            self.table.add_successor(node);
            return;
        }
        if let Some(p) = pred {
            if p.id.in_open(self.me().id, succ.id) {
                // A closer successor exists.
                self.table.add_successor(p);
            }
        }
        // Adopt the successor's list (shifted through add_successor's
        // ordering and capping).
        for s in successors {
            self.table.add_successor(s);
        }
        if let Some(new_succ) = self.table.successor() {
            let me = self.me();
            self.send(ctx, new_succ, ChordMsg::Notify { node: me });
        }
    }

    fn fix_fingers(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>) {
        for _ in 0..self.cfg.fingers_per_tick {
            let row = self.next_finger_row;
            self.next_finger_row = (self.next_finger_row + 1) % FINGER_ROWS;
            let key = self.me().id.finger_start(row as u32);
            self.issue_lookup(ctx, key, Pending::FingerRow(row));
        }
    }
}

impl Protocol for ChordAgent {
    type Msg = ChordMsg;

    fn on_message(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>, from: AgentId, msg: ChordMsg) {
        if !self.alive {
            return; // crashed: silent to the whole world
        }
        match msg {
            ChordMsg::FindSuccessor {
                key,
                origin,
                req,
                hops,
            } => self.handle_find_successor(ctx, key, origin, req, hops),
            ChordMsg::FoundSuccessor {
                owner,
                candidates,
                req,
                hops,
            } => self.handle_found(ctx, owner, candidates, req, hops),
            ChordMsg::GetPredecessor if !self.joined => {
                // Departed (between Leave and Rejoin): silent.
            }
            ChordMsg::GetPredecessor => {
                let reply = ChordMsg::PredecessorReply {
                    node: self.me(),
                    pred: self.table.predecessor(),
                    successors: self.table.successors().to_vec(),
                };
                let bytes = msg_bytes(&reply);
                self.count_msg(&reply, bytes);
                ctx.send(from, reply, bytes);
            }
            ChordMsg::PredecessorReply {
                node,
                pred,
                successors,
            } => {
                self.on_predecessor_reply(ctx, from, node, pred, successors);
            }
            ChordMsg::Notify { node } => {
                let adopt = match self.table.predecessor() {
                    None => true,
                    Some(p) => node.id.in_open(p.id, self.me().id),
                };
                if adopt && node.id != self.me().id {
                    self.table.set_predecessor(Some(node));
                }
                // Bootstrap case: a ring-of-one has no successor until the
                // first joiner announces itself.
                if self.table.successor().is_none() && node.id != self.me().id {
                    self.table.add_successor(node);
                }
            }
            ChordMsg::StartJoin { bootstrap } => {
                if bootstrap.addr == ctx.me() {
                    // First node: a ring of one.
                    self.become_joined(ctx);
                } else {
                    // Ask the bootstrap node to find our successor; our
                    // own table is empty so the search must start there.
                    let req = self.next_req;
                    self.next_req += 1;
                    self.pending.insert(req, Pending::Join);
                    let me = self.me();
                    self.send(
                        ctx,
                        bootstrap,
                        ChordMsg::FindSuccessor {
                            key: me.id,
                            origin: me,
                            req,
                            hops: 0,
                        },
                    );
                }
            }
            ChordMsg::StartLookup { key } => {
                let started = ctx.now();
                self.issue_lookup(
                    ctx,
                    key,
                    Pending::UserLookup {
                        key,
                        started,
                        issued: started,
                        attempt: 0,
                    },
                );
            }
            ChordMsg::Ping { .. } if !self.joined => {
                // Departed (or still joining): stay silent so peers'
                // failure detection scrubs whatever identity this host
                // used to carry. Answering here would keep a stale
                // reference alive across a leave/rejoin migration.
            }
            ChordMsg::Ping { nonce } => {
                let pong = ChordMsg::Pong {
                    nonce,
                    node: self.me(),
                };
                let bytes = msg_bytes(&pong);
                self.count_msg(&pong, bytes);
                ctx.send(from, pong, bytes);
            }
            ChordMsg::Pong { nonce, node } => {
                if let Some((target, n, _)) = self.outstanding_ping {
                    if n == nonce {
                        self.outstanding_ping = None;
                        if node.id != target.id {
                            // The host is alive but answers under a new
                            // identifier (leave/rejoin migration): the
                            // probed reference is a ghost — scrub it.
                            self.table.remove(target);
                        }
                    }
                }
            }
            ChordMsg::Fail => {
                self.alive = false;
            }
            ChordMsg::Leave => {
                let pred = self.table.predecessor();
                let succ = self.table.successor();
                if let Some(p) = pred {
                    self.send(ctx, p, ChordMsg::Departing { pred, succ });
                }
                if let Some(s) = succ {
                    self.send(ctx, s, ChordMsg::Departing { pred, succ });
                }
                // Departed: silent until a Rejoin control arrives.
                self.joined = false;
                self.table = RoutingTable::new(self.me(), self.cfg.n_successors);
                self.pending.clear();
                self.outstanding_ping = None;
                self.awaiting_stab = None;
            }
            ChordMsg::Departing { pred, succ } => {
                let me = self.me();
                // The leaver's predecessor adopts the leaver's successor
                // and vice versa; everyone scrubs the leaver lazily via
                // failure detection (the leaver stopped responding).
                if let Some(p) = pred {
                    if p.id == me.id {
                        if let Some(s) = succ {
                            self.table.add_successor(s);
                        }
                    }
                }
                if let Some(s) = succ {
                    if s.id == me.id {
                        // The leaver sat directly before us: its
                        // predecessor becomes ours.
                        if let Some(p) = pred {
                            self.table.set_predecessor(Some(p));
                        }
                    }
                }
            }
            ChordMsg::Rejoin { new_id, bootstrap } => {
                assert!(!self.joined, "must Leave before Rejoin");
                self.alive = true;
                self.table = RoutingTable::new(
                    NodeRef {
                        id: new_id,
                        addr: ctx.me(),
                    },
                    self.cfg.n_successors,
                );
                let req = self.next_req;
                self.next_req += 1;
                self.pending.insert(req, Pending::Join);
                let me = self.me();
                self.send(
                    ctx,
                    bootstrap,
                    ChordMsg::FindSuccessor {
                        key: me.id,
                        origin: me,
                        req,
                        hops: 0,
                    },
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_, ChordMsg>, tag: TimerTag) {
        if !self.alive {
            return; // crashed: timers fizzle, nothing is rescheduled
        }
        match tag {
            STABILIZE => {
                self.stabilize(ctx);
                ctx.schedule(self.cfg.stabilize_every, STABILIZE);
            }
            FIX_FINGERS => {
                self.fix_fingers(ctx);
                ctx.schedule(self.cfg.fix_fingers_every, FIX_FINGERS);
            }
            FAILCHECK => {
                self.failure_check(ctx);
                ctx.schedule(self.cfg.stabilize_every, FAILCHECK);
            }
            other => unreachable!("unknown timer {other:?}"),
        }
    }
}
