//! The real-socket driver: a single-threaded `epoll(7)` reactor around
//! the sans-io [`SearchNode`] core.
//!
//! One process hosts one node, and one thread is the whole node: it
//! owns the listener, every connection, the protocol state, the timer
//! wheel and the self-send queue. As in the simulator, every inbound
//! frame and every expired timer becomes one [`simnet::Input`]; every
//! resulting [`simnet::Output::Send`] is encoded into its destination's
//! write buffer and every [`simnet::Output::Timer`] is armed on the
//! wheel the loop sleeps against. The core never sees a socket.
//!
//! ## The loop
//!
//! All sockets are non-blocking. One turn of the loop is:
//!
//! 1. **self-sends** — drain the local queue (a self-send is the
//!    simulator's earliest event, so it goes before anything else);
//! 2. **due timers** — feed each, draining self-sends after each;
//! 3. **parked requests** — answer those whose query has news or whose
//!    patience ran out, then serve the frames that were queued behind
//!    them, answering again after each connection;
//! 4. **flush** — one `write` per connection that has unsent bytes.
//!    What a socket will not take stays buffered and the connection is
//!    also watched for writability. A connection whose interest changed
//!    (below) is re-registered with `EPOLL_CTL_MOD`;
//! 5. **wait** — sleep in `epoll_wait(2)` until a socket is ready, the
//!    wheel's next deadline or the earliest parked request's patience;
//! 6. **accept / read / dispatch** — one `read` per readable
//!    connection, then every complete frame in its buffer in order,
//!    draining self-sends after each. A connection's role is looked up
//!    per frame, so a `Hello` and the first request may share a read.
//!
//! Readiness comes from one level-triggered `epoll` set that lives as
//! long as the node. A socket is added when its connection opens and
//! removed when it closes; its interest is reads (only a hang-up while a
//! request is parked), plus writes while bytes remain, and is modified
//! only when that changes: a request parks or is answered, or a write
//! comes up short. Any other turn costs one `epoll_wait` and no other
//! readiness syscall. Its key, slot plus open count, drops an event for
//! a connection closed earlier in the same batch, even once a newer
//! connection holds the slot.
//!
//! The only things that block are `epoll_wait` itself and a first-use
//! outbound connect (one attempt, at most `CONNECT_PATIENCE`). A peer
//! or client that stops reading costs memory up to `MAX_BACKLOG` and
//! then its connection — never a turn of the loop. A malformed frame,
//! a cut frame or a protocol violation kills only its connection.
//!
//! ## Client connections
//!
//! A client gets one reply per request, in request order. Most are
//! answered at once. A [`Frame::QueryStatus`] is answered when the
//! query's `responses` count exceeds the `seen` count the client sent,
//! and a [`Frame::ClientQuery`] when its query has a first response;
//! until then the request is *parked* on its connection, so a client
//! waiting for an answer costs the node one reply per change instead of
//! one per poll. Parked requests are checked once per turn, just before
//! the flush: every response read in the turn is in the report, and no
//! reply leaves later than an earlier check would have sent it. The
//! reply is the ordinary report; one still unchanged after
//! [`PARK_PATIENCE`] goes out as it is. While a request is parked its
//! connection is watched for `EPOLLRDHUP` only, so whatever the client sent
//! behind it waits in the kernel (or, already read, in the connection's
//! buffer) and replies keep request order. A hang-up still surfaces and
//! closes the connection, and the parked request with it.
//!
//! ## Per-query state
//!
//! A node holds two things per query: the origin's
//! [`SearchNode::issued`] record, which reports read, and a telemetry
//! trace, which records what the query cost here and which the stats
//! reply summarises. It keeps them for the [`QUERY_WINDOW`] newest
//! queries by first touch at this node (the first event on the query's
//! trace: an issue, a routing step or a message sent on its behalf),
//! and after each input retires whatever is older, so memory and the
//! stats reply follow the queries in flight, not every query served.
//! Counters and histograms are run totals and are never retired.
//!
//! A retired query is unknown again. A status on it gets the
//! unknown-query report (no responses, nothing merged) once
//! [`PARK_PATIENCE`] runs out, like any query without news; a late
//! result for it is dropped, as for a query this node never issued; a
//! fragment routed to it, or a client issuing it again, starts its
//! state over as the newest query. So a query in flight is safe while
//! fewer than `QUERY_WINDOW` newer queries reach the node before its
//! last result does; the repo benchmark's clients keep at most two in
//! flight.
//!
//! ## Bootstrap
//!
//! There is no dynamic membership (the simulator's worlds are static
//! too): the seed node collects one [`Frame::JoinRequest`] per expected
//! joiner, sorts all listen addresses, assigns agent indices in sorted
//! order and broadcasts the [`Frame::Members`] list. Every process then
//! recomputes the identical evenly-spaced ring ids and Chord tables
//! from the shared [`Scenario`] — no further coordination needed.
//! Bootstrap runs before the loop and uses plain blocking I/O.
//!
//! ## The distance oracle
//!
//! The simulator's drivers hold the whole dataset, so their distance
//! oracle is a closure over global knowledge. A real node has none, and
//! needs none: [`SearchNode`] hands its oracle the sub-query's ball and
//! the stored vector of the copy it admitted, and under the identity
//! mapping those two are the query and the object. [`StoredL2`] is
//! [`l2`](crate::scenario::l2) of them — the arithmetic the
//! expected-answer model uses — with no side table, no lock and nothing
//! done to a frame before dispatch. What it relies on is checked at the
//! door instead: a peer's search frame whose sub-query lacks a ball, or
//! whose center, rect or point has the wrong dimensionality, or whose
//! index byte is out of range, is a protocol violation. So is any
//! variant but `Route`, `Results` and `Publish`, which a node sends, and
//! `Refine` (a lone hand-off), and a `Route` naming more than one query:
//! a node batches one query's fragments only, and a trace attributes a
//! batch to its first fragment's query.

#[cfg(not(target_os = "linux"))]
compile_error!("the node runtime waits on its sockets with epoll(7) and needs a Linux target");

use crate::scenario::{rotation, RangeQuery, Scenario, StoredL2, KNN_K};
use crate::wire::{self, Frame, FrameBuf, HistogramSummary, Member, Role, StatsReport};
use simnet::{dispatch, AgentId, Input, Links, Output, ProtoCtx, SimDuration, SimTime, TimerTag};
use simsearch::node::IndexState;
use simsearch::{QueryId, SearchMsg, SearchNode, Store, SubQueryMsg, Telemetry};
use std::collections::{BinaryHeap, VecDeque};
use std::ffi::c_int;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Round-trip estimate the runtime reports for every peer. The
/// resilience layer (off in this driver) would use it for timeout
/// sizing only — never for correctness — so a constant is fine.
const PEER_RTT: SimDuration = SimDuration(10_000_000);

/// How long [`connect_retry`] (bootstrap and clients) keeps trying:
/// nodes come up in arbitrary order, so a refused connect is normal then.
const RETRY_PATIENCE: Duration = Duration::from_secs(15);

/// How long the serving loop waits on an outbound connect. Every member
/// bound its listener before the membership was broadcast, so one
/// attempt either succeeds at once or the peer is gone.
const CONNECT_PATIENCE: Duration = Duration::from_secs(1);

/// Most unsent bytes one connection may hold. A destination that falls
/// this far behind is dropped (and, for a peer, reconnected on the next
/// send) instead of growing the node without bound.
const MAX_BACKLOG: usize = 32 * 1024 * 1024;

/// How long a parked query request waits for news before the unchanged
/// report goes out: far above a query's lifetime on a loopback cluster
/// (a few milliseconds), far below any client's patience (seconds).
pub const PARK_PATIENCE: Duration = Duration::from_millis(100);

/// How many queries a node keeps state for: the newest by first touch
/// at this node. A query older than that is retired (see the module's
/// "Per-query state").
pub const QUERY_WINDOW: usize = 1024;

/// Server configuration, straight off the CLI.
#[derive(Clone, Debug)]
pub struct ServerOpts {
    /// Address to listen on (`127.0.0.1:0` picks a free port; the
    /// resolved address is printed to stdout as `listening on ...`).
    pub listen: String,
    /// Seed address to join through; `None` makes this node the seed.
    pub join: Option<String>,
    /// Total cluster size, identical on every node.
    pub expect: usize,
    /// The shared deterministic scenario (`n_nodes` must equal
    /// `expect`).
    pub scenario: Scenario,
}

/// Whether a peer's search message may reach the core. A node runs with
/// resilience off, so it sends only `Route`, `Results` and `Publish`, and
/// takes those and `Refine`; any other variant from a peer would drive
/// machinery this driver never runs (an ack, a suspicion set, a
/// never-pruned duplicate filter, an unanswered replica). The core looks
/// indexes up by the index byte, and [`StoredL2`] refines from the
/// ball's center and the stored points, so every sub-query must carry a
/// ball and every center, rect and point must match the grid's `dims`.
/// Routing splits a sub-query's prefix one bit deeper, so no prefix may
/// be longer than the grid's `depth`. A node batches fragments of one
/// query only, so a `Route` may name one query id.
fn admissible(msg: &SearchMsg, indexes: usize, dims: usize, depth: u32) -> Result<(), String> {
    let index = |i: u8| {
        (usize::from(i) < indexes)
            .then_some(())
            .ok_or_else(|| format!("index {i}, but only {indexes} index(es) exist"))
    };
    let dims_of = |what: &str, n: usize| {
        (n == dims)
            .then_some(())
            .ok_or_else(|| format!("{n}-dim {what} in a {dims}-dim index"))
    };
    let subquery = |sq: &SubQueryMsg| {
        index(sq.index)?;
        let ball = sq.ball.as_ref();
        let ball = ball.ok_or_else(|| format!("query {} carries no ball", sq.qid))?;
        dims_of("ball center", ball.center.len())?;
        dims_of("query rect", sq.rect.dims())?;
        let len = sq.prefix.len();
        (len <= depth)
            .then_some(())
            .ok_or_else(|| format!("{len}-bit prefix in a depth-{depth} grid"))
    };
    let never = |what: &str| Err(format!("{what} is never sent by this node"));
    match msg {
        SearchMsg::Route(subs) => {
            if let Some(other) = subs.iter().find(|sq| sq.qid != subs[0].qid) {
                let first = subs[0].qid;
                return Err(format!("a route naming queries {first} and {}", other.qid));
            }
            subs.iter().try_for_each(subquery)
        }
        SearchMsg::Refine(sq) => subquery(sq),
        SearchMsg::Publish {
            index: i, entry, ..
        } => {
            index(*i)?;
            dims_of("point", entry.point.len())
        }
        SearchMsg::Results { .. } => Ok(()),
        SearchMsg::Issue(_) => never("an issue"),
        SearchMsg::Replicate { .. } => never("a replica"),
        SearchMsg::Tracked { .. } => never("a tracked envelope"),
        SearchMsg::Ack { .. } => never("an ack"),
    }
}

/// Constant-latency [`Links`] oracle.
struct ConstLinks(SimDuration);

impl Links for ConstLinks {
    fn rtt_to(&self, _other: AgentId) -> SimDuration {
        self.0
    }
}

/// The shared timer wheel: armed one-shot timers ordered by deadline,
/// with arm order breaking ties — mirroring the simulator's
/// `(time, seq)` event ordering. Arm orders are unique, so the tag that
/// rides along never decides the order.
#[derive(Default)]
struct TimerWheel {
    heap: BinaryHeap<std::cmp::Reverse<(Instant, u64, u64)>>,
    seq: u64,
}

impl TimerWheel {
    fn schedule(&mut self, at: Instant, tag: TimerTag) {
        self.heap.push(std::cmp::Reverse((at, self.seq, tag.0)));
        self.seq += 1;
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|std::cmp::Reverse((at, ..))| *at)
    }

    fn pop_due(&mut self, now: Instant) -> Option<TimerTag> {
        let &std::cmp::Reverse((at, _, tag)) = self.heap.peek()?;
        if at > now {
            return None;
        }
        self.heap.pop();
        Some(TimerTag(tag))
    }
}

/// `struct epoll_event` of `epoll_ctl(2)`: the events, then the key the
/// kernel hands back with them. The kernel packs it on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    key: u64,
}

const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
/// The peer closed its end; reported even to a registration without
/// `EPOLLIN`, so a connection that is not being read still sees it.
const EPOLLRDHUP: u32 = 0x2000;
/// `O_CLOEXEC` with the generic open flags (x86-64, arm64, ...).
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout: c_int) -> c_int;
}

/// The listener's key. A connection's key is its slot in the low half
/// and its open count in the high half, so it is never this.
const LISTENER: u64 = u64::MAX;

/// One level-triggered `epoll` instance, each socket registered under a
/// key. `std` has no readiness API, hence the binding.
struct Epoll {
    fd: OwnedFd,
    /// What the last [`Epoll::wait`] reported, in its first entries.
    ready: [EpollEvent; 64],
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: the call takes no pointer.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            // SAFETY: `fd` was just opened by this process, and nothing
            // else owns or closes it.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
            ready: [EpollEvent { events: 0, key: 0 }; 64],
        })
    }

    /// Register `fd` (`EPOLL_CTL_ADD`), change what it is registered for
    /// (`EPOLL_CTL_MOD`) or remove it (`EPOLL_CTL_DEL`).
    fn ctl(&self, op: c_int, fd: RawFd, events: u32, key: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, key };
        // SAFETY: `event` is a `struct epoll_event` that lives across the
        // call; the kernel reads it and keeps no pointer to it.
        let rc = unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Sleep until a registered socket is ready or `timeout` passes
    /// (`None` waits indefinitely); returns how many entries of `ready`
    /// the kernel filled. A signal just ends the wait.
    fn wait(&mut self, timeout: Option<Duration>) -> io::Result<usize> {
        // Round up: a timer must not fire before its deadline.
        let ms = timeout.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
        });
        let (ready, max) = (self.ready.as_mut_ptr(), self.ready.len() as c_int);
        // SAFETY: `ready` points at `max` exclusively borrowed entries;
        // the kernel writes at most `max` of them and keeps no pointer
        // once the call returns.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), ready, max, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        (e.kind() == io::ErrorKind::Interrupted)
            .then_some(0)
            .ok_or(e)
    }
}

/// What a connection is for; decides how its next frame is read.
#[derive(Clone, Copy)]
enum Link {
    /// Accepted, no [`Frame::Hello`] yet.
    Fresh,
    /// Accepted from peer `.0`: its search frames come in, nothing goes
    /// out.
    PeerIn(usize),
    /// Accepted from a client: requests in, one reply out per request,
    /// in request order.
    Client,
    /// Opened by this node to peer `.0`: our search frames go out,
    /// nothing comes in.
    PeerOut(usize),
}

/// One non-blocking TCP connection with its two buffers. Both start
/// empty and hand back what a burst grew them by once they drain.
struct Conn {
    stream: TcpStream,
    link: Link,
    /// Its registration: the key its events carry, and the events it is
    /// registered for.
    key: u64,
    interest: u32,
    inbox: FrameBuf,
    /// Encoded frames the kernel has not taken yet, after the first
    /// `sent` bytes, which it has.
    outbox: Vec<u8>,
    sent: usize,
    /// A client's query request waiting for news; it dies with the
    /// connection. While it waits, the connection is not read, so later
    /// requests queue behind it.
    parked: Option<Parked>,
}

/// A [`Frame::QueryStatus`] or [`Frame::ClientQuery`] waiting for its
/// query to move.
#[derive(Clone, Copy)]
struct Parked {
    qid: QueryId,
    /// Answer once the query has more responses than this.
    seen: u32,
    /// Answer with the unchanged view at this instant at the latest.
    until: Instant,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// One `write`: hand the kernel as much of the outbox as it takes.
    fn flush(&mut self) -> io::Result<()> {
        match self.stream.write(&self.outbox[self.sent..]) {
            Ok(n) => self.sent += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
        if self.unsent() == 0 {
            self.outbox.clear();
            self.outbox.shrink_to(wire::IDLE_CAPACITY);
            self.sent = 0;
        } else if self.sent > self.outbox.len() / 2 {
            // Only once the sent part is the bigger half, so a slow
            // reader does not make every turn recopy its backlog.
            self.outbox.drain(..self.sent);
            self.sent = 0;
        }
        Ok(())
    }
}

/// Keep attempting a TCP connect until it succeeds or patience runs out
/// (peers come up in arbitrary order; a refused connect is normal early
/// in a cluster's life).
pub(crate) fn connect_retry(addr: &str) -> Result<TcpStream, String> {
    let start = Instant::now();
    loop {
        let last_error = match TcpStream::connect(addr) {
            Ok(stream) => {
                // Frames are small and latency-sensitive.
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => e,
        };
        if start.elapsed() >= RETRY_PATIENCE {
            return Err(format!(
                "could not connect to {addr} within {RETRY_PATIENCE:?}: {last_error}"
            ));
        }
        thread::sleep(Duration::from_millis(100));
    }
}

/// Static-membership bootstrap. The seed collects one join per expected
/// peer and assigns indices by sorted listen address; joiners block
/// until the membership arrives. Duplicate addresses (a node joining
/// twice) are rejected with a descriptive [`Frame::Error`].
fn bootstrap(
    listener: &TcpListener,
    my_addr: &str,
    join: Option<&str>,
    expect: usize,
) -> Result<Vec<Member>, String> {
    match join {
        None => {
            let mut joined: Vec<(String, TcpStream)> = Vec::new();
            while joined.len() < expect - 1 {
                let (mut conn, _) = listener
                    .accept()
                    .map_err(|e| format!("accept failed during bootstrap: {e}"))?;
                let reason = match wire::read_frame(&mut conn) {
                    Ok(Some(Frame::JoinRequest { addr }))
                        if addr == my_addr || joined.iter().any(|(a, _)| *a == addr) =>
                    {
                        format!("listen address {addr} is already a member (double join)")
                    }
                    Ok(Some(Frame::JoinRequest { addr })) => {
                        joined.push((addr, conn));
                        continue;
                    }
                    Ok(Some(other)) => format!(
                        "cluster is bootstrapping; {} frames not accepted yet",
                        other.kind()
                    ),
                    Ok(None) => continue, // probe connection; ignore
                    Err(e) => {
                        eprintln!("seed: malformed join attempt: {e}");
                        continue;
                    }
                };
                let _ = wire::write_frame(&mut conn, &Frame::Error { reason });
            }
            let mut addrs: Vec<String> = joined.iter().map(|(a, _)| a.clone()).collect();
            addrs.push(my_addr.to_string());
            addrs.sort();
            let members: Vec<Member> = addrs
                .into_iter()
                .enumerate()
                .map(|(i, addr)| Member {
                    index: i as u64,
                    addr,
                })
                .collect();
            for (addr, mut conn) in joined {
                wire::write_frame(
                    &mut conn,
                    &Frame::Members {
                        members: members.clone(),
                    },
                )
                .map_err(|e| format!("failed to send membership to joiner {addr}: {e}"))?;
            }
            Ok(members)
        }
        Some(seed) => {
            let mut conn = connect_retry(seed)?;
            wire::write_frame(
                &mut conn,
                &Frame::JoinRequest {
                    addr: my_addr.to_string(),
                },
            )
            .map_err(|e| format!("join request to seed {seed} failed: {e}"))?;
            match wire::read_frame(&mut conn) {
                Ok(Some(Frame::Members { members })) => {
                    if members.len() != expect {
                        return Err(format!(
                            "seed {seed} announced {} members, expected {expect}",
                            members.len()
                        ));
                    }
                    if !members.iter().any(|m| m.addr == my_addr) {
                        return Err(format!(
                            "seed {seed} membership does not include this node ({my_addr})"
                        ));
                    }
                    Ok(members)
                }
                Ok(Some(Frame::Error { reason })) => {
                    Err(format!("join rejected by seed {seed}: {reason}"))
                }
                Ok(Some(other)) => Err(format!(
                    "seed {seed} answered the join with an unexpected {} frame",
                    other.kind()
                )),
                Ok(None) => Err(format!(
                    "seed {seed} closed the connection before sending the membership"
                )),
                Err(e) => Err(format!("failed to read membership from seed {seed}: {e}")),
            }
        }
    }
}

/// Everything the loop owns — which is everything.
struct Runtime {
    me: usize,
    node: SearchNode,
    wheel: TimerWheel,
    /// Self-addressed sends, drained before anything else — matching
    /// the simulator, where a self-send is just the earliest event.
    local: VecDeque<SearchMsg>,
    /// The one output buffer every callback is lent, empty between them.
    outbox: Vec<Output<SearchMsg>>,
    start: Instant,
    telemetry: Telemetry,
    /// What every member derives its grid and messages from.
    scenario: Scenario,
    members: Vec<Member>,
    listener: TcpListener,
    /// Connection slots; a closed connection leaves a hole for reuse.
    conns: Vec<Option<Conn>>,
    /// Per member, the slot of this node's [`Link::PeerOut`] to it.
    out: Vec<Option<usize>>,
    /// The listener's and every connection's registration.
    epoll: Epoll,
    /// Connections opened so far: the high half of the next one's key.
    opened: u32,
    /// The one read buffer every connection's `read` goes through.
    scratch: Box<[u8]>,
    /// Slots whose parked request was answered while frames behind it
    /// sat in their read buffer; served before the next flush.
    resume: Vec<usize>,
    /// The slot owed a [`Frame::ShutdownAck`]; the loop ends once that
    /// is on the wire.
    stop: Option<usize>,
}

impl Runtime {
    /// Drive one input through the sans-io core and act on its outputs
    /// in emission order — the whole driver contract in one method.
    fn feed(&mut self, input: Input<SearchMsg>) {
        let now = SimTime(self.start.elapsed().as_nanos() as u64);
        let links = ConstLinks(PEER_RTT);
        let outbox = std::mem::take(&mut self.outbox);
        let n = self.members.len();
        let mut ctx = ProtoCtx::with_buffer(AgentId(self.me), now, n, &links, outbox);
        dispatch(&mut self.node, &mut ctx, input);
        let mut outputs = ctx.into_outputs();
        self.node.retire_oldest(QUERY_WINDOW);
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg, bytes: _ } => {
                    if to.0 == self.me {
                        self.local.push_back(msg);
                    } else {
                        self.send(to.0, msg);
                    }
                }
                Output::Timer { delay, tag } => {
                    self.wheel
                        .schedule(Instant::now() + Duration::from_nanos(delay.0), tag);
                }
            }
        }
        self.outbox = outputs;
    }

    /// Feed every queued self-send, including the ones that feeding
    /// queues. Runs after every other input, so no wire frame or timer
    /// ever overtakes a self-send.
    fn drain_local(&mut self) {
        while let Some(msg) = self.local.pop_front() {
            self.feed(Input::Message {
                from: AgentId(self.me),
                msg,
            });
        }
    }

    /// Queue `msg` for peer `to`, connecting first if this is the first
    /// send (or the first since the connection broke). An unreachable
    /// peer costs this message and a log line.
    fn send(&mut self, to: usize, msg: SearchMsg) {
        let slot = match self.out[to] {
            Some(slot) => slot,
            None => match self.connect(to) {
                Ok(slot) => slot,
                Err(e) => {
                    eprintln!("node {}: dropping message to peer {to}: {e}", self.me);
                    return;
                }
            },
        };
        self.queue(slot, &Frame::Search(msg));
    }

    fn connect(&mut self, to: usize) -> Result<usize, String> {
        let addr = &self.members[to].addr;
        let sock: SocketAddr = addr
            .parse()
            .map_err(|e| format!("peer address {addr} is unusable: {e}"))?;
        let stream = TcpStream::connect_timeout(&sock, CONNECT_PATIENCE)
            .map_err(|e| format!("could not connect to {addr}: {e}"))?;
        let slot = self
            .open(stream, Link::PeerOut(to))
            .map_err(|e| format!("could not set up the connection: {e}"))?;
        self.out[to] = Some(slot);
        self.queue(
            slot,
            &Frame::Hello {
                role: Role::Peer,
                index: self.me as u64,
            },
        );
        Ok(slot)
    }

    /// Adopt a connected socket into a free slot, registered for reads.
    fn open(&mut self, stream: TcpStream, link: Link) -> io::Result<usize> {
        stream.set_nonblocking(true)?;
        // Frames are small and latency-sensitive.
        let _ = stream.set_nodelay(true);
        let free = self.conns.iter().position(Option::is_none);
        let slot = free.unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.opened = self.opened.wrapping_add(1);
        let key = u64::from(self.opened) << 32 | slot as u64;
        let fd = stream.as_raw_fd();
        self.epoll.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, key)?;
        self.conns[slot] = Some(Conn {
            stream,
            link,
            key,
            interest: EPOLLIN,
            inbox: FrameBuf::default(),
            outbox: Vec::new(),
            sent: 0,
            parked: None,
        });
        Ok(slot)
    }

    /// Drop a connection, saying `why` unless it ended in good order.
    fn close(&mut self, slot: usize, why: Option<String>) {
        let Some(mut conn) = self.conns[slot].take() else {
            return;
        };
        if let Some(why) = why {
            eprintln!("node {}: {why}", self.me);
        }
        // Last words (an error reply) get one try at the wire.
        if conn.unsent() > 0 {
            let _ = conn.flush();
        }
        // Dropping the socket below deregisters it too, so a failure
        // here leaves nothing behind.
        let _ = self.epoll.ctl(EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
        if let Link::PeerOut(to) = conn.link {
            // The next send to this peer reconnects.
            self.out[to] = None;
        }
    }

    /// Append `frame` to a connection's outbox; the turn's flush step
    /// writes it. No-op on a slot that closed in the meantime.
    fn queue(&mut self, slot: usize, frame: &Frame) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        wire::encode_frame_into(&mut conn.outbox, frame);
        if conn.unsent() > MAX_BACKLOG {
            let why = format!(
                "dropping a connection that stopped reading ({} unsent bytes)",
                conn.unsent()
            );
            self.close(slot, Some(why));
        }
    }

    /// Current origin-side view of a query, as a wire frame.
    fn report(&self, qid: QueryId) -> Frame {
        match self.node.issued.get(&qid) {
            Some(iq) => Frame::QueryReport {
                qid,
                responses: iq.responses,
                max_hops: iq.max_hops,
                degraded: iq.degraded,
                merged: iq.merged.iter().map(|&(o, d)| (o.0, d)).collect(),
            },
            None => Frame::QueryReport {
                qid,
                responses: 0,
                max_hops: 0,
                degraded: false,
                merged: Vec::new(),
            },
        }
    }

    /// Snapshot this node's telemetry share.
    fn stats(&self) -> StatsReport {
        let st = self.telemetry.lock();
        let counters = st
            .registry
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let histograms = st
            .registry
            .histograms()
            .map(|(k, h)| HistogramSummary {
                name: k.to_string(),
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
            })
            .collect();
        let queries = st
            .traces
            .iter()
            .map(|(&qid, t)| (qid, t.summary()))
            .collect();
        drop(st);
        StatsReport {
            counters,
            histograms,
            queries,
            load: self.node.load() as u64,
        }
    }

    /// Service one client request: a reply now, or a report once the
    /// query it names has news.
    fn handle_client(&mut self, req: Frame) -> Reply {
        let error = |reason: String| Reply::Now(Frame::Error { reason });
        match req {
            Frame::ClientPublish { index, obj, point } => {
                if index as usize >= self.node.indexes.len() {
                    return error(format!(
                        "publish into index {index}, but only {} index(es) exist",
                        self.node.indexes.len()
                    ));
                }
                if point.len() != self.scenario.dims {
                    return error(format!(
                        "publish of a {}-dim point into a {}-dim index",
                        point.len(),
                        self.scenario.dims
                    ));
                }
                // No query rect could ever hold it: `Rect::ball` clips
                // every query to the bounds.
                if let Some(x) = point.iter().find(|x| !x.is_finite()) {
                    return error(format!("published coordinate {x} is not a finite number"));
                }
                let grid = &self.node.indexes[index as usize].grid;
                let bounds = grid.bounds();
                if !bounds.contains_point(&point) {
                    return error(format!(
                        "published point {point:?} lies outside the index bounds {:?}..={:?}",
                        bounds.lo(),
                        bounds.hi()
                    ));
                }
                let entry = self.scenario.entry(grid, obj, &point);
                self.feed(Input::Message {
                    from: AgentId(self.me),
                    msg: SearchMsg::Publish {
                        index,
                        entry,
                        hops: 0,
                    },
                });
                Reply::Now(Frame::PublishAck)
            }
            Frame::ClientQuery {
                qid,
                index,
                center,
                radius,
            } => {
                if index as usize >= self.node.indexes.len() {
                    return error(format!(
                        "query against index {index}, but only {} index(es) exist",
                        self.node.indexes.len()
                    ));
                }
                if center.len() != self.scenario.dims {
                    return error(format!(
                        "{}-dim query center against a {}-dim index",
                        center.len(),
                        self.scenario.dims
                    ));
                }
                // `Rect::ball` clips with `f64::max`/`min`, which drop a
                // NaN: such a center would become a whole-space query.
                if let Some(x) = center.iter().find(|x| !x.is_finite()) {
                    return error(format!(
                        "query center coordinate {x} is not a finite number"
                    ));
                }
                if !(radius.is_finite() && radius >= 0.0) {
                    return error(format!(
                        "query radius {radius} is not a finite non-negative number"
                    ));
                }
                let q = RangeQuery {
                    origin: self.me,
                    center,
                    radius,
                };
                let grid = &self.node.indexes[index as usize].grid;
                let msg = self.scenario.issue_msg(grid, qid, &q);
                self.feed(Input::Message {
                    from: AgentId(self.me),
                    msg,
                });
                Reply::News { qid, seen: 0 }
            }
            Frame::QueryStatus { qid, seen } => Reply::News { qid, seen },
            Frame::StatsRequest => Reply::Now(Frame::StatsReport(self.stats())),
            Frame::MembersRequest => Reply::Now(Frame::Members {
                members: self.members.clone(),
            }),
            Frame::Shutdown => Reply::Now(Frame::ShutdownAck),
            other => error(format!(
                "unexpected {} request on a client connection",
                other.kind()
            )),
        }
    }

    /// Answer every parked request whose query has more responses than
    /// its client has seen, or whose patience ran out, with the ordinary
    /// [`Runtime::report`]. Runs once per turn before the flush (and
    /// after each resumed connection): a reply queued earlier would leave
    /// in the same write, and one queued now carries every response the
    /// turn brought.
    fn answer_parked(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let Some(p) = conn.parked else {
                continue;
            };
            let responses = self.node.issued.get(&p.qid).map_or(0, |iq| iq.responses);
            if responses <= p.seen && now < p.until {
                continue;
            }
            conn.parked = None;
            if !conn.inbox.is_empty() {
                self.resume.push(slot);
            }
            let report = self.report(p.qid);
            self.queue(slot, &report);
        }
    }
}

/// What a client request gets.
enum Reply {
    /// This frame, at once.
    Now(Frame),
    /// A report on `qid` once it has more than `seen` responses.
    News { qid: QueryId, seen: u32 },
}

/// The reactor proper: what happens to connections and in what order.
impl Runtime {
    /// Act on one inbound frame according to its connection's current
    /// role. An `Err` is a protocol violation: it is logged and kills
    /// this connection — never the node.
    fn on_frame(&mut self, slot: usize, frame: Frame) -> Result<(), String> {
        let conn = self.conns[slot]
            .as_mut()
            .expect("frames are only read off open connections");
        match (conn.link, frame) {
            (Link::Fresh, Frame::Hello { role, index }) => {
                conn.link = match role {
                    Role::Client => Link::Client,
                    Role::Peer if index < self.members.len() as u64 => Link::PeerIn(index as usize),
                    Role::Peer => {
                        return Err(format!(
                            "hello from peer {index}, but the cluster has {} members",
                            self.members.len()
                        ));
                    }
                };
            }
            (Link::Fresh, Frame::JoinRequest { addr }) => {
                let reason = "cluster already formed; joins are closed".to_string();
                self.queue(slot, &Frame::Error { reason });
                return Err(format!("turned away a late join request from {addr}"));
            }
            (Link::Fresh, other) => {
                return Err(format!(
                    "connection opened with {} instead of hello",
                    other.kind()
                ));
            }
            (Link::PeerIn(from), Frame::Search(msg)) => {
                admissible(
                    &msg,
                    self.node.indexes.len(),
                    self.scenario.dims,
                    self.scenario.depth,
                )
                .map_err(|why| format!("peer {from} sent an inadmissible search frame: {why}"))?;
                self.feed(Input::Message {
                    from: AgentId(from),
                    msg,
                });
            }
            (Link::PeerIn(from), other) => {
                return Err(format!(
                    "peer {from} sent an unexpected {} frame on a search connection",
                    other.kind()
                ));
            }
            (Link::Client, req) => {
                if matches!(req, Frame::Shutdown) {
                    self.stop = Some(slot);
                }
                match self.handle_client(req) {
                    Reply::Now(resp) => self.queue(slot, &resp),
                    Reply::News { qid, seen } => {
                        let conn = self.conns[slot]
                            .as_mut()
                            .expect("a client request leaves its own connection open");
                        conn.parked = Some(Parked {
                            qid,
                            seen,
                            until: Instant::now() + PARK_PATIENCE,
                        });
                    }
                }
            }
            (Link::PeerOut(to), other) => {
                return Err(format!(
                    "peer {to} sent a {} frame on this node's outbound connection",
                    other.kind()
                ));
            }
        }
        Ok(())
    }

    /// One `read` off a readable connection, then [`Runtime::serve`] it.
    fn read_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.inbox.fill(&mut conn.stream, &mut self.scratch) {
            Ok(0) if conn.inbox.is_empty() => return self.close(slot, None),
            Ok(0) => {
                return self.close(slot, Some("connection closed inside a frame".to_string()));
            }
            Ok(_) => {}
            // Readiness is a hint: the bytes may be gone by now.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return;
            }
            Err(e) => return self.close(slot, Some(format!("read failed: {e}"))),
        }
        self.serve(slot);
    }

    /// Handle the complete frames a connection holds, in order, until
    /// none is left or one is parked.
    fn serve(&mut self, slot: usize) {
        // The slot empties if a frame's handling closes the connection.
        while let Some(conn) = self.conns[slot].as_mut() {
            if conn.parked.is_some() {
                return;
            }
            let handled = match conn.inbox.next_frame() {
                Ok(Some(frame)) => self.on_frame(slot, frame),
                Ok(None) => return,
                Err(e) => Err(format!("malformed frame: {e}")),
            };
            if let Err(why) = handled {
                return self.close(slot, Some(why));
            }
            self.drain_local();
        }
    }

    /// The flush step for one slot: write what the socket takes, then
    /// make its registration match what this turn's wait should watch
    /// it for, if it does not already.
    fn flush(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.unsent() > 0 {
            if let Err(e) = conn.flush() {
                return self.close(slot, Some(format!("write failed: {e}")));
            }
        }
        // A parked connection is not read: what the client sent behind
        // the parked request waits in the kernel.
        let read = if conn.parked.is_some() {
            EPOLLRDHUP
        } else {
            EPOLLIN
        };
        let write = if conn.unsent() > 0 { EPOLLOUT } else { 0 };
        if read | write == conn.interest {
            return;
        }
        conn.interest = read | write;
        let fd = conn.stream.as_raw_fd();
        if let Err(e) = self.epoll.ctl(EPOLL_CTL_MOD, fd, conn.interest, conn.key) {
            self.close(slot, Some(format!("epoll_ctl failed: {e}")));
        }
    }

    /// One turn of the loop, in the order the module doc gives. `false`
    /// once the node has been shut down.
    fn turn(&mut self) -> Result<bool, String> {
        self.drain_local();
        while let Some(tag) = self.wheel.pop_due(Instant::now()) {
            self.feed(Input::Timer(tag));
            self.drain_local();
        }
        self.answer_parked();
        while let Some(slot) = self.resume.pop() {
            self.serve(slot);
            self.answer_parked();
        }

        for slot in 0..self.conns.len() {
            self.flush(slot);
        }
        // The shutdown ack is on the wire, or its client is gone.
        if let Some(slot) = self.stop {
            if self.conns[slot].as_ref().is_none_or(|c| c.unsent() == 0) {
                return Ok(false);
            }
        }

        let parked = self.conns.iter().flatten().filter_map(|c| c.parked);
        let timeout = (self.wheel.next_deadline().into_iter())
            .chain(parked.map(|p| p.until))
            .min()
            .map(|at| at.saturating_duration_since(Instant::now()));
        let ready = self
            .epoll
            .wait(timeout)
            .map_err(|e| format!("epoll_wait failed: {e}"))?;

        // Connections opened while handling these events are reported
        // from the next wait on.
        for i in 0..ready {
            let EpollEvent { events, key } = self.epoll.ready[i];
            if key == LISTENER {
                match self.listener.accept() {
                    Ok((stream, _)) => self.open(stream, Link::Fresh).map(drop),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                    Err(e) => Err(e),
                }
                .unwrap_or_else(|e| eprintln!("node {}: accept failed: {e}", self.me));
                continue;
            }
            // Writable only: the next flush step writes.
            if events & !EPOLLOUT == 0 {
                continue;
            }
            // A connection closed earlier in this batch is gone from its
            // slot, or replaced by one with a newer key.
            let slot = key as u32 as usize;
            let conn = self.conns[slot].as_ref().filter(|c| c.key == key);
            // Errors and hang-ups surface through the read as well, but a
            // parked connection is not read: a hang-up ends it and its
            // parked request.
            match conn.map(|c| c.parked.is_some()) {
                Some(true) => self.close(slot, None),
                Some(false) => self.read_ready(slot),
                None => {}
            }
        }
        Ok(true)
    }
}

/// Run one node to completion: bind, bootstrap, serve until a client
/// sends [`Frame::Shutdown`].
pub fn run_server(opts: &ServerOpts) -> Result<(), String> {
    if opts.expect != opts.scenario.n_nodes {
        return Err(format!(
            "--expect {} disagrees with the scenario's {} nodes",
            opts.expect, opts.scenario.n_nodes
        ));
    }
    if opts.expect == 0 {
        return Err("--expect must be at least 1".to_string());
    }
    let listener = TcpListener::bind(&opts.listen)
        .map_err(|e| format!("failed to bind {}: {e}", opts.listen))?;
    let my_addr = listener
        .local_addr()
        .map_err(|e| format!("bound socket has no local address: {e}"))?
        .to_string();
    // The harness parses this line to learn auto-assigned ports.
    println!("listening on {my_addr}");
    std::io::stdout()
        .flush()
        .map_err(|e| format!("failed to flush the listen announcement: {e}"))?;

    let members = bootstrap(&listener, &my_addr, opts.join.as_deref(), opts.expect)?;
    let me = members
        .iter()
        .position(|m| m.addr == my_addr)
        .ok_or_else(|| format!("membership is missing this node's address {my_addr}"))?;
    eprintln!("node {me}: membership complete ({} nodes)", members.len());

    let sc = opts.scenario;
    let ring = sc.ring();
    let table = ring
        .build_all_tables(16, None, 16)
        .into_iter()
        .nth(me)
        .expect("build_all_tables returned a table per member");

    let grid = Arc::new(sc.grid());
    let mut node = SearchNode::new(
        table,
        vec![IndexState {
            grid,
            rotation: rotation(),
            store: Store::new(),
        }],
        Arc::new(StoredL2),
        KNN_K,
        None,
    );
    let telemetry = Telemetry::new();
    node.attach_telemetry(telemetry.clone());

    listener
        .set_nonblocking(true)
        .map_err(|e| format!("failed to make the listener non-blocking: {e}"))?;
    let epoll = Epoll::new().map_err(|e| format!("failed to create the epoll instance: {e}"))?;
    epoll
        .ctl(EPOLL_CTL_ADD, listener.as_raw_fd(), EPOLLIN, LISTENER)
        .map_err(|e| format!("failed to register the listener: {e}"))?;
    let mut rt = Runtime {
        me,
        node,
        wheel: TimerWheel::default(),
        local: VecDeque::new(),
        outbox: Vec::new(),
        start: Instant::now(),
        telemetry,
        scenario: sc,
        out: members.iter().map(|_| None).collect(),
        members,
        listener,
        conns: Vec::new(),
        epoll,
        opened: 0,
        scratch: vec![0; wire::READ_CHUNK].into_boxed_slice(),
        resume: Vec::new(),
        stop: None,
    };
    rt.feed(Input::Start);
    while rt.turn()? {}
    eprintln!("node {me}: clean shutdown");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_event_has_the_kernel_layout() {
        let size = if cfg!(target_arch = "x86_64") { 12 } else { 16 };
        assert_eq!(std::mem::size_of::<EpollEvent>(), size);
    }

    /// The binding end to end on one loopback pair: the key comes back
    /// intact, a registration without `EPOLLIN` ignores bytes but not a
    /// hang-up, and a removed socket reports nothing.
    #[test]
    fn epoll_reports_readiness_under_the_registered_key() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut writer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (reader, _) = listener.accept().expect("accept");
        let mut ep = Epoll::new().expect("epoll_create1");
        let fd = reader.as_raw_fd();
        let key = 7 << 32 | 3;
        let (now, soon) = (Some(Duration::ZERO), Some(Duration::from_secs(5)));
        let events = |ep: &Epoll, n: usize| -> Vec<(u32, u64)> {
            ep.ready[..n].iter().map(|e| (e.events, e.key)).collect()
        };

        ep.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, key).expect("add");
        assert_eq!(ep.wait(now).expect("wait"), 0, "nothing sent yet");
        writer.write_all(b"x").expect("write");
        let n = ep.wait(soon).expect("wait");
        assert_eq!(events(&ep, n), [(EPOLLIN, key)]);
        // Level-triggered: the unread byte is reported again.
        let n = ep.wait(now).expect("wait");
        assert_eq!(events(&ep, n), [(EPOLLIN, key)]);

        ep.ctl(EPOLL_CTL_MOD, fd, EPOLLRDHUP, key).expect("mod");
        assert_eq!(ep.wait(now).expect("wait"), 0, "bytes alone are not news");
        writer
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let n = ep.wait(soon).expect("wait");
        assert_eq!(events(&ep, n), [(EPOLLRDHUP, key)]);

        ep.ctl(EPOLL_CTL_DEL, fd, 0, 0).expect("del");
        assert_eq!(ep.wait(now).expect("wait"), 0, "a removed socket is silent");
    }
}
