//! The node's readiness loop against hostile and awkward byte streams,
//! on real `node` processes: frames cut into single bytes, frames glued
//! into one segment, garbage, connections cut mid-frame, peer frames the
//! core could not serve, non-finite client coordinates, a client that
//! never reads, query requests parked until their query has news, a
//! client-chosen query id near `u32::MAX`, three windows' worth of
//! queries against nodes that keep only the newest window, hundreds
//! of connections opened and closed, and scenario flags no grid can be
//! built from. `tests/parity.rs` proves the loop preserves event order;
//! this file proves no connection can stall or kill the others.
//! One in-process test covers the framer both ends share.

use lph::{Prefix, Rect};
use metric::ObjectId;
use node::client::Client;
use node::runtime::{PARK_PATIENCE, QUERY_WINDOW};
use node::scenario::{RangeQuery, Scenario};
use node::wire::{encode_frame, read_frame, Frame, FrameBuf, Role};
use simnet::{AgentId, SimRng};
use simsearch::{Entry, QueryBall, SearchMsg, SubQueryMsg};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A slow CI host gets this long for anything that should be instant.
const PATIENCE: Duration = Duration::from_secs(20);

/// Kills every child on drop so a failing assertion never leaks node
/// processes into the test environment.
struct Cluster {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Cluster {
    /// Spawn `n` nodes and wait until every one is past bootstrap.
    fn spawn(n: usize) -> Cluster {
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: Vec::new(),
        };
        for _ in 0..n {
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_node"));
            cmd.args(["--listen", "127.0.0.1:0", "--expect", &n.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if let Some(seed) = cluster.addrs.first() {
                cmd.args(["--join", seed]);
            }
            let mut child = cmd.spawn().expect("spawn node process");
            let stdout = child.stdout.take().expect("child stdout is piped");
            cluster.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("read the node's listen announcement");
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .unwrap_or_else(|| panic!("unexpected node announcement: {line:?}"));
            cluster.addrs.push(addr.to_string());
        }
        // `Client::connect` only returns once a request round-trips,
        // i.e. the node is in its serving loop.
        for addr in &cluster.addrs {
            Client::connect(addr).expect("node never left bootstrap");
        }
        cluster
    }

    /// A connection that has said nothing yet.
    fn raw(&self, node: usize) -> TcpStream {
        let stream = TcpStream::connect(&self.addrs[node]).expect("connect to node");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(PATIENCE))
            .expect("read timeout");
        stream
    }
}

fn hello() -> Vec<u8> {
    encode_frame(&Frame::Hello {
        role: Role::Client,
        index: 0,
    })
}

/// `(qid, responses, merged)` of a query report.
type Report = (u32, u32, Vec<(u32, f64)>);

fn report_of(reply: std::io::Result<Option<Frame>>) -> Report {
    match reply {
        Ok(Some(Frame::QueryReport {
            qid,
            responses,
            merged,
            ..
        })) => (qid, responses, merged),
        other => panic!("expected a query report, got {other:?}"),
    }
}

/// A client connection to node 0 of a one-node cluster, past its hello,
/// that issued query `qid` and holds its first report. The node answers
/// the whole query itself, so no later report can bring news.
fn issued(cluster: &Cluster, qid: u32) -> (TcpStream, Report) {
    let mut conn = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(encode_frame(&Frame::ClientQuery {
        qid,
        index: 0,
        center: vec![0.5; 3],
        radius: 0.2,
    }));
    conn.write_all(&bytes).expect("hello and query");
    let report = report_of(read_frame(&mut conn));
    assert!(report.1 >= 1, "a one-node query is answered: {report:?}");
    (conn, report)
}

/// A process's peak resident set in kB, or `None` without `/proc`.
fn vm_hwm_kb(child: &Child) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).ok()?;
    let hwm = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status");
    Some(hwm)
}

/// How many descriptors a process holds open, or `None` without `/proc`.
fn open_fds(child: &Child) -> Option<usize> {
    let dir = std::fs::read_dir(format!("/proc/{}/fd", child.id())).ok()?;
    Some(dir.count())
}

/// Nothing is waiting to be read on `conn`.
fn assert_quiet(conn: &mut TcpStream, what: &str) {
    conn.set_nonblocking(true).expect("nonblocking");
    let peeked = conn.peek(&mut [0u8; 1]);
    conn.set_nonblocking(false).expect("blocking");
    match peeked {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("{what}: expected nothing to read, got {other:?}"),
    }
}

/// The node hung up: end-of-stream, or a reset because it closed with
/// bytes of ours still unread.
fn assert_closed(conn: &mut TcpStream, what: &str) {
    match read_frame(conn) {
        Ok(None) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("{what}: expected the node to hang up, got {other:?}"),
    }
}

/// Hands out at most `step` bytes per `read`, then end-of-stream.
struct Dribble<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The framer the node's connections and the client share, without a
/// socket: however the stream is cut into reads, the same frames come
/// out, and a stream that ends early or lies about a length is an error
/// of the right kind.
#[test]
fn the_shared_framer_reassembles_any_chunking() {
    let frames = [
        Frame::Hello {
            role: Role::Peer,
            index: 3,
        },
        Frame::ClientQuery {
            qid: 9,
            index: 0,
            center: vec![0.25; 40],
            radius: 0.5,
        },
        Frame::StatsRequest,
        Frame::Shutdown,
    ];
    let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
    let mut scratch = [0u8; 64];
    let drain = |bytes: &[u8], step: usize, scratch: &mut [u8]| {
        let mut stream = Dribble { bytes, step };
        let mut inbox = FrameBuf::default();
        let mut seen = Vec::new();
        loop {
            match inbox.read_frame(&mut stream, scratch) {
                Ok(Some(frame)) => seen.extend(encode_frame(&frame)),
                Ok(None) => return Ok(seen),
                Err(e) => return Err((seen, e)),
            }
        }
    };
    for step in [1, 2, 3, 5, 13, 64] {
        let seen = drain(&bytes, step, &mut scratch).expect("a whole stream decodes");
        assert_eq!(seen, bytes, "frames differ at {step} bytes per read");
    }

    // Cut inside the last frame: everything before it, then a cut-frame
    // error — not a clean close.
    let (seen, e) =
        drain(&bytes[..bytes.len() - 1], 7, &mut scratch).expect_err("a cut stream is an error");
    assert_eq!(seen, bytes[..bytes.len() - 5], "frames before the cut");
    assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
    assert!(e.to_string().contains("closed inside a frame"), "{e}");

    // An oversized prefix fails as soon as it is in, body or no body.
    let lie = (node::wire::MAX_FRAME_BYTES + 1).to_le_bytes();
    let (_, e) = drain(&lie, 4, &mut scratch).expect_err("an oversized prefix is an error");
    assert_eq!(e.kind(), ErrorKind::InvalidData);
    assert!(e.to_string().contains("oversized length prefix"), "{e}");
}

#[test]
fn a_frame_arriving_byte_by_byte_is_decoded() {
    let cluster = Cluster::spawn(1);
    let mut conn = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(encode_frame(&Frame::MembersRequest));
    for b in bytes {
        conn.write_all(&[b]).expect("write one byte");
        // No-delay sends each byte as its own segment; the pause lets
        // the node read it before the next one lands.
        std::thread::sleep(Duration::from_millis(2));
    }
    match read_frame(&mut conn).expect("reply to the dribbled request") {
        Some(Frame::Members { members }) => assert_eq!(members.len(), 1),
        other => panic!("expected the membership, got {other:?}"),
    }
}

#[test]
fn frames_sharing_one_segment_are_all_answered_in_order() {
    let cluster = Cluster::spawn(1);
    let mut conn = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(encode_frame(&Frame::MembersRequest));
    bytes.extend(encode_frame(&Frame::StatsRequest));
    conn.write_all(&bytes).expect("one write, three frames");
    let first = read_frame(&mut conn).expect("first reply");
    assert!(
        matches!(first, Some(Frame::Members { .. })),
        "expected the membership first, got {first:?}"
    );
    let second = read_frame(&mut conn).expect("second reply");
    assert!(
        matches!(second, Some(Frame::StatsReport(_))),
        "expected the stats second, got {second:?}"
    );
}

#[test]
fn a_bad_connection_dies_alone() {
    let cluster = Cluster::spawn(1);
    let mut good = Client::connect(&cluster.addrs[0]).expect("well-behaved client");

    // An unassigned tag inside a well-formed length prefix.
    let mut garbage = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend([1, 0, 0, 0, 99]);
    garbage.write_all(&bytes).expect("write garbage");
    assert_closed(&mut garbage, "unknown tag");

    // A length prefix over the cap: rejected before any body arrives.
    let mut oversized = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend((node::wire::MAX_FRAME_BYTES + 1).to_le_bytes());
    oversized.write_all(&bytes).expect("write oversized prefix");
    assert_closed(&mut oversized, "oversized prefix");

    // A request from nobody: no hello came first.
    let mut confused = cluster.raw(0);
    confused
        .write_all(&encode_frame(&Frame::StatsRequest))
        .expect("write a request before hello");
    assert_closed(&mut confused, "no hello");

    // A connection cut inside a frame.
    let mut cut = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(&encode_frame(&Frame::StatsRequest)[..3]);
    cut.write_all(&bytes).expect("write a partial frame");
    drop(cut);

    // A join after the cluster formed is told so, then hung up on.
    let mut late = cluster.raw(0);
    late.write_all(&encode_frame(&Frame::JoinRequest {
        addr: "127.0.0.1:1".to_string(),
    }))
    .expect("write a late join");
    match read_frame(&mut late).expect("reply to the late join") {
        Some(Frame::Error { reason }) => assert!(reason.contains("joins are closed"), "{reason}"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert_closed(&mut late, "late join");

    // None of that touched the node or its other connections.
    assert_eq!(
        good.members().expect("old connection still served").len(),
        1
    );
    Client::connect(&cluster.addrs[0])
        .expect("new connections still accepted")
        .stats()
        .expect("new connection served");
}

/// A query center or published point with a NaN or infinite coordinate,
/// or a published point outside the index bounds, is refused with an
/// error reply. Clipped to the index bounds, a NaN center would turn
/// into a query over the whole space, and no query could ever match
/// such a point. The connection goes on serving.
#[test]
fn a_non_finite_query_or_point_is_refused() {
    let cluster = Cluster::spawn(1);
    let mut client = Client::connect(&cluster.addrs[0]).expect("client");
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let center = [bad, 0.5, 0.5];
        let e = client.query(1, 0, &center, 0.1).expect_err("refused query");
        assert!(e.contains("not a finite number"), "center {center:?}: {e}");
        let e = client.publish(0, 1, &center).expect_err("refused publish");
        assert!(e.contains("not a finite number"), "point {center:?}: {e}");
    }
    // Finite but outside the unit cube: no query rect could hold it
    // either, since every query is clipped to the bounds.
    for point in [[1.5, 0.5, 0.5], [-0.25, 0.5, 0.5]] {
        let e = client.publish(0, 1, &point).expect_err("refused publish");
        assert!(
            e.contains("outside the index bounds"),
            "point {point:?}: {e}"
        );
        assert!(e.contains("[0.0, 0.0, 0.0]..=[1.0, 1.0, 1.0]"), "{e}");
    }
    assert_eq!(client.stats().expect("stats").load, 0, "nothing stored");
    client.publish(0, 1, &[0.5; 3]).expect("a finite publish");
    let report = client.query(2, 0, &[0.5; 3], 0.1).expect("a finite query");
    assert_eq!(report.merged, [(1, 0.0)]);
}

/// Hundreds of client connections come and go — some cleanly, some
/// inside a frame, some while a request is parked, some before saying
/// anything — in waves that close together, so slots are reused while
/// events for their last occupants may still be pending. A client
/// beside them gets exact answers throughout, and afterwards the node
/// holds as many descriptors as before.
#[test]
fn connection_churn_leaks_nothing_and_disturbs_nobody() {
    const WAVES: u32 = 40;
    const PER_WAVE: u32 = 10;
    let cluster = Cluster::spawn(2);
    let sc = Scenario::new(2);
    let grid = sc.grid();
    let corpus = sc.corpus();
    let mut clients = [0, 1].map(|i| Client::connect(&cluster.addrs[i]).expect("client"));
    // Entering at both nodes, publishes open both nodes' connections to
    // each other before the count is taken.
    for (obj, point) in corpus.iter().enumerate() {
        clients[obj % 2]
            .publish(0, obj as u32, point)
            .expect("publish");
    }
    let deadline = Instant::now() + PATIENCE;
    while clients
        .iter_mut()
        .map(|c| c.stats().expect("stats").load)
        .sum::<u64>()
        < corpus.len() as u64
    {
        assert!(Instant::now() < deadline, "publishes never all stored");
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = open_fds(&cluster.children[0]);

    let [mut live, _] = clients;
    let mut rng = SimRng::new(11);
    for wave in 0..WAVES {
        let mut churn = Vec::new();
        for k in 0..PER_WAVE {
            let mut conn = cluster.raw(0);
            let bytes = match k % 4 {
                // Silent: not even a hello.
                0 => Vec::new(),
                // A request, answered in full.
                1 => [hello(), encode_frame(&Frame::MembersRequest)].concat(),
                // Cut inside a frame.
                2 => [hello(), encode_frame(&Frame::StatsRequest)[..3].to_vec()].concat(),
                // Parked: the node has no news of a query it never saw.
                _ => [
                    hello(),
                    encode_frame(&Frame::QueryStatus {
                        qid: 1_000_000 + wave * PER_WAVE + k,
                        seen: 0,
                    }),
                ]
                .concat(),
            };
            conn.write_all(&bytes).expect("write");
            if k % 4 == 1 {
                read_frame(&mut conn).expect("members reply");
            }
            churn.push(conn);
        }
        drop(churn);

        let q = RangeQuery {
            origin: 0,
            center: (0..sc.dims).map(|_| 0.1 + 0.8 * rng.f64()).collect(),
            radius: 0.02 + 0.2 * rng.f64(),
        };
        let expected = sc.expected_range(&grid, &corpus, &q);
        let deadline = Instant::now() + PATIENCE;
        let mut report = live.query(wave, 0, &q.center, q.radius).expect("query");
        while report.merged != expected {
            assert!(
                Instant::now() < deadline,
                "query {wave}: expected {expected:?}, still {report:?}"
            );
            report = live.status(wave).expect("status");
        }
    }

    // Every churned connection is closed, the parked ones included.
    let deadline = Instant::now() + PATIENCE;
    loop {
        let after = open_fds(&cluster.children[0]);
        if after == before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the node held {before:?} descriptors before the churn, {after:?} after"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    if before.is_none() {
        eprintln!("no /proc: descriptor count not checked");
    }
    live.members().expect("the live client is still served");
}

/// A peer's search frame the core could not serve — a sub-query without
/// the ball the node refines from, a center, rect or point of the wrong
/// dimensionality, an index byte out of range, or a well-formed variant
/// no node sends with resilience off — is a protocol
/// violation: it costs its connection, never the node.
#[test]
fn an_inadmissible_peer_frame_kills_only_its_connection() {
    let cluster = Cluster::spawn(1);
    let mut good = Client::connect(&cluster.addrs[0]).expect("well-behaved client");
    // The node's grid is the default scenario's: 3-d, depth 12, one index.
    let sq = |index: u8, rect_dims: usize, center: Option<Vec<f64>>| SubQueryMsg {
        qid: 7,
        index,
        rect: Rect::cube(rect_dims, 0.4, 0.6),
        prefix: Prefix::ROOT,
        hops: 1,
        origin: AgentId(0),
        ball: center.map(|c| QueryBall {
            center: c.into(),
            radius: 0.1,
        }),
        shortcut: false,
    };
    let entry = |dims: usize| Entry {
        ring_key: 0,
        obj: ObjectId(1),
        point: vec![0.5; dims].into_boxed_slice(),
    };
    let ball = || Some(vec![0.5; 3]);
    let publish = || SearchMsg::Publish {
        index: 0,
        entry: entry(3),
        hops: 0,
    };
    let cases = [
        ("a refine without a ball", SearchMsg::Refine(sq(0, 3, None))),
        (
            "a tracked publish, which would be acked",
            SearchMsg::Tracked {
                seq: 1,
                dead: vec![5],
                inner: Box::new(publish()),
            },
        ),
        ("an ack", SearchMsg::Ack { seq: 1 }),
        (
            "a replica",
            SearchMsg::Replicate {
                index: 0,
                owner: 0,
                entry: entry(3),
            },
        ),
        ("an issue", SearchMsg::Issue(sq(0, 3, ball()))),
        (
            "a 2-dim ball center",
            SearchMsg::Route(vec![sq(0, 3, Some(vec![0.5; 2]))]),
        ),
        ("a 4-dim rect", SearchMsg::Refine(sq(0, 4, ball()))),
        (
            "a 2-dim published point",
            SearchMsg::Publish {
                index: 0,
                entry: entry(2),
                hops: 0,
            },
        ),
        (
            "a sub-query into index 1",
            SearchMsg::Refine(sq(1, 3, ball())),
        ),
        (
            "a 13-bit prefix",
            SearchMsg::Route(vec![SubQueryMsg {
                prefix: Prefix::of_key(0, 13),
                ..sq(0, 3, ball())
            }]),
        ),
        (
            "a publish into index 9",
            SearchMsg::Publish {
                index: 9,
                entry: entry(3),
                hops: 0,
            },
        ),
        (
            "a route naming two queries",
            SearchMsg::Route(vec![
                sq(0, 3, ball()),
                SubQueryMsg {
                    qid: 8,
                    ..sq(0, 3, ball())
                },
            ]),
        ),
    ];
    let peer = |msg: SearchMsg| {
        let mut conn = cluster.raw(0);
        let mut bytes = encode_frame(&Frame::Hello {
            role: Role::Peer,
            index: 0,
        });
        bytes.extend(encode_frame(&Frame::Search(msg)));
        conn.write_all(&bytes).expect("write a peer frame");
        conn
    };
    for (what, msg) in cases {
        assert_closed(&mut peer(msg), what);
    }

    // A well-formed peer frame still gets through...
    let _kept = peer(publish());
    let deadline = Instant::now() + PATIENCE;
    while good.stats().expect("stats").load == 0 {
        assert!(
            Instant::now() < deadline,
            "a valid peer publish was refused"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...and the clients never noticed.
    assert_eq!(
        good.members().expect("old connection still served").len(),
        1
    );
    Client::connect(&cluster.addrs[0])
        .expect("new connections still accepted")
        .stats()
        .expect("new connection served");
}

#[test]
fn a_client_that_never_reads_delays_nobody() {
    /// Replies left unread: above what the kernel will buffer between
    /// two loopback sockets (send plus receive buffer, ~10 MiB at the
    /// default sysctl maxima), below the node's 32 MiB backlog cap — so
    /// the node's socket to the stalled client really is full, and the
    /// node really is holding the rest.
    const UNREAD_BYTES: usize = 16 * 1024 * 1024;
    /// One round trip of the well-behaved client, stalled neighbour or
    /// not. Generous: it is ~100 µs on an idle host.
    const DEADLINE: Duration = Duration::from_secs(2);

    let cluster = Cluster::spawn(2);
    let mut stalled = cluster.raw(0);
    stalled.write_all(&hello()).expect("stalled client hello");
    // Membership replies: their size never changes, so the unread total
    // is exact.
    let request = encode_frame(&Frame::MembersRequest);
    stalled.write_all(&request).expect("sizing request");
    let reply = read_frame(&mut stalled)
        .expect("sizing reply")
        .expect("sizing reply is a frame");
    let requests = UNREAD_BYTES.div_ceil(encode_frame(&reply).len());
    stalled
        .write_all(&request.repeat(requests))
        .expect("pipelined requests");

    // Publishes and queries entering at the same node, with a peer hop.
    let mut good = Client::connect(&cluster.addrs[0]).expect("well-behaved client");
    let mut other = Client::connect(&cluster.addrs[1]).expect("client of the other node");
    let timed = |what: &str, t0: Instant| {
        let took = t0.elapsed();
        assert!(
            took < DEADLINE,
            "{what} took {took:?} next to a stalled client"
        );
    };
    const OBJECTS: u32 = 32;
    for obj in 0..OBJECTS {
        let x = f64::from(obj) / f64::from(OBJECTS);
        let t0 = Instant::now();
        good.publish(0, obj, &[x, 1.0 - x, 0.5]).expect("publish");
        timed("publish", t0);
    }
    let deadline = Instant::now() + PATIENCE;
    let stored = |c: &mut Client| c.stats().expect("stats").load;
    while stored(&mut good) + stored(&mut other) < u64::from(OBJECTS) {
        assert!(Instant::now() < deadline, "publishes never all stored");
        std::thread::sleep(Duration::from_millis(5));
    }
    for qid in 0..32u32 {
        let t0 = Instant::now();
        good.query(qid, 0, &[0.5, 0.5, 0.5], 0.3).expect("query");
        timed("query", t0);
        let t0 = Instant::now();
        good.status(qid).expect("status");
        timed("status", t0);
    }
    while good.status(31).expect("status").merged.is_empty() {
        assert!(Instant::now() < deadline, "the last query found nothing");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The stalled client lost nothing: every reply, in order, once it
    // finally reads.
    let mut inbox = FrameBuf::default();
    let mut scratch = vec![0u8; 64 * 1024];
    for k in 0..requests {
        match inbox.read_frame(&mut stalled, &mut scratch) {
            Ok(Some(Frame::Members { .. })) => {}
            other => panic!("backlogged reply {k} of {requests}: {other:?}"),
        }
    }
}

#[test]
fn a_backlog_past_the_cap_costs_only_that_connection() {
    /// Well past the node's 32 MiB cap on one connection's unsent bytes.
    const UNREAD_BYTES: usize = 48 * 1024 * 1024;

    let cluster = Cluster::spawn(1);
    // Fatten the stats reply (one trace summary per query), so a few
    // thousand five-byte requests are owed all of `UNREAD_BYTES`.
    let mut good = Client::connect(&cluster.addrs[0]).expect("well-behaved client");
    for qid in 0..64 {
        good.query(qid, 0, &[0.5, 0.5, 0.5], 0.1).expect("query");
    }
    let reply = encode_frame(&Frame::StatsReport(good.stats().expect("stats")));

    let mut hoarder = cluster.raw(0);
    hoarder.write_all(&hello()).expect("hoarder hello");
    let request = encode_frame(&Frame::StatsRequest);
    let requests = UNREAD_BYTES.div_ceil(reply.len());
    hoarder
        .write_all(&request.repeat(requests))
        .expect("pipelined requests");

    // Never read. The node must hang up, which shows here as a write
    // failing once the kernel has answered one with a reset.
    let deadline = Instant::now() + PATIENCE;
    while hoarder.write_all(&request).is_ok() {
        assert!(
            Instant::now() < deadline,
            "the node kept buffering for a client that never reads"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    good.stats().expect("node still serving");
}

#[test]
fn shutdown_is_acknowledged_before_a_clean_exit() {
    let mut cluster = Cluster::spawn(1);
    let mut conn = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(encode_frame(&Frame::Shutdown));
    conn.write_all(&bytes).expect("hello and shutdown");
    let ack = read_frame(&mut conn).expect("shutdown reply");
    assert!(
        matches!(ack, Some(Frame::ShutdownAck)),
        "expected the ack, got {ack:?}"
    );
    let deadline = Instant::now() + PATIENCE;
    let status = loop {
        if let Some(status) = cluster.children[0].try_wait().expect("wait for node") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "node still running after its ack"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "node exited with {status}");
}

/// A status on a query that already has every response it will get
/// waits out the patience, then gets the unchanged report — while other
/// clients of the same node are served at once.
#[test]
fn a_status_without_news_waits_out_the_patience_alone() {
    let cluster = Cluster::spawn(1);
    let (mut waiter, (qid, responses, merged)) = issued(&cluster, 1);
    let t0 = Instant::now();
    waiter
        .write_all(&encode_frame(&Frame::QueryStatus {
            qid,
            seen: responses,
        }))
        .expect("status");

    let mut other = Client::connect(&cluster.addrs[0]).expect("second client");
    other.members().expect("members");
    other.stats().expect("stats");
    other.query(2, 0, &[0.5; 3], 0.2).expect("query");
    let others = t0.elapsed();
    assert!(
        others < PARK_PATIENCE,
        "the second client's round trips took {others:?} beside a parked request"
    );
    assert_quiet(&mut waiter, "the parked status before its patience");

    let reply = report_of(read_frame(&mut waiter));
    let waited = t0.elapsed();
    assert!(
        waited >= PARK_PATIENCE,
        "the unchanged report came after {waited:?}"
    );
    assert_eq!(reply, (qid, responses, merged), "the report is unchanged");
}

/// Requests behind a parked one, even those the node already read, are
/// answered after it and in the order sent.
#[test]
fn requests_behind_a_parked_status_keep_their_order() {
    let cluster = Cluster::spawn(1);
    let (mut conn, (qid, responses, _)) = issued(&cluster, 1);
    let mut bytes = encode_frame(&Frame::QueryStatus {
        qid,
        seen: responses,
    });
    bytes.extend(encode_frame(&Frame::MembersRequest));
    // Seen nothing yet: news at once.
    bytes.extend(encode_frame(&Frame::QueryStatus { qid, seen: 0 }));
    bytes.extend(encode_frame(&Frame::StatsRequest));
    conn.write_all(&bytes).expect("four requests in one write");

    assert_eq!(
        report_of(read_frame(&mut conn)).1,
        responses,
        "parked status"
    );
    let members = read_frame(&mut conn).expect("second reply");
    assert!(
        matches!(members, Some(Frame::Members { .. })),
        "expected the membership second, got {members:?}"
    );
    assert_eq!(
        report_of(read_frame(&mut conn)).1,
        responses,
        "fresh status"
    );
    let stats = read_frame(&mut conn).expect("fourth reply");
    assert!(
        matches!(stats, Some(Frame::StatsReport(_))),
        "expected the stats last, got {stats:?}"
    );
}

/// A client that hangs up while parked takes its parked request with
/// it: the node keeps serving, and the next client in its slot gets
/// only its own replies, even after the patience has run out.
#[test]
fn a_parked_request_dies_with_its_connection() {
    let cluster = Cluster::spawn(1);
    let mut witness = Client::connect(&cluster.addrs[0]).expect("witness client");
    let (mut quitter, (qid, responses, _)) = issued(&cluster, 1);
    quitter
        .write_all(&encode_frame(&Frame::QueryStatus {
            qid,
            seen: responses,
        }))
        .expect("status");
    drop(quitter);
    // Loopback delivers the hang-up before the witness's request, and
    // the node handles every event of a wait before it writes a reply,
    // so once this round trip is back the quitter's slot is free for
    // the next client.
    witness.members().expect("node still serving");

    let mut next = cluster.raw(0);
    let mut bytes = hello();
    bytes.extend(encode_frame(&Frame::MembersRequest));
    next.write_all(&bytes).expect("hello and members");
    let first = read_frame(&mut next).expect("first reply");
    assert!(
        matches!(first, Some(Frame::Members { .. })),
        "expected the membership, got {first:?}"
    );
    std::thread::sleep(PARK_PATIENCE * 2);
    next.write_all(&encode_frame(&Frame::StatsRequest))
        .expect("stats");
    let second = read_frame(&mut next).expect("second reply");
    assert!(
        matches!(second, Some(Frame::StatsReport(_))),
        "expected the stats, got {second:?}"
    );
    assert_quiet(&mut next, "the next client after its own replies");
}

/// Query ids are the client's choice. A query with an id near `u32::MAX`
/// is answered like any other, and costs the nodes it touches memory for
/// that one query, not for every id below it.
#[test]
fn a_query_id_near_the_top_costs_one_query_of_memory() {
    /// Peak resident set a node may reach; a dense per-qid record for
    /// every id up to 2^24 alone is ~400 MB.
    const MAX_HWM_KB: u64 = 64 * 1024;
    let cluster = Cluster::spawn(2);
    let mut client = Client::connect(&cluster.addrs[0]).expect("client");
    // A ball over most of the space: both nodes answer.
    let report = client
        .query(u32::MAX - 1, 0, &[0.5; 3], 0.45)
        .expect("query");
    assert!(report.responses >= 1, "{report:?}");
    for child in &cluster.children {
        let Some(hwm_kb) = vm_hwm_kb(child) else {
            eprintln!("no /proc: peak memory not checked");
            break;
        };
        assert!(hwm_kb < MAX_HWM_KB, "a node peaked at {hwm_kb} kB");
    }
    for addr in &cluster.addrs {
        Client::connect(addr)
            .expect("a second client connects")
            .stats()
            .expect("and is served");
    }
}

/// A node keeps state for its `QUERY_WINDOW` newest queries only. Three
/// windows of sequential queries are all answered exactly, each node's
/// stats reply carries at most one window of query summaries, the
/// origin's peak memory stops growing once its window is full, and the
/// first query is unknown again, while the node goes on serving.
#[test]
fn a_node_keeps_state_for_its_newest_window_of_queries_only() {
    /// Growth of the origin's peak resident set allowed from the end of
    /// the first window to the end of the third. A node that kept every
    /// query grew by ≈ 2 MB over those 2 048 queries; this one grows by
    /// tens of kB.
    const HWM_SLACK_KB: u64 = 512;
    let window = QUERY_WINDOW as u32;
    let cluster = Cluster::spawn(2);
    let sc = Scenario::new(2);
    let grid = sc.grid();
    let corpus = sc.corpus();
    let mut client = Client::connect(&cluster.addrs[0]).expect("client");
    let mut other = Client::connect(&cluster.addrs[1]).expect("client of the other node");
    for (obj, point) in corpus.iter().enumerate() {
        client.publish(0, obj as u32, point).expect("publish");
    }
    let deadline = Instant::now() + PATIENCE;
    let stored = |c: &mut Client| c.stats().expect("stats").load;
    while stored(&mut client) + stored(&mut other) < corpus.len() as u64 {
        assert!(Instant::now() < deadline, "publishes never all stored");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Balls of every size up to most of the space: some stay on one
    // node, some reach both.
    let mut rng = SimRng::new(7);
    let mut ask = |client: &mut Client, qid: u32| {
        let q = RangeQuery {
            origin: 0,
            center: (0..sc.dims).map(|_| 0.1 + 0.8 * rng.f64()).collect(),
            radius: 0.02 + 0.3 * rng.f64(),
        };
        let expected = sc.expected_range(&grid, &corpus, &q);
        let deadline = Instant::now() + PATIENCE;
        let mut report = client.query(qid, 0, &q.center, q.radius).expect("query");
        while report.merged != expected {
            assert!(
                Instant::now() < deadline,
                "query {qid}: expected {expected:?}, still {report:?}"
            );
            report = client.status(qid).expect("status");
        }
    };
    for qid in 0..window {
        ask(&mut client, qid);
    }
    let origin_hwm = || vm_hwm_kb(&cluster.children[0]);
    let one_window = origin_hwm();
    for qid in window..3 * window {
        ask(&mut client, qid);
    }
    match (one_window, origin_hwm()) {
        (Some(one), Some(three)) => assert!(
            three <= one + HWM_SLACK_KB,
            "the origin's peak grew from {one} kB to {three} kB over two more windows"
        ),
        _ => eprintln!("no /proc: the origin's peak memory not checked"),
    }

    let summaries = |c: &mut Client| c.stats().expect("stats").queries;
    let held = summaries(&mut client);
    assert_eq!(held.len(), QUERY_WINDOW, "the origin touched every query");
    assert!(
        held.iter().all(|&(qid, _)| qid >= 2 * window),
        "the origin kept an old query: {:?}",
        held.first()
    );
    let held = summaries(&mut other).len();
    assert!(held <= QUERY_WINDOW, "the other node holds {held} queries");

    // The first query is retired: the unknown-query report, after the
    // patience, as for any query without news.
    let t0 = Instant::now();
    let report = client.status(0).expect("status of a retired query");
    let waited = t0.elapsed();
    assert_eq!(
        (report.responses, report.merged.len()),
        (0, 0),
        "{report:?}"
    );
    assert!(waited >= PARK_PATIENCE, "the report came after {waited:?}");
    ask(&mut client, 3 * window);
}

/// The exit status and output of one `node` run, killed after
/// [`PATIENCE`] so a regression that starts serving cannot hang the
/// suite.
fn run_node(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_node"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn node process");
    let deadline = Instant::now() + PATIENCE;
    while child.try_wait().expect("poll the node").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("collect node output");
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn out_of_range_scenario_flags_are_refused_before_any_socket_or_file() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (flag, value) in [("dims", "0"), ("depth", "0"), ("depth", "65")] {
        let flag_arg = format!("--{flag}");
        let bad = [flag_arg.as_str(), value];

        let (code, stdout, stderr) =
            run_node(&[&["--listen", "127.0.0.1:0", "--expect", "1"], &bad[..]].concat());
        assert_eq!(code, Some(1), "--{flag} {value}: {stderr}");
        assert!(
            !stdout.contains("listening on"),
            "--{flag} {value} bound: {stdout}"
        );
        assert!(stderr.starts_with(&format!("node: --{flag}")), "{stderr}");

        let path = dir.join(format!("bad-corpus-{flag}-{value}.txt"));
        let _ = std::fs::remove_file(&path);
        let path_arg = path.to_str().expect("utf-8 temp path");
        let (code, _, stderr) =
            run_node(&[&["--gen-corpus", path_arg, "--objects", "3"], &bad[..]].concat());
        assert_eq!(code, Some(1), "--gen-corpus --{flag} {value}: {stderr}");
        assert!(stderr.starts_with(&format!("node: --{flag}")), "{stderr}");
        assert!(!path.exists(), "--{flag} {value} wrote {}", path.display());
    }
}
