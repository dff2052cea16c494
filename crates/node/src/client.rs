//! Client-side operations: connect to a running node, publish a
//! corpus, issue queries, and *verify* answers against the exact
//! expected-result model — the checks the loopback smoke job runs.
//!
//! Every check recomputes the ground truth locally from the corpus file
//! with the same arithmetic the cluster uses ([`Scenario::expected_range`]
//! / [`Scenario::expected_knn`]), then waits for news from the origin
//! node until its merged result list matches exactly. Recall below 1.0
//! is therefore a hard failure (nonzero exit), not a statistic.

use crate::runtime::connect_retry;
use crate::scenario::{parse_spec, read_corpus, RangeQuery, Scenario, KNN_K};
use crate::wire::{self, Frame, FrameBuf, Member, StatsReport};
use serde_json::Value;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long checks wait for the cluster to converge on the expected
/// answer before declaring failure.
const CHECK_PATIENCE: Duration = Duration::from_secs(60);

/// Poll interval of the publish barrier.
const POLL_EVERY: Duration = Duration::from_millis(50);

/// Origin-side query state as returned by the server.
#[derive(Clone, Debug)]
pub struct Report {
    /// Result messages received so far.
    pub responses: u32,
    /// Maximum delivery path length over responders so far.
    pub max_hops: u32,
    /// True when any responder flagged possible data loss.
    pub degraded: bool,
    /// Merged `(object, distance)` results, ascending distance.
    pub merged: Vec<(u32, f64)>,
}

/// One client connection, speaking sequential request/reply.
pub struct Client {
    stream: TcpStream,
    addr: String,
    /// Reply bytes: one `read` usually delivers a whole reply.
    inbox: FrameBuf,
    scratch: Box<[u8]>,
    /// `(qid, responses)` of the last report received: what a status
    /// request on that query has already seen.
    last_report: Option<(u32, u32)>,
}

impl Client {
    /// Connect and identify as a client, retrying while the node is
    /// still bootstrapping. A bootstrapping seed consumes the hello in
    /// its join-collection loop and rejects it, so the connection is
    /// only considered established once a probe request round-trips —
    /// every returned `Client` is guaranteed to be past bootstrap.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut last_error;
        loop {
            let mut client = Client {
                stream: connect_retry(addr)?,
                addr: addr.to_string(),
                inbox: FrameBuf::default(),
                scratch: vec![0; wire::READ_CHUNK].into_boxed_slice(),
                last_report: None,
            };
            let handshake = wire::write_frame(
                &mut client.stream,
                &Frame::Hello {
                    role: wire::Role::Client,
                    index: 0,
                },
            )
            .and_then(|()| wire::write_frame(&mut client.stream, &Frame::MembersRequest))
            .map_err(|e| format!("hello to {addr} failed: {e}"))
            .and_then(|()| match client.read_reply() {
                Ok(Some(Frame::Members { .. })) => Ok(()),
                Ok(Some(Frame::Error { reason })) => {
                    Err(format!("{addr} rejected the client handshake: {reason}"))
                }
                Ok(Some(other)) => Err(format!(
                    "{addr} answered the client handshake with {}",
                    other.kind()
                )),
                Ok(None) => Err(format!("{addr} closed the connection during handshake")),
                Err(e) => Err(format!("handshake reply from {addr} failed: {e}")),
            });
            match handshake {
                Ok(()) => return Ok(client),
                Err(e) => last_error = e,
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "could not establish a client session with {addr}: {last_error}"
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn read_reply(&mut self) -> std::io::Result<Option<Frame>> {
        self.inbox.read_frame(&mut self.stream, &mut self.scratch)
    }

    /// One request/reply round trip. A [`Frame::Error`] reply becomes
    /// an `Err` with the server's reason.
    pub fn request(&mut self, req: &Frame) -> Result<Frame, String> {
        wire::write_frame(&mut self.stream, req)
            .map_err(|e| format!("request to {} failed: {e}", self.addr))?;
        match self.read_reply() {
            Ok(Some(Frame::Error { reason })) => {
                Err(format!("{} rejected the request: {reason}", self.addr))
            }
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(format!(
                "{} closed the connection instead of replying",
                self.addr
            )),
            Err(e) => Err(format!("reply from {} failed: {e}", self.addr)),
        }
    }

    /// The error for a reply of the wrong kind to a `what` request.
    fn unexpected(&self, what: &str, reply: &Frame) -> String {
        format!("{} answered {what} with {}", self.addr, reply.kind())
    }

    /// The cluster membership in agent-index order.
    pub fn members(&mut self) -> Result<Vec<Member>, String> {
        match self.request(&Frame::MembersRequest)? {
            Frame::Members { members } => Ok(members),
            other => Err(self.unexpected("members-request", &other)),
        }
    }

    /// Publish one object's point through the connected node.
    pub fn publish(&mut self, index: u8, obj: u32, point: &[f64]) -> Result<(), String> {
        match self.request(&Frame::ClientPublish {
            index,
            obj,
            point: point.to_vec(),
        })? {
            Frame::PublishAck => Ok(()),
            other => Err(self.unexpected("publish", &other)),
        }
    }

    /// Issue a range query at the connected node. Returns the first
    /// report with a response, or the unchanged view once the node's
    /// [`PARK_PATIENCE`](crate::runtime::PARK_PATIENCE) runs out.
    pub fn query(
        &mut self,
        qid: u32,
        index: u8,
        center: &[f64],
        radius: f64,
    ) -> Result<Report, String> {
        let frame = Frame::ClientQuery {
            qid,
            index,
            center: center.to_vec(),
            radius,
        };
        let reply = self.request(&frame)?;
        self.take_report(reply)
    }

    /// News of a query: the origin's first report with more responses
    /// than the last report this client received for it, or the
    /// unchanged view once the node's
    /// [`PARK_PATIENCE`](crate::runtime::PARK_PATIENCE) runs out.
    pub fn status(&mut self, qid: u32) -> Result<Report, String> {
        let seen = match self.last_report {
            Some((last, responses)) if last == qid => responses,
            _ => 0,
        };
        let reply = self.request(&Frame::QueryStatus { qid, seen })?;
        self.take_report(reply)
    }

    /// The node's telemetry snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        match self.request(&Frame::StatsRequest)? {
            Frame::StatsReport(r) => Ok(r),
            other => Err(self.unexpected("stats-request", &other)),
        }
    }

    /// Ask the node to exit; waits for the acknowledgement.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.request(&Frame::Shutdown)? {
            Frame::ShutdownAck => Ok(()),
            other => Err(self.unexpected("shutdown", &other)),
        }
    }

    /// Unpack a query report and remember what it told this client.
    fn take_report(&mut self, frame: Frame) -> Result<Report, String> {
        match frame {
            Frame::QueryReport {
                qid,
                responses,
                max_hops,
                degraded,
                merged,
            } => {
                self.last_report = Some((qid, responses));
                Ok(Report {
                    responses,
                    max_hops,
                    degraded,
                    merged,
                })
            }
            other => Err(format!("expected a query report, got {}", other.kind())),
        }
    }
}

/// A scenario stand-in for ad-hoc client operations: only `dims`,
/// `depth` and the corpus size matter to the expected-answer model.
fn adhoc_scenario(dims: usize, n_nodes: usize, n_objects: usize) -> Scenario {
    Scenario {
        n_nodes: n_nodes.max(1),
        dims,
        depth: 12,
        n_objects,
        seed: 0,
    }
}

/// Publish a whole corpus file: object `i` (line `i`) enters through
/// member `i mod n`, mirroring the parity scenario's placement. Blocks
/// until every entry is stored somewhere (the sum of member loads
/// reaches the corpus size), so follow-up queries see a complete index.
pub fn publish_file(connect: &str, corpus_path: &str) -> Result<(), String> {
    let corpus = read_corpus(corpus_path)?;
    if corpus.is_empty() {
        return Err(format!("corpus {corpus_path} is empty"));
    }
    let members = Client::connect(connect)?.members()?;
    let mut clients: Vec<Client> = members
        .iter()
        .map(|m| Client::connect(&m.addr))
        .collect::<Result<_, _>>()?;
    let n = clients.len();
    for (obj, point) in corpus.iter().enumerate() {
        clients[obj % n].publish(0, obj as u32, point)?;
    }
    // Barrier: with no replication every object is stored exactly once,
    // so total load == corpus size means all publishes completed.
    let deadline = Instant::now() + CHECK_PATIENCE;
    loop {
        let mut stored = 0u64;
        for client in &mut clients {
            stored += client.stats()?.load;
        }
        if stored as usize >= corpus.len() {
            println!("published {} objects ({} stored)", corpus.len(), stored);
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "publish barrier timed out: {stored}/{} entries stored",
                corpus.len()
            ));
        }
        std::thread::sleep(POLL_EVERY);
    }
}

fn render_results(results: &[(u32, f64)]) -> String {
    let parts: Vec<String> = results.iter().map(|(o, d)| format!("{o}@{d:.6}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Wait for news of `qid` at `client` until its merged results equal
/// `expected` exactly (same objects, same order, bit-identical
/// distances) or, with `prefix`, start with it. A tail beyond the prefix
/// is allowed there: the L∞ pruning bound admits points just outside the
/// metric radius, and an expanding k-nearest search accumulates them
/// behind the certified nearest entries.
fn await_results(
    client: &mut Client,
    qid: u32,
    expected: &[(u32, f64)],
    prefix: bool,
    what: &str,
) -> Result<Report, String> {
    let done = |r: &Report| r.merged.starts_with(expected) && (prefix || r.merged == expected);
    let deadline = Instant::now() + CHECK_PATIENCE;
    let mut last = client.status(qid)?;
    while !done(&last) {
        if Instant::now() >= deadline {
            return Err(format!(
                "{what} qid={qid}: expected {}{}, still seeing {} after {CHECK_PATIENCE:?} \
                 ({} responses)",
                if prefix { "a prefix " } else { "" },
                render_results(expected),
                render_results(&last.merged),
                last.responses
            ));
        }
        last = client.status(qid)?;
    }
    Ok(last)
}

/// Issue a range query and fail unless the cluster converges on the
/// exact expected result set (recall 1.0 with exact distances).
pub fn check_range(connect: &str, spec: &str, qid: u32, corpus_path: &str) -> Result<(), String> {
    let (center, radius) = parse_spec(spec)?;
    let corpus = read_corpus(corpus_path)?;
    let sc = adhoc_scenario(center.len(), 1, corpus.len());
    let grid = sc.grid();
    let q = RangeQuery {
        origin: 0,
        center: center.clone(),
        radius,
    };
    let expected = sc.expected_range(&grid, &corpus, &q);
    let mut client = Client::connect(connect)?;
    client.query(qid, 0, &center, radius)?;
    let report = await_results(&mut client, qid, &expected, false, "range")?;
    println!(
        "range qid={qid}: {} results, recall 1.000, max_hops={}, responses={}",
        report.merged.len(),
        report.max_hops,
        report.responses
    );
    Ok(())
}

/// Run the expanding-ring k-nearest search from the client (the same
/// round structure as the simulator's `run_knn`: grow the radius
/// geometrically, reusing one query id so results accumulate) and fail
/// unless the k nearest objects come back exactly.
pub fn check_knn(connect: &str, spec: &str, qid: u32, corpus_path: &str) -> Result<(), String> {
    let (center, k_raw) = parse_spec(spec)?;
    let k = k_raw as usize;
    if k == 0 || k_raw.fract() != 0.0 {
        return Err(format!("k-nearest count {k_raw} is not a positive integer"));
    }
    if k > KNN_K {
        return Err(format!(
            "k={k} exceeds the system merge cap of {KNN_K} results per query"
        ));
    }
    let corpus = read_corpus(corpus_path)?;
    let sc = adhoc_scenario(center.len(), 1, corpus.len());
    let expected = sc.expected_knn(&corpus, &center, k);
    let needed_radius = expected
        .last()
        .map(|&(_, d)| d)
        .ok_or_else(|| format!("corpus {corpus_path} has fewer than {k} objects"))?;
    let mut client = Client::connect(connect)?;
    let mut radius = 0.05f64;
    let growth = 2.0f64;
    for round in 0..16 {
        client.query(qid, 0, &center, radius)?;
        if radius >= needed_radius {
            // This radius provably covers the k nearest; wait for them
            // to surface at the head of the merged list (the tail may
            // hold admitted-but-farther points from earlier rounds).
            let report = await_results(&mut client, qid, &expected, true, "knn")?;
            println!(
                "knn qid={qid}: k={k} certified at radius {radius:.4} (round {round}), \
                 recall 1.000, responses={}",
                report.responses
            );
            return Ok(());
        }
        // Not certifiable yet — wait for this round to add what it can,
        // then expand. Every object within this round's radius is among
        // the k nearest (radius < needed_radius), and anything nearer
        // sorts ahead of the round's admitted extras, so the covered
        // entries form a stable prefix of the merged list.
        let covered: Vec<(u32, f64)> = expected
            .iter()
            .copied()
            .filter(|&(_, d)| d <= radius)
            .collect();
        await_results(&mut client, qid, &covered, true, "knn round")?;
        radius *= growth;
    }
    Err(format!(
        "knn qid={qid}: radius never reached {needed_radius:.4} in 16 rounds"
    ))
}

/// Shut down every member of the cluster reachable from `connect`.
pub fn shutdown_cluster(connect: &str) -> Result<(), String> {
    let mut client = Client::connect(connect)?;
    let members = client.members()?;
    for m in &members {
        Client::connect(&m.addr)?.shutdown()?;
        println!("node {} ({}) acknowledged shutdown", m.index, m.addr);
    }
    Ok(())
}

/// Print one node's stats snapshot as JSON (human consumption; the
/// wire format itself is binary because the vendored JSON crate is
/// write-only).
pub fn print_stats(connect: &str) -> Result<(), String> {
    let stats = Client::connect(connect)?.stats()?;
    let counters: std::collections::BTreeMap<String, Value> = stats
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
        .collect();
    let histograms: std::collections::BTreeMap<String, Value> = stats
        .histograms
        .iter()
        .map(|h| {
            (
                h.name.clone(),
                serde_json::json!({
                    "count": Value::UInt(h.count),
                    "sum": Value::UInt(h.sum),
                    "max": Value::UInt(h.max),
                }),
            )
        })
        .collect();
    let json = serde_json::json!({
        "load": Value::UInt(stats.load),
        "queries": Value::UInt(stats.queries.len() as u64),
        "counters": Value::Object(counters),
        "histograms": Value::Object(histograms),
    });
    println!("{json}");
    Ok(())
}

/// Print the membership list.
pub fn print_members(connect: &str) -> Result<(), String> {
    for m in Client::connect(connect)?.members()? {
        println!("{} {}", m.index, m.addr);
    }
    Ok(())
}
