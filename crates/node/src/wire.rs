//! Length-prefixed frame codec for the real-socket driver.
//!
//! Every frame on the wire is `u32` little-endian length, then a one-byte
//! tag, then the tag's body. The length covers tag + body (not itself)
//! and is capped at [`MAX_FRAME_BYTES`]; a peer announcing more is
//! treated as malformed and disconnected, never buffered.
//!
//! Tags 0–9 encode the ten [`SearchMsg`] variants one-to-one (the
//! protocol plane); tags 16+ are control frames the runtime and client
//! use for bootstrap, publishing, querying and stats (the driver plane).
//! Control frames never reach the sans-io core.
//!
//! Integers are little-endian; `f64` travels as its IEEE-754 bit pattern
//! (`to_bits`/`from_bits`), so round-trips are exact for every value,
//! NaN payloads included. Strings are `u16` length + UTF-8 bytes.
//!
//! ## Relation to the §4.1 byte model
//!
//! The simulator prices messages with the paper's *abstract* model
//! ([`simsearch::msg::msg_bytes`]): e.g. a query message is
//! `20 + 4 + n·(4k + 9)` bytes — 2-byte coordinates, no explicit rect or
//! ball. The physical codec carries the full structures (8-byte
//! coordinates, prefix, rect, optional ball, origin address), so every
//! encoded frame is larger than its modelled price by a per-variant,
//! structurally-determined delta. [`model_delta`] documents and computes
//! that delta exactly; the codec tests assert
//! `encoded_len == msg_bytes + model_delta` for every variant, which
//! pins the physical encoding to the pricing model.

use lph::{Prefix, Rect};
use metric::ObjectId;
use simnet::AgentId;
use simsearch::msg::ResultItem;
use simsearch::msg::{QueryBall, SearchMsg, SubQueryMsg};
use simsearch::store::Entry;
use simsearch::telemetry::QuerySummary;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Hard cap on a frame's announced length (tag + body). Generously above
/// anything the protocol produces; anything larger is a corrupt or
/// hostile peer.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Maximum nesting depth of [`SearchMsg::Tracked`] envelopes the decoder
/// accepts. The protocol never nests them at all; the cap keeps a
/// malicious frame from recursing the decoder.
const MAX_TRACKED_DEPTH: u8 = 4;

/// Decode-side failure: what was wrong with the bytes. Every malformed
/// input maps to an error — the decoder never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
        /// Bytes the field needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The 4-byte length prefix announced more than [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced length.
        len: u32,
    },
    /// A frame body was longer than its tag's fields consumed.
    TrailingGarbage {
        /// The frame kind that decoded cleanly before the excess.
        frame: &'static str,
        /// Unconsumed bytes at the end of the body.
        extra: usize,
    },
    /// A zero-length frame (no tag byte).
    EmptyFrame,
    /// An unassigned tag byte.
    UnknownTag(u8),
    /// A boolean / enum byte outside its legal values.
    BadFlag {
        /// The field.
        what: &'static str,
        /// The illegal byte.
        value: u8,
    },
    /// A prefix whose key has bits set beyond its length, or a length
    /// over 64 — constructing it would panic, so it is rejected here.
    BadPrefix {
        /// The offending left-aligned key.
        key: u64,
        /// The offending length.
        len: u32,
    },
    /// A rect with zero dimensions or `lo > hi` (NaN included) on some
    /// dimension — constructing it would panic, so it is rejected here.
    BadRect {
        /// The first offending dimension (or 0 for a zero-dim rect).
        dim: usize,
    },
    /// A string field that was not valid UTF-8.
    BadUtf8 {
        /// The field.
        what: &'static str,
    },
    /// [`SearchMsg::Tracked`] envelopes nested deeper than the protocol
    /// can produce.
    TooDeep,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what, need, have } => {
                write!(
                    f,
                    "truncated frame: {what} needs {need} bytes, {have} remain"
                )
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "oversized length prefix: {len} bytes (cap {MAX_FRAME_BYTES})"
                )
            }
            WireError::TrailingGarbage { frame, extra } => {
                write!(
                    f,
                    "trailing garbage: {extra} bytes after a complete {frame} frame"
                )
            }
            WireError::EmptyFrame => write!(f, "empty frame: no tag byte"),
            WireError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            WireError::BadFlag { what, value } => {
                write!(f, "illegal {what} byte {value}")
            }
            WireError::BadPrefix { key, len } => {
                write!(f, "malformed prefix: key {key:#x} / length {len}")
            }
            WireError::BadRect { dim } => write!(f, "malformed rect at dimension {dim}"),
            WireError::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            WireError::TooDeep => write!(f, "tracked envelopes nested too deep"),
        }
    }
}

impl std::error::Error for WireError {}

/// Which side of the runtime a connecting socket speaks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Another cluster node; the connection carries [`SearchMsg`] frames.
    Peer,
    /// A client; the connection carries request/reply control frames.
    Client,
}

/// One cluster member as assigned by the bootstrap seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Member {
    /// The member's agent index (its [`AgentId`]).
    pub index: u64,
    /// The member's listen address, e.g. `127.0.0.1:46101`.
    pub addr: String,
}

/// `(count, sum, max)` summary of one named histogram — enough for the
/// sim-vs-socket parity digest without shipping bucket vectors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

/// One node's telemetry snapshot, shipped in reply to
/// [`Frame::StatsRequest`]. Counters and summaries are partial (this
/// node's share); summing counters and [`QuerySummary::merge`]-folding
/// the per-query roll-ups across all nodes reproduces the simulator's
/// global view (for queries no node has retired yet) — the parity
/// digest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Every named counter this node recorded.
    pub counters: Vec<(String, u64)>,
    /// Every named histogram, summarized.
    pub histograms: Vec<HistogramSummary>,
    /// Per-query trace roll-ups recorded at this node, for at most
    /// [`QUERY_WINDOW`](crate::runtime::QUERY_WINDOW) queries: the
    /// newest it touched.
    pub queries: Vec<(u32, QuerySummary)>,
    /// Entries currently stored (the node's load).
    pub load: u64,
}

/// Everything that travels on a socket.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Protocol plane: one index-layer message (tags 0–9).
    Search(SearchMsg),
    /// First frame on every non-bootstrap connection: who is calling.
    /// Peers announce their agent index; clients send 0.
    Hello {
        /// Caller's role.
        role: Role,
        /// Caller's agent index (peers only).
        index: u64,
    },
    /// Bootstrap: a joiner registers its listen address with the seed.
    JoinRequest {
        /// The joiner's advertised listen address.
        addr: String,
    },
    /// Bootstrap and client plane: the full membership in index order.
    Members {
        /// All cluster members.
        members: Vec<Member>,
    },
    /// Generic failure reply (join rejected, bad request).
    Error {
        /// Human-readable reason.
        reason: String,
    },
    /// Client: publish one object's index point via the connected node.
    ClientPublish {
        /// Target index scheme.
        index: u8,
        /// The object id.
        obj: u32,
        /// The object's index-space point.
        point: Vec<f64>,
    },
    /// Reply to [`Frame::ClientPublish`]: accepted and routed (storage
    /// completion is observed via stats, not this ack).
    PublishAck,
    /// Client: issue a range query at the connected node.
    ClientQuery {
        /// Query id (client-chosen, cluster-unique).
        qid: u32,
        /// Target index scheme.
        index: u8,
        /// Query point in index space.
        center: Vec<f64>,
        /// Metric search radius.
        radius: f64,
    },
    /// Client: ask for news of an issued query. The node replies once
    /// the query has more than `seen` responses, or with the unchanged
    /// view after [`PARK_PATIENCE`](crate::runtime::PARK_PATIENCE); the
    /// connection's later requests wait behind this one.
    QueryStatus {
        /// The query.
        qid: u32,
        /// The `responses` count of the last report the client holds
        /// for this query (0 for none).
        seen: u32,
    },
    /// Reply to [`Frame::QueryStatus`], and to [`Frame::ClientQuery`]
    /// once the query has its first response (or the patience ran out).
    ///
    /// A query the node does not know — never issued there, or retired
    /// because [`QUERY_WINDOW`](crate::runtime::QUERY_WINDOW) newer
    /// queries have reached the node since — reports 0 responses, 0
    /// hops, not degraded and an empty merged list. It has no news, so
    /// a status on it waits out the patience.
    QueryReport {
        /// The query.
        qid: u32,
        /// Result messages received so far.
        responses: u32,
        /// Maximum delivery path length over responders so far.
        max_hops: u32,
        /// True when any responder flagged possible data loss.
        degraded: bool,
        /// Merged `(object, distance)` results, ascending distance.
        merged: Vec<(u32, f64)>,
    },
    /// Client: ask for the node's telemetry snapshot.
    StatsRequest,
    /// Reply to [`Frame::StatsRequest`].
    StatsReport(StatsReport),
    /// Client: ask for the membership list.
    MembersRequest,
    /// Client: ask the node to exit cleanly.
    Shutdown,
    /// Reply to [`Frame::Shutdown`], written before the node exits.
    ShutdownAck,
}

impl Frame {
    /// The frame's kind, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Search(_) => "search",
            Frame::Hello { .. } => "hello",
            Frame::JoinRequest { .. } => "join-request",
            Frame::Members { .. } => "members",
            Frame::Error { .. } => "error",
            Frame::ClientPublish { .. } => "client-publish",
            Frame::PublishAck => "publish-ack",
            Frame::ClientQuery { .. } => "client-query",
            Frame::QueryStatus { .. } => "query-status",
            Frame::QueryReport { .. } => "query-report",
            Frame::StatsRequest => "stats-request",
            Frame::StatsReport(_) => "stats-report",
            Frame::MembersRequest => "members-request",
            Frame::Shutdown => "shutdown",
            Frame::ShutdownAck => "shutdown-ack",
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_points(out: &mut Vec<u8>, pts: &[f64]) {
    put_u16(out, pts.len() as u16);
    for &x in pts {
        put_f64(out, x);
    }
}

fn put_subquery(out: &mut Vec<u8>, sq: &SubQueryMsg) {
    put_u32(out, sq.qid);
    out.push(sq.index);
    put_u32(out, sq.hops);
    put_u64(out, sq.origin.0 as u64);
    out.push(sq.shortcut as u8);
    put_u64(out, sq.prefix.key());
    put_u32(out, sq.prefix.len());
    put_u16(out, sq.rect.dims() as u16);
    for d in 0..sq.rect.dims() {
        put_f64(out, sq.rect.lo()[d]);
    }
    for d in 0..sq.rect.dims() {
        put_f64(out, sq.rect.hi()[d]);
    }
    match &sq.ball {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_f64(out, b.radius);
            put_points(out, &b.center);
        }
    }
}

fn put_entry(out: &mut Vec<u8>, e: &Entry) {
    put_u64(out, e.ring_key);
    put_u32(out, e.obj.0);
    put_points(out, &e.point);
}

fn put_result_item(out: &mut Vec<u8>, it: &ResultItem) {
    put_u32(out, it.qid);
    put_u32(out, it.hops);
    out.push(it.degraded as u8);
    out.push(it.index);
    put_u64(out, it.owner);
    put_u16(out, it.entries.len() as u16);
    for &(o, d) in &it.entries {
        put_u32(out, o.0);
        put_f64(out, d);
    }
    put_u16(out, it.covered.len() as u16);
    for &(a, b) in &it.covered {
        put_u64(out, a);
        put_u64(out, b);
    }
    match &it.cached {
        None => out.push(0),
        Some(pts) => {
            out.push(1);
            put_u32(out, pts.len() as u32);
            for (o, p) in pts {
                put_u32(out, o.0);
                put_points(out, p);
            }
        }
    }
}

fn put_search(out: &mut Vec<u8>, msg: &SearchMsg) {
    match msg {
        SearchMsg::Route(subs) => {
            out.push(0);
            put_u16(out, subs.len() as u16);
            for sq in subs {
                put_subquery(out, sq);
            }
        }
        SearchMsg::Refine(sq) => {
            out.push(1);
            put_subquery(out, sq);
        }
        SearchMsg::RefineBatch(subs) => {
            out.push(2);
            put_u16(out, subs.len() as u16);
            for sq in subs {
                put_subquery(out, sq);
            }
        }
        SearchMsg::Results {
            qid,
            hops,
            entries,
            degraded,
        } => {
            out.push(3);
            put_u32(out, *qid);
            put_u32(out, *hops);
            out.push(*degraded as u8);
            put_u16(out, entries.len() as u16);
            for &(o, d) in entries {
                put_u32(out, o.0);
                put_f64(out, d);
            }
        }
        SearchMsg::ResultsOpt { items } => {
            out.push(4);
            put_u16(out, items.len() as u16);
            for it in items {
                put_result_item(out, it);
            }
        }
        SearchMsg::Issue(sq) => {
            out.push(5);
            put_subquery(out, sq);
        }
        SearchMsg::Publish { index, entry, hops } => {
            out.push(6);
            out.push(*index);
            put_u32(out, *hops);
            put_entry(out, entry);
        }
        SearchMsg::Replicate {
            index,
            owner,
            entry,
        } => {
            out.push(7);
            out.push(*index);
            put_u64(out, *owner);
            put_entry(out, entry);
        }
        SearchMsg::Tracked { seq, dead, inner } => {
            out.push(8);
            put_u64(out, *seq);
            put_u16(out, dead.len() as u16);
            for &d in dead {
                put_u64(out, d);
            }
            put_search(out, inner);
        }
        SearchMsg::Ack { seq } => {
            out.push(9);
            put_u64(out, *seq);
        }
    }
}

/// Append a frame's tag + body, without the length prefix.
fn put_frame(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Search(msg) => put_search(out, msg),
        Frame::Hello { role, index } => {
            out.push(16);
            out.push(match role {
                Role::Peer => 0,
                Role::Client => 1,
            });
            put_u64(out, *index);
        }
        Frame::JoinRequest { addr } => {
            out.push(17);
            put_str(out, addr);
        }
        Frame::Members { members } => {
            out.push(18);
            put_u16(out, members.len() as u16);
            for m in members {
                put_u64(out, m.index);
                put_str(out, &m.addr);
            }
        }
        Frame::Error { reason } => {
            out.push(19);
            put_str(out, reason);
        }
        Frame::ClientPublish { index, obj, point } => {
            out.push(20);
            out.push(*index);
            put_u32(out, *obj);
            put_points(out, point);
        }
        Frame::PublishAck => out.push(21),
        Frame::ClientQuery {
            qid,
            index,
            center,
            radius,
        } => {
            out.push(22);
            put_u32(out, *qid);
            out.push(*index);
            put_f64(out, *radius);
            put_points(out, center);
        }
        Frame::QueryStatus { qid, seen } => {
            out.push(23);
            put_u32(out, *qid);
            put_u32(out, *seen);
        }
        Frame::QueryReport {
            qid,
            responses,
            max_hops,
            degraded,
            merged,
        } => {
            out.push(24);
            put_u32(out, *qid);
            put_u32(out, *responses);
            put_u32(out, *max_hops);
            out.push(*degraded as u8);
            put_u16(out, merged.len() as u16);
            for &(o, d) in merged {
                put_u32(out, o);
                put_f64(out, d);
            }
        }
        Frame::StatsRequest => out.push(25),
        Frame::StatsReport(r) => {
            out.push(26);
            put_u16(out, r.counters.len() as u16);
            for (name, v) in &r.counters {
                put_str(out, name);
                put_u64(out, *v);
            }
            put_u16(out, r.histograms.len() as u16);
            for h in &r.histograms {
                put_str(out, &h.name);
                put_u64(out, h.count);
                put_u64(out, h.sum);
                put_u64(out, h.max);
            }
            put_u32(out, r.queries.len() as u32);
            for (qid, s) in &r.queries {
                put_u32(out, *qid);
                put_u32(out, s.hops);
                put_u32(out, s.splits);
                put_u32(out, s.shared_paths);
                put_u32(out, s.forwards);
                put_u32(out, s.handoffs);
                put_u32(out, s.refines);
                put_u32(out, s.peels);
                put_u32(out, s.answers);
                put_u64(out, s.scanned);
                put_u64(out, s.matched);
                put_u64(out, s.returned);
                put_u64(out, s.query_bytes);
                put_u64(out, s.result_bytes);
            }
            put_u64(out, r.load);
        }
        Frame::MembersRequest => out.push(27),
        Frame::Shutdown => out.push(28),
        Frame::ShutdownAck => out.push(29),
    }
}

/// Append a complete frame — 4-byte little-endian length, tag, body —
/// to `out`. The body is encoded in place and the length back-patched,
/// so a caller that keeps its buffer pays no allocation per frame.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    put_frame(out, frame);
    let len = out.len() - start - 4;
    assert!(
        len <= MAX_FRAME_BYTES as usize,
        "outbound {} frame exceeds MAX_FRAME_BYTES",
        frame.kind()
    );
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Encode a complete frame into a fresh buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // Most protocol frames are 100–300 bytes: skip the doubling steps.
    let mut out = Vec::with_capacity(256);
    encode_frame_into(&mut out, frame);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                what,
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::BadFlag { what, value: v }),
        }
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let n = self.u16(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }

    fn points(&mut self, what: &'static str) -> Result<Vec<f64>, WireError> {
        let n = self.u16(what)? as usize;
        let mut pts = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            pts.push(self.f64(what)?);
        }
        Ok(pts)
    }
}

fn dec_prefix(d: &mut Dec<'_>) -> Result<Prefix, WireError> {
    let key = d.u64("prefix key")?;
    let len = d.u32("prefix length")?;
    let low_mask = u64::MAX.checked_shr(len).unwrap_or(0);
    if len > 64 || key & low_mask != 0 {
        return Err(WireError::BadPrefix { key, len });
    }
    Ok(Prefix::new(key, len))
}

fn dec_rect(d: &mut Dec<'_>) -> Result<Rect, WireError> {
    let dims = d.u16("rect dims")? as usize;
    if dims == 0 {
        return Err(WireError::BadRect { dim: 0 });
    }
    let mut lo = Vec::with_capacity(dims.min(4096));
    for _ in 0..dims {
        lo.push(d.f64("rect lo")?);
    }
    let mut hi = Vec::with_capacity(dims.min(4096));
    for _ in 0..dims {
        hi.push(d.f64("rect hi")?);
    }
    for i in 0..dims {
        // An incomparable pair (NaN bound) must be rejected too —
        // Rect::new asserts against it, and malformed input has to come
        // back as an error instead of a panic.
        let ordered = matches!(
            lo[i].partial_cmp(&hi[i]),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !ordered {
            return Err(WireError::BadRect { dim: i });
        }
    }
    Ok(Rect::new(lo, hi))
}

fn dec_subquery(d: &mut Dec<'_>) -> Result<SubQueryMsg, WireError> {
    let qid = d.u32("subquery qid")?;
    let index = d.u8("subquery index")?;
    let hops = d.u32("subquery hops")?;
    let origin = d.u64("subquery origin")? as usize;
    let shortcut = d.bool("subquery shortcut flag")?;
    let prefix = dec_prefix(d)?;
    let rect = dec_rect(d)?;
    let ball = if d.bool("ball flag")? {
        let radius = d.f64("ball radius")?;
        let center: Arc<[f64]> = d.points("ball center")?.into();
        Some(QueryBall { center, radius })
    } else {
        None
    };
    Ok(SubQueryMsg {
        qid,
        index,
        rect,
        prefix,
        hops,
        origin: AgentId(origin),
        ball,
        shortcut,
    })
}

fn dec_entry(d: &mut Dec<'_>) -> Result<Entry, WireError> {
    let ring_key = d.u64("entry ring key")?;
    let obj = ObjectId(d.u32("entry object")?);
    let point = d.points("entry point")?.into_boxed_slice();
    Ok(Entry {
        ring_key,
        obj,
        point,
    })
}

fn dec_ranked(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<(ObjectId, f64)>, WireError> {
    let n = d.u16(what)? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let o = ObjectId(d.u32(what)?);
        let dist = d.f64(what)?;
        out.push((o, dist));
    }
    Ok(out)
}

fn dec_result_item(d: &mut Dec<'_>) -> Result<ResultItem, WireError> {
    let qid = d.u32("item qid")?;
    let hops = d.u32("item hops")?;
    let degraded = d.bool("item degraded flag")?;
    let index = d.u8("item index")?;
    let owner = d.u64("item owner")?;
    let entries = dec_ranked(d, "item entries")?;
    let n_cov = d.u16("item covered")? as usize;
    let mut covered = Vec::with_capacity(n_cov.min(4096));
    for _ in 0..n_cov {
        let a = d.u64("item covered")?;
        let b = d.u64("item covered")?;
        covered.push((a, b));
    }
    let cached = if d.bool("item cached flag")? {
        let n = d.u32("item cached")? as usize;
        let mut pts = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let o = ObjectId(d.u32("item cached")?);
            let p = d.points("item cached point")?.into_boxed_slice();
            pts.push((o, p));
        }
        Some(pts)
    } else {
        None
    };
    Ok(ResultItem {
        qid,
        hops,
        entries,
        degraded,
        index,
        owner,
        covered,
        cached,
    })
}

fn dec_search(d: &mut Dec<'_>, tag: u8, depth: u8) -> Result<SearchMsg, WireError> {
    if depth > MAX_TRACKED_DEPTH {
        return Err(WireError::TooDeep);
    }
    match tag {
        0 | 2 => {
            let n = d.u16("subquery count")? as usize;
            let mut subs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                subs.push(dec_subquery(d)?);
            }
            Ok(if tag == 0 {
                SearchMsg::Route(subs)
            } else {
                SearchMsg::RefineBatch(subs)
            })
        }
        1 => Ok(SearchMsg::Refine(dec_subquery(d)?)),
        3 => {
            let qid = d.u32("results qid")?;
            let hops = d.u32("results hops")?;
            let degraded = d.bool("results degraded flag")?;
            let entries = dec_ranked(d, "results entries")?;
            Ok(SearchMsg::Results {
                qid,
                hops,
                entries,
                degraded,
            })
        }
        4 => {
            let n = d.u16("item count")? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(dec_result_item(d)?);
            }
            Ok(SearchMsg::ResultsOpt { items })
        }
        5 => Ok(SearchMsg::Issue(dec_subquery(d)?)),
        6 => {
            let index = d.u8("publish index")?;
            let hops = d.u32("publish hops")?;
            let entry = dec_entry(d)?;
            Ok(SearchMsg::Publish { index, entry, hops })
        }
        7 => {
            let index = d.u8("replicate index")?;
            let owner = d.u64("replicate owner")?;
            let entry = dec_entry(d)?;
            Ok(SearchMsg::Replicate {
                index,
                owner,
                entry,
            })
        }
        8 => {
            let seq = d.u64("tracked seq")?;
            let n = d.u16("tracked dead list")? as usize;
            let mut dead = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                dead.push(d.u64("tracked dead list")?);
            }
            let inner_tag = d.u8("tracked inner tag")?;
            let inner = dec_search(d, inner_tag, depth + 1)?;
            Ok(SearchMsg::Tracked {
                seq,
                dead,
                inner: Box::new(inner),
            })
        }
        9 => Ok(SearchMsg::Ack {
            seq: d.u64("ack seq")?,
        }),
        t => Err(WireError::UnknownTag(t)),
    }
}

/// Decode one frame body (tag + fields, no length prefix). The body must
/// be consumed exactly: leftover bytes are [`WireError::TrailingGarbage`].
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut d = Dec::new(body);
    if body.is_empty() {
        return Err(WireError::EmptyFrame);
    }
    let tag = d.u8("frame tag")?;
    let frame = match tag {
        0..=9 => Frame::Search(dec_search(&mut d, tag, 0)?),
        16 => {
            let role = match d.u8("hello role")? {
                0 => Role::Peer,
                1 => Role::Client,
                v => {
                    return Err(WireError::BadFlag {
                        what: "hello role",
                        value: v,
                    })
                }
            };
            let index = d.u64("hello index")?;
            Frame::Hello { role, index }
        }
        17 => Frame::JoinRequest {
            addr: d.string("join address")?,
        },
        18 => {
            let n = d.u16("member count")? as usize;
            let mut members = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let index = d.u64("member index")?;
                let addr = d.string("member address")?;
                members.push(Member { index, addr });
            }
            Frame::Members { members }
        }
        19 => Frame::Error {
            reason: d.string("error reason")?,
        },
        20 => {
            let index = d.u8("publish index")?;
            let obj = d.u32("publish object")?;
            let point = d.points("publish point")?;
            Frame::ClientPublish { index, obj, point }
        }
        21 => Frame::PublishAck,
        22 => {
            let qid = d.u32("query qid")?;
            let index = d.u8("query index")?;
            let radius = d.f64("query radius")?;
            let center = d.points("query center")?;
            Frame::ClientQuery {
                qid,
                index,
                center,
                radius,
            }
        }
        23 => Frame::QueryStatus {
            qid: d.u32("status qid")?,
            seen: d.u32("status seen")?,
        },
        24 => {
            let qid = d.u32("report qid")?;
            let responses = d.u32("report responses")?;
            let max_hops = d.u32("report hops")?;
            let degraded = d.bool("report degraded flag")?;
            let n = d.u16("report results")? as usize;
            let mut merged = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let o = d.u32("report results")?;
                let dist = d.f64("report results")?;
                merged.push((o, dist));
            }
            Frame::QueryReport {
                qid,
                responses,
                max_hops,
                degraded,
                merged,
            }
        }
        25 => Frame::StatsRequest,
        26 => {
            let nc = d.u16("stats counters")? as usize;
            let mut counters = Vec::with_capacity(nc.min(4096));
            for _ in 0..nc {
                let name = d.string("counter name")?;
                let v = d.u64("counter value")?;
                counters.push((name, v));
            }
            let nh = d.u16("stats histograms")? as usize;
            let mut histograms = Vec::with_capacity(nh.min(4096));
            for _ in 0..nh {
                histograms.push(HistogramSummary {
                    name: d.string("histogram name")?,
                    count: d.u64("histogram count")?,
                    sum: d.u64("histogram sum")?,
                    max: d.u64("histogram max")?,
                });
            }
            let nq = d.u32("stats queries")? as usize;
            let mut queries = Vec::with_capacity(nq.min(4096));
            for _ in 0..nq {
                let qid = d.u32("summary qid")?;
                let s = QuerySummary {
                    hops: d.u32("summary hops")?,
                    splits: d.u32("summary splits")?,
                    shared_paths: d.u32("summary shared_paths")?,
                    forwards: d.u32("summary forwards")?,
                    handoffs: d.u32("summary handoffs")?,
                    refines: d.u32("summary refines")?,
                    peels: d.u32("summary peels")?,
                    answers: d.u32("summary answers")?,
                    scanned: d.u64("summary scanned")?,
                    matched: d.u64("summary matched")?,
                    returned: d.u64("summary returned")?,
                    query_bytes: d.u64("summary query_bytes")?,
                    result_bytes: d.u64("summary result_bytes")?,
                };
                queries.push((qid, s));
            }
            let load = d.u64("stats load")?;
            Frame::StatsReport(StatsReport {
                counters,
                histograms,
                queries,
                load,
            })
        }
        27 => Frame::MembersRequest,
        28 => Frame::Shutdown,
        29 => Frame::ShutdownAck,
        t => return Err(WireError::UnknownTag(t)),
    };
    if d.remaining() != 0 {
        return Err(WireError::TrailingGarbage {
            frame: frame.kind(),
            extra: d.remaining(),
        });
    }
    Ok(frame)
}

/// Try to decode one length-prefixed frame from the front of `buf`.
/// `Ok(None)` means the buffer does not yet hold a complete frame;
/// `Ok(Some((frame, consumed)))` yields the frame and how many bytes it
/// spanned (prefix included). Oversized length prefixes fail immediately
/// — they are never waited for.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let frame = decode_body(&buf[4..total])?;
    Ok(Some((frame, total)))
}

/// Capacity a drained [`FrameBuf`] keeps; anything a burst grew beyond
/// it is handed back to the allocator.
pub(crate) const IDLE_CAPACITY: usize = 4096;

/// Size of the scratch this crate's [`FrameBuf::fill`] callers read
/// through: the most one `read` asks of the kernel.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// The receiving end of a byte stream carrying frames: bytes go in as
/// they arrive ([`FrameBuf::fill`]), complete frames come out
/// ([`FrameBuf::next_frame`]). A frame split over many reads waits in the
/// buffer; many frames in one read come out one by one. The buffer
/// starts empty and never holds more than one maximal frame plus one
/// read: [`decode_frame`] rejects an oversized prefix before any of its
/// body is waited for.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Start of the first undecoded byte in `buf`.
    pos: usize,
}

impl FrameBuf {
    /// One `read` from `r` through `scratch`, appended to the buffer.
    /// Returns the byte count; 0 is end-of-stream. The scratch is the
    /// caller's so that many connections can share one.
    pub fn fill(&mut self, r: &mut impl Read, scratch: &mut [u8]) -> io::Result<usize> {
        let n = r.read(scratch)?;
        self.buf.extend_from_slice(&scratch[..n]);
        Ok(n)
    }

    /// Decode the next complete frame, if the buffer holds one.
    /// `Ok(None)` keeps the partial frame for the next [`fill`].
    ///
    /// [`fill`]: FrameBuf::fill
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some((frame, used)) = decode_frame(&self.buf[self.pos..])? else {
            self.buf.drain(..self.pos);
            self.pos = 0;
            return Ok(None);
        };
        self.pos += used;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.buf.shrink_to(IDLE_CAPACITY);
            self.pos = 0;
        }
        Ok(Some(frame))
    }

    /// True when no undecoded byte is buffered — end-of-stream now is a
    /// clean close, not a cut frame.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Blocking read of the next frame, with [`read_frame`]'s contract
    /// (`Ok(None)` is a clean close between frames) but buffered: one
    /// `read` usually yields the whole frame, and bytes read past it
    /// stay for the next call.
    pub fn read_frame(
        &mut self,
        r: &mut impl Read,
        scratch: &mut [u8],
    ) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                return Ok(Some(frame));
            }
            let n = match self.fill(r, scratch) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => other?,
            };
            if n == 0 {
                if self.is_empty() {
                    return Ok(None); // clean close between frames
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!(
                        "connection closed inside a frame ({} bytes of it arrived)",
                        self.buf.len()
                    ),
                ));
            }
        }
    }
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Read one frame from a stream. `Ok(None)` is a clean end-of-stream
/// (the peer closed between frames); EOF mid-frame and every decode
/// failure map to `io::ErrorKind::InvalidData`/`UnexpectedEof` errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean close between frames
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed inside a frame header ({got}/4 bytes)"),
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized { len },
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed inside a {len}-byte frame body"),
            )
        } else {
            e
        }
    })?;
    decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

// ---------------------------------------------------------------------
// §4.1 model cross-check
// ---------------------------------------------------------------------

/// How many bytes the physical frame of `msg` (length prefix included)
/// exceeds the paper's [`simsearch::msg::msg_bytes`] price — the
/// documented per-variant delta the codec tests pin the encoder to.
///
/// The delta exists because the model abstracts: it prices a subquery at
/// `4k + 9` bytes (2-byte coordinates, key, flags byte) while the codec
/// carries the full 8-byte-coordinate rect, the prefix, the origin
/// address and the optional ball. Per structure (all little-endian
/// encodings as implemented above):
///
/// * frame overhead: 4 (length) + 1 (tag) = **5** per frame, vs the
///   model's 20-byte header already included in `msg_bytes` — so the
///   frame-level delta starts at `5 - modelled_header` and the
///   per-structure terms below are added on top;
/// * subquery: physical `42 + 16·d` (+ `11 + 8·c` with a ball) vs
///   modelled `4k + 9`;
/// * ranked entry `(object, distance)`: physical 12 vs modelled 6;
/// * publish entry: physical `14 + 8·p` + fixed fields vs modelled
///   `8 + 4 + 8·p` + 20-byte header.
///
/// Returned as `i64`: sparse frames (an empty `Results`) can be cheaper
/// physically than the model's flat header.
pub fn model_delta(msg: &SearchMsg, k_of_index: impl Fn(u8) -> usize + Copy) -> i64 {
    fn sub_physical(sq: &SubQueryMsg) -> i64 {
        // qid 4 + index 1 + hops 4 + origin 8 + shortcut 1 + prefix 12
        // + rect (2 + 16·d) + ball flag 1 [+ radius 8 + center 2 + 8·c]
        let mut n = 4 + 1 + 4 + 8 + 1 + 12 + 2 + 16 * sq.rect.dims() as i64 + 1;
        if let Some(b) = &sq.ball {
            n += 8 + 2 + 8 * b.center.len() as i64;
        }
        n
    }
    fn item_physical(it: &ResultItem) -> i64 {
        // qid 4 + hops 4 + degraded 1 + index 1 + owner 8 + entries
        // (2 + 12·e) + covered (2 + 16·c) + cached flag 1 [+ count 4 +
        // per point (4 + 2 + 8·k)]
        let mut n = 4
            + 4
            + 1
            + 1
            + 8
            + 2
            + 12 * it.entries.len() as i64
            + 2
            + 16 * it.covered.len() as i64
            + 1;
        if let Some(pts) = &it.cached {
            n += 4;
            for (_, p) in pts {
                n += 4 + 2 + 8 * p.len() as i64;
            }
        }
        n
    }
    fn entry_physical(e: &Entry) -> i64 {
        8 + 4 + 2 + 8 * e.point.len() as i64
    }
    // Physical tag+body size, computed structurally (mirrors the
    // encoder), plus the 4-byte length prefix.
    fn physical(msg: &SearchMsg) -> i64 {
        let body = match msg {
            SearchMsg::Route(subs) | SearchMsg::RefineBatch(subs) => {
                2 + subs.iter().map(sub_physical).sum::<i64>()
            }
            SearchMsg::Refine(sq) | SearchMsg::Issue(sq) => sub_physical(sq),
            SearchMsg::Results { entries, .. } => 4 + 4 + 1 + 2 + 12 * entries.len() as i64,
            SearchMsg::ResultsOpt { items } => 2 + items.iter().map(item_physical).sum::<i64>(),
            SearchMsg::Publish { entry, .. } => 1 + 4 + entry_physical(entry),
            SearchMsg::Replicate { entry, .. } => 1 + 8 + entry_physical(entry),
            SearchMsg::Tracked { dead, inner, .. } => {
                // seq + dead count + ids + nested tag byte + nested body
                // (the nested physical() already includes prefix+tag: 5;
                // subtract its 4-byte prefix, keep its tag).
                8 + 2 + 8 * dead.len() as i64 + (physical(inner) - 4)
            }
            SearchMsg::Ack { .. } => 8,
        };
        4 + 1 + body
    }
    physical(msg) - simsearch::msg::msg_bytes(msg, k_of_index) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph::Prefix;

    fn sq(ball: bool) -> SubQueryMsg {
        SubQueryMsg {
            qid: 7,
            index: 0,
            rect: Rect::new(vec![0.25, 0.5], vec![0.75, 1.0]),
            prefix: Prefix::of_key(0xDEAD_BEEF_0000_0000, 16),
            hops: 3,
            origin: AgentId(4),
            ball: ball.then(|| QueryBall {
                center: vec![0.5, 0.75].into(),
                radius: 0.25,
            }),
            shortcut: true,
        }
    }

    #[test]
    fn frame_roundtrip_spot_checks() {
        let frames = [
            Frame::Search(SearchMsg::Route(vec![sq(true), sq(false)])),
            Frame::Hello {
                role: Role::Peer,
                index: 11,
            },
            Frame::Members {
                members: vec![Member {
                    index: 0,
                    addr: "127.0.0.1:9000".into(),
                }],
            },
            Frame::ClientQuery {
                qid: 3,
                index: 0,
                center: vec![0.1, 0.9],
                radius: 0.2,
            },
            Frame::Shutdown,
        ];
        for f in &frames {
            let bytes = encode_frame(f);
            let (back, used) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(
                encode_frame(&back),
                bytes,
                "re-encode differs: {}",
                f.kind()
            );
        }
    }

    #[test]
    fn incomplete_buffers_wait_oversized_fails_fast() {
        let bytes = encode_frame(&Frame::PublishAck);
        for cut in 0..bytes.len() {
            assert!(matches!(decode_frame(&bytes[..cut]), Ok(None)));
        }
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(matches!(
            decode_frame(&huge),
            Err(WireError::Oversized { len }) if len == MAX_FRAME_BYTES + 1
        ));
    }

    #[test]
    fn malformed_prefix_and_rect_are_errors_not_panics() {
        // A Refine body whose prefix has low bits set beyond its length.
        let mut body = Vec::new();
        body.push(1u8); // Refine
        put_u32(&mut body, 0);
        body.push(0);
        put_u32(&mut body, 0);
        put_u64(&mut body, 0);
        body.push(0);
        put_u64(&mut body, 0xFF); // key with low bits set
        put_u32(&mut body, 8); // len 8: key must be left-aligned
        assert!(matches!(
            decode_body(&body),
            Err(WireError::BadPrefix { .. })
        ));
        // A rect with lo > hi.
        let mut sqb = Vec::new();
        put_subquery(&mut sqb, &sq(false));
        // lo[0] sits right after the fixed 30 bytes + 2-byte dims.
        let lo_at = 4 + 1 + 4 + 8 + 1 + 12 + 2;
        sqb[lo_at..lo_at + 8].copy_from_slice(&f64::to_bits(9.0).to_le_bytes());
        let mut body = vec![1u8];
        body.extend_from_slice(&sqb);
        assert!(matches!(
            decode_body(&body),
            Err(WireError::BadRect { dim: 0 })
        ));
    }
}
