//! Length-prefixed frame codec for the real-socket driver.
//!
//! Every frame on the wire is `u32` little-endian length, then a one-byte
//! tag, then the tag's body. The length covers tag + body (not itself)
//! and is capped at [`MAX_FRAME_BYTES`]; a peer announcing more is
//! treated as malformed and disconnected, never buffered.
//!
//! Tags 0–9 encode the eight [`SearchMsg`] variants one-to-one (the
//! protocol plane); tags 2 and 4 are retired and decode as
//! [`WireError::UnknownTag`], like any unassigned tag. Tags 16+ are
//! control frames the runtime and client use for bootstrap, publishing,
//! querying and stats (the driver plane). Control frames never reach the
//! sans-io core.
//!
//! Integers are little-endian; `f64` travels as its IEEE-754 bit pattern
//! (`to_bits`/`from_bits`), so round-trips are exact for every value,
//! NaN payloads included. Strings are `u16` length + UTF-8 bytes.
//!
//! ## One layout per type
//!
//! Each wire type's layout is written once, in the tables at the end of
//! this module: a struct as its fields in wire order, an enum as its
//! `tag => variant` table. Encoder and decoder are both derived from
//! that one list, through a private codec trait over the primitives,
//! `u16`-counted lists, `Option` (a flag byte, then the value if set),
//! [`Prefix`] and [`Rect`]. The codec prices nothing: a message's §4.1
//! price, which the simulator and the repo benchmark count, lives only
//! in [`simsearch::msg::msg_bytes`].

use lph::{Prefix, Rect};
use metric::ObjectId;
use simnet::AgentId;
use simsearch::msg::{QueryBall, SearchMsg, SubQueryMsg};
use simsearch::store::Entry;
use simsearch::telemetry::QuerySummary;
use std::cmp::Ordering;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Hard cap on a frame's announced length (tag + body). Generously above
/// anything the protocol produces; anything larger is a corrupt or
/// hostile peer.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

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

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// A read cursor over one frame body.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
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
}

/// A type with one wire layout: `put` appends a value, `get` reads one
/// back and rejects bytes no `put` produces. `what` names the field
/// being read, for the error.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError>;
}

/// A field's codec where the field does not travel as its type does.
trait Via<T> {
    fn put(v: &T, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<T, WireError>;
}

/// A type that travels as a tag byte, then that tag's fields.
trait Tagged: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get_tagged(d: &mut Dec<'_>, tag: u8) -> Result<Self, WireError>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
                let b = d.take(std::mem::size_of::<$t>(), what)?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("take returns the length asked")))
            }
        }
    )*};
}

// `f64::to_le_bytes` is the IEEE-754 bit pattern, NaN payloads included.
wire_le!(u8, u16, u32, u64, f64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        match u8::get(d, what)? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadFlag { what, value }),
        }
    }
}

/// A flag byte: 0 for a peer, 1 for a client.
impl Wire for Role {
    fn put(&self, out: &mut Vec<u8>) {
        (*self == Role::Client).put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok(if bool::get(d, what)? {
            Role::Client
        } else {
            Role::Peer
        })
    }
}

impl Wire for ObjectId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        u32::get(d, what).map(ObjectId)
    }
}

impl Wire for AgentId {
    fn put(&self, out: &mut Vec<u8>) {
        (self.0 as u64).put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok(AgentId(u64::get(d, what)? as usize))
    }
}

/// A `u16` count: every length on the wire but the two [`Long`] lists.
fn put_len(n: usize, out: &mut Vec<u8>) {
    debug_assert!(n <= usize::from(u16::MAX), "list too long for a u16 count");
    (n as u16).put(out);
}

fn put_all<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    for x in items {
        x.put(out);
    }
}

fn get_n<T: Wire>(d: &mut Dec<'_>, n: usize, what: &'static str) -> Result<Vec<T>, WireError> {
    // The count is the peer's word: reserve no more than a sane frame's.
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(T::get(d, what)?);
    }
    Ok(items)
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        let n = u16::get(d, what)?;
        let bytes = d.take(n.into(), what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { what })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        put_all(self, out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        let n = u16::get(d, what)?;
        get_n(d, n.into(), what)
    }
}

impl<T: Wire> Wire for Box<[T]> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        put_all(self, out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Vec::get(d, what).map(Vec::into_boxed_slice)
    }
}

impl<T: Wire> Wire for Arc<[T]> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        put_all(self, out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Vec::get(d, what).map(Arc::from)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok(if bool::get(d, what)? {
            Some(T::get(d, what)?)
        } else {
            None
        })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        Ok((A::get(d, what)?, B::get(d, what)?))
    }
}

/// The left-aligned key, then the length. A key with bits set past its
/// length, or a length over 64, would panic [`Prefix::new`]: rejected.
impl Wire for Prefix {
    fn put(&self, out: &mut Vec<u8>) {
        self.key().put(out);
        self.len().put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        let key = u64::get(d, what)?;
        let len = u32::get(d, what)?;
        let low_mask = u64::MAX.checked_shr(len).unwrap_or(0);
        if len > 64 || key & low_mask != 0 {
            return Err(WireError::BadPrefix { key, len });
        }
        Ok(Prefix::new(key, len))
    }
}

/// One `u16` dimension count, every `lo`, then every `hi`. No
/// dimensions, or a `lo` not at most its `hi` (a NaN bound included),
/// would panic [`Rect::new`]: rejected.
impl Wire for Rect {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.dims(), out);
        put_all(self.lo(), out);
        put_all(self.hi(), out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Self, WireError> {
        let dims = u16::get(d, what)?.into();
        if dims == 0 {
            return Err(WireError::BadRect { dim: 0 });
        }
        let lo: Vec<f64> = get_n(d, dims, what)?;
        let hi: Vec<f64> = get_n(d, dims, what)?;
        let ordered = |i: usize| {
            matches!(
                lo[i].partial_cmp(&hi[i]),
                Some(Ordering::Less | Ordering::Equal)
            )
        };
        if let Some(dim) = (0..dims).find(|&i| !ordered(i)) {
            return Err(WireError::BadRect { dim });
        }
        Ok(Rect::new(lo, hi))
    }
}

/// A list with a `u32` count: the one that can outgrow a `u16`,
/// [`StatsReport::queries`].
struct Long;

impl<T: Wire> Via<Vec<T>> for Long {
    fn put(v: &Vec<T>, out: &mut Vec<u8>) {
        (v.len() as u32).put(out);
        put_all(v, out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Vec<T>, WireError> {
        let n = u32::get(d, what)?;
        get_n(d, n as usize, what)
    }
}

/// A [`SearchMsg::Tracked`] payload: any message but another envelope.
/// The protocol never nests them, so a nested one is
/// [`WireError::TooDeep`] and the decoder recurses one level at most.
struct Flat;

impl Via<Box<SearchMsg>> for Flat {
    fn put(v: &Box<SearchMsg>, out: &mut Vec<u8>) {
        v.put(out);
    }
    fn get(d: &mut Dec<'_>, what: &'static str) -> Result<Box<SearchMsg>, WireError> {
        match u8::get(d, what)? {
            8 => Err(WireError::TooDeep), // `Tracked`'s tag in the table below
            tag => SearchMsg::get_tagged(d, tag).map(Box::new),
        }
    }
}

/// One field through its type's [`Wire`] codec, or through the [`Via`]
/// codec named after `as`.
macro_rules! field {
    (put $out:ident, $v:expr) => {
        Wire::put($v, $out)
    };
    (put $out:ident, $v:expr, $via:ty) => {
        <$via as Via<_>>::put($v, $out)
    };
    (get $d:ident, $f:ident) => {
        Wire::get($d, stringify!($f))?
    };
    (get $d:ident, $f:ident, $via:ty) => {
        <$via as Via<_>>::get($d, stringify!($f))?
    };
}

/// Gives each struct its wire layout: its fields, in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident $(as $via:ty)?),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(field!(put out, &self.$f $(, $via)?);)*
            }
            fn get(d: &mut Dec<'_>, _: &'static str) -> Result<Self, WireError> {
                $(let $f = field!(get d, $f $(, $via)?);)*
                Ok($ty { $($f),* })
            }
        }
    )*};
}

/// Gives an enum its wire table: `tag => Variant(field)` or
/// `tag => Variant { fields in wire order }`. A frame table also names
/// each variant for [`Frame::kind`] and, after `else`, the variant that
/// carries a [`Tagged`] message of its own (and every other tag).
macro_rules! wire_enum {
    (@pat $ty:ident $var:ident ($x:ident)) => { $ty::$var($x) };
    (@pat $ty:ident $var:ident { $($f:ident $(as $via:ty)?),* $(,)? }) => { $ty::$var { $($f),* } };
    (@put $out:ident ($x:ident)) => { field!(put $out, $x) };
    (@put $out:ident { $($f:ident $(as $via:ty)?),* $(,)? }) => { $(field!(put $out, $f $(, $via)?);)* };
    (@get $d:ident $ty:ident $var:ident ($x:ident)) => { $ty::$var(field!(get $d, $x)) };
    (@get $d:ident $ty:ident $var:ident { $($f:ident $(as $via:ty)?),* $(,)? }) => {{
        $(let $f = field!(get $d, $f $(, $via)?);)*
        $ty::$var { $($f),* }
    }};
    (@codec $ty:ident [$($pass:ident)?] $($tag:literal $var:ident $shape:tt)*) => {
        impl Tagged for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$pass(msg) => msg.put(out),)?
                    $(wire_enum!(@pat $ty $var $shape) => {
                        out.push($tag);
                        wire_enum!(@put out $shape);
                    })*
                }
            }
            // Out of line, `decode_body` paid a call and two copies of
            // the frame: 10–15 ns per frame, a tenth of a decode.
            #[inline]
            fn get_tagged(d: &mut Dec<'_>, tag: u8) -> Result<Self, WireError> {
                Ok(match tag {
                    $($tag => wire_enum!(@get d $ty $var $shape),)*
                    $(tag => $ty::$pass(Tagged::get_tagged(d, tag)?),)?
                    #[allow(unreachable_patterns)]
                    tag => return Err(WireError::UnknownTag(tag)),
                })
            }
        }
    };
    ($ty:ident { $($tag:literal => $var:ident $shape:tt,)* }) => {
        wire_enum!(@codec $ty [] $($tag $var $shape)*);
    };
    ($ty:ident { $($tag:literal $kind:literal => $var:ident $shape:tt,)* } else $pass:ident $pkind:literal) => {
        wire_enum!(@codec $ty [$pass] $($tag $var $shape)*);
        impl $ty {
            /// The frame's kind, for diagnostics.
            pub fn kind(&self) -> &'static str {
                match self {
                    $ty::$pass(_) => $pkind,
                    $($ty::$var { .. } => $kind,)*
                }
            }
        }
    };
}

// ---------------------------------------------------------------------
// The layouts
// ---------------------------------------------------------------------

wire_struct! {
    SubQueryMsg { qid, index, hops, origin, shortcut, prefix, rect, ball }
    QueryBall { radius, center }
    Entry { ring_key, obj, point }
    Member { index, addr }
    HistogramSummary { name, count, sum, max }
    QuerySummary {
        hops, splits, shared_paths, forwards, handoffs, refines, peels, answers,
        scanned, matched, returned, query_bytes, result_bytes,
    }
    StatsReport { counters, histograms, queries as Long, load }
}

wire_enum! {
    SearchMsg {
        0 => Route(subs),
        1 => Refine(sq),
        3 => Results { qid, hops, degraded, entries },
        5 => Issue(sq),
        6 => Publish { index, hops, entry },
        7 => Replicate { index, owner, entry },
        8 => Tracked { seq, dead, inner as Flat },
        9 => Ack { seq },
    }
}

wire_enum! {
    Frame {
        16 "hello" => Hello { role, index },
        17 "join-request" => JoinRequest { addr },
        18 "members" => Members { members },
        19 "error" => Error { reason },
        20 "client-publish" => ClientPublish { index, obj, point },
        21 "publish-ack" => PublishAck {},
        22 "client-query" => ClientQuery { qid, index, radius, center },
        23 "query-status" => QueryStatus { qid, seen },
        24 "query-report" => QueryReport { qid, responses, max_hops, degraded, merged },
        25 "stats-request" => StatsRequest {},
        26 "stats-report" => StatsReport(report),
        27 "members-request" => MembersRequest {},
        28 "shutdown" => Shutdown {},
        29 "shutdown-ack" => ShutdownAck {},
    } else Search "search"
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Append a complete frame — 4-byte little-endian length, tag, body —
/// to `out`. The body is encoded in place and the length back-patched,
/// so a caller that keeps its buffer pays no allocation per frame.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    frame.put(out);
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

/// Decode one frame body (tag + fields, no length prefix). The body must
/// be consumed exactly: leftover bytes are [`WireError::TrailingGarbage`].
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let Some((&tag, fields)) = body.split_first() else {
        return Err(WireError::EmptyFrame);
    };
    let mut d = Dec {
        buf: fields,
        pos: 0,
    };
    let frame = Frame::get_tagged(&mut d, tag)?;
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
        let mut body = vec![1u8]; // Refine
        (0u32, 0u8).put(&mut body); // qid, index
        (0u32, 0u64).put(&mut body); // hops, origin
        false.put(&mut body); // shortcut
        0xFFu64.put(&mut body); // key with low bits set
        8u32.put(&mut body); // len 8: key must be left-aligned
        assert!(matches!(
            decode_body(&body),
            Err(WireError::BadPrefix { .. })
        ));
        // A rect with lo > hi.
        let mut body = vec![1u8];
        sq(false).put(&mut body);
        // lo[0] sits after the tag, the fixed 30 bytes and the 2-byte dims.
        let lo_at = 1 + 4 + 1 + 4 + 8 + 1 + 12 + 2;
        body[lo_at..lo_at + 8].copy_from_slice(&9.0f64.to_le_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(WireError::BadRect { dim: 0 })
        ));
    }
}
