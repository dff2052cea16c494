//! Codec tests: proptest round-trips over every message variant,
//! malformed-input rejection (errors, never panics), and byte goldens
//! that pin the encoding of one fixed instance of every frame kind. The
//! §4.1 price of a message is `simsearch::msg::msg_bytes`, not the
//! codec's concern.
//!
//! The vendored proptest stand-in has no combinators beyond `prop_map`,
//! so the generators here are written directly against its [`TestRng`]
//! and wrapped in one tiny function-pointer [`Strategy`].

use lph::{Prefix, Rect};
use metric::ObjectId;
use node::wire::{
    decode_body, decode_frame, encode_frame, read_frame, Frame, HistogramSummary, Member, Role,
    StatsReport, WireError, MAX_FRAME_BYTES,
};
use proptest::prelude::*;
use proptest::TestRng;
use simnet::AgentId;
use simsearch::msg::{QueryBall, SearchMsg, SubQueryMsg};
use simsearch::store::Entry;
use simsearch::telemetry::QuerySummary;

/// Adapter: any `fn(&mut TestRng) -> T` is a strategy.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn usize_below(rng: &mut TestRng, bound: usize) -> usize {
    rng.below_u128(bound as u128) as usize
}

fn coord(rng: &mut TestRng) -> f64 {
    (rng.unit_f64() - 0.5) * 2.0e6
}

fn point(rng: &mut TestRng, dims: usize) -> Vec<f64> {
    (0..dims).map(|_| coord(rng)).collect()
}

fn gen_prefix(rng: &mut TestRng) -> Prefix {
    let len = rng.below_u128(65) as u32;
    Prefix::of_key(rng.next_u64(), len)
}

fn gen_rect(rng: &mut TestRng) -> Rect {
    let dims = 1 + usize_below(rng, 3);
    let a = point(rng, dims);
    let b = point(rng, dims);
    let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
    let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
    Rect::new(lo, hi)
}

fn gen_subquery(rng: &mut TestRng) -> SubQueryMsg {
    let ball = if rng.next_u64().is_multiple_of(2) {
        Some(QueryBall {
            center: point(rng, 3).into(),
            radius: rng.unit_f64() * 10.0,
        })
    } else {
        None
    };
    SubQueryMsg {
        qid: rng.next_u64() as u32,
        index: (rng.next_u64() % 4) as u8,
        rect: gen_rect(rng),
        prefix: gen_prefix(rng),
        hops: rng.next_u64() as u32,
        origin: AgentId(usize_below(rng, 1000)),
        ball,
        shortcut: rng.next_u64().is_multiple_of(2),
    }
}

fn gen_entry(rng: &mut TestRng) -> Entry {
    Entry {
        ring_key: rng.next_u64(),
        obj: ObjectId(rng.next_u64() as u32),
        point: point(rng, 3).into_boxed_slice(),
    }
}

fn gen_ranked(rng: &mut TestRng) -> Vec<(ObjectId, f64)> {
    (0..usize_below(rng, 8))
        .map(|_| (ObjectId(rng.next_u64() as u32), rng.unit_f64() * 100.0))
        .collect()
}

/// One of the seven non-tracked `SearchMsg` variants.
fn gen_flat_search(rng: &mut TestRng) -> SearchMsg {
    match rng.next_u64() % 7 {
        0 => SearchMsg::Route(
            (0..usize_below(rng, 4))
                .map(|_| gen_subquery(rng))
                .collect(),
        ),
        1 => SearchMsg::Refine(gen_subquery(rng)),
        2 => SearchMsg::Results {
            qid: rng.next_u64() as u32,
            hops: rng.next_u64() as u32,
            entries: gen_ranked(rng),
            degraded: rng.next_u64().is_multiple_of(2),
        },
        3 => SearchMsg::Issue(gen_subquery(rng)),
        4 => SearchMsg::Publish {
            index: (rng.next_u64() % 4) as u8,
            entry: gen_entry(rng),
            hops: rng.next_u64() as u32,
        },
        5 => SearchMsg::Replicate {
            index: (rng.next_u64() % 4) as u8,
            owner: rng.next_u64(),
            entry: gen_entry(rng),
        },
        _ => SearchMsg::Ack {
            seq: rng.next_u64(),
        },
    }
}

/// All eight variants; `Tracked` wraps a non-tracked inner message, as
/// the protocol produces.
fn gen_search(rng: &mut TestRng) -> SearchMsg {
    if rng.next_u64().is_multiple_of(10) {
        SearchMsg::Tracked {
            seq: rng.next_u64(),
            dead: (0..usize_below(rng, 4)).map(|_| rng.next_u64()).collect(),
            inner: Box::new(gen_flat_search(rng)),
        }
    } else {
        gen_flat_search(rng)
    }
}

fn gen_summary(rng: &mut TestRng) -> QuerySummary {
    QuerySummary {
        hops: rng.next_u64() as u32,
        splits: rng.next_u64() as u32,
        shared_paths: rng.next_u64() as u32,
        forwards: rng.next_u64() as u32,
        handoffs: rng.next_u64() as u32,
        refines: rng.next_u64() as u32,
        peels: rng.next_u64() as u32,
        answers: rng.next_u64() as u32,
        scanned: rng.next_u64(),
        matched: rng.next_u64(),
        returned: rng.next_u64(),
        query_bytes: rng.next_u64(),
        result_bytes: rng.next_u64(),
    }
}

fn gen_string(rng: &mut TestRng) -> String {
    let alphabet: Vec<char> = "abcxyz0189.:-/ é✓".chars().collect();
    (0..usize_below(rng, 20))
        .map(|_| alphabet[usize_below(rng, alphabet.len())])
        .collect()
}

fn gen_members(rng: &mut TestRng) -> Vec<Member> {
    (0..usize_below(rng, 5))
        .map(|_| Member {
            index: rng.next_u64(),
            addr: gen_string(rng),
        })
        .collect()
}

/// Every control frame kind.
fn gen_control(rng: &mut TestRng) -> Frame {
    match rng.next_u64() % 14 {
        0 => Frame::Hello {
            role: if rng.next_u64().is_multiple_of(2) {
                Role::Peer
            } else {
                Role::Client
            },
            index: rng.next_u64(),
        },
        1 => Frame::JoinRequest {
            addr: gen_string(rng),
        },
        2 => Frame::Members {
            members: gen_members(rng),
        },
        3 => Frame::Error {
            reason: gen_string(rng),
        },
        4 => Frame::ClientPublish {
            index: (rng.next_u64() % 4) as u8,
            obj: rng.next_u64() as u32,
            point: point(rng, 3),
        },
        5 => Frame::PublishAck,
        6 => Frame::ClientQuery {
            qid: rng.next_u64() as u32,
            index: (rng.next_u64() % 4) as u8,
            center: point(rng, 3),
            radius: rng.unit_f64() * 10.0,
        },
        7 => Frame::QueryStatus {
            qid: rng.next_u64() as u32,
            seen: rng.next_u64() as u32,
        },
        8 => Frame::QueryReport {
            qid: rng.next_u64() as u32,
            responses: rng.next_u64() as u32,
            max_hops: rng.next_u64() as u32,
            degraded: rng.next_u64().is_multiple_of(2),
            merged: (0..usize_below(rng, 6))
                .map(|_| (rng.next_u64() as u32, rng.unit_f64() * 10.0))
                .collect(),
        },
        9 => Frame::StatsRequest,
        10 => Frame::StatsReport(StatsReport {
            counters: (0..usize_below(rng, 5))
                .map(|_| (gen_string(rng), rng.next_u64()))
                .collect(),
            histograms: (0..usize_below(rng, 4))
                .map(|_| HistogramSummary {
                    name: gen_string(rng),
                    count: rng.next_u64(),
                    sum: rng.next_u64(),
                    max: rng.next_u64(),
                })
                .collect(),
            queries: (0..usize_below(rng, 4))
                .map(|_| (rng.next_u64() as u32, gen_summary(rng)))
                .collect(),
            load: rng.next_u64(),
        }),
        11 => Frame::MembersRequest,
        12 => Frame::Shutdown,
        _ => Frame::ShutdownAck,
    }
}

fn gen_frame(rng: &mut TestRng) -> Frame {
    if rng.next_u64() % 5 < 2 {
        Frame::Search(gen_search(rng))
    } else {
        gen_control(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Encode → decode → re-encode is the identity on bytes, for every
    /// protocol and control variant; the streaming reader agrees.
    #[test]
    fn roundtrip_all_variants(frame in Gen(gen_frame)) {
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes)
            .expect("well-formed frame must decode")
            .expect("complete frame must not be 'incomplete'");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(encode_frame(&decoded), bytes.clone());
        let mut cursor = std::io::Cursor::new(&bytes);
        let via_reader = read_frame(&mut cursor)
            .expect("reader accepts the frame")
            .expect("reader sees a frame, not EOF");
        prop_assert_eq!(encode_frame(&via_reader), bytes);
    }

    /// Every strict prefix of a frame body fails to decode with an
    /// error — never a panic, never a bogus success.
    #[test]
    fn truncation_is_an_error(frame in Gen(gen_frame)) {
        let bytes = encode_frame(&frame);
        let body = &bytes[4..];
        for cut in 0..body.len() {
            prop_assert!(decode_body(&body[..cut]).is_err());
        }
    }

    /// A frame body with bytes appended is trailing garbage.
    #[test]
    fn trailing_garbage_is_an_error(frame in Gen(gen_frame), extra in 1usize..5) {
        let bytes = encode_frame(&frame);
        let mut body = bytes[4..].to_vec();
        body.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(matches!(
            decode_body(&body),
            Err(WireError::TrailingGarbage { .. })
        ));
    }
}

// ------------------------------------------------------------------
// Byte goldens: the wire format, pinned
// ------------------------------------------------------------------

fn golden_sub(ball: bool) -> SubQueryMsg {
    SubQueryMsg {
        qid: 7,
        index: 1,
        rect: Rect::new(vec![0.25, 0.5], vec![0.75, 1.0]),
        prefix: Prefix::of_key(0xA000_0000_0000_0000, 3),
        hops: 2,
        origin: AgentId(5),
        ball: ball.then(|| QueryBall {
            center: vec![0.5, 0.75].into(),
            radius: 0.25,
        }),
        shortcut: true,
    }
}

fn golden_entry() -> Entry {
    Entry {
        ring_key: 0x0123_4567_89AB_CDEF,
        obj: ObjectId(42),
        point: vec![0.5, -1.0].into_boxed_slice(),
    }
}

/// One fixed instance of every `SearchMsg` variant and every control
/// frame, with its complete encoding (length prefix included) as hex.
/// Covers a sub-query with and without a ball, and `Tracked` around a
/// `Refine`.
fn golden_frames() -> Vec<(Frame, &'static str)> {
    let search = |m: SearchMsg| Frame::Search(m);
    vec![
        (
            search(SearchMsg::Route(vec![golden_sub(true), golden_sub(false)])),
            "9f00000000020007000000010200000005000000000000000100000000000000
             a0030000000200000000000000d03f000000000000e03f000000000000e83f00
             0000000000f03f01000000000000d03f0200000000000000e03f000000000000
             e83f07000000010200000005000000000000000100000000000000a003000000
             0200000000000000d03f000000000000e03f000000000000e83f000000000000
             f03f00",
        ),
        (
            search(SearchMsg::Refine(golden_sub(true))),
            "5c0000000107000000010200000005000000000000000100000000000000a003
             0000000200000000000000d03f000000000000e03f000000000000e83f000000
             000000f03f01000000000000d03f0200000000000000e03f000000000000e83f",
        ),
        (
            search(SearchMsg::Results {
                qid: 9,
                hops: 3,
                entries: vec![(ObjectId(1), 0.5), (ObjectId(2), 1.5)],
                degraded: true,
            }),
            "2400000003090000000300000001020001000000000000000000e03f02000000
             000000000000f83f",
        ),
        (
            search(SearchMsg::Issue(golden_sub(true))),
            "5c0000000507000000010200000005000000000000000100000000000000a003
             0000000200000000000000d03f000000000000e03f000000000000e83f000000
             000000f03f01000000000000d03f0200000000000000e03f000000000000e83f",
        ),
        (
            search(SearchMsg::Publish {
                index: 0,
                entry: golden_entry(),
                hops: 4,
            }),
            "24000000060004000000efcdab89674523012a0000000200000000000000e03f
             000000000000f0bf",
        ),
        (
            search(SearchMsg::Replicate {
                index: 1,
                owner: 77,
                entry: golden_entry(),
            }),
            "2800000007014d00000000000000efcdab89674523012a000000020000000000
             0000e03f000000000000f0bf",
        ),
        (
            search(SearchMsg::Tracked {
                seq: 5,
                dead: vec![3, 8],
                inner: Box::new(SearchMsg::Refine(golden_sub(false))),
            }),
            "5d00000008050000000000000002000300000000000000080000000000000001
             07000000010200000005000000000000000100000000000000a0030000000200
             000000000000d03f000000000000e03f000000000000e83f000000000000f03f
             00",
        ),
        (
            search(SearchMsg::Ack { seq: 6 }),
            "09000000090600000000000000",
        ),
        (
            Frame::Hello {
                role: Role::Client,
                index: 11,
            },
            "0a00000010010b00000000000000",
        ),
        (
            Frame::JoinRequest {
                addr: "127.0.0.1:9000".into(),
            },
            "11000000110e003132372e302e302e313a39303030",
        ),
        (
            Frame::Members {
                members: vec![
                    Member {
                        index: 0,
                        addr: "a:1".into(),
                    },
                    Member {
                        index: 1,
                        addr: "b:2".into(),
                    },
                ],
            },
            "1d00000012020000000000000000000300613a3101000000000000000300623a
             32",
        ),
        (
            Frame::Error {
                reason: "bad".into(),
            },
            "06000000130300626164",
        ),
        (
            Frame::ClientPublish {
                index: 0,
                obj: 3,
                point: vec![0.5, 0.25],
            },
            "180000001400030000000200000000000000e03f000000000000d03f",
        ),
        (Frame::PublishAck, "0100000015"),
        (
            Frame::ClientQuery {
                qid: 5,
                index: 0,
                center: vec![0.125, 0.875],
                radius: 0.0625,
            },
            "20000000160500000000000000000000b03f0200000000000000c03f00000000
             0000ec3f",
        ),
        (
            Frame::QueryStatus { qid: 5, seen: 2 },
            "09000000170500000002000000",
        ),
        (
            Frame::QueryReport {
                qid: 5,
                responses: 2,
                max_hops: 3,
                degraded: false,
                merged: vec![(1, 0.5)],
            },
            "1c0000001805000000020000000300000000010001000000000000000000e03f",
        ),
        (Frame::StatsRequest, "0100000019"),
        (
            Frame::StatsReport(StatsReport {
                counters: vec![("a".into(), 1)],
                histograms: vec![HistogramSummary {
                    name: "h".into(),
                    count: 2,
                    sum: 3,
                    max: 4,
                }],
                queries: vec![(
                    5,
                    QuerySummary {
                        hops: 1,
                        splits: 2,
                        shared_paths: 3,
                        forwards: 4,
                        handoffs: 5,
                        refines: 6,
                        peels: 7,
                        answers: 8,
                        scanned: 9,
                        matched: 10,
                        returned: 11,
                        query_bytes: 12,
                        result_bytes: 13,
                    },
                )],
                load: 9,
            }),
            "830000001a010001006101000000000000000100010068020000000000000003
             0000000000000004000000000000000100000005000000010000000200000003
             000000040000000500000006000000070000000800000009000000000000000a
             000000000000000b000000000000000c000000000000000d0000000000000009
             00000000000000",
        ),
        (Frame::MembersRequest, "010000001b"),
        (Frame::Shutdown, "010000001c"),
        (Frame::ShutdownAck, "010000001d"),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every frame encodes to exactly its pinned bytes, and decodes back to
/// a frame that re-encodes to them.
#[test]
fn every_frame_matches_its_pinned_bytes() {
    let frames = golden_frames();
    assert_eq!(frames.len(), 22, "eight search variants, fourteen controls");
    for (frame, want) in &frames {
        let bytes = encode_frame(frame);
        let want: String = want.split_whitespace().collect();
        assert_eq!(hex(&bytes), want, "{} frame's bytes moved", frame.kind());
        let (back, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(
            encode_frame(&back),
            bytes,
            "{} re-encode differs",
            frame.kind()
        );
    }
}

// ------------------------------------------------------------------
// Deterministic malformed-input cases
// ------------------------------------------------------------------

#[test]
fn oversized_length_prefix_is_rejected_by_the_reader() {
    let mut bytes = (MAX_FRAME_BYTES + 7).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 16]);
    let mut cursor = std::io::Cursor::new(&bytes);
    let err = read_frame(&mut cursor).expect_err("oversized prefix must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("oversized length prefix"));
}

#[test]
fn eof_mid_frame_is_a_described_error() {
    let bytes = encode_frame(&Frame::StatsRequest);
    // Header promises 1 body byte; deliver none.
    let mut cursor = std::io::Cursor::new(&bytes[..4]);
    let err = read_frame(&mut cursor).expect_err("EOF mid-frame must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    // Cut inside the header.
    let mut cursor = std::io::Cursor::new(&bytes[..2]);
    let err = read_frame(&mut cursor).expect_err("EOF mid-header must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    // Clean EOF before any byte is fine.
    let mut cursor = std::io::Cursor::new(&[] as &[u8]);
    assert!(read_frame(&mut cursor).expect("clean EOF is ok").is_none());
}

#[test]
fn unknown_and_reserved_tags_are_errors() {
    for tag in [2u8, 4, 10, 15, 30, 200, 255] {
        assert!(
            matches!(decode_body(&[tag]), Err(WireError::UnknownTag(t)) if t == tag),
            "tag {tag} must be rejected"
        );
    }
    assert!(matches!(decode_body(&[]), Err(WireError::EmptyFrame)));
}

#[test]
fn bad_utf8_in_strings_is_an_error() {
    // JoinRequest with a 2-byte string that is not UTF-8.
    let body = [17u8, 2, 0, 0xFF, 0xFE];
    assert!(matches!(decode_body(&body), Err(WireError::BadUtf8 { .. })));
}

#[test]
fn deep_tracked_nesting_is_bounded() {
    // Hand-roll two nested Tracked envelopes around an Ack: the protocol
    // never nests them, so the decoder refuses the inner one instead of
    // following a hostile frame down.
    let mut body = vec![9u8];
    body.extend_from_slice(&7u64.to_le_bytes()); // Ack { seq: 7 }
    for _ in 0..2 {
        let mut outer = vec![8u8]; // Tracked
        outer.extend_from_slice(&1u64.to_le_bytes()); // seq
        outer.extend_from_slice(&0u16.to_le_bytes()); // empty dead list
        outer.extend_from_slice(&body);
        body = outer;
    }
    assert!(matches!(decode_body(&body), Err(WireError::TooDeep)));
}

#[test]
fn nan_coordinates_roundtrip_bit_exactly() {
    let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF); // NaN with payload
    let frame = Frame::ClientPublish {
        index: 0,
        obj: 1,
        point: vec![weird, f64::NEG_INFINITY, -0.0],
    };
    let bytes = encode_frame(&frame);
    let (decoded, _) = decode_frame(&bytes).unwrap().unwrap();
    match decoded {
        Frame::ClientPublish { point, .. } => {
            assert_eq!(point[0].to_bits(), weird.to_bits());
            assert_eq!(point[1], f64::NEG_INFINITY);
            assert_eq!(point[2].to_bits(), (-0.0f64).to_bits());
        }
        other => panic!("decoded into {}", other.kind()),
    }
}
