//! Properties of the per-query trace log (`simsearch::telemetry`):
//!
//! 1. **Lossless** — any sequence of events over all seven variants,
//!    with fields anywhere in their types' full ranges, decodes to
//!    exactly what was pushed.
//! 2. **One roll-up** — the summary folded from the log's bytes equals
//!    the summary of the decoded trace.
//! 3. **Lifecycle** — `begin_query` re-anchors a log's origin without
//!    touching its events, and `forget` ends a log so the next event on
//!    its qid starts a fresh one.
//! 4. **Node references** — a node field coded against the log's two
//!    most recent nodes round-trips whatever the pattern (repeats,
//!    alternation, a return to an older node, the origin named again),
//!    and never costs more than its varint.

use proptest::prelude::*;
use simnet::AgentId;
use simsearch::{QueryTrace, Telemetry, TraceEvent, TraceLog};

/// Values from `0..=u64::MAX`, with both ends and the varint length
/// boundaries (`2^s` and `2^s - 1`) drawn far more often than a uniform
/// draw would. Narrowed with `as`, the ends stay ends: `u64::MAX` becomes
/// `u32::MAX` and `usize::MAX`.
fn full() -> impl Strategy<Value = u64> {
    (0u8..5, any::<u64>(), 0u32..64).prop_map(|(pick, x, s)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << s,
        3 => (1 << s) - 1,
        _ => x,
    })
}

/// Any of the seven variants, every field drawn from [`full`].
fn event() -> impl Strategy<Value = TraceEvent> {
    let fields = (full(), full(), full(), full(), full(), full());
    (0u8..7, fields).prop_map(|(variant, (a, b, c, d, e, f))| {
        let (at, len) = (a as usize, b as u32);
        match variant {
            0 => TraceEvent::Forward {
                from: at,
                to: b as usize,
                subqueries: c as u32,
                bytes: d as u32,
            },
            1 => TraceEvent::Handoff {
                from: at,
                to: b as usize,
                bytes: c as u32,
            },
            2 => TraceEvent::SharedPath {
                at,
                prefix_len: len,
            },
            3 => TraceEvent::Split {
                at,
                prefix_len: len,
            },
            4 => TraceEvent::Refine {
                at,
                prefix_len: len,
            },
            5 => TraceEvent::Peel {
                at,
                prefix_len: len,
            },
            _ => TraceEvent::Answer {
                at,
                hops: len,
                scanned: c,
                matched: d,
                returned: e,
                bytes: f as u32,
            },
        }
    })
}

/// `e` with its node fields renamed: `at` or `from` to `x`, `to` to `y`.
fn naming(e: TraceEvent, x: usize, y: usize) -> TraceEvent {
    use TraceEvent as E;
    match e {
        E::Forward {
            subqueries, bytes, ..
        } => E::Forward {
            from: x,
            to: y,
            subqueries,
            bytes,
        },
        E::Handoff { bytes, .. } => E::Handoff {
            from: x,
            to: y,
            bytes,
        },
        E::SharedPath { prefix_len, .. } => E::SharedPath { at: x, prefix_len },
        E::Split { prefix_len, .. } => E::Split { at: x, prefix_len },
        E::Refine { prefix_len, .. } => E::Refine { at: x, prefix_len },
        E::Peel { prefix_len, .. } => E::Peel { at: x, prefix_len },
        E::Answer {
            hops,
            scanned,
            matched,
            returned,
            bytes,
            ..
        } => E::Answer {
            at: x,
            hops,
            scanned,
            matched,
            returned,
            bytes,
        },
    }
}

/// The bytes `events` take with every node field as a varint: the
/// coding without references to recent nodes.
fn literal_len(events: &[TraceEvent]) -> usize {
    let varint = |v: u64| (64 - v.leading_zeros() as usize).div_ceil(7).max(1);
    events
        .iter()
        .map(|e| {
            let serde_json::Value::Object(fields) = e.to_json() else {
                unreachable!("an event's JSON is an object");
            };
            let ints = fields.values().filter_map(serde_json::Value::as_u64);
            1 + ints.map(varint).sum::<usize>()
        })
        .sum()
}

fn log_of(origin: usize, events: &[TraceEvent]) -> TraceLog {
    let mut log = TraceLog::default();
    log.origin = origin;
    for e in events {
        log.push(e);
    }
    log
}

proptest! {
    #[test]
    fn decoded_events_equal_pushed_events(
        origin in full().prop_map(|o| o as usize),
        events in prop::collection::vec(event(), 0..64),
    ) {
        let log = log_of(origin, &events);
        prop_assert_eq!(log.events().collect::<Vec<_>>(), events.clone());
        let trace = log.to_trace();
        prop_assert_eq!(trace.origin, origin);
        prop_assert_eq!(trace.events, events);
    }

    #[test]
    fn node_references_round_trip_in_any_pattern(
        origin in full().prop_map(|o| o as usize),
        others in (full(), full()),
        steps in prop::collection::vec((event(), 0usize..4, 0usize..4), 0..96),
    ) {
        // Four nodes: the origin, two others and the top of the range.
        // Drawing every node field from them makes repeats, A-B-A-B
        // alternation and returns to a node three names back common.
        let nodes = [origin, others.0 as usize, others.1 as usize, usize::MAX];
        let events: Vec<TraceEvent> = steps
            .into_iter()
            .map(|(e, x, y)| naming(e, nodes[x], nodes[y]))
            .collect();
        let log = log_of(origin, &events);
        prop_assert_eq!(log.to_trace().events, events.clone());
        prop_assert!(log.byte_len() <= literal_len(&events));
    }

    #[test]
    fn log_summary_equals_decoded_trace_summary(
        events in prop::collection::vec(event(), 0..64),
    ) {
        // Sums of full-range u64 fields would overflow, so the roll-up
        // is compared on the low end of every range only.
        let events: Vec<TraceEvent> = events
            .into_iter()
            .map(|e| match e {
                TraceEvent::Answer { at, hops, scanned, matched, returned, bytes } => {
                    TraceEvent::Answer {
                        at,
                        hops,
                        scanned: scanned >> 8,
                        matched: matched >> 8,
                        returned: returned >> 8,
                        bytes,
                    }
                }
                e => e,
            })
            .collect();
        let log = log_of(0, &events);
        let trace = QueryTrace { origin: 0, events };
        prop_assert_eq!(log.summary(), trace.summary());
    }
}

#[test]
fn an_event_at_the_top_of_every_range_costs_its_full_varints() {
    let log = log_of(
        0,
        &[TraceEvent::Answer {
            at: usize::MAX,
            hops: u32::MAX,
            scanned: u64::MAX,
            matched: u64::MAX,
            returned: u64::MAX,
            bytes: u32::MAX,
        }],
    );
    // Tag, then ceil(64/7) = 10 bytes per 64-bit field and 5 per u32.
    let usize_bytes = (usize::BITS as usize).div_ceil(7);
    assert_eq!(log.byte_len(), 1 + usize_bytes + 5 + 3 * 10 + 5);
    let small = log_of(
        0,
        &[TraceEvent::Split {
            at: 3,
            prefix_len: 9,
        }],
    );
    assert_eq!(small.byte_len(), 3);
}

#[test]
fn a_node_named_in_the_last_two_references_costs_no_byte() {
    let split = |at| TraceEvent::Split { at, prefix_len: 1 };
    let hop = |from, to| TraceEvent::Forward {
        from,
        to,
        subqueries: 1,
        bytes: 100,
    };
    // Node 700 is a two-byte varint; the log starts knowing only node 0.
    let first = log_of(9, &[split(700)]);
    assert_eq!(first.byte_len(), 1 + 2 + 1);
    // Named again, it is the most recent: tag and prefix length only.
    let again = log_of(9, &[split(700), split(700)]);
    assert_eq!(again.byte_len(), first.byte_len() + 2);
    // Hops back and forth between 700 and 300 name the second most
    // recent node twice per event after the first hop.
    let events = [hop(700, 300), hop(300, 700), hop(700, 300), split(300)];
    let log = log_of(9, &events);
    assert_eq!(log.byte_len(), (1 + 2 + 2 + 1 + 1) + 2 * (1 + 1 + 1) + 2);
    assert_eq!(log.to_trace().events, events);
    // A third node pushes the oldest out: 700 costs its varint again.
    let events = [split(700), split(300), split(5), split(700)];
    assert_eq!(log_of(9, &events).byte_len(), 4 + 4 + 3 + 4);
}

#[test]
fn begin_query_re_anchors_the_origin_and_keeps_the_events() {
    let t = Telemetry::new();
    t.begin_query(5, AgentId(1));
    t.lock().push(
        5,
        &TraceEvent::Split {
            at: 1,
            prefix_len: 2,
        },
    );
    t.begin_query(5, AgentId(7));
    let trace = t.trace(5).unwrap();
    assert_eq!(trace.origin, 7);
    assert_eq!(
        trace.events,
        vec![TraceEvent::Split {
            at: 1,
            prefix_len: 2
        }]
    );
}

#[test]
fn forget_then_record_starts_a_fresh_log() {
    let t = Telemetry::new();
    t.begin_query(5, AgentId(4));
    t.lock().push(
        5,
        &TraceEvent::Split {
            at: 4,
            prefix_len: 1,
        },
    );
    t.forget(5);
    assert!(t.trace(5).is_none());
    let peel = TraceEvent::Peel {
        at: 2,
        prefix_len: 6,
    };
    t.lock().push(5, &peel);
    let trace = t.trace(5).unwrap();
    assert_eq!(
        trace.origin, 0,
        "a fresh log has no origin until begin_query"
    );
    assert_eq!(trace.events, vec![peel]);
    assert_eq!(t.lock().traces[&5], log_of(0, &[peel]));
}
