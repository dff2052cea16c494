//! Algorithms 3–5: range-query resolving and routing on the embedded tree.
//!
//! These are pure functions over a node's routing table and an index
//! grid; the network layer ([`crate::node`]) turns the returned
//! [`Action`]s into messages. Keeping them pure lets the coverage
//! invariant — *every published entry matching a query region is answered
//! by exactly the node that owns it, no matter where the query starts* —
//! be property-tested against a brute-force oracle without a simulator
//! (see `tests/coverage.rs`).
//!
//! The flow, following the paper:
//!
//! * **QueryRouting** ([`route_subquery`], Algorithm 3): descend the
//!   query's prefix while it stays inside one half (Algorithm 4's
//!   recursive refinement), split it once it straddles a division, and
//!   only send two messages when the two halves take *different* next
//!   hops — otherwise keep the query whole and forward it down the shared
//!   path of the embedded tree.
//! * **SurrogateRefine** ([`surrogate_refine`], Algorithm 5): at the node
//!   owning the query's `prefix_key`, peel off the sub-cuboids whose key
//!   ranges exceed the node's identifier (walking the node id's 0-bits)
//!   and re-route them; answer the remainder locally.

use chord::RouteDecision;
use lph::{Grid, Prefix, Rotation, SubQuery};

use crate::msg::SubQueryMsg;
use crate::overlay::OverlayTable;

/// What a node must do as the outcome of local routing/refinement.
#[derive(Clone, Debug)]
pub enum Action {
    /// Answer this fragment from the local store and reply to the origin.
    Answer(SubQueryMsg),
    /// Hand the fragment to the immediate successor, who owns its
    /// `prefix_key` (the paper's `Successor.SurrogateRefine(sq)`).
    Handoff {
        /// The surrogate's network address.
        to: simnet::AgentId,
        /// The fragment.
        sq: SubQueryMsg,
    },
    /// Forward the fragment along the DHT links (`N.QueryRouting(sq)`).
    Forward {
        /// The next hop's network address.
        to: simnet::AgentId,
        /// The fragment.
        sq: SubQueryMsg,
    },
}

/// A routing decision worth recording: emitted through the observer sink
/// of the `*_traced` entry points so the telemetry layer can count splits
/// and kept-together shared paths without the pure functions knowing
/// anything about clocks or registries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingEvent {
    /// Algorithm 4 split the query: the two halves part ways.
    Split {
        /// Prefix length of the parent cuboid at the split.
        prefix_len: u32,
    },
    /// The two halves shared their next hop: kept whole (no split).
    SharedPath {
        /// Prefix length of the descended common parent.
        prefix_len: u32,
    },
    /// This node owns the fragment's prefix key and refines it locally.
    LocalRefine {
        /// Prefix length of the fragment on arrival.
        prefix_len: u32,
    },
    /// Algorithm 5 peeled a sub-cuboid off the surrogate's range and sent
    /// it back onto the DHT links.
    RefinePeel {
        /// Prefix length of the peeled cuboid.
        prefix_len: u32,
    },
}

/// The observer the `*_traced` routing functions report to.
pub type RoutingSink<'a> = &'a mut dyn FnMut(RoutingEvent);

/// Result of Algorithm 4's recursive descent from a subquery's current
/// prefix: either the query fits a single deepest cuboid (no split
/// needed up to full depth), or it straddles a division — then we have
/// the deepened common parent and the two halves.
enum Descent {
    Leaf(SubQuery),
    Split {
        parent: SubQuery,
        lower: SubQuery,
        upper: SubQuery,
    },
}

/// Algorithm 4 with the paper's recursive refinement: descend while the
/// region lies in one half; stop at the first straddling division (or at
/// full depth).
fn descend_and_split(grid: &Grid, sq: SubQuery) -> Descent {
    let mut q = sq;
    loop {
        if q.prefix.len() == grid.depth() {
            return Descent::Leaf(q);
        }
        match grid.split(&q) {
            (a, None) => q = a,
            (lower, Some(upper)) => {
                return Descent::Split {
                    parent: q,
                    lower,
                    upper,
                }
            }
        }
    }
}

/// The address a key would be sent to next from this node — the paper's
/// `nexthop` (footnote 4), used only to decide whether two subqueries
/// share their next hop. The node itself is returned when it owns the
/// key or precedes it directly.
fn hop_target<T: OverlayTable + ?Sized>(table: &T, ring_key: u64) -> simnet::AgentId {
    match table.decide(chord::ChordId(ring_key)) {
        RouteDecision::Local => table.me_ref().addr,
        RouteDecision::Surrogate(s) => s.addr,
        RouteDecision::Forward(n) => n.addr,
    }
}

fn with_geometry(msg: &SubQueryMsg, geo: SubQuery) -> SubQueryMsg {
    SubQueryMsg {
        rect: geo.rect,
        prefix: geo.prefix,
        ..msg.clone()
    }
}

/// Algorithm 3 — `QueryRouting`.
///
/// Dispatch one subquery from this node: refine its prefix, split it if
/// (and only if) its halves part ways on the embedded tree, then route
/// each piece — answering locally / handing to the surrogate / forwarding
/// along the DHT links. `split` disables the progressive refinement for
/// the naive baseline (the fragment is routed as-is).
pub fn route_subquery<T: OverlayTable + ?Sized>(
    table: &T,
    grid: &Grid,
    rot: Rotation,
    sq: SubQueryMsg,
    split: bool,
) -> Vec<Action> {
    route_subquery_traced(table, grid, rot, sq, split, &mut |_| {})
}

/// [`route_subquery`] with an observer: every split / kept-shared-path /
/// local-refine / peel decision is reported through `sink`.
pub fn route_subquery_traced<T: OverlayTable + ?Sized>(
    table: &T,
    grid: &Grid,
    rot: Rotation,
    sq: SubQueryMsg,
    split: bool,
    sink: RoutingSink<'_>,
) -> Vec<Action> {
    let mut out = Vec::new();
    let mut work: Vec<SubQueryMsg> = Vec::with_capacity(2);
    if !split || sq.prefix.len() == grid.depth() {
        work.push(sq);
    } else {
        let geo = SubQuery {
            rect: sq.rect.clone(),
            prefix: sq.prefix,
        };
        match descend_and_split(grid, geo) {
            Descent::Leaf(q) => work.push(with_geometry(&sq, q)),
            Descent::Split {
                parent,
                lower,
                upper,
            } => {
                let n1 = hop_target(table, rot.to_ring(lower.prefix.key()));
                let n2 = hop_target(table, rot.to_ring(upper.prefix.key()));
                if n1 == n2 {
                    // Shared path: keep the query whole (the descended
                    // common parent) — one message instead of two.
                    sink(RoutingEvent::SharedPath {
                        prefix_len: parent.prefix.len(),
                    });
                    work.push(with_geometry(&sq, parent));
                } else {
                    sink(RoutingEvent::Split {
                        prefix_len: parent.prefix.len(),
                    });
                    work.push(with_geometry(&sq, lower));
                    work.push(with_geometry(&sq, upper));
                }
            }
        }
    }
    for q in work {
        let ring_key = chord::ChordId(rot.to_ring(q.prefix.key()));
        match table.decide(ring_key) {
            RouteDecision::Local => {
                // This node owns the prefix key: refine right here.
                sink(RoutingEvent::LocalRefine {
                    prefix_len: q.prefix.len(),
                });
                out.extend(surrogate_refine_traced(
                    table, grid, rot, q, split, &mut *sink,
                ));
            }
            // A table may name *us* as the surrogate (stale entries, or
            // failure-aware fallback when we are the only live node). A
            // hand-off to ourselves would be a wire message to nowhere —
            // refine locally instead.
            RouteDecision::Surrogate(s) if s.addr == table.me_ref().addr => {
                sink(RoutingEvent::LocalRefine {
                    prefix_len: q.prefix.len(),
                });
                out.extend(surrogate_refine_traced(
                    table, grid, rot, q, split, &mut *sink,
                ));
            }
            RouteDecision::Surrogate(s) => out.push(Action::Handoff { to: s.addr, sq: q }),
            // Same audit for forwards: never emit a message to self.
            RouteDecision::Forward(n) if n.addr == table.me_ref().addr => {
                sink(RoutingEvent::LocalRefine {
                    prefix_len: q.prefix.len(),
                });
                out.extend(surrogate_refine_traced(
                    table, grid, rot, q, split, &mut *sink,
                ));
            }
            RouteDecision::Forward(n) => out.push(Action::Forward { to: n.addr, sq: q }),
        }
    }
    out
}

/// First 0-bit position of `id` in bit positions `from..=to` (1-based
/// from the most significant bit), or `None`.
fn first_zero_bit(id: u64, from: u32, to: u32) -> Option<u32> {
    (from..=to).find(|&pos| (id >> (64 - pos)) & 1 == 0)
}

/// Algorithm 5 — `SurrogateRefine`.
///
/// Precondition: this node owns `sq.prefix`'s key (it is the successor of
/// the rotated prefix key). The node's identifier — in *index-space
/// coordinates*, i.e. un-rotated — is compared bitwise against the query
/// prefix to find which sub-cuboids fall past the node's range and must
/// travel on.
///
/// The node *answers the full incoming region once* against its local
/// store ("solve q locally" in the paper). Answering the uncut region is
/// both safe (the store only holds entries this node owns, so nothing
/// foreign can be returned, and the origin deduplicates by object) and
/// necessary: the peeled cut-outs below are cut only at the divisions
/// where the node id has a 0 bit, so regions straddling the id's 1-bit
/// divisions stay attached to the cut-outs geometrically even though
/// their entries live *here* — a fragment-granularity answer would
/// silently drop them (a coverage hole our `tests/coverage.rs` oracle
/// catches).
pub fn surrogate_refine<T: OverlayTable + ?Sized>(
    table: &T,
    grid: &Grid,
    rot: Rotation,
    sq: SubQueryMsg,
    split: bool,
) -> Vec<Action> {
    surrogate_refine_traced(table, grid, rot, sq, split, &mut |_| {})
}

/// [`surrogate_refine`] with an observer: every peel sent back onto the
/// DHT links (and every decision of the re-routing it triggers) is
/// reported through `sink`.
pub fn surrogate_refine_traced<T: OverlayTable + ?Sized>(
    table: &T,
    grid: &Grid,
    rot: Rotation,
    sq: SubQueryMsg,
    split: bool,
    sink: RoutingSink<'_>,
) -> Vec<Action> {
    let me_eff = rot.from_ring(table.me_ref().id.0);
    let mut out = vec![Action::Answer(sq.clone())];
    refine_rec(table, grid, rot, me_eff, sq, split, &mut out, sink);
    out
}

#[allow(clippy::too_many_arguments)]
fn refine_rec<T: OverlayTable + ?Sized>(
    table: &T,
    grid: &Grid,
    rot: Rotation,
    me_eff: u64,
    sq: SubQueryMsg,
    split: bool,
    out: &mut Vec<Action>,
    sink: RoutingSink<'_>,
) {
    let plen = sq.prefix.len();
    // Line 1: if the node id leaves the query cuboid's prefix, the whole
    // cuboid's key range ends before the node — fully covered by the
    // answer already emitted; nothing to peel.
    if Prefix::of_key(me_eff, plen) != sq.prefix {
        return;
    }
    // Lines 5–8: find the first 0 bit of the id past the prefix; if all
    // remaining bits are 1 the node is the cuboid's last key — fully
    // covered too.
    let Some(j) = first_zero_bit(me_eff, plen + 1, grid.depth()) else {
        return;
    };
    // Lines 10–12: deepen the prefix to the id's first j-1 bits (all 1s
    // past plen) and split at division j, where the id has its 0.
    let parent = SubQuery {
        rect: sq.rect.clone(),
        prefix: Prefix::of_key(me_eff, j - 1),
    };
    let (lower, upper) = grid.split(&parent);
    let dispatch = |child: SubQuery, out: &mut Vec<Action>, sink: RoutingSink<'_>| {
        let child_msg = with_geometry(&sq, child);
        if Prefix::of_key(me_eff, child_msg.prefix.len()) == child_msg.prefix {
            // Lines 14–15: still on the id's path — keep peeling.
            refine_rec(table, grid, rot, me_eff, child_msg, split, out, sink);
        } else {
            // Line 17: keys past this node — back onto the DHT links.
            sink(RoutingEvent::RefinePeel {
                prefix_len: child_msg.prefix.len(),
            });
            out.extend(route_subquery_traced(
                table, grid, rot, child_msg, split, sink,
            ));
        }
    };
    dispatch(lower, out, &mut *sink);
    if let Some(upper) = upper {
        dispatch(upper, out, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chord::{NodeRef, OracleRing, RoutingTable};
    use lph::Rect;
    use metric::ObjectId;
    use simnet::{AgentId, SimRng};

    fn msg(rect: Rect, prefix: Prefix) -> SubQueryMsg {
        SubQueryMsg {
            qid: 0,
            index: 0,
            rect,
            prefix,
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        }
    }

    /// Tiny deterministic world: an 8-cell 1-D index space on a 3-node
    /// ring, no rotation. Grid depth 3 over [0,8): cell c covers
    /// [c, c+1) with key c << 61.
    fn world() -> (Vec<RoutingTable>, OracleRing, Grid) {
        let grid = Grid::new(Rect::cube(1, 0.0, 8.0), 3);
        // Node ids at cell boundaries: node A owns cells 0..=2 (keys
        // ending at 2<<61), etc. Choose ids: 2<<61, 5<<61, 7<<61+X...
        let ids = [2u64 << 61, 5u64 << 61, u64::MAX];
        let ring = OracleRing::new(
            ids.iter()
                .enumerate()
                .map(|(addr, &id)| NodeRef::new(id, addr))
                .collect(),
        );
        let tables = ring.build_all_tables(16, None, 16);
        (tables, ring, grid)
    }

    /// Drain actions to completion by "delivering" Forward/Handoff to
    /// their targets; returns (answering node, rect) pairs and the number
    /// of inter-node messages.
    fn resolve(
        tables: &[RoutingTable],
        grid: &Grid,
        start: usize,
        sq: SubQueryMsg,
    ) -> (Vec<(usize, Rect)>, usize) {
        let rot = Rotation::IDENTITY;
        let mut answers = Vec::new();
        let mut msgs = 0usize;
        let mut work: Vec<(usize, SubQueryMsg, bool)> = vec![(start, sq, false)]; // (node, sq, is_refine)
        while let Some((at, q, is_refine)) = work.pop() {
            let actions = if is_refine {
                surrogate_refine(&tables[at], grid, rot, q, true)
            } else {
                route_subquery(&tables[at], grid, rot, q, true)
            };
            for a in actions {
                match a {
                    Action::Answer(ans) => answers.push((at, ans.rect)),
                    Action::Handoff { to, sq } => {
                        msgs += 1;
                        work.push((to.0, sq, true));
                    }
                    Action::Forward { to, sq } => {
                        msgs += 1;
                        work.push((to.0, sq, false));
                    }
                }
            }
            assert!(msgs < 1000, "routing runaway");
        }
        (answers, msgs)
    }

    /// The set of grid cells (by key) each node owns.
    fn owner_of_cell(ring: &OracleRing, grid: &Grid, cell: u64) -> usize {
        let key = cell << (64 - grid.depth());
        ring.owner_of(chord::ChordId(key)).addr.0
    }

    #[test]
    fn full_space_query_reaches_every_owner() {
        let (tables, ring, grid) = world();
        let rect = Rect::new(vec![0.0], vec![8.0]);
        let sq = msg(rect, Prefix::ROOT);
        for start in 0..3 {
            let (answers, _msgs) = resolve(&tables, &grid, start, sq.clone());
            // Every cell 0..8 must be covered by its owner's answer.
            for cell in 0..8u64 {
                let owner = owner_of_cell(&ring, &grid, cell);
                let center = cell as f64 + 0.5;
                assert!(
                    answers
                        .iter()
                        .any(|(n, r)| *n == owner && r.contains_point(&[center])),
                    "cell {cell} (owner {owner}) uncovered from start {start}; answers: {answers:?}"
                );
            }
        }
    }

    #[test]
    fn point_query_goes_to_single_owner() {
        let (tables, ring, grid) = world();
        for cell in 0..8u64 {
            let center = cell as f64 + 0.5;
            let rect = Rect::new(vec![center - 0.1], vec![center + 0.1]);
            let sq = msg(
                rect,
                grid.enclosing_prefix(&Rect::new(vec![center - 0.1], vec![center + 0.1])),
            );
            let (answers, _) = resolve(&tables, &grid, 0, sq);
            let owner = owner_of_cell(&ring, &grid, cell);
            assert!(
                answers.iter().all(|(n, _)| *n == owner),
                "cell {cell}: answers from {answers:?}, expected only {owner}"
            );
            assert!(!answers.is_empty());
        }
    }

    #[test]
    fn shared_path_does_not_split() {
        // A query spanning two sibling cells owned by the same node must
        // travel as one message.
        let (tables, ring, grid) = world();
        // Cells 0 and 1 share owner (node with id 2<<61 owns keys 0..=2<<61).
        assert_eq!(
            owner_of_cell(&ring, &grid, 0),
            owner_of_cell(&ring, &grid, 1)
        );
        let rect = Rect::new(vec![0.2], vec![1.8]);
        let sq = msg(rect.clone(), grid.enclosing_prefix(&rect));
        // Start at the owner itself: zero messages, answered locally.
        let owner = owner_of_cell(&ring, &grid, 0);
        let (answers, msgs) = resolve(&tables, &grid, owner, sq);
        assert_eq!(msgs, 0, "expected local answer, got {msgs} messages");
        assert!(answers.iter().all(|(n, _)| *n == owner));
    }

    #[test]
    fn refine_peels_uncovered_range_to_its_owner() {
        let (tables, ring, grid) = world();
        // Node 0 (id 2<<61) owns cells 0..=2; a query over cells 1..4
        // refined at node 0 must answer 1..=2 from its own store and
        // forward the 3..4 part, whose owner must also answer.
        let rect = Rect::new(vec![1.2], vec![4.6]);
        let sq = msg(
            rect,
            grid.enclosing_prefix(&Rect::new(vec![1.2], vec![4.6])),
        );
        let (answers, msgs) = resolve(&tables, &grid, 0, sq);
        let o0 = owner_of_cell(&ring, &grid, 1);
        let o3 = owner_of_cell(&ring, &grid, 3);
        let o4 = owner_of_cell(&ring, &grid, 4);
        assert_ne!(o0, o3);
        // Every touched cell's owner answers a region containing it.
        for (cell, owner) in [(1u64, o0), (2, o0), (3, o3), (4, o4)] {
            let center = cell as f64 + 0.5;
            assert!(
                answers
                    .iter()
                    .any(|(n, r)| *n == owner && r.contains_point(&[center])),
                "cell {cell} not answered by its owner {owner}: {answers:?}"
            );
        }
        // The cut-out really traveled: at least one message was sent and
        // node o3 received a fragment (it answered something).
        assert!(msgs >= 1);
        assert!(answers.iter().any(|(n, _)| *n == o3));
    }

    #[test]
    fn naive_mode_routes_without_splitting() {
        let (tables, _ring, grid) = world();
        let rect = Rect::new(vec![0.2], vec![7.8]);
        let sq = msg(rect.clone(), grid.enclosing_prefix(&rect));
        // split=false: the whole query is routed toward its (root) prefix
        // key and refined only at owners.
        let rot = Rotation::IDENTITY;
        let actions = route_subquery(&tables[1], &grid, rot, sq, false);
        // No splitting here: exactly one action (root key 0 is owned by
        // node 0, so node 1 forwards or hands off a single fragment).
        assert_eq!(actions.len(), 1);
    }

    #[test]
    fn first_zero_bit_positions() {
        assert_eq!(first_zero_bit(u64::MAX, 1, 64), None);
        assert_eq!(first_zero_bit(0, 1, 64), Some(1));
        // id = 10xxx... : first zero at position 2.
        assert_eq!(first_zero_bit(1 << 63, 1, 64), Some(2));
        // Range restriction.
        assert_eq!(first_zero_bit(0, 5, 64), Some(5));
        assert_eq!(first_zero_bit(u64::MAX - 1, 1, 63), None);
        assert_eq!(first_zero_bit(u64::MAX - 1, 1, 64), Some(64));
    }

    #[test]
    fn answers_cover_only_owned_entries() {
        // Direct check of the Answer precondition: a node only ever
        // answers fragments whose matching entries it owns. Use object
        // ids = cell index to make the bookkeeping obvious.
        let (tables, ring, grid) = world();
        let rect = Rect::new(vec![0.0], vec![8.0]);
        let sq = msg(rect, Prefix::ROOT);
        let (answers, _) = resolve(&tables, &grid, 2, sq);
        for cell in 0..8u64 {
            let owner = owner_of_cell(&ring, &grid, cell);
            let center = cell as f64 + 0.5;
            let answering: Vec<usize> = answers
                .iter()
                .filter(|(_, r)| r.contains_point(&[center]))
                .map(|(n, _)| *n)
                .collect();
            // The owner answers it; others may have overhanging rects
            // but those nodes don't own the entries so no duplicates
            // arise at the store level. Here we simply require the owner
            // to be among the answerers.
            assert!(answering.contains(&owner), "cell {cell}");
        }
        let _ = ObjectId(0);
    }

    #[test]
    fn query_exactly_covering_a_nodes_key_range_is_answered_locally() {
        // Node 0 (id 2<<61) owns exactly the keys of cells 0..=2. A query
        // covering exactly those cells, refined at node 0, must produce
        // only local answers — nothing peels, nothing travels.
        let (tables, ring, grid) = world();
        assert_eq!(owner_of_cell(&ring, &grid, 0), 0);
        assert_eq!(owner_of_cell(&ring, &grid, 2), 0);
        assert_eq!(owner_of_cell(&ring, &grid, 3), 1);
        let rect = Rect::new(vec![0.0], vec![2.99]);
        let sq = msg(rect.clone(), grid.enclosing_prefix(&rect));
        let (answers, msgs) = resolve(&tables, &grid, 0, sq);
        assert_eq!(msgs, 0, "exact-coverage query must not leave the owner");
        assert!(!answers.is_empty());
        assert!(answers.iter().all(|(n, _)| *n == 0), "{answers:?}");
        // The answered regions jointly cover all three owned cells.
        for cell in 0..3u64 {
            let center = cell as f64 + 0.5;
            assert!(answers.iter().any(|(_, r)| r.contains_point(&[center])));
        }
    }

    #[test]
    fn zero_radius_query_reaches_exactly_one_owner() {
        // A degenerate (point) rectangle: lo == hi. The enclosing prefix
        // is a single full-depth cell, so routing must deliver it to that
        // cell's owner and nobody else, from any start.
        let (tables, ring, grid) = world();
        for cell in 0..8u64 {
            let p = cell as f64 + 0.5;
            let rect = Rect::new(vec![p], vec![p]);
            let prefix = grid.enclosing_prefix(&rect);
            assert_eq!(prefix.len(), grid.depth(), "point query pins a cell");
            let owner = owner_of_cell(&ring, &grid, cell);
            for start in 0..3 {
                let (answers, _) = resolve(&tables, &grid, start, msg(rect.clone(), prefix));
                assert!(
                    answers.iter().all(|(n, _)| *n == owner),
                    "cell {cell} from {start}: {answers:?}"
                );
                assert_eq!(answers.len(), 1, "exactly one answer for a point query");
            }
        }
    }

    #[test]
    fn max_depth_prefix_refines_to_a_single_answer() {
        // A fragment already at full grid depth: Algorithm 5 has no bits
        // left to peel (first_zero_bit's range is empty), so the surrogate
        // answers once and produces no further actions.
        let (tables, _ring, grid) = world();
        let rect = Rect::new(vec![1.1], vec![1.9]);
        let prefix = grid.enclosing_prefix(&rect);
        assert_eq!(prefix.len(), grid.depth());
        // Node 0 owns cell 1's key.
        let actions = surrogate_refine(
            &tables[0],
            &grid,
            Rotation::IDENTITY,
            msg(rect, prefix),
            true,
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Answer(_)));
        // route_subquery with a full-depth prefix must not attempt to
        // descend further either.
        let rect2 = Rect::new(vec![1.1], vec![1.9]);
        let sq2 = msg(rect2.clone(), grid.enclosing_prefix(&rect2));
        let routed = route_subquery(&tables[0], &grid, Rotation::IDENTITY, sq2, true);
        assert_eq!(routed.len(), 1);
        assert!(matches!(routed[0], Action::Answer(_)));
    }

    #[test]
    fn traced_routing_reports_splits_and_untraced_agrees() {
        // The full-space query from node 1 must split at the root (cells
        // 0..3 and 4..7 have different owners) and report it; the traced
        // and untraced variants must produce identical actions.
        let (tables, _ring, grid) = world();
        let rect = Rect::new(vec![0.0], vec![8.0]);
        let sq = msg(rect, Prefix::ROOT);
        let mut events = Vec::new();
        let traced = route_subquery_traced(
            &tables[1],
            &grid,
            Rotation::IDENTITY,
            sq.clone(),
            true,
            &mut |e| events.push(e),
        );
        let untraced = route_subquery(&tables[1], &grid, Rotation::IDENTITY, sq, true);
        assert_eq!(traced.len(), untraced.len());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RoutingEvent::Split { .. })),
            "full-space query must split: {events:?}"
        );
        // A refine at an owner reports peels through the same sink.
        let rect = Rect::new(vec![1.2], vec![4.6]);
        let sqr = msg(rect.clone(), grid.enclosing_prefix(&rect));
        let mut refine_events = Vec::new();
        let _ =
            surrogate_refine_traced(&tables[0], &grid, Rotation::IDENTITY, sqr, true, &mut |e| {
                refine_events.push(e)
            });
        assert!(
            refine_events
                .iter()
                .any(|e| matches!(e, RoutingEvent::RefinePeel { .. })),
            "straddling refine must peel: {refine_events:?}"
        );
    }

    #[test]
    fn self_handoff_short_circuits_to_local_answer() {
        // A mock table that names its own node as surrogate (or next hop)
        // for every key — the degenerate state of a node whose whole
        // neighborhood is suspected dead. Routing must never emit a wire
        // message addressed to the node itself; it answers locally.
        struct SelfPointing {
            me: NodeRef,
            forward: bool,
        }
        impl OverlayTable for SelfPointing {
            fn me_ref(&self) -> NodeRef {
                self.me
            }
            fn decide(&self, _key: chord::ChordId) -> RouteDecision {
                if self.forward {
                    RouteDecision::Forward(self.me)
                } else {
                    RouteDecision::Surrogate(self.me)
                }
            }
            fn neighbors(&self) -> Vec<NodeRef> {
                Vec::new()
            }
            fn successor_list(&self) -> Vec<NodeRef> {
                Vec::new()
            }
        }
        let grid = Grid::new(Rect::cube(1, 0.0, 8.0), 3);
        let rect = Rect::new(vec![3.2], vec![3.8]);
        let sq = msg(rect.clone(), grid.enclosing_prefix(&rect));
        for forward in [false, true] {
            let table = SelfPointing {
                me: NodeRef::new(7u64 << 61, 4),
                forward,
            };
            let actions = route_subquery(&table, &grid, Rotation::IDENTITY, sq.clone(), true);
            assert!(!actions.is_empty());
            for a in &actions {
                match a {
                    Action::Answer(_) => {}
                    Action::Handoff { to, .. } | Action::Forward { to, .. } => {
                        assert_ne!(
                            *to,
                            AgentId(4),
                            "message addressed to self (forward={forward})"
                        );
                    }
                }
            }
            assert!(
                actions.iter().any(|a| matches!(a, Action::Answer(_))),
                "self-handoff must resolve to a local answer"
            );
        }
    }

    #[test]
    fn deterministic_world_sanity() {
        let (_tables, ring, grid) = world();
        assert_eq!(grid.depth(), 3);
        assert_eq!(ring.len(), 3);
        let mut rng = SimRng::new(0);
        let _ = rng.f64();
    }
}
