//! The load-bearing correctness property of the whole architecture,
//! checked against a brute-force oracle:
//!
//! **For any ring, any grid, any query region and any starting node, the
//! distributed resolution of Algorithms 3–5 answers every entry whose
//! index point lies in the region — each from exactly the node that owns
//! its key — and terminates within a sane message budget.**
//!
//! The resolution here runs the *pure* routing functions with a work
//! queue standing in for the network, so failures shrink to small
//! deterministic worlds.

use chord::{ChordId, OracleRing, RoutingTable};
use lph::{Grid, Rect, Rotation};
use proptest::prelude::*;
use simnet::{AgentId, SimRng};
use simsearch::{route_subquery, Action, SubQueryMsg};
use std::collections::BTreeMap;

/// Deliver actions until quiescence, as nodes do: each delivered batch
/// is one round at its node, every fragment of it goes through
/// `route_subquery`, and the round's sends leave as one batch per
/// destination. A send must be marked (`shortcut`) exactly when `ring`
/// says its destination owns the fragment's prefix key. Returns
/// `(answers, messages, relays)` where answers are `(node, rect)` pairs,
/// messages counts every fragment delivered (a batch of n counts n) and
/// relays counts the batches whose recipient answered none of them.
fn resolve(
    ring: &OracleRing,
    tables: &[RoutingTable],
    grid: &Grid,
    rot: Rotation,
    start: usize,
    sq: SubQueryMsg,
) -> (Vec<(usize, Rect)>, usize, usize) {
    let mut answers = Vec::new();
    let (mut msgs, mut relays) = (0usize, 0usize);
    let mut work = vec![(start, vec![sq])];
    while let Some((at, batch)) = work.pop() {
        let (answered, routed) = (answers.len(), msgs > 0);
        let mut out: BTreeMap<usize, Vec<SubQueryMsg>> = BTreeMap::new();
        for q in batch {
            for a in route_subquery(&tables[at], grid, rot, q, true) {
                match a {
                    Action::Answer(ans) => {
                        assert!(!ans.shortcut, "an answered fragment carries no mark");
                        answers.push((at, ans.rect));
                    }
                    Action::Send { to, sq } => {
                        let owner = ring.owner_of(ChordId(rot.to_ring(sq.prefix.key())));
                        assert_eq!(
                            sq.shortcut,
                            owner.addr == to,
                            "a send is marked exactly when its destination owns its key"
                        );
                        out.entry(to.0).or_default().push(sq);
                    }
                }
            }
        }
        relays += usize::from(routed && answers.len() == answered);
        msgs += out.values().map(Vec::len).sum::<usize>();
        work.extend(out);
        assert!(
            msgs < 50_000,
            "routing did not terminate within a sane message budget"
        );
    }
    (answers, msgs, relays)
}

#[allow(clippy::too_many_arguments)]
fn check_world(
    n_nodes: usize,
    dims: usize,
    depth: u32,
    seed: u64,
    rot: Rotation,
    rect_lo: Vec<f64>,
    rect_hi: Vec<f64>,
    start: usize,
    n_probes: usize,
) -> Result<usize, TestCaseError> {
    let mut rng = SimRng::new(seed);
    let ring = OracleRing::with_random_ids(n_nodes, &mut rng);
    let tables = ring.build_all_tables(SUCCESSORS, None, 8);
    let grid = Grid::new(Rect::cube(dims, 0.0, 64.0), depth);
    let rect = Rect::new(
        rect_lo
            .iter()
            .zip(&rect_hi)
            .map(|(a, b)| a.min(*b))
            .collect(),
        rect_lo
            .iter()
            .zip(&rect_hi)
            .map(|(a, b)| a.max(*b))
            .collect(),
    );
    let sq = SubQueryMsg {
        qid: 0,
        index: 0,
        rect: rect.clone(),
        prefix: grid.enclosing_prefix(&rect),
        hops: 0,
        origin: AgentId(0),
        ball: None,
        shortcut: false,
    };
    let (answers, msgs, relays) = resolve(&ring, &tables, &grid, rot, start % n_nodes, sq);

    // Probe points inside the region (corners, center, random interior):
    // each probe's owning node must have answered a region containing it.
    let mut probes: Vec<Vec<f64>> = vec![rect.lo().to_vec(), rect.hi().to_vec(), rect.center()];
    let mut prng = SimRng::new(seed ^ 0x1234);
    for _ in 0..n_probes {
        let p: Vec<f64> = (0..dims)
            .map(|d| rect.lo()[d] + prng.f64() * (rect.hi()[d] - rect.lo()[d]))
            .collect();
        probes.push(p);
    }
    for p in probes {
        let key = rot.to_ring(grid.hash(&p));
        let owner = ring.owner_of(ChordId(key)).addr.0;
        prop_assert!(
            answers
                .iter()
                .any(|(n, r)| *n == owner && r.contains_point(&p)),
            "probe {p:?} (owner {owner}) uncovered; {} answers, {msgs} msgs",
            answers.len()
        );
    }
    // Termination budget: generous bound, linear in the ring size with a
    // log-ish routing factor.
    prop_assert!(
        msgs <= n_nodes * 40 + 200,
        "{msgs} messages for {n_nodes} nodes"
    );
    Ok(relays)
}

/// Successors each table lists in [`check_world`]'s rings.
const SUCCESSORS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coverage_2d(
        seed in 0u64..10_000,
        n_nodes in 2usize..40,
        a in prop::collection::vec(0.0f64..64.0, 2),
        b in prop::collection::vec(0.0f64..64.0, 2),
        start in 0usize..40,
    ) {
        check_world(n_nodes, 2, 12, seed, Rotation::IDENTITY, a, b, start, 12)?;
    }

    #[test]
    fn coverage_3d_with_rotation(
        seed in 0u64..10_000,
        n_nodes in 2usize..32,
        a in prop::collection::vec(0.0f64..64.0, 3),
        b in prop::collection::vec(0.0f64..64.0, 3),
        start in 0usize..32,
        phi in any::<u64>(),
    ) {
        check_world(n_nodes, 3, 12, seed, Rotation(phi), a, b, start, 12)?;
    }

    #[test]
    fn coverage_1d_deep(
        seed in 0u64..10_000,
        n_nodes in 2usize..24,
        a in 0.0f64..64.0,
        b in 0.0f64..64.0,
        start in 0usize..24,
    ) {
        check_world(n_nodes, 1, 16, seed, Rotation::IDENTITY, vec![a], vec![b], start, 10)?;
    }

    #[test]
    fn full_space_query_covers_everything(
        seed in 0u64..10_000,
        n_nodes in 2usize..24,
        start in 0usize..24,
    ) {
        check_world(
            n_nodes, 2, 10, seed, Rotation::IDENTITY,
            vec![0.0, 0.0], vec![64.0, 64.0], start, 20,
        )?;
    }

    /// On a ring every node's successor list spans, each node knows
    /// every key's owner: a `Route` goes straight to a node that answers
    /// it, never through a relay, and coverage holds from every start.
    #[test]
    fn listed_owners_answer_every_route(
        seed in 0u64..10_000,
        n_nodes in 2usize..=SUCCESSORS + 1,
        a in prop::collection::vec(0.0f64..64.0, 2),
        b in prop::collection::vec(0.0f64..64.0, 2),
    ) {
        for start in 0..n_nodes {
            let relays = check_world(n_nodes, 2, 12, seed, Rotation::IDENTITY, a.clone(), b.clone(), start, 12)?;
            prop_assert_eq!(relays, 0, "start {}: a Route reached a node that answered none of it", start);
        }
    }

    #[test]
    fn degenerate_point_query(
        seed in 0u64..10_000,
        n_nodes in 2usize..24,
        p in prop::collection::vec(0.0f64..64.0, 2),
        start in 0usize..24,
    ) {
        // Zero-volume region: exactly one owner must answer it.
        check_world(n_nodes, 2, 12, seed, Rotation::IDENTITY, p.clone(), p, start, 0)?;
    }
}

/// A zero-radius query degenerates to a single-point lookup: exactly one
/// fragment, answered by exactly the node owning the point's ring key.
#[test]
fn zero_radius_query_is_a_single_point_lookup() {
    for seed in [1u64, 7, 42, 99] {
        let mut rng = SimRng::new(seed);
        let ring = OracleRing::with_random_ids(12, &mut rng);
        let tables = ring.build_all_tables(8, None, 8);
        let grid = Grid::new(Rect::cube(2, 0.0, 64.0), 12);
        let p = [17.3, 42.9];
        let rect = Rect::ball(&p, 0.0, grid.bounds());
        let sq = SubQueryMsg {
            qid: 0,
            index: 0,
            rect: rect.clone(),
            prefix: grid.enclosing_prefix(&rect),
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        };
        let start = (seed as usize) % 12;
        let (answers, _, _) = resolve(&ring, &tables, &grid, Rotation::IDENTITY, start, sq);
        let key = Rotation::IDENTITY.to_ring(grid.hash(&p));
        let owner = ring.owner_of(ChordId(key)).addr.0;
        assert_eq!(answers.len(), 1, "seed {seed}: one answer, not a scatter");
        assert_eq!(answers[0].0, owner, "seed {seed}: answered by the owner");
        assert!(answers[0].1.contains_point(&p));
    }
}

#[test]
fn single_node_world_answers_locally() {
    let mut rng = SimRng::new(1);
    let ring = OracleRing::with_random_ids(1, &mut rng);
    let tables = ring.build_all_tables(8, None, 8);
    let grid = Grid::new(Rect::cube(2, 0.0, 64.0), 10);
    let rect = Rect::new(vec![3.0, 3.0], vec![60.0, 60.0]);
    let sq = SubQueryMsg {
        qid: 0,
        index: 0,
        rect: rect.clone(),
        prefix: grid.enclosing_prefix(&rect),
        hops: 0,
        origin: AgentId(0),
        ball: None,
        shortcut: false,
    };
    let (answers, msgs, _) = resolve(&ring, &tables, &grid, Rotation::IDENTITY, 0, sq);
    assert_eq!(msgs, 0, "one node: zero network messages");
    assert!(answers
        .iter()
        .any(|(n, r)| *n == 0 && r.contains_point(&[30.0, 30.0])));
}
