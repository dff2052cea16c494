//! The shared deterministic scenario both drivers run.
//!
//! Sim-vs-socket parity only means something if both sides execute *the
//! same* workload over *the same* overlay. This module derives
//! everything from `(n_nodes, dims, depth, n_objects, seed)` with the
//! simulator's own [`SimRng`] streams, so the in-process simulator, the
//! parity integration test and every `node` process in a real cluster
//! reconstruct identical ring ids, routing tables, corpora and query
//! lists without exchanging any of them.
//!
//! The landmark mapping is the identity: objects *are* their index
//! points in `[0, 1]^dims` and the metric is L2. A node therefore
//! refuses a point outside the cube instead of clamping it onto the
//! boundary as §3.1 does for a mapped object: the stored vector is the
//! object, and a clamped copy would falsify [`StoredL2`]'s distance.
//! Entries and `Issue` sub-queries are built by the simulator's own
//! [`Entry::new`] and [`SubQueryMsg::issue`]. The system's ball
//! pruning is the L∞ lower bound — sound but not tight under L2, so a
//! range answer is the top-k *by true distance* of every object the
//! bound admits (which can include points just outside the metric
//! radius). [`Scenario::expected_range`] reproduces that admit rule
//! exactly, which is what lets it predict the cluster's answers from
//! the corpus alone.

use chord::{NodeRef, OracleRing};
use lph::{Grid, Rect, Rotation};
use metric::ObjectId;
use simnet::{AgentId, SimRng};
use simsearch::msg::{QueryBall, QueryDistance, QueryId, SearchMsg, SubQueryMsg};
use simsearch::store::Entry;

/// Merged result lists are truncated to this many entries at the origin
/// (the simulator's `knn_k`); both drivers must agree on it.
pub const KNN_K: usize = 10;

/// One range query of the scripted workload.
#[derive(Clone, Debug)]
pub struct RangeQuery {
    /// Node the query is issued at.
    pub origin: usize,
    /// Query point.
    pub center: Vec<f64>,
    /// Metric search radius.
    pub radius: f64,
}

/// Deterministic cluster + workload description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Cluster size.
    pub n_nodes: usize,
    /// Index-space dimensionality (number of landmarks).
    pub dims: usize,
    /// Grid depth in bits.
    pub depth: u32,
    /// Corpus size.
    pub n_objects: usize,
    /// Root seed for all derived randomness.
    pub seed: u64,
}

impl Scenario {
    /// The defaults every driver uses unless overridden on the CLI.
    pub fn new(n_nodes: usize) -> Scenario {
        Scenario {
            n_nodes,
            dims: 3,
            depth: 12,
            n_objects: 120,
            seed: 42,
        }
    }

    /// Ring identifiers, evenly spaced over the full 64-bit ring in
    /// agent-index order. Every process recomputes the same ids, so no
    /// id exchange is needed at bootstrap.
    pub fn ring_ids(&self) -> Vec<u64> {
        (0..self.n_nodes)
            .map(|i| (((i as u128) << 64) / self.n_nodes as u128) as u64)
            .collect()
    }

    /// The oracle ring over those ids (agent `i` owns id `i`'s arc).
    pub fn ring(&self) -> OracleRing {
        OracleRing::new(
            self.ring_ids()
                .into_iter()
                .enumerate()
                .map(|(i, id)| NodeRef::new(id, i))
                .collect(),
        )
    }

    /// The index grid over `[0, 1]^dims`.
    pub fn grid(&self) -> Grid {
        Grid::new(Rect::cube(self.dims, 0.0, 1.0), self.depth)
    }

    /// The corpus: object `i`'s index point, strictly interior to the
    /// unit cube so grid hashing never sits on the boundary.
    pub fn corpus(&self) -> Vec<Vec<f64>> {
        let mut rng = SimRng::new(self.seed).fork(1);
        (0..self.n_objects)
            .map(|_| (0..self.dims).map(|_| 0.001 + 0.998 * rng.f64()).collect())
            .collect()
    }

    /// The scripted range queries (query `q` uses qid `q`).
    pub fn queries(&self) -> Vec<RangeQuery> {
        let mut rng = SimRng::new(self.seed).fork(2);
        (0..6)
            .map(|_| {
                let center: Vec<f64> = (0..self.dims).map(|_| 0.2 + 0.6 * rng.f64()).collect();
                let radius = 0.08 + 0.22 * rng.f64();
                let origin = rng.index(self.n_nodes);
                RangeQuery {
                    origin,
                    center,
                    radius,
                }
            })
            .collect()
    }

    /// Which node a publish for `obj` is injected at.
    pub fn publish_origin(&self, obj: u32) -> usize {
        obj as usize % self.n_nodes
    }

    /// The store entry for an object (identity mapping: the object's
    /// point is its index point), built as the simulator builds it.
    pub fn entry(&self, grid: &Grid, obj: u32, point: &[f64]) -> Entry {
        Entry::new(grid, rotation(), ObjectId(obj), point)
    }

    /// The `Issue` message both drivers inject for a range query: the
    /// parity test into the simulator, a node for each client query.
    pub fn issue_msg(&self, grid: &Grid, qid: u32, q: &RangeQuery) -> SearchMsg {
        let ball = QueryBall {
            center: q.center.clone().into(),
            radius: q.radius,
        };
        SearchMsg::Issue(SubQueryMsg::issue(qid, 0, AgentId(q.origin), grid, ball))
    }

    /// Model answer for a range query: every corpus object the system's
    /// own pruning admits — inside the ball's bounding rect and not
    /// rejected by the [`QueryBall::excludes`] L∞ lower bound — ranked
    /// the way the origin merges results (ascending true distance,
    /// object id breaking ties), truncated to [`KNN_K`]. There is
    /// deliberately no `d <= radius` cut: the system ranks whatever the
    /// bound admits, so the model must too. Uses the same [`l2`]
    /// arithmetic as the runtime, so distances are bit-identical, not
    /// merely close.
    pub fn expected_range(
        &self,
        grid: &Grid,
        corpus: &[Vec<f64>],
        q: &RangeQuery,
    ) -> Vec<(u32, f64)> {
        let rect = Rect::ball(&q.center, q.radius, grid.bounds());
        let ball = QueryBall {
            center: q.center.clone().into(),
            radius: q.radius,
        };
        let mut hits: Vec<(u32, f64)> = corpus
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p) && !ball.excludes(p, grid.bounds()))
            .map(|(i, p)| (i as u32, l2(&q.center, p)))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits.truncate(KNN_K);
        hits
    }

    /// Model answer for a k-nearest query: the `k` corpus objects
    /// closest to `center`, same ranking as [`Self::expected_range`].
    pub fn expected_knn(&self, corpus: &[Vec<f64>], center: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = corpus
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, l2(center, p)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Euclidean distance — the scenario's object-space metric. The
/// runtime's [`StoredL2`] oracle, the simulator-side oracles of the
/// parity test and the expected-answer model all call this one
/// function, so every side does the identical float arithmetic.
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The real node's distance oracle. The landmark mapping is the
/// identity, so the vector a node stores *is* the object, and every
/// sub-query carries its center in its ball: refinement is [`l2`] of
/// the two, from nothing but what the answering node holds.
pub struct StoredL2;

impl QueryDistance for StoredL2 {
    /// Never called: [`simsearch::SearchNode`] refines only through
    /// [`Self::refine`], and a query id or object id alone names no
    /// vector this oracle could measure.
    fn distance(&self, qid: QueryId, obj: ObjectId) -> f64 {
        unreachable!(
            "SearchNode refines from stored vectors; distance({qid}, {}) has no source",
            obj.0
        )
    }

    fn refine(&self, _: QueryId, _: ObjectId, ball: Option<&QueryBall>, stored: &[f64]) -> f64 {
        let ball = ball.expect("the runtime admits only sub-queries that carry a ball");
        l2(&ball.center, stored)
    }
}

/// Identity rotation shared by every index instance the drivers build.
pub fn rotation() -> Rotation {
    Rotation::IDENTITY
}

/// Serialize a corpus as one whitespace-separated point per line.
pub fn write_corpus(path: &str, corpus: &[Vec<f64>]) -> Result<(), String> {
    let mut out = String::new();
    for p in corpus {
        // `{}` prints the shortest decimal that parses back to the
        // exact same f64 — the round-trip the checks depend on.
        let line: Vec<String> = p.iter().map(|x| format!("{x}")).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("failed to write corpus {path}: {e}"))
}

/// Parse a corpus file written by [`write_corpus`]; object ids are line
/// numbers. All lines must share one dimensionality.
pub fn read_corpus(path: &str) -> Result<Vec<Vec<f64>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("failed to read corpus {path}: {e}"))?;
    let mut corpus = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let point: Vec<f64> = line
            .split_whitespace()
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|e| format!("{path}:{}: bad coordinate {t:?}: {e}", lineno + 1))
            })
            .collect::<Result<_, _>>()?;
        if let Some(first) = corpus.first() {
            let first: &Vec<f64> = first;
            if first.len() != point.len() {
                return Err(format!(
                    "{path}:{}: {}-dim point in a {}-dim corpus",
                    lineno + 1,
                    point.len(),
                    first.len()
                ));
            }
        }
        corpus.push(point);
    }
    Ok(corpus)
}

/// Parse `x,y,..@r` (query spec) into `(center, r)`.
pub fn parse_spec(spec: &str) -> Result<(Vec<f64>, f64), String> {
    let (coords, tail) = spec
        .split_once('@')
        .ok_or_else(|| format!("query spec {spec:?} is missing '@'"))?;
    let center: Vec<f64> = coords
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad coordinate {t:?} in query spec: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if center.is_empty() {
        return Err(format!("query spec {spec:?} has no coordinates"));
    }
    let r = tail
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("bad radius/count {tail:?} in query spec: {e}"))?;
    Ok((center, r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_reproducible() {
        let s = Scenario::new(16);
        assert_eq!(s.corpus(), s.corpus());
        assert_eq!(s.ring_ids(), s.ring_ids());
        let (qa, qb) = (s.queries(), s.queries());
        assert_eq!(qa.len(), qb.len());
        for (a, b) in qa.iter().zip(&qb) {
            assert_eq!(
                (a.origin, &a.center, a.radius),
                (b.origin, &b.center, b.radius)
            );
        }
    }

    #[test]
    fn corpus_roundtrips_through_files() {
        let s = Scenario::new(4);
        let corpus = s.corpus();
        let path = std::env::temp_dir().join("node-scenario-corpus-test.txt");
        let path = path.to_str().expect("temp path is valid UTF-8");
        write_corpus(path, &corpus).expect("write corpus");
        assert_eq!(read_corpus(path).expect("read corpus"), corpus);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn spec_parsing() {
        let (c, r) = parse_spec("0.5, 0.25,0.75@0.2").expect("valid spec");
        assert_eq!(c, vec![0.5, 0.25, 0.75]);
        assert_eq!(r, 0.2);
        assert!(parse_spec("0.5,0.5").is_err());
        assert!(parse_spec("x@1").is_err());
    }
}
