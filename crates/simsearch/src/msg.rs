//! Wire messages and the paper's byte-size model (§4.1).

use std::sync::Arc;

use lph::{Prefix, Rect};
use metric::ObjectId;
use simnet::AgentId;

/// Dense query identifier within one experiment run.
pub type QueryId = u32;

/// On-demand true-distance evaluation between a query and an object.
///
/// Index nodes rank their matching local entries by real distance before
/// replying (the paper's refinement step); the driver implements this
/// over the actual dataset and metric.
pub trait QueryDistance: Send + Sync {
    /// `d(query_qid, object)` in the original metric space.
    fn distance(&self, qid: QueryId, obj: ObjectId) -> f64;

    /// The answering node's refinement call: `d(query_qid, object)`
    /// given everything the node holds about the candidate — the
    /// sub-query's ball (if it carried one) and the stored vector of the
    /// copy the node admitted. [`crate::SearchNode`] calls only this.
    /// The default forwards to [`Self::distance`], so a driver with
    /// global knowledge ignores the extra arguments; one whose stored
    /// vector *is* the object can answer from them alone.
    fn refine(&self, qid: QueryId, obj: ObjectId, ball: Option<&QueryBall>, stored: &[f64]) -> f64 {
        let _ = (ball, stored);
        self.distance(qid, obj)
    }
}

/// Blanket impl for closures.
impl<F: Fn(QueryId, ObjectId) -> f64 + Send + Sync> QueryDistance for F {
    fn distance(&self, qid: QueryId, obj: ObjectId) -> f64 {
        self(qid, obj)
    }
}

/// Shared oracle handle.
pub type DistanceOracle = Arc<dyn QueryDistance>;

/// The query's index-space ball: the mapped query point (its vector of
/// landmark distances) plus the metric search radius.
///
/// Answering nodes use it for LAESA-style refinement pruning: the
/// contractive landmark mapping gives the pivot lower bound
/// `max_i |d(q,l_i) − x_i| ≤ d(q,x)`, so a candidate whose stored point
/// is further than `radius` from `center` in L∞ provably lies outside
/// the metric range and the true-distance call can be skipped. The
/// center is shared (`Arc`) so fragment splitting clones a pointer, not
/// the vector.
#[derive(Clone, Debug)]
pub struct QueryBall {
    /// The query's landmark vector `(d(q,l_1), …, d(q,l_k))`.
    pub center: Arc<[f64]>,
    /// The metric search radius `r`.
    pub radius: f64,
}

impl QueryBall {
    /// The pivot lower bound `max_i |q_i − x_i| ≤ d(q,x)` — by the
    /// triangle inequality each landmark coordinate of the mapping is
    /// 1-Lipschitz, so the L∞ gap between the query's landmark vector
    /// and an object's never exceeds their true distance.
    ///
    /// `point` is a *stored* vector, clamped onto `bounds` at publish
    /// time: a coordinate sitting exactly on the boundary may stand for
    /// any value beyond it, so only the gap on the interior side of the
    /// boundary is certain there. Interior coordinates are exact and use
    /// the raw (possibly out-of-bounds) query coordinate. NaN
    /// coordinates contribute nothing (`f64::max` skips NaN), so a
    /// degenerate mapping can only weaken the bound, never inflate it.
    pub fn lower_bound(&self, point: &[f64], bounds: &Rect) -> f64 {
        let mut lb = 0.0f64;
        let dims = self.center.len().min(point.len());
        for (i, &x) in point.iter().enumerate().take(dims) {
            let q = self.center[i];
            let (lo, hi) = (bounds.lo()[i], bounds.hi()[i]);
            let gap = if x >= hi {
                (hi - q).max(0.0)
            } else if x <= lo {
                (q - lo).max(0.0)
            } else {
                (q - x).abs()
            };
            lb = lb.max(gap);
        }
        lb
    }

    /// True when the object at `point` provably lies outside the metric
    /// range: `lower_bound > radius` implies `d(q,x) > r`. The strict
    /// comparison is false on NaN, so nothing is excluded on degenerate
    /// input.
    pub fn excludes(&self, point: &[f64], bounds: &Rect) -> bool {
        self.lower_bound(point, bounds) > self.radius
    }
}

/// A query fragment in flight.
#[derive(Clone, Debug)]
pub struct SubQueryMsg {
    /// Which query this fragment belongs to.
    pub qid: QueryId,
    /// Which co-hosted index scheme it targets.
    pub index: u8,
    /// Remaining search region.
    pub rect: Rect,
    /// Current `prefix_key`/`prefix_length`.
    pub prefix: Prefix,
    /// Overlay hops taken so far.
    pub hops: u32,
    /// Where results go.
    pub origin: AgentId,
    /// The query ball for refinement pruning; `None` disables pruning
    /// (e.g. for drivers whose oracle is not contractive under the
    /// index mapping). Not counted by the §4.1 byte model: the center
    /// duplicates information the rect already carries for interior
    /// queries, and the model stays comparable with the paper's figures.
    pub ball: Option<QueryBall>,
    /// Always `false`: nothing routes a fragment beyond Chord's own
    /// tables. The field stays only because the frozen repo benchmark
    /// (`benchmark/src/inproc.rs`) builds `SubQueryMsg` literals that
    /// name it; the codec still writes its flag byte, which the §4.1
    /// byte model does not count.
    pub shortcut: bool,
}

/// Messages of the index layer.
#[derive(Clone, Debug)]
pub enum SearchMsg {
    /// Algorithm 3 traffic: one or more subqueries that share a next hop
    /// (batched into one wire message, which is what the paper's
    /// `n`-subquery size formula models).
    Route(Vec<SubQueryMsg>),
    /// Algorithm 5 hand-off to the surrogate (owner) node.
    Refine(SubQueryMsg),
    /// An index node's local answer, sent straight back to the origin.
    Results {
        /// The answered query.
        qid: QueryId,
        /// Hops the *query* took to reach the answering node.
        hops: u32,
        /// `(object, true distance)` — the node's `k` nearest matching
        /// local entries.
        entries: Vec<(ObjectId, f64)>,
        /// True when the answering node believes part of the fragment's
        /// key range was lost with a dead node it holds no replicas for
        /// — the origin's recall may silently be short otherwise.
        degraded: bool,
    },
    /// Control: injected at the querying node to start a query. Carries
    /// the initial subquery (rect clipped, prefix computed by the
    /// driver). Zero wire cost (it *is* the querying node).
    Issue(SubQueryMsg),
    /// Publish one index entry: routed greedily toward the entry's ring
    /// key and stored at the owner (runtime insertion, §6 "dynamic
    /// datasets"). Modelled as a fixed-size record: header + key +
    /// object id + one coordinate pair per landmark.
    Publish {
        /// Target index scheme.
        index: u8,
        /// The entry to store.
        entry: crate::store::Entry,
        /// Hops taken so far.
        hops: u32,
    },
    /// A replica copy of an entry the sender owns, pushed to one of its
    /// ring successors so the entry survives the owner's crash.
    Replicate {
        /// Target index scheme.
        index: u8,
        /// The publishing owner's ring identifier — replicas are only
        /// answered on the owner's behalf once it is suspected dead.
        owner: u64,
        /// The replicated entry.
        entry: crate::store::Entry,
    },
    /// Reliability envelope (resilient mode only): the payload plus a
    /// retransmission sequence number and the sender's current list of
    /// suspected-dead node identifiers (gossiped failure detection).
    /// The receiver acks the `seq`, merges `dead`, deduplicates on
    /// `(sender, seq)`, then processes `inner` exactly once.
    Tracked {
        /// Sender-local retransmission sequence number.
        seq: u64,
        /// Node ids the sender believes dead, sorted ascending.
        dead: Vec<u64>,
        /// The actual payload.
        inner: Box<SearchMsg>,
    },
    /// Delivery acknowledgement for a [`SearchMsg::Tracked`] envelope.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// The paper's query-message size model:
/// `20 (header) + 4 (source IP) + n · (2·2·k + 8 + 1)` bytes for `n`
/// subqueries over a `k`-landmark index.
pub fn query_msg_bytes(n_subqueries: usize, k_landmarks: usize) -> u32 {
    20 + 4 + (n_subqueries as u32) * (4 * k_landmarks as u32 + 8 + 1)
}

/// The paper's result-message size model: `20 + 6 · entries` bytes.
pub fn result_msg_bytes(n_entries: usize) -> u32 {
    20 + 6 * n_entries as u32
}

/// Wire size of an [`SearchMsg::Ack`]: header + sequence number.
pub fn ack_msg_bytes() -> u32 {
    20 + 8
}

/// Extra wire bytes a [`SearchMsg::Tracked`] envelope adds to its
/// payload: sequence number + dead-list length byte + one id per entry.
pub fn tracked_overhead_bytes(n_dead: usize) -> u32 {
    8 + 1 + 8 * n_dead as u32
}

/// Wire size of a message given the index dimensionality lookup.
pub fn msg_bytes(msg: &SearchMsg, k_of_index: impl Fn(u8) -> usize) -> u32 {
    match msg {
        SearchMsg::Route(subs) => {
            let k = subs.first().map(|s| k_of_index(s.index)).unwrap_or(0);
            query_msg_bytes(subs.len(), k)
        }
        SearchMsg::Refine(sq) => query_msg_bytes(1, k_of_index(sq.index)),
        SearchMsg::Results { entries, .. } => result_msg_bytes(entries.len()),
        SearchMsg::Issue(_) => 0,
        SearchMsg::Publish { entry, .. } => 20 + 8 + 4 + 8 * entry.point.len() as u32,
        SearchMsg::Replicate { entry, .. } => 20 + 8 + 8 + 4 + 8 * entry.point.len() as u32,
        SearchMsg::Tracked { dead, inner, .. } => {
            tracked_overhead_bytes(dead.len()) + msg_bytes(inner, k_of_index)
        }
        SearchMsg::Ack { .. } => ack_msg_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_size_formulas() {
        // 10 landmarks, 1 subquery: 24 + (40 + 9) = 73.
        assert_eq!(query_msg_bytes(1, 10), 73);
        // 3 subqueries, 5 landmarks: 24 + 3·29 = 111.
        assert_eq!(query_msg_bytes(3, 5), 111);
        assert_eq!(result_msg_bytes(0), 20);
        assert_eq!(result_msg_bytes(10), 80);
    }

    #[test]
    fn msg_bytes_dispatch() {
        let sq = SubQueryMsg {
            qid: 0,
            index: 0,
            rect: Rect::cube(10, 0.0, 1.0),
            prefix: Prefix::ROOT,
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        };
        let k = |_: u8| 10usize;
        assert_eq!(
            msg_bytes(&SearchMsg::Route(vec![sq.clone(), sq.clone()]), k),
            24 + 2 * 49
        );
        assert_eq!(msg_bytes(&SearchMsg::Refine(sq.clone()), k), 73);
        assert_eq!(
            msg_bytes(
                &SearchMsg::Results {
                    qid: 0,
                    hops: 3,
                    entries: vec![(ObjectId(1), 0.5); 4],
                    degraded: false,
                },
                k
            ),
            44
        );
        assert_eq!(msg_bytes(&SearchMsg::Issue(sq), k), 0);
    }

    #[test]
    fn resilience_message_sizes() {
        let sq = SubQueryMsg {
            qid: 0,
            index: 0,
            rect: Rect::cube(10, 0.0, 1.0),
            prefix: Prefix::ROOT,
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        };
        let k = |_: u8| 10usize;
        assert_eq!(msg_bytes(&SearchMsg::Ack { seq: 7 }, k), 28);
        // A tracked Refine with two suspects: 8 + 1 + 16 envelope bytes
        // on top of the 73-byte payload.
        let tracked = SearchMsg::Tracked {
            seq: 1,
            dead: vec![10, 20],
            inner: Box::new(SearchMsg::Refine(sq)),
        };
        assert_eq!(msg_bytes(&tracked, k), 25 + 73);
        let entry = crate::store::Entry {
            ring_key: 5,
            obj: ObjectId(1),
            point: vec![0.0; 3].into_boxed_slice(),
        };
        // Replicate = Publish + 8 bytes for the owner id.
        let pub_bytes = msg_bytes(
            &SearchMsg::Publish {
                index: 0,
                entry: entry.clone(),
                hops: 0,
            },
            k,
        );
        assert_eq!(
            msg_bytes(
                &SearchMsg::Replicate {
                    index: 0,
                    owner: 9,
                    entry,
                },
                k
            ),
            pub_bytes + 8
        );
    }

    /// The header audit: every variant pays its 20-byte header exactly
    /// once — batching `n` payloads into one message costs one header
    /// (not `n`), and a `Tracked` envelope adds only its own overhead on
    /// top of the inner payload (no second header). One case per
    /// variant.
    #[test]
    fn headers_are_never_double_counted() {
        let sq = SubQueryMsg {
            qid: 0,
            index: 0,
            rect: Rect::cube(10, 0.0, 1.0),
            prefix: Prefix::ROOT,
            hops: 0,
            origin: AgentId(0),
            ball: None,
            shortcut: false,
        };
        let k = |_: u8| 10usize;
        let per_sub = query_msg_bytes(1, 10) - 24; // 49 payload bytes
        let tracked = |inner: SearchMsg| SearchMsg::Tracked {
            seq: 1,
            dead: vec![3],
            inner: Box::new(inner),
        };
        let env = tracked_overhead_bytes(1);

        // Route: n subqueries share one 24-byte prologue.
        let route = SearchMsg::Route(vec![sq.clone(), sq.clone(), sq.clone()]);
        assert_eq!(msg_bytes(&route, k), 24 + 3 * per_sub);
        assert_eq!(
            msg_bytes(&tracked(route.clone()), k),
            env + 24 + 3 * per_sub
        );

        // Refine: the single-subquery form of the same model.
        let refine = SearchMsg::Refine(sq.clone());
        assert_eq!(msg_bytes(&refine, k), 24 + per_sub);
        assert_eq!(msg_bytes(&tracked(refine), k), env + 24 + per_sub);

        // Results: header + 6 bytes per entry, once.
        let results = SearchMsg::Results {
            qid: 0,
            hops: 2,
            entries: vec![(ObjectId(1), 0.5); 3],
            degraded: false,
        };
        assert_eq!(msg_bytes(&results, k), 20 + 18);
        assert_eq!(msg_bytes(&tracked(results), k), env + 20 + 18);

        // Publish / Replicate / Ack: fixed-size records, envelope adds
        // only its overhead.
        let entry = crate::store::Entry {
            ring_key: 5,
            obj: ObjectId(1),
            point: vec![0.0; 3].into_boxed_slice(),
        };
        let publish = SearchMsg::Publish {
            index: 0,
            entry: entry.clone(),
            hops: 0,
        };
        let pb = msg_bytes(&publish, k);
        assert_eq!(msg_bytes(&tracked(publish), k), env + pb);
        let replicate = SearchMsg::Replicate {
            index: 0,
            owner: 9,
            entry,
        };
        let rb = msg_bytes(&replicate, k);
        assert_eq!(msg_bytes(&tracked(replicate), k), env + rb);
        assert_eq!(
            msg_bytes(&tracked(SearchMsg::Ack { seq: 4 }), k),
            env + ack_msg_bytes()
        );
    }

    #[test]
    fn closure_oracle() {
        let oracle: DistanceOracle =
            Arc::new(|qid: QueryId, obj: ObjectId| (qid as f64) + (obj.0 as f64) * 0.1);
        assert_eq!(oracle.distance(2, ObjectId(5)), 2.5);
        // A closure knows only `distance`; `refine` forwards to it.
        assert_eq!(oracle.refine(2, ObjectId(5), None, &[9.0]), 2.5);
    }
}
