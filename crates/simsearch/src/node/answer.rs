//! The answer path: scan the local store for one query's fragments, rank
//! the candidates by true distance, and send and trace the `Results` reply.

use super::{insert_ranked, AnswerCore, SearchNode};
use crate::msg::{result_msg_bytes, QueryId, SearchMsg, SubQueryMsg};
use crate::telemetry::TraceEvent;
use metric::ObjectId;
use simnet::{telemetry::CounterId as C, AgentId, ProtoCtx};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of one answer's object-dedup set, in place of SipHash: a
/// Fibonacci multiply of the `u32` id with the high half folded into the
/// low bits the table indexes by. It is unkeyed and publishers choose
/// object ids, but the set lives for one answer and holds at most that
/// answer's hits, which bounds what colliding ids can cost. The
/// qid-keyed maps, whose keys clients choose, stay on SipHash.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32((self.0 as u32).rotate_left(8) ^ u32::from(b));
        }
    }
}

impl SearchNode {
    /// Answer a set of fragments of one query from the local store: the
    /// node's `k` nearest matching entries by true distance (the paper's
    /// refinement + top-10 reply).
    pub(super) fn answer(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        qid: QueryId,
        index: u8,
        hops: u32,
        fragments: Vec<SubQueryMsg>,
    ) {
        let core = self.collect_answer(qid, index, &fragments);
        let bytes = result_msg_bytes(core.ranked.len());
        self.record_answer(ctx.me(), qid, index, hops, &core, bytes);
        let msg = SearchMsg::Results {
            qid,
            hops,
            entries: core.ranked,
            degraded: core.degraded,
        };
        self.send_search(ctx, fragments[0].origin, msg, bytes);
    }

    /// Account one local answer of `bytes` on the wire: the `Answer`
    /// event on the query's trace (its result bytes among them), the
    /// result message, and the store, refinement, resilience and
    /// per-index counters of the scan behind it.
    fn record_answer(
        &mut self,
        at: AgentId,
        qid: QueryId,
        index: u8,
        hops: u32,
        core: &AnswerCore,
        bytes: u32,
    ) {
        let mut st = self.telemetry.lock();
        st.push(
            qid,
            &TraceEvent::Answer {
                at: at.0,
                hops,
                scanned: core.scanned,
                matched: core.matched,
                returned: core.ranked.len() as u64,
                bytes,
            },
        );
        let reg = &mut st.registry;
        reg.incr_id(C::SearchMsgsResults, 1);
        reg.incr_id(C::SearchBytesResults, bytes as u64);
        reg.incr_id(C::StoreEntriesScanned, core.scanned);
        reg.incr_id(C::StoreEntriesMatched, core.matched);
        reg.incr_id(C::StoreEntriesSkipped, core.skipped);
        reg.incr_id(C::SearchRefineDistCalls, core.dist_calls);
        if core.pruned > 0 {
            reg.incr_id(C::SearchRefinePruned, core.pruned);
        }
        if core.replica_answers > 0 {
            reg.incr_id(C::ResilienceReplicaAnswers, core.replica_answers);
        }
        if core.degraded {
            reg.incr_id(C::ResilienceDegradedAnswers, 1);
        }
        drop(st);
        self.incr_index(index, "answers", 1);
        self.incr_index(index, "scanned", core.scanned);
        self.incr_index(index, "dist_calls", core.dist_calls);
    }

    /// The answering core of [`Self::answer`]: scan the fragments' ring
    /// spans, dedup and radius-prune candidates, answer replicas for
    /// suspected owners, detect degradation, and rank by true distance.
    pub(super) fn collect_answer<'s>(
        &'s self,
        qid: QueryId,
        index: u8,
        fragments: &[SubQueryMsg],
    ) -> AnswerCore {
        let resilient = self.resilience.is_some();
        let ix = &self.indexes[index as usize];
        // Every fragment of one query shares the same ball, so any copy
        // serves for refinement pruning.
        let ball = fragments[0].ball.clone();
        // Each fragment's region occupies a contiguous ring-key span (the
        // hash is monotone; see `lph::Grid::key_span`), so the ordered
        // store is binary-searched down to that span instead of scanned
        // end to end.
        let span = |f: &SubQueryMsg| {
            let (lo, hi) = ix.grid.key_span(&f.rect);
            (ix.rotation.to_ring(lo), ix.rotation.to_ring(hi))
        };
        // Collect matching entries over all fragments, each object once
        // however many fragments (a point on a split face lies in both
        // halves) or stored copies (an object published twice) or replica
        // copies match it: the first sighting, in scan order, decides. A
        // candidate carries its pivot lower bound if the range test
        // computed one and the admitted copy's stored vector, borrowed
        // for refinement; candidates provably outside the metric range
        // are dropped before refinement.
        let bounds = ix.grid.bounds();
        // Every candidate lies in some fragment's rect, so its pivot
        // lower bound is at most `reach` (`QueryBall::reach`), and at
        // most the radius when every coordinate lies in `safe`
        // (`QueryBall::narrow_safe`). A prune test these settle needs no
        // bound. A ball-less query prunes nothing.
        let reach = ball.as_ref().map(|b| {
            fragments
                .iter()
                .fold(0.0f64, |r, f| r.max(b.reach(&f.rect, bounds)))
        });
        let cannot_exceed = |limit: f64| reach.is_none_or(|r| r <= limit);
        let mut safe = Vec::new();
        if let Some(b) = &ball {
            safe.resize(
                b.center.len().min(bounds.dims()),
                (f64::NEG_INFINITY, f64::INFINITY),
            );
            for f in fragments {
                b.narrow_safe(&f.rect, bounds, b.radius, &mut safe);
            }
        }
        let in_safe = |p: &[f64]| p.iter().zip(&safe).all(|(&x, &(a, b))| a <= x && x <= b);
        let mut hits = Vec::new();
        let (mut scanned, mut matched, mut skipped) = (0u64, 0u64, 0u64);
        for f in fragments {
            let work = ix.store.scan_into(&f.rect, span(f), &mut hits);
            scanned += work.scanned as u64;
            matched += work.matched as u64;
            skipped += work.skipped as u64;
        }
        // Sized up front: growing a hash set rehashes it again and again.
        let mut seen: HashSet<ObjectId, BuildHasherDefault<IdHasher>> =
            HashSet::with_capacity_and_hasher(hits.len(), Default::default());
        let mut cands: Vec<(ObjectId, Option<f64>, &'s [f64])> = Vec::with_capacity(hits.len());
        let mut pruned = 0u64;
        // The pivot lower bound of one new candidate, computed at most
        // once: by the range test here unless `safe` settles it, else by
        // the k-th-best test below unless `reach` settles that. The range
        // test can fire only within rounding of the faces while the
        // fragment's rect lies inside the ball's own bounding box, which
        // is how every driver in this repository builds its queries; it
        // stays as the guard for a caller whose rect is looser than its
        // ball. Strict `>`: a NaN bound excludes nothing.
        let mut admit = |obj: ObjectId, point: &'s [f64]| -> bool {
            let range_test = ball.as_ref().filter(|_| !in_safe(point));
            let lb = range_test.map(|b| b.lower_bound(point, bounds));
            if lb.zip(range_test).is_some_and(|(lb, b)| lb > b.radius) {
                pruned += 1;
                return false;
            }
            cands.push((obj, lb, point));
            true
        };
        for e in hits {
            if seen.insert(e.obj) {
                admit(e.obj, e.point);
            }
        }
        // Resilient mode: also answer, on behalf of suspected-dead
        // owners, the replica copies they pushed here. Safe even when the
        // suspicion is false — the origin deduplicates by object.
        let mut replica_answers = 0u64;
        if resilient && !self.suspected.is_empty() {
            for f in fragments {
                let (reps, _) = ix.store.replicas_in_span(span(f));
                for (owner, e) in reps {
                    if !self.suspected.contains(*owner) || !f.rect.contains_point(&e.point) {
                        continue;
                    }
                    if seen.insert(e.obj) && admit(e.obj, &e.point) {
                        replica_answers += 1;
                    }
                }
            }
        }
        // Degraded detection: a suspected node whose identifier falls in
        // a queried fragment's ring arc, or between the arc's start and
        // this node (whose range it left to us, arc keys included), may
        // have taken owned entries down with it; if we hold no replicas
        // for it, say so rather than letting recall silently shrink.
        let mut degraded = false;
        if resilient {
            let me = self.table.me().id.0;
            for s in self.suspected.iter() {
                let in_queried_range = fragments.iter().any(|f| {
                    let (start, end) = ix.rotation.ring_arc(f.prefix);
                    let reach = end.wrapping_sub(start).max(me.wrapping_sub(start));
                    s.wrapping_sub(start) <= reach
                });
                if in_queried_range && !ix.store.replicas().iter().any(|(o, _)| *o == s) {
                    degraded = true;
                    break;
                }
            }
        }
        // Refinement: rank candidates by true metric distance, keeping
        // the node's k best in sorted order as we go. Once k distances
        // are known, a candidate whose lower bound exceeds the current
        // k-th distance cannot enter the reply, so its (potentially
        // expensive) metric call is skipped. Strict `>` means ties — and
        // NaN bounds or distances — fall through to the metric call, so
        // the reply is identical to the unpruned sort-then-truncate.
        let mut ranked: Vec<(ObjectId, f64)> = Vec::with_capacity(self.knn_k);
        let mut dist_calls = 0u64;
        for (o, lb, point) in cands {
            if ranked.len() == self.knn_k {
                if let (Some(b), Some(&(_, worst))) = (&ball, ranked.last()) {
                    let bound = || lb.unwrap_or_else(|| b.lower_bound(point, bounds));
                    if !cannot_exceed(worst) && bound() > worst {
                        pruned += 1;
                        continue;
                    }
                }
            }
            let d = self.oracle.refine(qid, o, ball.as_ref(), point);
            dist_calls += 1;
            insert_ranked(&mut ranked, (o, d), self.knn_k);
        }
        AnswerCore {
            ranked,
            degraded,
            scanned,
            matched,
            skipped,
            pruned,
            dist_calls,
            replica_answers,
        }
    }
}
