//! One round of sending: route the fragments an input brought, then send
//! each peer one `Route` batch and answer the local fragments.

use super::SearchNode;
use crate::msg::{msg_bytes, QueryId, SearchMsg, SubQueryMsg};
use crate::overlay::FailureAware;
use crate::routing::{route_into, Action};
use crate::telemetry::TraceEvent;
use simnet::{telemetry::CounterId as C, AgentId, ProtoCtx};
use std::collections::BTreeMap;

impl SearchNode {
    /// Route every fragment of one round against its index's grid and
    /// rotation — a fragment marked as a hand-off runs `SurrogateRefine`
    /// instead — recording routing events on each fragment's trace, then
    /// execute the round's actions at once so its outputs coalesce.
    ///
    /// Fragments route over the failure-aware view of the node's table:
    /// its suspicion set is empty unless resilience is on, and then the
    /// view decides as the table itself does. The naive baseline routes
    /// its decomposed cuboids through here too, unsplit.
    pub(super) fn route_all(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        fragments: Vec<SubQueryMsg>,
    ) {
        let me = ctx.me().0;
        let split = self.naive_level.is_none();
        let table = FailureAware::new(&self.table, self.suspected.as_set());
        let mut actions = Vec::new();
        for sq in fragments {
            let ix = &self.indexes[sq.index as usize];
            let qid = sq.qid;
            let mut sink = |ev| self.telemetry.record_routing(qid, me, ev);
            let (grid, rot) = (&ix.grid, ix.rotation);
            route_into(&table, grid, rot, sq, split, &mut sink, &mut actions);
        }
        self.execute(ctx, actions);
    }

    /// Execute routing actions: send each destination one `Route` batch
    /// (the paper's n-subquery message) of the fragments bound for it —
    /// forwards, and the surrogate hand-offs routing marked — and answer
    /// local fragments with one result message per query.
    pub(super) fn execute(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, actions: Vec<Action>) {
        // BTreeMaps, not HashMaps: iteration order decides message send
        // order, which decides simulated event order — telemetry
        // snapshots must not depend on the process's hash seed.
        let mut batches: BTreeMap<AgentId, Vec<SubQueryMsg>> = BTreeMap::new();
        // (qid, index) -> (max hops, fragments)
        let mut answers: BTreeMap<(QueryId, u8), (u32, Vec<SubQueryMsg>)> = BTreeMap::new();
        for a in actions {
            match a {
                Action::Send { to, mut sq } => {
                    sq.hops += 1;
                    batches.entry(to).or_default().push(sq);
                }
                Action::Answer(sq) => {
                    let slot = answers.entry((sq.qid, sq.index)).or_default();
                    slot.0 = slot.0.max(sq.hops);
                    slot.1.push(sq);
                }
            }
        }
        for (to, mut subs) in batches {
            // Deterministic order inside a batch.
            subs.sort_by_key(|s| (s.qid, s.prefix.key(), s.prefix.len()));
            self.send_query(ctx, to, subs);
        }
        for ((qid, index), (hops, fragments)) in answers {
            self.answer(ctx, qid, index, hops, fragments);
        }
    }

    /// Price, trace and send one query-delivery `Route` batch. The
    /// query's trace records a `Forward` with its fragment count, which
    /// is what the query's `query_bytes` and `query_msgs` are read from;
    /// a batch mixing forwards and hand-offs is priced as a `Route` of
    /// the same arity. A batch carries one query's fragments only: each
    /// round of actions comes from one input, and an input names one
    /// query.
    fn send_query(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        to: AgentId,
        subs: Vec<SubQueryMsg>,
    ) {
        let (qid, n) = (subs[0].qid, subs.len());
        for s in &subs {
            self.incr_index(s.index, "routed", 1);
        }
        let msg = SearchMsg::Route(subs);
        let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
        let forward = TraceEvent::Forward {
            from: ctx.me().0,
            to: to.0,
            subqueries: n as u32,
            bytes,
        };
        let mut st = self.telemetry.lock();
        st.push(qid, &forward);
        st.registry.incr_id(C::SearchMsgsRoute, 1);
        st.registry.incr_id(C::SearchBytesQuery, bytes as u64);
        drop(st);
        self.send_search(ctx, to, msg, bytes);
    }
}
