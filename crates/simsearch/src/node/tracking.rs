//! Tracked sends and replication: the envelope and its retransmit timer,
//! re-routing around a silent peer, and copies to ring successors.

use super::{PendingSend, SearchNode};
use crate::msg::{msg_bytes, tracked_overhead_bytes, SearchMsg};
use crate::store::Entry;
use simnet::{telemetry::CounterId as C, AgentId, ProtoCtx, TimerTag};

impl SearchNode {
    /// Send an index-layer message, wrapping it in a tracked envelope
    /// (with retransmit timer) when resilience is on. Self-sends and the
    /// non-resilient path go out unwrapped, exactly as before.
    pub(super) fn send_search(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        to: AgentId,
        msg: SearchMsg,
        bytes: u32,
    ) {
        let Some(rc) = &self.resilience else {
            ctx.send(to, msg, bytes);
            return;
        };
        if to == ctx.me() {
            ctx.send(to, msg, bytes);
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let dead: Vec<u64> = self.suspected.iter().collect();
        let wire_bytes = bytes + tracked_overhead_bytes(dead.len());
        let wire = SearchMsg::Tracked {
            seq,
            dead,
            inner: Box::new(msg.clone()),
        };
        let dst_id = self
            .table
            .known_nodes()
            .into_iter()
            .find(|n| n.addr == to)
            .map(|n| n.id.0);
        let timeout = rc.timeout_for(ctx.rtt_to(to));
        self.pending.insert(
            seq,
            PendingSend {
                to,
                dst_id,
                msg,
                bytes,
                attempts: 0,
                first_timeout: timeout,
            },
        );
        self.telemetry.incr_id(C::ResilienceTrackedSent, 1);
        ctx.schedule(timeout, TimerTag(seq));
        ctx.send(to, wire, wire_bytes);
    }

    /// A tracked send ran out of retries: suspect the destination and
    /// route the payload around it.
    pub(super) fn redispatch(&mut self, ctx: &mut ProtoCtx<'_, SearchMsg>, msg: SearchMsg) {
        match msg {
            // The next hop or surrogate died: re-route every fragment
            // from here; failure-aware routing finds the next live owner
            // around the suspicion set above. Hand-off marks are cleared
            // first: the dead node was the owner they named.
            SearchMsg::Route(mut subs) => {
                subs.iter_mut().for_each(|sq| sq.shortcut = false);
                self.route_all(ctx, subs)
            }
            SearchMsg::Publish { index, entry, hops } => self.on_publish(ctx, index, entry, hops),
            // The query's origin is gone; there is nowhere else for its
            // results to go. Count the loss instead of hiding it.
            SearchMsg::Results { .. } => self.telemetry.incr_id(C::ResilienceResultsLost, 1),
            // The chosen replica holder is dead: the entry keeps fewer
            // copies until the next re-replication pass.
            SearchMsg::Replicate { .. } => self.telemetry.incr_id(C::ResilienceReplicasLost, 1),
            // Never wrapped in tracked envelopes (nodes send hand-offs
            // marked inside `Route` batches, never as a `Refine`).
            SearchMsg::Issue(_)
            | SearchMsg::Refine(_)
            | SearchMsg::Tracked { .. }
            | SearchMsg::Ack { .. } => {}
        }
    }

    /// Push one owned entry to this node's first `replication - 1` live
    /// ring successors (no-op outside resilient mode).
    pub(super) fn replicate_out(
        &mut self,
        ctx: &mut ProtoCtx<'_, SearchMsg>,
        index: u8,
        entry: Entry,
    ) {
        let Some(rc) = &self.resilience else {
            return;
        };
        if rc.replication <= 1 {
            return;
        }
        let want = rc.replication - 1;
        let me = self.table.me();
        let targets: Vec<_> = self
            .table
            .successors()
            .iter()
            .copied()
            .filter(|s| s.addr != me.addr && !self.suspected.contains(s.id.0))
            .take(want)
            .collect();
        for s in targets {
            let msg = SearchMsg::Replicate {
                index,
                owner: me.id.0,
                entry: entry.clone(),
            };
            let bytes = msg_bytes(&msg, |ix| self.k_of(ix));
            self.telemetry.incr_id(C::SearchMsgsReplicate, 1);
            self.telemetry
                .incr_id(C::SearchBytesReplicate, bytes as u64);
            self.send_search(ctx, s.addr, msg, bytes);
        }
    }
}
