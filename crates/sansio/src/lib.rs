//! # sansio — the transport-agnostic protocol core contract
//!
//! The protocol logic of this repository (the landmark search nodes in
//! `simsearch::node` and the Chord maintenance in `chord::protocol`) is
//! written against this crate instead of against a concrete transport:
//! a protocol is a **pure state machine** that consumes one [`Input`] —
//! an inbound message, a timer firing — at a known instant, and emits a
//! buffered sequence of [`Output`]s (sends with destinations and
//! modelled byte sizes, timer registrations). It never blocks, never
//! touches a socket, and never references `simnet::Sim`.
//!
//! Two drivers exist:
//!
//! * the deterministic discrete-event simulator ([`simnet`]) — the thin
//!   adapter is [`drive`], which buffers the outputs of one callback and
//!   replays them through `simnet::Ctx` **in exact call order**, so the
//!   event queue's `(time, seq)` ordering (and therefore every golden
//!   snapshot) is byte-identical to the historical direct-call code;
//! * the real-socket node runtime (`crates/node`) — a `std::net` TCP
//!   loop that feeds inbound frames and expired timers in as [`Input`]s
//!   and pushes each [`Output::Send`] to the per-peer writer thread.
//!
//! ## Driver contract
//!
//! A driver must, for each input, construct a [`ProtoCtx`] carrying the
//! current time, the node's own id, the population size, and a
//! [`Links`] latency oracle; dispatch exactly one protocol callback;
//! then consume [`ProtoCtx::into_outputs`] and act on every output **in
//! order**: `Send` before `Timer` only if the protocol emitted them in
//! that order. Timer semantics are one-shot: each [`Output::Timer`]
//! arms one future [`Input::Timer`] firing with the same tag after
//! `delay`; protocols that want periodic timers re-arm from the firing.
//! Timers are never cancelled by the driver — protocols tolerate stale
//! firings by checking their own state (and, in the simulator, a
//! crashed host's pending timers are silently discarded).
//!
//! Because the time types are the simulation clock's integer-nanosecond
//! [`SimTime`]/[`SimDuration`] values, both drivers share one notion of
//! time; the socket runtime maps them onto a monotonic wall clock.

use simnet::{AgentId, Ctx, SimDuration, SimTime, TimerTag};

/// One stimulus for a protocol state machine.
#[derive(Clone, Debug)]
pub enum Input<M> {
    /// The node has just come up for the first time (time zero in the
    /// simulator; process start in the socket runtime).
    Start,
    /// An inbound message from `from` has arrived.
    Message {
        /// The sender's id.
        from: AgentId,
        /// The message payload.
        msg: M,
    },
    /// A timer previously armed via [`Output::Timer`] has expired.
    Timer(TimerTag),
    /// The node has come back up after a crash (its timers were lost).
    Restart,
}

/// One effect a protocol state machine wants its driver to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum Output<M> {
    /// Transmit `msg` to `to`; `bytes` is the modelled wire size from
    /// the paper's §4.1 pricing (`simsearch::msg`/`chord::protocol`
    /// `msg_bytes`) and feeds bandwidth accounting in the simulator; the
    /// socket runtime ignores it.
    Send {
        /// Destination node.
        to: AgentId,
        /// The message payload.
        msg: M,
        /// Modelled wire size in bytes.
        bytes: u32,
    },
    /// Arm a one-shot timer: deliver [`Input::Timer`] with `tag` after
    /// `delay`.
    Timer {
        /// How far in the future the timer fires.
        delay: SimDuration,
        /// Opaque tag handed back at firing time.
        tag: TimerTag,
    },
}

/// A driver-supplied latency oracle: the round-trip time from the node
/// being driven to `other`. The simulator answers from its topology
/// matrix; the socket runtime answers with a measured or constant
/// estimate. Protocols use it for proximity neighbor selection and for
/// sizing retransmission timeouts — never for correctness.
pub trait Links {
    /// Round-trip time from the current node to `other`.
    fn rtt_to(&self, other: AgentId) -> SimDuration;
}

/// The capability handle a driver passes to protocol callbacks: read
/// access to the clock/identity/topology, plus an output buffer. The
/// mirror of `simnet::Ctx`, minus everything that would couple the
/// protocol to the simulator (no RNG, no direct queue access).
pub struct ProtoCtx<'a, M> {
    me: AgentId,
    now: SimTime,
    n_agents: usize,
    links: &'a dyn Links,
    out: Vec<Output<M>>,
}

impl<'a, M> ProtoCtx<'a, M> {
    /// Build a context for one callback dispatch.
    pub fn new(me: AgentId, now: SimTime, n_agents: usize, links: &'a dyn Links) -> Self {
        ProtoCtx {
            me,
            now,
            n_agents,
            links,
            out: Vec::new(),
        }
    }

    /// Current time (simulated or wall-mapped, depending on the driver).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback is running on.
    pub fn me(&self) -> AgentId {
        self.me
    }

    /// Total number of nodes in the deployment.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// Round-trip time between this node and `other`.
    pub fn rtt_to(&self, other: AgentId) -> SimDuration {
        self.links.rtt_to(other)
    }

    /// Buffer a send of `msg` to `dst`; `bytes` is the modelled wire
    /// size. Outputs are replayed by the driver in emission order.
    pub fn send(&mut self, dst: AgentId, msg: M, bytes: u32) {
        self.out.push(Output::Send {
            to: dst,
            msg,
            bytes,
        });
    }

    /// Buffer a one-shot timer registration firing after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, tag: TimerTag) {
        self.out.push(Output::Timer { delay, tag });
    }

    /// Consume the context, yielding the buffered outputs in the exact
    /// order the protocol emitted them.
    pub fn into_outputs(self) -> Vec<Output<M>> {
        self.out
    }
}

/// A sans-io protocol state machine. The shape mirrors `simnet::Agent`
/// callback for callback, but over [`ProtoCtx`], so the same state and
/// logic runs unchanged under any driver.
pub trait Protocol {
    /// The message type exchanged between nodes of this protocol.
    type Msg;

    /// Called once when the node first comes up.
    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_, Self::Msg>) {}

    /// Called for each inbound message.
    fn on_message(&mut self, ctx: &mut ProtoCtx<'_, Self::Msg>, from: AgentId, msg: Self::Msg);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, _ctx: &mut ProtoCtx<'_, Self::Msg>, _tag: TimerTag) {}

    /// Called when the host crashes. No context: a crashed node cannot
    /// send or schedule; its armed timers are lost.
    fn on_crash(&mut self) {}

    /// Called when a crashed host comes back up.
    fn on_restart(&mut self, _ctx: &mut ProtoCtx<'_, Self::Msg>) {}
}

/// Adapts a `simnet::Ctx` into a [`Links`] oracle for the node the
/// callback is running on.
struct CtxLinks<'b, 'a, M>(&'b Ctx<'a, M>);

impl<M> Links for CtxLinks<'_, '_, M> {
    fn rtt_to(&self, other: AgentId) -> SimDuration {
        self.0.rtt_to(other)
    }
}

/// Dispatch `input` to the matching [`Protocol`] callback.
pub fn dispatch<P: Protocol>(p: &mut P, ctx: &mut ProtoCtx<'_, P::Msg>, input: Input<P::Msg>) {
    match input {
        Input::Start => p.on_start(ctx),
        Input::Message { from, msg } => p.on_message(ctx, from, msg),
        Input::Timer(tag) => p.on_timer(ctx, tag),
        Input::Restart => p.on_restart(ctx),
    }
}

/// The simulator driver: run one protocol callback under `ctx`,
/// buffering its outputs, then replay them through the simulator in
/// exact emission order. Because the simulator's event queue orders
/// simultaneous events by push sequence, and a callback's pushes were
/// always contiguous (the event loop is single-threaded), this buffered
/// replay produces the *identical* event sequence — and therefore
/// byte-identical telemetry — as the historical code that called
/// `ctx.send`/`ctx.schedule` directly from protocol methods.
pub fn drive<P: Protocol>(p: &mut P, ctx: &mut Ctx<'_, P::Msg>, input: Input<P::Msg>)
where
    P::Msg: Clone,
{
    let outputs = {
        let links = CtxLinks(&*ctx);
        let mut pctx = ProtoCtx::new(ctx.me(), ctx.now(), ctx.n_agents(), &links);
        dispatch(p, &mut pctx, input);
        pctx.into_outputs()
    };
    for out in outputs {
        match out {
            Output::Send { to, msg, bytes } => ctx.send(to, msg, bytes),
            Output::Timer { delay, tag } => ctx.schedule(delay, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlatLinks;
    impl Links for FlatLinks {
        fn rtt_to(&self, _other: AgentId) -> SimDuration {
            SimDuration::from_millis(10)
        }
    }

    /// Emits one send and one timer per message, in that order.
    struct Echo;
    impl Protocol for Echo {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut ProtoCtx<'_, u32>, from: AgentId, msg: u32) {
            ctx.send(from, msg + 1, 20);
            ctx.schedule(ctx.rtt_to(from), TimerTag(7));
        }
    }

    #[test]
    fn outputs_preserve_emission_order() {
        let links = FlatLinks;
        let mut ctx = ProtoCtx::new(AgentId(0), SimTime::from_secs(1), 4, &links);
        assert_eq!(ctx.me(), AgentId(0));
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        assert_eq!(ctx.n_agents(), 4);
        Echo.on_message(&mut ctx, AgentId(3), 41);
        let out = ctx.into_outputs();
        assert_eq!(
            out,
            vec![
                Output::Send {
                    to: AgentId(3),
                    msg: 42,
                    bytes: 20
                },
                Output::Timer {
                    delay: SimDuration::from_millis(10),
                    tag: TimerTag(7)
                },
            ]
        );
    }

    #[test]
    fn dispatch_routes_every_input() {
        struct Tally {
            starts: u32,
            msgs: u32,
            timers: u32,
            restarts: u32,
        }
        impl Protocol for Tally {
            type Msg = ();
            fn on_start(&mut self, _ctx: &mut ProtoCtx<'_, ()>) {
                self.starts += 1;
            }
            fn on_message(&mut self, _ctx: &mut ProtoCtx<'_, ()>, _from: AgentId, _msg: ()) {
                self.msgs += 1;
            }
            fn on_timer(&mut self, _ctx: &mut ProtoCtx<'_, ()>, _tag: TimerTag) {
                self.timers += 1;
            }
            fn on_restart(&mut self, _ctx: &mut ProtoCtx<'_, ()>) {
                self.restarts += 1;
            }
        }
        let mut t = Tally {
            starts: 0,
            msgs: 0,
            timers: 0,
            restarts: 0,
        };
        let links = FlatLinks;
        for input in [
            Input::Start,
            Input::Message {
                from: AgentId(1),
                msg: (),
            },
            Input::Timer(TimerTag(0)),
            Input::Restart,
        ] {
            let mut ctx = ProtoCtx::new(AgentId(0), SimTime::ZERO, 1, &links);
            dispatch(&mut t, &mut ctx, input);
        }
        assert_eq!((t.starts, t.msgs, t.timers, t.restarts), (1, 1, 1, 1));
    }
}
