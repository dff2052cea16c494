//! The simulator: one [`Protocol`] per host, and the event loop that
//! dispatches each event to its host and applies the outputs itself.

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlane;
use crate::protocol::{self, Input, Links, Output, ProtoCtx, Protocol};
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Identifies one simulated host/agent. Agent ids index both the agent
/// vector and the latency matrix.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub usize);

/// Everything except the agents themselves: clock, queue, network model.
struct Core<M> {
    now: SimTime,
    queue: EventQueue<M>,
    topo: Topology,
    stats: NetStats,
    /// Fault-injection configuration (default: strict no-op).
    faults: FaultPlane,
    /// Independent RNG streams, one per fault kind, so enabling one
    /// fault never perturbs the draw sequence of another.
    drop_rng: SimRng,
    dup_rng: SimRng,
    spike_rng: SimRng,
    /// Liveness per agent; down hosts silently discard messages and
    /// timers until their scheduled restart.
    down: Vec<bool>,
}

impl<M: Clone> Core<M> {
    /// Apply the outputs host `me` emitted in one callback, in emission
    /// order, leaving `out` empty with its capacity kept. A send to
    /// oneself is queued with zero delay, does not count as network
    /// traffic, and is exempt from every fault (it never touches the
    /// wire); every other send takes [`Core::deliver_cross`]. A timer
    /// fires on `me` after its delay.
    fn apply(&mut self, me: AgentId, out: &mut Vec<Output<M>>) {
        let at = self.now;
        for output in out.drain(..) {
            match output {
                Output::Send { to, msg, .. } if to == me => {
                    self.queue
                        .push(at, me, EventKind::Deliver { from: me, msg });
                }
                Output::Send { to, msg, bytes } => self.deliver_cross(at, me, to, msg, bytes),
                Output::Timer { delay, tag } => {
                    self.queue.push(at + delay, me, EventKind::Timer { tag });
                }
            }
        }
    }

    /// The full cross-host delivery path with every fault draw. `at` is
    /// the simulated instant the message was sent; `src != dst`.
    fn deliver_cross(&mut self, at: SimTime, src: AgentId, dst: AgentId, msg: M, bytes: u32) {
        debug_assert_ne!(src, dst, "self-sends never touch the wire");
        let faults = &self.faults;
        self.stats.on_send(bytes);
        if faults.drop_rate > 0.0 && self.drop_rng.f64() < faults.drop_rate {
            // Lost on the wire: it consumed bandwidth but never
            // arrives. Loss applies only to cross-host traffic.
            self.stats.dropped += 1;
            return;
        }
        if faults.partitioned(at, src.0, dst.0) {
            self.stats.partitioned += 1;
            return;
        }
        let mut delay = self.topo.one_way(src.0, dst.0);
        if faults.spike_rate > 0.0 && self.spike_rng.f64() < faults.spike_rate {
            delay = SimDuration(((delay.0 as f64) * faults.spike_factor).round() as u64);
            self.stats.spiked += 1;
        }
        if faults.dup_rate > 0.0 && self.dup_rng.f64() < faults.dup_rate {
            // The duplicate trails the original by one extra
            // propagation delay, as if retransmitted by the network.
            // Invariant: this is the only place delivery clones the
            // message — fan-out is 2 here (duplicate + original), and
            // every other path below moves `msg` into the queue. Keep
            // it that way: `Clone` on a `SearchMsg` copies the whole
            // entry/result payload, and the common path must stay
            // zero-copy (`send_is_zero_copy_without_dup_faults`).
            self.stats.duplicated += 1;
            self.queue.push(
                at + delay + delay,
                dst,
                EventKind::Deliver {
                    from: src,
                    msg: msg.clone(),
                },
            );
        }
        self.queue
            .push(at + delay, dst, EventKind::Deliver { from: src, msg });
    }
}

/// The [`Links`] of a callback on host `.1`: round-trip times from `.0`.
struct TopoLinks<'a>(&'a Topology, usize);

impl Links for TopoLinks<'_> {
    fn rtt_to(&self, other: AgentId) -> SimDuration {
        self.0.rtt(self.1, other.0)
    }
}

/// A complete simulation: a topology, one [`Protocol`] agent per host,
/// and an event queue. See the crate docs for a usage example.
pub struct Sim<P: Protocol> {
    core: Core<P::Msg>,
    agents: Vec<P>,
    /// The one output buffer every callback fills and
    /// [`Core::apply`] drains, so no callback allocates its own.
    out: Vec<Output<P::Msg>>,
    started: bool,
}

impl<P: Protocol> Sim<P>
where
    P::Msg: Clone,
{
    /// Build a simulation. `agents.len()` must equal `topo.len()`.
    pub fn new(topo: Topology, agents: Vec<P>, seed: u64) -> Self {
        assert_eq!(
            topo.len(),
            agents.len(),
            "one agent per topology host required"
        );
        let n = agents.len();
        Sim {
            core: Core {
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                topo,
                stats: NetStats::default(),
                faults: FaultPlane::default(),
                drop_rng: SimRng::new(seed).fork(0x1055),
                dup_rng: SimRng::new(seed).fork(0xD0B1),
                spike_rng: SimRng::new(seed).fork(0x5B1C),
                down: vec![false; n],
            },
            agents,
            out: Vec::new(),
            started: false,
        }
    }

    /// Drop each cross-host message independently with probability
    /// `rate` (0.0 = reliable network, the default). Deterministic in
    /// the simulation seed. Shorthand for configuring only the drop
    /// fault of [`Sim::set_faults`].
    pub fn set_loss_rate(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1)");
        self.core.faults.drop_rate = rate;
    }

    /// Install a fault-injection configuration. Each fault kind draws
    /// from its own RNG stream forked off the simulation seed, so runs
    /// are reproducible and enabling one fault does not perturb the
    /// draw sequence of the others.
    pub fn set_faults(&mut self, faults: FaultPlane) {
        faults.validate();
        self.core.faults = faults;
    }

    /// The active fault configuration.
    pub fn faults(&self) -> &FaultPlane {
        &self.core.faults
    }

    /// Schedule `who` to crash at absolute time `at`. While down the
    /// host discards every message and timer addressed to it; its agent
    /// state survives (a crash models a reboot, not a disk wipe).
    pub fn schedule_crash(&mut self, at: SimTime, who: AgentId) {
        assert!(at >= self.core.now, "cannot schedule a crash in the past");
        self.core.queue.push(at, who, EventKind::Crash);
    }

    /// Schedule `who` to come back up at absolute time `at`.
    pub fn schedule_restart(&mut self, at: SimTime, who: AgentId) {
        assert!(at >= self.core.now, "cannot schedule a restart in the past");
        self.core.queue.push(at, who, EventKind::Restart);
    }

    /// Is `who` currently crashed?
    pub fn is_down(&self, who: AgentId) -> bool {
        self.core.down[who.0]
    }

    /// Inject an external message for `dst`, delivered at absolute time
    /// `at` (which must not be in the simulation's past). The `from` field
    /// seen by the agent is its own id. Use this to feed workload events
    /// (queries, joins) into the simulation.
    pub fn inject(&mut self, at: SimTime, dst: AgentId, msg: P::Msg) {
        assert!(at >= self.core.now, "cannot inject into the past");
        self.core
            .queue
            .push(at, dst, EventKind::Deliver { from: dst, msg });
    }

    /// Run `on_start` for every agent (in id order) at the current time.
    /// Called automatically by [`Sim::run`] if it hasn't happened yet.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            self.dispatch(AgentId(i), Input::Start);
        }
    }

    /// Run one callback of host `me` at the current time, then apply its
    /// outputs. The callback fills the simulation's one output buffer.
    fn dispatch(&mut self, me: AgentId, input: Input<P::Msg>) {
        let links = TopoLinks(&self.core.topo, me.0);
        let out = std::mem::take(&mut self.out);
        let mut ctx = ProtoCtx::with_buffer(me, self.core.now, self.core.topo.len(), &links, out);
        protocol::dispatch(&mut self.agents[me.0], &mut ctx, input);
        self.out = ctx.into_outputs();
        self.core.apply(me, &mut self.out);
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.core.now, "event queue went backwards");
        self.core.now = ev.time;
        self.core.stats.events += 1;
        let dst = ev.dst;
        match ev.kind {
            EventKind::Crash => {
                self.core.down[dst.0] = true;
                self.core.stats.crashes += 1;
                self.agents[dst.0].on_crash();
                return true;
            }
            EventKind::Restart => {
                self.core.down[dst.0] = false;
                self.core.stats.restarts += 1;
                self.dispatch(dst, Input::Restart);
                return true;
            }
            _ => {}
        }
        if self.core.down[dst.0] {
            // A down host discards everything addressed to it. Timers
            // vanish for good; crashed agents re-arm via `on_restart`.
            if matches!(ev.kind, EventKind::Deliver { .. }) {
                self.core.stats.dropped_down += 1;
            }
            return true;
        }
        match ev.kind {
            EventKind::Deliver { from, msg } => self.dispatch(dst, Input::Message { from, msg }),
            EventKind::Timer { tag } => {
                self.dispatch(dst, Input::Timer(tag));
                self.core.stats.timers += 1;
            }
            EventKind::Crash | EventKind::Restart => unreachable!("handled above"),
        }
        true
    }

    /// Run until the event queue drains.
    pub fn run(&mut self) {
        self.start();
        while self.step() {}
    }

    /// Run until the queue drains or the next event would fire after
    /// `horizon`; events at exactly `horizon` are processed.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.start();
        while let Some(t) = self.core.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
        if self.core.now < horizon {
            self.core.now = horizon;
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Aggregate network counters.
    pub fn stats(&self) -> NetStats {
        let mut stats = self.core.stats;
        stats.peak_queue = self.core.queue.peak_len() as u64;
        stats
    }

    /// The latency model.
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Immutable access to one agent.
    pub fn agent(&self, id: AgentId) -> &P {
        &self.agents[id.0]
    }

    /// Mutable access to one agent (for setup between phases; do not
    /// mutate agents while events that concern them are in flight unless
    /// the protocol tolerates it).
    pub fn agent_mut(&mut self, id: AgentId) -> &mut P {
        &mut self.agents[id.0]
    }

    /// Iterate over all agents.
    pub fn agents(&self) -> impl Iterator<Item = &P> {
        self.agents.iter()
    }

    /// Split borrow: the latency model together with mutable access to
    /// every agent. For between-phase maintenance (e.g. load migration)
    /// that must read the topology while rewriting agent state.
    pub fn topology_and_agents_mut(&mut self) -> (&Topology, &mut [P]) {
        (&self.core.topo, &mut self.agents)
    }

    /// Consume the simulation and return its agents.
    pub fn into_agents(self) -> Vec<P> {
        self.agents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimerTag;

    /// Echo server: replies to every Ping with a Pong. An agent given a
    /// peer pings it once on start; every agent records when each Ping
    /// and Pong reached it.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum PingMsg {
        Ping,
        Pong,
    }

    struct PingAgent {
        peer: Option<AgentId>,
        pings: Vec<SimTime>,
        pongs: Vec<SimTime>,
        started: bool,
    }

    impl Protocol for PingAgent {
        type Msg = PingMsg;
        fn on_start(&mut self, ctx: &mut ProtoCtx<'_, PingMsg>) {
            self.started = true;
            if let Some(peer) = self.peer {
                ctx.send(peer, PingMsg::Ping, 20);
            }
        }
        fn on_message(&mut self, ctx: &mut ProtoCtx<'_, PingMsg>, from: AgentId, msg: PingMsg) {
            match msg {
                PingMsg::Ping => {
                    self.pings.push(ctx.now());
                    ctx.send(from, PingMsg::Pong, 20);
                }
                PingMsg::Pong => self.pongs.push(ctx.now()),
            }
        }
    }

    /// Two agents 80 ms apart (round trip); agent 0 pings agent 1 on
    /// start when `ping` is set.
    fn agents(ping: bool) -> Sim<PingAgent> {
        let topo = Topology::uniform(2, SimTime::from_millis(80));
        let agents = (0..2)
            .map(|i| PingAgent {
                peer: (ping && i == 0).then_some(AgentId(1)),
                pings: vec![],
                pongs: vec![],
                started: false,
            })
            .collect();
        Sim::new(topo, agents, 1)
    }

    fn two_agents() -> Sim<PingAgent> {
        agents(false)
    }

    #[test]
    fn ping_pong_latency() {
        let mut sim = agents(true);
        sim.run();
        // Agent 0's Ping reaches agent 1 after one one-way delay, and the
        // Pong is back after the full 80 ms round trip.
        assert_eq!(sim.agent(AgentId(1)).pings, vec![SimTime::from_millis(40)]);
        assert_eq!(sim.agent(AgentId(0)).pongs, vec![SimTime::from_millis(80)]);
        assert_eq!(sim.stats().messages, 2);
        assert_eq!(sim.stats().bytes, 40);
    }

    #[test]
    fn cross_host_latency_is_one_way() {
        let mut sim = agents(true);
        sim.run();
        // Each crossing costs half the round-trip time, once per
        // direction: nothing arrives at t = 0 or at 80 ms on the far side.
        let (a, b) = (sim.agent(AgentId(0)), sim.agent(AgentId(1)));
        assert_eq!((&a.pings, &b.pongs), (&vec![], &vec![]));
        assert_eq!(b.pings, vec![SimTime::from_millis(40)]);
        assert_eq!(a.pongs, vec![SimTime::from_millis(40 + 40)]);
    }

    #[test]
    fn on_start_runs_for_all() {
        let mut sim = two_agents();
        sim.run();
        assert!(sim.agent(AgentId(0)).started);
        assert!(sim.agent(AgentId(1)).started);
    }

    #[test]
    fn stats_exclude_self_sends() {
        let mut sim = two_agents();
        sim.inject(SimTime::ZERO, AgentId(0), PingMsg::Ping);
        sim.run();
        // The injected Ping is a self-delivery, and the resulting Pong is
        // also to self: zero network messages.
        assert_eq!(sim.stats().messages, 0);
        assert_eq!(sim.stats().bytes, 0);
    }

    /// A relay chain exercising real network hops and byte accounting.
    struct Relay {
        next: Option<AgentId>,
        got_at: Option<SimTime>,
    }
    impl Protocol for Relay {
        type Msg = u8;
        fn on_message(&mut self, ctx: &mut ProtoCtx<'_, u8>, _from: AgentId, msg: u8) {
            self.got_at = Some(ctx.now());
            if let Some(next) = self.next {
                ctx.send(next, msg, 100);
            }
        }
    }

    #[test]
    fn relay_chain_timing_and_bytes() {
        let topo = Topology::uniform(3, SimTime::from_millis(60));
        let agents = vec![
            Relay {
                next: Some(AgentId(1)),
                got_at: None,
            },
            Relay {
                next: Some(AgentId(2)),
                got_at: None,
            },
            Relay {
                next: None,
                got_at: None,
            },
        ];
        let mut sim = Sim::new(topo, agents, 9);
        sim.inject(SimTime::ZERO, AgentId(0), 7);
        sim.run();
        assert_eq!(sim.agent(AgentId(0)).got_at, Some(SimTime::ZERO));
        assert_eq!(sim.agent(AgentId(1)).got_at, Some(SimTime::from_millis(30)));
        assert_eq!(sim.agent(AgentId(2)).got_at, Some(SimTime::from_millis(60)));
        // Two network messages of 100 bytes (the injected one was local).
        assert_eq!(sim.stats().messages, 2);
        assert_eq!(sim.stats().bytes, 200);
    }

    /// Timer-driven agent.
    struct Beeper {
        beeps: Vec<SimTime>,
        remaining: u32,
    }
    impl Protocol for Beeper {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut ProtoCtx<'_, ()>) {
            ctx.schedule(SimDuration::from_secs(1), TimerTag(1));
        }
        fn on_timer(&mut self, ctx: &mut ProtoCtx<'_, ()>, tag: TimerTag) {
            assert_eq!(tag, TimerTag(1));
            self.beeps.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule(SimDuration::from_secs(1), TimerTag(1));
            }
        }
        fn on_message(&mut self, _: &mut ProtoCtx<'_, ()>, _: AgentId, _: ()) {}
    }

    #[test]
    fn periodic_timers() {
        let topo = Topology::uniform(2, SimTime::from_millis(10));
        let agents = vec![
            Beeper {
                beeps: vec![],
                remaining: 3,
            },
            Beeper {
                beeps: vec![],
                remaining: 1,
            },
        ];
        let mut sim = Sim::new(topo, agents, 5);
        sim.run();
        assert_eq!(
            sim.agent(AgentId(0)).beeps,
            vec![
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                SimTime::from_secs(3)
            ]
        );
        assert_eq!(sim.agent(AgentId(1)).beeps, vec![SimTime::from_secs(1)]);
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert_eq!(sim.stats().timers, 4);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let topo = Topology::uniform(1, SimTime::from_millis(10));
        let agents = vec![Beeper {
            beeps: vec![],
            remaining: 10,
        }];
        let mut sim = Sim::new(topo, agents, 5);
        sim.run_until(SimTime::from_millis(2500));
        assert_eq!(sim.agent(AgentId(0)).beeps.len(), 2);
        assert_eq!(sim.now(), SimTime::from_millis(2500));
        assert!(sim.pending_events() > 0);
        // Continue to completion.
        sim.run();
        assert_eq!(sim.agent(AgentId(0)).beeps.len(), 10);
    }

    #[test]
    #[should_panic(expected = "one agent per topology host")]
    fn mismatched_population_panics() {
        let topo = Topology::uniform(3, SimTime::from_millis(10));
        let agents: Vec<Relay> = vec![];
        let _ = Sim::new(topo, agents, 0);
    }

    /// A chain of relays under heavy loss: some messages vanish, the
    /// accounting records them, and runs are deterministic in the seed.
    #[test]
    fn loss_model_drops_deterministically() {
        let run = |seed: u64| {
            let topo = Topology::uniform(2, SimTime::from_millis(10));
            // Agent 0 fires 200 one-way messages to agent 1.
            struct Spammer {
                received: u32,
            }
            impl Protocol for Spammer {
                type Msg = u8;
                fn on_start(&mut self, ctx: &mut ProtoCtx<'_, u8>) {
                    if ctx.me() == AgentId(0) {
                        for _ in 0..200 {
                            ctx.send(AgentId(1), 1, 10);
                        }
                    }
                }
                fn on_message(&mut self, _: &mut ProtoCtx<'_, u8>, _: AgentId, _: u8) {
                    self.received += 1;
                }
            }
            let mut sim = Sim::new(
                topo,
                vec![Spammer { received: 0 }, Spammer { received: 0 }],
                seed,
            );
            sim.set_loss_rate(0.3);
            sim.run();
            (sim.agent(AgentId(1)).received, sim.stats().dropped)
        };
        let (recv_a, drop_a) = run(7);
        let (recv_b, drop_b) = run(7);
        assert_eq!((recv_a, drop_a), (recv_b, drop_b), "loss must be seeded");
        assert_eq!(recv_a as u64 + drop_a, 200);
        // 30% loss of 200: far from 0 and far from 200.
        assert!((20..120).contains(&drop_a), "dropped {drop_a}");
        let (recv_c, _) = run(8);
        assert_ne!(recv_a, recv_c, "different seeds should differ");
    }

    #[test]
    fn self_sends_are_never_lost() {
        let topo = Topology::uniform(1, SimTime::from_millis(10));
        struct SelfTalker {
            received: u32,
        }
        impl Protocol for SelfTalker {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut ProtoCtx<'_, u8>) {
                for _ in 0..100 {
                    ctx.send(AgentId(0), 1, 10);
                }
            }
            fn on_message(&mut self, _: &mut ProtoCtx<'_, u8>, _: AgentId, _: u8) {
                self.received += 1;
            }
        }
        let mut sim = Sim::new(topo, vec![SelfTalker { received: 0 }], 1);
        sim.set_loss_rate(0.9);
        sim.run();
        assert_eq!(sim.agent(AgentId(0)).received, 100);
        assert_eq!(sim.stats().dropped, 0);
    }

    use crate::fault::{FaultPlane, PartitionWindow};

    /// Counts arrivals and lifecycle events; the workhorse for
    /// fault-plane tests.
    struct Counter {
        received: u32,
        crashes: u32,
        restarts: u32,
    }
    impl Counter {
        fn new() -> Self {
            Counter {
                received: 0,
                crashes: 0,
                restarts: 0,
            }
        }
    }
    impl Protocol for Counter {
        type Msg = u8;
        fn on_message(&mut self, _: &mut ProtoCtx<'_, u8>, _: AgentId, _: u8) {
            self.received += 1;
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut ProtoCtx<'_, u8>) {
            self.restarts += 1;
        }
    }

    /// Forwards every injected message from agent 0 to agent 1, and
    /// counts arrivals everywhere.
    struct Forwarder {
        received: u32,
    }
    impl Protocol for Forwarder {
        type Msg = u8;
        fn on_message(&mut self, ctx: &mut ProtoCtx<'_, u8>, _from: AgentId, msg: u8) {
            self.received += 1;
            if ctx.me() == AgentId(0) {
                ctx.send(AgentId(1), msg, 10);
            }
        }
    }

    fn forwarder_pair(one_way_ms: u64, seed: u64) -> Sim<Forwarder> {
        let topo = Topology::uniform(2, SimTime::from_millis(one_way_ms));
        Sim::new(
            topo,
            vec![Forwarder { received: 0 }, Forwarder { received: 0 }],
            seed,
        )
    }

    #[test]
    fn duplication_delivers_twice_deterministically() {
        let run = |seed: u64| {
            let mut sim = forwarder_pair(10, seed);
            sim.set_faults(FaultPlane {
                dup_rate: 0.25,
                ..FaultPlane::default()
            });
            for _ in 0..200 {
                sim.inject(SimTime::ZERO, AgentId(0), 1);
            }
            sim.run();
            (sim.agent(AgentId(1)).received, sim.stats().duplicated)
        };
        let (recv_a, dup_a) = run(3);
        assert_eq!(run(3), (recv_a, dup_a), "duplication must be seeded");
        // Each of the 200 forwards arrives once, plus once per duplicate.
        assert_eq!(recv_a as u64, 200 + dup_a);
        assert!((20..100).contains(&dup_a), "duplicated {dup_a}");
    }

    #[test]
    fn latency_spikes_delay_but_never_lose() {
        let mut sim = forwarder_pair(100, 11);
        sim.set_faults(FaultPlane {
            spike_rate: 0.5,
            spike_factor: 10.0,
            ..FaultPlane::default()
        });
        for _ in 0..40 {
            sim.inject(SimTime::ZERO, AgentId(0), 1);
        }
        sim.run();
        // Every forward arrives: the plain ones after the 50 ms one-way
        // delay, the spiked ones after 500 ms.
        assert_eq!(sim.agent(AgentId(1)).received, 40);
        let spiked = sim.stats().spiked;
        assert!((5..35).contains(&spiked), "spiked {spiked}");
        assert_eq!(sim.now(), SimTime::from_millis(500));
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn crash_discards_messages_until_restart() {
        let topo = Topology::uniform(2, SimTime::from_millis(10));
        let mut sim = Sim::new(topo, vec![Counter::new(), Counter::new()], 1);
        for i in 0..20u64 {
            sim.inject(SimTime::from_millis(i), AgentId(1), 0);
        }
        sim.schedule_crash(SimTime::from_micros(4_500), AgentId(1));
        sim.schedule_restart(SimTime::from_micros(11_500), AgentId(1));
        sim.run();
        let agent = sim.agent(AgentId(1));
        // 20 injected, 7 fell in the down window (t = 5..=11 ms).
        assert_eq!(agent.received, 13);
        assert_eq!(agent.crashes, 1);
        assert_eq!(agent.restarts, 1);
        assert_eq!(sim.stats().dropped_down, 7);
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().restarts, 1);
        assert!(!sim.is_down(AgentId(1)));
    }

    #[test]
    fn crashed_agent_timers_are_discarded() {
        let topo = Topology::uniform(1, SimTime::from_millis(10));
        let mut sim = Sim::new(
            topo,
            vec![Beeper {
                beeps: vec![],
                remaining: 10,
            }],
            0,
        );
        // The beeper re-arms from each firing; crashing it swallows the
        // pending timer, so the chain stays dead even after restart.
        sim.schedule_crash(SimTime::from_millis(2_500), AgentId(0));
        sim.schedule_restart(SimTime::from_millis(4_500), AgentId(0));
        sim.run();
        assert_eq!(sim.agent(AgentId(0)).beeps.len(), 2);
    }

    #[test]
    fn partition_windows_sever_cross_island_links_only() {
        let mut sim = forwarder_pair(10, 1);
        sim.set_faults(FaultPlane {
            partitions: vec![PartitionWindow {
                from: SimTime::from_millis(5),
                until: SimTime::from_millis(10),
                island: vec![true, false],
            }],
            ..FaultPlane::default()
        });
        for i in 0..15u64 {
            sim.inject(SimTime::from_millis(i), AgentId(0), 0);
        }
        sim.run();
        // Forwards sent at t in [5, 10) were severed: 5 of 15.
        assert_eq!(sim.stats().partitioned, 5);
        assert_eq!(sim.stats().messages, 15);
        assert_eq!(sim.agent(AgentId(1)).received, 10);
    }

    /// Message whose clones are tallied, to pin down the delivery path's
    /// copying behavior.
    #[derive(Debug)]
    struct CountedMsg(u8);

    static MSG_CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    impl Clone for CountedMsg {
        fn clone(&self) -> Self {
            MSG_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CountedMsg(self.0)
        }
    }

    struct CountedForwarder {
        received: usize,
    }

    impl Protocol for CountedForwarder {
        type Msg = CountedMsg;
        fn on_message(
            &mut self,
            ctx: &mut ProtoCtx<'_, CountedMsg>,
            _from: AgentId,
            msg: CountedMsg,
        ) {
            self.received += 1;
            if ctx.me() == AgentId(0) {
                ctx.send(AgentId(1), msg, 10);
            }
        }
    }

    fn run_counted(faults: FaultPlane, n: usize) -> (usize, NetStats) {
        let topo = Topology::uniform(2, SimTime::from_millis(10));
        let mut sim = Sim::new(
            topo,
            vec![
                CountedForwarder { received: 0 },
                CountedForwarder { received: 0 },
            ],
            7,
        );
        sim.set_faults(faults);
        for _ in 0..n {
            sim.inject(SimTime::ZERO, AgentId(0), CountedMsg(1));
        }
        sim.run();
        (sim.agent(AgentId(1)).received, sim.stats())
    }

    /// A send must move the message into the event queue — fan-out
    /// is 1, so a clone would be a pure copy tax on every delivery (the
    /// payloads are whole index entries and result sets). The one
    /// exception is the duplication fault, whose fan-out of 2 needs
    /// exactly one clone per duplicated send.
    #[test]
    fn send_is_zero_copy_without_dup_faults() {
        MSG_CLONES.store(0, std::sync::atomic::Ordering::Relaxed);
        let (received, _) = run_counted(FaultPlane::default(), 300);
        assert_eq!(received, 300);
        assert_eq!(
            MSG_CLONES.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "fan-out-1 delivery must not clone the message"
        );

        MSG_CLONES.store(0, std::sync::atomic::Ordering::Relaxed);
        let (received, stats) = run_counted(
            FaultPlane {
                dup_rate: 0.5,
                ..FaultPlane::default()
            },
            300,
        );
        let dup = stats.duplicated as usize;
        assert!(dup > 0, "dup fault must have fired");
        assert_eq!(received, 300 + dup);
        assert_eq!(
            MSG_CLONES.load(std::sync::atomic::Ordering::Relaxed),
            dup,
            "exactly one clone per duplicated send, none otherwise"
        );
    }

    /// What fired on a host, as seen by [`Scripted`].
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Fired {
        Msg(u8),
        Timer(u64),
    }

    type FireLog = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, AgentId, Fired)>>>;

    /// On its trigger (message 0) emits its script in one callback, in
    /// order; every host logs what fires on it into one shared log.
    struct Scripted {
        script: Vec<Output<u8>>,
        log: FireLog,
    }

    impl Protocol for Scripted {
        type Msg = u8;
        fn on_message(&mut self, ctx: &mut ProtoCtx<'_, u8>, _from: AgentId, msg: u8) {
            let entry = (ctx.now(), ctx.me(), Fired::Msg(msg));
            self.log.borrow_mut().push(entry);
            if msg == 0 {
                for out in std::mem::take(&mut self.script) {
                    match out {
                        Output::Send { to, msg, bytes } => ctx.send(to, msg, bytes),
                        Output::Timer { delay, tag } => ctx.schedule(delay, tag),
                    }
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut ProtoCtx<'_, u8>, tag: TimerTag) {
            let entry = (ctx.now(), ctx.me(), Fired::Timer(tag.0));
            self.log.borrow_mut().push(entry);
        }
    }

    /// Two hosts 10 ms apart one way; host 0 runs `script` on a trigger
    /// injected at time zero. Returns everything that fired, in order.
    fn fire_order(script: Vec<Output<u8>>) -> Vec<(SimTime, AgentId, Fired)> {
        let log = FireLog::default();
        let agents = vec![
            Scripted {
                script,
                log: log.clone(),
            },
            Scripted {
                script: vec![],
                log: log.clone(),
            },
        ];
        let mut sim = Sim::new(Topology::uniform(2, SimTime::from_millis(20)), agents, 1);
        sim.inject(SimTime::ZERO, AgentId(0), 0);
        sim.run();
        let fired = log.borrow().clone();
        fired
    }

    #[test]
    fn one_callbacks_self_sends_and_timer_fire_in_emission_order() {
        let (me, t0) = (AgentId(0), SimTime::ZERO);
        let fired = fire_order(vec![
            Output::Send {
                to: me,
                msg: 1,
                bytes: 10,
            },
            Output::Timer {
                delay: SimDuration::ZERO,
                tag: TimerTag(2),
            },
            Output::Send {
                to: me,
                msg: 3,
                bytes: 10,
            },
        ]);
        assert_eq!(
            fired,
            vec![
                (t0, me, Fired::Msg(0)),
                (t0, me, Fired::Msg(1)),
                (t0, me, Fired::Timer(2)),
                (t0, me, Fired::Msg(3)),
            ]
        );
    }

    #[test]
    fn a_cross_host_send_and_a_timer_due_together_fire_in_emission_order() {
        let send = Output::Send {
            to: AgentId(1),
            msg: 1,
            bytes: 10,
        };
        let timer = Output::Timer {
            delay: SimDuration::from_millis(10),
            tag: TimerTag(2),
        };
        let (t0, t10) = (SimTime::ZERO, SimTime::from_millis(10));
        let trigger = (t0, AgentId(0), Fired::Msg(0));
        let arrival = (t10, AgentId(1), Fired::Msg(1));
        let firing = (t10, AgentId(0), Fired::Timer(2));
        assert_eq!(
            fire_order(vec![send.clone(), timer.clone()]),
            vec![trigger, arrival, firing]
        );
        assert_eq!(
            fire_order(vec![timer, send]),
            vec![trigger, firing, arrival]
        );
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn inject_into_past_panics() {
        let topo = Topology::uniform(1, SimTime::from_millis(10));
        let mut sim = Sim::new(
            topo,
            vec![Beeper {
                beeps: vec![],
                remaining: 2,
            }],
            0,
        );
        sim.run();
        sim.inject(SimTime::from_secs(1), AgentId(0), ());
    }
}
