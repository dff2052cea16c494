//! The simulation driver: agents, contexts, and the event loop.

use crate::event::{EventKind, EventQueue, TimerTag};
use crate::fault::FaultPlane;
use crate::rng::SimRng;
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;

/// Identifies one simulated host/agent. Agent ids index both the agent
/// vector and the latency matrix.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub usize);

/// A simulated protocol participant.
///
/// All state lives inside the agent; all interaction with the outside
/// world goes through the [`Ctx`] passed to each callback. Callbacks run
/// one at a time (the simulator is single-threaded and deterministic).
pub trait Agent {
    /// The message type exchanged between agents of this simulation.
    type Msg;

    /// Called once, at time zero, before any message is delivered.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message addressed to this agent arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: AgentId, msg: Self::Msg);

    /// Called when a timer scheduled by this agent fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _tag: TimerTag) {}

    /// Called when a scheduled crash takes this host down. The agent
    /// keeps its state (a restart is a reboot, not a wipe) but all of
    /// its pending timers are discarded; use this hook to drop whatever
    /// bookkeeping assumed those timers would fire.
    fn on_crash(&mut self) {}

    /// Called when a crashed host comes back up; the agent may re-arm
    /// timers or re-announce itself here.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// Everything except the agents themselves: clock, queue, network model.
struct Core<M> {
    now: SimTime,
    queue: EventQueue<M>,
    topo: Topology,
    rng: SimRng,
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

/// The capability handle given to agent callbacks.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    me: AgentId,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The id of the agent this callback is running on.
    pub fn me(&self) -> AgentId {
        self.me
    }

    /// Total number of agents in the simulation.
    pub fn n_agents(&self) -> usize {
        self.core.topo.len()
    }

    /// Send `msg` to `dst`; it arrives after the one-way propagation delay
    /// between the two hosts. `bytes` is the modelled wire size and feeds
    /// the bandwidth accounting. A message to oneself is delivered with
    /// zero delay, does not count as network traffic, and is exempt from
    /// every fault (it never touches the wire).
    pub fn send(&mut self, dst: AgentId, msg: M, bytes: u32)
    where
        M: Clone,
    {
        let (me, at) = (self.me, self.core.now);
        if dst == me {
            self.core
                .queue
                .push(at, dst, EventKind::Deliver { from: me, msg });
        } else {
            self.core.deliver_cross(at, me, dst, msg, bytes);
        }
    }

    /// Round-trip time between this agent and `other`.
    pub fn rtt_to(&self, other: AgentId) -> SimDuration {
        self.core.topo.rtt(self.me.0, other.0)
    }

    /// Schedule a timer for this agent to fire after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, tag: TimerTag) {
        let at = self.core.now + delay;
        self.core.queue.push(at, self.me, EventKind::Timer { tag });
    }

    /// Deterministic randomness scoped to the simulation.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }
}

/// A complete simulation: a topology, a population of agents, and an event
/// queue. See the crate docs for a usage example.
pub struct Sim<A: Agent> {
    core: Core<A::Msg>,
    agents: Vec<A>,
    started: bool,
}

impl<A: Agent> Sim<A> {
    /// Build a simulation. `agents.len()` must equal `topo.len()`.
    pub fn new(topo: Topology, agents: Vec<A>, seed: u64) -> Self {
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
                rng: SimRng::new(seed).fork(0x51B0),
                stats: NetStats::default(),
                faults: FaultPlane::default(),
                drop_rng: SimRng::new(seed).fork(0x1055),
                dup_rng: SimRng::new(seed).fork(0xD0B1),
                spike_rng: SimRng::new(seed).fork(0x5B1C),
                down: vec![false; n],
            },
            agents,
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
    pub fn inject(&mut self, at: SimTime, dst: AgentId, msg: A::Msg) {
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
        for (i, agent) in self.agents.iter_mut().enumerate() {
            agent.on_start(&mut Ctx {
                core: &mut self.core,
                me: AgentId(i),
            });
        }
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
                self.agents[dst.0].on_restart(&mut Ctx {
                    core: &mut self.core,
                    me: dst,
                });
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
        let ctx = &mut Ctx {
            core: &mut self.core,
            me: dst,
        };
        match ev.kind {
            EventKind::Deliver { from, msg } => self.agents[dst.0].on_message(ctx, from, msg),
            EventKind::Timer { tag } => {
                self.agents[dst.0].on_timer(ctx, tag);
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
    pub fn agent(&self, id: AgentId) -> &A {
        &self.agents[id.0]
    }

    /// Mutable access to one agent (for setup between phases; do not
    /// mutate agents while events that concern them are in flight unless
    /// the protocol tolerates it).
    pub fn agent_mut(&mut self, id: AgentId) -> &mut A {
        &mut self.agents[id.0]
    }

    /// Iterate over all agents.
    pub fn agents(&self) -> impl Iterator<Item = &A> {
        self.agents.iter()
    }

    /// Split borrow: the latency model together with mutable access to
    /// every agent. For between-phase maintenance (e.g. load migration)
    /// that must read the topology while rewriting agent state.
    pub fn topology_and_agents_mut(&mut self) -> (&Topology, &mut [A]) {
        (&self.core.topo, &mut self.agents)
    }

    /// Consume the simulation and return its agents.
    pub fn into_agents(self) -> Vec<A> {
        self.agents
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server: replies to every Ping with a Pong; the client records
    /// arrival times.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum PingMsg {
        Ping,
        Pong,
    }

    struct PingAgent {
        peer: Option<AgentId>,
        pongs: Vec<SimTime>,
        started: bool,
    }

    impl Agent for PingAgent {
        type Msg = PingMsg;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, PingMsg>) {
            self.started = true;
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, PingMsg>, from: AgentId, msg: PingMsg) {
            match msg {
                PingMsg::Ping => ctx.send(from, PingMsg::Pong, 20),
                PingMsg::Pong => self.pongs.push(ctx.now()),
            }
            self.peer = Some(from);
        }
    }

    fn two_agents() -> Sim<PingAgent> {
        let topo = Topology::uniform(2, SimTime::from_millis(80));
        let agents = (0..2)
            .map(|_| PingAgent {
                peer: None,
                pongs: vec![],
                started: false,
            })
            .collect();
        Sim::new(topo, agents, 1)
    }

    #[test]
    fn ping_pong_latency() {
        let mut sim = two_agents();
        // Client (agent 0) pings the server (agent 1) at t=0 via inject +
        // immediate forward.
        sim.inject(SimTime::ZERO, AgentId(1), PingMsg::Ping);
        sim.run();
        // inject is a self-delivery at t=0; the Pong takes one one-way hop
        // of 40ms back to... wait, inject delivers Ping *to agent 1 from
        // itself*, so the pong goes 1 -> 1 with zero delay.
        assert_eq!(sim.agent(AgentId(1)).pongs, vec![SimTime::ZERO]);
    }

    #[test]
    fn cross_host_latency_is_one_way() {
        let mut sim = two_agents();
        sim.inject(SimTime::ZERO, AgentId(0), PingMsg::Ping);
        // Agent 0 receives Ping (from itself) and replies Pong to itself —
        // that's the degenerate case above. Instead drive a real exchange:
        sim.run();
        let mut sim = two_agents();
        sim.start();
        // Send a ping from 0 to 1 by injecting Ping at agent 1 with a fake
        // sender is not possible through inject; use a bootstrap message.
        struct Boot;
        let _ = Boot;
        // Simplest: agent 0 sends the ping from on_message of an injected
        // Ping. Already covered; here verify timing of a 0->1->0 exchange.
        sim.inject(SimTime::ZERO, AgentId(0), PingMsg::Ping);
        sim.run();
        // 0 ponged itself at t=0, so its own pong list has one entry at 0.
        assert_eq!(sim.agent(AgentId(0)).pongs, vec![SimTime::ZERO]);
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
    impl Agent for Relay {
        type Msg = u8;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _from: AgentId, msg: u8) {
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
    impl Agent for Beeper {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.schedule(SimDuration::from_secs(1), TimerTag(1));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, tag: TimerTag) {
            assert_eq!(tag, TimerTag(1));
            self.beeps.push(ctx.now());
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule(SimDuration::from_secs(1), TimerTag(1));
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: AgentId, _: ()) {}
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
            impl Agent for Spammer {
                type Msg = u8;
                fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                    if ctx.me() == AgentId(0) {
                        for _ in 0..200 {
                            ctx.send(AgentId(1), 1, 10);
                        }
                    }
                }
                fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: AgentId, _: u8) {
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
        impl Agent for SelfTalker {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                for _ in 0..100 {
                    ctx.send(AgentId(0), 1, 10);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: AgentId, _: u8) {
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
    impl Agent for Counter {
        type Msg = u8;
        fn on_message(&mut self, _: &mut Ctx<'_, u8>, _: AgentId, _: u8) {
            self.received += 1;
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Ctx<'_, u8>) {
            self.restarts += 1;
        }
    }

    /// Forwards every injected message from agent 0 to agent 1, and
    /// counts arrivals everywhere.
    struct Forwarder {
        received: u32,
    }
    impl Agent for Forwarder {
        type Msg = u8;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _from: AgentId, msg: u8) {
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

    impl Agent for CountedForwarder {
        type Msg = CountedMsg;
        fn on_message(&mut self, ctx: &mut Ctx<'_, CountedMsg>, _from: AgentId, msg: CountedMsg) {
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

    /// `Ctx::send` must move the message into the event queue — fan-out
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
