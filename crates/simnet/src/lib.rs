//! # simnet — deterministic discrete-event packet-level network simulator
//!
//! This crate is the substrate the whole reproduction runs on. The paper
//! evaluates its index architecture on **p2psim**, MIT's discrete
//! event-driven, packet-level simulator for DHT protocols. `simnet`
//! reimplements the parts of that model the experiments rely on:
//!
//! * an event queue with deterministic ordering (integer nanosecond time,
//!   FIFO sequence tie-breaking),
//! * a population of message-driven agents (one per simulated host), each
//!   a sans-io [`Protocol`] state machine ([`protocol`]) whose outputs
//!   the simulator applies itself, in emission order — the same contract
//!   the real-socket node runtime (`crates/node`) drives,
//! * per-pair propagation delays drawn from a latency matrix
//!   ([`topology::Topology`]) that substitutes for the King dataset,
//! * per-message byte accounting so experiments can report bandwidth cost,
//! * a deterministic metrics registry ([`telemetry`]) for counters and
//!   histograms that higher layers hang their instrumentation on.
//!
//! There is no modelled queueing or processing delay: like p2psim's default
//! packet-level model, a message sent at time `t` from `a` to `b` is
//! delivered at `t + rtt(a,b)/2`.
//!
//! ## Example
//!
//! ```
//! use simnet::{AgentId, ProtoCtx, Protocol, Sim, SimTime, TimerTag};
//! use simnet::topology::Topology;
//!
//! /// A trivial agent that forwards a counter around the ring once.
//! struct RingHop {
//!     n: usize,
//!     seen: Option<u32>,
//! }
//!
//! impl Protocol for RingHop {
//!     type Msg = u32;
//!     fn on_message(&mut self, ctx: &mut ProtoCtx<'_, u32>, _from: AgentId, msg: u32) {
//!         self.seen = Some(msg);
//!         if (msg as usize) < self.n - 1 {
//!             let next = AgentId((ctx.me().0 + 1) % self.n);
//!             ctx.send(next, msg + 1, 20);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut ProtoCtx<'_, u32>, _t: TimerTag) {}
//! }
//!
//! let topo = Topology::uniform(4, SimTime::from_millis(100));
//! let agents = (0..4).map(|_| RingHop { n: 4, seen: None }).collect();
//! let mut sim = Sim::new(topo, agents, 42);
//! sim.inject(SimTime::ZERO, AgentId(0), 0u32);
//! sim.run();
//! assert_eq!(sim.agent(AgentId(3)).seen, Some(3));
//! // three 50 ms one-way hops
//! assert_eq!(sim.now(), SimTime::from_millis(150));
//! ```

pub mod event;
pub mod fault;
pub mod protocol;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod topology;

pub use event::TimerTag;
pub use fault::{FaultPlane, PartitionWindow};
pub use protocol::{dispatch, Input, Links, Output, ProtoCtx, Protocol};
pub use rng::SimRng;
pub use sim::{AgentId, Sim};
pub use stats::NetStats;
pub use telemetry::{CounterId, Histogram, HistogramId, Registry, SharedRegistry};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
