//! # node — the real-socket driver for the sans-io search protocol
//!
//! The simulator (`simnet` + `simsearch`) is one driver of the
//! [`sansio`] protocol core; this crate is the second: the same
//! [`simsearch::SearchNode`] state machine, byte-for-byte, driven by a
//! `std::net` TCP event loop instead of a discrete-event queue. One
//! process hosts one node; a shell script (or the loopback CI smoke
//! job) composes processes into a cluster.
//!
//! * [`wire`] — the length-prefixed frame codec. Tags 0–9 carry the ten
//!   [`simsearch::SearchMsg`] variants; higher tags are bootstrap and
//!   client control frames. The codec's physical frame sizes are pinned
//!   to the paper's §4.1 `msg_bytes` pricing model by a documented
//!   per-variant delta ([`wire::model_delta`]).
//! * [`scenario`] — the deterministic shared scenario (ring ids, grid,
//!   corpus, query script) every process and the simulator derive from
//!   one seed, making sim-vs-socket parity checkable.
//! * [`runtime`] — the node process: bootstrap join dance, then one
//!   thread multiplexing every non-blocking socket with `poll(2)` and
//!   owning the protocol state, the timer wheel and all connection
//!   buffers.
//! * [`client`] — client-side operations with exact expected-answer
//!   verification (used by the CLI and the smoke script).
//!
//! See `DESIGN.md` §16 for the sans-io layering contract both drivers
//! implement, and the README quickstart for running a local cluster.

pub mod client;
pub mod runtime;
pub mod scenario;
pub mod wire;
