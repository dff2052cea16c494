//! # simsearch — the landmark-based distributed similarity index
//!
//! This crate is the paper's primary contribution: a distributed index
//! platform on Chord that answers near-neighbor queries in arbitrary
//! metric spaces. The pieces:
//!
//! * [`msg`] — wire messages and the paper's explicit byte-size model
//!   (query message `20 + 4 + n·(4k + 9)` bytes, result message
//!   `20 + 6·entries`);
//! * [`store`] — per-node index-entry storage, keyed by ring position;
//! * [`routing`] — Algorithms 3 (QueryRouting), 4 (QuerySplit) and 5
//!   (SurrogateRefine) as pure functions over a routing table, unit- and
//!   property-tested against a brute-force coverage oracle;
//! * [`node`] — the network agent tying routing to [`simnet`] delivery,
//!   recording each query's costs on its trace;
//! * [`load`] — load balancing: the static space-mapping rotation is in
//!   [`lph::Rotation`]; this module adds the paper's *dynamic load
//!   migration* (probe level `P_l`, threshold factor `δ`, leave-and-
//!   rejoin at the split point);
//! * [`system`] — the experiment driver: build a stabilized ring,
//!   publish entries, optionally balance load, inject a query workload,
//!   run the simulation, and fold per-query metrics (hops, response
//!   time, maximum latency, bandwidth, recall — §4.1's metric set);
//! * [`resilience`] — opt-in retry/failover and replicated publication
//!   so queries keep full recall under the fault plane [`simnet`]
//!   injects (loss, latency spikes, crash/restart churn);
//! * [`stats`] — result aggregation helpers (percentiles, series);
//! * [`telemetry`] — per-query traces (hop/split/refine/answer events),
//!   the one record of what each query cost and where it went, plus the
//!   run-wide counter registry; serialized canonically so identical
//!   seeds produce byte-identical snapshots (the CI gate);
//! * [`explain`] — a query's recorded trace rendered as a plan.
//!
//! The crate is deliberately independent of any particular metric: the
//! caller maps objects and queries into index-space points (see
//! [`landmark`]) and supplies a [`msg::QueryDistance`] oracle so index
//! nodes can rank their local candidates by true distance, mirroring a
//! deployment where index entries carry enough of the object to evaluate
//! the black-box distance.

pub mod explain;
pub mod knn;
pub mod load;
pub mod msg;
pub mod node;
pub mod overlay;
pub mod refresh;
pub mod resilience;
pub mod routing;
pub mod stats;
pub mod store;
pub mod system;
pub mod telemetry;

pub use knn::KnnOutcome;
pub use msg::{QueryBall, QueryDistance, QueryId, SearchMsg, SubQueryMsg};
pub use node::{IssuedQuery, SearchNode};
pub use overlay::{FailureAware, OverlayTable};
pub use refresh::ReindexReport;
pub use resilience::ResilienceConfig;
pub use routing::{
    route_subquery, route_subquery_traced, surrogate_refine, surrogate_refine_traced, Action,
    RoutingEvent,
};
pub use store::{Entry, EntryRef, ScanStats, Store};
pub use system::{
    map_index, IndexSpec, LoadBalanceConfig, Mapping, QueryOutcome, QuerySpec, SearchSystem,
    SystemConfig, TrueDist,
};
pub use telemetry::{QuerySummary, QueryTrace, Telemetry, TraceEvent, TraceLog};
