//! The protocol contract, re-exported from [`simnet::protocol`] where it
//! lives; kept only because `benchmark/` imports it from here.
pub use simnet::{dispatch, Input, Links, Output, ProtoCtx, Protocol};
