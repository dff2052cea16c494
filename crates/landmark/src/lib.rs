//! # landmark — from a metric space to the k-dimensional index space
//!
//! Paper §3.1: pick `k` landmark objects `L = {l_1 … l_k}` and map every
//! object `x` to the point `(d(x,l_1), …, d(x,l_k))`. The triangle
//! inequality makes the mapping *contractive* — distances never grow —
//! so a metric range query `(q, r)` is answered by the hypercube of side
//! `2r` around the mapped query point, refined with true distances.
//!
//! This crate implements:
//!
//! * [`select`] — landmark selection: the paper's greedy max-min method
//!   (Algorithm 1), Lloyd's k-means for centroid-capable types, and
//!   k-medoids for black-box metrics;
//! * [`mapper::Mapper`] — the object → index-point mapping;
//! * [`boundary`] — index-space boundary determination, both from the
//!   metric's own bound and from the landmark-selection sample (§3.1,
//!   "Boundary of index space").
//!
//! The paper's §6 landmark refresh is parked: DESIGN.md's extensions
//! table names the commit that removed it.

pub mod boundary;
pub mod mapper;
pub mod select;

pub use boundary::{boundary_from_metric, boundary_from_sample, Boundary};
pub use mapper::Mapper;
pub use select::{greedy, kmeans, kmedoids, Centroid, SelectionMethod};
