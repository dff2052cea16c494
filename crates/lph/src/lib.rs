//! # lph — locality-preserving hashing of the index space
//!
//! Paper §3.2: the k-dimensional landmark index space is recursively
//! bisected k-d-tree style — division `i` splits dimension `(i-1) mod k`
//! in half, and a cuboid that takes the upper half of a split gets a `1`
//! as the `i`-th bit of its key. After `m` divisions the space is
//! partitioned into `2^m` equal hypercuboids, each identified by an
//! `m`-bit key, and nearby points share long key prefixes. Chord's
//! consistent hashing then maps each cuboid to the successor of its key.
//!
//! This crate is the pure geometry of that scheme — no networking:
//!
//! * [`Prefix`] — an `m`-bit key prefix with bit-level helpers
//!   (children, containment, the ring key range a cuboid occupies);
//! * [`Rect`] — an axis-aligned box in the index space;
//! * [`Grid`] — the bisection grid: [`Grid::hash`] (Algorithm 2),
//!   [`Grid::cell`] (prefix → cuboid), [`Grid::enclosing_prefix`]
//!   (smallest cuboid holding a query region, §3.3 / figure 1a),
//!   [`Grid::descend`] (Algorithm 4's refinement down to the first cut,
//!   copying nothing) and [`Grid::split`] (one division of it);
//! * [`Rotation`] — the per-index random rotation offset used by the
//!   static load-balancing scheme (§3.4, "space mapping rotation").
//!
//! Bit positions follow the paper's convention: the *1st* bit is the most
//! significant bit of the 64-bit key (footnote 3: keys are left-aligned
//! and zero-padded on the right).

pub mod grid;
pub mod prefix;
pub mod rect;
pub mod rotation;

pub use grid::{Grid, SubQuery};
pub use prefix::{Prefix, KEY_BITS};
pub use rect::Rect;
pub use rotation::Rotation;
