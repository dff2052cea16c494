//! Shared experiment machinery for the paper-reproduction benches.
//!
//! Every figure/table of the paper has a `benches/*.rs` target (custom
//! harness) that builds on the drivers here:
//!
//! * [`scale`] — experiment sizing: the quick default and the
//!   `SIMSEARCH_FULL=1` paper scale;
//! * [`sweep`] — the one figure pipeline: a [`sweep::Setup`] (the §4.2
//!   Table 1 data or the §4.3 TREC-like corpus, with exact top-10
//!   truth) mapped through [`simsearch::map_index`], and
//!   [`sweep::run_sweep`] over the query range factors;
//! * [`fixture`] — the corpus (mapped through
//!   [`simsearch::map_index`], its query batches as the pool) and the
//!   query builders under the two `*_report` writers;
//! * [`report`] — table printing and JSON persistence under
//!   `target/experiments/`.

pub mod fixture;
pub mod micro_report;
pub mod report;
pub mod scale;
pub mod scale_report;
pub mod sweep;

pub use report::{print_series, save_json, Row};
pub use scale::Scale;
