//! Shared experiment machinery for the paper-reproduction benches.
//!
//! Every figure/table of the paper has a `benches/*.rs` target (custom
//! harness) that builds on the drivers here:
//!
//! * [`scale`] — experiment sizing: the quick default and the
//!   `SIMSEARCH_FULL=1` paper scale;
//! * [`synth`] — the §4.2 synthetic-dataset pipeline (Table 1 data →
//!   landmark selection → mapping → system → query sweep);
//! * [`trec`] — the §4.3 text pipeline over the synthetic TREC-like
//!   corpus (angular metric, sampled boundary);
//! * [`fixture`] — the corpus, query builders and oracle under the
//!   two `*_report` writers;
//! * [`report`] — table printing and JSON persistence under
//!   `target/experiments/`.

pub mod fixture;
pub mod micro_report;
pub mod report;
pub mod scale;
pub mod scale_report;
pub mod synth;
pub mod trec;

pub use report::{print_series, save_json, Row};
pub use scale::Scale;
