//! The canonical query-path performance scenario behind
//! `BENCH_micro.json` and the CI `bench-smoke` gate.
//!
//! A fixed-seed 64-node system answers a range-query batch; the
//! telemetry counters then say exactly how much work the query path did:
//!
//! * `store.entries_scanned` / `store.entries_skipped` — entries
//!   rect-tested vs. entries passed over without a test: outside the
//!   query's key span, or in a store block whose bounds miss the rect.
//!   A scan that narrows nothing rect-tests every owned entry, so
//!   `scanned + skipped` *is* the cost "before".
//! * `search.refine.dist_calls` / `search.refine.pruned` — true-distance
//!   oracle calls made vs. skipped by the landmark lower bound. The
//!   pre-change cost is again the sum.
//!
//! Both prunes are exact, so recall against the brute-force oracle must
//! sit at 100% — the scenario asserts it rather than trusts it.

use std::sync::Arc;

use serde_json::{ToJson, Value};
use simsearch::{SearchSystem, SystemConfig};

use crate::fixture::{l2_oracle, Corpus, KNN_K};

const SEED: u64 = 0x64_B3;
const N_NODES: usize = 64;

/// Deterministic work counters of one scenario run, with the pre-change
/// costs derived from the same counters (`before = kept + avoided`).
#[derive(Clone, Debug)]
pub struct MicroCounters {
    /// Queries answered.
    pub queries: usize,
    /// Entries rect-tested across all nodes and fragments.
    pub scanned: u64,
    /// Entries excluded by the ring-key span before any rect test.
    pub skipped: u64,
    /// True-distance oracle calls during refinement.
    pub dist_calls: u64,
    /// Refinement candidates skipped by the landmark lower bound.
    pub pruned: u64,
    /// Mean recall against the brute-force oracle's top-k.
    pub mean_recall: f64,
    /// Wall time of the query batch (build excluded), milliseconds.
    /// The only non-deterministic field; gates use the counters.
    pub elapsed_ms: f64,
}

impl MicroCounters {
    /// Entries a full scan would have rect-tested.
    pub fn scanned_before(&self) -> u64 {
        self.scanned + self.skipped
    }

    /// Oracle calls an unpruned refinement would have made.
    pub fn dist_calls_before(&self) -> u64 {
        self.dist_calls + self.pruned
    }

    /// Scan-work reduction factor of the span- and bounds-narrowed scan.
    pub fn scan_reduction(&self) -> f64 {
        self.scanned_before() as f64 / (self.scanned.max(1)) as f64
    }
}

impl ToJson for MicroCounters {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "queries": self.queries as u64,
            "scanned_before": self.scanned_before(),
            "scanned_after": self.scanned,
            "scan_reduction": self.scan_reduction(),
            "dist_calls_before": self.dist_calls_before(),
            "dist_calls_after": self.dist_calls,
            "pruned": self.pruned,
            "mean_recall": self.mean_recall,
            "elapsed_ms": self.elapsed_ms,
        })
    }
}

/// Run the canonical 64-node query batch and collect its counters.
///
/// `quick` shrinks the dataset and batch (the CI smoke size); the full
/// size is what `BENCH_micro.json` records. Both are deterministic in
/// everything but `elapsed_ms`.
pub fn run_micro_scenario(quick: bool) -> MicroCounters {
    let (n_objects, n_queries) = if quick { (1_000, 16) } else { (2_000, 32) };
    let corpus = Corpus::build(n_objects, SEED);
    let qpoints = corpus.data.queries(n_queries, SEED ^ 0x51);
    // Nodes rank more candidates than they return, which is what
    // exercises the refinement prune.
    let queries = corpus.padded_knn(&qpoints, 1.5);
    let oracle = l2_oracle(Arc::new(corpus.data.objects.clone()), qpoints);
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: N_NODES,
            seed: SEED,
            knn_k: KNN_K,
            ..SystemConfig::default()
        },
        &[corpus.index("micro")],
        oracle,
    );

    let start = std::time::Instant::now();
    let outcomes = system.run_queries(&queries, 5.0);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;

    let mean_recall = outcomes.iter().map(|o| o.recall).sum::<f64>() / outcomes.len().max(1) as f64;
    let tel = system.telemetry().lock();
    MicroCounters {
        queries: outcomes.len(),
        scanned: tel.registry.counter("store.entries_scanned"),
        skipped: tel.registry.counter("store.entries_skipped"),
        dist_calls: tel.registry.counter("search.refine.dist_calls"),
        pruned: tel.registry.counter("search.refine.pruned"),
        mean_recall,
        elapsed_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// One object of the checked-in `BENCH_micro.json`, as field name →
    /// the value's text exactly as the artifact prints it.
    fn artifact_fields(block: &str) -> BTreeMap<String, String> {
        let text = include_str!("../../../BENCH_micro.json");
        let start = text
            .find(&format!("\"{block}\": {{"))
            .unwrap_or_else(|| panic!("BENCH_micro.json has no `{block}` object"));
        text[start..]
            .lines()
            .skip(1)
            .map(str::trim)
            .take_while(|l| !l.starts_with('}'))
            .map(|l| {
                let (k, v) = l
                    .trim_end_matches(',')
                    .split_once(": ")
                    .expect("`key: value`");
                (k.trim_matches('"').to_string(), v.to_string())
            })
            .collect()
    }

    /// `v`'s fields printed as the artifact prints them.
    fn fields(v: &Value) -> BTreeMap<String, String> {
        let Value::Object(map) = v else {
            panic!("not an object: {v}")
        };
        map.iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    }

    #[test]
    fn full_scenarios_reproduce_the_checked_in_artifact() {
        let mut e2e = fields(&run_micro_scenario(false).to_json());
        let mut want = artifact_fields("e2e_64node");
        // Wall time is the one field no run reproduces.
        assert!(e2e.remove("elapsed_ms").is_some() && want.remove("elapsed_ms").is_some());
        assert_eq!(e2e, want);
    }

    #[test]
    fn quick_scenario_counters_are_deterministic() {
        let a = run_micro_scenario(true);
        let b = run_micro_scenario(true);
        assert_eq!(
            (a.scanned, a.skipped, a.dist_calls, a.pruned),
            (b.scanned, b.skipped, b.dist_calls, b.pruned)
        );
        assert_eq!(a.mean_recall, b.mean_recall);
    }
}
