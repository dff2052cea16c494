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
use simsearch::{RoutingOptConfig, SearchSystem, SystemConfig};

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

/// One side of the cache A/B comparison: aggregate network cost of the
/// hot query batch with the routing-plane optimization layer off or on.
#[derive(Clone, Copy, Debug)]
pub struct CacheSide {
    /// Wire messages delivered over the whole run.
    pub messages: u64,
    /// Wire bytes delivered over the whole run.
    pub bytes: u64,
    /// Mean routing hops per query.
    pub hops_per_query: f64,
    /// Mean recall against the brute-force range oracle.
    pub mean_recall: f64,
    /// Result-cache hits (zero on the base side by construction).
    pub cache_hits: u64,
    /// Coalesced sub-query batches (zero on the base side).
    pub coalesced: u64,
}

/// The cache A/B scenario's counters: the same deterministic hot
/// workload (four query points re-issued round-robin from four fixed
/// origins) run twice, `routing_opt` off vs. on. All counters are
/// deterministic, so the bench-smoke gate can hold the optimized side
/// to hard floors and ceilings.
#[derive(Clone, Copy, Debug)]
pub struct CacheCounters {
    /// Queries answered per side.
    pub queries: usize,
    /// The `routing_opt: None` run.
    pub base: CacheSide,
    /// The `routing_opt: Some(default)` run.
    pub opt: CacheSide,
}

impl CacheCounters {
    /// Total-message reduction factor of the optimization layer.
    pub fn message_reduction(&self) -> f64 {
        self.base.messages as f64 / self.opt.messages.max(1) as f64
    }
}

impl ToJson for CacheCounters {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "queries": self.queries as u64,
            "messages_base": self.base.messages,
            "messages_opt": self.opt.messages,
            "message_reduction": self.message_reduction(),
            "bytes_base": self.base.bytes,
            "bytes_opt": self.opt.bytes,
            "hops_per_query_base": self.base.hops_per_query,
            "hops_per_query_opt": self.opt.hops_per_query,
            "cache_hits": self.opt.cache_hits,
            "batch_coalesced": self.opt.coalesced,
            "mean_recall_base": self.base.mean_recall,
            "mean_recall_opt": self.opt.mean_recall,
        })
    }
}

/// Run the hot-workload cache A/B scenario and collect its counters.
///
/// `quick` shrinks the dataset and the number of repeat rounds (the CI
/// smoke size); the full size is what `BENCH_micro.json` records.
pub fn run_cache_scenario(quick: bool) -> CacheCounters {
    const N_BASE: usize = 4;
    const ORIGINS: [usize; N_BASE] = [5, 17, 29, 41];
    let (n_objects, rounds) = if quick { (1_000, 4) } else { (2_000, 6) };

    let corpus = Corpus::build(n_objects, SEED);
    let base_q = corpus.data.queries(N_BASE, SEED ^ 0x7C);
    let radius = 0.05 * corpus.data.max_distance();
    let qpoints: Vec<Vec<f32>> = (0..N_BASE * rounds)
        .map(|i| base_q[i % N_BASE].clone())
        .collect();
    let queries = corpus.range(&qpoints, radius);
    let oracle = l2_oracle(Arc::new(corpus.data.objects.clone()), qpoints);

    let run = |opt: Option<RoutingOptConfig>| -> CacheSide {
        let mut system = SearchSystem::build(
            SystemConfig {
                n_nodes: N_NODES,
                seed: SEED,
                // Per-node answers must not truncate away range results.
                knn_k: 200,
                routing_opt: opt,
                ..SystemConfig::default()
            },
            &[corpus.index("cache")],
            oracle.clone(),
        );
        let outcomes = system.run_queries_from(&queries, &ORIGINS, 5.0);
        let n = outcomes.len().max(1) as f64;
        let net = system.net_stats();
        let tel = system.telemetry().lock();
        CacheSide {
            messages: net.messages,
            bytes: net.bytes,
            hops_per_query: outcomes.iter().map(|o| o.hops as f64).sum::<f64>() / n,
            mean_recall: outcomes.iter().map(|o| o.recall).sum::<f64>() / n,
            cache_hits: tel.registry.counter("cache.hits"),
            coalesced: tel.registry.counter("batch.coalesced"),
        }
    };

    CacheCounters {
        queries: N_BASE * rounds,
        base: run(None),
        opt: run(Some(RoutingOptConfig::default())),
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
        assert_eq!(
            fields(&run_cache_scenario(false).to_json()),
            artifact_fields("cache_64node")
        );
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

    #[test]
    fn quick_cache_scenario_beats_baseline_at_full_recall() {
        let c = run_cache_scenario(true);
        assert_eq!(c.base.mean_recall, 1.0);
        assert_eq!(c.opt.mean_recall, 1.0);
        assert!(
            c.opt.messages < c.base.messages,
            "opt {} vs base {} messages",
            c.opt.messages,
            c.base.messages
        );
        assert!(c.opt.hops_per_query < c.base.hops_per_query);
        assert!(c.opt.cache_hits > 0);
    }
}
