//! The scaling-law scenario behind `BENCH_scale.json` and the CI
//! `scale-smoke` gate.
//!
//! One fixed dataset (clustered 12-d vectors, landmark-mapped once) is
//! published into overlays of growing size — 1k, 4k, 16k, and at
//! `SIMSEARCH_FULL=1` 64k and 100k nodes — and each overlay answers the
//! same two workloads:
//!
//! * **plain** — a batch of distinct range queries on a healthy
//!   overlay. Its `hops_per_query` is the
//!   scaling-law curve: Chord routes in O(log N), so the per-query hop
//!   count must grow no faster than `c · log2 N`. Recall against the
//!   exact oracle must be 1.0 — pruning is exact at any scale.
//! * **churn** — a hot workload (four query points re-issued round-robin
//!   from four fixed origins) under 5% message loss and two
//!   crash/restart pairs, with replicated publication (`r = 2`) and
//!   retry/failover. Recall must hold ≥ 0.99 as N grows.
//!
//! Everything but the `timing` block (wall clock, peak RSS) is
//! deterministic in the seed, which is what the byte-compare
//! determinism test and the smoke thresholds rely on.

use serde_json::{ToJson, Value};
use simnet::AgentId;
use simsearch::{QuerySpec, ResilienceConfig, SearchSystem, SystemConfig};

use crate::fixture::{peak_rss_kb, Corpus, KNN_K};
use crate::sweep::schedule_churn;
/// Hot-workload shape: four base query points, re-issued from four
/// fixed origins for this many rounds.
const N_HOT_BASE: usize = 4;
const HOT_ROUNDS: usize = 8;
const HOT_ORIGINS: [usize; 4] = [5, 17, 29, 41];
/// Crash/restart pairs injected across the churn run's query span.
const CHURN_PAIRS: usize = 2;
/// Query interarrival (seconds of simulated time) for the churn
/// workload. The churn side must keep this spacing: with message loss
/// on, every cross-host send draws from the shared fault RNG stream, so
/// overlapping queries would reorder the draws and change the counters.
const INTERARRIVAL_S: f64 = 5.0;
/// Query interarrival for the plain workload. Plain queries are
/// independent — no faults (so no per-send RNG draws), no
/// cross-query state, and `SideStats` carries no time-derived fields —
/// so packing them closer changes *no* deterministic counter, only how
/// many queries are in flight at once.
const PLAIN_INTERARRIVAL_S: f64 = 0.08;

/// The dataset-side state shared by every sweep point: the mapped
/// corpus and both query workloads. Building it once keeps the sweep's
/// per-point cost purely overlay.
pub struct ScaleFixture {
    /// Objects published into every overlay.
    pub n_objects: usize,
    /// The mapped corpus every overlay indexes. Its pool is the plain
    /// workload's points, then the hot workload's `N_HOT_BASE`.
    pub corpus: Corpus,
    /// The plain workload: distinct queries with exact top-k truth.
    pub plain_queries: Vec<QuerySpec>,
    /// The hot workload: `N_HOT_BASE` points × `HOT_ROUNDS` repeats.
    pub hot_queries: Vec<QuerySpec>,
}

impl ScaleFixture {
    /// Generate the dataset, select landmarks, map everything, and
    /// compute exact ground truth. `n_queries` sizes the plain batch.
    pub fn build(n_objects: usize, n_queries: usize, seed: u64) -> ScaleFixture {
        let corpus = Corpus::build(n_objects, seed, |data| {
            let mut pool = data.queries(n_queries, seed ^ 0x51);
            pool.extend(data.queries(N_HOT_BASE, seed ^ 0x7C));
            pool
        });
        // Padded top-k, exactly as in the micro scenario.
        let plain_queries = corpus.padded_knn(0..n_queries, 1.5);
        // The hot workload is a *range* workload: a real radius — 5% of
        // the theoretical maximum — whose truth is every object in
        // range. This is the "range recall under churn" curve.
        let hot_probes = (0..N_HOT_BASE * HOT_ROUNDS).map(|i| hot_probe(n_queries, i));
        let hot_queries = corpus.range(hot_probes, 0.05 * corpus.data.max_distance());
        ScaleFixture {
            n_objects,
            corpus,
            plain_queries,
            hot_queries,
        }
    }

    /// The quick fixture used by the smoke gate and the determinism
    /// test; the full fixture is what `BENCH_scale.json` records.
    pub fn quick(seed: u64) -> ScaleFixture {
        ScaleFixture::build(4_000, 24, seed)
    }

    /// The full fixture behind the checked-in artifact.
    pub fn full(seed: u64) -> ScaleFixture {
        ScaleFixture::build(20_000, 48, seed)
    }
}

/// The pool item hot query `i` probes, past the plain workload's
/// `n_plain`: the hot base points round-robin.
fn hot_probe(n_plain: usize, i: usize) -> usize {
    n_plain + i % N_HOT_BASE
}

/// Deterministic counters of one workload run at one overlay size.
#[derive(Clone, Copy, Debug)]
pub struct SideStats {
    /// Queries answered.
    pub queries: usize,
    /// Mean routing hops per query.
    pub hops_per_query: f64,
    /// Mean recall against the exact oracle.
    pub mean_recall: f64,
    /// Wire messages delivered over the run.
    pub messages: u64,
    /// Wire bytes delivered over the run.
    pub bytes: u64,
}

impl ToJson for SideStats {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "queries": self.queries as u64,
            "hops_per_query": self.hops_per_query,
            "mean_recall": self.mean_recall,
            "messages": self.messages,
            "bytes": self.bytes,
        })
    }
}

/// One sweep point: both workloads at one overlay size, plus the
/// (non-deterministic) wall-clock and memory measurements.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Overlay size.
    pub n_nodes: usize,
    /// The healthy scaling-law run.
    pub plain: SideStats,
    /// The loss + crash/restart run.
    pub churn: SideStats,
    /// Wall time to build the plain system (instant ring, publication).
    pub build_ms: f64,
    /// Wall time of everything else (second build + both query runs).
    pub run_ms: f64,
    /// Process peak RSS after this point, kB (`VmHWM`; monotone).
    pub peak_rss_kb: u64,
}

impl ScalePoint {
    /// `log2` of the overlay size — the x-axis of every scaling curve.
    pub fn log2_n(&self) -> f64 {
        (self.n_nodes as f64).log2()
    }

    /// The seed-deterministic subset: everything except `timing`.
    /// Two regenerations of the same sweep point must serialize to
    /// byte-identical strings of this value.
    pub fn deterministic_json(&self) -> Value {
        serde_json::json!({
            "n_nodes": self.n_nodes as u64,
            "log2_n": self.log2_n(),
            "plain": self.plain,
            "churn": self.churn,
        })
    }
}

impl ToJson for ScalePoint {
    fn to_json(&self) -> Value {
        let mut v = self.deterministic_json();
        if let Value::Object(map) = &mut v {
            map.insert(
                "timing".into(),
                serde_json::json!({
                    "build_ms": self.build_ms,
                    "run_ms": self.run_ms,
                    "peak_rss_kb": self.peak_rss_kb,
                }),
            );
        }
        v
    }
}

fn side_stats(
    system: &mut SearchSystem,
    queries: &[QuerySpec],
    origins: Option<&[usize]>,
    interarrival_s: f64,
) -> SideStats {
    let outcomes = match origins {
        Some(o) => system.run_queries_from(queries, o, interarrival_s),
        None => system.run_queries(queries, interarrival_s),
    };
    let n = outcomes.len().max(1) as f64;
    let net = system.net_stats();
    SideStats {
        queries: outcomes.len(),
        hops_per_query: outcomes.iter().map(|o| o.hops as f64).sum::<f64>() / n,
        mean_recall: outcomes.iter().map(|o| o.recall).sum::<f64>() / n,
        messages: net.messages,
        bytes: net.bytes,
    }
}

/// Run both workloads at one overlay size and collect the sweep point.
///
/// The plain system exercises the instant-ring builder and (above the
/// dense threshold) the coordinate topology; at 16k+ nodes this is the
/// path that must build and answer in seconds, not minutes.
pub fn run_scale_point(fixture: &ScaleFixture, n_nodes: usize, seed: u64) -> ScalePoint {
    let t0 = std::time::Instant::now();
    let mut plain_sys = SearchSystem::build(
        SystemConfig {
            n_nodes,
            seed,
            knn_k: KNN_K,
            ..SystemConfig::default()
        },
        &[fixture.corpus.index("scale-plain")],
        fixture.corpus.mapping.oracle(|qid| qid as usize),
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = std::time::Instant::now();
    let plain = side_stats(
        &mut plain_sys,
        &fixture.plain_queries,
        None,
        PLAIN_INTERARRIVAL_S,
    );
    drop(plain_sys);

    let n_plain = fixture.plain_queries.len();
    let mut churn_sys = SearchSystem::build(
        SystemConfig {
            n_nodes,
            seed,
            // Per-node answers must not truncate away range results
            // before the origin-side merge (hot radii are small, but
            // crashes reroute to replica holders mid-query).
            knn_k: 200,
            resilience: Some(ResilienceConfig::default()),
            ..SystemConfig::default()
        },
        &[fixture.corpus.index("scale-churn")],
        fixture
            .corpus
            .mapping
            .oracle(move |qid| hot_probe(n_plain, qid as usize)),
    );
    churn_sys.set_loss_rate(0.05);
    let span_s = INTERARRIVAL_S * fixture.hot_queries.len() as f64;
    schedule_churn(
        &mut churn_sys,
        &HOT_ORIGINS.map(AgentId),
        span_s,
        CHURN_PAIRS,
    );
    let churn = side_stats(
        &mut churn_sys,
        &fixture.hot_queries,
        Some(&HOT_ORIGINS),
        INTERARRIVAL_S,
    );
    ScalePoint {
        n_nodes,
        plain,
        churn,
        build_ms,
        run_ms: t1.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::artifact::{block_fields, fields};

    #[test]
    fn first_full_point_reproduces_the_checked_in_artifact() {
        // The sweep's first point is the 1 024-node one, so its blocks
        // are the artifact's first `plain` and `churn` objects.
        let text = include_str!("../../../BENCH_scale.json");
        let point = run_scale_point(&ScaleFixture::full(0x5CA1E), 1 << 10, 0x5CA1E);
        assert_eq!(fields(&point.plain.to_json()), block_fields(text, "plain"));
        assert_eq!(fields(&point.churn.to_json()), block_fields(text, "churn"));
    }

    #[test]
    fn quick_point_holds_recall_at_small_n() {
        let fixture = ScaleFixture::build(1_500, 8, 0x5CA1E);
        let point = run_scale_point(&fixture, 64, 0x5CA1E);
        assert_eq!(point.plain.mean_recall, 1.0);
        assert!(
            point.churn.mean_recall >= 0.99,
            "churn recall {}",
            point.churn.mean_recall
        );
        assert!(point.plain.hops_per_query > 0.0);
        assert!(point.peak_rss_kb > 0);
    }
}
