//! The scaling-law scenario behind `BENCH_scale.json` and the CI
//! `scale-smoke` gate.
//!
//! One fixed dataset (clustered 12-d vectors, landmark-mapped once) is
//! published into overlays of growing size — 1k, 4k, 16k, and at
//! `SIMSEARCH_FULL=1` 64k and 100k nodes — and each overlay answers the
//! same two workloads:
//!
//! * **plain** — a batch of distinct range queries on a healthy overlay
//!   with the optimization layer off. Its `hops_per_query` is the
//!   scaling-law curve: Chord routes in O(log N), so the per-query hop
//!   count must grow no faster than `c · log2 N`. Recall against the
//!   exact oracle must be 1.0 — pruning is exact at any scale.
//! * **churn** — a hot workload (four query points re-issued round-robin
//!   from four fixed origins) under 5% message loss and two
//!   crash/restart pairs, with replicated publication (`r = 2`),
//!   retry/failover, and the routing-plane cache on. Recall must hold
//!   ≥ 0.99, and the shortcut/result cache must keep firing as N grows.
//!
//! Everything but the `timing` block (wall clock, peak RSS) is
//! deterministic in the seed, which is what the byte-compare
//! determinism test and the smoke thresholds rely on.

use std::sync::Arc;

use landmark::{boundary_from_sample, kmeans, Mapper};
use metric::{Dataset, Metric, ObjectId, L2};
use serde_json::{ToJson, Value};
use simnet::{AgentId, SimRng, SimTime};
use simsearch::{
    IndexSpec, QueryDistance, QueryId, QuerySpec, ResilienceConfig, RoutingOptConfig, SearchSystem,
    SystemConfig,
};
use workloads::{ground_truth, ClusteredParams, ClusteredVectors};

const K_LANDMARKS: usize = 5;
const KNN_K: usize = 10;
/// Hot-workload shape: four base query points, re-issued from four
/// fixed origins for this many rounds (cache hits need repetition).
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
/// independent — no faults (so no per-send RNG draws), no caches, no
/// cross-query state, and `SideStats` carries no time-derived fields —
/// so packing them closer changes *no* deterministic counter, only how
/// many queries are in flight at once.
const PLAIN_INTERARRIVAL_S: f64 = 0.08;

/// The dataset-side state shared by every sweep point: mapped points,
/// index boundary, both query workloads, and their distance oracles.
/// Building it once keeps the sweep's per-point cost purely overlay.
pub struct ScaleFixture {
    /// Objects published into every overlay.
    pub n_objects: usize,
    /// Landmark-space index boundary.
    pub boundary: Vec<(f64, f64)>,
    /// Landmark-mapped dataset (`ObjectId(i)` = row `i`).
    pub points: Vec<Vec<f64>>,
    /// The plain workload: distinct queries with exact top-k truth.
    pub plain_queries: Vec<QuerySpec>,
    /// The hot workload: `N_HOT_BASE` points × `HOT_ROUNDS` repeats.
    pub hot_queries: Vec<QuerySpec>,
    /// True-distance oracle for the plain workload's qid space.
    pub plain_oracle: Arc<dyn QueryDistance>,
    /// True-distance oracle for the hot workload's qid space.
    pub hot_oracle: Arc<dyn QueryDistance>,
}

impl ScaleFixture {
    /// Generate the dataset, select landmarks, map everything, and
    /// compute exact ground truth. `n_queries` sizes the plain batch.
    pub fn build(n_objects: usize, n_queries: usize, seed: u64) -> ScaleFixture {
        let data = ClusteredVectors::generate(
            ClusteredParams {
                dims: 12,
                clusters: 5,
                deviation: 9.0,
                n_objects,
                ..ClusteredParams::default()
            },
            seed,
        );
        let metric = L2::bounded(12, 0.0, 100.0);
        let mut rng = SimRng::new(seed);
        let sample: Vec<Vec<f32>> = rng
            .sample_indices(data.objects.len(), 250)
            .into_iter()
            .map(|i| data.objects[i].clone())
            .collect();
        let landmarks = kmeans::<_, [f32], _>(&metric, &sample, K_LANDMARKS, 10, &mut rng);
        let mapper = Mapper::new(metric, landmarks);
        let points = mapper.map_all::<[f32], _>(&data.objects);
        let boundary = boundary_from_sample::<_, [f32], _>(&mapper, &sample, 0.05).dims;

        let dataset = Dataset::new(data.objects.clone());
        // Truth is the exact top-k; the radius is padded past the k-th
        // distance so recall 1.0 is achievable and non-answers exercise
        // refinement, exactly as in the micro scenario.
        let to_specs = |qpoints: &[Vec<f32>]| -> Vec<QuerySpec> {
            let truth =
                ground_truth::knn_batch::<_, [f32], _>(&L2::new(), &dataset, qpoints, KNN_K);
            qpoints
                .iter()
                .zip(&truth)
                .map(|(q, t)| QuerySpec {
                    index: 0,
                    point: mapper.map(q.as_slice()).into_vec(),
                    radius: t[KNN_K - 1].1 * 1.5,
                    truth: t.iter().map(|&(id, _)| id).collect(),
                })
                .collect()
        };

        let plain_points = data.queries(n_queries, seed ^ 0x51);
        let plain_queries = to_specs(&plain_points);

        // The hot workload is a *range* workload (micro cache-scenario
        // shape): a real radius — 5% of the theoretical maximum — whose
        // truth is every object in range. Range arcs are wide enough
        // for the result-cache fill to complete and for the learned
        // shortcuts to keep paying off at every overlay size; this is
        // also the "range recall under churn" curve.
        let hot_base = data.queries(N_HOT_BASE, seed ^ 0x7C);
        let hot_radius = 0.05 * data.max_distance();
        let hot_points: Vec<Vec<f32>> = (0..N_HOT_BASE * HOT_ROUNDS)
            .map(|i| hot_base[i % N_HOT_BASE].clone())
            .collect();
        let hot_queries: Vec<QuerySpec> = hot_points
            .iter()
            .map(|q| QuerySpec {
                index: 0,
                point: mapper.map(q.as_slice()).into_vec(),
                radius: hot_radius,
                truth: data
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| L2::new().distance(q.as_slice(), o.as_slice()) <= hot_radius)
                    .map(|(i, _)| ObjectId(i as u32))
                    .collect(),
            })
            .collect();

        let objects = Arc::new(data.objects);
        let mk_oracle = |qp: Vec<Vec<f32>>| -> Arc<dyn QueryDistance> {
            let objects = objects.clone();
            let qp = Arc::new(qp);
            Arc::new(move |qid: QueryId, obj: ObjectId| {
                L2::new().distance(
                    qp[qid as usize].as_slice(),
                    objects[obj.0 as usize].as_slice(),
                )
            })
        };
        let plain_oracle = mk_oracle(plain_points);
        let hot_oracle = mk_oracle(hot_points);

        ScaleFixture {
            n_objects,
            boundary,
            points,
            plain_queries,
            hot_queries,
            plain_oracle,
            hot_oracle,
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
    /// Result-cache hits (zero on the plain side by construction).
    pub cache_hits: u64,
}

impl SideStats {
    /// Cache hits per issued query.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / self.queries.max(1) as f64
    }
}

impl ToJson for SideStats {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "queries": self.queries as u64,
            "hops_per_query": self.hops_per_query,
            "mean_recall": self.mean_recall,
            "messages": self.messages,
            "bytes": self.bytes,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate(),
        })
    }
}

/// One sweep point: both workloads at one overlay size, plus the
/// (non-deterministic) wall-clock and memory measurements.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Overlay size.
    pub n_nodes: usize,
    /// The healthy, optimization-off scaling-law run.
    pub plain: SideStats,
    /// The loss + crash/restart + cache run.
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

/// Process peak resident set (`VmHWM`) in kB; 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Inject `CHURN_PAIRS` crash/restart pairs across the hot workload's
/// span. Victims are deterministic ring positions that are neither a
/// query origin (it holds merge state) nor ring-adjacent to another
/// victim (adjacent victims could take an owner and its `r = 2` replica
/// holder down together).
fn schedule_hot_churn(system: &mut SearchSystem, origins: &[usize], span_s: f64) {
    let origin_addrs: Vec<AgentId> = origins.iter().map(|&o| AgentId(o)).collect();
    let ring: Vec<AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
    let n = ring.len();
    let mut victims: Vec<usize> = Vec::new();
    for (pos, addr) in ring.iter().enumerate() {
        if victims.len() == CHURN_PAIRS {
            break;
        }
        let adjacent = victims
            .iter()
            .any(|&v| (pos + n - v) % n <= 1 || (v + n - pos) % n <= 1);
        if !origin_addrs.contains(addr) && !adjacent {
            victims.push(pos);
        }
    }
    assert_eq!(
        victims.len(),
        CHURN_PAIRS,
        "ring too small for churn victims"
    );
    for (i, &pos) in victims.iter().enumerate() {
        let t0 = span_s * (i as f64 + 0.5) / (CHURN_PAIRS as f64 + 1.0);
        system.schedule_crash(SimTime::from_secs_f64(t0), ring[pos]);
        system.schedule_restart(SimTime::from_secs_f64(t0 + 0.25 * span_s), ring[pos]);
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
    let tel = system.telemetry().lock();
    SideStats {
        queries: outcomes.len(),
        hops_per_query: outcomes.iter().map(|o| o.hops as f64).sum::<f64>() / n,
        mean_recall: outcomes.iter().map(|o| o.recall).sum::<f64>() / n,
        messages: net.messages,
        bytes: net.bytes,
        cache_hits: tel.registry.counter("cache.hits"),
    }
}

/// Run both workloads at one overlay size and collect the sweep point.
///
/// The plain system exercises the instant-ring builder and (above the
/// dense threshold) the coordinate topology; at 16k+ nodes this is the
/// path that must build and answer in seconds, not minutes.
pub fn run_scale_point(fixture: &ScaleFixture, n_nodes: usize, seed: u64) -> ScalePoint {
    let spec = |name: &str| IndexSpec {
        name: name.into(),
        boundary: fixture.boundary.clone(),
        points: fixture.points.clone(),
        rotate: true,
        rotation: None,
    };

    let t0 = std::time::Instant::now();
    let mut plain_sys = SearchSystem::build(
        SystemConfig {
            n_nodes,
            seed,
            knn_k: KNN_K,
            ..SystemConfig::default()
        },
        &[spec("scale-plain")],
        fixture.plain_oracle.clone(),
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

    let mut churn_sys = SearchSystem::build(
        SystemConfig {
            n_nodes,
            seed,
            // Per-node answers must not truncate away range results
            // before the origin-side merge (hot radii are small, but
            // crashes reroute to replica holders mid-query).
            knn_k: 200,
            resilience: Some(ResilienceConfig::default()),
            routing_opt: Some(RoutingOptConfig::default()),
            ..SystemConfig::default()
        },
        &[spec("scale-churn")],
        fixture.hot_oracle.clone(),
    );
    churn_sys.set_loss_rate(0.05);
    let span_s = INTERARRIVAL_S * fixture.hot_queries.len() as f64;
    schedule_hot_churn(&mut churn_sys, &HOT_ORIGINS, span_s);
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
        assert!(
            point.churn.cache_hits > 0,
            "hot workload never hit the cache"
        );
        assert!(point.peak_rss_kb > 0);
    }
}
