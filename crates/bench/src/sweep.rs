//! The figure pipeline: one query-range sweep for the §4.2
//! synthetic dataset and the §4.3 TREC-like corpus.
//!
//! One [`Setup`] (objects, query objects, exact top-10 truth, and how
//! its objects are mapped) is shared by every configuration of a
//! figure. [`run_sweep`] maps it through [`simsearch::map_index`] for
//! one landmark configuration, runs the full sweep, and returns the
//! aggregated series, the final load distribution, every query's
//! outcome and the finished system.

use std::borrow::Borrow;

use landmark::{
    boundary_from_metric, boundary_from_sample, greedy, kmeans, kmedoids, Centroid, SelectionMethod,
};
use metric::{Angular, Dataset, Metric, ObjectId, SparseVector, L2};
use simnet::{AgentId, SimRng, SimTime};
use simsearch::{
    map_index, IndexSpec, LoadBalanceConfig, Mapping, QueryOutcome, QuerySpec, ResilienceConfig,
    SearchSystem, SystemConfig,
};
use workloads::{knn_batch, ClusteredParams, ClusteredVectors, Corpus, CorpusParams};

use crate::report::Row;
use crate::scale::Scale;

/// Mean query interarrival of every sweep, seconds of simulated time.
const MEAN_INTERARRIVAL_S: f64 = 150.0;

/// A figure's data: objects, query objects, their exact top-10, and the
/// mapping its runs share.
pub struct Setup<T> {
    /// The objects every run indexes.
    pub objects: Vec<T>,
    /// The query objects. A sweep issues `Scale::n_queries` queries per
    /// range factor, query `i` probing object `i % queries.len()`.
    pub queries: Vec<T>,
    /// Exact 10-NN ids per query object.
    pub truth: Vec<Vec<ObjectId>>,
    /// The metric's maximum distance, which range factors scale.
    pub max_distance: f64,
    /// The index name's prefix: `synthetic` or `trec`.
    name: &'static str,
    mapping: fn(&Setup<T>, &Scale, &Run) -> (IndexSpec, Mapping),
}

impl<T> Setup<T> {
    /// Select `run`'s landmarks and map the objects and queries.
    pub fn index(&self, scale: &Scale, run: &Run) -> (IndexSpec, Mapping) {
        let (spec, mapping) = (self.mapping)(self, scale, run);
        let name = format!("{}-{}", self.name, run.label());
        let spec = IndexSpec {
            name,
            rotate: run.rotate,
            ..spec
        };
        (spec, mapping)
    }
}

/// Exact 10-NN ids of every query object.
fn top10<T, Q, M>(metric: &M, objects: &Dataset<T>, queries: &[T]) -> Vec<Vec<ObjectId>>
where
    T: Borrow<Q> + Sync,
    Q: ?Sized + Sync,
    M: Metric<Q> + Sync,
{
    knn_batch::<_, Q, _>(metric, objects, queries, 10)
        .into_iter()
        .map(|nn| nn.into_iter().map(|(id, _)| id).collect())
        .collect()
}

/// The Table 1 dataset (scaled population) and queries drawn from the
/// same mixture.
pub fn synth_setup(scale: &Scale) -> Setup<Vec<f32>> {
    let params = ClusteredParams {
        n_objects: scale.n_objects,
        ..ClusteredParams::default()
    };
    let dataset = ClusteredVectors::generate(params, scale.seed);
    let queries = dataset.queries(scale.n_queries, scale.seed ^ 0x0A11);
    let max_distance = dataset.max_distance();
    let objects = Dataset::new(dataset.objects);
    Setup {
        truth: top10::<_, [f32], _>(&L2::new(), &objects, &queries),
        max_distance,
        name: "synthetic",
        objects: objects.into_objects(),
        queries,
        mapping: |s, scale, run| {
            let k = run.k;
            map_index::<_, [f32], _>(
                scale.sample,
                &mut SimRng::new(scale.seed).fork(0x5E1E ^ k as u64),
                s.queries.clone(),
                s.objects.clone(),
                L2::bounded(100, 0.0, 100.0),
                s.objects.len(),
                select(run.method, k, scale.kmeans_iters),
                |m, _| boundary_from_metric::<[f32], _>(m.metric(), k).expect("bounded metric"),
            )
        },
    }
}

/// The TREC-like corpus at `scale`.
pub fn trec_corpus(scale: &Scale) -> Corpus {
    let params = CorpusParams {
        n_docs: scale.corpus_docs,
        vocab: scale.corpus_vocab,
        ..if scale.full {
            CorpusParams::paper_scale()
        } else {
            CorpusParams::default()
        }
    };
    Corpus::generate(params, scale.seed ^ 0x7EC)
}

/// The corpus's documents under the angular (cosine) metric, its 50
/// query topics issued round-robin (paper: 50 topics × 40 = 2000
/// queries), and a boundary from the selection procedure.
pub fn trec_setup(scale: &Scale) -> Setup<SparseVector> {
    let corpus = trec_corpus(scale);
    let docs = Dataset::new(corpus.docs);
    Setup {
        truth: top10::<_, SparseVector, _>(&Angular::new(), &docs, &corpus.topics),
        max_distance: std::f64::consts::FRAC_PI_2,
        name: "trec",
        objects: docs.into_objects(),
        queries: corpus.topics,
        mapping: |s, scale, run| {
            let k = run.k;
            map_index::<_, SparseVector, _>(
                scale.sample,
                &mut SimRng::new(scale.seed).fork(0x7EC5E1 ^ k as u64),
                s.queries.clone(),
                s.objects.clone(),
                Angular::new(),
                s.objects.len(),
                select(run.method, k, scale.kmeans_iters),
                // Paper §3.1 route 2: the min/max mapped coordinates of a
                // sample, with a small margin; out-of-range points clamp
                // onto the boundary. The sample is a stream of its own.
                |m, _| {
                    let n = s.objects.len();
                    let sample: Vec<SparseVector> = SimRng::new(scale.seed)
                        .fork(0xB0)
                        .sample_indices(n, scale.sample.min(n))
                        .into_iter()
                        .map(|i| s.objects[i].clone())
                        .collect();
                    boundary_from_sample::<_, SparseVector, _>(m, &sample, 0.01)
                },
            )
        },
    }
}

/// Landmark selection by `method` on the mapping's selection stream.
fn select<T, Q, M>(
    method: SelectionMethod,
    k: usize,
    iters: usize,
) -> impl FnOnce(&M, &[T], &mut SimRng) -> Vec<T>
where
    T: Centroid + Clone + Borrow<Q> + Sync,
    Q: ?Sized + Sync,
    M: Metric<Q> + Sync,
{
    move |m, sample, rng| match method {
        SelectionMethod::Greedy => greedy::<_, Q, _>(m, sample, k, rng),
        SelectionMethod::KMeans => kmeans::<_, Q, _>(m, sample, k, iters, rng),
        SelectionMethod::KMedoids => kmedoids::<_, Q, _>(m, sample, k, iters, rng),
    }
}

/// One configuration of a sweep.
#[derive(Clone, Debug)]
pub struct Run {
    /// Landmark-selection method.
    pub method: SelectionMethod,
    /// Number of landmarks.
    pub k: usize,
    /// Dynamic load migration (figures 3–6) or none (figure 2).
    pub lb: Option<LoadBalanceConfig>,
    /// Naive routing baseline level (ablation).
    pub naive: Option<u32>,
    /// PNS candidates (16 = paper; 0 = plain Chord, ablation).
    pub pns: usize,
    /// Static rotation (multi-index ablation; single-index experiments
    /// leave it off as it only permutes placement).
    pub rotate: bool,
    /// Join-time balancing (node ids split the heaviest range).
    pub load_aware_join: bool,
    /// Retry/failover + replicated publication (churn scenarios).
    pub resilience: Option<ResilienceConfig>,
    /// Uniform message-drop probability applied to the query phase.
    pub loss: f64,
    /// Crash/restart pairs injected across the query phase.
    pub churn: usize,
}

impl Run {
    /// The paper's plot label, e.g. `KMean-10`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.method, self.k)
    }

    /// A figure configuration: the paper's system with `lb`.
    pub fn new(method: SelectionMethod, k: usize, lb: Option<LoadBalanceConfig>) -> Run {
        Run {
            method,
            k,
            lb,
            naive: None,
            pns: 16,
            rotate: false,
            load_aware_join: false,
            resilience: None,
            loss: 0.0,
            churn: 0,
        }
    }
}

/// What one sweep produced.
pub struct Sweep {
    /// One aggregated row per range factor.
    pub rows: Vec<Row>,
    /// The final load distribution, heaviest node first.
    pub loads: Vec<usize>,
    /// Every query's outcome; qid = factor index × n_queries + query index.
    pub outcomes: Vec<QueryOutcome>,
    /// The finished system, for its telemetry and per-query plans.
    pub system: SearchSystem,
}

/// Build the system for one configuration and run the query-range
/// sweep over `factors`.
pub fn run_sweep<T: Clone + Sync>(
    scale: &Scale,
    setup: &Setup<T>,
    run: &Run,
    factors: &[f64],
) -> Sweep {
    let (spec, mapping) = setup.index(scale, run);
    let nq = scale.n_queries;
    let n_pool = setup.queries.len();
    let queries: Vec<QuerySpec> = factors
        .iter()
        .flat_map(|&f| (0..nq).map(move |qi| (f, qi % n_pool)))
        .map(|(f, p)| QuerySpec {
            index: 0,
            point: mapping.pool[p].clone(),
            radius: f * setup.max_distance,
            truth: setup.truth[p].clone(),
        })
        .collect();
    let oracle = mapping.oracle(move |qid| (qid as usize % nq) % n_pool);
    let cfg = SystemConfig {
        n_nodes: scale.n_nodes,
        seed: scale.seed,
        naive_level: run.naive,
        pns_candidates: run.pns,
        lb: run.lb,
        load_aware_join: run.load_aware_join,
        resilience: run.resilience.clone(),
        ..SystemConfig::default()
    };
    let mut system = SearchSystem::build(cfg, &[spec], oracle);
    if run.loss > 0.0 {
        system.set_loss_rate(run.loss);
    }
    if run.churn > 0 {
        let schedule = system.query_schedule(queries.len(), MEAN_INTERARRIVAL_S);
        let origins: Vec<AgentId> = schedule.into_iter().map(|(_, o)| o).collect();
        let span_s = MEAN_INTERARRIVAL_S * queries.len() as f64;
        schedule_churn(&mut system, &origins, span_s, run.churn);
    }
    let outcomes = system.run_queries(&queries, MEAN_INTERARRIVAL_S);
    Sweep {
        rows: group_rows(&run.label(), factors, nq, &outcomes),
        loads: system.load_distribution(0),
        outcomes,
        system,
    }
}

/// Inject `pairs` crash/restart pairs spread across `span_s` seconds.
/// Victims are picked deterministically: never one of the query
/// `origins` (it holds the query's merge state) and never ring-adjacent
/// to another victim (with `r = 2`, two adjacent nodes down together
/// would take an owner and its replica holder at once).
pub fn schedule_churn(system: &mut SearchSystem, origins: &[AgentId], span_s: f64, pairs: usize) {
    let ring: Vec<AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
    let n = ring.len();
    let mut victims: Vec<usize> = Vec::new();
    for (pos, addr) in ring.iter().enumerate() {
        if victims.len() == pairs {
            break;
        }
        let adjacent = victims
            .iter()
            .any(|&v| (pos + n - v) % n <= 1 || (v + n - pos) % n <= 1);
        if !origins.contains(addr) && !adjacent {
            victims.push(pos);
        }
    }
    assert_eq!(
        victims.len(),
        pairs,
        "ring too small for {pairs} non-adjacent churn victims"
    );
    for (i, &pos) in victims.iter().enumerate() {
        let t0 = span_s * (i as f64 + 0.5) / (pairs as f64 + 1.0);
        system.schedule_crash(SimTime::from_secs_f64(t0), ring[pos]);
        system.schedule_restart(SimTime::from_secs_f64(t0 + 0.25 * span_s), ring[pos]);
    }
}

/// Aggregate flat outcomes back into per-factor rows.
pub fn group_rows(label: &str, factors: &[f64], nq: usize, outcomes: &[QueryOutcome]) -> Vec<Row> {
    let per_factor = outcomes.chunks(nq);
    let rows = factors.iter().zip(per_factor);
    rows.map(|(&f, o)| Row::from_outcomes(label, f, o))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::RANGE_FACTORS;

    fn tiny_scale() -> Scale {
        Scale {
            n_nodes: 32,
            n_objects: 1_500,
            n_queries: 20,
            sample: 200,
            kmeans_iters: 6,
            ..Scale::quick()
        }
    }

    fn tiny_trec_scale() -> Scale {
        Scale {
            n_nodes: 24,
            n_queries: 20,
            corpus_docs: 1_200,
            corpus_vocab: 8_000,
            sample: 200,
            kmeans_iters: 5,
            ..Scale::quick()
        }
    }

    #[test]
    fn pipeline_runs_and_recall_increases_with_range() {
        let scale = tiny_scale();
        let setup = synth_setup(&scale);
        assert_eq!(setup.truth.len(), 20);
        assert!(setup.truth.iter().all(|t| t.len() == 10));
        let run = Run::new(SelectionMethod::KMeans, 5, None);
        let Sweep { rows, loads, .. } = run_sweep(&scale, &setup, &run, RANGE_FACTORS);
        assert_eq!(rows.len(), RANGE_FACTORS.len());
        // Recall is monotone non-decreasing in the range factor (same
        // queries, larger search region) and reaches (near) 1 at 20%.
        for w in rows.windows(2) {
            assert!(
                w[1].recall >= w[0].recall - 0.05,
                "recall dropped: {} -> {}",
                w[0].recall,
                w[1].recall
            );
        }
        let last = rows.last().unwrap();
        assert!(last.recall > 0.9, "recall at 20%: {}", last.recall);
        // Entries conserved.
        assert_eq!(loads.iter().sum::<usize>(), 1_500);
        // Costs are positive once the range is non-trivial.
        assert!(last.query_bytes > 0.0);
        assert!(last.max_latency_ms >= last.response_ms);
    }

    #[test]
    fn greedy_and_kmeans_labels() {
        assert_eq!(
            Run::new(SelectionMethod::Greedy, 10, None).label(),
            "Greedy-10"
        );
        assert_eq!(
            Run::new(SelectionMethod::KMeans, 5, None).label(),
            "KMean-5"
        );
    }

    #[test]
    fn trec_pipeline_runs() {
        let scale = tiny_trec_scale();
        let setup = trec_setup(&scale);
        assert_eq!(setup.truth.len(), 50);
        let run = Run::new(SelectionMethod::KMeans, 6, None);
        let Sweep { rows, loads, .. } = run_sweep(&scale, &setup, &run, &[0.02, 0.10, 0.20]);
        assert_eq!(rows.len(), 3);
        assert_eq!(loads.iter().sum::<usize>(), 1_200);
        // Recall grows with range.
        assert!(rows[2].recall >= rows[0].recall - 0.05);
    }

    #[test]
    fn greedy_landmarks_pile_docs_near_boundary() {
        // The paper's central TREC observation: with greedy (sparse
        // document) landmarks, a large share of documents sit at or near
        // the maximum distance to *every* landmark, mapping to a thin
        // shell near the index-space upper boundary.
        let scale = tiny_trec_scale();
        let setup = trec_setup(&scale);
        let near_max_frac = |method| {
            let (spec, _) = setup.index(&scale, &Run::new(method, 6, None));
            let max = std::f64::consts::FRAC_PI_2;
            let pts = &spec.points;
            let near = pts
                .iter()
                .filter(|p| p.iter().all(|&x| x > max * 0.97))
                .count();
            near as f64 / pts.len() as f64
        };
        let g = near_max_frac(SelectionMethod::Greedy);
        let k = near_max_frac(SelectionMethod::KMeans);
        assert!(
            g > k,
            "greedy should pile more docs near the boundary: greedy {g:.3} vs kmeans {k:.3}"
        );
        assert!(g > 0.2, "greedy boundary shell too thin: {g:.3}");
    }
}
