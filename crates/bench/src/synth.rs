//! The §4.2 synthetic-dataset experiment pipeline.
//!
//! One [`SynthSetup`] (dataset, query points, exact ground truth) is
//! shared by every configuration of a figure; [`run_synth`] then runs a
//! full query-range sweep for one landmark-selection configuration and
//! returns the aggregated series plus the final load distribution.

use std::sync::Arc;

use landmark::{boundary_from_metric, greedy, kmeans, Mapper, SelectionMethod};
use metric::{Metric, ObjectId, L2};
use rayon::prelude::*;
use simnet::SimRng;
use simsearch::{
    IndexSpec, LoadBalanceConfig, QueryDistance, QueryId, QueryOutcome, QuerySpec, SearchSystem,
    SystemConfig,
};
use workloads::{ClusteredParams, ClusteredVectors};

use crate::report::Row;
use crate::scale::Scale;

/// Dataset, query points, and radius-independent exact top-10 ids.
pub struct SynthSetup {
    /// The Table 1 dataset (scaled population).
    pub dataset: ClusteredVectors,
    /// Query points, drawn from the same mixture.
    pub qpoints: Vec<Vec<f32>>,
    /// Exact 10-NN ids per query point.
    pub truth: Vec<Vec<ObjectId>>,
}

/// Generate dataset + queries + ground truth (the expensive shared part).
pub fn synth_setup(scale: &Scale) -> SynthSetup {
    let params = ClusteredParams {
        n_objects: scale.n_objects,
        ..ClusteredParams::default()
    };
    let dataset = ClusteredVectors::generate(params, scale.seed);
    let qpoints = dataset.queries(scale.n_queries, scale.seed ^ 0x0A11);
    let metric = L2::new();
    let objects = &dataset.objects;
    let truth: Vec<Vec<ObjectId>> = qpoints
        .par_iter()
        .map(|q| {
            let mut best: Vec<(ObjectId, f64)> = Vec::with_capacity(11);
            for (i, o) in objects.iter().enumerate() {
                let d = metric.distance(q.as_slice(), o.as_slice());
                let id = ObjectId(i as u32);
                let pos = best.partition_point(|&(bid, bd)| bd < d || (bd == d && bid < id));
                if pos < 10 {
                    best.insert(pos, (id, d));
                    best.truncate(10);
                }
            }
            best.into_iter().map(|(id, _)| id).collect()
        })
        .collect();
    SynthSetup {
        dataset,
        qpoints,
        truth,
    }
}

/// One configuration of the synthetic experiment.
#[derive(Clone, Debug)]
pub struct SynthRun {
    /// Landmark-selection method.
    pub method: SelectionMethod,
    /// Number of landmarks.
    pub k: usize,
    /// Dynamic load migration (figures 3/4) or none (figure 2).
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
    pub resilience: Option<simsearch::ResilienceConfig>,
    /// Routing-plane caching & sub-query batching (hot-workload runs).
    pub routing_opt: Option<simsearch::RoutingOptConfig>,
    /// Uniform message-drop probability applied to the query phase.
    pub loss: f64,
    /// Crash/restart pairs injected across the query phase.
    pub churn: usize,
}

impl SynthRun {
    /// The paper's plot label, e.g. `KMean-10`.
    pub fn label(&self) -> String {
        format!("{}-{}", self.method, self.k)
    }

    /// Figure 2/3 configuration.
    pub fn new(method: SelectionMethod, k: usize, lb: Option<LoadBalanceConfig>) -> SynthRun {
        SynthRun {
            method,
            k,
            lb,
            naive: None,
            pns: 16,
            rotate: false,
            load_aware_join: false,
            resilience: None,
            routing_opt: None,
            loss: 0.0,
            churn: 0,
        }
    }
}

/// Inject `pairs` crash/restart pairs, spread across the expected span of
/// an `n_queries`-query workload. Victims are picked deterministically:
/// never a query origin (it holds the query's merge state) and never
/// ring-adjacent to another victim (with `r = 2`, two adjacent nodes
/// down together would take an owner and its replica holder at once).
pub fn schedule_churn(
    system: &mut SearchSystem,
    n_queries: usize,
    mean_interarrival_s: f64,
    pairs: usize,
) {
    let origins: Vec<simnet::AgentId> = system
        .query_schedule(n_queries, mean_interarrival_s)
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let ring: Vec<simnet::AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
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
    let span = mean_interarrival_s * n_queries as f64;
    for (i, &pos) in victims.iter().enumerate() {
        let t0 = span * (i as f64 + 0.5) / (pairs as f64 + 1.0);
        system.schedule_crash(simnet::SimTime::from_secs_f64(t0), ring[pos]);
        system.schedule_restart(simnet::SimTime::from_secs_f64(t0 + 0.25 * span), ring[pos]);
    }
}

/// Select landmarks per the run's method from a sample of the dataset.
pub fn select_landmarks(
    setup: &SynthSetup,
    method: SelectionMethod,
    k: usize,
    scale: &Scale,
) -> Vec<Vec<f32>> {
    let mut rng = SimRng::new(scale.seed).fork(0x5E1E ^ k as u64);
    let sample_idx = rng.sample_indices(setup.dataset.objects.len(), scale.sample);
    let sample: Vec<Vec<f32>> = sample_idx
        .iter()
        .map(|&i| setup.dataset.objects[i].clone())
        .collect();
    let metric = L2::new();
    match method {
        SelectionMethod::Greedy => greedy::<_, [f32], _>(&metric, &sample, k, &mut rng),
        SelectionMethod::KMeans => {
            kmeans::<_, [f32], _>(&metric, &sample, k, scale.kmeans_iters, &mut rng)
        }
        SelectionMethod::KMedoids => {
            landmark::kmedoids::<_, [f32], _>(&metric, &sample, k, scale.kmeans_iters, &mut rng)
        }
    }
}

/// Build the system for one configuration and run the query-range sweep.
/// Returns `(series rows, load distribution)`.
pub fn run_synth(
    scale: &Scale,
    setup: &SynthSetup,
    run: &SynthRun,
    factors: &[f64],
) -> (Vec<Row>, Vec<usize>) {
    let (rows, loads, _system) = run_synth_system(scale, setup, run, factors);
    (rows, loads)
}

/// [`run_synth`], additionally returning the finished system so callers
/// can inspect run telemetry (snapshot, per-query plans).
pub fn run_synth_system(
    scale: &Scale,
    setup: &SynthSetup,
    run: &SynthRun,
    factors: &[f64],
) -> (Vec<Row>, Vec<usize>, SearchSystem) {
    let landmarks = select_landmarks(setup, run.method, run.k, scale);
    let metric = L2::bounded(100, 0.0, 100.0);
    let mapper = Mapper::new(metric, landmarks);
    let boundary = boundary_from_metric(&metric, run.k).expect("bounded metric");

    let points = mapper.map_all::<[f32], _>(&setup.dataset.objects);
    let qmapped = mapper.map_all::<[f32], _>(&setup.qpoints);

    let spec = IndexSpec {
        name: format!("synthetic-{}", run.label()),
        boundary: boundary.dims.clone(),
        points,
        rotate: run.rotate,
        rotation: None,
    };

    // One flat workload: qid = factor_index * n_queries + query_index.
    let nq = setup.qpoints.len();
    let max_d = setup.dataset.max_distance();
    let mut queries = Vec::with_capacity(nq * factors.len());
    for &f in factors {
        for (qi, qm) in qmapped.iter().enumerate() {
            queries.push(QuerySpec {
                index: 0,
                point: qm.clone(),
                radius: f * max_d,
                truth: setup.truth[qi].clone(),
            });
        }
    }

    let oracle_objects: Arc<Vec<Vec<f32>>> = Arc::new(setup.dataset.objects.clone());
    let oracle_queries: Arc<Vec<Vec<f32>>> = Arc::new(setup.qpoints.clone());
    let l2 = L2::new();
    let oracle: Arc<dyn QueryDistance> = Arc::new(move |qid: QueryId, obj: ObjectId| {
        let q = &oracle_queries[(qid as usize) % nq];
        l2.distance(q.as_slice(), oracle_objects[obj.0 as usize].as_slice())
    });

    let cfg = SystemConfig {
        n_nodes: scale.n_nodes,
        seed: scale.seed,
        naive_level: run.naive,
        pns_candidates: run.pns,
        lb: run.lb,
        load_aware_join: run.load_aware_join,
        resilience: run.resilience.clone(),
        routing_opt: run.routing_opt.clone(),
        ..SystemConfig::default()
    };
    let mut system = SearchSystem::build(cfg, &[spec], oracle);
    if run.loss > 0.0 {
        system.set_loss_rate(run.loss);
    }
    if run.churn > 0 {
        schedule_churn(&mut system, queries.len(), 150.0, run.churn);
    }
    let outcomes = system.run_queries(&queries, 150.0);

    let rows = group_rows(&run.label(), factors, nq, &outcomes);
    let loads = system.load_distribution(0);
    (rows, loads, system)
}

/// Aggregate flat outcomes back into per-factor rows.
pub fn group_rows(label: &str, factors: &[f64], nq: usize, outcomes: &[QueryOutcome]) -> Vec<Row> {
    factors
        .iter()
        .enumerate()
        .map(|(fi, &f)| {
            let slice = &outcomes[fi * nq..(fi + 1) * nq];
            Row::from_outcomes(label, f, slice)
        })
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

    #[test]
    fn pipeline_runs_and_recall_increases_with_range() {
        let scale = tiny_scale();
        let setup = synth_setup(&scale);
        assert_eq!(setup.truth.len(), 20);
        assert!(setup.truth.iter().all(|t| t.len() == 10));
        let run = SynthRun::new(SelectionMethod::KMeans, 5, None);
        let (rows, loads) = run_synth(&scale, &setup, &run, RANGE_FACTORS);
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
            SynthRun::new(SelectionMethod::Greedy, 10, None).label(),
            "Greedy-10"
        );
        assert_eq!(
            SynthRun::new(SelectionMethod::KMeans, 5, None).label(),
            "KMean-5"
        );
    }
}
