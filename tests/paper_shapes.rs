//! Small-scale assertions of the paper's qualitative findings — the
//! "shape" results a reproduction must get right, run at a size suitable
//! for CI. The full curves are regenerated by the bench harnesses.

use landmark::{boundary_from_metric, greedy, kmeans, SelectionMethod};
use metric::{Dataset, L2};
use simnet::SimRng;
use simsearch::{
    map_index, LoadBalanceConfig, QueryOutcome, QuerySpec, SearchSystem, SystemConfig,
};
use workloads::{knn_batch, ClusteredParams, ClusteredVectors};

struct Shape {
    outcomes: Vec<QueryOutcome>,
    loads: Vec<usize>,
}

/// Run the synthetic pipeline at toy scale for one configuration.
fn run_shape(
    method: SelectionMethod,
    k: usize,
    lb: Option<LoadBalanceConfig>,
    naive: Option<u32>,
    factors: &[f64],
    seed: u64,
) -> Shape {
    let data = ClusteredVectors::generate(
        ClusteredParams {
            dims: 30,
            clusters: 5,
            deviation: 10.0,
            n_objects: 4_000,
            ..ClusteredParams::default()
        },
        seed,
    );
    let max_d = data.max_distance();
    let qpoints = data.queries(30, seed ^ 0xF00D);
    let truth = knn_batch::<_, [f32], _>(
        &L2::new(),
        &Dataset::new(data.objects.clone()),
        &qpoints,
        10,
    );
    let (spec, mapping) = map_index::<_, [f32], _>(
        400,
        &mut SimRng::new(seed ^ k as u64),
        qpoints,
        data.objects,
        L2::bounded(30, 0.0, 100.0),
        4_000,
        |m, s, r| match method {
            SelectionMethod::Greedy => greedy::<_, [f32], _>(m, s, k, r),
            _ => kmeans::<_, [f32], _>(m, s, k, 10, r),
        },
        |m, _| boundary_from_metric::<[f32], _>(m.metric(), k).unwrap(),
    );
    let mut queries = Vec::new();
    for &f in factors {
        for (p, nn) in mapping.pool.iter().zip(&truth) {
            queries.push(QuerySpec {
                index: 0,
                point: p.clone(),
                radius: f * max_d,
                truth: nn.iter().map(|&(id, _)| id).collect(),
            });
        }
    }
    let n_pool = mapping.pool.len();
    let oracle = mapping.oracle(move |qid| qid as usize % n_pool);
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: 48,
            seed,
            lb,
            naive_level: naive,
            ..SystemConfig::default()
        },
        &[spec],
        oracle,
    );
    let outcomes = system.run_queries(&queries, 50.0);
    let loads = system.load_distribution(0);
    Shape { outcomes, loads }
}

fn mean_recall(outcomes: &[QueryOutcome]) -> f64 {
    outcomes.iter().map(|o| o.recall).sum::<f64>() / outcomes.len() as f64
}

fn mean_msgs(outcomes: &[QueryOutcome]) -> f64 {
    outcomes.iter().map(|o| o.query_msgs as f64).sum::<f64>() / outcomes.len() as f64
}

/// Paper figure 2 shape: recall grows with the query range factor and
/// approaches 1 by the top of the sweep.
#[test]
fn recall_monotone_in_range_factor() {
    let factors = [0.01, 0.05, 0.15, 0.3];
    let s = run_shape(SelectionMethod::KMeans, 5, None, None, &factors, 31);
    let nq = s.outcomes.len() / factors.len();
    let recalls: Vec<f64> = (0..factors.len())
        .map(|fi| mean_recall(&s.outcomes[fi * nq..(fi + 1) * nq]))
        .collect();
    for w in recalls.windows(2) {
        assert!(w[1] >= w[0] - 0.03, "recall fell: {recalls:?}");
    }
    assert!(recalls.last().unwrap() > &0.95, "final recall {recalls:?}");
}

/// Paper figure 4 shape: dynamic load migration flattens the skewed
/// placement of clustered data.
#[test]
fn load_migration_flattens_clusters() {
    let factors = [0.02];
    let plain = run_shape(SelectionMethod::KMeans, 8, None, None, &factors, 32);
    let balanced = run_shape(
        SelectionMethod::KMeans,
        8,
        Some(LoadBalanceConfig::default()),
        None,
        &factors,
        32,
    );
    let max_plain = plain.loads[0];
    let max_bal = balanced.loads[0];
    assert!(
        max_bal * 2 <= max_plain,
        "LB should at least halve the max load: {max_plain} -> {max_bal}"
    );
    // Conservation.
    assert_eq!(plain.loads.iter().sum::<usize>(), 4_000);
    assert_eq!(balanced.loads.iter().sum::<usize>(), 4_000);
    // And the balanced answers are still exact at this radius.
    assert!(mean_recall(&balanced.outcomes) >= mean_recall(&plain.outcomes) - 0.05);
}

/// §3.3's efficiency claim: the embedded-tree router resolves the same
/// queries with fewer messages than naive per-cuboid decomposition.
#[test]
fn embedded_tree_beats_naive_routing() {
    let factors = [0.1];
    let tree = run_shape(SelectionMethod::KMeans, 5, None, None, &factors, 33);
    let naive = run_shape(SelectionMethod::KMeans, 5, None, Some(8), &factors, 33);
    // Identical answers...
    assert_eq!(mean_recall(&tree.outcomes), mean_recall(&naive.outcomes));
    // ...cheaper delivery.
    assert!(
        mean_msgs(&tree.outcomes) < mean_msgs(&naive.outcomes),
        "tree {} vs naive {}",
        mean_msgs(&tree.outcomes),
        mean_msgs(&naive.outcomes)
    );
}
