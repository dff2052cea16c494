//! Reproducibility: the whole pipeline — data generation through
//! simulated query execution — is a pure function of the seed.

use landmark::{boundary_from_metric, greedy};
use metric::L2;
use simnet::SimRng;
use simsearch::{map_index, IndexSpec, QueryOutcome, QuerySpec, SearchSystem, SystemConfig};
use workloads::{ClusteredParams, ClusteredVectors};

fn run_once(seed: u64) -> Vec<QueryOutcome> {
    let data = ClusteredVectors::generate(
        ClusteredParams {
            dims: 10,
            clusters: 4,
            deviation: 9.0,
            n_objects: 1_200,
            ..ClusteredParams::default()
        },
        seed,
    );
    let (spec, mapping) = map_index::<_, [f32], _>(
        150,
        &mut SimRng::new(seed),
        data.queries(6, seed ^ 3),
        data.objects,
        L2::bounded(10, 0.0, 100.0),
        1_200,
        |m, s, r| greedy::<_, [f32], _>(m, s, 5, r),
        |m, _| boundary_from_metric::<[f32], _>(m.metric(), 5).unwrap(),
    );
    let spec = IndexSpec {
        name: "det".into(),
        rotate: true,
        ..spec
    };
    let queries: Vec<QuerySpec> = mapping
        .pool
        .iter()
        .map(|p| QuerySpec {
            index: 0,
            point: p.clone(),
            radius: 80.0,
            truth: vec![],
        })
        .collect();
    let oracle = mapping.oracle(|qid| qid as usize);
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: 28,
            seed,
            lb: Some(simsearch::LoadBalanceConfig::default()),
            ..SystemConfig::default()
        },
        &[spec],
        oracle,
    );
    system.run_queries(&queries, 20.0)
}

#[test]
fn identical_seeds_identical_everything() {
    let a = run_once(1234);
    let b = run_once(1234);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.origin, y.origin);
        assert_eq!(x.hops, y.hops);
        assert_eq!(x.response_ms, y.response_ms);
        assert_eq!(x.max_latency_ms, y.max_latency_ms);
        assert_eq!(x.query_bytes, y.query_bytes);
        assert_eq!(x.result_bytes, y.result_bytes);
        assert_eq!(x.query_msgs, y.query_msgs);
        assert_eq!(x.responses, y.responses);
        assert_eq!(x.results, y.results);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_once(1234);
    let b = run_once(4321);
    // Something observable must differ (origins, costs, or results).
    let same = a.iter().zip(&b).all(|(x, y)| {
        x.origin == y.origin && x.query_bytes == y.query_bytes && x.results == y.results
    });
    assert!(!same, "different seeds produced identical runs");
}
