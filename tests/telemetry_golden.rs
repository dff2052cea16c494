//! CI-gated telemetry snapshot: a fixed-seed 64-node scenario must
//! serialize to a byte-identical snapshot on every run and on every
//! machine. The golden file under `tests/golden/` is the contract; any
//! intentional change to routing, instrumentation, or serialization must
//! regenerate it (`UPDATE_GOLDEN=1 cargo test --test telemetry_golden`)
//! and the diff reviewed like source.

mod common;

use std::sync::Arc;

use landmark::{boundary_from_metric, kmeans, Mapper};
use metric::{Metric, ObjectId, L2};
use simnet::SimRng;
use simsearch::{IndexSpec, QueryDistance, QueryId, QuerySpec, SearchSystem, SystemConfig};
use workloads::{ClusteredParams, ClusteredVectors};

const SEED: u64 = 64064;

fn run_scenario() -> String {
    let data = ClusteredVectors::generate(
        ClusteredParams {
            dims: 12,
            clusters: 5,
            deviation: 9.0,
            n_objects: 2_000,
            ..ClusteredParams::default()
        },
        SEED,
    );
    let metric = L2::bounded(12, 0.0, 100.0);
    let mut rng = SimRng::new(SEED);
    let sample: Vec<Vec<f32>> = rng
        .sample_indices(data.objects.len(), 250)
        .into_iter()
        .map(|i| data.objects[i].clone())
        .collect();
    let landmarks = kmeans::<_, [f32], _>(&metric, &sample, 5, 10, &mut rng);
    let mapper = Mapper::new(metric, landmarks);
    let points = mapper.map_all::<[f32], _>(&data.objects);

    let qpoints = data.queries(8, SEED ^ 7);
    let queries: Vec<QuerySpec> = qpoints
        .iter()
        .map(|q| QuerySpec {
            index: 0,
            point: mapper.map(q.as_slice()).into_vec(),
            radius: 0.05 * data.max_distance(),
            truth: vec![],
        })
        .collect();

    let objects = Arc::new(data.objects.clone());
    let qp = Arc::new(qpoints);
    let oracle: Arc<dyn QueryDistance> = Arc::new(move |qid: QueryId, obj: ObjectId| {
        L2::new().distance(
            qp[qid as usize].as_slice(),
            objects[obj.0 as usize].as_slice(),
        )
    });
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: 64,
            seed: SEED,
            lb: Some(simsearch::LoadBalanceConfig::default()),
            ..SystemConfig::default()
        },
        &[IndexSpec {
            name: "golden".into(),
            boundary: boundary_from_metric(&metric, 5).unwrap().dims,
            points,
            rotate: true,
            rotation: None,
        }],
        oracle,
    );
    system.run_queries(&queries, 10.0);
    system.telemetry_json()
}

#[test]
fn same_seed_snapshots_are_byte_identical() {
    assert_eq!(run_scenario(), run_scenario());
}

#[test]
fn snapshot_matches_checked_in_golden() {
    common::check_golden(
        "telemetry_64node.json",
        &run_scenario(),
        "cargo test --release --test telemetry_golden",
    );
}

#[test]
fn snapshot_has_the_contracted_sections() {
    let snap = run_scenario();
    for key in [
        "\"config\"",
        "\"net\"",
        "\"registry\"",
        "\"counters\"",
        "\"histograms\"",
        "\"load\"",
        "\"queries\"",
        "\"0000000007\"",
        "\"routing.splits\"",
        "\"store.entries_scanned\"",
        "\"lb.migrations\"",
        "\"search.msgs.route\"",
        "\"search.bytes.results\"",
    ] {
        assert!(snap.contains(key), "snapshot lacks {key}");
    }
}
