//! Multi-index co-hosting: several index schemes on one ring must not
//! interfere — each query's answers are identical to a single-index
//! deployment of the same scheme, and rotation only moves placement.

use std::sync::Arc;

use landmark::{boundary_from_metric, kmeans, Mapper};
use metric::{Metric, ObjectId, L2};
use simnet::SimRng;
use simsearch::{IndexSpec, QueryDistance, QueryId, QuerySpec, SearchSystem, SystemConfig};
use workloads::{ClusteredParams, ClusteredVectors};

struct World {
    spec_a: IndexSpec,
    spec_b: IndexSpec,
    query_a: QuerySpec,
    query_b: QuerySpec,
    oracle: Arc<dyn QueryDistance>,
}

/// Two different vector datasets that will be co-hosted.
fn build_world(seed: u64) -> World {
    let mk = |cluster_seed: u64, clusters: usize| {
        ClusteredVectors::generate(
            ClusteredParams {
                dims: 8,
                clusters,
                deviation: 7.0,
                n_objects: 1_500,
                ..ClusteredParams::default()
            },
            cluster_seed,
        )
    };
    let data_a = mk(seed, 3);
    let data_b = mk(seed ^ 99, 6);
    let metric = L2::bounded(8, 0.0, 100.0);
    let mut rng = SimRng::new(seed);
    let mk_index = |data: &ClusteredVectors, name: &str, rng: &mut SimRng| {
        let sample: Vec<Vec<f32>> = rng
            .sample_indices(data.objects.len(), 200)
            .into_iter()
            .map(|i| data.objects[i].clone())
            .collect();
        let landmarks = kmeans::<_, [f32], _>(&metric, &sample, 4, 8, rng);
        let mapper = Mapper::new(metric, landmarks);
        let points = mapper.map_all::<[f32], _>(&data.objects);
        (
            IndexSpec {
                name: name.into(),
                boundary: boundary_from_metric(&metric, 4).unwrap().dims,
                points,
                rotate: true,
                rotation: None,
            },
            mapper,
        )
    };
    let (spec_a, mapper_a) = mk_index(&data_a, "world-a", &mut rng);
    let (spec_b, mapper_b) = mk_index(&data_b, "world-b", &mut rng);

    let qa = data_a.queries(1, seed ^ 7).remove(0);
    let qb = data_b.queries(1, seed ^ 8).remove(0);
    let radius = 0.2 * data_a.max_distance();

    let truth = |data: &ClusteredVectors, q: &[f32]| -> Vec<ObjectId> {
        let mut d: Vec<(ObjectId, f64)> = data
            .objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), L2::new().distance(q, o.as_slice())))
            .collect();
        d.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        d.into_iter().take(10).map(|(id, _)| id).collect()
    };
    let query_a = QuerySpec {
        index: 0,
        point: mapper_a.map(qa.as_slice()).into_vec(),
        radius,
        truth: truth(&data_a, &qa),
    };
    let query_b = QuerySpec {
        index: 1,
        point: mapper_b.map(qb.as_slice()).into_vec(),
        radius,
        truth: truth(&data_b, &qb),
    };

    let (oa, ob) = (
        Arc::new(data_a.objects.clone()),
        Arc::new(data_b.objects.clone()),
    );
    let oracle: Arc<dyn QueryDistance> = Arc::new(move |qid: QueryId, obj: ObjectId| {
        // Query 0 targets index 0 (dataset A); query 1 targets B.
        if qid == 0 {
            L2::new().distance(qa.as_slice(), oa[obj.0 as usize].as_slice())
        } else {
            L2::new().distance(qb.as_slice(), ob[obj.0 as usize].as_slice())
        }
    });
    World {
        spec_a,
        spec_b,
        query_a,
        query_b,
        oracle,
    }
}

#[test]
fn cohosted_indexes_answer_like_solo_deployments() {
    let seed = 77;
    let w = build_world(seed);
    let cfg = SystemConfig {
        n_nodes: 32,
        seed,
        ..SystemConfig::default()
    };

    // Co-hosted run: both indexes, both queries.
    let mut both = SearchSystem::build(
        cfg.clone(),
        &[w.spec_a.clone(), w.spec_b.clone()],
        Arc::clone(&w.oracle),
    );
    let co = both.run_queries(&[w.query_a.clone(), w.query_b.clone()], 5.0);

    // Solo runs. The solo system sees the same query ids (0 for A; for
    // B's solo system the query must become qid 0 → rebuild an oracle
    // shim that forwards qid 1).
    let mut solo_a = SearchSystem::build(
        cfg.clone(),
        std::slice::from_ref(&w.spec_a),
        Arc::clone(&w.oracle),
    );
    let solo_a_out = solo_a.run_queries(std::slice::from_ref(&w.query_a), 5.0);
    let inner = Arc::clone(&w.oracle);
    let shifted: Arc<dyn QueryDistance> =
        Arc::new(move |_qid: QueryId, obj: ObjectId| inner.distance(1, obj));
    let mut q_b = w.query_b.clone();
    q_b.index = 0;
    let mut solo_b = SearchSystem::build(cfg, std::slice::from_ref(&w.spec_b), shifted);
    let solo_b_out = solo_b.run_queries(&[q_b], 5.0);

    let ids = |o: &simsearch::QueryOutcome| -> Vec<u32> {
        o.results.iter().map(|&(id, _)| id.0).collect()
    };
    assert_eq!(
        ids(&co[0]),
        ids(&solo_a_out[0]),
        "index A answers changed by co-hosting"
    );
    assert_eq!(
        ids(&co[1]),
        ids(&solo_b_out[0]),
        "index B answers changed by co-hosting"
    );
    assert_eq!(co[0].recall, 1.0);
    assert_eq!(co[1].recall, 1.0);
}

#[test]
fn rotations_separate_placements() {
    let seed = 78;
    let w = build_world(seed);
    let cfg = SystemConfig {
        n_nodes: 32,
        seed,
        ..SystemConfig::default()
    };
    let system = SearchSystem::build(cfg, &[w.spec_a, w.spec_b], w.oracle);
    // Distinct names → distinct offsets.
    assert_ne!(system.rotation(0), system.rotation(1));
    assert_ne!(system.rotation(0).0, 0);
    // Entries conserved per index.
    assert_eq!(system.total_entries(0), 1_500);
    assert_eq!(system.total_entries(1), 1_500);
}

/// All four index schemes (clustered vectors, edit-distance strings,
/// TF-IDF cosine docs, time-series windows) co-hosted on one ring, with
/// runtime publishes interleaved into every tenant's query stream. The
/// per-index telemetry namespace must attribute traffic to the right
/// index: every `index{i}.*` family is populated, no counter appears
/// under a namespace that was never built, and the namespaced publish
/// counters sum exactly to the global `publish.stored` twin.
#[test]
fn four_schemes_interleave_publishes_with_namespaced_telemetry() {
    const TOML: &str = r#"
[scenario]
name = "inline_four_scheme_interleave"
description = "4 schemes, interleaved publishes, namespaced counters"
seed = 9107

[ring]
nodes = 40

[[index]]
name = "vecs"
scheme = "clustered"
objects = 500
radius = 0.2

[[index]]
name = "dna"
scheme = "strings"
landmarks = 6
radius = 12.0

[[index]]
name = "news"
scheme = "docs"
docs = 260
landmarks = 8
sample = 200
radius = 0.35

[[index]]
name = "traces"
scheme = "timeseries"
length = 1600
noise = 0.25
radius = 4.0

[[tenant]]
name = "vec-app"
index = "vecs"
queries = 5
publishes = 3
pool = 5

[[tenant]]
name = "bio-app"
index = "dna"
queries = 5
publishes = 2
pool = 5

[[tenant]]
name = "news-app"
index = "news"
queries = 5
publishes = 4
pool = 5

[[tenant]]
name = "ops-app"
index = "traces"
queries = 5
publishes = 1
pool = 5

[expect]
min_recall = 1.0
max_hops = 24
"#;
    let sc = scenarios::parse_scenario(TOML).expect("inline scenario parses");
    let report = scenarios::run(&sc);
    assert!(
        report.violations.is_empty(),
        "scenario invariants violated: {:?}",
        report.violations
    );
    let d = &report.digest;

    // Exact recall for every tenant even though objects were published
    // into each index mid-run (the interleaving is the point: queries
    // must see every object published before them).
    for tenant in ["vec-app", "bio-app", "news-app", "ops-app"] {
        assert_eq!(
            d["tenants"][tenant]["recall_min_micros"].as_u64(),
            Some(1_000_000),
            "tenant {tenant} lost recall under interleaved publishes"
        );
    }

    // Per-index counter namespaces: each co-hosted index answered its
    // own queries, routed its own sub-queries, scanned its own store,
    // and stored exactly its tenant's publishes.
    let serde_json::Value::Object(counters) = &d["registry"]["counters"] else {
        panic!("registry counters must be an object");
    };
    let publishes = [3u64, 2, 4, 1]; // declaration order: vecs, dna, news, traces
    for (i, &published) in publishes.iter().enumerate() {
        let get = |what: &str| {
            counters
                .get(&format!("index{i}.{what}"))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        assert!(get("answers") >= 5, "index{i} answered {}", get("answers"));
        assert!(get("routed") > 0, "index{i} routed no sub-queries");
        assert!(get("scanned") > 0, "index{i} scanned no entries");
        assert!(get("dist_calls") > 0, "index{i} made no distance calls");
        assert_eq!(
            get("published"),
            published,
            "index{i} publish count misattributed"
        );
    }

    // Nothing bleeds outside the four built namespaces, and the
    // namespaced publishes sum to the global twin exactly.
    let mut published_sum = 0;
    for (key, value) in counters {
        if let Some(rest) = key.strip_prefix("index") {
            let ix: usize = rest
                .split('.')
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(usize::MAX);
            assert!(ix < 4, "counter {key} names an index that was never built");
            if rest.ends_with(".published") {
                published_sum += value.as_u64().unwrap_or(0);
            }
        }
    }
    assert_eq!(
        Some(published_sum),
        counters.get("publish.stored").and_then(|v| v.as_u64()),
        "namespaced publish counters must sum to the global twin"
    );
}
