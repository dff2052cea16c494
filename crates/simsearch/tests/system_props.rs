//! Whole-system property tests: for random worlds and *any* combination
//! of the system's knobs (load migration, rotation, naive routing,
//! load-aware joins), distributed query answers must equal the
//! brute-force reference — top-k by true distance among the objects
//! whose index point falls in the query box — whether queries arrive
//! seconds apart or many at once, and entries must be conserved.

use std::sync::Arc;

use lph::Rect;
use metric::ObjectId;
use proptest::prelude::*;
use simsearch::{
    IndexSpec, LoadBalanceConfig, QueryDistance, QueryId, QueryOutcome, QuerySpec, SearchSystem,
    SystemConfig,
};

const DIMS: usize = 2;
const BOUND: f64 = 64.0;

#[derive(Debug, Clone)]
struct WorldSpec {
    n_nodes: usize,
    n_objects: usize,
    seed: u64,
    lb: bool,
    rotate: bool,
    naive: bool,
    load_aware: bool,
    queries: Vec<(Vec<f64>, f64)>, // (center, radius)
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    (
        4usize..24,
        50usize..300,
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(
            (prop::collection::vec(0.0..BOUND, DIMS), 0.5f64..30.0),
            1..4,
        ),
    )
        .prop_map(
            |(n_nodes, n_objects, seed, lb, rotate, naive, load_aware, queries)| WorldSpec {
                n_nodes,
                n_objects,
                seed,
                lb,
                rotate,
                naive,
                load_aware,
                queries,
            },
        )
}

/// Deterministic object cloud from the seed (clustered enough that
/// queries hit things).
fn objects(spec: &WorldSpec) -> Vec<Vec<f64>> {
    let mut rng = simnet::SimRng::new(spec.seed ^ 0x0B7);
    let centers: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..DIMS).map(|_| rng.f64() * BOUND).collect())
        .collect();
    (0..spec.n_objects)
        .map(|_| {
            let c = &centers[rng.index(4)];
            (0..DIMS)
                .map(|d| (c[d] + (rng.f64() - 0.5) * 20.0).clamp(0.0, BOUND))
                .collect()
        })
        .collect()
}

fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_answers_equal_brute_force(spec in world_strategy()) {
        let objs = objects(&spec);
        let qlist = spec.queries.clone();
        let oracle_objs = objs.clone();
        let oracle_q = qlist.clone();
        let oracle: Arc<dyn QueryDistance> = Arc::new(move |qid: QueryId, obj: ObjectId| {
            l2(&oracle_q[qid as usize].0, &oracle_objs[obj.0 as usize])
        });
        let knn_k = 10;
        let cfg = SystemConfig {
            n_nodes: spec.n_nodes,
            seed: spec.seed,
            knn_k,
            depth: 16,
            naive_level: spec.naive.then_some(8),
            lb: spec.lb.then(LoadBalanceConfig::default),
            load_aware_join: spec.load_aware,
            ..SystemConfig::default()
        };
        let build = || {
            SearchSystem::build(
                cfg.clone(),
                &[IndexSpec {
                    name: format!("prop-{}", spec.seed),
                    boundary: vec![(0.0, BOUND); DIMS],
                    points: objs.clone(),
                    rotate: spec.rotate,
                    rotation: None,
                }],
                oracle.clone(),
            )
        };
        let mut system = build();
        prop_assert_eq!(system.total_entries(0), spec.n_objects);

        let queries: Vec<QuerySpec> = qlist
            .iter()
            .map(|(c, r)| QuerySpec {
                index: 0,
                point: c.clone(),
                radius: *r,
                truth: vec![],
            })
            .collect();
        let spaced = system.run_queries(&queries, 5.0);
        prop_assert_eq!(system.total_entries(0), spec.n_objects, "entries conserved");
        // The same world and queries again, arriving every half
        // millisecond on average: many queries in flight at once.
        let dense = build().run_queries(&queries, 0.0005);

        for outcomes in [&spaced, &dense] {
            for (o, (center, r)) in outcomes.iter().zip(&qlist) {
                // Brute force: objects whose point is inside the clipped
                // box, ranked by true distance (ties by id), top knn_k.
                let rect = Rect::ball(center, *r, &Rect::cube(DIMS, 0.0, BOUND));
                let mut expect: Vec<(ObjectId, f64)> = objs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| rect.contains_point(p))
                    .map(|(i, p)| (ObjectId(i as u32), l2(center, p)))
                    .collect();
                expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                expect.truncate(knn_k);
                let got: Vec<ObjectId> = o.results.iter().map(|&(id, _)| id).collect();
                let want: Vec<ObjectId> = expect.iter().map(|&(id, _)| id).collect();
                prop_assert_eq!(
                    &got, &want,
                    "world {:?}: query at {:?} r={} wrong answers", spec, center, r
                );
                // Metric sanity.
                prop_assert!(o.responses >= 1);
                prop_assert!(o.max_latency_ms >= o.response_ms);
                for w in o.results.windows(2) {
                    prop_assert!(w[0].1 <= w[1].1, "results must be sorted");
                }
            }
        }
        // Overlapping queries neither share nor lose work: each one's
        // answer and costs equal its run alone.
        let cost = |o: &QueryOutcome| {
            (
                o.results.clone(),
                o.query_msgs,
                o.query_bytes,
                o.result_bytes,
                o.hops,
                o.responses,
            )
        };
        for (s, d) in spaced.iter().zip(&dense) {
            prop_assert_eq!(cost(s), cost(d), "world {:?}: query {} differs when dense", spec, s.qid);
        }
    }

    #[test]
    fn knn_equals_brute_force_knn(
        seed in any::<u64>(),
        n_nodes in 4usize..20,
        n_objects in 60usize..250,
        center in prop::collection::vec(0.0..BOUND, DIMS),
        k in 1usize..8,
    ) {
        let spec = WorldSpec {
            n_nodes,
            n_objects,
            seed,
            lb: false,
            rotate: false,
            naive: false,
            load_aware: false,
            queries: vec![],
        };
        let objs = objects(&spec);
        let oracle_objs = objs.clone();
        let c2 = center.clone();
        let oracle: Arc<dyn QueryDistance> = Arc::new(move |_qid: QueryId, obj: ObjectId| {
            l2(&c2, &oracle_objs[obj.0 as usize])
        });
        let mut system = SearchSystem::build(
            SystemConfig {
                n_nodes,
                seed,
                knn_k: 10,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "prop-knn".into(),
                boundary: vec![(0.0, BOUND); DIMS],
                points: objs.clone(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        let out = system.run_knn(0, 0, &center, k, 1.0, 2.0, 20);
        prop_assert!(out.certified, "knn must certify in a bounded box");
        let mut expect: Vec<(ObjectId, f64)> = objs
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u32), l2(&center, p)))
            .collect();
        expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let want: Vec<ObjectId> = expect.iter().take(k).map(|&(id, _)| id).collect();
        let got: Vec<ObjectId> = out.results.iter().map(|&(id, _)| id).collect();
        prop_assert_eq!(got, want);
    }
}
