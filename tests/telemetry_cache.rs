//! CI-gated cache scenario: the fixed-seed 64-node system with the
//! routing-plane optimization layer on (sub-query batching, learned
//! shortcuts, hot-range result cache), driven by a *hot* workload —
//! four query points re-issued six times each from four fixed origins —
//! under mild adversity (5% loss, two crash/restart events). The run
//! must keep 100% range recall against the brute-force oracle, must
//! actually exercise the caches (hits and coalesced batches observed),
//! and must serialize to a byte-identical snapshot. Regenerate the
//! golden with `UPDATE_GOLDEN=1 cargo test --test telemetry_cache` and
//! review the diff like source.

mod common;

use std::sync::Arc;

use landmark::{boundary_from_metric, kmeans, Mapper};
use metric::{Metric, ObjectId, L2};
use simnet::{SimRng, SimTime};
use simsearch::{
    IndexSpec, QueryDistance, QueryId, QueryOutcome, QuerySpec, ResilienceConfig, RoutingOptConfig,
    SearchSystem, SystemConfig,
};
use workloads::{ClusteredParams, ClusteredVectors};

const SEED: u64 = 64128;
const LOSS: f64 = 0.05;
const N_BASE_QUERIES: usize = 4;
const ROUNDS: usize = 6;
const MEAN_INTERARRIVAL_S: f64 = 10.0;
/// Fixed issuing nodes: query `i` of each round is issued from
/// `ORIGINS[i]`, every round, so per-origin caches see repeats.
const ORIGINS: [usize; N_BASE_QUERIES] = [5, 17, 29, 41];

fn run_scenario() -> (Vec<QueryOutcome>, String) {
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

    let base_qpoints = data.queries(N_BASE_QUERIES, SEED ^ 7);
    let radius = 0.05 * data.max_distance();
    // The hot workload: the same four queries, round-robin, six rounds.
    let qpoints: Vec<Vec<f32>> = (0..N_BASE_QUERIES * ROUNDS)
        .map(|i| base_qpoints[i % N_BASE_QUERIES].clone())
        .collect();
    let queries: Vec<QuerySpec> = qpoints
        .iter()
        .map(|q| QuerySpec {
            index: 0,
            point: mapper.map(q.as_slice()).into_vec(),
            radius,
            truth: data
                .objects
                .iter()
                .enumerate()
                .filter(|(_, o)| L2::new().distance(q.as_slice(), o.as_slice()) <= radius)
                .map(|(i, _)| ObjectId(i as u32))
                .collect(),
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
            // Per-node answers must not truncate away range results.
            knn_k: 200,
            resilience: Some(ResilienceConfig::default()), // r = 2
            routing_opt: Some(RoutingOptConfig::default()),
            ..SystemConfig::default()
        },
        &[IndexSpec {
            name: "cache".into(),
            boundary: boundary_from_metric(&metric, 5).unwrap().dims,
            points,
            rotate: true,
            rotation: None,
        }],
        oracle,
    );

    system.set_loss_rate(LOSS);

    // Two crash/restart events mid-run: the suspicion signal must
    // invalidate learned shortcuts without costing recall. Victims are
    // deterministic — never an issuing origin and never ring-adjacent to
    // another victim (with r = 2 two adjacent victims could take an
    // owner and its replica holder down together).
    let ring: Vec<simnet::AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
    let n_ring = ring.len();
    let mut victims: Vec<usize> = Vec::new(); // ring positions
    for (pos, addr) in ring.iter().enumerate() {
        if victims.len() == 2 {
            break;
        }
        let adjacent = victims
            .iter()
            .any(|&v| (pos + n_ring - v) % n_ring <= 1 || (v + n_ring - pos) % n_ring <= 1);
        if !ORIGINS.contains(&addr.0) && !adjacent {
            victims.push(pos);
        }
    }
    assert_eq!(victims.len(), 2, "could not pick 2 churn victims");
    let crash_at = [60.0, 110.0];
    let restart_at = [150.0, 190.0];
    for (i, &pos) in victims.iter().enumerate() {
        system.schedule_crash(SimTime::from_secs_f64(crash_at[i]), ring[pos]);
        system.schedule_restart(SimTime::from_secs_f64(restart_at[i]), ring[pos]);
    }

    let outcomes = system.run_queries_from(&queries, &ORIGINS, MEAN_INTERARRIVAL_S);
    (outcomes, system.telemetry_json())
}

#[test]
fn cached_run_keeps_full_range_recall() {
    let (outcomes, _) = run_scenario();
    assert_eq!(outcomes.len(), N_BASE_QUERIES * ROUNDS);
    for o in &outcomes {
        assert!(
            (o.recall - 1.0).abs() < 1e-12,
            "query {} recall {} with caches on (degraded={})",
            o.qid,
            o.recall,
            o.degraded
        );
        assert!(o.responses >= 1);
    }
}

#[test]
fn caches_and_batching_actually_fire() {
    let (outcomes, snap) = run_scenario();
    // Counters appear in the registry only when touched, and every
    // cache/batch counter is only ever incremented by a positive
    // amount, so key presence means the mechanism fired.
    for key in [
        "\"routing_opt\"",
        "\"cache.hits\"",
        "\"cache.misses\"",
        "\"cache.stores\"",
        "\"batch.coalesced\"",
    ] {
        assert!(snap.contains(key), "cache snapshot lacks {key}");
    }
    // Result-cache hits answer at the origin without touching the
    // network: hop count 0. At least one repeat of each hot query after
    // the first round should land in the cache.
    let zero_hop = outcomes.iter().filter(|o| o.hops == 0).count();
    assert!(
        zero_hop >= N_BASE_QUERIES,
        "expected at least {N_BASE_QUERIES} cache-answered queries, got {zero_hop}"
    );
}

#[test]
fn same_seed_cache_snapshots_are_byte_identical() {
    assert_eq!(run_scenario().1, run_scenario().1);
}

#[test]
fn cache_snapshot_matches_checked_in_golden() {
    common::check_golden(
        "telemetry_cache_64node.json",
        &run_scenario().1,
        "cargo test --release --test telemetry_cache",
    );
}
