//! CI-gated churn scenario: the fixed-seed 64-node run from
//! `telemetry_golden.rs` placed under adversity — 10% uniform message
//! loss, eight crash/restart events, replication `r = 2` — must keep
//! 100% range-query recall against the brute-force oracle and serialize
//! to a byte-identical snapshot. Regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test --test telemetry_churn` and review the
//! diff like source.

mod common;

use std::sync::Arc;

use landmark::{boundary_from_metric, kmeans, Mapper};
use metric::{Metric, ObjectId, L2};
use simnet::{SimRng, SimTime};
use simsearch::{
    IndexSpec, QueryDistance, QueryId, QueryOutcome, QuerySpec, ResilienceConfig, SearchSystem,
    SystemConfig,
};
use workloads::{ClusteredParams, ClusteredVectors};

const SEED: u64 = 64064;
const LOSS: f64 = 0.10;
const N_QUERIES: usize = 8;
const MEAN_INTERARRIVAL_S: f64 = 10.0;

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

    let qpoints = data.queries(N_QUERIES, SEED ^ 7);
    let radius = 0.05 * data.max_distance();
    // Brute-force range truth: everything within `radius` by the true
    // metric. The landmark mapping is contractive, so a healthy run
    // answers all of it; churn must not eat any of it either.
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
            ..SystemConfig::default()
        },
        &[IndexSpec {
            name: "churn".into(),
            boundary: boundary_from_metric(&metric, 5).unwrap().dims,
            points,
            rotate: true,
            rotation: None,
        }],
        oracle,
    );

    system.set_loss_rate(LOSS);

    // Eight churn events: four crashes, four restarts. Victims are
    // picked deterministically — never a query origin (the origin holds
    // the query's merge state) and never ring-adjacent to another victim
    // (two adjacent nodes down together would take an owner *and* its
    // replica holder with r = 2).
    let origins: Vec<simnet::AgentId> = system
        .query_schedule(N_QUERIES, MEAN_INTERARRIVAL_S)
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let ring: Vec<simnet::AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
    let n_ring = ring.len();
    let mut victims: Vec<usize> = Vec::new(); // ring positions
    for (pos, addr) in ring.iter().enumerate() {
        if victims.len() == 4 {
            break;
        }
        let adjacent = victims
            .iter()
            .any(|&v| (pos + n_ring - v) % n_ring <= 1 || (v + n_ring - pos) % n_ring <= 1);
        if !origins.contains(addr) && !adjacent {
            victims.push(pos);
        }
    }
    assert_eq!(victims.len(), 4, "could not pick 4 churn victims");
    let crash_at = [2.0, 12.0, 25.0, 40.0];
    let restart_at = [30.0, 45.0, 60.0, 70.0];
    for (i, &pos) in victims.iter().enumerate() {
        system.schedule_crash(SimTime::from_secs_f64(crash_at[i]), ring[pos]);
        system.schedule_restart(SimTime::from_secs_f64(restart_at[i]), ring[pos]);
    }

    let outcomes = system.run_queries(&queries, MEAN_INTERARRIVAL_S);
    (outcomes, system.telemetry_json())
}

#[test]
fn churn_keeps_full_range_recall() {
    let (outcomes, _) = run_scenario();
    assert_eq!(outcomes.len(), N_QUERIES);
    for o in &outcomes {
        assert!(
            (o.recall - 1.0).abs() < 1e-12,
            "query {} recall {} under churn (degraded={})",
            o.qid,
            o.recall,
            o.degraded
        );
        assert!(o.responses >= 1);
    }
}

#[test]
fn same_seed_churn_snapshots_are_byte_identical() {
    assert_eq!(run_scenario().1, run_scenario().1);
}

#[test]
fn churn_snapshot_matches_checked_in_golden() {
    common::check_golden(
        "telemetry_churn_64node.json",
        &run_scenario().1,
        "cargo test --release --test telemetry_churn",
    );
}

#[test]
fn churn_snapshot_has_fault_and_resilience_sections() {
    let (_, snap) = run_scenario();
    for key in [
        "\"faults\"",
        "\"dropped\"",
        "\"crashes\"",
        "\"restarts\"",
        "\"replication\"",
        "\"resilience.tracked_sent\"",
        "\"resilience.retries\"",
        "\"resilience.failovers\"",
    ] {
        assert!(snap.contains(key), "churn snapshot lacks {key}");
    }
}
