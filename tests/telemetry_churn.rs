//! CI-gated churn scenario: the fixed-seed 64-node run from
//! `telemetry_golden.rs` placed under adversity — 10% uniform message
//! loss, eight crash/restart events, replication `r = 2` — must keep
//! 100% range-query recall against the brute-force oracle and serialize
//! to a byte-identical snapshot. Regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test --test telemetry_churn` and review the
//! diff like source.

mod common;

use landmark::{boundary_from_metric, kmeans};
use metric::{ObjectId, L2};
use simnet::{SimRng, SimTime};
use simsearch::{
    map_index, IndexSpec, QueryOutcome, QuerySpec, ResilienceConfig, SearchSystem, SystemConfig,
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
    let radius = 0.05 * data.max_distance();
    let (spec, mapping) = map_index::<_, [f32], _>(
        250,
        &mut SimRng::new(SEED),
        data.queries(N_QUERIES, SEED ^ 7),
        data.objects,
        L2::bounded(12, 0.0, 100.0),
        2_000,
        |m, s, r| kmeans::<_, [f32], _>(m, s, 5, 10, r),
        |m, _| boundary_from_metric::<[f32], _>(m.metric(), 5).unwrap(),
    );
    let spec = IndexSpec {
        name: "churn".into(),
        rotate: true,
        ..spec
    };
    // Brute-force range truth: everything within `radius` by the true
    // metric. The landmark mapping is contractive, so a healthy run
    // answers all of it; churn must not eat any of it either.
    let queries: Vec<QuerySpec> = mapping
        .pool
        .iter()
        .enumerate()
        .map(|(qi, p)| QuerySpec {
            index: 0,
            point: p.clone(),
            radius,
            truth: (0..2_000)
                .filter(|&oid| (mapping.dist)(qi, oid) <= radius)
                .map(|oid| ObjectId(oid as u32))
                .collect(),
        })
        .collect();
    let oracle = mapping.oracle(|qid| qid as usize);
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: 64,
            seed: SEED,
            // Per-node answers must not truncate away range results.
            knn_k: 200,
            resilience: Some(ResilienceConfig::default()), // r = 2
            ..SystemConfig::default()
        },
        &[spec],
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
