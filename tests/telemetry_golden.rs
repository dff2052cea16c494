//! CI-gated telemetry snapshot: a fixed-seed 64-node scenario must
//! serialize to a byte-identical snapshot on every run and on every
//! machine. The golden file under `tests/golden/` is the contract; any
//! intentional change to routing, instrumentation, or serialization must
//! regenerate it (`UPDATE_GOLDEN=1 cargo test --test telemetry_golden`)
//! and the diff reviewed like source.

mod common;

use landmark::{boundary_from_metric, kmeans};
use metric::L2;
use simnet::SimRng;
use simsearch::{map_index, IndexSpec, QuerySpec, SearchSystem, SystemConfig};
use workloads::{ClusteredParams, ClusteredVectors};

const SEED: u64 = 64064;

/// The scenario's system after its queries have run.
fn run_system() -> SearchSystem {
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
        data.queries(8, SEED ^ 7),
        data.objects,
        L2::bounded(12, 0.0, 100.0),
        2_000,
        |m, s, r| kmeans::<_, [f32], _>(m, s, 5, 10, r),
        |m, _| boundary_from_metric::<[f32], _>(m.metric(), 5).unwrap(),
    );
    let spec = IndexSpec {
        name: "golden".into(),
        rotate: true,
        ..spec
    };
    let queries: Vec<QuerySpec> = mapping
        .pool
        .iter()
        .map(|p| QuerySpec {
            index: 0,
            point: p.clone(),
            radius,
            truth: vec![],
        })
        .collect();
    let oracle = mapping.oracle(|qid| qid as usize);
    let mut system = SearchSystem::build(
        SystemConfig {
            n_nodes: 64,
            seed: SEED,
            lb: Some(simsearch::LoadBalanceConfig::default()),
            ..SystemConfig::default()
        },
        &[spec],
        oracle,
    );
    system.run_queries(&queries, 10.0);
    system
}

fn run_scenario() -> String {
    run_system().telemetry_json()
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

/// Each query's trace is one varint log (`simsearch::TraceLog`): an
/// event costs its tag byte plus a byte or two per small field, not the
/// 48 bytes of a `TraceEvent`, and a node the log named in one of its
/// last two references costs no byte (3.06 B/event here).
#[test]
fn traces_average_at_most_4_bytes_per_event() {
    let system = run_system();
    let st = system.telemetry().lock();
    let bytes: usize = st.traces.values().map(|t| t.byte_len()).sum();
    let events: usize = st.traces.values().map(|t| t.events().count()).sum();
    assert!(events > 1_000, "the scenario records {events} events");
    assert!(
        bytes <= 4 * events,
        "{bytes} B for {events} events: {:.2} B/event",
        bytes as f64 / events as f64
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
