//! The coverage invariant under adversity: with replication `r = 2` and
//! bounded retries, range queries keep 100% recall against the
//! brute-force oracle through message loss and node crashes; with
//! `r = 1` a crash degrades answers *visibly* (the `degraded` flag), not
//! silently.

use chord::ChordId;
use lph::{Grid, Rect};
use metric::ObjectId;
use simnet::{AgentId, SimTime};
use simsearch::msg::{DistanceOracle, QueryId};
use simsearch::{
    Entry, IndexSpec, QueryOutcome, QuerySpec, ResilienceConfig, SearchSystem, SystemConfig,
};
use std::sync::Arc;

fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Objects on a grid in [0,100]², index space = data space.
fn world(n_obj: usize) -> (IndexSpec, Vec<Vec<f64>>) {
    let side = (n_obj as f64).sqrt().ceil() as usize;
    let points: Vec<Vec<f64>> = (0..n_obj)
        .map(|i| {
            vec![
                (i % side) as f64 * 100.0 / side as f64,
                (i / side) as f64 * 100.0 / side as f64,
            ]
        })
        .collect();
    (
        IndexSpec {
            name: "resilience".into(),
            boundary: vec![(0.0, 100.0); 2],
            points: points.clone(),
            rotate: false,
            rotation: None,
        },
        points,
    )
}

fn queries(points: &[Vec<f64>], qpoints: &[Vec<f64>], r: f64, k: usize) -> Vec<QuerySpec> {
    qpoints
        .iter()
        .map(|qp| {
            let mut d: Vec<(ObjectId, f64)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (ObjectId(i as u32), l2(qp, p)))
                .collect();
            d.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            QuerySpec {
                index: 0,
                point: qp.clone(),
                radius: r,
                truth: d.iter().take(k).map(|&(o, _)| o).collect(),
            }
        })
        .collect()
}

fn build(seed: u64, replication: usize) -> (SearchSystem, Vec<QuerySpec>) {
    let (spec, points) = world(100);
    let qpoints = vec![
        vec![50.0, 50.0],
        vec![10.0, 90.0],
        vec![99.0, 1.0],
        vec![0.0, 0.0],
    ];
    let cfg = SystemConfig {
        n_nodes: 16,
        knn_k: 5,
        depth: 16,
        seed,
        resilience: Some(ResilienceConfig { replication }),
        ..SystemConfig::default()
    };
    let qs = queries(&points, &qpoints, 30.0, cfg.knn_k);
    let oracle_points = points;
    let oracle_q = qpoints;
    let oracle: DistanceOracle = Arc::new(move |qid: QueryId, obj: ObjectId| {
        l2(&oracle_q[qid as usize], &oracle_points[obj.0 as usize])
    });
    (SearchSystem::build(cfg, &[spec], oracle), qs)
}

/// The node holding `obj`'s entry: the ring owner of its key.
fn holder_of(sys: &SearchSystem, obj: ObjectId) -> AgentId {
    let (spec, points) = world(100);
    let (lo, hi) = spec.boundary.iter().copied().unzip();
    let grid = Grid::new(Rect::new(lo, hi), sys.config().depth);
    let entry = Entry::new(&grid, sys.rotation(0), obj, &points[obj.0 as usize]);
    sys.ring().owner_of(ChordId(entry.ring_key)).addr
}

fn assert_full_recall(outcomes: &[QueryOutcome]) {
    for o in outcomes {
        assert!(
            (o.recall - 1.0).abs() < 1e-12,
            "query {} recall {} (degraded={})",
            o.qid,
            o.recall,
            o.degraded
        );
        assert!(o.responses >= 1);
    }
}

/// Coverage invariant under 5% and 10% uniform message loss, r = 2:
/// every query still reaches full recall, and the retransmit machinery
/// (not luck) is what got it there.
#[test]
fn full_recall_under_message_loss_with_replication() {
    for (seed, loss) in [(11u64, 0.05), (12, 0.05), (11, 0.10), (13, 0.10)] {
        let (mut sys, qs) = build(seed, 2);
        sys.set_loss_rate(loss);
        let outcomes = sys.run_queries(&qs, 10.0);
        assert_full_recall(&outcomes);
        // Nothing dropped would mean the run proved nothing; make the
        // seed's weakness loud so it gets replaced rather than rotting.
        assert!(
            sys.net_stats().dropped > 0,
            "seed {seed} loss {loss}: fault plane dropped nothing"
        );
        // Every search message is tracked in resilient mode, so any drop
        // must surface as a retransmission, not be absorbed by luck.
        assert!(
            sys.telemetry()
                .lock()
                .registry
                .counter("resilience.retries")
                > 0,
            "seed {seed} loss {loss}: drops occurred but nothing was retried"
        );
    }
}

/// Crash a non-origin node before the workload: with r = 2 its entries
/// are answered from the successor's replicas, so recall stays 1.0 and
/// the failover/replica counters show the machinery fired.
#[test]
fn crash_is_absorbed_by_replicas() {
    let seed = 21u64;
    let (mut sys, qs) = build(seed, 2);
    let origins: Vec<AgentId> = sys
        .query_schedule(qs.len(), 10.0)
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let victim = (0..16)
        .map(AgentId)
        .find(|a| !origins.contains(a))
        .expect("a non-origin node exists");
    sys.schedule_crash(SimTime::from_secs_f64(0.5), victim);
    let outcomes = sys.run_queries(&qs, 10.0);
    assert!(sys.is_down(victim));
    assert_full_recall(&outcomes);
    let reg = sys.telemetry().lock();
    assert!(
        reg.registry.counter("resilience.failovers") > 0,
        "dead node never tripped a failover"
    );
    assert!(
        reg.registry.counter("resilience.replica_answers") > 0,
        "full recall with a dead owner must come from replica answers"
    );
}

/// Same crash with r = 1: whatever the dead node exclusively owned is
/// gone, and the protocol must say so — any shortfall in recall is
/// accompanied by a `degraded` flag on the answer, never silent. The
/// victim holds an entry of some query's truth, so a query needs it.
#[test]
fn crash_without_replicas_degrades_loudly() {
    let seed = 21u64;
    let (mut sys, qs) = build(seed, 1);
    let origins: Vec<AgentId> = sys
        .query_schedule(qs.len(), 10.0)
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let victim = (qs.iter().flat_map(|q| &q.truth))
        .map(|&obj| holder_of(&sys, obj))
        .find(|a| !origins.contains(a))
        .expect("a non-origin node holds some query's truth");
    sys.schedule_crash(SimTime::from_secs_f64(0.5), victim);
    let outcomes = sys.run_queries(&qs, 10.0);
    for o in &outcomes {
        assert!(
            (o.recall - 1.0).abs() < 1e-12 || o.degraded,
            "query {} lost recall ({}) without reporting degradation",
            o.qid,
            o.recall
        );
    }
    assert!(
        outcomes.iter().any(|o| o.degraded),
        "with the owner of live data crashed and r = 1, at least one \
         query must report degradation"
    );
}

/// Crash + restart mid-workload with r = 2 stays at full recall: while
/// the node is down its keys are answered via failover, and after the
/// restart it serves again (state kept across the crash in-sim).
#[test]
fn crash_restart_churn_keeps_full_recall() {
    let seed = 31u64;
    let (mut sys, qs) = build(seed, 2);
    let origins: Vec<AgentId> = sys
        .query_schedule(qs.len(), 10.0)
        .into_iter()
        .map(|(_, o)| o)
        .collect();
    let victims: Vec<AgentId> = (0..16)
        .map(AgentId)
        .filter(|a| !origins.contains(a))
        .take(2)
        .collect();
    assert_eq!(victims.len(), 2);
    sys.schedule_crash(SimTime::from_secs_f64(0.5), victims[0]);
    sys.schedule_restart(SimTime::from_secs_f64(20.0), victims[0]);
    sys.schedule_crash(SimTime::from_secs_f64(5.0), victims[1]);
    sys.set_loss_rate(0.05);
    let outcomes = sys.run_queries(&qs, 10.0);
    assert_full_recall(&outcomes);
}

/// Loss and churn with r = 2 while hand-offs travel marked in `Route`
/// batches: a batch whose destination crashed is re-routed by its
/// sender, marks cleared, around the dead node (failovers fire), and
/// recall stays 1.0.
#[test]
fn batches_to_crashed_nodes_reroute_at_full_recall() {
    for seed in [41u64, 42, 43, 44] {
        let (mut sys, qs) = build(seed, 2);
        let origins: Vec<AgentId> = sys
            .query_schedule(qs.len(), 10.0)
            .into_iter()
            .map(|(_, o)| o)
            .collect();
        let victims: Vec<AgentId> = (0..16)
            .map(AgentId)
            .filter(|a| !origins.contains(a))
            .take(3)
            .collect();
        sys.schedule_crash(SimTime::from_secs_f64(0.2), victims[0]);
        sys.schedule_crash(SimTime::from_secs_f64(1.0), victims[1]);
        sys.schedule_crash(SimTime::from_secs_f64(2.0), victims[2]);
        sys.schedule_restart(SimTime::from_secs_f64(15.0), victims[0]);
        sys.set_loss_rate(0.05);
        let outcomes = sys.run_queries(&qs, 10.0);
        assert_full_recall(&outcomes);
        let failovers = sys
            .telemetry()
            .lock()
            .registry
            .counter("resilience.failovers");
        assert!(failovers > 0, "seed {seed}: nothing was re-routed");
    }
}
