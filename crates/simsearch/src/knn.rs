//! k-nearest-neighbor search by iterative range expansion.
//!
//! The architecture natively answers *range* queries; the paper's recall
//! evaluation (and its future-work list) points at k-NN as the query
//! users actually issue. The classical reduction is implemented here: a
//! range query with a small initial radius, grown geometrically until
//! the merged result set certifies itself —
//!
//! > once `k` results are in hand and the `k`-th distance `d_k <= r`,
//! > the result is the exact k-NN: any closer object would satisfy
//! > `d < d_k <= r` and the range resolution (which is exact, see
//! > `tests/coverage.rs`) would have returned it.
//!
//! Every round reuses the same query id, so the query's trace — started
//! afresh before the first round — accumulates the *total* cost of the
//! k-NN conversation, which is what [`KnnOutcome`] reports.

use metric::ObjectId;
use simnet::{AgentId, SimDuration, SimTime};

use crate::msg::{QueryBall, QueryId, SearchMsg, SubQueryMsg};
use crate::system::SearchSystem;

/// Result of an iterative k-NN search.
#[derive(Clone, Debug)]
pub struct KnnOutcome {
    /// The k nearest objects found, ascending by distance.
    pub results: Vec<(ObjectId, f64)>,
    /// Range-query rounds used.
    pub rounds: u32,
    /// The radius of the final round.
    pub final_radius: f64,
    /// True when the `d_k <= r` certificate held (exact k-NN); false
    /// when the search exhausted its rounds or the whole space held
    /// fewer than `k` objects in range.
    pub certified: bool,
    /// Total query-delivery bytes across all rounds.
    pub query_bytes: u64,
    /// Total result-delivery bytes across all rounds.
    pub result_bytes: u64,
    /// Sum of per-round completion latencies (the sequential wall time a
    /// real client would observe), milliseconds.
    pub total_ms: f64,
}

impl SearchSystem {
    /// Iterative k-NN: grow the search radius by `growth` per round
    /// (e.g. 2.0) starting from `initial_radius`, for at most
    /// `max_rounds` rounds.
    ///
    /// `qid` must be a query id the system's distance oracle understands
    /// (all rounds reuse it). Requires `k <= knn_k` of the system config
    /// so per-node replies cannot truncate below `k`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_knn(
        &mut self,
        qid: QueryId,
        index: u8,
        point: &[f64],
        k: usize,
        initial_radius: f64,
        growth: f64,
        max_rounds: u32,
    ) -> KnnOutcome {
        assert!(k >= 1 && k <= self.cfg.knn_k, "k must be within knn_k");
        assert!(initial_radius > 0.0 && growth > 1.0 && max_rounds >= 1);
        let grid = std::sync::Arc::clone(&self.grids[index as usize]);
        // A radius at least the widest dimension span makes the clipped
        // query rect cover the whole index space: past that, one more
        // round is definitive.
        let full_span = (0..grid.dims())
            .map(|d| grid.bounds().hi()[d] - grid.bounds().lo()[d])
            .fold(0.0f64, f64::max);

        let mut radius = initial_radius;
        let mut rounds = 0;
        let mut certified = false;
        let mut total_ms = 0.0;
        let mut results: Vec<(ObjectId, f64)> = Vec::new();
        let mut rng = simnet::SimRng::new(self.cfg.seed).fork(0x6A ^ qid as u64);
        let center: std::sync::Arc<[f64]> = point.into();
        // An earlier batch or search under this id must not count here.
        self.telemetry.forget(qid);
        while rounds < max_rounds {
            rounds += 1;
            let origin = AgentId(rng.index(self.cfg.n_nodes));
            let at: SimTime = self.sim.now() + SimDuration::from_millis(1);
            // This round's ball: pruning stays exact per round because
            // certification only inspects distances `<= radius`, which
            // the bound can never exclude.
            let ball = QueryBall {
                center: std::sync::Arc::clone(&center),
                radius,
            };
            let msg = SubQueryMsg::issue(qid, index, origin, &grid, ball);
            self.sim.inject(at, origin, SearchMsg::Issue(msg));
            self.run_to_quiescence();
            let iq = self.sim.agent(origin).issued[&qid].clone();
            total_ms += iq
                .last_result
                .map(|t| t.since(iq.issued_at).as_millis_f64())
                .unwrap_or(0.0);
            results = iq.merged;
            let full_space = radius >= full_span;
            if results.len() >= k && results[k - 1].1 <= radius {
                certified = true;
                results.truncate(k);
                break;
            }
            if full_space {
                // Whole space searched: the result is as complete as the
                // data allows; certify only if k were actually found and
                // within... distance beyond the radius cannot exist when
                // the rect is the entire space AND the metric query's
                // superset property holds, so certify on count alone.
                certified = results.len() >= k;
                results.truncate(k);
                break;
            }
            radius *= growth;
        }
        results.truncate(k);

        let costs = self.telemetry.lock().traces[&qid].summary();
        KnnOutcome {
            results,
            rounds,
            final_radius: radius,
            certified,
            query_bytes: costs.query_bytes,
            result_bytes: costs.result_bytes,
            total_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::DistanceOracle;
    use crate::system::{IndexSpec, QuerySpec, SystemConfig};
    use metric::{Metric, L2};
    use std::sync::Arc;

    /// 1000 grid points in [0,100]^2; the index space is the data space.
    fn world(knn_k: usize) -> (SearchSystem, Vec<Vec<f64>>, Vec<f64>) {
        let side = 32usize;
        let points: Vec<Vec<f64>> = (0..side * side)
            .map(|i| {
                vec![
                    (i % side) as f64 * 100.0 / side as f64,
                    (i / side) as f64 * 100.0 / side as f64,
                ]
            })
            .collect();
        let qpoint = vec![47.3, 52.9];
        let op = points.clone();
        let oq = qpoint.clone();
        let oracle: DistanceOracle = Arc::new(move |_qid: QueryId, obj: metric::ObjectId| {
            let p = &op[obj.0 as usize];
            let a: Vec<f32> = p.iter().map(|&x| x as f32).collect();
            let b: Vec<f32> = oq.iter().map(|&x| x as f32).collect();
            L2::new().distance(&a, &b)
        });
        let system = SearchSystem::build(
            SystemConfig {
                n_nodes: 24,
                knn_k,
                depth: 16,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "knn-test".into(),
                boundary: vec![(0.0, 100.0); 2],
                points: points.clone(),
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        (system, points, qpoint)
    }

    fn brute_knn(points: &[Vec<f64>], q: &[f64], k: usize) -> Vec<ObjectId> {
        let mut d: Vec<(ObjectId, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let dist = ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)).sqrt();
                (ObjectId(i as u32), dist)
            })
            .collect();
        d.sort_by(|a, b| {
            // Match the system's f32-precision oracle ordering.
            let fa = a.1 as f32;
            let fb = b.1 as f32;
            fa.total_cmp(&fb).then(a.0.cmp(&b.0))
        });
        d.into_iter().take(k).map(|(id, _)| id).collect()
    }

    #[test]
    fn knn_is_exact_and_certified() {
        let (mut system, points, q) = world(10);
        let out = system.run_knn(0, 0, &q, 10, 1.0, 2.0, 16);
        assert!(out.certified, "search must certify: {out:?}");
        assert_eq!(out.results.len(), 10);
        let got: Vec<ObjectId> = out.results.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, brute_knn(&points, &q, 10));
        assert!(out.rounds > 1, "tiny initial radius needs expansion");
        assert!(out.query_bytes > 0 && out.result_bytes > 0);
        assert!(out.total_ms > 0.0);
    }

    #[test]
    fn generous_initial_radius_finishes_in_one_round() {
        let (mut system, points, q) = world(10);
        let out = system.run_knn(0, 0, &q, 5, 30.0, 2.0, 16);
        assert_eq!(out.rounds, 1);
        assert!(out.certified);
        let got: Vec<ObjectId> = out.results.iter().map(|&(id, _)| id).collect();
        assert_eq!(got, brute_knn(&points, &q, 5));
    }

    #[test]
    fn more_rounds_cost_more_bandwidth() {
        let (mut a, _, q) = world(10);
        let (mut b, _, _) = world(10);
        let tiny = a.run_knn(0, 0, &q, 10, 0.5, 1.5, 24);
        let generous = b.run_knn(0, 0, &q, 10, 20.0, 2.0, 4);
        assert!(tiny.rounds > generous.rounds);
        assert!(
            tiny.query_bytes > generous.query_bytes,
            "expansion rounds should cost extra delivery: {} vs {}",
            tiny.query_bytes,
            generous.query_bytes
        );
    }

    #[test]
    fn a_search_after_a_batch_reports_only_its_own_costs() {
        let (mut reused, points, q) = world(10);
        let queries: Vec<QuerySpec> = points[..4]
            .iter()
            .map(|p| QuerySpec {
                index: 0,
                point: p.clone(),
                radius: 10.0,
                truth: vec![],
            })
            .collect();
        reused.run_queries(&queries, 10.0);
        let after = reused.run_knn(0, 0, &q, 10, 1.0, 2.0, 16);
        let (mut fresh, _, _) = world(10);
        let alone = fresh.run_knn(0, 0, &q, 10, 1.0, 2.0, 16);
        assert_eq!(
            (after.query_bytes, after.result_bytes),
            (alone.query_bytes, alone.result_bytes)
        );
    }

    #[test]
    fn k_larger_than_dataset_terminates_uncertified_capped() {
        let side = 3usize; // 9 objects
        let points: Vec<Vec<f64>> = (0..side * side)
            .map(|i| vec![(i % side) as f64, (i / side) as f64])
            .collect();
        let op = points.clone();
        let oracle: DistanceOracle = Arc::new(move |_q: QueryId, obj: metric::ObjectId| {
            let p = &op[obj.0 as usize];
            (p[0] * p[0] + p[1] * p[1]).sqrt()
        });
        let mut system = SearchSystem::build(
            SystemConfig {
                n_nodes: 8,
                knn_k: 20,
                depth: 12,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "knn-tiny".into(),
                boundary: vec![(0.0, 2.0); 2],
                points,
                rotate: false,
                rotation: None,
            }],
            oracle,
        );
        let out = system.run_knn(0, 0, &[0.0, 0.0], 20, 0.5, 2.0, 10);
        assert_eq!(out.results.len(), 9, "only 9 objects exist");
        assert!(!out.certified, "cannot certify 20-NN of 9 objects");
    }

    #[test]
    #[should_panic(expected = "within knn_k")]
    fn k_above_node_cap_is_rejected() {
        let (mut system, _, q) = world(5);
        let _ = system.run_knn(0, 0, &q, 10, 1.0, 2.0, 4);
    }
}
