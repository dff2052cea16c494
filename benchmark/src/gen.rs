//! Seeded inputs and their exact expected answers, all produced before
//! any timed window opens. Node processes receive only the generated
//! points and query balls.
//!
//! `--seed` draws the *operations*: query centres, publish points, the
//! order. The *system* they run against — corpus, hot set — is drawn
//! from [`SYSTEM_SEED`] whatever the run's seed, so that two seeds give
//! two samples of one workload and not two workloads. (With per-seed
//! corpora and hot sets, `mixed`'s messages per query ranged from 5.3
//! to 8.5 over ten seeds: the ring position of the single hottest point
//! decided it.)

use crate::cluster::Shape;
use lph::Grid;
use node::scenario::{RangeQuery, Scenario};
use rayon::prelude::*;
use simnet::SimRng;
use workloads::Zipf;

/// Seed of everything that defines a workload rather than samples it.
pub const SYSTEM_SEED: u64 = 42;

/// A merged result list with distances as raw bits: answers are
/// compared for exact equality, never within a tolerance.
pub type Answer = Vec<(u32, u64)>;

pub fn answer_bits(merged: &[(u32, f64)]) -> Answer {
    merged.iter().map(|&(o, d)| (o, d.to_bits())).collect()
}

/// One range query and the answer the cluster must converge on.
#[derive(Clone, Debug)]
pub struct QueryOp {
    pub center: Vec<f64>,
    pub expected: Answer,
}

/// One operation of an op list.
#[derive(Clone, Debug)]
pub enum Op {
    Query(QueryOp),
    Publish { obj: u32, point: Vec<f64> },
}

/// Inputs of one cluster workload.
pub struct ClusterInputs {
    pub scenario: Scenario,
    pub grid: Grid,
    pub corpus: Vec<Vec<f64>>,
    pub radius: f64,
    /// The run's `--seed`: draws operations, never the system.
    pub seed: u64,
}

impl ClusterInputs {
    pub fn new(shape: Shape, n_objects: usize, radius: f64, seed: u64) -> ClusterInputs {
        let scenario = Scenario {
            n_nodes: shape.n_nodes,
            dims: shape.dims,
            depth: shape.depth,
            n_objects,
            seed: SYSTEM_SEED,
        };
        ClusterInputs {
            grid: scenario.grid(),
            corpus: scenario.corpus(),
            scenario,
            radius,
            seed,
        }
    }

    /// A query centre within `radius / 2` (L∞) of corpus point `base`:
    /// the base point always passes the system's own admit rule, so no
    /// expected list is empty.
    fn jittered(&self, base: usize, rng: &mut SimRng) -> Vec<f64> {
        self.corpus[base]
            .iter()
            .map(|x| (x + (rng.f64() - 0.5) * self.radius).clamp(0.0, 1.0))
            .collect()
    }

    /// Queries at `centers` with their exact answers over the corpus,
    /// computed on every CPU (the harness pins itself only afterwards).
    fn queries(&self, centers: &[Vec<f64>]) -> Vec<QueryOp> {
        centers
            .par_iter()
            .map(|center| {
                let q = RangeQuery {
                    origin: 0,
                    center: center.clone(),
                    radius: self.radius,
                };
                QueryOp {
                    center: center.clone(),
                    expected: answer_bits(&self.scenario.expected_range(
                        &self.grid,
                        &self.corpus,
                        &q,
                    )),
                }
            })
            .collect()
    }

    /// Op list `list`: `n` queries at uniformly drawn corpus points.
    pub fn uniform_ops(&self, n: usize, list: u64) -> Vec<Op> {
        let mut rng = SimRng::new(self.seed).fork(0xC105ED + list);
        let centers: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let base = rng.index(self.corpus.len());
                self.jittered(base, &mut rng)
            })
            .collect();
        self.queries(&centers).into_iter().map(Op::Query).collect()
    }
}

/// Share of publishes in the mixed op lists.
const PUBLISH_SHARE: f64 = 0.10;

/// Hot query points of the mixed op lists.
const HOT_POINTS: usize = 64;

/// Generator of `mixed` op lists: 90 % `narrow`-type queries whose
/// centres follow Zipf(1.0) over 64 hot points of the corpus (the same
/// 64, in the same rank order, for every seed), 10 % publishes of new
/// uniform points.
///
/// No publish lands within `2·radius` (L∞) of a hot point. Every query
/// centre is within `radius / 2` of one, so no query's ball ever admits
/// a published point and each query's exact answer is its answer over
/// the base corpus, however the connections race. The excluded volume
/// is 64 · (4r)⁵ ≈ 2 % of the space: the publishes still land in every
/// node's store, next to the entries the queries scan.
pub struct MixedGen {
    hot: Vec<usize>,
    zipf: Zipf,
    /// Id of the next published object; ids are never reused in a run.
    next_obj: u32,
}

impl MixedGen {
    pub fn new(inp: &ClusterInputs) -> MixedGen {
        MixedGen {
            hot: SimRng::new(SYSTEM_SEED)
                .fork(0x407)
                .sample_indices(inp.corpus.len(), HOT_POINTS),
            zipf: Zipf::new(HOT_POINTS, 1.0),
            next_obj: inp.corpus.len() as u32,
        }
    }

    /// `n` ops drawn from stream `stream` of the run's seed.
    pub fn ops(&mut self, inp: &ClusterInputs, n: usize, stream: u64) -> Vec<Op> {
        let mut rng = SimRng::new(inp.seed).fork(0x0BE2 + stream);
        let far_from_hot = |p: &[f64]| {
            self.hot.iter().all(|&h| {
                let gap = p
                    .iter()
                    .zip(&inp.corpus[h])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                gap > 2.0 * inp.radius
            })
        };
        // Draw in order (cheap); compute the oracles on every CPU.
        let drawn: Vec<Result<Vec<f64>, Vec<f64>>> = (0..n)
            .map(|_| {
                if rng.f64() < PUBLISH_SHARE {
                    loop {
                        let p: Vec<f64> = (0..inp.scenario.dims)
                            .map(|_| 0.001 + 0.998 * rng.f64())
                            .collect();
                        if far_from_hot(&p) {
                            break Err(p);
                        }
                    }
                } else {
                    Ok(inp.jittered(self.hot[self.zipf.draw(&mut rng)], &mut rng))
                }
            })
            .collect();
        let centers: Vec<Vec<f64>> = drawn
            .iter()
            .filter_map(|d| d.as_ref().ok().cloned())
            .collect();
        let mut queries = inp.queries(&centers).into_iter();
        drawn
            .into_iter()
            .map(|d| match d {
                Ok(_) => Op::Query(queries.next().expect("one oracle per drawn query")),
                Err(point) => {
                    self.next_obj += 1;
                    Op::Publish {
                        obj: self.next_obj - 1,
                        point,
                    }
                }
            })
            .collect()
    }
}
