//! The one corpus fixture under the report writers (`micro_report`,
//! `scale_report`): a clustered 12-d corpus and its writer's query
//! objects, mapped through [`simsearch::map_index`] with a 250-object
//! sample, 5 k-means landmarks and the sample-derived boundary — plus
//! the query builders and the peak-RSS probe those writers share.
//!
//! Every draw happens in one fixed order from the caller's seed, so a
//! writer that builds its corpus here reproduces its checked-in
//! `BENCH_*.json` counters exactly.

use std::ops::Range;

use landmark::{boundary_from_sample, SelectionMethod};
use metric::{Dataset, ObjectId, L2};
use simnet::SimRng;
use simsearch::{map_index, IndexSpec, Mapping, QuerySpec};
use workloads::{knn_batch, ClusteredParams, ClusteredVectors};

use crate::sweep::select;

/// Landmarks every corpus is mapped through.
pub const K_LANDMARKS: usize = 5;
/// `k` of the padded-kNN query sets, and the plain systems' answer cap.
pub const KNN_K: usize = 10;

/// A landmark-mapped clustered corpus and its query pool.
pub struct Corpus {
    /// The raw dataset (`ObjectId(i)` = `data.objects[i]`).
    pub data: ClusteredVectors,
    /// The mapped pool and the true distance the oracles read.
    pub mapping: Mapping,
    /// The query objects; pool item `p` is `mapping.pool[p]` mapped.
    pool: Vec<Vec<f32>>,
    /// The unnamed, rotated index over every object.
    spec: IndexSpec,
}

impl Corpus {
    /// Generate `n_objects` clustered vectors, draw the query objects
    /// with `pool`, and map both through k-means landmarks chosen from
    /// a 250-object sample.
    pub fn build(
        n_objects: usize,
        seed: u64,
        pool: impl FnOnce(&ClusteredVectors) -> Vec<Vec<f32>>,
    ) -> Corpus {
        let data = ClusteredVectors::generate(
            ClusteredParams {
                dims: 12,
                clusters: 5,
                deviation: 9.0,
                n_objects,
                ..ClusteredParams::default()
            },
            seed,
        );
        let pool = pool(&data);
        let (spec, mapping) = map_index::<_, [f32], _>(
            250,
            &mut SimRng::new(seed),
            pool.clone(),
            data.objects.clone(),
            L2::bounded(12, 0.0, 100.0),
            n_objects,
            select(SelectionMethod::KMeans, K_LANDMARKS, 10),
            // Sample-derived boundary (§3.1 route 2): tight around the
            // data, so the grid's key resolution is spent where entries
            // live.
            |m, sample| boundary_from_sample::<_, [f32], _>(m, sample, 0.05),
        );
        Corpus {
            data,
            mapping,
            pool,
            spec: IndexSpec {
                rotate: true,
                ..spec
            },
        }
    }

    /// One query per pool item in `probes` whose truth is the exact
    /// top-[`KNN_K`] and whose radius is `pad` times the k-th distance:
    /// every true neighbour is in range, and the non-answers that also
    /// match locally exercise refinement.
    pub fn padded_knn(&self, probes: Range<usize>, pad: f64) -> Vec<QuerySpec> {
        let dataset = Dataset::new(self.data.objects.clone());
        let truth =
            knn_batch::<_, [f32], _>(&L2::new(), &dataset, &self.pool[probes.clone()], KNN_K);
        probes
            .zip(&truth)
            .map(|(p, t)| QuerySpec {
                index: 0,
                point: self.mapping.pool[p].clone(),
                radius: t[KNN_K - 1].1 * pad,
                truth: t.iter().map(|&(id, _)| id).collect(),
            })
            .collect()
    }

    /// One range query per pool item in `probes` at `radius`, whose
    /// truth is every object within it by brute force.
    pub fn range(&self, probes: impl Iterator<Item = usize>, radius: f64) -> Vec<QuerySpec> {
        let n = self.data.objects.len();
        probes
            .map(|p| QuerySpec {
                index: 0,
                point: self.mapping.pool[p].clone(),
                radius,
                truth: (0..n)
                    .filter(|&o| (self.mapping.dist)(p, o) <= radius)
                    .map(|o| ObjectId(o as u32))
                    .collect(),
            })
            .collect()
    }

    /// The rotated index `name` over this corpus.
    pub fn index(&self, name: &str) -> IndexSpec {
        IndexSpec {
            name: name.into(),
            ..self.spec.clone()
        }
    }
}

/// Process peak resident set (`VmHWM`) in kB; 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
