//! The one corpus fixture under the report writers (`micro_report`,
//! `scale_report`): a clustered 12-d corpus, a 250-object
//! sample, 5 k-means landmarks, the mapped points and the
//! sample-derived boundary — plus the query builders, the qid-keyed L2
//! oracle and the peak-RSS probe those writers share.
//!
//! Every draw happens in one fixed order from the caller's seed, so a
//! writer that builds its corpus here reproduces its checked-in
//! `BENCH_*.json` counters exactly.

use std::sync::Arc;

use landmark::{boundary_from_sample, kmeans, Mapper};
use metric::{Dataset, Metric, ObjectId, L2};
use simnet::SimRng;
use simsearch::{IndexSpec, QueryDistance, QueryId, QuerySpec};
use workloads::{ground_truth, ClusteredParams, ClusteredVectors};

/// Landmarks every corpus is mapped through.
pub const K_LANDMARKS: usize = 5;
/// `k` of the padded-kNN query sets, and the plain systems' answer cap.
pub const KNN_K: usize = 10;

/// A landmark-mapped clustered corpus.
pub struct Corpus {
    /// The raw dataset (`ObjectId(i)` = `data.objects[i]`).
    pub data: ClusteredVectors,
    /// Maps raw vectors into landmark space.
    pub mapper: Mapper<Vec<f32>, L2>,
    /// Landmark-mapped dataset, row for row.
    pub points: Vec<Vec<f64>>,
    /// Landmark-space index boundary: the sample's extent plus 5 %.
    pub boundary: Vec<(f64, f64)>,
}

impl Corpus {
    /// Generate `n_objects` clustered vectors and map them through
    /// k-means landmarks chosen from a 250-object sample.
    pub fn build(n_objects: usize, seed: u64) -> Corpus {
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
        let metric = L2::bounded(12, 0.0, 100.0);
        let mut rng = SimRng::new(seed);
        let sample: Vec<Vec<f32>> = rng
            .sample_indices(data.objects.len(), 250)
            .into_iter()
            .map(|i| data.objects[i].clone())
            .collect();
        let landmarks = kmeans::<_, [f32], _>(&metric, &sample, K_LANDMARKS, 10, &mut rng);
        let mapper = Mapper::new(metric, landmarks);
        let points = mapper.map_all::<[f32], _>(&data.objects);
        // Sample-derived boundary (§3.1 route 2): tight around the data,
        // so the grid's key resolution is spent where entries live.
        let boundary = boundary_from_sample::<_, [f32], _>(&mapper, &sample, 0.05).dims;
        Corpus {
            data,
            mapper,
            points,
            boundary,
        }
    }

    /// One query per point whose truth is the exact top-[`KNN_K`] and
    /// whose radius is `pad` times the k-th distance: every true
    /// neighbour is in range, and the non-answers that also match
    /// locally exercise refinement.
    pub fn padded_knn(&self, qpoints: &[Vec<f32>], pad: f64) -> Vec<QuerySpec> {
        let dataset = Dataset::new(self.data.objects.clone());
        let truth = ground_truth::knn_batch::<_, [f32], _>(&L2::new(), &dataset, qpoints, KNN_K);
        qpoints
            .iter()
            .zip(&truth)
            .map(|(q, t)| QuerySpec {
                index: 0,
                point: self.mapper.map(q.as_slice()).into_vec(),
                radius: t[KNN_K - 1].1 * pad,
                truth: t.iter().map(|&(id, _)| id).collect(),
            })
            .collect()
    }

    /// One range query per point at `radius`, whose truth is every
    /// object within it by brute force.
    pub fn range(&self, qpoints: &[Vec<f32>], radius: f64) -> Vec<QuerySpec> {
        qpoints
            .iter()
            .map(|q| QuerySpec {
                index: 0,
                point: self.mapper.map(q.as_slice()).into_vec(),
                radius,
                truth: self
                    .data
                    .objects
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| L2::new().distance(q.as_slice(), o.as_slice()) <= radius)
                    .map(|(i, _)| ObjectId(i as u32))
                    .collect(),
            })
            .collect()
    }

    /// The rotated index `name` over this corpus.
    pub fn index(&self, name: &str) -> IndexSpec {
        IndexSpec {
            name: name.into(),
            boundary: self.boundary.clone(),
            points: self.points.clone(),
            rotate: true,
            rotation: None,
        }
    }
}

/// The true-distance oracle of one query batch: qid `q` is
/// `qpoints[q]`, and object `o` is `objects[o]`.
pub fn l2_oracle(objects: Arc<Vec<Vec<f32>>>, qpoints: Vec<Vec<f32>>) -> Arc<dyn QueryDistance> {
    Arc::new(move |qid: QueryId, obj: ObjectId| {
        L2::new().distance(
            qpoints[qid as usize].as_slice(),
            objects[obj.0 as usize].as_slice(),
        )
    })
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
