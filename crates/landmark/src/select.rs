//! Landmark selection.
//!
//! Paper §3.1: a well-known node samples a set `S` of data objects from
//! the network, then either
//!
//! * greedily picks the object of `S` farthest from the already-chosen
//!   set (Algorithm 1 — `GreedySelection`), which keeps landmarks
//!   dispersed, or
//! * clusters `S` and uses the cluster *centroids* as landmarks
//!   (the "k-mean clustering method").
//!
//! Centroids only exist for types with an averaging operation, captured
//! by the [`Centroid`] trait (dense vectors, sparse TF/IDF vectors). For
//! true black-box metrics, [`kmedoids`] restricts centers to sample
//! objects and needs nothing but the distance function.

use std::borrow::Borrow;

use metric::Metric;
use rayon::prelude::*;
use simnet::SimRng;

/// Distance from every sample object to `to`, computed in parallel.
/// Deterministic: the parallel map is a chunk-ordered fan-out, so the
/// result equals the sequential `sample.iter().map(..)` exactly.
fn distances_to<T, Q, M>(metric: &M, sample: &[T], to: &Q) -> Vec<f64>
where
    T: Borrow<Q> + Sync,
    Q: ?Sized + Sync,
    M: Metric<Q> + Sync,
{
    let d = metric.distance_to(to);
    sample.par_iter().map(|s| d(s.borrow())).collect()
}

/// Which landmark selection scheme an experiment uses. The paper's plots
/// label configurations `Greedy-k` and `KMean-k`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionMethod {
    /// Algorithm 1, greedy max-min.
    Greedy,
    /// Lloyd's k-means on the sample; landmarks are cluster centroids.
    KMeans,
    /// k-medoids (PAM-style); landmarks are sample objects.
    KMedoids,
}

impl std::fmt::Display for SelectionMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionMethod::Greedy => write!(f, "Greedy"),
            SelectionMethod::KMeans => write!(f, "KMean"),
            SelectionMethod::KMedoids => write!(f, "KMedoid"),
        }
    }
}

/// Algorithm 1 — `GreedySelection`.
///
/// Starts from a random sample object and repeatedly adds the object
/// with the maximum distance to the chosen set (distance of an object to
/// a set being the minimum over the set's elements).
pub fn greedy<T, Q, M>(metric: &M, sample: &[T], k: usize, rng: &mut SimRng) -> Vec<T>
where
    T: Clone + Borrow<Q> + Sync,
    Q: ?Sized + Sync,
    M: Metric<Q> + Sync,
{
    assert!(k >= 1, "need at least one landmark");
    assert!(
        sample.len() >= k,
        "sample of {} cannot yield {k} landmarks",
        sample.len()
    );
    let first = rng.index(sample.len());
    let mut chosen_idx = vec![first];
    // min-distance of each sample object to the chosen set, maintained
    // incrementally (classic farthest-point traversal). Each round's
    // sample-to-new-landmark distance pass fans out over worker threads;
    // the argmax and min-merge stay sequential so picks are reproducible.
    let mut min_d = distances_to(metric, sample, sample[first].borrow());
    while chosen_idx.len() < k {
        // argmax of min_d, deterministic tie-break by index.
        let (best, _) =
            min_d
                .iter()
                .enumerate()
                .fold((0usize, f64::NEG_INFINITY), |(bi, bd), (i, &d)| {
                    if d > bd {
                        (i, d)
                    } else {
                        (bi, bd)
                    }
                });
        chosen_idx.push(best);
        let new_d = distances_to(metric, sample, sample[best].borrow());
        for (m, d) in min_d.iter_mut().zip(new_d) {
            if d < *m {
                *m = d;
            }
        }
    }
    chosen_idx.into_iter().map(|i| sample[i].clone()).collect()
}

/// Types that support averaging a group of members into a centroid.
pub trait Centroid: Sized + Clone {
    /// The mean of a non-empty set of members.
    fn centroid(members: &[&Self]) -> Self;
}

impl Centroid for Vec<f32> {
    fn centroid(members: &[&Self]) -> Self {
        assert!(!members.is_empty());
        let dims = members[0].len();
        let mut acc = vec![0.0f64; dims];
        for m in members {
            assert_eq!(m.len(), dims);
            for (a, &x) in acc.iter_mut().zip(m.iter()) {
                *a += x as f64;
            }
        }
        let n = members.len() as f64;
        acc.into_iter().map(|a| (a / n) as f32).collect()
    }
}

impl Centroid for metric::SparseVector {
    fn centroid(members: &[&Self]) -> Self {
        assert!(!members.is_empty());
        // Sparse accumulate; the centroid of many sparse documents is
        // dense-ish — exactly the property the paper's TREC discussion
        // relies on (centroid landmarks have many terms).
        let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for m in members {
            for &(t, w) in m.terms() {
                *acc.entry(t).or_insert(0.0) += w as f64;
            }
        }
        let n = members.len() as f64;
        let mut pairs: Vec<(u32, f32)> =
            acc.into_iter().map(|(t, w)| (t, (w / n) as f32)).collect();
        // Standard text-clustering centroid pruning: keep the heaviest
        // terms so k-means iterations stay O(pruned) per distance. The
        // retained mass dominates the angle; 4096 terms is far denser
        // than any document (paper Table 2 max: 676), preserving the
        // dense-centroid property the TREC experiment depends on.
        const MAX_CENTROID_TERMS: usize = 4096;
        if pairs.len() > MAX_CENTROID_TERMS {
            pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            pairs.truncate(MAX_CENTROID_TERMS);
        }
        metric::SparseVector::new(pairs)
    }
}

/// Lloyd's k-means over the sample; returns the `k` centroids.
///
/// Initialization is k-means++ style (first center random, subsequent
/// centers sampled proportional to squared distance), which is standard
/// practice and keeps the result quality independent of luck. Empty
/// clusters are reseeded from the sample.
pub fn kmeans<T, Q, M>(metric: &M, sample: &[T], k: usize, iters: usize, rng: &mut SimRng) -> Vec<T>
where
    T: Centroid + Borrow<Q> + Sync,
    Q: ?Sized + Sync,
    M: Metric<Q> + Sync,
{
    assert!(k >= 1);
    assert!(sample.len() >= k);
    // --- k-means++ seeding ---
    // Distance passes fan out over worker threads; everything that
    // consumes the RNG or merges results stays sequential, so seeding is
    // byte-identical to the single-threaded version.
    let mut centers: Vec<T> = Vec::with_capacity(k);
    centers.push(sample[rng.index(sample.len())].clone());
    let mut d2: Vec<f64> = distances_to(metric, sample, centers[0].borrow())
        .into_iter()
        .map(|d| d * d)
        .collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let pick = if total <= 0.0 {
            rng.index(sample.len())
        } else {
            let mut target = rng.f64() * total;
            let mut idx = 0;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        centers.push(sample[pick].clone());
        let new_d = distances_to(metric, sample, centers.last().unwrap().borrow());
        for (m, d) in d2.iter_mut().zip(new_d) {
            let dd = d * d;
            if dd < *m {
                *m = dd;
            }
        }
    }
    // --- Lloyd iterations ---
    let mut assignment = vec![0usize; sample.len()];
    for _ in 0..iters {
        let mut changed = false;
        // Assignment is embarrassingly parallel: each object's nearest
        // center is independent, ties break by center index in every
        // thread identically. Each centroid is prepared once.
        let to: Vec<_> = (centers.iter())
            .map(|c| metric.distance_to(c.borrow()))
            .collect();
        let best_center: Vec<usize> = sample
            .par_iter()
            .map(|s| {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, d) in to.iter().enumerate() {
                    let d = d(s.borrow());
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                best
            })
            .collect();
        drop(to);
        for (i, best) in best_center.into_iter().enumerate() {
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let members: Vec<&T> = sample
                .iter()
                .enumerate()
                .filter(|(i, _)| assignment[*i] == c)
                .map(|(_, s)| s)
                .collect();
            if members.is_empty() {
                *center = sample[rng.index(sample.len())].clone();
                changed = true;
            } else {
                *center = T::centroid(&members);
            }
        }
        if !changed {
            break;
        }
    }
    centers
}

/// PAM-style k-medoids: like k-means, but centers are restricted to
/// sample objects, so only the black-box distance is needed.
pub fn kmedoids<T, Q, M>(
    metric: &M,
    sample: &[T],
    k: usize,
    iters: usize,
    rng: &mut SimRng,
) -> Vec<T>
where
    T: Clone + Borrow<Q>,
    Q: ?Sized,
    M: Metric<Q>,
{
    assert!(k >= 1);
    assert!(sample.len() >= k);
    // Seed with the greedy method (dispersed start).
    let mut medoid_idx: Vec<usize> = {
        let first = rng.index(sample.len());
        let mut chosen = vec![first];
        let mut min_d: Vec<f64> = sample
            .iter()
            .map(|s| metric.distance(s.borrow(), sample[first].borrow()))
            .collect();
        while chosen.len() < k {
            let (best, _) =
                min_d
                    .iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |(bi, bd), (i, &d)| {
                        if d > bd {
                            (i, d)
                        } else {
                            (bi, bd)
                        }
                    });
            chosen.push(best);
            for (i, s) in sample.iter().enumerate() {
                let d = metric.distance(s.borrow(), sample[best].borrow());
                if d < min_d[i] {
                    min_d[i] = d;
                }
            }
        }
        chosen
    };
    let mut assignment = vec![0usize; sample.len()];
    for _ in 0..iters {
        // Assign.
        for (i, s) in sample.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, &mi) in medoid_idx.iter().enumerate() {
                let d = metric.distance(s.borrow(), sample[mi].borrow());
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignment[i] = best;
        }
        // Update: per cluster, the member minimizing total in-cluster
        // distance becomes the medoid.
        let mut changed = false;
        for (c, medoid) in medoid_idx.iter_mut().enumerate() {
            let members: Vec<usize> = (0..sample.len()).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut best = *medoid;
            let mut best_cost = f64::INFINITY;
            for &cand in &members {
                let cost: f64 = members
                    .iter()
                    .map(|&i| metric.distance(sample[i].borrow(), sample[cand].borrow()))
                    .sum();
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
            if best != *medoid {
                *medoid = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    medoid_idx.into_iter().map(|i| sample[i].clone()).collect()
}

/// Minimum pairwise distance within a landmark set — the dispersion
/// diagnostic the paper's discussion of landmark quality appeals to
/// ("keep these landmark points dispersive").
pub fn min_separation<T, Q, M>(metric: &M, landmarks: &[T]) -> f64
where
    T: Borrow<Q>,
    Q: ?Sized,
    M: Metric<Q>,
{
    let mut best = f64::INFINITY;
    for i in 0..landmarks.len() {
        for j in (i + 1)..landmarks.len() {
            best = best.min(metric.distance(landmarks[i].borrow(), landmarks[j].borrow()));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{Angular, EditDistance, SparseVector, L2};

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    /// Two tight, well-separated clusters of 1-D points.
    fn two_clusters() -> Vec<Vec<f32>> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(vec![i as f32 * 0.1]);
            v.push(vec![100.0 + i as f32 * 0.1]);
        }
        v
    }

    #[test]
    fn greedy_returns_k_dispersed_landmarks() {
        let sample = two_clusters();
        let lms = greedy::<_, [f32], _>(&L2::new(), &sample, 2, &mut rng());
        assert_eq!(lms.len(), 2);
        // One landmark per cluster: the greedy max-min rule guarantees
        // the second pick is in the other cluster.
        let sep = min_separation::<_, [f32], _>(&L2::new(), &lms);
        assert!(sep > 90.0, "landmarks not dispersed: {sep}");
    }

    #[test]
    fn greedy_is_deterministic_in_seed() {
        let sample = two_clusters();
        let a = greedy::<_, [f32], _>(&L2::new(), &sample, 3, &mut SimRng::new(7));
        let b = greedy::<_, [f32], _>(&L2::new(), &sample, 3, &mut SimRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_on_strings() {
        let sample: Vec<String> = ["AAAA", "AAAT", "TTTT", "TTTA", "GGGG"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let lms = greedy::<_, str, _>(&EditDistance, &sample, 3, &mut rng());
        assert_eq!(lms.len(), 3);
        let sep = min_separation::<_, str, _>(&EditDistance, &lms);
        assert!(sep >= 3.0, "string landmarks bunched: {sep}");
    }

    #[test]
    fn kmeans_finds_cluster_centers() {
        let sample = two_clusters();
        let centers = kmeans::<_, [f32], _>(&L2::new(), &sample, 2, 20, &mut rng());
        assert_eq!(centers.len(), 2);
        let mut means: Vec<f32> = centers.iter().map(|c| c[0]).collect();
        means.sort_by(|a, b| a.total_cmp(b));
        // True cluster means are 0.45 and 100.45.
        assert!((means[0] - 0.45).abs() < 0.2, "low center {}", means[0]);
        assert!((means[1] - 100.45).abs() < 0.2, "high center {}", means[1]);
    }

    /// `M` with only [`Metric::distance`]: its `distance_to` is the
    /// trait's default, one plain distance call per object.
    struct Plain<M>(M);

    impl<Q: ?Sized, M: Metric<Q>> Metric<Q> for Plain<M> {
        fn distance(&self, a: &Q, b: &Q) -> f64 {
            self.0.distance(a, b)
        }
    }

    #[test]
    fn prepared_centroids_give_bit_identical_kmeans() {
        let mut r = rng();
        let docs: Vec<SparseVector> = (0..300)
            .map(|_| {
                let terms = (0..12).map(|_| (r.index(400) as u32, 1.0 + r.f64() as f32));
                SparseVector::new(terms.collect())
            })
            .collect();
        let bits = |c: &[SparseVector]| -> Vec<Vec<(u32, u32)>> {
            (c.iter())
                .map(|v| v.terms().iter().map(|&(t, w)| (t, w.to_bits())).collect())
                .collect()
        };
        let prepared = kmeans::<_, SparseVector, _>(&Angular::new(), &docs, 8, 10, &mut rng());
        let plain = kmeans::<_, SparseVector, _>(&Plain(Angular::new()), &docs, 8, 10, &mut rng());
        assert_eq!(bits(&prepared), bits(&plain));
        let points: Vec<Vec<f32>> = (0..300)
            .map(|_| (0..6).map(|_| r.f64() as f32 * 100.0).collect())
            .collect();
        let bits = |c: &[Vec<f32>]| -> Vec<Vec<u32>> {
            c.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        let prepared = kmeans::<_, [f32], _>(&L2::new(), &points, 8, 10, &mut rng());
        let plain = kmeans::<_, [f32], _>(&Plain(L2::new()), &points, 8, 10, &mut rng());
        assert_eq!(bits(&prepared), bits(&plain));
    }

    #[test]
    fn kmeans_centroid_of_vec() {
        let a = vec![0.0f32, 2.0];
        let b = vec![2.0f32, 4.0];
        let c = Vec::<f32>::centroid(&[&a, &b]);
        assert_eq!(c, vec![1.0, 3.0]);
    }

    #[test]
    fn sparse_centroid_is_denser_than_members() {
        // The paper's TREC observation: centroids of sparse documents
        // have more terms than any member.
        let docs = [
            SparseVector::new(vec![(1, 1.0), (2, 1.0)]),
            SparseVector::new(vec![(3, 1.0), (4, 1.0)]),
            SparseVector::new(vec![(5, 1.0), (1, 1.0)]),
        ];
        let refs: Vec<&SparseVector> = docs.iter().collect();
        let c = SparseVector::centroid(&refs);
        assert_eq!(c.nnz(), 5);
        assert!(c.nnz() > docs.iter().map(|d| d.nnz()).max().unwrap());
    }

    #[test]
    fn kmedoids_picks_sample_objects() {
        let sample = two_clusters();
        let meds = kmedoids::<_, [f32], _>(&L2::new(), &sample, 2, 10, &mut rng());
        assert_eq!(meds.len(), 2);
        for m in &meds {
            assert!(sample.contains(m), "medoid must be a sample object");
        }
        let sep = min_separation::<_, [f32], _>(&L2::new(), &meds);
        assert!(sep > 90.0);
    }

    #[test]
    fn selection_method_labels() {
        assert_eq!(SelectionMethod::Greedy.to_string(), "Greedy");
        assert_eq!(SelectionMethod::KMeans.to_string(), "KMean");
        assert_eq!(SelectionMethod::KMedoids.to_string(), "KMedoid");
    }

    #[test]
    #[should_panic(expected = "cannot yield")]
    fn greedy_rejects_undersized_sample() {
        let sample = vec![vec![0.0f32]];
        let _ = greedy::<_, [f32], _>(&L2::new(), &sample, 2, &mut rng());
    }
}
