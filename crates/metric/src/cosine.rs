//! Angular distance between sparse term vectors.
//!
//! The paper's TREC experiment (§4.3) represents documents and queries as
//! TF/IDF term vectors and measures dissimilarity as the *angle* between
//! them, `d(X, Y) = arccos(X·Y / (|X||Y|))`. Unlike raw cosine
//! *similarity*, the angle is a true metric on the unit sphere (it is the
//! geodesic distance), so it satisfies the triangle inequality the
//! landmark mapping depends on. For vectors with non-negative components
//! (every TF/IDF vector) the angle lies in `[0, π/2]`, which is the bound
//! the paper's boundary discussion uses.

use crate::space::Metric;

/// A sparse vector: `(term id, weight)` pairs sorted by term id, with the
/// Euclidean norm cached. Weights must be finite and, for the distance
/// bound of π/2 to hold, non-negative.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVector {
    terms: Vec<(u32, f32)>,
    norm: f64,
}

impl SparseVector {
    /// Build from `(term, weight)` pairs. Pairs are sorted and duplicate
    /// terms have their weights summed; zero-weight terms are dropped.
    pub fn new(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(t, _)| t);
        let mut terms: Vec<(u32, f32)> = Vec::with_capacity(pairs.len());
        for (t, w) in pairs {
            assert!(w.is_finite(), "weights must be finite");
            match terms.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => terms.push((t, w)),
            }
        }
        terms.retain(|&(_, w)| w != 0.0);
        let norm = terms
            .iter()
            .map(|&(_, w)| (w as f64) * (w as f64))
            .sum::<f64>()
            .sqrt();
        SparseVector { terms, norm }
    }

    /// The empty (zero) vector.
    pub fn empty() -> Self {
        SparseVector {
            terms: Vec::new(),
            norm: 0.0,
        }
    }

    /// Number of distinct terms with non-zero weight.
    pub fn nnz(&self) -> usize {
        self.terms.len()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// The sorted `(term, weight)` pairs.
    pub fn terms(&self) -> &[(u32, f32)] {
        &self.terms
    }

    /// Dot product with another sparse vector (sorted-merge join).
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let (a, b) = (&self.terms, &other.terms);
        let mut acc = 0.0f64;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += a[i].1 as f64 * b[j].1 as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors are treated as
    /// orthogonal to everything (and identical to each other).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        if self.norm == 0.0 && other.norm == 0.0 {
            return 1.0;
        }
        if self.norm == 0.0 || other.norm == 0.0 {
            return 0.0;
        }
        (self.dot(other) / (self.norm * other.norm)).clamp(-1.0, 1.0)
    }
}

/// The angular metric `d(X, Y) = arccos(cos_sim(X, Y))`.
///
/// `upper_bound` reports π/2, which is correct for non-negative-weight
/// vectors (TF/IDF); for signed vectors use [`Angular::signed`], whose
/// bound is π.
#[derive(Clone, Copy, Debug)]
pub struct Angular {
    bound: f64,
}

impl Default for Angular {
    fn default() -> Self {
        Angular::new()
    }
}

impl Angular {
    /// Angular metric for non-negative-weight vectors; bound π/2.
    pub fn new() -> Self {
        Angular {
            bound: std::f64::consts::FRAC_PI_2,
        }
    }

    /// Angular metric for arbitrary-sign vectors; bound π.
    pub fn signed() -> Self {
        Angular {
            bound: std::f64::consts::PI,
        }
    }
}

impl Metric<SparseVector> for Angular {
    fn distance(&self, a: &SparseVector, b: &SparseVector) -> f64 {
        a.cosine(b).acos()
    }
    fn upper_bound(&self) -> Option<f64> {
        Some(self.bound)
    }

    /// One dense weight table for `fixed` makes each dot product a walk
    /// over the other vector's terms alone, not a merge with `fixed`'s (a
    /// k-means centroid carries thousands). The matching products are
    /// summed in the same term order as [`SparseVector::dot`], and the
    /// zero products it adds leave a sum that is never `-0.0` unchanged,
    /// so every distance equals [`Metric::distance`]'s bit for bit.
    fn distance_to<'a>(
        &'a self,
        fixed: &'a SparseVector,
    ) -> Box<dyn Fn(&SparseVector) -> f64 + Send + Sync + 'a> {
        let len = fixed.terms.last().map_or(0, |&(t, _)| t as usize + 1);
        let mut dense = vec![0.0f32; len];
        for &(t, w) in &fixed.terms {
            dense[t as usize] = w;
        }
        Box::new(move |o: &SparseVector| {
            if o.norm == 0.0 || fixed.norm == 0.0 {
                return o.cosine(fixed).acos();
            }
            let mut dot = 0.0f64;
            for &(t, w) in o.terms.iter().take_while(|&&(t, _)| (t as usize) < len) {
                dot += w as f64 * dense[t as usize] as f64;
            }
            (dot / (o.norm * fixed.norm)).clamp(-1.0, 1.0).acos()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::check_axioms;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn sv(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::new(pairs.to_vec())
    }

    #[test]
    fn construction_normalizes() {
        let v = sv(&[(3, 1.0), (1, 2.0), (3, 1.0), (5, 0.0)]);
        assert_eq!(v.terms(), &[(1, 2.0), (3, 2.0)]);
        assert_eq!(v.nnz(), 2);
        assert!((v.norm() - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn dot_product_merge() {
        let a = sv(&[(1, 1.0), (2, 2.0), (4, 3.0)]);
        let b = sv(&[(2, 5.0), (3, 7.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        assert_eq!(b.dot(&a), a.dot(&b));
        assert_eq!(a.dot(&SparseVector::empty()), 0.0);
    }

    #[test]
    fn angles() {
        let m = Angular::new();
        let x = sv(&[(0, 1.0)]);
        let y = sv(&[(1, 1.0)]);
        let xy = sv(&[(0, 1.0), (1, 1.0)]);
        assert!((m.distance(&x, &y) - FRAC_PI_2).abs() < 1e-12);
        assert!((m.distance(&x, &xy) - FRAC_PI_4).abs() < 1e-12);
        assert!(m.distance(&x, &x).abs() < 1e-7);
        // Scaling does not change the angle.
        let x10 = sv(&[(0, 10.0)]);
        assert!(m.distance(&x, &x10).abs() < 1e-7);
    }

    #[test]
    fn zero_vector_convention() {
        let m = Angular::new();
        let z = SparseVector::empty();
        let x = sv(&[(0, 1.0)]);
        assert!((m.distance(&z, &x) - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(m.distance(&z, &z), 0.0);
    }

    #[test]
    fn bounds() {
        assert_eq!(Angular::new().upper_bound(), Some(FRAC_PI_2));
        assert_eq!(Angular::signed().upper_bound(), Some(std::f64::consts::PI));
    }

    #[test]
    fn axioms_on_nonnegative_vectors() {
        let m = Angular::new();
        let x = sv(&[(0, 1.0), (1, 2.0)]);
        let y = sv(&[(1, 1.0), (2, 3.0)]);
        let z = sv(&[(0, 2.0), (2, 1.0)]);
        check_axioms(&m, &x, &y, &z, 1e-7).unwrap();
    }

    #[test]
    fn orthogonal_sparse_documents_hit_max_distance() {
        // The paper's TREC observation: most sparse documents share no
        // terms and therefore sit at the maximum distance π/2.
        let m = Angular::new();
        let a = sv(&[(1, 0.5), (2, 0.7)]);
        let b = sv(&[(10, 0.4), (11, 0.9)]);
        assert!((m.distance(&a, &b) - FRAC_PI_2).abs() < 1e-12);
    }
}
