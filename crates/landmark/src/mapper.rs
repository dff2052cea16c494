//! The object → index-point mapping.

use std::borrow::Borrow;

use metric::Metric;
use rayon::prelude::*;

/// Maps objects of a metric space to points in the `k`-dimensional
/// landmark index space: coordinate `i` of `map(x)` is `d(x, l_i)`.
///
/// The mapping is contractive under the L∞ metric on the index space:
/// `|map(x)_i - map(y)_i| = |d(x,l_i) - d(y,l_i)| <= d(x, y)` by the
/// triangle inequality — the property the whole query-superset argument
/// rests on (and which `tests` verify).
///
/// ```
/// use landmark::Mapper;
/// use metric::EditDistance;
///
/// // Any black-box metric works — here, strings under edit distance.
/// let mapper = Mapper::new(EditDistance, vec!["ACGT".to_string(), "TTTT".to_string()]);
/// assert_eq!(&*mapper.map("ACGA"), &[1.0, 4.0]);
/// assert_eq!(&*mapper.map("ACGT"), &[0.0, 3.0]);
/// ```
#[derive(Clone, Debug)]
pub struct Mapper<T, M> {
    metric: M,
    landmarks: Vec<T>,
}

impl<T, M> Mapper<T, M> {
    /// Build from a metric and a non-empty landmark set.
    pub fn new(metric: M, landmarks: Vec<T>) -> Self {
        assert!(!landmarks.is_empty(), "at least one landmark required");
        Mapper { metric, landmarks }
    }

    /// Number of landmarks = dimensionality of the index space.
    pub fn k(&self) -> usize {
        self.landmarks.len()
    }

    /// The landmark objects.
    pub fn landmarks(&self) -> &[T] {
        &self.landmarks
    }

    /// The wrapped metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Map one object to its index point. The exact-sized `Box<[f64]>`
    /// is what index entries store (no capacity slack, one allocation).
    pub fn map<Q>(&self, obj: &Q) -> Box<[f64]>
    where
        Q: ?Sized,
        T: Borrow<Q>,
        M: Metric<Q>,
    {
        self.landmarks
            .iter()
            .map(|l| self.metric.distance(obj, l.borrow()))
            .collect()
    }

    /// Map one object into a caller-provided buffer (cleared first), so
    /// bulk loops can reuse one allocation across objects.
    pub fn map_into<Q>(&self, obj: &Q, out: &mut Vec<f64>)
    where
        Q: ?Sized,
        T: Borrow<Q>,
        M: Metric<Q>,
    {
        out.clear();
        out.extend(
            self.landmarks
                .iter()
                .map(|l| self.metric.distance(obj, l.borrow())),
        );
    }

    /// Map a whole collection, preserving order, fanned out over the
    /// worker threads (each object's `k` landmark distances are an
    /// independent unit of work). Each landmark is prepared once
    /// through [`Metric::distance_to`]. Output is deterministic: the
    /// parallel map chunks by contiguous index ranges and concatenates
    /// in order, so this equals the sequential `objs.iter().map(..)`
    /// exactly.
    pub fn map_all<Q, B>(&self, objs: &[B]) -> Vec<Vec<f64>>
    where
        Q: ?Sized + Sync,
        B: Borrow<Q> + Sync,
        T: Borrow<Q> + Sync,
        M: Metric<Q> + Sync,
    {
        let to: Vec<_> = (self.landmarks.iter())
            .map(|l| self.metric.distance_to(l.borrow()))
            .collect();
        objs.par_iter()
            .map(|o| to.iter().map(|d| d(o.borrow())).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metric::{EditDistance, L2};

    #[test]
    fn maps_to_landmark_distances() {
        let landmarks = vec![vec![0.0f32, 0.0], vec![10.0, 0.0]];
        let m = Mapper::new(L2::new(), landmarks);
        assert_eq!(m.k(), 2);
        let p = m.map(&[3.0f32, 4.0][..]);
        assert_eq!(&*p, &[5.0, (49.0f64 + 16.0).sqrt()]);
        // A landmark maps to 0 in its own coordinate.
        let p = m.map(&[0.0f32, 0.0][..]);
        assert_eq!(p[0], 0.0);
    }

    #[test]
    fn contractive_under_linf() {
        let landmarks = vec![vec![0.0f32, 0.0], vec![10.0, 0.0], vec![0.0, 10.0]];
        let mapper = Mapper::new(L2::new(), landmarks);
        let pts: Vec<Vec<f32>> = vec![
            vec![1.0, 2.0],
            vec![8.0, 3.0],
            vec![-4.0, 7.0],
            vec![100.0, -50.0],
        ];
        for a in &pts {
            for b in &pts {
                let da = mapper.map(a.as_slice());
                let db = mapper.map(b.as_slice());
                let linf = da
                    .iter()
                    .zip(db.iter())
                    .map(|(x, y)| (x - y).abs())
                    .fold(0.0, f64::max);
                let true_d = L2::new().distance(a, b);
                assert!(linf <= true_d + 1e-9, "mapping expanded: {linf} > {true_d}");
            }
        }
    }

    #[test]
    fn works_with_string_metric() {
        let mapper = Mapper::new(EditDistance, vec!["ACGT".to_string(), "AAAA".to_string()]);
        let p = mapper.map("ACGA");
        assert_eq!(&*p, &[1.0, 2.0]);
    }

    #[test]
    fn map_into_reuses_the_buffer() {
        let mapper = Mapper::new(L2::new(), vec![vec![0.0f32], vec![10.0f32]]);
        let mut buf = Vec::with_capacity(2);
        mapper.map_into(&[3.0f32][..], &mut buf);
        assert_eq!(buf, vec![3.0, 7.0]);
        let cap = buf.capacity();
        mapper.map_into(&[9.0f32][..], &mut buf);
        assert_eq!(buf, vec![9.0, 1.0]);
        assert_eq!(buf.capacity(), cap, "buffer must be reused, not regrown");
    }

    #[test]
    fn map_all_preserves_order() {
        let mapper = Mapper::new(L2::new(), vec![vec![0.0f32]]);
        let pts = [vec![1.0f32], vec![2.0], vec![3.0]];
        let mapped = mapper.map_all::<[f32], _>(&pts);
        assert_eq!(mapped, vec![vec![1.0], vec![2.0], vec![3.0]]);
    }

    #[test]
    fn map_all_matches_map_on_large_input() {
        // Large enough that the parallel path actually fans out.
        let landmarks: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 25.0]).collect();
        let mapper = Mapper::new(L2::new(), landmarks);
        let pts: Vec<Vec<f32>> = (0..2_000).map(|i| vec![(i % 101) as f32]).collect();
        let bulk = mapper.map_all::<[f32], _>(&pts);
        for (p, row) in pts.iter().zip(&bulk) {
            assert_eq!(&*mapper.map(p.as_slice()), row.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn empty_landmarks_rejected() {
        let _: Mapper<Vec<f32>, L2> = Mapper::new(L2::new(), vec![]);
    }
}
