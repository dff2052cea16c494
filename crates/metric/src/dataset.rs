//! Object storage with stable ids.
//!
//! A [`Dataset`] is the local view of the network's data collection: the
//! objects, addressable by dense [`ObjectId`]s. Index entries, query
//! results and recall accounting all speak in `ObjectId`s.

use crate::space::Metric;

/// A dense object identifier, unique within one dataset.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjectId(pub u32);

/// An indexed collection of objects of type `T`.
#[derive(Clone, Debug, Default)]
pub struct Dataset<T> {
    objects: Vec<T>,
}

impl<T> Dataset<T> {
    /// Wrap a vector of objects; ids are assigned in order.
    pub fn new(objects: Vec<T>) -> Self {
        assert!(
            objects.len() <= u32::MAX as usize,
            "ObjectId is 32 bits; dataset too large"
        );
        Dataset { objects }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when there are no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Access an object by id.
    pub fn get(&self, id: ObjectId) -> &T {
        &self.objects[id.0 as usize]
    }

    /// Iterate `(id, object)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &T)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, o)| (ObjectId(i as u32), o))
    }

    /// All ids in order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.objects.len() as u32).map(ObjectId)
    }

    /// Unwrap into the objects, in id order.
    pub fn into_objects(self) -> Vec<T> {
        self.objects
    }

    /// Add an object, returning its id.
    pub fn push(&mut self, object: T) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        self.objects.push(object);
        id
    }

    /// Exact k-nearest-neighbor scan (the experiments' ground truth).
    ///
    /// Returns `(id, distance)` pairs sorted by ascending distance, ties
    /// broken by id so results are deterministic. `O(n log k)`.
    pub fn knn<Q, M>(&self, metric: &M, query: &Q, k: usize) -> Vec<(ObjectId, f64)>
    where
        T: std::borrow::Borrow<Q>,
        Q: ?Sized,
        M: Metric<Q>,
    {
        let mut best: Vec<(ObjectId, f64)> = Vec::with_capacity(k + 1);
        for (id, obj) in self.iter() {
            let d = metric.distance(query, obj.borrow());
            let pos = best.partition_point(|&(bid, bd)| bd < d || (bd == d && bid < id));
            if pos < k {
                best.insert(pos, (id, d));
                if best.len() > k {
                    best.pop();
                }
            }
        }
        best
    }

    /// Exact range scan: all objects within `radius` of the query, sorted
    /// by ascending distance (ties by id).
    pub fn range<Q, M>(&self, metric: &M, query: &Q, radius: f64) -> Vec<(ObjectId, f64)>
    where
        T: std::borrow::Borrow<Q>,
        Q: ?Sized,
        M: Metric<Q>,
    {
        let mut out: Vec<(ObjectId, f64)> = self
            .iter()
            .filter_map(|(id, obj)| {
                let d = metric.distance(query, obj.borrow());
                (d <= radius).then_some((id, d))
            })
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

impl<T> std::ops::Index<ObjectId> for Dataset<T> {
    type Output = T;
    fn index(&self, id: ObjectId) -> &T {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::L2;

    fn toy() -> Dataset<Vec<f32>> {
        Dataset::new(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 4.0],
            vec![1.0, 1.0],
        ])
    }

    #[test]
    fn basic_access() {
        let ds = toy();
        assert_eq!(ds.len(), 5);
        assert!(!ds.is_empty());
        assert_eq!(ds[ObjectId(3)], vec![3.0, 4.0]);
        assert_eq!(ds.ids().count(), 5);
        assert_eq!(ds.iter().count(), 5);
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut ds: Dataset<Vec<f32>> = Dataset::new(vec![]);
        assert!(ds.is_empty());
        assert_eq!(ds.push(vec![1.0]), ObjectId(0));
        assert_eq!(ds.push(vec![2.0]), ObjectId(1));
    }

    #[test]
    fn knn_orders_by_distance() {
        let ds = toy();
        let q = [0.0f32, 0.0];
        let knn = ds.knn(&L2::new(), &q[..], 3);
        assert_eq!(
            knn.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![ObjectId(0), ObjectId(1), ObjectId(4)]
        );
        assert_eq!(knn[0].1, 0.0);
        assert_eq!(knn[1].1, 1.0);
    }

    #[test]
    fn knn_with_k_larger_than_dataset() {
        let ds = toy();
        let q = [0.0f32, 0.0];
        let knn = ds.knn(&L2::new(), &q[..], 100);
        assert_eq!(knn.len(), 5);
        // Sorted ascending.
        for w in knn.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn knn_tie_break_by_id() {
        let ds = Dataset::new(vec![vec![1.0f32], vec![-1.0], vec![1.0]]);
        let q = [0.0f32];
        let knn = ds.knn(&L2::new(), &q[..], 3);
        assert_eq!(
            knn.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![ObjectId(0), ObjectId(1), ObjectId(2)]
        );
    }

    #[test]
    fn range_scan() {
        let ds = toy();
        let q = [0.0f32, 0.0];
        let hits = ds.range(&L2::new(), &q[..], 1.5);
        assert_eq!(
            hits.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![ObjectId(0), ObjectId(1), ObjectId(4)]
        );
        assert!(ds.range(&L2::new(), &q[..], 0.0).len() == 1);
        assert_eq!(ds.range(&L2::new(), &q[..], 100.0).len(), 5);
    }

    /// An object with NaN coordinates produces NaN distances; neither
    /// scan may panic, and NaN never satisfies a range predicate.
    #[test]
    fn nan_coordinates_never_panic_a_scan() {
        let mut ds = toy();
        let nan_id = ds.push(vec![f32::NAN, f32::NAN]);
        let q = [0.0f32, 0.0];
        let knn = ds.knn(&L2::new(), &q[..], 3);
        assert_eq!(knn.len(), 3);
        let hits = ds.range(&L2::new(), &q[..], 100.0);
        assert!(hits.iter().all(|&(_, d)| d.is_finite()));
        assert!(hits.iter().all(|&(id, _)| id != nan_id));
        assert_eq!(hits.len(), 5);
    }
}
