//! Axis-aligned boxes in the k-dimensional index space.

/// A closed axis-aligned box `[lo_0, hi_0] × … × [lo_{k-1}, hi_{k-1}]`.
///
/// Query regions (the hypercube of side `2r` around a mapped query point,
/// paper §3.1) and cuboid cells are both represented as `Rect`s.
///
/// Both corners share one allocation (`lo` then `hi`), so copying a
/// region — which query splitting does at every cut — allocates once.
#[derive(Clone, PartialEq)]
pub struct Rect {
    corners: Box<[f64]>,
}

impl Rect {
    /// Build from per-dimension bounds; requires `lo[d] <= hi[d]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Rect {
        assert_eq!(lo.len(), hi.len(), "dimension mismatch");
        assert!(!lo.is_empty(), "rect needs at least one dimension");
        for d in 0..lo.len() {
            assert!(
                lo[d] <= hi[d],
                "empty interval on dim {d}: [{}, {}]",
                lo[d],
                hi[d]
            );
        }
        let mut corners = Vec::with_capacity(2 * lo.len());
        corners.extend_from_slice(&lo);
        corners.extend_from_slice(&hi);
        Rect {
            corners: corners.into_boxed_slice(),
        }
    }

    /// The box `[lo, hi]^dims`.
    pub fn cube(dims: usize, lo: f64, hi: f64) -> Rect {
        Rect::new(vec![lo; dims], vec![hi; dims])
    }

    /// The L∞ ball of radius `r` around `center`, i.e. the paper's query
    /// hypercube of edge `2r`, clipped to `bounds`.
    pub fn ball(center: &[f64], r: f64, bounds: &Rect) -> Rect {
        assert!(r >= 0.0);
        assert_eq!(center.len(), bounds.dims());
        let lo = center
            .iter()
            .zip(bounds.lo())
            .map(|(&c, &b)| (c - r).max(b))
            .collect::<Vec<_>>();
        let hi = center
            .iter()
            .zip(bounds.hi())
            .map(|(&c, &b)| (c + r).min(b))
            .collect::<Vec<_>>();
        // A query centred outside the bounds clips to a face point.
        let (lo, hi) = lo
            .into_iter()
            .zip(hi)
            .map(|(l, h)| if l > h { (h, h) } else { (l, h) })
            .unzip();
        Rect::new(lo, hi)
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.corners.len() / 2
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.corners[..self.dims()]
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.corners[self.dims()..]
    }

    /// Mutate one dimension's interval (used by query splitting).
    #[inline]
    pub fn set_dim(&mut self, d: usize, lo: f64, hi: f64) {
        assert!(lo <= hi);
        let k = self.dims();
        self.corners[..k][d] = lo;
        self.corners[k..][d] = hi;
    }

    /// True when `p` lies inside (closed) this box.
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        assert_eq!(p.len(), self.dims());
        let (lo, hi) = (self.lo(), self.hi());
        p.iter().enumerate().all(|(d, &x)| lo[d] <= x && x <= hi[d])
    }

    /// True when `other` is entirely inside this box.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        assert_eq!(self.dims(), other.dims());
        let (lo, hi, olo, ohi) = (self.lo(), self.hi(), other.lo(), other.hi());
        (0..self.dims()).all(|d| lo[d] <= olo[d] && ohi[d] <= hi[d])
    }

    /// True when the two (closed) boxes share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        assert_eq!(self.dims(), other.dims());
        let (lo, hi, olo, ohi) = (self.lo(), self.hi(), other.lo(), other.hi());
        (0..self.dims()).all(|d| lo[d] <= ohi[d] && olo[d] <= hi[d])
    }

    /// The intersection box, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let (lo, hi, olo, ohi) = (self.lo(), self.hi(), other.lo(), other.hi());
        let lo = (0..self.dims()).map(|d| lo[d].max(olo[d])).collect();
        let hi = (0..self.dims()).map(|d| hi[d].min(ohi[d])).collect();
        Some(Rect::new(lo, hi))
    }

    /// Geometric center.
    pub fn center(&self) -> Vec<f64> {
        let (lo, hi) = (self.lo(), self.hi());
        (0..self.dims()).map(|d| 0.5 * (lo[d] + hi[d])).collect()
    }

    /// Product of side lengths (0 for degenerate boxes).
    pub fn volume(&self) -> f64 {
        let (lo, hi) = (self.lo(), self.hi());
        (0..self.dims()).map(|d| hi[d] - lo[d]).product()
    }
}

impl std::fmt::Debug for Rect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rect[")?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, " × ")?;
            }
            write!(f, "[{}, {}]", self.lo()[d], self.hi()[d])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let r = Rect::new(vec![0.0, 1.0], vec![2.0, 3.0]);
        assert_eq!(r.dims(), 2);
        assert_eq!(r.lo(), &[0.0, 1.0]);
        assert_eq!(r.hi(), &[2.0, 3.0]);
        assert_eq!(r.center(), vec![1.0, 2.0]);
        assert_eq!(r.volume(), 4.0);
        let c = Rect::cube(3, -1.0, 1.0);
        assert_eq!(c.volume(), 8.0);
    }

    #[test]
    fn containment() {
        let r = Rect::cube(2, 0.0, 10.0);
        assert!(r.contains_point(&[0.0, 10.0]));
        assert!(r.contains_point(&[5.0, 5.0]));
        assert!(!r.contains_point(&[10.1, 5.0]));
        assert!(r.contains_rect(&Rect::cube(2, 2.0, 8.0)));
        assert!(r.contains_rect(&r));
        assert!(!r.contains_rect(&Rect::cube(2, 2.0, 11.0)));
    }

    #[test]
    fn intersection() {
        let a = Rect::cube(2, 0.0, 5.0);
        let b = Rect::new(vec![3.0, 3.0], vec![8.0, 8.0]);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::new(vec![3.0, 3.0], vec![5.0, 5.0]));
        let c = Rect::new(vec![6.0, 6.0], vec![7.0, 7.0]);
        assert!(!a.intersects(&c));
        assert!(a.intersection(&c).is_none());
        // Touching faces count as intersecting (closed boxes).
        let d = Rect::new(vec![5.0, 0.0], vec![6.0, 5.0]);
        assert!(a.intersects(&d));
    }

    #[test]
    fn ball_clips_to_bounds() {
        let bounds = Rect::cube(2, 0.0, 100.0);
        let b = Rect::ball(&[10.0, 50.0], 20.0, &bounds);
        assert_eq!(b, Rect::new(vec![0.0, 30.0], vec![30.0, 70.0]));
        // Fully interior ball is untouched.
        let b = Rect::ball(&[50.0, 50.0], 5.0, &bounds);
        assert_eq!(b, Rect::new(vec![45.0, 45.0], vec![55.0, 55.0]));
    }

    #[test]
    fn ball_outside_bounds_degenerates_to_face() {
        // The paper maps out-of-boundary points to boundary points; a
        // query centred beyond the boundary must still form a valid box.
        let bounds = Rect::cube(1, 0.0, 10.0);
        let b = Rect::ball(&[15.0], 2.0, &bounds);
        assert_eq!(b, Rect::new(vec![10.0], vec![10.0]));
    }

    #[test]
    fn set_dim() {
        let mut r = Rect::cube(2, 0.0, 10.0);
        r.set_dim(1, 2.0, 3.0);
        assert_eq!(r, Rect::new(vec![0.0, 2.0], vec![10.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn inverted_interval_rejected() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn debug_format() {
        let r = Rect::new(vec![0.0], vec![1.0]);
        assert_eq!(format!("{r:?}"), "Rect[[0, 1]]");
    }
}
