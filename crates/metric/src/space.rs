//! The [`Metric`] trait — the "black box" distance function of the paper.

/// A distance function over objects of type `T`, required to satisfy the
/// metric axioms (paper §2, Definition 1):
///
/// * positivity: `d(x, y) >= 0`
/// * reflexivity: `d(x, y) == 0` iff `x == y`
/// * symmetry: `d(x, y) == d(y, x)`
/// * triangle inequality: `d(x, y) + d(y, z) >= d(x, z)`
///
/// Implementations must be deterministic; the index architecture calls the
/// metric both at publication time (mapping objects to landmark
/// coordinates) and at query time (refining candidate sets), and those two
/// sites must agree.
pub trait Metric<T: ?Sized>: Send + Sync {
    /// The distance between two objects.
    fn distance(&self, a: &T, b: &T) -> f64;

    /// The least upper bound of the distance, when the metric is bounded.
    ///
    /// A bounded metric lets the index space boundary be fixed a priori
    /// (paper §3.1, boundary "by the original metric space"); an unbounded
    /// one needs the [`crate::bounded::Bounded`] adapter or a sampled
    /// boundary.
    fn upper_bound(&self) -> Option<f64> {
        None
    }

    /// `d(·, fixed)` as a function of the other object, for many calls
    /// against one `fixed` object. A metric that can prepare `fixed`
    /// overrides it ([`crate::Angular`] spreads its terms into a dense
    /// table); the function must equal [`Metric::distance`] bit for bit.
    fn distance_to<'a>(&'a self, fixed: &'a T) -> Box<dyn Fn(&T) -> f64 + Send + Sync + 'a>
    where
        T: Sync,
    {
        Box::new(move |o| self.distance(o, fixed))
    }
}

/// Blanket impl so `&M` is a metric wherever `M` is — lets callers pass
/// borrowed metrics into generic machinery without cloning.
impl<T: ?Sized, M: Metric<T> + ?Sized> Metric<T> for &M {
    fn distance(&self, a: &T, b: &T) -> f64 {
        (**self).distance(a, b)
    }
    fn upper_bound(&self) -> Option<f64> {
        (**self).upper_bound()
    }
    fn distance_to<'a>(&'a self, fixed: &'a T) -> Box<dyn Fn(&T) -> f64 + Send + Sync + 'a>
    where
        T: Sync,
    {
        (**self).distance_to(fixed)
    }
}

/// The discrete metric: 0 for equal objects, 1 otherwise. Trivially a
/// metric; used in tests as a degenerate case the machinery must survive.
#[derive(Clone, Copy, Debug, Default)]
pub struct Discrete;

impl<T: PartialEq + Send + Sync> Metric<T> for Discrete {
    fn distance(&self, a: &T, b: &T) -> f64 {
        if a == b {
            0.0
        } else {
            1.0
        }
    }
    fn upper_bound(&self) -> Option<f64> {
        Some(1.0)
    }
}

/// Check the metric axioms on one triple; returns a human-readable
/// violation description if any axiom fails. `tol` absorbs floating-point
/// rounding in the triangle inequality.
pub fn check_axioms<T: ?Sized, M: Metric<T>>(
    metric: &M,
    x: &T,
    y: &T,
    z: &T,
    tol: f64,
) -> Result<(), String> {
    let dxy = metric.distance(x, y);
    let dyx = metric.distance(y, x);
    let dyz = metric.distance(y, z);
    let dxz = metric.distance(x, z);
    let dxx = metric.distance(x, x);
    if dxy < 0.0 || dyz < 0.0 || dxz < 0.0 {
        return Err(format!(
            "negative distance: d(x,y)={dxy} d(y,z)={dyz} d(x,z)={dxz}"
        ));
    }
    if dxx.abs() > tol {
        return Err(format!("d(x,x) = {dxx} != 0"));
    }
    if (dxy - dyx).abs() > tol {
        return Err(format!("asymmetric: d(x,y)={dxy} d(y,x)={dyx}"));
    }
    if dxy + dyz + tol < dxz {
        return Err(format!(
            "triangle violated: d(x,y)+d(y,z)={} < d(x,z)={dxz}",
            dxy + dyz
        ));
    }
    if let Some(ub) = metric.upper_bound() {
        if dxy > ub + tol {
            return Err(format!("d(x,y)={dxy} exceeds declared bound {ub}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_is_a_metric() {
        let m = Discrete;
        check_axioms(&m, &1, &2, &3, 0.0).unwrap();
        check_axioms(&m, &1, &1, &1, 0.0).unwrap();
        assert_eq!(m.distance(&"a", &"a"), 0.0);
        assert_eq!(m.distance(&"a", &"b"), 1.0);
        assert_eq!(Metric::<i32>::upper_bound(&m), Some(1.0));
    }

    #[test]
    fn reference_forwarding() {
        let m = Discrete;
        let r = &m;
        assert_eq!(r.distance(&1, &2), 1.0);
        assert_eq!(Metric::<i32>::upper_bound(&r), Some(1.0));
    }

    struct Broken;
    impl Metric<i32> for Broken {
        fn distance(&self, a: &i32, b: &i32) -> f64 {
            // Violates symmetry.
            (*a - *b) as f64
        }
    }

    #[test]
    fn check_axioms_catches_violations() {
        assert!(check_axioms(&Broken, &3, &1, &1, 1e-9).is_err());
    }
}
