//! Property-based verification of the metric axioms for every shipped
//! metric. The landmark index's correctness argument (contractive mapping,
//! superset range results) rests entirely on the triangle inequality, so
//! these are the load-bearing invariants of the whole reproduction.

use metric::space::{check_axioms, Discrete};
use metric::{Angular, Bounded, EditDistance, Hausdorff, Linf, Lp, Metric, SparseVector, L1, L2};
use proptest::prelude::*;

const DIM: usize = 8;

fn vec_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, DIM)
}

fn sparse_strategy() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0u32..50, 0.01f32..10.0), 1..12).prop_map(SparseVector::new)
}

fn string_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ACGT]{0,24}").unwrap()
}

fn pointset_strategy() -> impl Strategy<Value = metric::hausdorff::PointSet> {
    prop::collection::vec((0.0f64..50.0, 0.0f64..50.0), 1..8).prop_map(|pts| {
        metric::hausdorff::PointSet::new(pts.into_iter().map(|(x, y)| [x, y]).collect())
    })
}

proptest! {
    #[test]
    fn l2_axioms(x in vec_strategy(), y in vec_strategy(), z in vec_strategy()) {
        check_axioms(&L2::new(), &x[..], &y[..], &z[..], 1e-4).unwrap();
    }

    #[test]
    fn l1_axioms(x in vec_strategy(), y in vec_strategy(), z in vec_strategy()) {
        check_axioms(&L1::new(), &x[..], &y[..], &z[..], 1e-4).unwrap();
    }

    #[test]
    fn linf_axioms(x in vec_strategy(), y in vec_strategy(), z in vec_strategy()) {
        check_axioms(&Linf::new(), &x[..], &y[..], &z[..], 1e-4).unwrap();
    }

    #[test]
    fn lp3_axioms(x in vec_strategy(), y in vec_strategy(), z in vec_strategy()) {
        check_axioms(&Lp::new(3.0), &x[..], &y[..], &z[..], 1e-4).unwrap();
    }

    #[test]
    fn bounded_l2_axioms(x in vec_strategy(), y in vec_strategy(), z in vec_strategy()) {
        let m = Bounded::new(L2::new());
        check_axioms(&m, &x[..], &y[..], &z[..], 1e-6).unwrap();
        prop_assert!(m.distance(&x[..], &y[..]) < 1.0);
    }

    #[test]
    fn edit_axioms(x in string_strategy(), y in string_strategy(), z in string_strategy()) {
        check_axioms(&EditDistance, x.as_str(), y.as_str(), z.as_str(), 0.0).unwrap();
    }

    #[test]
    fn edit_reflexive_only_when_equal(x in string_strategy(), y in string_strategy()) {
        let d: f64 = Metric::<str>::distance(&EditDistance, &x, &y);
        prop_assert_eq!(d == 0.0, x == y);
    }

    #[test]
    fn angular_axioms(x in sparse_strategy(), y in sparse_strategy(), z in sparse_strategy()) {
        // acos near 1.0 is numerically touchy; 1e-3 absorbs it while still
        // catching genuine violations (which would be O(0.1)).
        check_axioms(&Angular::new(), &x, &y, &z, 1e-3).unwrap();
    }

    #[test]
    fn angular_distance_to_is_distance_bit_for_bit(
        fixed in prop::collection::vec((0u32..300, -10.0f32..10.0), 0..200),
        others in prop::collection::vec(prop::collection::vec((0u32..320, -10.0f32..10.0), 0..60), 1..8),
    ) {
        // The prepared landmark (a dense table) must reproduce the merge
        // exactly: signed weights, zero vectors and terms past the
        // fixed vector's last one included.
        let fixed = SparseVector::new(fixed);
        let m = Angular::signed();
        let to = m.distance_to(&fixed);
        for o in others.into_iter().map(SparseVector::new) {
            prop_assert_eq!(to(&o).to_bits(), m.distance(&o, &fixed).to_bits());
        }
    }

    #[test]
    fn hausdorff_axioms(x in pointset_strategy(), y in pointset_strategy(), z in pointset_strategy()) {
        check_axioms(&Hausdorff::new(), &x, &y, &z, 1e-9).unwrap();
    }

    #[test]
    fn discrete_axioms(x in 0u64..5, y in 0u64..5, z in 0u64..5) {
        check_axioms(&Discrete, &x, &y, &z, 0.0).unwrap();
    }

    #[test]
    fn lp_monotone_in_p(x in vec_strategy(), y in vec_strategy()) {
        // Standard fact: for fixed vectors, L_p norm decreases in p.
        let d1 = Lp::new(1.0).distance(&x[..], &y[..]);
        let d2 = Lp::new(2.0).distance(&x[..], &y[..]);
        let d4 = Lp::new(4.0).distance(&x[..], &y[..]);
        prop_assert!(d1 + 1e-6 >= d2);
        prop_assert!(d2 + 1e-6 >= d4);
    }

    #[test]
    fn edit_distance_bounds(x in string_strategy(), y in string_strategy()) {
        let d = EditDistance::levenshtein(x.as_bytes(), y.as_bytes());
        prop_assert!(d <= x.len().max(y.len()));
        prop_assert!(d >= x.len().abs_diff(y.len()));
    }
}
