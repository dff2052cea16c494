//! Property tests for the query-path performance machinery: the
//! span-narrowed, bounds-pruned store scan must agree exactly with a
//! brute-force filter of the store, and the landmark lower-bound prune
//! must never exclude an object the brute-force range oracle would
//! return.

use lph::{Grid, Rect};
use metric::ObjectId;
use proptest::prelude::*;
use simsearch::{Entry, QueryBall, Store};

/// 2-D index space used by every generated store.
const DIMS: usize = 2;
const LO: f64 = 0.0;
const HI: f64 = 10.0;

fn grid() -> Grid {
    Grid::new(bounds(), 12)
}

fn bounds() -> Rect {
    Rect::new(vec![LO; DIMS], vec![HI; DIMS])
}

/// Build a store whose ring keys are the grid hashes of the points —
/// the identity rotation, which is what `Grid::key_span` narrows. The
/// first `inserted` points arrive one by one, the rest as one bulk
/// load, so both ways of building blocks are scanned.
fn store_of(points: &[(f64, f64)], inserted: usize) -> Store {
    let g = grid();
    let mut entries = points.iter().enumerate().map(|(i, &(x, y))| Entry {
        ring_key: g.hash(&[x, y]),
        obj: ObjectId(i as u32),
        point: vec![x, y].into_boxed_slice(),
    });
    let mut s = Store::new();
    for e in entries.by_ref().take(inserted) {
        s.insert(e);
    }
    s.extend(entries);
    s.assert_invariants();
    s
}

/// The objects a scan must return: the store's entries, in stored
/// order, that lie in `rect`.
fn filter_of(s: &Store, rect: &Rect) -> Vec<u32> {
    s.entries()
        .filter(|e| rect.contains_point(e.point))
        .map(|e| e.obj.0)
        .collect()
}

fn in_bounds() -> impl Strategy<Value = (f64, f64)> {
    ((LO..HI), (LO..HI))
}

/// Points of a 6 × 6 lattice with a jitter far smaller than a depth-12
/// cell (10 / 64 wide): a few hundred of them give ≈ 15 entries per
/// ring key, the shape of the repo benchmark's stores, where runs of
/// equal keys — not single keys — fill the blocks.
fn on_lattice() -> impl Strategy<Value = (f64, f64)> {
    ((0u32..6), (0u32..6), (0.0f64..0.01), (0.0f64..0.01))
        .prop_map(|(i, j, dx, dy)| (1.0 + 1.6 * i as f64 + dx, 1.0 + 1.6 * j as f64 + dy))
}

proptest! {
    /// `scan_range` over the rect's key span returns exactly the entries
    /// a brute-force filter of the whole store returns, in the same
    /// order, while testing no more entries than the whole-key-space
    /// scan (and accounting for every entry as scanned or skipped).
    #[test]
    fn scan_range_agrees_with_the_brute_force_filter(
        points in prop::collection::vec(in_bounds(), 0..200),
        inserted in 0usize..200,
        a in in_bounds(),
        b in in_bounds(),
    ) {
        let ((ax, ay), (bx, by)) = (a, b);
        let s = store_of(&points, inserted);
        let rect = Rect::new(vec![ax.min(bx), ay.min(by)], vec![ax.max(bx), ay.max(by)]);
        let span = grid().key_span(&rect);

        let (full, full_stats) = s.scan_range(&rect, (0, u64::MAX));
        let (narrowed, stats) = s.scan_range(&rect, span);

        let want = filter_of(&s, &rect);
        let full_ids: Vec<u32> = full.iter().map(|e| e.obj.0).collect();
        let ids: Vec<u32> = narrowed.iter().map(|e| e.obj.0).collect();
        prop_assert_eq!(&full_ids, &want, "whole key space: the filter, in order");
        prop_assert_eq!(&ids, &want, "key span: the same hits in the same order");
        prop_assert_eq!(stats.matched, want.len());
        prop_assert!(stats.matched <= stats.scanned);
        prop_assert!(stats.scanned <= full_stats.scanned, "narrowing must not widen");
        prop_assert_eq!(stats.scanned + stats.skipped, s.load());
        prop_assert_eq!(full_stats.scanned + full_stats.skipped, s.load());

        // What a scan tests is decided by what is stored, not by the
        // order it arrived in: the same points, last first and all by
        // `insert`, cost the same.
        let reversed: Vec<(f64, f64)> = points.iter().rev().copied().collect();
        let (_, other) = store_of(&reversed, reversed.len()).scan_range(&rect, span);
        prop_assert_eq!(other, stats);
    }

    /// The same on stores shaped like the benchmark's: few distinct
    /// keys, each shared by many entries, so equal-key runs straddle
    /// block boundaries and a span's end falls inside a run.
    #[test]
    fn scan_range_agrees_when_many_entries_share_a_key(
        points in prop::collection::vec(on_lattice(), 100..500),
        inserted in 0usize..500,
        a in in_bounds(),
        b in in_bounds(),
    ) {
        let ((ax, ay), (bx, by)) = (a, b);
        let s = store_of(&points, inserted);
        let rect = Rect::new(vec![ax.min(bx), ay.min(by)], vec![ax.max(bx), ay.max(by)]);
        let (hits, stats) = s.scan_range(&rect, grid().key_span(&rect));
        let ids: Vec<u32> = hits.iter().map(|e| e.obj.0).collect();
        prop_assert_eq!(ids, filter_of(&s, &rect));
        prop_assert_eq!(stats.scanned + stats.skipped, s.load());
    }

    /// Wrapped spans (`lo > hi`, the ring seam) behave as the union of
    /// the two arcs, low arc first, checked against a naive filter
    /// model; so do empty spans.
    #[test]
    fn wrapped_spans_match_the_filter_model(
        points in prop::collection::vec(in_bounds(), 0..200),
        inserted in 0usize..200,
        span_lo in any::<u64>(),
        span_hi in any::<u64>(),
    ) {
        let s = store_of(&points, inserted);
        let rect = bounds();
        let (hits, stats) = s.scan_range(&rect, (span_lo, span_hi));
        let arcs = if span_lo <= span_hi {
            vec![(span_lo, span_hi)]
        } else {
            vec![(0, span_hi), (span_lo, u64::MAX)]
        };
        let want: Vec<u32> = arcs
            .into_iter()
            .flat_map(|(lo, hi)| s.entries().filter(move |e| (lo..=hi).contains(&e.ring_key)))
            .map(|e| e.obj.0)
            .collect();
        let got: Vec<u32> = hits.iter().map(|e| e.obj.0).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(stats.scanned, stats.matched, "whole-space rect rejects nothing");
        prop_assert_eq!(stats.scanned + stats.skipped, s.load());
    }

    /// Soundness of the refinement prune: for any query landmark vector
    /// (clamped into bounds or not), any *raw* object vector, and the
    /// *stored* (clamped) copy of that vector, the computed lower bound
    /// never exceeds the true L∞ gap between query and raw vectors. The
    /// contractive mapping guarantees that gap is `<= d(q, x)`, so
    /// `excludes` can only fire on objects outside the metric range —
    /// exactly the "pruning never removes an oracle hit" claim.
    #[test]
    fn lower_bound_never_exceeds_the_true_gap(
        q in prop::collection::vec(-5.0f64..15.0, DIMS),
        raw in prop::collection::vec(-5.0f64..15.0, DIMS),
        radius in 0.0f64..20.0,
    ) {
        let stored: Vec<f64> = raw.iter().map(|&x| x.clamp(LO, HI)).collect();
        let ball = QueryBall { center: q.clone().into(), radius };
        let lb = ball.lower_bound(&stored, &bounds());
        let true_gap = q
            .iter()
            .zip(raw.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(
            lb <= true_gap + 1e-12,
            "bound {lb} exceeds true gap {true_gap} (q {q:?}, raw {raw:?})"
        );
        // Direct restatement as the prune gate: an object within the
        // range (true_gap <= radius) is never excluded.
        if true_gap <= radius {
            prop_assert!(!ball.excludes(&stored, &bounds()));
        }
    }

    /// NaN anywhere — query coordinate, stored coordinate, or radius —
    /// must disable the prune rather than misfire it.
    #[test]
    fn nan_never_prunes(
        q in prop::collection::vec(-5.0f64..15.0, DIMS),
        stored in prop::collection::vec(LO..HI, DIMS),
        lane in 0usize..DIMS,
    ) {
        let mut qn = q.clone();
        qn[lane] = f64::NAN;
        let ball = QueryBall { center: qn.into(), radius: 0.0 };
        // The NaN lane contributes nothing; the other lane still bounds.
        let lb = ball.lower_bound(&stored, &bounds());
        prop_assert!(lb.is_finite());

        let mut sn = stored.clone();
        sn[lane] = f64::NAN;
        let ball = QueryBall { center: q.into(), radius: f64::NAN };
        // NaN radius: the strict `>` comparison is false, nothing is excluded.
        prop_assert!(!ball.excludes(&sn, &bounds()));
    }
}
