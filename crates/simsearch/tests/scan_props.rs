//! Property tests for the query-path performance machinery: the
//! span-narrowed, bounds-pruned store scan must agree exactly with a
//! brute-force filter of the store, and the landmark lower-bound prune
//! must never exclude an object the brute-force range oracle would
//! return.

use lph::{Grid, Rect};
use metric::ObjectId;
use proptest::prelude::*;
use simsearch::store::BLOCK_CAP;
use simsearch::{Entry, QueryBall, ScanStats, Store};

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

/// The canonical blocks of the module docs of `simsearch::store`,
/// rebuilt from the stored keys alone, as index ranges into `keys`
/// (ascending): the leaves of the bucket trie over the key bits.
fn canonical_blocks(keys: &[u64]) -> Vec<std::ops::Range<usize>> {
    fn leaves(keys: &[u64], at: usize, plen: u32, out: &mut Vec<std::ops::Range<usize>>) {
        if keys.is_empty() {
            return;
        }
        if keys.len() <= BLOCK_CAP || plen == u64::BITS {
            out.push(at..at + keys.len());
            return;
        }
        let bit = 1u64 << (u64::BITS - 1 - plen);
        let mid = keys.partition_point(|&k| k & bit == 0);
        leaves(&keys[..mid], at, plen + 1, out);
        leaves(&keys[mid..], at + mid, plen + 1, out);
    }
    let mut out = Vec::new();
    leaves(keys, 0, 0, &mut out);
    out
}

/// The scan entry by entry: in each arc of the span (the low arc first
/// when it wraps), every canonical block whose bounds — its points'
/// non-NaN coordinates — meet `rect` has its in-arc entries rect-tested
/// one at a time, and each counts as scanned.
fn reference_scan(s: &Store, rect: &Rect, (lo, hi): (u64, u64)) -> (Vec<u32>, ScanStats) {
    let entries: Vec<_> = s.entries().collect();
    let keys: Vec<u64> = entries.iter().map(|e| e.ring_key).collect();
    let blocks = canonical_blocks(&keys);
    let arcs = if lo <= hi {
        vec![(lo, hi)]
    } else {
        vec![(0, hi), (lo, u64::MAX)]
    };
    let (mut hits, mut scanned) = (Vec::new(), 0);
    for (lo, hi) in arcs {
        for block in &blocks {
            let block = &entries[block.clone()];
            let meets = (0..rect.dims()).all(|d| {
                let xs = block.iter().map(|e| e.point[d]);
                let bmin = xs.clone().fold(f64::INFINITY, f64::min);
                let bmax = xs.fold(f64::NEG_INFINITY, f64::max);
                bmin <= rect.hi()[d] && rect.lo()[d] <= bmax
            });
            if !meets {
                continue;
            }
            for e in block.iter().filter(|e| (lo..=hi).contains(&e.ring_key)) {
                scanned += 1;
                if rect.contains_point(e.point) {
                    hits.push(e.obj.0);
                }
            }
        }
    }
    let stats = ScanStats {
        scanned,
        matched: hits.len(),
        skipped: s.load() - scanned,
    };
    (hits, stats)
}

/// A stored point: mostly in bounds or on the lattice, sometimes with
/// a NaN coordinate.
fn any_point() -> impl Strategy<Value = (f64, f64)> {
    (0u8..10, in_bounds(), on_lattice()).prop_map(|(kind, p, lattice)| match kind {
        0..=5 => p,
        6 | 7 => lattice,
        8 => (f64::NAN, p.1),
        _ => (p.0, f64::NAN),
    })
}

/// Width of a cell of [`grid`] per dimension: 12 divisions of two
/// dimensions halve each six times.
const CELL: f64 = (HI - LO) / 64.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `scan_into` returns, in order, the hits of the entry-by-entry
    /// reference scan and counts the same work: whole blocks inside the
    /// rect are taken untested and still count as scanned, blocks with a
    /// NaN point are tested entry by entry, and a run of up to 200
    /// entries under one full-depth key — one block, tested 64 entries
    /// to a mask — is cut by a rect corner inside it. Spans are the
    /// rect's key span or any pair of keys, wrapped ones included. Hits
    /// are appended behind what the buffer held.
    #[test]
    fn scan_into_matches_the_entry_by_entry_reference(
        points in prop::collection::vec(any_point(), 0..300),
        run_cell in (0u32..64, 0u32..64),
        run in prop::collection::vec((0.0f64..0.6, 0.0f64..0.6), 0..200),
        inserted in 0usize..500,
        corner in (0u8..2, in_bounds()).prop_map(|(pick, p)| (pick == 0).then_some(p)),
        cut in (0.0f64..0.6, 0.0f64..0.6),
        far in in_bounds(),
        span in (0u8..2, any::<u64>(), any::<u64>())
            .prop_map(|(pick, lo, hi)| (pick == 0).then_some((lo, hi))),
    ) {
        // The run: points strictly inside one depth-12 cell, so they
        // share its key.
        let at = |cell: u32, f: f64| LO + (f64::from(cell) + 0.2 + f) * CELL;
        let mut all = points;
        all.extend(run.iter().map(|&(fx, fy)| (at(run_cell.0, fx), at(run_cell.1, fy))));
        let s = store_of(&all, inserted);
        // One rect corner is anywhere, or inside the run; the other anywhere.
        let (ax, ay) = corner.unwrap_or((at(run_cell.0, cut.0), at(run_cell.1, cut.1)));
        let (bx, by) = far;
        let rect = Rect::new(vec![ax.min(bx), ay.min(by)], vec![ax.max(bx), ay.max(by)]);
        let span = span.unwrap_or_else(|| grid().key_span(&rect));

        let (want, want_stats) = reference_scan(&s, &rect, span);
        let sentinel = s.entries().next();
        let mut hits: Vec<_> = sentinel.into_iter().collect();
        let stats = s.scan_into(&rect, span, &mut hits);
        let ids: Vec<u32> = hits.iter().skip(sentinel.iter().len()).map(|e| e.obj.0).collect();
        prop_assert_eq!(ids, want);
        prop_assert_eq!(stats, want_stats);
    }

    /// `QueryBall::reach` bounds the pivot lower bound of every point of
    /// the rect, whatever the center (inside the bounds, outside them or
    /// NaN), the rect (clipped or not) or the bounds (degenerate ones,
    /// `lo == hi`, too). Each coordinate of the probe is the rect's low
    /// or high face, a bound or the center clamped into the rect, or a
    /// point between the faces.
    #[test]
    fn reach_bounds_the_lower_bound_of_every_point_in_the_rect(
        bound_lo in prop::collection::vec(-5.0f64..5.0, DIMS),
        width in prop::collection::vec(
            (0u8..4, 0.0f64..10.0).prop_map(|(pick, w)| if pick == 0 { 0.0 } else { w }),
            DIMS,
        ),
        center in prop::collection::vec(
            (0u8..5, -20.0f64..20.0).prop_map(|(pick, x)| if pick == 0 { f64::NAN } else { x }),
            DIMS,
        ),
        a in prop::collection::vec(-20.0f64..20.0, DIMS),
        b in prop::collection::vec(-20.0f64..20.0, DIMS),
        probes in prop::collection::vec((prop::collection::vec(0u8..6, DIMS), prop::collection::vec(0.0f64..1.0, DIMS)), 16),
    ) {
        let bounds = Rect::new(
            bound_lo.clone(),
            bound_lo.iter().zip(&width).map(|(l, w)| l + w).collect(),
        );
        let rect = Rect::new(
            a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect(),
            a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect(),
        );
        let ball = QueryBall { center: center.clone().into(), radius: 1.0 };
        let reach = ball.reach(&rect, &bounds);
        for (picks, ts) in probes {
            let p: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let (l, h) = (rect.lo()[d], rect.hi()[d]);
                    match picks[d] {
                        0 => l,
                        1 => h,
                        2 => bounds.lo()[d].clamp(l, h),
                        3 => bounds.hi()[d].clamp(l, h),
                        4 if !center[d].is_nan() => center[d].clamp(l, h),
                        _ => (l + ts[d] * (h - l)).clamp(l, h),
                    }
                })
                .collect();
            let lb = ball.lower_bound(&p, &bounds);
            prop_assert!(lb <= reach, "bound {lb} at {p:?} above reach {reach}");
        }
    }
}

proptest! {
    /// `QueryBall::narrow_safe` admits only points whose pivot lower
    /// bound is within the limit, and on a rect built around the center
    /// (whose faces `q ± r` round past `r` about half the time) it still
    /// admits the center. Centers lie inside or outside the bounds or
    /// are NaN, bounds may be degenerate, limits may be negative, and
    /// the probes sit on the faces, one or two floats inside them, on
    /// the bounds, or between the faces.
    #[test]
    fn narrow_safe_admits_only_points_within_the_limit(
        bound_lo in prop::collection::vec(-5.0f64..5.0, DIMS),
        width in prop::collection::vec(
            (0u8..4, 0.0f64..10.0).prop_map(|(pick, w)| if pick == 0 { 0.0 } else { w }),
            DIMS,
        ),
        center in prop::collection::vec(
            (0u8..5, -20.0f64..20.0).prop_map(|(pick, x)| if pick == 0 { f64::NAN } else { x }),
            DIMS,
        ),
        shape in 0u8..2,
        a in prop::collection::vec(-20.0f64..20.0, DIMS),
        b in prop::collection::vec(-20.0f64..20.0, DIMS),
        radius in 0.0f64..8.0,
        negative in 0u8..8,
        probes in prop::collection::vec((prop::collection::vec(0u8..8, DIMS), prop::collection::vec(0.0f64..1.0, DIMS)), 16),
    ) {
        let bounds = Rect::new(
            bound_lo.clone(),
            bound_lo.iter().zip(&width).map(|(l, w)| l + w).collect(),
        );
        let limit = if negative == 0 { -radius - 1.0 } else { radius };
        let ball = QueryBall { center: center.clone().into(), radius: limit };
        let rect = if shape == 0 && limit >= 0.0 {
            Rect::ball(&center, limit, &bounds)
        } else {
            Rect::new(
                a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect(),
                a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect(),
            )
        };
        let mut safe = vec![(f64::NEG_INFINITY, f64::INFINITY); DIMS];
        ball.narrow_safe(&rect, &bounds, limit, &mut safe);
        let admitted = |p: &[f64]| p.iter().zip(&safe).all(|(&x, &(lo, hi))| lo <= x && x <= hi);
        for (picks, ts) in probes {
            let p: Vec<f64> = (0..DIMS)
                .map(|d| {
                    let (l, h) = (rect.lo()[d], rect.hi()[d]);
                    let x = match picks[d] {
                        0 => l,
                        1 => h,
                        2 => l.next_up(),
                        3 => h.next_down(),
                        4 => l.next_up().next_up(),
                        5 => bounds.lo()[d],
                        6 => bounds.hi()[d],
                        _ => l + ts[d] * (h - l),
                    };
                    x.clamp(l, h)
                })
                .collect();
            if admitted(&p) {
                let lb = ball.lower_bound(&p, &bounds);
                prop_assert!(lb <= limit, "bound {lb} at {p:?} above {limit}, safe {safe:?}");
            }
        }
        if shape == 0 && limit >= 0.0 && center.iter().all(|c| !c.is_nan()) {
            let c: Vec<f64> = (0..DIMS).map(|d| center[d].clamp(rect.lo()[d], rect.hi()[d])).collect();
            prop_assert!(admitted(&c), "center {c:?} shut out of {safe:?} for {rect:?}");
        }
    }

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
