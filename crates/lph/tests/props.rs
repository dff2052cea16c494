//! Property-based tests of the locality-preserving hashing geometry.
//! These are the invariants §6 of DESIGN.md promises:
//!
//! * hash/cell consistency — a point's key lies in the cuboid of every
//!   prefix of the key;
//! * enclosing prefix minimality — the region fits the prefix cuboid but
//!   not either child (when a deeper division exists);
//! * split soundness — fragments stay inside the parent region, union
//!   covers it, prefixes deepen by exactly one bit;
//! * descent exactness — `Grid::descend` reaches the prefix and cut a
//!   chain of `Grid::split` calls reaches, bit for bit;
//! * hash exactness — `Grid::hash` and both ends of `Grid::key_span` are
//!   the division-by-division hash, bit for bit.

use lph::{Grid, Prefix, Rect, Rotation, SubQuery};
use proptest::prelude::*;

const DIMS: usize = 3;
const LO: f64 = 0.0;
const HI: f64 = 64.0;

fn grid() -> Grid {
    Grid::new(Rect::cube(DIMS, LO, HI), 12)
}

fn point_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(LO..HI, DIMS)
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (point_strategy(), point_strategy()).prop_map(|(a, b)| {
        let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
        let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
        Rect::new(lo, hi)
    })
}

proptest! {
    #[test]
    fn hash_is_consistent_with_cells(p in point_strategy()) {
        let g = grid();
        let key = g.hash(&p);
        for len in 0..=g.depth() {
            let prefix = Prefix::of_key(key, len);
            prop_assert!(g.cell(prefix).contains_point(&p),
                "key {key:#x} prefix {prefix} cell misses point {p:?}");
        }
    }

    #[test]
    fn nearby_points_share_prefixes(p in point_strategy()) {
        // Locality: a point and a tiny perturbation share a long prefix
        // unless they straddle a split plane — but they must always share
        // the cell they are both inside geometrically.
        let g = grid();
        let q: Vec<f64> = p.iter().map(|x| (x + 1e-9).min(HI)).collect();
        let kp = g.hash(&p);
        let kq = g.hash(&q);
        // Both keys' full cells contain their own point.
        prop_assert!(g.cell(Prefix::of_key(kp, 12)).contains_point(&p));
        prop_assert!(g.cell(Prefix::of_key(kq, 12)).contains_point(&q));
    }

    #[test]
    fn enclosing_prefix_contains_and_is_minimal(r in rect_strategy()) {
        let g = grid();
        let p = g.enclosing_prefix(&r);
        prop_assert!(g.cell(p).contains_rect(&r), "cell of {p} misses {r:?}");
        if p.len() < g.depth() {
            // Neither child alone contains the region.
            let c0 = g.cell(p.child(0));
            let c1 = g.cell(p.child(1));
            prop_assert!(!c0.contains_rect(&r) && !c1.contains_rect(&r),
                "prefix {p} is not minimal for {r:?}");
        }
    }

    #[test]
    fn split_fragments_tile_the_parent(r in rect_strategy()) {
        let g = grid();
        let q = SubQuery { rect: r.clone(), prefix: g.enclosing_prefix(&r) };
        if q.prefix.len() == g.depth() {
            return Ok(()); // nothing to split
        }
        let (a, b) = g.split(&q);
        prop_assert_eq!(a.prefix.len(), q.prefix.len() + 1);
        prop_assert!(q.prefix.contains_prefix(&a.prefix));
        prop_assert!(r.contains_rect(&a.rect));
        match b {
            None => prop_assert_eq!(&a.rect, &r),
            Some(b) => {
                prop_assert_eq!(b.prefix.len(), q.prefix.len() + 1);
                prop_assert!(q.prefix.contains_prefix(&b.prefix));
                prop_assert!(r.contains_rect(&b.rect));
                // The two fragments share exactly the split plane and
                // cover the parent: per-dim intervals concatenate.
                prop_assert!(a.rect.volume() + b.rect.volume() <= r.volume() + 1e-9);
                // Sample points of r are in at least one fragment.
                let c = r.center();
                prop_assert!(a.rect.contains_point(&c) || b.rect.contains_point(&c));
            }
        }
    }

    #[test]
    fn decompose_covers_with_disjoint_prefixes(r in rect_strategy()) {
        let g = grid();
        let parts = g.decompose(&r, 8);
        // Disjoint key ranges.
        let mut ranges: Vec<(u64, u64)> = parts.iter().map(|q| q.prefix.key_range()).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
        // Corners and center of r are covered.
        let mut probes = vec![r.center()];
        probes.push(r.lo().to_vec());
        probes.push(r.hi().to_vec());
        for p in probes {
            prop_assert!(parts.iter().any(|q| q.rect.contains_point(&p)));
        }
    }

    #[test]
    fn hash_key_within_rotated_arc(p in point_strategy(), phi in any::<u64>()) {
        // The rotated ring key of a point stays within the rotated arc of
        // every prefix of its key.
        let g = grid();
        let rot = Rotation(phi);
        let key = g.hash(&p);
        for len in [0u32, 3, 7, 12] {
            let prefix = Prefix::of_key(key, len);
            let (s, e) = rot.ring_arc(prefix);
            let ring = rot.to_ring(key);
            // In cyclic terms: ring - s <= e - s.
            prop_assert!(ring.wrapping_sub(s) <= e.wrapping_sub(s));
        }
    }

    #[test]
    fn keys_order_matches_first_divergent_dimension(a in point_strategy(), b in point_strategy()) {
        // Keys are equal iff points share the deepest cell.
        let g = grid();
        let ka = g.hash(&a);
        let kb = g.hash(&b);
        if ka == kb {
            let cell = g.cell(Prefix::of_key(ka, g.depth()));
            prop_assert!(cell.contains_point(&a) && cell.contains_point(&b));
        }
    }
}

/// The bisection loop `Grid::hash` replaced, kept as its reference: one
/// division at a time, cycling through the dimensions, over scratch
/// copies of the bounds.
fn hash_by_divisions(grid: &Grid, point: &[f64]) -> u64 {
    let k = grid.dims();
    let (bound_lo, bound_hi) = (grid.bounds().lo(), grid.bounds().hi());
    let mut lo = bound_lo.to_vec();
    let mut hi = bound_hi.to_vec();
    let mut key = 0u64;
    for i in 1..=grid.depth() {
        let j = ((i - 1) as usize) % k;
        let mid = 0.5 * (lo[j] + hi[j]);
        let x = point[j].clamp(bound_lo[j], bound_hi[j]);
        key <<= 1;
        if x > mid {
            lo[j] = mid;
            key |= 1;
        } else {
            hi[j] = mid;
        }
    }
    key << (64 - grid.depth())
}

/// A coordinate for a dimension over `[l, h]`, by selector `kind`: the
/// interior, an exact division midpoint, the boundary, outside it, NaN
/// or an infinity.
fn coordinate((kind, u, level, m): (u8, f64, u32, u64), l: f64, h: f64) -> f64 {
    match kind {
        0 | 1 => l + u * (h - l),
        // The midpoint of a division `level` deep: an odd multiple of
        // span / 2^level, exact in binary.
        2 => {
            let odd = 2 * (m % (1u64 << (level - 1))) + 1;
            l + (h - l) * (odd as f64 / (1u64 << level) as f64)
        }
        3 => l,
        4 => h,
        5 => l - 1.0 - 100.0 * u,
        6 => h + 1.0 + 100.0 * u,
        7 => f64::NAN,
        _ if u < 0.5 => f64::INFINITY,
        _ => f64::NEG_INFINITY,
    }
}

/// Dyadic bounds of `dims` dimensions: each starts at a whole number at
/// or below 0 and spans a power of two.
fn dyadic_bounds(dims: usize, bounds: &[(u32, u32)]) -> (Vec<f64>, Vec<f64>) {
    let lo: Vec<f64> = bounds[..dims].iter().map(|&(a, _)| -f64::from(a)).collect();
    let hi = bounds[..dims]
        .iter()
        .zip(&lo)
        .map(|(&(_, e), l)| l + f64::from(1u32 << e))
        .collect();
    (lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every depth from 1 to 64 — multiples of `dims` and not — over
    /// dyadic bounds, with coordinates drawn from the interior, exact
    /// division midpoints, the boundary, outside it, infinities and NaN.
    #[test]
    fn hash_matches_the_division_by_division_loop(
        dims in 1usize..=5,
        bounds in prop::collection::vec((0u32..8, 0u32..6), 5),
        coords in prop::collection::vec((0u8..9, 0.0f64..1.0, 1u32..24, any::<u64>()), 5),
    ) {
        let (lo, hi) = dyadic_bounds(dims, &bounds);
        let point: Vec<f64> = coords[..dims]
            .iter()
            .zip(lo.iter().zip(&hi))
            .map(|(&c, (&l, &h))| coordinate(c, l, h))
            .collect();
        for depth in 1..=64 {
            let g = Grid::new(Rect::new(lo.clone(), hi.clone()), depth);
            prop_assert_eq!(
                g.hash(&point),
                hash_by_divisions(&g, &point),
                "depth {} over {:?}..{:?} at {:?}",
                depth,
                lo,
                hi,
                point
            );
        }
    }

    /// `key_span` hashes both corners in one bisection, and each end is
    /// still the division-by-division hash of its corner: for the cells
    /// of the grid (corners on division midpoints and the boundary) at
    /// every prefix length, and for boxes between two coordinates drawn
    /// as above — beyond the bounds and infinite too. (No `Rect` has a
    /// NaN corner; the hash test covers NaN.)
    #[test]
    fn key_span_matches_the_division_by_division_loop(
        dims in 1usize..=5,
        bounds in prop::collection::vec((0u32..8, 0u32..6), 5),
        a in prop::collection::vec((0u8..9, 0.0f64..1.0, 1u32..24, any::<u64>()), 5),
        b in prop::collection::vec((0u8..9, 0.0f64..1.0, 1u32..24, any::<u64>()), 5),
        key in any::<u64>(),
        len in any::<u32>(),
    ) {
        let (lo, hi) = dyadic_bounds(dims, &bounds);
        let corner = |c: &[(u8, f64, u32, u64)]| -> Vec<f64> {
            (0..dims)
                .map(|d| Some(coordinate(c[d], lo[d], hi[d])).filter(|x| !x.is_nan()).unwrap_or(lo[d]))
                .collect()
        };
        let (a, b) = (corner(&a), corner(&b));
        let rect = Rect::new(
            a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect(),
            a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect(),
        );
        for depth in 1..=64 {
            let g = Grid::new(Rect::new(lo.clone(), hi.clone()), depth);
            let cell = g.cell(Prefix::of_key(key, len % (depth + 1)));
            for r in [&rect, &cell] {
                let want = (hash_by_divisions(&g, r.lo()), hash_by_divisions(&g, r.hi()));
                prop_assert_eq!(g.key_span(r), want, "depth {} region {:?}", depth, r);
            }
        }
    }
}

/// A grid of dimensionality `k` (1..=8) and depth `depth` (1..=64) over
/// the per-dimension bounds `spans` (start, width), a region inside it,
/// and a prefix of `len` bits.
///
/// Per dimension, `corners` gives the region's low corner as a fraction
/// of the span — pinned to 0, ¼, ½, ¾ or 1 when its selector is below 5,
/// so regions starting on a midpoint or the boundary turn up often — and
/// its width as a fraction scaled by 2^-(0..=63), so descents run from
/// none to the full depth. The prefix is the region's own path (the
/// leading bits of its low corner's hash) when `key` is even and the
/// leading bits of `key` otherwise, which puts the region outside the
/// prefix's cell.
fn descent_case(
    (k, depth): (usize, u32),
    spans: &[(f64, f64)],
    corners: &[(u8, f64, u8, f64)],
    (len, key): (u32, u64),
) -> (Grid, Rect, Prefix) {
    let pinned = [0.0, 0.25, 0.5, 0.75, 1.0];
    let lo: Vec<f64> = spans[..k].iter().map(|&(l, _)| l).collect();
    let hi: Vec<f64> = spans[..k].iter().map(|&(l, w)| l + w).collect();
    let at = |d: usize, f: f64| (lo[d] + f * (hi[d] - lo[d])).clamp(lo[d], hi[d]);
    let (rlo, rhi) = (0..k)
        .map(|d| {
            let (sel, x, shift, w) = corners[d];
            let start = pinned.get(sel as usize).copied().unwrap_or(x);
            let width = w * 0.5f64.powi(i32::from(shift % 64));
            (at(d, start), at(d, start + width))
        })
        .unzip();
    let grid = Grid::new(Rect::new(lo.clone(), hi.clone()), depth);
    let rect = Rect::new(rlo, rhi);
    let path = if key % 2 == 0 {
        grid.hash(rect.lo())
    } else {
        key
    };
    (grid, rect, Prefix::of_key(path, len % (depth + 1)))
}

/// The descent as a chain of `Grid::split` calls: deepen while a split
/// leaves one piece, and report the cut (dimension, midpoint) of the
/// first split that leaves two.
fn split_chain(g: &Grid, rect: &Rect, prefix: Prefix) -> (Prefix, Option<(usize, u64)>) {
    let mut q = SubQuery {
        rect: rect.clone(),
        prefix,
    };
    while q.prefix.len() < g.depth() {
        match g.split(&q) {
            (a, None) => q = a,
            (lower, Some(upper)) => {
                let j = g.split_dim(q.prefix.len() + 1);
                assert_eq!(lower.rect.hi()[j].to_bits(), upper.rect.lo()[j].to_bits());
                return (q.prefix, Some((j, upper.rect.lo()[j].to_bits())));
            }
        }
    }
    (q.prefix, None)
}

fn bits(r: &Rect) -> Vec<u64> {
    r.lo().iter().chain(r.hi()).map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn descend_matches_repeated_split(
        k in 1usize..=8,
        depth in 1u32..=64,
        spans in prop::collection::vec((-100.0..100.0, 1e-3..200.0), 8),
        corners in prop::collection::vec((0u8..10, 0.0..1.0, 0u8..64, 0.0..1.0), 8),
        len in any::<u32>(),
        key in any::<u64>(),
    ) {
        let (g, rect, prefix) = descent_case((k, depth), &spans, &corners, (len, key));
        let (reached, cut) = g.descend(&rect, prefix);
        let cut = cut.map(|(j, mid)| (j, mid.to_bits()));
        prop_assert_eq!((reached, cut), split_chain(&g, &rect, prefix));
        // From the root, the descent stops at the enclosing prefix.
        let root = g.descend(&rect, Prefix::ROOT).0;
        prop_assert_eq!(root, g.enclosing_prefix(&rect));
        // Where the prefix's cell holds the region, a split's halves are
        // the region cut by the children's cells, bit for bit.
        for len in 0..=root.len().min(g.depth() - 1) {
            let p = Prefix::of_key(root.key(), len);
            let (a, b) = g.split(&SubQuery { rect: rect.clone(), prefix: p });
            for piece in std::iter::once(a).chain(b) {
                let expect = rect.intersection(&g.cell(piece.prefix)).expect("touches its cell");
                prop_assert_eq!(bits(&piece.rect), bits(&expect), "prefix {}", piece.prefix);
            }
        }
    }
}
