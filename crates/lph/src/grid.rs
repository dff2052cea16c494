//! The recursive bisection grid: Algorithm 2 (locality-preserving hash)
//! and the geometric half of Algorithm 4 (query splitting).

use crate::prefix::{Prefix, KEY_BITS};
use crate::rect::Rect;

/// A range query (or fragment of one) in flight: the remaining search
/// region plus the prefix of the smallest cuboid known to contain it
/// along the path walked so far.
#[derive(Clone, Debug)]
pub struct SubQuery {
    /// The (remaining) search region.
    pub rect: Rect,
    /// The paper's `prefix_key`/`prefix_length` pair.
    pub prefix: Prefix,
}

/// The k-d bisection grid over a bounded k-dimensional index space.
///
/// Division `i` (1-based) halves dimension `(i-1) mod k`; a cuboid taking
/// the upper half gets `1` as bit `i` of its key (paper §3.2). `depth` is
/// the total number of divisions (the paper's `m`; 64 in its simulations
/// and by default here).
///
/// ```
/// use lph::{Grid, Rect, Prefix};
///
/// // A 2-D index space over [0, 8]² with 6 divisions (an 8×8 cell grid).
/// let grid = Grid::new(Rect::cube(2, 0.0, 8.0), 6);
/// // Hash a point (Algorithm 2): nearby points share key prefixes.
/// let a = grid.hash(&[1.0, 1.0]);
/// let b = grid.hash(&[1.2, 1.3]);
/// assert_eq!(Prefix::of_key(a, 4), Prefix::of_key(b, 4));
/// // Decode a prefix back into its cuboid.
/// let cell = grid.cell(Prefix::of_key(a, 6));
/// assert!(cell.contains_point(&[1.0, 1.0]));
/// // The smallest cuboid enclosing a query region (figure 1a).
/// let query = Rect::new(vec![0.5, 4.5], vec![1.5, 5.5]);
/// let prefix = grid.enclosing_prefix(&query);
/// assert!(grid.cell(prefix).contains_rect(&query));
/// ```
#[derive(Clone, Debug)]
pub struct Grid {
    bounds: Rect,
    depth: u32,
}

impl Grid {
    /// Build a grid over `bounds` with `depth` divisions (`1..=64`).
    pub fn new(bounds: Rect, depth: u32) -> Grid {
        assert!(
            (1..=KEY_BITS).contains(&depth),
            "depth must be in 1..=64, got {depth}"
        );
        Grid { bounds, depth }
    }

    /// Grid over the cube `[lo, hi]^dims` with the full 64 divisions.
    pub fn uniform(dims: usize, lo: f64, hi: f64) -> Grid {
        Grid::new(Rect::cube(dims, lo, hi), KEY_BITS)
    }

    /// Dimensionality `k` of the index space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.bounds.dims()
    }

    /// Number of divisions `m`.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The index-space boundary.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// The dimension split by the (1-based) `division`-th division:
    /// `(division - 1) mod k`.
    #[inline]
    pub fn split_dim(&self, division: u32) -> usize {
        ((division - 1) as usize) % self.dims()
    }

    /// Algorithm 2: the locality-preserving hash.
    ///
    /// Identifies the depth-`depth` cuboid holding `point` and returns its
    /// left-aligned 64-bit key. Points exactly on a split midpoint go to
    /// the lower half (the paper's `> mid` test); points outside the
    /// boundary are clamped onto it first (paper §3.1: out-of-boundary
    /// objects map to boundary points).
    ///
    /// One midpoint chain per dimension; see `Grid::bisect`.
    pub fn hash(&self, point: &[f64]) -> u64 {
        let [key] = self.bisect([point]);
        key
    }

    /// [`Grid::hash`] of each of `N` points, their midpoint chains run
    /// side by side.
    ///
    /// A division only narrows its own dimension's interval, so each
    /// dimension is bisected on its own — the divisions at positions
    /// `j + 1`, `j + 1 + k`, … — and its bits are dropped straight into
    /// their key positions: no scratch bounds and no division by `k`.
    /// Each chain takes the same `0.5 * (lo + hi)` steps in the same
    /// order as a lone one, so its key is the same; the `N` chains of a
    /// dimension are independent, so the processor overlaps them. The
    /// half is chosen by masking the bits of `lo`, `hi` and the
    /// midpoint, never by a branch: the comparisons are coin flips no
    /// predictor learns.
    fn bisect<const N: usize>(&self, points: [&[f64]; N]) -> [u64; N] {
        let k = self.dims();
        for p in points {
            assert_eq!(p.len(), k, "dimension mismatch");
        }
        let (bound_lo, bound_hi) = (self.bounds.lo(), self.bounds.hi());
        let mut keys = [0u64; N];
        for j in 0..k {
            let x = points.map(|p| p[j].clamp(bound_lo[j], bound_hi[j]));
            let mut lo = [bound_lo[j].to_bits(); N];
            let mut hi = [bound_hi[j].to_bits(); N];
            let mut pos = j as u32 + 1;
            while pos <= self.depth {
                for c in 0..N {
                    let mid = 0.5 * (f64::from_bits(lo[c]) + f64::from_bits(hi[c]));
                    let upper = u64::from(x[c] > mid);
                    // All ones when `x` lies above the midpoint.
                    let take = upper.wrapping_neg();
                    lo[c] = (lo[c] & !take) | (mid.to_bits() & take);
                    hi[c] = (mid.to_bits() & !take) | (hi[c] & take);
                    keys[c] |= upper << (KEY_BITS - pos);
                }
                pos += k as u32;
            }
        }
        keys
    }

    /// The cuboid of a prefix: the sub-box reached by replaying the
    /// prefix's bits through the bisection.
    pub fn cell(&self, prefix: Prefix) -> Rect {
        assert!(prefix.len() <= self.depth, "prefix deeper than the grid");
        let mut r = self.bounds.clone();
        for pos in 1..=prefix.len() {
            let j = self.split_dim(pos);
            let mid = 0.5 * (r.lo()[j] + r.hi()[j]);
            if prefix.bit(pos) == 1 {
                r.set_dim(j, mid, r.hi()[j]);
            } else {
                r.set_dim(j, r.lo()[j], mid);
            }
        }
        r
    }

    /// The interval a single dimension occupies in the cuboid of
    /// `prefix` — the inner loop of Algorithm 4 (which replays only the
    /// bits that divided dimension `dim`).
    pub fn dim_interval(&self, prefix: Prefix, dim: usize) -> (f64, f64) {
        assert!(dim < self.dims());
        let k = self.dims() as u32;
        let (mut l, mut h) = (self.bounds.lo()[dim], self.bounds.hi()[dim]);
        // Divisions touching `dim` are at positions dim+1, dim+1+k, …
        let mut pos = dim as u32 + 1;
        while pos <= prefix.len() {
            let mid = 0.5 * (l + h);
            if prefix.bit(pos) == 1 {
                l = mid;
            } else {
                h = mid;
            }
            pos += k;
        }
        (l, h)
    }

    /// The prefix of the smallest cuboid that completely holds `rect`
    /// (paper §3.3, figure 1a), descending at most `depth` divisions.
    /// `rect` must lie within the grid bounds.
    pub fn enclosing_prefix(&self, rect: &Rect) -> Prefix {
        assert!(
            self.bounds.contains_rect(rect),
            "query region must be clipped to the index-space boundary"
        );
        self.descend(rect, Prefix::ROOT).0
    }

    /// The inclusive span `[hash(rect.lo()), hash(rect.hi())]` of hash
    /// keys that points inside `rect` can map to.
    ///
    /// [`Grid::hash`] is monotone under componentwise dominance: for
    /// `p <= q` in every coordinate, consider the highest key bit where
    /// the two hashes differ. That bit belongs to some dimension `j`,
    /// and since all higher bits agree, the bits of `j`'s per-dimension
    /// cell index above it agree too — so the differing bit decides the
    /// order of the cell indices. Per-dimension cell indices are
    /// non-decreasing in the coordinate (each division is a midpoint
    /// comparison against a fixed grid), hence the bit is `0` in
    /// `hash(p)` and `1` in `hash(q)`, i.e. `hash(p) <= hash(q)`.
    ///
    /// Every point of `rect` dominates `rect.lo()` and is dominated by
    /// `rect.hi()`, so its hash lies in the returned span. The span is
    /// exact at both ends (the corners attain it) and never wider —
    /// usually far narrower — than the key range of
    /// [`Grid::enclosing_prefix`], which rounds the region up to a whole
    /// cuboid. Unlike `enclosing_prefix`, this accepts unclipped regions
    /// (`hash` clamps out-of-boundary coordinates).
    ///
    /// Both corners are hashed in one `Grid::bisect`, their chains side
    /// by side.
    pub fn key_span(&self, rect: &Rect) -> (u64, u64) {
        let [lo, hi] = self.bisect([rect.lo(), rect.hi()]);
        (lo, hi)
    }

    /// Algorithm 4's recursive refinement: deepen `prefix` while `rect`
    /// lies in one half of the next division. Returns the prefix reached
    /// and, unless that prefix is full depth, the cut of the division
    /// that straddles `rect`: the dimension it halves and its midpoint.
    ///
    /// Nothing is copied: each dimension's interval narrows in place by
    /// the midpoint arithmetic [`Grid::dim_interval`] replays, so every
    /// midpoint, and the result, is bit for bit what a chain of
    /// [`Grid::split`] calls reaches (for any `rect`, in its cell or not).
    pub fn descend(&self, rect: &Rect, mut prefix: Prefix) -> (Prefix, Option<(usize, f64)>) {
        assert!(prefix.len() <= self.depth, "prefix deeper than the grid");
        let mut intervals: Vec<(f64, f64)> = (0..self.dims())
            .map(|j| self.dim_interval(prefix, j))
            .collect();
        while prefix.len() < self.depth {
            let j = self.split_dim(prefix.len() + 1);
            let (l, h) = intervals[j];
            let mid = 0.5 * (l + h);
            let Some(bit) = half(rect, j, mid) else {
                return (prefix, Some((j, mid)));
            };
            intervals[j] = if bit == 1 { (mid, h) } else { (l, mid) };
            prefix = prefix.child(bit);
        }
        (prefix, None)
    }

    /// Division `prefix.len() + 1` as `rect` meets it: the dimension it
    /// halves, its midpoint, and the half holding `rect` — `Some(0)`
    /// lower, `Some(1)` upper — or `None` when the midpoint cuts `rect`.
    pub fn division(&self, rect: &Rect, prefix: Prefix) -> (usize, f64, Option<u8>) {
        assert!(prefix.len() < self.depth, "cannot split beyond grid depth");
        let j = self.split_dim(prefix.len() + 1);
        let (l, h) = self.dim_interval(prefix, j);
        let mid = 0.5 * (l + h);
        (j, mid, half(rect, j, mid))
    }

    /// One division of Algorithm 4: refine `q` at division
    /// `q.prefix.len() + 1`.
    ///
    /// * If the region lies entirely in one half, the prefix deepens and
    ///   the region is unchanged — returns `(child, None)`.
    /// * Otherwise the region splits at the midpoint into a lower and an
    ///   upper fragment — returns `(lower, Some(upper))`.
    ///
    /// This copies the region once per fragment; routing uses
    /// [`Grid::descend`] instead, which copies nothing until a cut.
    ///
    /// Deviation from the paper's pseudocode: the lower-half test is
    /// `hi <= mid` rather than `hi < mid`, matching [`Grid::hash`]'s rule
    /// that points exactly on a midpoint belong to the lower half.
    pub fn split(&self, q: &SubQuery) -> (SubQuery, Option<SubQuery>) {
        let (j, mid, side) = self.division(&q.rect, q.prefix);
        let piece = |bit: u8| SubQuery {
            rect: q.rect.clone(),
            prefix: q.prefix.child(bit),
        };
        if let Some(bit) = side {
            return (piece(bit), None);
        }
        let (mut lower, mut upper) = (piece(0), piece(1));
        lower.rect.set_dim(j, q.rect.lo()[j], mid);
        upper.rect.set_dim(j, mid, q.rect.hi()[j]);
        (lower, Some(upper))
    }

    /// Fully decompose a query region into the set of depth-`level`
    /// cuboid prefixes it touches — the paper's *naive approach* (§3.3),
    /// used as a routing baseline. `level` caps the decomposition depth
    /// so the subquery count stays finite.
    pub fn decompose(&self, rect: &Rect, level: u32) -> Vec<SubQuery> {
        assert!(level <= self.depth);
        let root = SubQuery {
            rect: rect.clone(),
            prefix: self.enclosing_prefix(rect),
        };
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(q) = stack.pop() {
            if q.prefix.len() >= level {
                out.push(q);
                continue;
            }
            let (a, b) = self.split(&q);
            if let Some(b) = b {
                stack.push(b);
            }
            stack.push(a);
        }
        out
    }
}

/// The half of division `(j, mid)` that holds `rect` — `1` when it lies
/// above `mid`, `0` when at or below it — or `None` when `mid` cuts it.
/// [`Grid::descend`], [`Grid::division`] and through them
/// [`Grid::split`] and [`Grid::enclosing_prefix`] all decide here.
#[inline]
fn half(rect: &Rect, j: usize, mid: f64) -> Option<u8> {
    if rect.lo()[j] > mid {
        Some(1)
    } else if rect.hi()[j] <= mid {
        Some(0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-D grid over [0,8]² with 6 divisions (8×8 cells of size 1 after
    /// 6 divisions: dims split 3 times each).
    fn grid2() -> Grid {
        Grid::new(Rect::cube(2, 0.0, 8.0), 6)
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn split_dim_alternates() {
        let g = grid2();
        assert_eq!(g.split_dim(1), 0);
        assert_eq!(g.split_dim(2), 1);
        assert_eq!(g.split_dim(3), 0);
        assert_eq!(g.split_dim(4), 1);
    }

    #[test]
    fn hash_known_cells() {
        let g = grid2();
        // Point in the all-lower corner: key 000000 (left-aligned).
        assert_eq!(g.hash(&[0.5, 0.5]), 0);
        // Point in the all-upper corner: key 111111 left-aligned.
        assert_eq!(g.hash(&[7.5, 7.5]), 0b111111u64 << 58);
        // First division on dim 0 at mid 4: x=5 -> upper, y=1 -> lower
        // second division dim1 mid 4 -> 0; third dim0 on [4,8] mid 6, 5<=6 ->0;
        // fourth dim1 on [0,4] mid 2, 1<=2 ->0; fifth dim0 on [4,6] mid 5, 5<=5 ->0;
        // sixth dim1 on [0,2] mid 1, 1<=1 -> 0. Key = 100000.
        assert_eq!(g.hash(&[5.0, 1.0]), 0b100000u64 << 58);
    }

    #[test]
    fn hash_clamps_out_of_bounds() {
        let g = grid2();
        assert_eq!(g.hash(&[100.0, 100.0]), g.hash(&[8.0, 8.0]));
        assert_eq!(g.hash(&[-5.0, -5.0]), g.hash(&[0.0, 0.0]));
    }

    #[test]
    fn midpoint_goes_to_lower_half() {
        let g = grid2();
        // x = 4 is the first midpoint on dim 0 -> bit 0.
        let key = g.hash(&[4.0, 0.0]);
        assert_eq!(key >> 63, 0);
        // Just above goes upper.
        let key = g.hash(&[4.0001, 0.0]);
        assert_eq!(key >> 63, 1);
    }

    #[test]
    fn cell_decodes_prefixes() {
        let g = grid2();
        assert_eq!(g.cell(Prefix::ROOT), Rect::cube(2, 0.0, 8.0));
        // "1": upper half of dim 0.
        assert_eq!(g.cell(pfx("1")), Rect::new(vec![4.0, 0.0], vec![8.0, 8.0]));
        // "10": upper dim0, lower dim1.
        assert_eq!(g.cell(pfx("10")), Rect::new(vec![4.0, 0.0], vec![8.0, 4.0]));
        // "011" (figure 1a with this bound set): lower dim0, upper dim1,
        // then upper half of dim0's [0,4].
        assert_eq!(
            g.cell(pfx("011")),
            Rect::new(vec![2.0, 4.0], vec![4.0, 8.0])
        );
    }

    #[test]
    fn hash_lands_inside_cell_of_every_prefix() {
        let g = grid2();
        for &p in &[[0.3, 7.2], [4.0, 4.0], [6.9, 0.1], [2.5, 3.5]] {
            let key = g.hash(&p);
            for len in 0..=6 {
                let prefix = Prefix::of_key(key, len);
                let cell = g.cell(prefix);
                assert!(
                    cell.contains_point(&p),
                    "point {p:?} outside cell {cell:?} of prefix {prefix}"
                );
            }
        }
    }

    #[test]
    fn dim_interval_matches_cell() {
        let g = grid2();
        for s in ["", "0", "01", "011", "0110", "01101", "011011"] {
            let p = pfx(s);
            let cell = g.cell(p);
            for dim in 0..2 {
                let (l, h) = g.dim_interval(p, dim);
                assert_eq!(l, cell.lo()[dim], "prefix {p} dim {dim}");
                assert_eq!(h, cell.hi()[dim], "prefix {p} dim {dim}");
            }
        }
    }

    #[test]
    fn enclosing_prefix_is_minimal() {
        let g = grid2();
        // A region inside the "011" cell [2,4]×[4,8]… must enclose at 011
        // or deeper; [2.1,3.9]×[4.1,7.9] spans dim1's next split at 6, so
        // it stops exactly at "011".
        let q = Rect::new(vec![2.1, 4.1], vec![3.9, 7.9]);
        let p = g.enclosing_prefix(&q);
        assert_eq!(format!("{p}"), "011");
        assert!(g.cell(p).contains_rect(&q));
        // A region straddling the first split cannot descend at all.
        let q = Rect::new(vec![3.0, 0.0], vec![5.0, 1.0]);
        assert_eq!(g.enclosing_prefix(&q), Prefix::ROOT);
        // A tiny region descends to full depth.
        let q = Rect::new(vec![0.1, 0.1], vec![0.2, 0.2]);
        assert_eq!(g.enclosing_prefix(&q).len(), 6);
    }

    #[test]
    fn enclosing_prefix_cell_always_contains_rect() {
        let g = grid2();
        let rects = [
            Rect::new(vec![0.0, 0.0], vec![8.0, 8.0]),
            Rect::new(vec![1.5, 2.5], vec![1.6, 2.6]),
            Rect::new(vec![3.99, 0.0], vec![4.01, 0.5]),
            Rect::new(vec![4.0, 4.0], vec![4.0, 4.0]),
        ];
        for q in &rects {
            let p = g.enclosing_prefix(q);
            assert!(g.cell(p).contains_rect(q), "prefix {p} for {q:?}");
        }
    }

    #[test]
    fn split_descends_without_cutting_when_one_sided() {
        let g = grid2();
        let q = SubQuery {
            rect: Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]),
            prefix: Prefix::ROOT,
        };
        let (a, b) = g.split(&q);
        assert!(b.is_none());
        assert_eq!(format!("{}", a.prefix), "0");
        assert_eq!(a.rect, q.rect);
    }

    #[test]
    fn split_cuts_straddling_region() {
        let g = grid2();
        let q = SubQuery {
            rect: Rect::new(vec![3.0, 1.0], vec![5.0, 2.0]),
            prefix: Prefix::ROOT,
        };
        let (lower, upper) = g.split(&q);
        let upper = upper.expect("must split");
        assert_eq!(format!("{}", lower.prefix), "0");
        assert_eq!(format!("{}", upper.prefix), "1");
        assert_eq!(lower.rect, Rect::new(vec![3.0, 1.0], vec![4.0, 2.0]));
        assert_eq!(upper.rect, Rect::new(vec![4.0, 1.0], vec![5.0, 2.0]));
    }

    #[test]
    fn split_boundary_touching_mid_goes_lower() {
        let g = grid2();
        // hi exactly at the midpoint: single lower child (matches hash).
        let q = SubQuery {
            rect: Rect::new(vec![3.0, 0.0], vec![4.0, 1.0]),
            prefix: Prefix::ROOT,
        };
        let (a, b) = g.split(&q);
        assert!(b.is_none());
        assert_eq!(format!("{}", a.prefix), "0");
    }

    #[test]
    fn paper_figure_1b_split() {
        // Figure 1(b): query Q with prefix "011" splits at the next
        // (horizontal, dim 1) division into "0110" and "0111".
        let g = grid2();
        // Cell of "011" is [2,4]×[4,8]; its dim-1 interval splits at 6.
        let q = SubQuery {
            rect: Rect::new(vec![2.5, 5.0], vec![3.5, 7.0]),
            prefix: pfx("011"),
        };
        let (lower, upper) = g.split(&q);
        let upper = upper.expect("straddles the split at 6");
        assert_eq!(format!("{}", lower.prefix), "0110");
        assert_eq!(format!("{}", upper.prefix), "0111");
        assert_eq!(lower.rect.hi()[1], 6.0);
        assert_eq!(upper.rect.lo()[1], 6.0);
    }

    #[test]
    fn decompose_tiles_the_query() {
        let g = grid2();
        let rect = Rect::new(vec![1.0, 1.0], vec![6.5, 3.0]);
        let parts = g.decompose(&rect, 6);
        // Every part sits inside its prefix cell's dim intervals where it
        // was cut, and the union of parts covers the rect: check by
        // sampling points.
        for q in &parts {
            assert!(q.prefix.len() == 6);
        }
        let mut covered = 0;
        let mut total = 0;
        for xi in 0..40 {
            for yi in 0..40 {
                let p = [
                    1.0 + 5.5 * (xi as f64 + 0.5) / 40.0,
                    1.0 + 2.0 * (yi as f64 + 0.5) / 40.0,
                ];
                total += 1;
                if parts.iter().any(|q| q.rect.contains_point(&p)) {
                    covered += 1;
                }
            }
        }
        assert_eq!(covered, total, "decomposition must tile the query");
        // And every part's key range is disjoint from the others'.
        let mut ranges: Vec<(u64, u64)> = parts.iter().map(|q| q.prefix.key_range()).collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 < w[1].0, "overlapping prefixes in decomposition");
        }
    }

    /// A zero-radius ball is a single point; it must resolve to exactly
    /// one full-depth fragment — the cell `hash` assigns the point to —
    /// including on cell midpoints and the space boundary.
    #[test]
    fn zero_extent_rect_decomposes_to_one_full_depth_cell() {
        let g = grid2();
        for p in [
            vec![3.3, 5.7],
            vec![4.0, 4.0],
            vec![0.0, 0.0],
            vec![8.0, 8.0],
        ] {
            let rect = Rect::ball(&p, 0.0, g.bounds());
            let parts = g.decompose(&rect, g.depth());
            assert_eq!(parts.len(), 1, "point {p:?} must be a single lookup");
            assert_eq!(parts[0].prefix.len(), g.depth());
            assert_eq!(parts[0].prefix, Prefix::new(g.hash(&p), g.depth()));
        }
    }

    #[test]
    fn key_span_bounds_every_contained_point() {
        let g = grid2();
        let rect = Rect::new(vec![1.3, 2.1], vec![5.9, 3.7]);
        let (lo, hi) = g.key_span(&rect);
        assert!(lo <= hi);
        for xi in 0..=20 {
            for yi in 0..=20 {
                let p = [
                    1.3 + (5.9 - 1.3) * xi as f64 / 20.0,
                    2.1 + (3.7 - 2.1) * yi as f64 / 20.0,
                ];
                let k = g.hash(&p);
                assert!((lo..=hi).contains(&k), "hash of {p:?} escapes span");
            }
        }
        // The corners attain the span ends exactly.
        assert_eq!(lo, g.hash(&[1.3, 2.1]));
        assert_eq!(hi, g.hash(&[5.9, 3.7]));
    }

    #[test]
    fn key_span_no_wider_than_enclosing_prefix_range() {
        let g = grid2();
        for rect in [
            Rect::new(vec![0.5, 0.5], vec![1.5, 1.5]),
            Rect::new(vec![3.9, 0.0], vec![4.1, 8.0]),
            Rect::new(vec![2.1, 4.1], vec![3.9, 7.9]),
            Rect::new(vec![4.0, 4.0], vec![4.0, 4.0]),
        ] {
            let (lo, hi) = g.key_span(&rect);
            let (plo, phi) = g.enclosing_prefix(&rect).key_range();
            assert!(plo <= lo && hi <= phi, "span wider than prefix range");
        }
    }

    #[test]
    fn key_span_accepts_unclipped_regions() {
        let g = grid2();
        // A ball poking outside the boundary: hash clamps, so the span
        // is just the clipped region's span.
        let (lo, hi) = g.key_span(&Rect::new(vec![-2.0, 3.0], vec![1.0, 9.0]));
        assert_eq!(lo, g.hash(&[0.0, 3.0]));
        assert_eq!(hi, g.hash(&[1.0, 8.0]));
    }

    #[test]
    fn uniform_constructor() {
        let g = Grid::uniform(10, 0.0, 1000.0);
        assert_eq!(g.dims(), 10);
        assert_eq!(g.depth(), 64);
        assert_eq!(g.bounds(), &Rect::cube(10, 0.0, 1000.0));
    }

    #[test]
    #[should_panic(expected = "clipped to the index-space boundary")]
    fn enclosing_prefix_rejects_unclipped() {
        let g = grid2();
        let _ = g.enclosing_prefix(&Rect::new(vec![-1.0, 0.0], vec![1.0, 1.0]));
    }
}
