//! Per-node index-entry storage.
//!
//! An index node stores, for every entry it owns, the ring key, the
//! object id and the entry's index-space point. Its one hot operation is
//! the local half of a range query (§3.1, §3.3): of the entries whose
//! ring key lies in the query's key span, return those whose point lies
//! in the query rectangle.
//!
//! # Layout
//!
//! The primaries are one ordered sequence of bounded *blocks*. A block
//! holds the entries under one key prefix as three flat arrays (keys,
//! object ids, and one strided `Vec<f64>` of points, `dims` values per
//! entry) plus the per-dimension `[lo, hi]` of the points in it. There
//! is no per-entry allocation; [`Entry`] is the transfer type entries
//! arrive and leave as, and [`EntryRef`] the borrowed view scans and
//! iteration hand out.
//!
//! Which prefixes are blocks is decided by the stored keys alone: a
//! prefix is a block when at most [`BLOCK_CAP`] entries lie under it
//! (or it is a whole 64-bit key) while more than that lie under its
//! parent — the leaves of a bucket trie over the key bits (under the
//! identity rotation: the cuboids of the paper's bisection grid that
//! hold one block's worth of entries). Empty leaves are not kept. A
//! block that outgrows the capacity is divided by its next key bit,
//! never "in half": a median split would make the partition, and with
//! it what a scan tests, depend on the order entries arrived in, and
//! two publishers racing toward one node must not change that node's
//! work counters (the sim↔socket parity digest and the repo benchmark's
//! trace both compare them across runs).
//!
//! # Invariants (checked by [`Store::assert_invariants`])
//!
//! * Blocks are non-empty, ascend by prefix and do not overlap; every
//!   key lies under its block's prefix.
//! * The partition is the canonical one above, whatever sequence of
//!   `insert` / `extend` / `split_off` / `take_all` produced the stored
//!   set. So a block is at most [`BLOCK_CAP`] long unless all its
//!   entries share one key (such a run cannot be divided).
//! * Keys ascend within a block and from block to block; a run of equal
//!   keys is in arrival order.
//! * A block's bounds are exactly the minimum and maximum of its points'
//!   non-NaN coordinates. (NaN coordinates are left out: a point with
//!   one is in no rectangle, so no scan can want it.) `insert` widens
//!   them, dividing a block recomputes them, and entries only leave
//!   wholesale, so they never go slack. A block's `nan` flag says
//!   exactly whether one of its points has a NaN coordinate: only then
//!   do bounds that lie inside a rect not prove every point does.
//!
//! # Why bounds and not the rect's prefix decomposition
//!
//! A box in a bisection-ordered key space is a union of many short key
//! runs, and most entries between the box's smallest and largest key
//! lie outside it (on the `wide` benchmark workload 97.6 % of them).
//! Walking the box's prefix decomposition would visit only those runs,
//! but needs the grid, which [`Store::scan_range`] is not given — the
//! store knows keys and points, not how one maps to the other. Bounds
//! get most of the way with what the store has: a block's entries are
//! key-adjacent, hence (the hash preserves locality) space-adjacent, so
//! its bounding box is small, and a block whose box misses the query is
//! skipped with `2·dims` comparisons instead of `len·dims`.

use lph::{Grid, Rect, Rotation};
use metric::ObjectId;

/// Most entries a block holds before it is divided. Measured on the
/// `wide` corpus (5-d, depth-12 grid, ≈ 7 500 entries per store and ≈ 15
/// per key, side-0.5 rects): capacities 24–64 scan within run-to-run
/// noise of each other (≈ 10 %); 16 is ≈ 20 % slower and doubles the
/// insert cost, because most keys' runs then outgrow a block. Small
/// blocks pay for more bound tests, large ones for looser bounds.
pub const BLOCK_CAP: usize = 32;

/// One index entry, owned: the form entries are published, migrated and
/// replicated in.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Ring position (rotated locality-preserving hash of `point`).
    pub ring_key: u64,
    /// The indexed object.
    pub obj: ObjectId,
    /// The object's index-space point (landmark distances).
    pub point: Box<[f64]>,
}

impl Entry {
    /// The entry `point` publishes as object `obj` in the index of `grid`
    /// and `rot`: the point clamped to the grid's bounds (objects beyond
    /// the boundary map to boundary points, paper §3.1), hashed and
    /// rotated to its ring key (§3.2). The entry stores the clamped
    /// point, so rect matching and key placement agree.
    pub fn new(grid: &Grid, rot: Rotation, obj: ObjectId, point: &[f64]) -> Entry {
        let bounds = grid.bounds();
        let point: Box<[f64]> = point
            .iter()
            .enumerate()
            .map(|(d, &v)| v.clamp(bounds.lo()[d], bounds.hi()[d]))
            .collect();
        Entry {
            ring_key: rot.to_ring(grid.hash(&point)),
            obj,
            point,
        }
    }
}

/// A stored entry, borrowed from the store's flat arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntryRef<'a> {
    /// Ring position (rotated locality-preserving hash of `point`).
    pub ring_key: u64,
    /// The indexed object.
    pub obj: ObjectId,
    /// The object's index-space point (landmark distances).
    pub point: &'a [f64],
}

impl EntryRef<'_> {
    /// An owned copy.
    pub fn to_entry(&self) -> Entry {
        Entry {
            ring_key: self.ring_key,
            obj: self.obj,
            point: self.point.into(),
        }
    }
}

/// The entries under one key prefix, and their bounding box.
#[derive(Clone, Debug)]
struct Block {
    /// The key prefix the block stands for: its bits, left-aligned and
    /// zero-padded — the smallest key under it...
    start: u64,
    /// ...and how many of them count (0: every key; 64: one key).
    plen: u32,
    keys: Vec<u64>,
    objs: Vec<ObjectId>,
    /// `dims` coordinates per entry, entry after entry.
    points: Vec<f64>,
    /// Per-dimension minimum over `points`, NaN coordinates left out.
    lo: Box<[f64]>,
    /// Per-dimension maximum over `points`, NaN coordinates left out.
    hi: Box<[f64]>,
    /// Whether some point has a NaN coordinate — one the bounds leave
    /// out, so they alone cannot vouch that every point is in a rect.
    nan: bool,
}

/// The low `64 - plen` bits: what a key under a prefix of `plen` bits is
/// free to be.
fn below(plen: u32) -> u64 {
    u64::MAX.checked_shr(plen).unwrap_or(0)
}

impl Block {
    /// An empty block for the first `plen` bits of `key`.
    fn new(dims: usize, key: u64, plen: u32) -> Block {
        assert!(dims > 0, "index points need at least one dimension");
        let (lo, hi) = empty_bounds(dims);
        Block {
            start: key & !below(plen),
            plen,
            keys: Vec::new(),
            objs: Vec::new(),
            points: Vec::new(),
            lo,
            hi,
            nan: false,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The largest key under the block's prefix.
    fn end(&self) -> u64 {
        self.start | below(self.plen)
    }

    fn dims(&self) -> usize {
        self.lo.len()
    }

    fn entry(&self, i: usize) -> EntryRef<'_> {
        let d = self.dims();
        EntryRef {
            ring_key: self.keys[i],
            obj: self.objs[i],
            point: &self.points[i * d..(i + 1) * d],
        }
    }

    /// Put `e` behind the entries whose key is not greater and widen the
    /// bounds over its point.
    fn insert(&mut self, e: &Entry) {
        let d = self.dims();
        assert_eq!(
            e.point.len(),
            d,
            "entry point has {} dimensions, the store holds {d}-dimensional points",
            e.point.len()
        );
        let at = self.keys.partition_point(|&k| k <= e.ring_key);
        self.keys.insert(at, e.ring_key);
        self.objs.insert(at, e.obj);
        self.points.splice(at * d..at * d, e.point.iter().copied());
        self.nan |= widen(&mut self.lo, &mut self.hi, &e.point);
    }

    /// Append the leaves of the canonical partition of this block's
    /// entries to `out`: the block itself if it fits (or cannot be
    /// divided), else its two halves by the next key bit, settled the
    /// same way. Leaves get exact bounds; empty ones are left out.
    fn settle(mut self, out: &mut Vec<Block>) {
        if self.len() <= BLOCK_CAP || self.plen == u64::BITS {
            if self.len() > 0 {
                (self.lo, self.hi, self.nan) = self.exact_bounds();
                out.push(self);
            }
            return;
        }
        let d = self.dims();
        let bit = 1 << (u64::BITS - 1 - self.plen);
        let mid = self.keys.partition_point(|&k| k & bit == 0);
        self.plen += 1;
        let mut upper = Block::new(d, self.start | bit, self.plen);
        upper.keys.extend(self.keys.drain(mid..));
        upper.objs.extend(self.objs.drain(mid..));
        upper.points.extend(self.points.drain(mid * d..));
        self.settle(out);
        upper.settle(out);
    }

    /// The bounding box of the block's points and its `nan` flag, from
    /// scratch.
    fn exact_bounds(&self) -> (Box<[f64]>, Box<[f64]>, bool) {
        let (mut lo, mut hi) = empty_bounds(self.dims());
        let mut nan = false;
        for p in self.points.chunks_exact(self.dims()) {
            nan |= widen(&mut lo, &mut hi, p);
        }
        (lo, hi, nan)
    }

    /// False when no point of the block can lie in `rect`.
    fn may_intersect(&self, rect: &Rect) -> bool {
        let (rlo, rhi) = (rect.lo(), rect.hi());
        (0..self.dims()).all(|d| self.lo[d] <= rhi[d] && rlo[d] <= self.hi[d])
    }

    /// True when every point of the block lies in `rect`: its bounds do,
    /// and no point has a NaN coordinate they leave out.
    fn within(&self, rect: &Rect) -> bool {
        let (rlo, rhi) = (rect.lo(), rect.hi());
        !self.nan && (0..self.dims()).all(|d| rlo[d] <= self.lo[d] && self.hi[d] <= rhi[d])
    }
}

/// The box that holds no point: every `widen` grows it.
fn empty_bounds(dims: usize) -> (Box<[f64]>, Box<[f64]>) {
    (
        vec![f64::INFINITY; dims].into(),
        vec![f64::NEG_INFINITY; dims].into(),
    )
}

/// Grow the box `[lo, hi]` to take in `point`, and say whether the point
/// has a NaN coordinate. NaN coordinates leave the box as it is
/// (`f64::min`/`max` return the other operand).
fn widen(lo: &mut [f64], hi: &mut [f64], point: &[f64]) -> bool {
    for ((lo, hi), &x) in lo.iter_mut().zip(hi).zip(point) {
        *lo = lo.min(x);
        *hi = hi.max(x);
    }
    point.iter().any(|x| x.is_nan())
}

/// A node's entries for one index scheme, ordered by ring key.
///
/// Alongside the *primary* entries the node owns, the store can hold
/// *replica* copies pushed by ring predecessors (resilient mode). Replicas
/// are tagged with the publishing owner's ring id, never count toward the
/// node's load, and are only answered on behalf of owners suspected dead.
#[derive(Clone, Debug, Default)]
pub struct Store {
    /// The primaries; see the module docs for layout and invariants.
    blocks: Vec<Block>,
    /// Number of primaries (sum of block lengths).
    len: usize,
    /// `(owner ring id, entry)` replica copies in entry ring-key order.
    replicas: Vec<(u64, Entry)>,
}

impl Store {
    /// Empty store. The dimensionality of its points is that of the
    /// first entry stored.
    pub fn new() -> Store {
        Store::default()
    }

    /// Number of stored entries — the paper's *load* measure.
    pub fn load(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one entry, keeping ring-key order (stable for equal keys):
    /// it goes behind the stored entries whose key is not greater, into
    /// the block whose prefix its key has; a block that outgrows
    /// [`BLOCK_CAP`] is divided by its next key bit.
    pub fn insert(&mut self, e: Entry) {
        let key = e.ring_key;
        let after = self.blocks.partition_point(|b| b.start <= key);
        let covering = after
            .checked_sub(1)
            .filter(|&i| key <= self.blocks[i].end());
        let bi = covering.unwrap_or_else(|| {
            // No stored block has the key's prefix: open the (so far
            // empty) leaf of the canonical partition that does. Its
            // parent is the longest prefix the key shares with a stored
            // block, and a neighbour in key order shares the most.
            let neighbours = after.saturating_sub(1)..(after + 1).min(self.blocks.len());
            let shared = self.blocks[neighbours]
                .iter()
                .map(|b| (b.start ^ key).leading_zeros())
                .max();
            let dims = self.blocks.first().map_or(e.point.len(), Block::dims);
            let leaf = Block::new(dims, key, shared.map_or(0, |bits| bits + 1));
            self.blocks.insert(after, leaf);
            after
        });
        self.blocks[bi].insert(&e);
        self.len += 1;
        if self.blocks[bi].len() > BLOCK_CAP {
            let mut leaves = Vec::new();
            self.blocks.remove(bi).settle(&mut leaves);
            self.blocks.splice(bi..bi, leaves);
        }
    }

    /// Bulk-load entries: one stable sort by ring key over the stored
    /// and the new entries (stored ones first among equal keys), then
    /// the canonical partition of the lot.
    pub fn extend(&mut self, new: impl IntoIterator<Item = Entry>) {
        let mut all = self.take_all();
        all.extend(new);
        all.sort_by_key(|e| e.ring_key);
        let Some(first) = all.first() else {
            return;
        };
        let mut root = Block::new(first.point.len(), 0, 0);
        for e in &all {
            root.insert(e);
        }
        self.len = all.len();
        root.settle(&mut self.blocks);
    }

    /// All entries in ring-key order.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> {
        self.blocks
            .iter()
            .flat_map(|b| (0..b.len()).map(move |i| b.entry(i)))
    }

    /// Drain every entry out (ownership transfer on leave).
    pub fn take_all(&mut self) -> Vec<Entry> {
        let all = self.entries().map(|e| e.to_entry()).collect();
        self.blocks.clear();
        self.len = 0;
        all
    }

    /// Remove and return entries whose ring key is `<= split` when
    /// `lower` is true, else those `> split` — the hand-off of a key
    /// sub-range during load migration. (Ranges here are within one
    /// node's arc, which never wraps internally, so plain comparisons
    /// apply after the caller normalizes.)
    pub fn split_off(&mut self, split: u64, lower: bool) -> Vec<Entry> {
        let mut low = self.take_all();
        let high = low.split_off(low.partition_point(|e| e.ring_key <= split));
        let (gone, kept) = if lower { (low, high) } else { (high, low) };
        self.extend(kept);
        gone
    }

    /// The node's local answer to a region query: the entries whose
    /// ring key lies in the inclusive span `span` and whose index point
    /// lies in `rect`, in ascending ring-key order (arrival order among
    /// equal keys).
    ///
    /// The span is in *ring* key space (already rotated) and may wrap
    /// (`lo > hi`), in which case it denotes `[0, hi] ∪ [lo, u64::MAX]`,
    /// low arc first. The caller derives it from the query region (see
    /// `lph::Grid::key_span`): every entry whose point lies in `rect`
    /// hashes into the span, so with that span the result is the
    /// brute-force filter of the whole store by `rect`.
    ///
    /// The blocks are binary-searched to the span, and inside it every
    /// block whose bounds miss `rect` is passed over whole. A block that
    /// lies within `rect` is taken whole; the entries of the remaining
    /// blocks are rect-tested. Both kinds count as scanned.
    pub fn scan_range<'a>(
        &'a self,
        rect: &Rect,
        span: (u64, u64),
    ) -> (Vec<EntryRef<'a>>, ScanStats) {
        let mut hits = Vec::new();
        let stats = self.scan_into(rect, span, &mut hits);
        (hits, stats)
    }

    /// [`Store::scan_range`], appending its hits to `hits`: a node
    /// answering several fragments scans them all into one buffer.
    pub fn scan_into<'a>(
        &'a self,
        rect: &Rect,
        (lo, hi): (u64, u64),
        hits: &mut Vec<EntryRef<'a>>,
    ) -> ScanStats {
        let before = hits.len();
        let mut scanned = 0;
        if lo <= hi {
            self.scan_arc(rect, lo, hi, hits, &mut scanned);
        } else {
            self.scan_arc(rect, 0, hi, hits, &mut scanned);
            self.scan_arc(rect, lo, u64::MAX, hits, &mut scanned);
        }
        ScanStats {
            scanned,
            matched: hits.len() - before,
            skipped: self.len - scanned,
        }
    }

    /// [`Store::scan_range`] over the non-wrapping key interval
    /// `[lo, hi]`.
    fn scan_arc<'a>(
        &'a self,
        rect: &Rect,
        lo: u64,
        hi: u64,
        hits: &mut Vec<EntryRef<'a>>,
        scanned: &mut usize,
    ) {
        let Some(d) = self.blocks.first().map(Block::dims) else {
            return;
        };
        assert_eq!(
            rect.dims(),
            d,
            "query rect and stored points differ in dimensions"
        );
        let (rlo, rhi) = (rect.lo(), rect.hi());
        let first = self.blocks.partition_point(|b| b.end() < lo);
        let in_span = self.blocks[first..].partition_point(|b| b.start <= hi);
        for b in &self.blocks[first..first + in_span] {
            if !b.may_intersect(rect) {
                continue;
            }
            // Only a block reaching past an end of the span can hold
            // keys outside it.
            let from = if b.start < lo {
                b.keys.partition_point(|&k| k < lo)
            } else {
                0
            };
            let to = if b.end() > hi {
                b.keys.partition_point(|&k| k <= hi)
            } else {
                b.len()
            };
            *scanned += to - from;
            if b.within(rect) {
                hits.extend((from..to).map(|i| b.entry(i)));
                continue;
            }
            // Test up to 64 entries into a mask, then push its set bits:
            // lowest first, which is entry order.
            for at in (from..to).step_by(64) {
                let end = to.min(at + 64);
                let mut inside = 0u64;
                for (bit, p) in b.points[at * d..end * d].chunks_exact(d).enumerate() {
                    let hit = p
                        .iter()
                        .zip(rlo.iter().zip(rhi))
                        .fold(true, |acc, (&x, (&l, &h))| acc & (l <= x) & (x <= h));
                    inside |= u64::from(hit) << bit;
                }
                while inside != 0 {
                    hits.push(b.entry(at + inside.trailing_zeros() as usize));
                    inside &= inside - 1;
                }
            }
        }
    }

    /// Panic unless the invariants in the module docs hold. For tests
    /// and debugging; production code never needs to call it.
    pub fn assert_invariants(&self) {
        let mut total = 0;
        let mut prev_end = None;
        for (bi, b) in self.blocks.iter().enumerate() {
            let d = b.dims();
            assert_eq!(d, self.blocks[0].dims(), "block {bi}: dims differ");
            assert_eq!(b.start & below(b.plen), 0, "block {bi}: prefix padding");
            assert!(
                prev_end < Some(b.start),
                "block {bi}: overlaps its predecessor"
            );
            prev_end = Some(b.end());
            assert!(b.len() > 0, "block {bi}: empty");
            assert!(
                b.len() <= BLOCK_CAP || b.plen == u64::BITS,
                "block {bi}: {} entries under a {}-bit prefix",
                b.len(),
                b.plen
            );
            // Canonical: the parent prefix holds too many for one block.
            if b.plen > 0 {
                let parent = Block::new(d, b.start, b.plen - 1);
                let under_parent: usize = self
                    .blocks
                    .iter()
                    .filter(|o| parent.start <= o.start && o.start <= parent.end())
                    .map(Block::len)
                    .sum();
                assert!(under_parent > BLOCK_CAP, "block {bi}: divided too early");
            }
            assert_eq!(b.objs.len(), b.len(), "block {bi}: objs length");
            assert_eq!(b.points.len(), b.len() * d, "block {bi}: points length");
            assert!(b.keys.is_sorted(), "block {bi}: keys out of order");
            assert!(
                b.start <= b.keys[0] && b.keys[b.len() - 1] <= b.end(),
                "block {bi}: key outside the prefix"
            );
            assert_eq!(
                b.exact_bounds(),
                (b.lo.clone(), b.hi.clone(), b.nan),
                "block {bi}: bounds"
            );
            total += b.len();
        }
        assert_eq!(total, self.len, "cached length");
    }

    /// Store (or refresh) one replica copy on behalf of `owner`.
    /// Idempotent per `(owner, object)`: a retransmitted or re-published
    /// copy replaces the previous one instead of duplicating it. Replicas
    /// are kept in entry ring-key order (the same order as the
    /// primaries) so replica-answer scans can binary-search the span.
    pub fn put_replica(&mut self, owner: u64, e: Entry) {
        if let Some(i) = self
            .replicas
            .iter()
            .position(|(o, x)| *o == owner && x.obj == e.obj)
        {
            self.replicas.remove(i);
        }
        let pos = self
            .replicas
            .partition_point(|(_, x)| x.ring_key <= e.ring_key);
        self.replicas.insert(pos, (owner, e));
    }

    /// All held replicas as `(owner ring id, entry)` pairs.
    pub fn replicas(&self) -> &[(u64, Entry)] {
        &self.replicas
    }

    /// Number of replica copies held (not part of [`Store::load`]).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Drop every replica (before re-replication recomputes placement).
    pub fn clear_replicas(&mut self) {
        self.replicas.clear();
    }

    /// Replica copies whose entry ring key falls in `span` (same wrap
    /// convention as [`Store::scan_range`]), in ascending ring-key order,
    /// plus the number of replicas the binary search let us skip.
    pub fn replicas_in_span(
        &self,
        (lo, hi): (u64, u64),
    ) -> (impl Iterator<Item = &(u64, Entry)>, usize) {
        let reps = &self.replicas;
        let start = |k: u64| reps.partition_point(|(_, x)| x.ring_key < k);
        let end = |k: u64| reps.partition_point(|(_, x)| x.ring_key <= k);
        let (a, b) = if lo <= hi {
            (start(lo)..end(hi), 0..0)
        } else {
            // Wrapped span: the low arc first keeps ascending key order.
            (0..end(hi), start(lo)..reps.len())
        };
        let skipped = reps.len() - a.len() - b.len();
        (reps[a].iter().chain(reps[b].iter()), skipped)
    }
}

/// Work accounting for one local scan of a node's store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Entries inside the query's ring-key span whose block's bounds do
    /// not rule the query rectangle out: each is rect-tested, or taken
    /// untested when its block's bounds lie inside the rectangle.
    pub scanned: usize,
    /// Entries whose index point fell inside the query region.
    pub matched: usize,
    /// Entries passed over without a rect test — outside the key span,
    /// or in a block whose bounds miss the rectangle (`scanned +
    /// skipped` = store size).
    pub skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(key: u64, obj: u32, x: f64) -> Entry {
        Entry {
            ring_key: key,
            obj: ObjectId(obj),
            point: vec![x].into_boxed_slice(),
        }
    }

    fn keys(s: &Store) -> Vec<u64> {
        s.entries().map(|x| x.ring_key).collect()
    }

    fn objs(hits: &[EntryRef<'_>]) -> Vec<u32> {
        hits.iter().map(|x| x.obj.0).collect()
    }

    #[test]
    fn insert_keeps_order() {
        let mut s = Store::new();
        s.insert(e(30, 0, 0.0));
        s.insert(e(10, 1, 0.0));
        s.insert(e(20, 2, 0.0));
        assert_eq!(keys(&s), vec![10, 20, 30]);
        assert_eq!(s.load(), 3);
        s.assert_invariants();
    }

    #[test]
    fn equal_keys_stay_in_arrival_order_and_in_one_block() {
        // Five keys, more entries each than a block's capacity: a run of
        // equal keys cannot be divided, so it is one long block.
        let mut s = Store::new();
        let n = 5 * (BLOCK_CAP as u32 + 8);
        for i in 0..n {
            s.insert(e((i % 5) as u64, i, i as f64));
            s.assert_invariants();
        }
        assert_eq!(s.blocks.len(), 5);
        let mut want: Vec<(u64, u32)> = (0..n).map(|i| ((i % 5) as u64, i)).collect();
        want.sort_by_key(|&(k, _)| k); // stable: arrival order inside a key
        let got: Vec<(u64, u32)> = s.entries().map(|x| (x.ring_key, x.obj.0)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn the_partition_does_not_depend_on_arrival_order() {
        // Six tight clusters of 50 keys, stored cluster by cluster,
        // backwards, interleaved and in bulk: the same blocks every
        // time. (Cluster by cluster, each new cluster starts under a
        // prefix no block stands for yet.)
        let key = |i: u64| (i / 50).wrapping_mul(0x2F31_0000_0000_0000) + i % 50;
        let shape = |s: &Store| -> Vec<(u64, u32, usize)> {
            s.assert_invariants();
            s.blocks
                .iter()
                .map(|b| (b.start, b.plen, b.len()))
                .collect()
        };
        let orders: [Vec<u64>; 3] = [
            (0..300).collect(),
            (0..300).rev().collect(),
            (0..300).map(|i| (i * 7) % 300).collect(),
        ];
        let mut bulk = Store::new();
        bulk.extend((0..300).map(|i| e(key(i), i as u32, i as f64)));
        assert!(bulk.blocks.len() >= 2 * 6);
        for order in orders {
            let mut s = Store::new();
            for i in order {
                s.insert(e(key(i), i as u32, i as f64));
                s.assert_invariants();
            }
            assert_eq!(shape(&s), shape(&bulk));
        }
    }

    #[test]
    fn extend_bulk_loads() {
        let mut s = Store::new();
        s.extend([e(5, 0, 0.0), e(1, 1, 0.0), e(3, 2, 0.0)]);
        assert_eq!(keys(&s), vec![1, 3, 5]);
        // Stored entries stay ahead of new ones with the same key.
        s.extend([e(3, 3, 0.0), e(0, 4, 0.0)]);
        let got: Vec<u32> = s.entries().map(|x| x.obj.0).collect();
        assert_eq!(got, vec![4, 1, 2, 3, 0]);
        s.extend([]);
        assert_eq!(s.load(), 5);
        s.assert_invariants();
    }

    #[test]
    fn split_off_lower_and_upper() {
        let mut s = Store::new();
        s.extend((0..10).map(|i| e(i * 10, i as u32, 0.0)));
        let lower = s.split_off(40, true);
        assert_eq!(lower.len(), 5); // keys 0..=40
        assert_eq!(s.load(), 5); // keys 50..=90
        let upper = s.split_off(69, false);
        assert_eq!(upper.len(), 3); // keys 70, 80, 90
        assert_eq!(keys(&s), vec![50, 60]);
        s.assert_invariants();
    }

    #[test]
    fn scan_range_narrows_to_the_key_span() {
        let mut s = Store::new();
        s.extend((0..10).map(|i| e(i * 10, i as u32, i as f64)));
        // Points 0..10; rect matches 3..=6, whose keys live in [30, 60].
        let rect = Rect::new(vec![3.0], vec![6.0]);
        let (hits, stats) = s.scan_range(&rect, (30, 60));
        assert_eq!(objs(&hits), vec![3, 4, 5, 6]);
        assert_eq!(hits[0].point, &[3.0]);
        assert_eq!(
            stats,
            ScanStats {
                scanned: 4,
                matched: 4,
                skipped: 6
            }
        );
        // The whole key space finds the same hits.
        let (full, full_stats) = s.scan_range(&rect, (0, u64::MAX));
        assert_eq!(hits, full);
        assert_eq!(full_stats.scanned, 10);
    }

    #[test]
    fn scan_range_skips_blocks_whose_bounds_miss_the_rect() {
        // Keys spread evenly over the key space, points ascending with
        // them: four full blocks, each over its own stretch of the axis,
        // and only one can meet a short interval.
        let mut s = Store::new();
        let n = 4 * BLOCK_CAP;
        let step = u64::MAX / n as u64 + 1;
        s.extend((0..n).map(|i| e(i as u64 * step, i as u32, i as f64)));
        assert_eq!(s.blocks.len(), 4);
        let at = (2 * BLOCK_CAP + 3) as f64;
        let rect = Rect::new(vec![at], vec![at + 1.0]);
        let (hits, stats) = s.scan_range(&rect, (0, u64::MAX));
        assert_eq!(objs(&hits), vec![at as u32, at as u32 + 1]);
        assert_eq!(
            stats,
            ScanStats {
                scanned: BLOCK_CAP,
                matched: 2,
                skipped: n - BLOCK_CAP
            }
        );
    }

    #[test]
    fn nan_coordinates_match_nothing_and_break_nothing() {
        let mut s = Store::new();
        s.insert(e(1, 0, f64::NAN));
        s.insert(e(2, 1, 5.0));
        s.insert(e(3, 2, f64::NAN));
        s.assert_invariants();
        let (hits, stats) = s.scan_range(&Rect::new(vec![0.0], vec![9.0]), (0, u64::MAX));
        assert_eq!(objs(&hits), vec![1]);
        assert_eq!(stats.scanned + stats.skipped, 3);
        // A block of nothing but NaN has empty bounds and is passed over.
        let mut s = Store::new();
        s.insert(e(1, 0, f64::NAN));
        let (hits, stats) = s.scan_range(&Rect::new(vec![0.0], vec![9.0]), (0, u64::MAX));
        assert!(hits.is_empty());
        assert_eq!((stats.scanned, stats.skipped), (0, 1));
    }

    #[test]
    fn scan_range_handles_wrapped_spans() {
        let mut s = Store::new();
        s.extend((0..10).map(|i| e(i * 10, i as u32, i as f64)));
        let rect = Rect::new(vec![0.0], vec![9.0]); // matches everything
        let (hits, stats) = s.scan_range(&rect, (80, 20)); // keys <= 20 and >= 80
        assert_eq!(objs(&hits), vec![0, 1, 2, 8, 9]);
        assert_eq!(stats.scanned, 5);
        assert_eq!(stats.skipped, 5);
    }

    #[test]
    fn scan_range_empty_span_scans_nothing() {
        let mut s = Store::new();
        s.extend((0..5).map(|i| e(i * 10, i as u32, i as f64)));
        let rect = Rect::new(vec![0.0], vec![9.0]);
        let (hits, stats) = s.scan_range(&rect, (41, 49));
        assert!(hits.is_empty());
        assert_eq!(stats.scanned, 0);
        assert_eq!(stats.skipped, 5);
        let empty = Store::new();
        let (hits, stats) = empty.scan_range(&rect, (0, u64::MAX));
        assert!(hits.is_empty());
        assert_eq!(stats, ScanStats::default());
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn a_point_of_another_dimensionality_is_refused() {
        let mut s = Store::new();
        s.insert(e(1, 0, 0.0));
        s.insert(Entry {
            ring_key: 2,
            obj: ObjectId(1),
            point: vec![0.0, 0.0].into_boxed_slice(),
        });
    }

    #[test]
    fn an_emptied_store_takes_points_of_any_dimensionality() {
        let mut s = Store::new();
        s.insert(e(1, 0, 0.0));
        assert_eq!(s.take_all().len(), 1);
        s.insert(Entry {
            ring_key: 2,
            obj: ObjectId(1),
            point: vec![0.0, 0.0].into_boxed_slice(),
        });
        s.assert_invariants();
    }

    #[test]
    fn put_replica_keeps_ring_key_order() {
        let mut s = Store::new();
        s.put_replica(1, e(30, 0, 0.0));
        s.put_replica(2, e(10, 1, 0.0));
        s.put_replica(1, e(20, 2, 0.0));
        let keys: Vec<u64> = s.replicas().iter().map(|(_, x)| x.ring_key).collect();
        assert_eq!(keys, vec![10, 20, 30]);
        // A refresh that moves an entry's key re-sorts it into place.
        s.put_replica(1, e(5, 0, 0.0));
        let keys: Vec<u64> = s.replicas().iter().map(|(_, x)| x.ring_key).collect();
        assert_eq!(keys, vec![5, 10, 20]);
        assert_eq!(s.replica_count(), 3);
    }

    #[test]
    fn replicas_in_span_binary_searches() {
        let mut s = Store::new();
        for i in 0..10u32 {
            s.put_replica(7, e(i as u64 * 10, i, i as f64));
        }
        let (it, skipped) = s.replicas_in_span((25, 55));
        let objs: Vec<u32> = it.map(|(_, x)| x.obj.0).collect();
        assert_eq!(objs, vec![3, 4, 5]);
        assert_eq!(skipped, 7);
        // Wrapped span yields the low arc first.
        let (it, skipped) = s.replicas_in_span((85, 15));
        let objs: Vec<u32> = it.map(|(_, x)| x.obj.0).collect();
        assert_eq!(objs, vec![0, 1, 9]);
        assert_eq!(skipped, 7);
    }

    #[test]
    fn replicas_are_separate_and_idempotent() {
        let mut s = Store::new();
        s.insert(e(10, 0, 0.5));
        s.put_replica(999, e(20, 1, 1.5));
        s.put_replica(999, e(21, 2, 2.5));
        // Load counts primaries only.
        assert_eq!(s.load(), 1);
        assert_eq!(s.replica_count(), 2);
        // Same (owner, object) replaces, never duplicates.
        s.put_replica(999, e(25, 1, 1.75));
        assert_eq!(s.replica_count(), 2);
        assert!(s
            .replicas()
            .iter()
            .any(|(o, x)| *o == 999 && x.obj.0 == 1 && x.ring_key == 25));
        // Same object from a different owner is a distinct replica.
        s.put_replica(7, e(20, 1, 1.5));
        assert_eq!(s.replica_count(), 3);
        // Primary operations leave replicas alone.
        let drained = s.take_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(s.replica_count(), 3);
        s.clear_replicas();
        assert_eq!(s.replica_count(), 0);
    }

    #[test]
    fn take_all_empties() {
        let mut s = Store::new();
        s.extend([e(1, 0, 0.0), e(2, 1, 0.0)]);
        let all = s.take_all();
        assert_eq!(all.len(), 2);
        assert!(s.is_empty());
    }
}
