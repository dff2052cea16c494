//! Property tests for the per-node entry store against a naive model: a
//! plain `Vec<Entry>` kept in the order the store promises.

use lph::Rect;
use metric::ObjectId;
use proptest::prelude::*;
use simsearch::{Entry, Store};

fn entry(key: u64, obj: u32, x: f64) -> Entry {
    Entry {
        ring_key: key,
        obj: ObjectId(obj),
        point: vec![x].into_boxed_slice(),
    }
}

/// An entry with its point as bit patterns, so that NaN equals NaN.
type Print = (u64, ObjectId, Vec<u64>);

fn print(ring_key: u64, obj: ObjectId, point: &[f64]) -> Print {
    (ring_key, obj, point.iter().map(|x| x.to_bits()).collect())
}

fn prints(entries: &[Entry]) -> Vec<Print> {
    entries
        .iter()
        .map(|e| print(e.ring_key, e.obj, &e.point))
        .collect()
}

/// Is `k` inside the inclusive, possibly wrapping span?
fn in_span((lo, hi): (u64, u64), k: u64) -> bool {
    if lo <= hi {
        (lo..=hi).contains(&k)
    } else {
        k <= hi || k >= lo
    }
}

/// What `scan_range` must return, from the model: the low arc of a
/// wrapped span first, stored order inside each arc.
fn brute_force(model: &[Entry], rect: &Rect, span: (u64, u64)) -> Vec<(u64, ObjectId)> {
    let arcs = if span.0 <= span.1 {
        vec![span]
    } else {
        vec![(0, span.1), (span.0, u64::MAX)]
    };
    arcs.into_iter()
        .flat_map(|arc| {
            model
                .iter()
                .filter(move |e| in_span(arc, e.ring_key) && rect.contains_point(&e.point))
        })
        .map(|e| (e.ring_key, e.obj))
        .collect()
}

proptest! {
    #[test]
    fn insert_matches_extend(mut keys in prop::collection::vec(any::<u64>(), 0..60)) {
        let mut a = Store::new();
        for (i, &k) in keys.iter().enumerate() {
            a.insert(entry(k, i as u32, 0.0));
        }
        let mut b = Store::new();
        b.extend(keys.iter().enumerate().map(|(i, &k)| entry(k, i as u32, 0.0)));
        // Same multiset of keys in the same sorted order.
        let ka: Vec<u64> = a.entries().map(|e| e.ring_key).collect();
        let kb: Vec<u64> = b.entries().map(|e| e.ring_key).collect();
        prop_assert_eq!(&ka, &kb);
        keys.sort_unstable();
        prop_assert_eq!(ka, keys);
    }

    #[test]
    fn split_off_partitions(keys in prop::collection::vec(any::<u64>(), 1..60), split in any::<u64>()) {
        let mk = || {
            let mut s = Store::new();
            s.extend(keys.iter().enumerate().map(|(i, &k)| entry(k, i as u32, 0.0)));
            s
        };
        let mut lower_side = mk();
        let lower = lower_side.split_off(split, true);
        prop_assert!(lower.iter().all(|e| e.ring_key <= split));
        prop_assert!(lower_side.entries().all(|e| e.ring_key > split));
        prop_assert_eq!(lower.len() + lower_side.load(), keys.len());

        let mut upper_side = mk();
        let upper = upper_side.split_off(split, false);
        prop_assert!(upper.iter().all(|e| e.ring_key > split));
        prop_assert!(upper_side.entries().all(|e| e.ring_key <= split));
        prop_assert_eq!(upper.len() + upper_side.load(), keys.len());
    }

    /// Any interleaving of `insert`, `extend`, `split_off` and `take_all`
    /// leaves the store listing exactly what the model lists, in the
    /// model's order (ascending keys, arrival order inside a key — an
    /// eight-key domain makes equal-key runs outgrow a block, keys from
    /// all over the key space make blocks divide), with the block
    /// invariants intact — among them that the partition into blocks is
    /// the canonical one for the stored keys, whatever the history;
    /// and after every step a scan over an arbitrary rect and span —
    /// wrapped, empty, or everything — returns the brute-force filter of
    /// the model in set and order and accounts for every entry.
    /// Coordinates stray outside `[0, 10]` and are sometimes NaN.
    #[test]
    fn interleaved_ops_keep_the_model_and_the_invariants(
        steps in prop::collection::vec(
            (0u8..16, any::<u64>(), any::<u64>(), (-2.0f64..12.0, -2.0f64..12.0), 0u8..40),
            1..40,
        ),
    ) {
        let mut store = Store::new();
        let mut model: Vec<Entry> = Vec::new();
        let mut next_obj = 0u32;
        // The `i`-th entry of a step. Its key, by the step's `shape`: one
        // of eight keys (equal-key runs outgrow a block); anywhere in the
        // key space (blocks divide evenly); or in a tight cluster at the
        // step's own base (blocks divide lopsidedly, and later clusters
        // land under prefixes no block stands for yet). One coordinate
        // in sixteen is NaN.
        let mut fresh = |shape: u8, base: u64, i: u64, (x, y): (f64, f64)| {
            next_obj += 1;
            let seed = base.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Entry {
                ring_key: match shape % 3 {
                    0 => ((seed >> 8) % 8) << 61,
                    1 => seed.wrapping_mul(0xA076_1D64_78BD_642F),
                    _ => base.wrapping_add(i % 48),
                },
                obj: ObjectId(next_obj),
                point: vec![
                    if seed % 16 == 3 { f64::NAN } else { x },
                    y + (seed % 7) as f64 * 0.01,
                ]
                .into_boxed_slice(),
            }
        };
        for &(kind, a, b, xy, n) in &steps {
            match kind {
                // Mostly inserts and bulk loads, so stores grow past a few blocks.
                0..=7 => {
                    for i in 0..2 * n as u64 {
                        let e = fresh(kind, a, i, xy);
                        let at = model.partition_point(|m| m.ring_key <= e.ring_key);
                        model.insert(at, e.clone());
                        store.insert(e);
                    }
                }
                8..=12 => {
                    let new: Vec<Entry> = (0..2 * n as u64).map(|i| fresh(kind, a, i, xy)).collect();
                    model.extend(new.iter().cloned());
                    model.sort_by_key(|e| e.ring_key);
                    store.extend(new);
                }
                13 | 14 => {
                    let split = (a % 8) << 61;
                    let lower = kind == 13;
                    let gone = store.split_off(split, lower);
                    let (low, high): (Vec<Entry>, Vec<Entry>) =
                        model.drain(..).partition(|e| e.ring_key <= split);
                    let (want_gone, kept) = if lower { (low, high) } else { (high, low) };
                    model = kept;
                    prop_assert_eq!(prints(&gone), prints(&want_gone));
                }
                _ => {
                    let gone = store.take_all();
                    prop_assert_eq!(prints(&gone), prints(&model));
                    model.clear();
                }
            }
            store.assert_invariants();
            let stored: Vec<Print> = store
                .entries()
                .map(|e| print(e.ring_key, e.obj, e.point))
                .collect();
            prop_assert_eq!(stored, prints(&model));
            prop_assert_eq!(store.load(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());

            let (x, y) = xy;
            let rect = Rect::new(vec![x.min(5.0), y.min(5.0)], vec![x.max(5.0), y.max(5.0)]);
            let span = match n % 4 {
                0 => (0, u64::MAX),
                1 => ((a % 8) << 61, (b % 8) << 61), // ends on stored keys, often wrapped
                _ => (a, b),
            };
            let (hits, stats) = store.scan_range(&rect, span);
            let got: Vec<(u64, ObjectId)> = hits.iter().map(|e| (e.ring_key, e.obj)).collect();
            prop_assert_eq!(got, brute_force(&model, &rect, span));
            prop_assert_eq!(stats.matched, hits.len());
            prop_assert!(stats.matched <= stats.scanned);
            prop_assert_eq!(stats.scanned + stats.skipped, store.load());
        }
    }
}
