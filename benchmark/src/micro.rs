//! Tight-loop timings of the small public kernels every layer above
//! calls per message: the `lph` grid functions and the telemetry
//! registry. Inputs are the running workload's own points and query
//! rects, cycled; results pass through `black_box`.

use crate::Metrics;
use lph::{Grid, Rect, SubQuery};
use simsearch::Telemetry;
use std::hint::black_box;
use std::time::Instant;

/// Calls per kernel: long enough that `Instant` overhead vanishes,
/// short enough that all kernels together stay under a quarter second.
const CALLS: usize = 20_000;

/// Mean nanoseconds per call of `f` over [`CALLS`] calls on `inputs`,
/// cycled.
pub fn ns_per_call<T, R>(inputs: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    for x in inputs.iter().take(256) {
        black_box(f(x));
    }
    let t0 = Instant::now();
    for x in inputs.iter().cycle().take(CALLS) {
        black_box(f(black_box(x)));
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

/// `lph.*`: hash per published point; prefix, key span and one split
/// per query rect.
pub fn lph(grid: &Grid, points: &[Vec<f64>], rects: &[Rect], m: &mut Metrics) {
    m.set("lph.hash_ns", ns_per_call(points, |p| grid.hash(p)));
    m.set(
        "lph.enclosing_prefix_ns",
        ns_per_call(rects, |r| grid.enclosing_prefix(r)),
    );
    m.set("lph.key_span_ns", ns_per_call(rects, |r| grid.key_span(r)));
    let subqueries: Vec<SubQuery> = rects
        .iter()
        .map(|r| SubQuery {
            rect: r.clone(),
            prefix: grid.enclosing_prefix(r),
        })
        .filter(|q| q.prefix.len() < grid.depth())
        .collect();
    m.set("lph.split_ns", ns_per_call(&subqueries, |q| grid.split(q)));
}

/// `telemetry.incr_ns` / `telemetry.observe_ns` on a registry holding
/// the counter names a node really registers (the lookup walks a
/// `BTreeMap<String, _>` behind a mutex, so the population matters).
pub fn telemetry(names: &[String], m: &mut Metrics) {
    let tel = Telemetry::new();
    for name in names {
        tel.incr(name, 1);
    }
    tel.observe("publish.hops", 1);
    m.set("telemetry.incr_ns", ns_per_call(names, |n| tel.incr(n, 1)));
    m.set(
        "telemetry.observe_ns",
        ns_per_call(&[3u64, 1, 2], |&v| tel.observe("publish.hops", v)),
    );
}
