//! Deterministic counters and histograms for overlay/search telemetry.
//!
//! The registry is deliberately minimal: named monotone `u64` counters
//! plus power-of-two-bucket histograms, all keyed by `BTreeMap` so every
//! serialization is canonically ordered. Nothing here reads a wall
//! clock — values come only from simulated events — so two runs with the
//! same seed produce byte-identical [`Registry::to_json`] output. That
//! property is what the repository's golden-snapshot CI gate checks.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde_json::Value;

/// A histogram over `u64` samples with logarithmic (power-of-two)
/// buckets: bucket `0` holds the value `0`, bucket `b >= 1` holds values
/// in `[2^(b-1), 2^b)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Occupied buckets only: bucket index -> sample count.
    buckets: BTreeMap<u32, u64>,
    /// Total samples observed.
    count: u64,
    /// Sum of all observed values.
    sum: u64,
    /// Largest observed value.
    max: u64,
}

/// The bucket index a value falls into.
fn bucket_of(value: u64) -> u32 {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros()
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        *self.buckets.entry(bucket_of(value)).or_default() += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_default() += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Canonical JSON: integer summary fields plus the occupied buckets
    /// as `[bucket_upper_bound_exclusive, count]` pairs in bucket order.
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .map(|(&b, &c)| {
                let le = if b == 0 { 0 } else { 1u64 << b };
                Value::Array(vec![Value::UInt(le), Value::UInt(c)])
            })
            .collect();
        serde_json::json!({
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "buckets": Value::Array(buckets),
        })
    }
}

/// Build a histogram from a slice of samples (load distributions etc.).
pub fn histogram_of(values: impl IntoIterator<Item = u64>) -> Histogram {
    let mut h = Histogram::default();
    for v in values {
        h.observe(v);
    }
    h
}

/// A named-metric registry: counters and histograms, canonically ordered.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to the named counter (created at 0 on first touch; only
    /// then is the name copied).
    pub fn incr(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Record one sample into the named histogram (created on first
    /// touch; only then is the name copied).
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(value),
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Fold another registry into this one (summing counters, merging
    /// histograms).
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Canonical JSON: `{"counters": {...}, "histograms": {...}}` with
    /// sorted keys and integer values throughout.
    pub fn to_json(&self) -> Value {
        let counters: BTreeMap<String, Value> = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect();
        let histograms: BTreeMap<String, Value> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        serde_json::json!({
            "counters": Value::Object(counters),
            "histograms": Value::Object(histograms),
        })
    }
}

/// A registry shared between agents of one simulation. The simulator
/// runs one serial event loop, but agents are owned by the `Sim` while
/// experiment drivers also hold the handle, and independent systems may
/// run on different threads (the test harness runs tests concurrently)
/// — so the shared handle must be `Send + Sync`.
pub type SharedRegistry = Arc<Mutex<Registry>>;

/// A fresh shared registry.
pub fn shared() -> SharedRegistry {
    Arc::new(Mutex::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_summarizes() {
        let h = histogram_of([0, 1, 1, 5, 9]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 9);
        let j = h.to_json();
        assert_eq!(j["count"].as_u64(), Some(5));
        // 0 -> bucket le=0; 1,1 -> le=2; 5 -> le=8; 9 -> le=16.
        assert_eq!(j["buckets"].to_string(), "[[0,1],[2,2],[8,1],[16,1]]");
    }

    #[test]
    fn registry_counts_and_serializes_sorted() {
        let mut r = Registry::new();
        r.incr("b.msgs", 2);
        r.incr("a.msgs", 1);
        r.incr("b.msgs", 3);
        r.observe("hops", 4);
        assert_eq!(r.counter("b.msgs"), 5);
        assert_eq!(r.counter("missing"), 0);
        let s = r.to_json().to_string();
        // Sorted keys: "a.msgs" before "b.msgs"; integers unquoted.
        assert!(s.contains(r#""a.msgs":1,"b.msgs":5"#), "{s}");
        assert!(s.contains(r#""hops""#));
    }

    #[test]
    fn merge_folds_everything() {
        let mut a = Registry::new();
        a.incr("x", 1);
        a.observe("h", 3);
        let mut b = Registry::new();
        b.incr("x", 2);
        b.incr("y", 7);
        b.observe("h", 100);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn identical_registries_serialize_identically() {
        let build = || {
            let mut r = Registry::new();
            for i in 0..50u64 {
                r.incr(&format!("c{}", i % 7), i);
                r.observe("h", i * i);
            }
            r.to_json().to_string()
        };
        assert_eq!(build(), build());
    }
}
