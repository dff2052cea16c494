//! Deterministic counters and histograms for overlay/search telemetry.
//!
//! The registry is deliberately minimal: monotone `u64` counters plus
//! power-of-two-bucket histograms. Every name the code records under is
//! declared once below, in [`CounterId`] and [`HistogramId`]; a value
//! under a declared name lives in a dense array slot, so recording it
//! is an array index. Names built at run time (`index{i}.*`,
//! `chord.msgs.<kind>`) live in `BTreeMap`s. Readers see one namespace:
//! every listing and serialization merges both by name into canonical
//! order. Nothing here reads a wall clock — values come only from
//! simulated events — so two runs with the same seed produce
//! byte-identical [`Registry::to_json`] output. That property is what
//! the repository's golden-snapshot CI gate checks.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde_json::Value;

/// Declare a static metric table: an id enum whose variants index a
/// registry array, each with its one name.
macro_rules! metric_ids {
    ($(#[$doc:meta])* $ty:ident { $($var:ident = $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum $ty {
            $($var,)*
        }

        impl $ty {
            /// Every id, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$var,)*];
            /// How many ids the table declares.
            pub const COUNT: usize = $ty::ALL.len();

            /// The metric's name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)*
                }
            }

            /// The id declared under `name`, if any.
            pub fn of(name: &str) -> Option<$ty> {
                match name {
                    $($name => Some($ty::$var),)*
                    _ => None,
                }
            }
        }
    };
}

metric_ids! {
    /// A counter with a static name: its slot in a [`Registry`].
    CounterId {
        ChordBytes = "chord.bytes",
        ChordFailedLookups = "chord.failed_lookups",
        ChordLookups = "chord.lookups",
        LbMigrations = "lb.migrations",
        LbRounds = "lb.rounds",
        PublishStored = "publish.stored",
        ReplicateStored = "replicate.stored",
        ResilienceAcked = "resilience.acked",
        ResilienceDegradedAnswers = "resilience.degraded_answers",
        ResilienceDupDropped = "resilience.dup_dropped",
        ResilienceFailovers = "resilience.failovers",
        ResilienceReplicaAnswers = "resilience.replica_answers",
        ResilienceReplicasLost = "resilience.replicas_lost",
        ResilienceResultsLost = "resilience.results_lost",
        ResilienceRetries = "resilience.retries",
        ResilienceTrackedSent = "resilience.tracked_sent",
        RoutingLocalRefines = "routing.local_refines",
        RoutingPeels = "routing.peels",
        RoutingSharedPath = "routing.shared_path",
        RoutingSplits = "routing.splits",
        SearchBytesPublish = "search.bytes.publish",
        SearchBytesQuery = "search.bytes.query",
        SearchBytesReplicate = "search.bytes.replicate",
        SearchBytesResults = "search.bytes.results",
        SearchMsgsPublish = "search.msgs.publish",
        SearchMsgsRefine = "search.msgs.refine",
        SearchMsgsReplicate = "search.msgs.replicate",
        SearchMsgsResults = "search.msgs.results",
        SearchMsgsRoute = "search.msgs.route",
        SearchRefineDistCalls = "search.refine.dist_calls",
        SearchRefinePruned = "search.refine.pruned",
        StoreEntriesMatched = "store.entries_matched",
        StoreEntriesScanned = "store.entries_scanned",
        StoreEntriesSkipped = "store.entries_skipped",
    }
}

metric_ids! {
    /// A histogram with a static name: its slot in a [`Registry`].
    HistogramId {
        ChordLookupHops = "chord.lookup_hops",
        LbMigrationsPerRound = "lb.migrations_per_round",
        PublishHops = "publish.hops",
    }
}

/// A histogram over `u64` samples with logarithmic (power-of-two)
/// buckets: bucket `0` holds the value `0`, bucket `b >= 1` holds values
/// in `[2^(b-1), 2^b)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sample count by bucket index, up to the largest occupied bucket
    /// (empty when no sample was recorded).
    buckets: Vec<u64>,
    /// Total samples observed.
    count: u64,
    /// Sum of all observed values, saturating at `u64::MAX`.
    sum: u64,
    /// Largest observed value.
    max: u64,
}

/// The bucket index a value falls into.
#[inline]
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        let b = bucket_of(value);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &c) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Canonical JSON: integer summary fields plus the occupied buckets
    /// as `[bucket_upper_bound_exclusive, count]` pairs in bucket order.
    /// The top bucket's bound, `2^64`, is written as `u64::MAX`.
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| {
                let le = match b {
                    0 => 0,
                    b => 1u64.checked_shl(b as u32).unwrap_or(u64::MAX),
                };
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

/// A metric registry: counters and histograms, one namespace.
///
/// A declared name's value sits in an array slot indexed by its id, and
/// any other name's in a `BTreeMap`; a name reaches the same value
/// through either path. A counter exists from its first touch, even one
/// adding 0.
#[derive(Clone, Debug)]
pub struct Registry {
    /// Declared counters by [`CounterId`]; `None` until first touched.
    counter_slots: [Option<u64>; CounterId::COUNT],
    /// Declared histograms by [`HistogramId`].
    histogram_slots: [Option<Histogram>; HistogramId::COUNT],
    /// Counters under names built at run time.
    counters: BTreeMap<String, u64>,
    /// Histograms under names built at run time.
    histograms: BTreeMap<String, Histogram>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            counter_slots: [None; CounterId::COUNT],
            histogram_slots: [const { None }; HistogramId::COUNT],
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `by` to a declared counter.
    #[inline]
    pub fn incr_id(&mut self, id: CounterId, by: u64) {
        *self.counter_slots[id as usize].get_or_insert(0) += by;
    }

    /// Record one sample into a declared histogram.
    #[inline]
    pub fn observe_id(&mut self, id: HistogramId, value: u64) {
        self.histogram_slots[id as usize]
            .get_or_insert_with(Histogram::default)
            .observe(value);
    }

    /// Add `by` to the named counter (created at 0 on first touch; only
    /// then is an undeclared name copied).
    #[inline]
    pub fn incr(&mut self, name: &str, by: u64) {
        if let Some(id) = CounterId::of(name) {
            return self.incr_id(id, by);
        }
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Record one sample into the named histogram (created on first
    /// touch; only then is an undeclared name copied).
    #[inline]
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(id) = HistogramId::of(name) {
            return self.observe_id(id, value);
        }
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
        match CounterId::of(name) {
            Some(id) => self.counter_slots[id as usize],
            None => self.counters.get(name).copied(),
        }
        .unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match HistogramId::of(name) {
            Some(id) => self.histogram_slots[id as usize].as_ref(),
            None => self.histograms.get(name),
        }
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let declared = CounterId::ALL
            .iter()
            .filter_map(|&id| Some((id.name(), self.counter_slots[id as usize]?)));
        let named = self.counters.iter().map(|(k, &v)| (k.as_str(), v));
        by_name(declared.chain(named))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        let declared = HistogramId::ALL.iter().filter_map(|&id| {
            let h = self.histogram_slots[id as usize].as_ref()?;
            Some((id.name(), h))
        });
        let named = self.histograms.iter().map(|(k, h)| (k.as_str(), h));
        by_name(declared.chain(named))
    }

    /// Fold another registry into this one (summing counters, merging
    /// histograms).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in other.counters() {
            self.incr(k, v);
        }
        for (k, h) in other.histograms() {
            match HistogramId::of(k) {
                Some(id) => {
                    self.histogram_slots[id as usize].get_or_insert_with(Histogram::default)
                }
                None => self.histograms.entry(k.to_string()).or_default(),
            }
            .merge(h);
        }
    }

    /// Canonical JSON: `{"counters": {...}, "histograms": {...}}` with
    /// sorted keys and integer values throughout.
    pub fn to_json(&self) -> Value {
        let counters: BTreeMap<String, Value> = self
            .counters()
            .map(|(k, v)| (k.to_string(), Value::UInt(v)))
            .collect();
        let histograms: BTreeMap<String, Value> = self
            .histograms()
            .map(|(k, h)| (k.to_string(), h.to_json()))
            .collect();
        serde_json::json!({
            "counters": Value::Object(counters),
            "histograms": Value::Object(histograms),
        })
    }
}

/// `(name, value)` pairs in name order. A name is declared or built at
/// run time, never both, so no two pairs share one.
fn by_name<'a, V>(pairs: impl Iterator<Item = (&'a str, V)>) -> impl Iterator<Item = (&'a str, V)> {
    let mut pairs: Vec<_> = pairs.collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    pairs.into_iter()
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
    fn samples_at_the_top_of_the_range_saturate() {
        let h = histogram_of([1 << 63, u64::MAX]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // Both land in bucket 64, whose bound 2^64 is written as u64::MAX.
        let want = format!("[[{},2]]", u64::MAX);
        assert_eq!(h.to_json()["buckets"].to_string(), want);
        let mut twice = h.clone();
        twice.merge(&h);
        assert_eq!((twice.count(), twice.sum()), (4, u64::MAX));
    }

    #[test]
    fn every_declared_name_maps_back_to_its_id() {
        for &id in CounterId::ALL {
            assert_eq!(CounterId::of(id.name()), Some(id));
        }
        for &id in HistogramId::ALL {
            assert_eq!(HistogramId::of(id.name()), Some(id));
        }
        assert_eq!(CounterId::of("index0.scanned"), None);
    }

    #[test]
    fn a_declared_name_and_its_id_share_one_value() {
        let mut r = Registry::new();
        r.incr("search.msgs.route", 2);
        r.incr_id(CounterId::SearchMsgsRoute, 3);
        r.incr_id(CounterId::StoreEntriesSkipped, 0);
        r.incr("index0.scanned", 4);
        r.observe_id(HistogramId::PublishHops, 2);
        r.observe("publish.hops", 5);
        assert_eq!(r.counter("search.msgs.route"), 5);
        assert_eq!(r.histogram("publish.hops").map(Histogram::count), Some(2));
        let names: Vec<_> = r.counters().collect();
        assert_eq!(
            names,
            [
                ("index0.scanned", 4),
                ("search.msgs.route", 5),
                ("store.entries_skipped", 0)
            ]
        );
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
