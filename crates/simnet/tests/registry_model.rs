//! The registry keeps a declared name's value in an array slot and any
//! other name's in a map, but reads as one namespace: whatever mix of id
//! and name updates built it, `counters()`, `counter()`, `to_json()`
//! and `merge()` must say exactly what one `BTreeMap<String, _>` per
//! kind of metric, fed the same updates by name, says.

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde_json::Value;
use simnet::{CounterId, HistogramId, Registry};

/// Names built at run time, never declared.
const DYNAMIC: [&str; 4] = ["a.first", "chord.msgs.ping", "index0.scanned", "zz.last"];

/// The reference: every metric under its name, histograms as their raw
/// samples.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<u64>>,
}

impl Model {
    fn merge(&mut self, other: &Model) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, s) in &other.samples {
            self.samples.entry(k.clone()).or_default().extend(s);
        }
    }

    /// The registry's JSON form, computed from the raw samples.
    fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect();
        let histograms = self
            .samples
            .iter()
            .map(|(k, s)| (k.clone(), histogram_json(s)))
            .collect();
        serde_json::json!({
            "counters": Value::Object(counters),
            "histograms": Value::Object(histograms),
        })
    }
}

/// A histogram's JSON from its samples: bucket `b` holds `[2^(b-1),
/// 2^b)` and is written with bound `2^b` (`u64::MAX` for `b = 64`).
fn histogram_json(samples: &[u64]) -> Value {
    let mut buckets: BTreeMap<u32, u64> = BTreeMap::new();
    for &v in samples {
        *buckets.entry(64 - v.leading_zeros()).or_default() += 1;
    }
    let buckets = buckets
        .into_iter()
        .map(|(b, c)| {
            let le = match b {
                0 => 0,
                64 => u64::MAX,
                b => 1 << b,
            };
            Value::Array(vec![Value::UInt(le), Value::UInt(c)])
        })
        .collect();
    serde_json::json!({
        "count": samples.len() as u64,
        "sum": samples.iter().fold(0u64, |s, &v| s.saturating_add(v)),
        "max": samples.iter().copied().max().unwrap_or(0),
        "buckets": Value::Array(buckets),
    })
}

/// One update `(kind, pick, amount, sample)`: kind 0 adds `amount`
/// (often 0) to a declared counter by id, 1 to a counter by name
/// (declared or dynamic), 2 records `sample` into a declared histogram
/// by id, 3 into a histogram by name.
type Op = (u8, usize, u64, u64);

fn apply(reg: &mut Registry, model: &mut Model, (kind, pick, amount, sample): Op) {
    let amount = if amount % 4 == 0 { 0 } else { amount };
    match kind {
        0 => {
            let id = CounterId::ALL[pick % CounterId::COUNT];
            reg.incr_id(id, amount);
            *model.counters.entry(id.name().into()).or_default() += amount;
        }
        1 => {
            let name = pick_name(CounterId::ALL.iter().map(|id| id.name()), pick);
            reg.incr(name, amount);
            *model.counters.entry(name.into()).or_default() += amount;
        }
        2 => {
            let id = HistogramId::ALL[pick % HistogramId::COUNT];
            reg.observe_id(id, sample);
            model
                .samples
                .entry(id.name().into())
                .or_default()
                .push(sample);
        }
        _ => {
            let name = pick_name(HistogramId::ALL.iter().map(|id| id.name()), pick);
            reg.observe(name, sample);
            model.samples.entry(name.into()).or_default().push(sample);
        }
    }
}

fn pick_name(declared: impl Iterator<Item = &'static str>, pick: usize) -> &'static str {
    let names: Vec<&str> = declared.chain(DYNAMIC).collect();
    names[pick % names.len()]
}

fn build(ops: &[Op]) -> (Registry, Model) {
    let mut reg = Registry::new();
    let mut model = Model::default();
    for &op in ops {
        apply(&mut reg, &mut model, op);
    }
    (reg, model)
}

/// Every read the registry offers agrees with the model.
fn agrees(reg: &Registry, model: &Model) -> Result<(), TestCaseError> {
    let listed: Vec<(String, u64)> = reg.counters().map(|(k, v)| (k.into(), v)).collect();
    let want: Vec<(String, u64)> = model.counters.clone().into_iter().collect();
    prop_assert_eq!(listed, want);
    let names = CounterId::ALL.iter().map(|id| id.name()).chain(DYNAMIC);
    for name in names {
        let want = model.counters.get(name).copied().unwrap_or(0);
        prop_assert_eq!(reg.counter(name), want);
    }
    let hists: Vec<(String, u64)> = reg
        .histograms()
        .map(|(k, h)| (k.into(), h.count()))
        .collect();
    let want: Vec<(String, u64)> = model
        .samples
        .iter()
        .map(|(k, s)| (k.clone(), s.len() as u64))
        .collect();
    prop_assert_eq!(hists, want);
    prop_assert_eq!(reg.to_json().to_string(), model.to_json().to_string());
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let sample = (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift);
    prop::collection::vec((0u8..4, 0usize..64, 0u64..1000, sample), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn registry_reads_like_one_map_per_kind(ops in ops()) {
        let (reg, model) = build(&ops);
        agrees(&reg, &model)?;
    }

    #[test]
    fn merge_reads_like_merged_maps(left in ops(), right in ops()) {
        let (mut reg, mut model) = build(&left);
        let (other, other_model) = build(&right);
        reg.merge(&other);
        model.merge(&other_model);
        agrees(&reg, &model)?;
    }
}
