//! Order statistics over timing samples and arithmetic on counter maps.

use std::collections::BTreeMap;

/// The `p`-quantile (`0.0..=1.0`) of `samples` by nearest rank; 0 for
/// an empty slice. Sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Median of per-lap statistics: the benchmark's steadiness rule. A
/// single lap's p90 moves by > 20 % between runs on a shared two-core
/// host; the median over laps of the same op list does not.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `after - before` per counter (counters only grow), zeros dropped.
pub fn delta(
    after: &BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .filter(|(_, v)| *v > 0)
        .collect()
}

/// Sum of every counter whose name starts with `prefix`.
pub fn sum_prefix(counters: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}
