//! Result tables and persistence.

use std::io::Write;
use std::path::PathBuf;

use serde_json::{ToJson, Value};

/// One aggregated sweep point of an experiment series — the mean of the
/// paper's §4.1 cost metrics over the queries at that point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Series label, e.g. `KMean-10`.
    pub label: String,
    /// Query range factor (fraction of the maximum distance).
    pub range_factor: f64,
    /// Mean recall.
    pub recall: f64,
    /// Mean maximum path length.
    pub hops: f64,
    /// Mean time-to-first-result, ms.
    pub response_ms: f64,
    /// Mean time-to-last-result, ms.
    pub max_latency_ms: f64,
    /// Mean query-delivery bytes.
    pub query_bytes: f64,
    /// Mean result-delivery bytes.
    pub result_bytes: f64,
    /// Mean query-delivery messages.
    pub query_msgs: f64,
}

impl Row {
    /// Aggregate query outcomes into a row.
    pub fn from_outcomes(label: &str, range_factor: f64, os: &[simsearch::QueryOutcome]) -> Row {
        let n = os.len().max(1) as f64;
        Row {
            label: label.to_string(),
            range_factor,
            recall: os.iter().map(|o| o.recall).sum::<f64>() / n,
            hops: os.iter().map(|o| o.hops as f64).sum::<f64>() / n,
            response_ms: os.iter().map(|o| o.response_ms).sum::<f64>() / n,
            max_latency_ms: os.iter().map(|o| o.max_latency_ms).sum::<f64>() / n,
            query_bytes: os.iter().map(|o| o.query_bytes as f64).sum::<f64>() / n,
            result_bytes: os.iter().map(|o| o.result_bytes as f64).sum::<f64>() / n,
            query_msgs: os.iter().map(|o| o.query_msgs as f64).sum::<f64>() / n,
        }
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Value {
        serde_json::json!({
            "label": self.label,
            "range_factor": self.range_factor,
            "recall": self.recall,
            "hops": self.hops,
            "response_ms": self.response_ms,
            "max_latency_ms": self.max_latency_ms,
            "query_bytes": self.query_bytes,
            "result_bytes": self.result_bytes,
            "query_msgs": self.query_msgs,
        })
    }
}

/// Print one metric of a series as a range-factor × label table (the
/// shape of the paper's figure panels).
pub fn print_series(title: &str, rows: &[Row], metric: impl Fn(&Row) -> f64) {
    let mut labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    labels.dedup();
    let mut labels_unique: Vec<&str> = Vec::new();
    for l in labels {
        if !labels_unique.contains(&l) {
            labels_unique.push(l);
        }
    }
    let mut factors: Vec<f64> = rows.iter().map(|r| r.range_factor).collect();
    factors.sort_by(|a, b| a.total_cmp(b));
    factors.dedup();

    println!("\n== {title} ==");
    print!("{:>10}", "range%");
    for l in &labels_unique {
        print!("{l:>14}");
    }
    println!();
    for f in &factors {
        print!("{:>10.2}", f * 100.0);
        for l in &labels_unique {
            let v = rows
                .iter()
                .find(|r| r.label == *l && r.range_factor == *f)
                .map(&metric);
            match v {
                Some(v) => print!("{v:>14.3}"),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
}

/// Print a load-distribution series (paper figures 4 and 6): nodes
/// sorted by decreasing load, plus summary numbers.
pub fn print_load_distribution(title: &str, series: &[(String, Vec<usize>)]) {
    println!("\n== {title} (nodes sorted by decreasing load) ==");
    for (label, loads) in series {
        let total: usize = loads.iter().sum();
        let nonzero = loads.iter().filter(|&&l| l > 0).count();
        let max = loads.first().copied().unwrap_or(0);
        let head: Vec<usize> = loads.iter().copied().take(12).collect();
        println!(
            "{label:>12}: max={max:>6} gini={:>5.3} nodes-with-load={nonzero:>5}/{:>5} total={total:>8} head={head:?}",
            simsearch::stats::gini(loads),
            loads.len()
        );
    }
}

/// Print the headline numbers of a telemetry snapshot (see
/// [`simsearch::SearchSystem::telemetry_snapshot`]): network totals, the
/// busiest counters, and a per-query one-liner each.
pub fn print_telemetry_summary(snapshot: &Value) {
    println!("\n== telemetry ==");
    let net = &snapshot["net"];
    println!(
        "net: {} messages, {} bytes, {} events",
        net["messages"].as_u64().unwrap_or(0),
        net["bytes"].as_u64().unwrap_or(0),
        net["events"].as_u64().unwrap_or(0),
    );
    if let Value::Object(counters) = &snapshot["registry"]["counters"] {
        for (name, v) in counters {
            if let Some(n) = v.as_u64() {
                println!("  {name:<28} {n:>12}");
            }
        }
    }
    if let Value::Object(queries) = &snapshot["queries"] {
        for (i, (qid, q)) in queries.iter().enumerate() {
            if i == 10 {
                println!("  ... {} more queries in the snapshot", queries.len() - 10);
                break;
            }
            println!(
                "  query {}: {} hops, {} splits, {} answers, {}+{} bytes, \
                 scanned {} matched {}",
                qid.parse::<u64>().unwrap_or(0),
                q["hops"].as_u64().unwrap_or(0),
                q["splits"].as_u64().unwrap_or(0),
                q["answers"].as_u64().unwrap_or(0),
                q["query_bytes"].as_u64().unwrap_or(0),
                q["result_bytes"].as_u64().unwrap_or(0),
                q["scanned"].as_u64().unwrap_or(0),
                q["matched"].as_u64().unwrap_or(0),
            );
        }
    }
}

/// Persist rows as JSON under `target/experiments/<name>.json` so
/// EXPERIMENTS.md entries are regenerable.
pub fn save_json<T: ToJson + ?Sized>(name: &str, value: &T) -> PathBuf {
    // Anchor at the workspace target dir regardless of the bench's cwd.
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| format!("{}/../../target", env!("CARGO_MANIFEST_DIR")));
    let dir = PathBuf::from(target).join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create json");
    let body = serde_json::to_string_pretty(value).expect("serialize");
    f.write_all(body.as_bytes()).expect("write json");
    println!("\n[saved {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aggregates_means() {
        let mk = |recall: f64, hops: u32| simsearch::QueryOutcome {
            qid: 0,
            origin: simnet::AgentId(0),
            hops,
            response_ms: 100.0,
            max_latency_ms: 200.0,
            query_bytes: 50,
            result_bytes: 30,
            query_msgs: 4,
            responses: 2,
            results: vec![],
            recall,
            degraded: false,
            completed: true,
        };
        let row = Row::from_outcomes("X", 0.05, &[mk(1.0, 4), mk(0.5, 8)]);
        assert_eq!(row.recall, 0.75);
        assert_eq!(row.hops, 6.0);
        assert_eq!(row.response_ms, 100.0);
        assert_eq!(row.query_bytes, 50.0);
        assert_eq!(row.label, "X");
    }

    #[test]
    fn save_json_writes_file() {
        let p = save_json("unit_test_report", &vec![1, 2, 3]);
        let body = std::fs::read_to_string(p).unwrap();
        assert!(body.contains('1'));
    }
}

/// Reading a checked-in `BENCH_*.json` back, for the tests that pin the
/// report writers to their artifacts.
#[cfg(test)]
pub(crate) mod artifact {
    use std::collections::BTreeMap;

    use serde_json::Value;

    /// The first `block` object of the artifact `text`, as field name →
    /// the value's text exactly as the artifact prints it.
    pub(crate) fn block_fields(text: &str, block: &str) -> BTreeMap<String, String> {
        let start = text
            .find(&format!("\"{block}\": {{"))
            .unwrap_or_else(|| panic!("the artifact has no `{block}` object"));
        text[start..]
            .lines()
            .skip(1)
            .map(str::trim)
            .take_while(|l| !l.starts_with('}'))
            .map(|l| {
                let (k, v) = l
                    .trim_end_matches(',')
                    .split_once(": ")
                    .expect("`key: value`");
                (k.trim_matches('"').to_string(), v.to_string())
            })
            .collect()
    }

    /// `v`'s fields printed as the artifact prints them.
    pub(crate) fn fields(v: &Value) -> BTreeMap<String, String> {
        let Value::Object(map) = v else {
            panic!("not an object: {v}")
        };
        map.iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    }
}
