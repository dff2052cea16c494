//! The repo benchmark's harness. See `benchmark/README.md`.
//!
//! `harness --workload W --seed N --seconds S --trace 0|1` runs one
//! workload and prints, as the last line of stdout, one JSON object
//! `{correct, attempted, failed, metrics}`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod affinity;
mod cluster;
mod cluster_run;
mod cluster_trace;
mod gen;
mod inproc;
mod load;
mod micro;
mod selftest;
mod sim;
mod stats;
mod trace;

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("query_ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("wire_bytes_per_query", "B"),
    ("msgs_per_query", "count"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// workload that does not run a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.polls_per_query", "count"),
    ("client.query_p99_us", "us"),
    ("client.sched_lag_p90_us", "us"),
    ("client.backlog_max", "count"),
    ("client.knee_ops_per_s", "1/s"),
    ("client.publish_ack_p50_us", "us"),
    ("runtime.overhead_us_per_query", "us"),
    ("runtime.ctx_switches_per_query", "count"),
    ("runtime.threads_per_node", "count"),
    ("runtime.origin_cpu_share", "ratio"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.encode_ns_per_results_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("sansio.dispatch_ns_per_issue", "ns"),
    ("sansio.dispatch_ns_per_route", "ns"),
    ("sansio.dispatch_ns_per_refine", "ns"),
    ("sansio.dispatch_ns_per_results", "ns"),
    ("sansio.dispatch_ns_per_publish", "ns"),
    ("sansio.dispatch_self_ns_per_query", "ns"),
    ("routing.route_ns_per_subquery", "ns"),
    ("routing.splits_per_query", "count"),
    ("routing.max_hops_p50", "count"),
    ("routing.nodes_touched_per_query", "count"),
    ("store.scan_ns_per_query", "ns"),
    ("store.scanned_per_query", "count"),
    ("store.matched_per_scanned", "ratio"),
    ("store.insert_ns_per_publish", "ns"),
    ("store.load_max_over_mean", "ratio"),
    ("refine.prune_ns_per_query", "ns"),
    ("refine.dist_ns_per_query", "ns"),
    ("refine.dist_calls_per_query", "count"),
    ("refine.pruned_ratio", "ratio"),
    ("lph.hash_ns", "ns"),
    ("lph.enclosing_prefix_ns", "ns"),
    ("lph.key_span_ns", "ns"),
    ("lph.split_ns", "ns"),
    ("telemetry.incr_ns", "ns"),
    ("telemetry.observe_ns", "ns"),
    ("telemetry.stats_roundtrip_us", "us"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.par_speedup", "ratio"),
    ("simnet.peak_rss_mb", "MB"),
    ("chord.build_tables_ms", "ms"),
    ("landmark.select_ms", "ms"),
    ("landmark.map_ns_per_obj", "ns"),
    ("metric.l2_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.store_refine_share", "ratio"),
    ("trace.message_path_share", "ratio"),
];

/// Where and how one invocation runs.
pub struct Env {
    /// CPUs the harness was allowed on before it pinned itself.
    pub host_cpus: affinity::CpuSet,
    pub node_bin: PathBuf,
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Env {
    /// Pin the harness, and with it every thread and node process it
    /// starts from here on, to one CPU (see [`affinity`]). Workloads
    /// call this once their inputs and oracles exist: generating those
    /// is not measured and may use every CPU.
    pub fn pin(&self) -> Result<(), String> {
        let cpu = affinity::pin_to_one()?;
        println!(
            "host: {} CPUs allowed, harness and node processes pinned to CPU {cpu}; cluster traffic crosses the host loopback only",
            affinity::count(&self.host_cpus)
        );
        Ok(())
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

fn run_workload(env: &Env, workload: &str) -> Result<Outcome, String> {
    if workload == "sim_1k" {
        return if env.trace {
            sim::trace(env)
        } else {
            sim::run(env, cluster_run::SETUPS, cluster_run::LAPS)
        };
    }
    let w = match workload {
        "narrow" => cluster_run::NARROW,
        "wide" => cluster_run::WIDE,
        "mixed" => cluster_run::MIXED,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if env.trace {
        return cluster_trace::run(env, &w);
    }
    let inp = gen::ClusterInputs::new(w.shape, w.n_objects, w.radius, env.seed);
    let run = cluster_run::run(
        env,
        &w,
        &inp,
        cluster_run::SETUPS,
        cluster_run::LAPS,
        env.seconds,
        false,
    )?;
    let mut metrics = Metrics::default();
    let failures = run.failures.clone();
    if let Some(lap) = run.windows.first() {
        println!(
            "{workload}: {} timed laps of {} ops on {} closed-loop client(s), every timing a median over laps",
            run.windows.len(),
            lap.ops,
            w.conns
        );
    }
    if failures.is_empty() {
        cluster_run::end_to_end(&run, &mut metrics);
    }
    Ok(Outcome {
        attempted: run.attempted,
        failures,
        metrics,
    })
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let env = Env {
        host_cpus: affinity::current()?,
        node_bin: PathBuf::from(arg(&args, "--node-bin").ok_or("--node-bin PATH is required")?),
        out: PathBuf::from(arg(&args, "--out").ok_or("--out DIR is required")?),
        seed: arg(&args, "--seed")
            .unwrap_or("42")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: arg(&args, "--seconds")
            .unwrap_or("20")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: arg(&args, "--trace").unwrap_or("0") == "1",
    };
    let stale = cluster::node_processes(&env.node_bin);
    if !stale.is_empty() {
        return Err(format!(
            "stale node processes from an earlier run are still alive: {stale:?}; kill them first"
        ));
    }
    let workload = arg(&args, "--workload");
    let outcome = match workload {
        _ if args.iter().any(|a| a == "--self-test") => selftest::run(&env).map(|()| None),
        Some(w) => run_workload(&env, w).map(Some),
        None => return Err("--workload W or --self-test is required".to_string()),
    };
    let survivors = cluster::node_processes(&env.node_bin);
    if !survivors.is_empty() {
        return Err(format!("node processes survived the run: {survivors:?}"));
    }
    let (Some(outcome), Some(workload)) = (outcome?, workload) else {
        return Ok(());
    };
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let catalog = if env.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in catalog {
        let value = outcome.metrics.0.get(name).copied().unwrap_or(0.0);
        println!("{workload}.{name} {value} {unit}");
        metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    let correct = outcome.failures.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failures.len(),
        "metrics": Value::Object(metrics),
    });
    let copy = env
        .out
        .join(format!("{workload}-trace{}.json", u8::from(env.trace)));
    std::fs::write(&copy, format!("{result}\n"))
        .map_err(|e| format!("cannot write {copy:?}: {e}"))?;
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::FAILURE
        }
    }
}
