//! The traced run of a cluster workload: a short cluster run for what
//! only real processes show (client, runtime, `/proc`), then the same
//! ops through the in-process driver for what the layers cost.

use crate::cluster_run::{self, cpu_us_per_op, Workload};
use crate::gen::{ClusterInputs, Op};
use crate::inproc::{replay_ops, Driver, Mode};
use crate::stats::{median, percentile, ratio};
use crate::trace::{count, total_ns, write, Span};
use crate::{micro, Env, Metrics, Outcome};
use lph::Rect;
use std::collections::BTreeMap;

/// Timed windows of the cluster part of a traced run; it gets half the
/// run's seconds, so a lap is as long as a timed run's.
const TRACE_LAPS: usize = 2;

/// Counters that do not depend on how two racing connections
/// interleave: on `mixed` only these must match between cluster and
/// in-process driver. (A publish landing in a key span just
/// before or after a query changes what that query scans, not what it
/// sends.)
fn order_independent(name: &str) -> bool {
    name.starts_with("search.msgs.")
        || name.starts_with("routing.")
        || matches!(
            name,
            "search.bytes.query" | "search.bytes.publish" | "publish.stored"
        )
}

/// Spans written to `trace-<workload>.json`.
const TRACE_FILE_SPANS: usize = 20_000;

/// The in-process driver's summed counters must equal the cluster's for
/// the same ops (the repo's sim-vs-socket parity property), or the
/// layer numbers describe some other execution. Two counters are
/// compared as a sum: how many candidates the ranking loop skips
/// depends on the order equal-key entries sit in a store, which is the
/// order two racing publish connections delivered them in.
fn parity(
    inproc: &BTreeMap<String, u64>,
    cluster: &BTreeMap<String, u64>,
    strict: bool,
) -> Result<(), String> {
    let canon = |c: &BTreeMap<String, u64>| {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (k, v) in c.iter().filter(|(k, _)| strict || order_independent(k)) {
            let key = match k.as_str() {
                "search.refine.dist_calls" | "search.refine.pruned" => {
                    "search.refine.dist_calls+pruned"
                }
                k => k,
            };
            *out.entry(key.to_string()).or_insert(0) += v;
        }
        out
    };
    let (a, b) = (canon(inproc), canon(cluster));
    if a == b {
        return Ok(());
    }
    let diff: Vec<String> = a
        .keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| {
            format!(
                "{k}: {:?} in process, {:?} on the cluster",
                a.get(k),
                b.get(k)
            )
        })
        .collect();
    Err(format!(
        "trace rejected: counters differ: {}",
        diff.join("; ")
    ))
}

fn per(total_ns: u64, count: u64) -> f64 {
    ratio(total_ns as f64, count as f64)
}

/// Spans of one in-process pass: all of them, and the op phase (what
/// follows the corpus publish).
struct Pass<'a> {
    all: &'a [Span],
    phase: &'a [Span],
}

/// Per-layer numbers of the in-process passes. Returns the op phase's
/// pipeline time.
fn layer_metrics(pipe: &Pass, kern: &Pass, ops: u64, m: &mut Metrics) -> u64 {
    let (enc, enc_res) = ("wire.encode", "wire.encode.results");
    let encode = total_ns(pipe.phase, enc) + total_ns(pipe.phase, enc_res);
    let decode = total_ns(pipe.phase, "wire.decode");
    m.set(
        "wire.encode_ns_per_msg",
        per(encode, count(pipe.phase, enc) + count(pipe.phase, enc_res)),
    );
    m.set(
        "wire.encode_ns_per_results_msg",
        per(total_ns(pipe.phase, enc_res), count(pipe.phase, enc_res)),
    );
    m.set(
        "wire.decode_ns_per_msg",
        per(decode, count(pipe.phase, "wire.decode")),
    );
    let mut dispatch = 0;
    for (kind, name) in [
        ("issue", "sansio.dispatch.issue"),
        ("route", "sansio.dispatch.route"),
        ("refine", "sansio.dispatch.refine"),
        ("results", "sansio.dispatch.results"),
        ("publish", "sansio.dispatch.publish"),
    ] {
        // Publishes are mostly in the corpus phase: count them all.
        let from = if kind == "publish" {
            pipe.all
        } else {
            pipe.phase
        };
        m.set(
            &format!("sansio.dispatch_ns_per_{kind}"),
            per(total_ns(from, name), count(from, name)),
        );
        dispatch += total_ns(pipe.phase, name);
    }
    let route = total_ns(kern.phase, "replay.route");
    let scan = total_ns(kern.phase, "replay.scan");
    let prune = total_ns(kern.phase, "replay.prune");
    let dist = total_ns(kern.phase, "replay.dist");
    let insert = total_ns(kern.phase, "replay.insert");
    m.set(
        "sansio.dispatch_self_ns_per_query",
        per(
            dispatch.saturating_sub(route + scan + prune + dist + insert),
            ops,
        ),
    );
    m.set(
        "routing.route_ns_per_subquery",
        per(route, count(kern.phase, "replay.route")),
    );
    m.set("store.scan_ns_per_query", per(scan, ops));
    m.set(
        "store.insert_ns_per_publish",
        per(
            total_ns(kern.all, "replay.insert"),
            count(kern.all, "replay.insert"),
        ),
    );
    m.set("refine.prune_ns_per_query", per(prune, ops));
    m.set("refine.dist_ns_per_query", per(dist, ops));
    let pipeline = total_ns(pipe.phase, "op.query") + total_ns(pipe.phase, "op.publish");
    m.set(
        "trace.store_refine_share",
        ratio((scan + prune + dist) as f64, pipeline as f64),
    );
    m.set(
        "trace.message_path_share",
        ratio(
            (encode + decode + dispatch.saturating_sub(scan + prune + dist + insert)) as f64,
            pipeline as f64,
        ),
    );
    pipeline
}

pub fn run(env: &Env, w: &Workload) -> Result<Outcome, String> {
    let base = ClusterInputs::new(w.shape, w.n_objects, w.radius, env.seed);
    let run = cluster_run::run(env, w, &base, 1, TRACE_LAPS, env.seconds / 2.0, true)?;
    let mut m = Metrics::default();
    let mut failures = run.failures.clone();
    if !failures.is_empty() {
        return Ok(Outcome {
            attempted: run.attempted,
            failures,
            metrics: m,
        });
    }

    // --- what only the cluster shows -------------------------------
    let done: Vec<_> = run.windows.iter().flat_map(|w| &w.queries).collect();
    let ops: usize = run.windows.iter().map(|w| w.ops).sum();
    m.set(
        "client.polls_per_query",
        ratio(done.iter().map(|d| d.polls as f64).sum(), done.len() as f64),
    );
    let p99: Vec<f64> = run
        .windows
        .iter()
        .map(|w| {
            percentile(
                &mut w.queries.iter().map(|d| d.latency_ns).collect::<Vec<_>>(),
                0.99,
            ) / 1e3
        })
        .collect();
    m.set("client.query_p99_us", median(&p99));
    if w.mixed {
        let acks: Vec<f64> = run
            .windows
            .iter()
            .map(|w| percentile(&mut w.publish_ack_ns.clone(), 0.50) / 1e3)
            .collect();
        m.set("client.publish_ack_p50_us", median(&acks));
        m.set("client.knee_ops_per_s", run.ramp.knee_ops_per_s);
        m.set("client.sched_lag_p90_us", run.ramp.sched_lag_p90_us);
        m.set("client.backlog_max", run.ramp.backlog_max);
    }
    let cluster_cpu_us = cpu_us_per_op(&run.windows);
    let ctx: u64 = run.windows.iter().map(|w| w.ctx_switches).sum();
    m.set(
        "runtime.ctx_switches_per_query",
        ratio(ctx as f64, ops as f64),
    );
    let threads = &run.last_proc.threads;
    m.set(
        "runtime.threads_per_node",
        ratio(threads.iter().sum::<u64>() as f64, threads.len() as f64),
    );
    let cpu_of = |node: usize| run.windows.iter().map(|w| w.cpu_ticks[node]).sum::<u64>();
    let total_cpu: u64 = (0..w.shape.n_nodes).map(cpu_of).sum();
    m.set(
        "runtime.origin_cpu_share",
        ratio(
            run.origins.iter().map(|&o| cpu_of(o)).sum::<u64>() as f64,
            total_cpu as f64,
        ),
    );
    let rtts: Vec<f64> = run
        .windows
        .iter()
        .map(|w| w.stats_rtt.as_secs_f64() * 1e6)
        .collect();
    m.set("telemetry.stats_roundtrip_us", median(&rtts));

    // --- the same ops, in process: untraced, pipeline spans, kernels
    let pass = |mode: Mode| {
        let mut driver = Driver::new(&base, mode);
        replay_ops(
            &mut driver,
            &base.corpus,
            &run.replay,
            &run.origins,
            w.radius,
        )
        .map(|(wall, counters, mark)| (driver, wall, counters, mark))
    };
    let (_, plain_wall, ..) = pass(Mode::Plain)?;
    let (pipe, pipe_wall, counters, pipe_mark) = pass(Mode::Pipeline)?;
    let (kern, _, _, kern_mark) = pass(Mode::Kernels)?;
    if let Err(e) = parity(&counters, &run.reference, !w.mixed) {
        failures.push(e);
    }
    let get = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    if kern.tally.replay_scanned as f64 != get("store.entries_scanned")
        || kern.tally.replay_dist_calls as f64 != get("search.refine.dist_calls")
    {
        failures.push(format!(
            "trace rejected: kernel replays scanned {} and ranked {} entries, the handlers {} and {}",
            kern.tally.replay_scanned,
            kern.tally.replay_dist_calls,
            get("store.entries_scanned"),
            get("search.refine.dist_calls")
        ));
    }

    let t = &pipe.tally;
    let n_ops = t.queries + t.publishes - base.corpus.len() as u64;
    let queries = t.queries as f64;
    let pipe_pass = Pass {
        all: &pipe.spans.spans,
        phase: &pipe.spans.spans[pipe_mark..],
    };
    let kern_pass = Pass {
        all: &kern.spans.spans,
        phase: &kern.spans.spans[kern_mark..],
    };
    let pipeline_ns = layer_metrics(&pipe_pass, &kern_pass, n_ops, &mut m);
    m.set(
        "runtime.overhead_us_per_query",
        cluster_cpu_us - pipeline_ns as f64 / 1e3 / n_ops as f64,
    );
    m.set(
        "trace.overhead_ratio",
        ratio(pipe_wall.as_secs_f64(), plain_wall.as_secs_f64()),
    );
    m.set(
        "wire.bytes_per_msg",
        ratio(t.frame_bytes as f64, t.frames as f64),
    );
    m.set("routing.splits_per_query", get("routing.splits") / queries);
    m.set(
        "routing.max_hops_p50",
        percentile(&mut t.max_hops.clone(), 0.50),
    );
    m.set(
        "routing.nodes_touched_per_query",
        t.nodes_touched as f64 / queries,
    );
    m.set(
        "store.scanned_per_query",
        get("store.entries_scanned") / queries,
    );
    m.set(
        "store.matched_per_scanned",
        ratio(get("store.entries_matched"), get("store.entries_scanned")),
    );
    m.set(
        "refine.dist_calls_per_query",
        get("search.refine.dist_calls") / queries,
    );
    m.set(
        "refine.pruned_ratio",
        ratio(get("search.refine.pruned"), get("store.entries_matched")),
    );
    let loads = pipe.loads();
    // (`mixed`'s cluster also stored the calibration lap's publishes.)
    if !w.mixed && loads.iter().sum::<u64>() != run.loads.iter().sum::<u64>() {
        failures.push(format!(
            "trace rejected: in-process nodes store {loads:?}, the cluster {:?}",
            run.loads
        ));
    }
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    m.set(
        "store.load_max_over_mean",
        ratio(*loads.iter().max().unwrap_or(&0) as f64, mean),
    );

    // --- small kernels on this workload's own inputs -----------------
    let centers = run.replay.iter().flatten().filter_map(|op| match op {
        Op::Query(q) => Some(&q.center),
        Op::Publish { .. } => None,
    });
    let rects: Vec<Rect> = centers
        .take(2_000)
        .map(|c| Rect::ball(c, w.radius, base.grid.bounds()))
        .collect();
    micro::lph(&base.grid, &base.corpus, &rects, &mut m);
    let names: Vec<String> = counters.keys().cloned().collect();
    micro::telemetry(&names, &mut m);

    // The file is for reading, the metrics above came from memory:
    // keep the first ops of the op phase, not a hundred megabytes.
    let shown = &pipe_pass.phase[..pipe_pass.phase.len().min(TRACE_FILE_SPANS)];
    write(
        shown,
        pipe_mark as u32,
        &env.out.join(format!("trace-{}.json", w.name)),
    )?;
    Ok(Outcome {
        attempted: run.attempted,
        failures,
        metrics: m,
    })
}
