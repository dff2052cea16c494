//! `sim_1k`: the paper's own vehicle. A 1 024-node `SearchSystem` in
//! this process, one thread, no sockets and no codec: the only workload
//! that runs landmark selection, the metric, the Chord table build and
//! the `simnet` event queue.

use crate::cluster::{self_cpu_s, self_hwm_mb};
use crate::gen::SYSTEM_SEED;
use crate::stats::{delta, median, percentile, ratio, sum_prefix};
use crate::trace::{write, Spans, ROOT};
use crate::{affinity, micro, Env, Metrics, Outcome};
use chord::OracleRing;
use landmark::{boundary_from_metric, kmeans, Mapper};
use lph::{Grid, Rect};
use metric::{Dataset, Metric, ObjectId, L2};
use simnet::{AgentId, SimRng, SimTime, Topology};
use simsearch::telemetry::TraceEvent;
use simsearch::{IndexSpec, QueryDistance, QueryId, QuerySpec, SearchSystem, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{knn_batch, ClusteredParams, ClusteredVectors};

const NODES: usize = 1_024;
const OBJECTS: usize = 20_000;
const DIMS: usize = 12;
const LANDMARKS: usize = 5;
const SAMPLE: usize = 1_000;
const KMEANS_ITERS: usize = 8;
/// Query radius as a share of the data box's diagonal.
const RANGE_FACTOR: f64 = 0.10;
/// Queries generated per lap; the calibration lap decides how many fit.
const MAX_LAP_OPS: usize = 800;
/// The paper's mean inter-arrival time; queries never overlap.
const INTERARRIVAL_S: f64 = 150.0;
const K: usize = 10;

/// What `--seed` draws, with its exact answers: computed before the
/// harness pins itself, outside every timed stage.
struct Inputs {
    qpoints: Arc<Vec<Vec<f32>>>,
    /// Per query: the true `K` nearest within the radius, ascending.
    truth: Vec<Vec<(ObjectId, f64)>>,
    radius: f64,
}

fn dataset() -> ClusteredVectors {
    let params = ClusteredParams {
        dims: DIMS,
        n_objects: OBJECTS,
        ..ClusteredParams::default()
    };
    ClusteredVectors::generate(params, SYSTEM_SEED)
}

/// `lists` op lists of [`MAX_LAP_OPS`] queries each. Query points are
/// jittered objects, so every query has its base object within range
/// and no expected list is empty.
fn inputs(seed: u64, lists: usize) -> Inputs {
    let data = dataset();
    let mut rng = SimRng::new(seed).fork(0x51A1);
    let qpoints: Vec<Vec<f32>> = (0..lists * MAX_LAP_OPS)
        .map(|_| {
            data.objects[rng.index(OBJECTS)]
                .iter()
                .map(|&x| (x as f64 + 2.0 * rng.f64() - 1.0).clamp(0.0, 100.0) as f32)
                .collect()
        })
        .collect();
    let radius = RANGE_FACTOR * data.max_distance();
    let mut truth = knn_batch::<_, [f32], _>(&L2::new(), &Dataset::new(data.objects), &qpoints, K);
    for t in &mut truth {
        t.retain(|&(_, d)| d <= radius);
    }
    Inputs {
        qpoints: Arc::new(qpoints),
        truth,
        radius,
    }
}

/// Everything set-up produces, with how long each stage took.
struct Built {
    dataset: ClusteredVectors,
    points: Vec<Vec<f64>>,
    grid: Grid,
    system: SearchSystem,
    queries: Vec<QuerySpec>,
    stages: Vec<(&'static str, Duration)>,
}

fn config(threads: usize) -> SystemConfig {
    SystemConfig {
        n_nodes: NODES,
        seed: SYSTEM_SEED,
        threads,
        ..SystemConfig::default()
    }
}

/// Dataset, landmark selection, mapping and `SearchSystem::build` —
/// the `setup_s` of this workload.
fn set_up(inp: &Inputs, threads: usize) -> Built {
    let mut stages = Vec::new();
    let mut stage = |name: &'static str, t0: Instant| stages.push((name, t0.elapsed()));

    let t0 = Instant::now();
    let dataset = dataset();
    stage("workloads.generate", t0);

    let t0 = Instant::now();
    let mut rng = SimRng::new(SYSTEM_SEED).fork(0x5A3);
    let sample: Vec<Vec<f32>> = rng
        .sample_indices(OBJECTS, SAMPLE)
        .into_iter()
        .map(|i| dataset.objects[i].clone())
        .collect();
    let landmarks = kmeans::<_, [f32], _>(&L2::new(), &sample, LANDMARKS, KMEANS_ITERS, &mut rng);
    stage("landmark.select", t0);

    let t0 = Instant::now();
    let metric = L2::bounded(DIMS, 0.0, 100.0);
    let mapper = Mapper::new(metric, landmarks);
    let points = mapper.map_all::<[f32], _>(&dataset.objects);
    let qmapped = mapper.map_all::<[f32], _>(&inp.qpoints);
    stage("landmark.map_all", t0);

    let boundary = boundary_from_metric(&metric, LANDMARKS).expect("bounded metric");
    let queries: Vec<QuerySpec> = qmapped
        .into_iter()
        .zip(&inp.truth)
        .map(|(point, truth)| QuerySpec {
            index: 0,
            point,
            radius: inp.radius,
            truth: truth.iter().map(|&(o, _)| o).collect(),
        })
        .collect();
    // Laps replay queries under fresh, dense query ids.
    let oracle: Arc<dyn QueryDistance> = {
        let objects = Arc::new(dataset.objects.clone());
        let qpoints = Arc::clone(&inp.qpoints);
        let l2 = L2::new();
        Arc::new(move |qid: QueryId, obj: ObjectId| {
            let q = &qpoints[qid as usize % qpoints.len()];
            l2.distance(q.as_slice(), objects[obj.0 as usize].as_slice())
        })
    };
    let t0 = Instant::now();
    let spec = IndexSpec {
        name: "sim_1k".into(),
        boundary: boundary.dims.clone(),
        points: points.clone(),
        rotate: false,
        rotation: None,
    };
    let system = SearchSystem::build(config(threads), &[spec], oracle);
    stage("simsearch.build", t0);

    Built {
        dataset,
        points,
        grid: Grid::new(
            Rect::new(boundary.lows(), boundary.highs()),
            SystemConfig::default().depth,
        ),
        system,
        queries,
        stages,
    }
}

/// One lap's raw results.
#[derive(Default)]
struct Lap {
    latency_ns: Vec<u64>,
    max_hops: Vec<u64>,
    /// Distinct nodes in each query's trace events, summed (traced
    /// laps only).
    nodes_touched: u64,
    failures: Vec<String>,
    wall: Duration,
}

/// Run the first `n` queries of op list `list`, one at a time, under
/// query ids from `first_qid`: `inject_query`, run the event queue dry,
/// read the origin's record — the primitives `run_queries` is built
/// from, called per query because only that gives a per-query wall
/// time (and `run_queries`' outcome fold assumes a query id is issued
/// once per system). Each answer is verified.
fn lap(
    b: &mut Built,
    inp: &Inputs,
    list: usize,
    first_qid: usize,
    n: usize,
    budget: Option<Duration>,
    mut spans: Option<&mut Spans>,
) -> Lap {
    let mut out = Lap::default();
    let t0 = Instant::now();
    for i in 0..n {
        if budget.is_some_and(|b| t0.elapsed() >= b) {
            break;
        }
        let at = list * MAX_LAP_OPS + i;
        // Any id congruent to `at` names this query to the oracle.
        debug_assert_eq!(first_qid % inp.qpoints.len(), list * MAX_LAP_OPS);
        let qid = (first_qid + i) as QueryId;
        // The origin is part of the op: drawn from its position.
        let origin = AgentId(SimRng::new(at as u64).fork(0x0816).index(NODES));
        let when = SimTime::from_secs_f64(b.system.now().as_secs_f64() + INTERARRIVAL_S);
        let span = spans.as_mut().map(|s| s.open("simsearch.query", qid, ROOT));
        let q0 = Instant::now();
        b.system.inject_query(when, origin, qid, &b.queries[at]);
        b.system.run_to_quiescence();
        out.latency_ns.push(q0.elapsed().as_nanos() as u64);
        if let (Some(s), Some(id)) = (spans.as_mut(), span) {
            s.close(id);
        }
        let iq = b
            .system
            .issued_query(origin, qid)
            .expect("the origin records what it issued");
        out.max_hops.push(iq.max_hops as u64);
        let (want, got) = (&inp.truth[at], &iq.merged);
        let bits =
            |l: &[(ObjectId, f64)]| l.iter().map(|&(o, d)| (o, d.to_bits())).collect::<Vec<_>>();
        // Recall 1.0, exactly: the in-range nearest come first, bit for
        // bit, and whatever the L∞ bound admitted beyond them is
        // farther than the radius.
        let exact = got.len() >= want.len()
            && bits(&got[..want.len()]) == bits(want)
            && got[want.len()..].iter().all(|&(_, d)| d > inp.radius);
        if !exact {
            out.failures.push(format!(
                "sim query {at}: {} results do not start with the {} true neighbours in range",
                got.len(),
                want.len()
            ));
        }
        // Nodes touched: a traced-lap number, and cloning the trace is
        // not free, so timed laps skip it.
        let mut nodes = BTreeSet::new();
        let events = spans
            .is_some()
            .then(|| b.system.telemetry().trace(qid))
            .flatten()
            .map(|t| t.events)
            .unwrap_or_default();
        for e in events {
            match e {
                TraceEvent::Forward { from, to, .. } | TraceEvent::Handoff { from, to, .. } => {
                    nodes.extend([from, to])
                }
                TraceEvent::Answer { at, .. } => nodes.extend([at]),
                _ => {}
            }
        }
        out.nodes_touched += nodes.len() as u64;
    }
    out.wall = t0.elapsed();
    out
}

fn counters(system: &SearchSystem) -> BTreeMap<String, u64> {
    let st = system.telemetry().lock();
    st.registry
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// The timed run: `setups` set-ups, a calibration lap on list 0, then
/// `laps` laps: lists 1.. and, last, list 0 again, which must leave
/// the counter delta the calibration lap left.
pub fn run(env: &Env, setups: usize, laps: usize) -> Result<Outcome, String> {
    let inp = inputs(env.seed, laps);
    env.pin()?;
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(set_up(&inp, 1));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut b = built.expect("at least one set-up");
    let budget = Duration::from_secs_f64(env.seconds / (laps + 1) as f64);

    let before = counters(&b.system);
    let warm = lap(&mut b, &inp, 0, 0, MAX_LAP_OPS, Some(budget), None);
    let warm_delta = delta(&counters(&b.system), &before);
    let n = warm.latency_ns.len();
    let mut failures = warm.failures;
    let mut attempted = n;
    let (mut p50, mut p90, mut rate, mut cpu, mut deltas) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 1..=laps {
        let before = counters(&b.system);
        let c0 = self_cpu_s();
        let mut l = lap(&mut b, &inp, k % laps, k * MAX_LAP_OPS, n, None, None);
        cpu.push((self_cpu_s() - c0) * 1e6 / n as f64);
        attempted += n;
        failures.append(&mut l.failures);
        p50.push(percentile(&mut l.latency_ns, 0.50) / 1e3);
        p90.push(percentile(&mut l.latency_ns, 0.90) / 1e3);
        rate.push(ratio(n as f64, l.wall.as_secs_f64()));
        deltas.push(delta(&counters(&b.system), &before));
    }
    if deltas.last() != Some(&warm_delta) {
        failures.push("sim_1k: replaying list 0 left a different counter delta".to_string());
    }
    println!(
        "sim_1k: {laps} timed laps of {n} queries, one at a time, every timing a median over laps"
    );
    let mut m = Metrics::default();
    let ops = (n * laps) as f64;
    m.set("setup_s", median(&setup_s));
    m.set("query_p50_us", median(&p50));
    m.set("query_p90_us", median(&p90));
    m.set("query_ops_per_s", median(&rate));
    m.set("cpu_us_per_op", median(&cpu));
    m.set(
        "wire_bytes_per_query",
        deltas
            .iter()
            .map(|d| sum_prefix(d, "search.bytes."))
            .sum::<u64>() as f64
            / ops,
    );
    m.set(
        "msgs_per_query",
        deltas
            .iter()
            .map(|d| sum_prefix(d, "search.msgs."))
            .sum::<u64>() as f64
            / ops,
    );
    m.set("rss_peak_mb", self_hwm_mb());
    Ok(Outcome {
        attempted,
        failures,
        metrics: m,
    })
}

/// Queries per engine in the parallel-speed-up comparison.
const PAR_QUERIES: usize = 100;

/// Wall time and telemetry digest of one batch `run_queries` at
/// `threads` event-loop threads.
fn batch(inp: &Inputs, threads: usize) -> (f64, String) {
    let mut b = set_up(inp, threads);
    let t0 = Instant::now();
    b.system
        .run_queries(&b.queries[..PAR_QUERIES], INTERARRIVAL_S);
    (t0.elapsed().as_secs_f64(), b.system.telemetry_json())
}

/// The traced run: stage spans, one span per query, and the per-layer
/// numbers only the simulator has.
pub fn trace(env: &Env) -> Result<Outcome, String> {
    let inp = inputs(env.seed, 1);
    env.pin()?;
    let mut spans = Spans::new();
    let t0 = spans.now_ns();
    let mut b = set_up(&inp, 1);
    // Stage spans, laid end to end from the set-up's start.
    let mut at = t0;
    for &(name, took) in &b.stages {
        let id = spans.open(name, 0, ROOT);
        spans.spans[id as usize].start_ns = at;
        at += took.as_nanos() as u64;
        spans.spans[id as usize].end_ns = at;
    }
    let stage_ms = |name: &str| {
        b.stages
            .iter()
            .find(|s| s.0 == name)
            .map_or(0.0, |s| s.1.as_secs_f64() * 1e3)
    };
    let mut m = Metrics::default();
    m.set("landmark.select_ms", stage_ms("landmark.select"));
    m.set(
        "landmark.map_ns_per_obj",
        stage_ms("landmark.map_all") * 1e6 / (OBJECTS + MAX_LAP_OPS) as f64,
    );

    // Same lap length as the timed run: a calibration lap, then the
    // same list untraced and traced.
    let budget = Duration::from_secs_f64(env.seconds / (crate::cluster_run::LAPS + 1) as f64);
    let warm = lap(&mut b, &inp, 0, 0, MAX_LAP_OPS, Some(budget), None);
    let n = warm.latency_ns.len();
    let mut failures = warm.failures;
    let plain = lap(&mut b, &inp, 0, MAX_LAP_OPS, n, None, None);
    let before = counters(&b.system);
    let events0 = b.system.net_stats().events;
    let traced = lap(&mut b, &inp, 0, 2 * MAX_LAP_OPS, n, None, Some(&mut spans));
    let events = b.system.net_stats().events - events0;
    let c = delta(&counters(&b.system), &before);
    failures.extend(plain.failures);
    failures.extend(traced.failures.iter().cloned());
    let q = n as f64;
    let get = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    m.set(
        "trace.overhead_ratio",
        ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()),
    );
    m.set(
        "simnet.events_per_s",
        ratio(events as f64, traced.wall.as_secs_f64()),
    );
    m.set("routing.splits_per_query", get("routing.splits") / q);
    m.set(
        "routing.max_hops_p50",
        percentile(&mut traced.max_hops.clone(), 0.50),
    );
    m.set("store.scanned_per_query", get("store.entries_scanned") / q);
    m.set(
        "store.matched_per_scanned",
        ratio(get("store.entries_matched"), get("store.entries_scanned")),
    );
    m.set(
        "refine.dist_calls_per_query",
        get("search.refine.dist_calls") / q,
    );
    m.set(
        "refine.pruned_ratio",
        ratio(get("search.refine.pruned"), get("store.entries_matched")),
    );
    m.set(
        "routing.nodes_touched_per_query",
        traced.nodes_touched as f64 / q,
    );
    let loads = b.system.load_per_node(0);
    let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    m.set(
        "store.load_max_over_mean",
        ratio(*loads.iter().max().unwrap_or(&0) as f64, mean),
    );

    // chord: the table build `SearchSystem::build` runs inside, timed
    // on a ring and topology of the same size and parameters.
    let cfg = config(1);
    let topo = Topology::king_like(NODES, SYSTEM_SEED ^ 0x7070_7070, cfg.mean_rtt_ms);
    let ring = OracleRing::with_random_ids(NODES, &mut SimRng::new(SYSTEM_SEED).fork(0x0126));
    let id = spans.open("chord.build_all_tables", 0, ROOT);
    std::hint::black_box(ring.build_all_tables(cfg.n_successors, Some(&topo), cfg.pns_candidates));
    m.set("chord.build_tables_ms", spans.close(id) as f64 / 1e6);

    // simnet: the windowed parallel engine against the serial one, on
    // every CPU the host allows; both must produce the same telemetry.
    let host_cpus = affinity::count(&env.host_cpus) as usize;
    let (serial_s, serial_digest) = batch(&inp, 1);
    affinity::set(&env.host_cpus)?;
    let (par_s, par_digest) = batch(&inp, host_cpus);
    affinity::pin_to_one()?;
    if serial_digest != par_digest {
        failures.push(format!(
            "simnet: telemetry at {host_cpus} threads differs from the serial engine's"
        ));
    }
    m.set("simnet.par_speedup", ratio(serial_s, par_s));
    m.set("simnet.peak_rss_mb", self_hwm_mb());

    // Small kernels on this workload's own points and query rects.
    let rects: Vec<Rect> = b
        .queries
        .iter()
        .map(|q| Rect::ball(&q.point, q.radius, b.grid.bounds()))
        .collect();
    micro::lph(&b.grid, &b.points, &rects, &mut m);
    let names: Vec<String> = c.keys().cloned().collect();
    micro::telemetry(&names, &mut m);
    let l2 = L2::new();
    let pairs: Vec<(&Vec<f32>, &Vec<f32>)> = inp.qpoints.iter().zip(&b.dataset.objects).collect();
    m.set(
        "metric.l2_ns",
        micro::ns_per_call(&pairs, |(a, o)| l2.distance(a.as_slice(), o.as_slice())),
    );

    write(&spans.spans, 0, &env.out.join("trace-sim_1k.json"))?;
    Ok(Outcome {
        attempted: 3 * n,
        failures,
        metrics: m,
    })
}
