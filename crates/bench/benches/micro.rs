//! Criterion microbenchmarks of the hot kernels: locality-preserving
//! hashing, query splitting, metric evaluations, landmark selection,
//! local routing decisions, and the query-path performance kernels
//! (span- and bounds-narrowed store scans, store inserts, one node's
//! refine answer through `sansio::dispatch` with the parent's sniffed
//! oracle and with the stored-vector one, lower-bound pruning, parallel
//! mapping).
//!
//! Besides the timing suite, this target emits the canonical
//! `BENCH_micro.json` (work counters of the 64-node scenario plus kernel
//! timings) under `target/experiments/`, and doubles as the CI
//! `bench-smoke` gate: with `BENCH_SMOKE=1` it runs the quick scenario
//! only and fails the process when the scanned/pruned counters regress
//! past the thresholds checked in below (`MAX_SCANNED_QUICK` etc.).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bench::micro_report::run_micro_scenario;
use criterion::{black_box, criterion_group, Criterion};
use landmark::{greedy, Mapper};
use lph::{Grid, Prefix, Rect, Rotation};
use metric::{Angular, EditDistance, Metric, ObjectId, SparseVector, L2};
use node::scenario::{l2, rotation, Scenario, StoredL2, KNN_K};
use rand::RngCore;
use sansio::{dispatch, Input, Links, Output, ProtoCtx};
use simnet::{AgentId, SimDuration, SimRng, SimTime};
use simsearch::msg::DistanceOracle;
use simsearch::node::IndexState;
use simsearch::{
    route_subquery, Entry, QueryBall, QueryDistance, QueryId, SearchMsg, SearchNode, Store,
    SubQueryMsg,
};

fn bench_lph(c: &mut Criterion) {
    let grid = Grid::uniform(10, 0.0, 1000.0);
    let mut rng = SimRng::new(1);
    let point: Vec<f64> = (0..10).map(|_| rng.f64() * 1000.0).collect();
    c.bench_function("lph/hash_10d_64bit", |b| {
        b.iter(|| grid.hash(black_box(&point)))
    });

    let rect = Rect::ball(&point, 25.0, grid.bounds());
    c.bench_function("lph/enclosing_prefix_10d", |b| {
        b.iter(|| grid.enclosing_prefix(black_box(&rect)))
    });

    let sq = lph::SubQuery {
        rect: rect.clone(),
        prefix: grid.enclosing_prefix(&rect),
    };
    c.bench_function("lph/split_10d", |b| b.iter(|| grid.split(black_box(&sq))));

    c.bench_function("lph/cell_decode_depth64", |b| {
        let key = grid.hash(&point);
        b.iter(|| grid.cell(Prefix::of_key(black_box(key), 64)))
    });
}

fn bench_metrics(c: &mut Criterion) {
    let mut rng = SimRng::new(2);
    let a: Vec<f32> = (0..100).map(|_| rng.f64() as f32 * 100.0).collect();
    let b: Vec<f32> = (0..100).map(|_| rng.f64() as f32 * 100.0).collect();
    let l2 = L2::new();
    c.bench_function("metric/l2_100d", |bch| {
        bch.iter(|| l2.distance(black_box(&a[..]), black_box(&b[..])))
    });

    let s1 = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT";
    let s2 = "ACGTACGAACGTACGTACCTACGTACGTACGAACGTACGTACGTTCGTACGTACGTACGTACG";
    c.bench_function("metric/edit_64ch", |bch| {
        bch.iter(|| EditDistance::levenshtein(black_box(s1.as_bytes()), black_box(s2.as_bytes())))
    });

    let mk_sparse = |n: usize, seed: u64| {
        let mut r = SimRng::new(seed);
        SparseVector::new(
            (0..n)
                .map(|_| (r.below(40_000) as u32, r.f64() as f32 + 0.1))
                .collect(),
        )
    };
    let d1 = mk_sparse(150, 3);
    let d2 = mk_sparse(150, 4);
    let ang = Angular::new();
    c.bench_function("metric/angular_150nnz", |bch| {
        bch.iter(|| ang.distance(black_box(&d1), black_box(&d2)))
    });
}

fn bench_selection(c: &mut Criterion) {
    let mut rng = SimRng::new(5);
    let sample: Vec<Vec<f32>> = (0..500)
        .map(|_| (0..10).map(|_| rng.f64() as f32 * 100.0).collect())
        .collect();
    c.bench_function("landmark/greedy_500x10d_k10", |b| {
        b.iter(|| {
            let mut r = SimRng::new(7);
            greedy::<_, [f32], _>(&L2::new(), black_box(&sample), 10, &mut r)
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let mut rng = SimRng::new(6);
    let ring = chord::OracleRing::with_random_ids(256, &mut rng);
    let tables = ring.build_all_tables(16, None, 16);
    let grid = Grid::uniform(10, 0.0, 1000.0);
    let center: Vec<f64> = (0..10).map(|_| rng.f64() * 1000.0).collect();
    let rect = Rect::ball(&center, 50.0, grid.bounds());
    let sq = SubQueryMsg {
        qid: 0,
        index: 0,
        rect: rect.clone(),
        prefix: grid.enclosing_prefix(&rect),
        hops: 0,
        origin: simnet::AgentId(0),
        ball: None,
        shortcut: false,
    };
    c.bench_function("routing/route_subquery_256nodes", |b| {
        b.iter(|| {
            route_subquery(
                black_box(&tables[10]),
                &grid,
                Rotation::IDENTITY,
                black_box(sq.clone()),
                true,
            )
        })
    });
    let key = chord::ChordId(rng.next_u64());
    c.bench_function("chord/route_256nodes", |b| {
        b.iter(|| tables[10].route(black_box(key)))
    });
}

/// A populated store plus a query rect and its key span, shaped like the
/// 64-node scenario's per-node state (clustered 5-d index points).
fn scan_fixture() -> (Store, Rect, (u64, u64)) {
    let mut rng = SimRng::new(0xA5);
    let grid = Grid::uniform(5, 0.0, 100.0);
    let mut store = Store::new();
    let point = |r: &mut SimRng| -> Vec<f64> {
        let c = (r.below(4) * 25) as f64;
        (0..5)
            .map(|_| (c + r.f64() * 12.0).clamp(0.0, 100.0))
            .collect()
    };
    store.extend((0..4_000u32).map(|i| {
        let p = point(&mut rng);
        Entry {
            ring_key: grid.hash(&p),
            obj: ObjectId(i),
            point: p.into_boxed_slice(),
        }
    }));
    let center = point(&mut rng);
    let rect = Rect::ball(&center, 6.0, grid.bounds());
    let span = grid.key_span(&rect);
    (store, rect, span)
}

/// The repo benchmark's `wide` corpus — 60 000 uniform points of
/// `[0, 1]^5` keyed by a depth-12 grid, in publish order — and a query
/// ball of radius 0.25 with its box (side 0.5) and key span.
fn wide_corpus() -> (Vec<Entry>, QueryBall, Rect, (u64, u64)) {
    let mut rng = SimRng::new(0xE3);
    let grid = Grid::new(Rect::cube(5, 0.0, 1.0), 12);
    let entries = (0..60_000u32)
        .map(|i| {
            let p: Vec<f64> = (0..5).map(|_| rng.f64()).collect();
            Entry {
                ring_key: grid.hash(&p),
                obj: ObjectId(i),
                point: p.into_boxed_slice(),
            }
        })
        .collect();
    let center: Vec<f64> = (0..5).map(|_| 0.25 + 0.5 * rng.f64()).collect();
    let rect = Rect::ball(&center, 0.25, grid.bounds());
    let span = grid.key_span(&rect);
    let ball = QueryBall {
        center: center.into(),
        radius: 0.25,
    };
    (entries, ball, rect, span)
}

/// One node's store of [`wide_corpus`]: the ≈ 7 500 entries whose key
/// falls in the first eighth of the ring, in publish order, so the
/// insert case can time building the store from them.
fn wide_fixture() -> (Vec<Entry>, QueryBall, Rect, (u64, u64)) {
    let (mut entries, ball, rect, span) = wide_corpus();
    entries.retain(|e| e.ring_key < 1 << 61);
    (entries, ball, rect, span)
}

/// A store filled the way a node's is: one publish at a time.
fn store_by_insert(entries: &[Entry]) -> Store {
    let mut store = Store::new();
    for e in entries {
        store.insert(e.clone());
    }
    store
}

/// The parent commit's runtime oracle, kept only as the refine kernel's
/// baseline: query centers and object points sniffed out of every frame
/// into two maps behind one lock, both looked up per distance call.
#[derive(Default)]
struct SniffedMaps {
    centers: HashMap<QueryId, Arc<[f64]>>,
    points: HashMap<u32, Box<[f64]>>,
}

/// Queries one `wide` node sees in a 20 s run at ≈ 1 000 q/s. The
/// baseline's center map holds one per query (it never shrank), and the
/// kernel's answers cycle through them, a new query id each.
const QUERIES_SEEN: u32 = 20_000;

/// One refinement call as the node makes it: `(qid, object, ball, stored
/// vector)`.
type RefineCall = (QueryId, ObjectId, QueryBall, Box<[f64]>);

/// Wraps an oracle and records every refinement call made through it.
struct Recorder {
    inner: DistanceOracle,
    calls: Mutex<Vec<RefineCall>>,
}

impl QueryDistance for Recorder {
    fn distance(&self, qid: QueryId, obj: ObjectId) -> f64 {
        self.inner.distance(qid, obj)
    }

    fn refine(&self, qid: QueryId, obj: ObjectId, ball: Option<&QueryBall>, stored: &[f64]) -> f64 {
        let b = ball.expect("the kernel's query has a ball").clone();
        self.calls
            .lock()
            .unwrap()
            .push((qid, obj, b, stored.into()));
        self.inner.refine(qid, obj, ball, stored)
    }
}

/// One answering node of the `wide` cluster — node 1 of 8 owns the
/// fixture's first eighth of the ring — holding [`wide_fixture`]'s store,
/// and the side-0.5 `Refine` it is handed.
struct RefineKernel {
    node: SearchNode,
    refine: SubQueryMsg,
    /// `Some` for the baseline, which sniffs each frame before dispatch.
    /// It holds every corpus point (publishes are routed through a node,
    /// so it sniffs most of them) and [`QUERIES_SEEN`] centers.
    sniffed: Option<Arc<Mutex<SniffedMaps>>>,
}

/// Round trips never matter here: resilience is off.
struct NoLinks;

impl Links for NoLinks {
    fn rtt_to(&self, _other: AgentId) -> SimDuration {
        SimDuration(0)
    }
}

impl RefineKernel {
    fn new(sniffed: bool) -> RefineKernel {
        let (entries, ball, rect, _) = wide_fixture();
        let sc = Scenario {
            dims: 5,
            depth: 12,
            ..Scenario::new(8)
        };
        let grid = Arc::new(sc.grid());
        let table = sc.ring().build_all_tables(16, None, 16).swap_remove(1);
        let mut maps = SniffedMaps::default();
        if sniffed {
            let corpus = wide_corpus().0;
            maps.points = corpus.into_iter().map(|e| (e.obj.0, e.point)).collect();
            maps.centers = (0..QUERIES_SEEN)
                .map(|q| (q, ball.center.clone()))
                .collect();
        }
        let maps = Arc::new(Mutex::new(maps));
        let oracle: DistanceOracle = if sniffed {
            let m = Arc::clone(&maps);
            Arc::new(move |qid: QueryId, obj: ObjectId| {
                let d = m.lock().unwrap();
                l2(&d.centers[&qid], &d.points[&obj.0])
            })
        } else {
            Arc::new(StoredL2)
        };
        let index = IndexState {
            grid: Arc::clone(&grid),
            rotation: rotation(),
            store: store_by_insert(&entries),
        };
        let refine = SubQueryMsg {
            qid: 0,
            index: 0,
            prefix: grid.enclosing_prefix(&rect),
            rect,
            hops: 1,
            origin: AgentId(0),
            ball: Some(ball),
            shortcut: false,
        };
        RefineKernel {
            node: SearchNode::new(table, vec![index], oracle, KNN_K, None),
            refine,
            sniffed: sniffed.then_some(maps),
        }
    }

    /// One answer to the next query, driven as the runtime drives it.
    fn answer(&mut self) -> Vec<Output<SearchMsg>> {
        let qid = (self.refine.qid + 1) % QUERIES_SEEN;
        self.refine.qid = qid;
        if let Some(maps) = &self.sniffed {
            let ball = self
                .refine
                .ball
                .as_ref()
                .expect("the kernel's query has a ball");
            let mut maps = maps.lock().unwrap();
            maps.centers
                .entry(qid)
                .or_insert_with(|| ball.center.clone());
        }
        let msg = SearchMsg::Refine(self.refine.clone());
        let mut ctx = ProtoCtx::new(AgentId(1), SimTime::ZERO, 8, &NoLinks);
        let from = AgentId(0);
        dispatch(&mut self.node, &mut ctx, Input::Message { from, msg });
        ctx.into_outputs()
    }

    /// The refinement calls of one answer.
    fn record(&mut self) -> Vec<RefineCall> {
        let recorder = Arc::new(Recorder {
            inner: Arc::clone(&self.node.oracle),
            calls: Mutex::new(Vec::new()),
        });
        let inner = std::mem::replace(&mut self.node.oracle, recorder.clone());
        self.answer();
        self.node.oracle = inner;
        let calls = recorder.calls.lock().unwrap().clone();
        calls
    }

    /// The node's oracle on `calls` alone — one answer's refinement cost.
    fn refine_all(&self, calls: &[RefineCall]) -> f64 {
        let oracle = &self.node.oracle;
        calls
            .iter()
            .map(|(qid, obj, ball, stored)| oracle.refine(*qid, *obj, Some(ball), stored))
            .sum()
    }
}

fn bench_store_scan(c: &mut Criterion) {
    let (store, rect, span) = scan_fixture();
    c.bench_function("store/scan_full_4000", |b| {
        b.iter(|| store.scan_range(black_box(&rect), black_box((0, u64::MAX))))
    });
    c.bench_function("store/scan_range_4000", |b| {
        b.iter(|| store.scan_range(black_box(&rect), black_box(span)))
    });
    let (entries, _, rect, span) = wide_fixture();
    let store = store_by_insert(&entries);
    c.bench_function("store/scan_range_wide_7500", |b| {
        b.iter(|| store.scan_range(black_box(&rect), black_box(span)))
    });
    c.bench_function("store/insert_wide_7500", |b| {
        b.iter(|| store_by_insert(black_box(&entries)))
    });
}

fn bench_refine(c: &mut Criterion) {
    for (name, sniffed) in [
        ("refine/wide_7500_sniffed_maps", true),
        ("refine/wide_7500_stored_l2", false),
    ] {
        let mut kernel = RefineKernel::new(sniffed);
        c.bench_function(name, |b| b.iter(|| kernel.answer()));
    }
}

fn bench_prune(c: &mut Criterion) {
    let mut rng = SimRng::new(0xB7);
    let bounds = Rect::cube(5, 0.0, 100.0);
    let center: Vec<f64> = (0..5).map(|_| rng.f64() * 110.0 - 5.0).collect();
    let ball = QueryBall {
        center: center.into(),
        radius: 10.0,
    };
    let point: Vec<f64> = (0..5).map(|_| rng.f64() * 100.0).collect();
    c.bench_function("prune/lower_bound_5d", |b| {
        b.iter(|| ball.lower_bound(black_box(&point), black_box(&bounds)))
    });
}

fn bench_map_all(c: &mut Criterion) {
    let mut rng = SimRng::new(0xC9);
    let objs: Vec<Vec<f32>> = (0..4_000)
        .map(|_| (0..100).map(|_| rng.f64() as f32 * 100.0).collect())
        .collect();
    let landmarks: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..100).map(|_| rng.f64() as f32 * 100.0).collect())
        .collect();
    let mapper = Mapper::new(L2::new(), landmarks);
    c.bench_function("landmark/map_seq_4000x100d_k10", |b| {
        b.iter(|| -> Vec<Vec<f64>> {
            objs.iter()
                .map(|o| mapper.map(o.as_slice()).into_vec())
                .collect()
        })
    });
    c.bench_function("landmark/map_all_par_4000x100d_k10", |b| {
        b.iter(|| mapper.map_all::<[f32], _>(black_box(&objs)))
    });
}

fn bench_e2e(c: &mut Criterion) {
    c.bench_function("e2e/64node_query_batch_quick", |b| {
        b.iter(|| run_micro_scenario(true))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30);
    targets = bench_lph, bench_metrics, bench_selection, bench_routing, bench_store_scan,
        bench_refine, bench_prune, bench_map_all, bench_e2e
}

/// Median-free, budget-bound mean ns/iter — same loop the criterion shim
/// uses, but returning the number so it can land in `BENCH_micro.json`.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < budget / 4 {
        f();
    }
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        f();
        iters += 1;
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Kernel timings for the JSON report (counters carry the guarantees;
/// these numbers are indicative, machine-dependent wall clock).
fn kernel_timings(budget: Duration) -> serde_json::Value {
    let (store, rect, span) = scan_fixture();
    let scan_full = time_ns(budget, || {
        black_box(store.scan_range(black_box(&rect), black_box((0, u64::MAX))));
    });
    let scan_range = time_ns(budget, || {
        black_box(store.scan_range(black_box(&rect), black_box(span)));
    });
    let (entries, _, rect, span) = wide_fixture();
    let store = store_by_insert(&entries);
    let wide_stats = store.scan_range(&rect, span).1;
    let scan_wide = time_ns(budget, || {
        black_box(store.scan_range(black_box(&rect), black_box(span)));
    });
    let insert_wide = time_ns(budget, || {
        black_box(store_by_insert(black_box(&entries)));
    }) / entries.len() as f64;

    // The same answer through the parent's sniffed maps and through the
    // stored vector, whole and its refinement calls alone: identical
    // work, so identical calls with identical distances.
    let [sniffed, stored] = [true, false].map(|sniffed| {
        let mut kernel = RefineKernel::new(sniffed);
        let calls = kernel.record();
        let answer_ns = time_ns(budget, || {
            black_box(kernel.answer());
        });
        let dist_ns = time_ns(budget, || {
            black_box(kernel.refine_all(black_box(&calls)));
        });
        (answer_ns, dist_ns, calls.len(), kernel.refine_all(&calls))
    });
    assert_eq!(
        (sniffed.2, sniffed.3.to_bits()),
        (stored.2, stored.3.to_bits()),
        "both oracles make the same calls and find the same distances"
    );

    let mut rng = SimRng::new(0xD1);
    let bounds = Rect::cube(5, 0.0, 100.0);
    let ball = QueryBall {
        center: (0..5)
            .map(|_| rng.f64() * 110.0 - 5.0)
            .collect::<Vec<f64>>()
            .into(),
        radius: 10.0,
    };
    let pt: Vec<f64> = (0..5).map(|_| rng.f64() * 100.0).collect();
    let lower_bound = time_ns(budget, || {
        black_box(ball.lower_bound(black_box(&pt), black_box(&bounds)));
    });

    let objs: Vec<Vec<f32>> = (0..4_000)
        .map(|_| (0..100).map(|_| rng.f64() as f32 * 100.0).collect())
        .collect();
    let landmarks: Vec<Vec<f32>> = (0..10)
        .map(|_| (0..100).map(|_| rng.f64() as f32 * 100.0).collect())
        .collect();
    let mapper = Mapper::new(L2::new(), landmarks);
    let map_seq = time_ns(budget, || {
        let v: Vec<Vec<f64>> = objs
            .iter()
            .map(|o| mapper.map(o.as_slice()).into_vec())
            .collect();
        black_box(v);
    });
    let map_par = time_ns(budget, || {
        black_box(mapper.map_all::<[f32], _>(&objs));
    });

    serde_json::json!({
        "scan_full_4000_ns": scan_full,
        "scan_range_4000_ns": scan_range,
        "scan_range_wide_7500_ns": scan_wide,
        "scan_range_wide_7500_scanned": wide_stats.scanned,
        "scan_range_wide_7500_matched": wide_stats.matched,
        "insert_wide_7500_ns_per_entry": insert_wide,
        "refine_wide_7500_dist_calls_per_answer": stored.2,
        "refine_wide_7500_sniffed_maps_ns_per_answer": sniffed.0,
        "refine_wide_7500_stored_l2_ns_per_answer": stored.0,
        "refine_wide_7500_sniffed_maps_dist_ns_per_answer": sniffed.1,
        "refine_wide_7500_stored_l2_dist_ns_per_answer": stored.1,
        "lower_bound_5d_ns": lower_bound,
        "map_seq_4000x100d_k10_ns": map_seq,
        "map_all_par_4000x100d_k10_ns": map_par,
    })
}

fn main() {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let quick = smoke || std::env::var_os("MICRO_QUICK").is_some();

    if !smoke {
        benches();
    }

    let counters = run_micro_scenario(quick);
    let mode = if quick { "quick" } else { "full" };
    println!(
        "\ne2e/64node[{mode}]: scanned {} -> {} ({:.2}x), dist_calls {} -> {} \
         (pruned {}), recall {:.3}",
        counters.scanned_before(),
        counters.scanned,
        counters.scan_reduction(),
        counters.dist_calls_before(),
        counters.dist_calls,
        counters.pruned,
        counters.mean_recall,
    );

    if smoke {
        // Persist the measured counters before any threshold exit so CI
        // can attach them to a failed run.
        bench::report::save_json(
            "BENCH_micro_smoke",
            &serde_json::json!({
                "e2e_64node": counters,
            }),
        );
        check_thresholds(&counters);
        return;
    }

    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(500)
    };
    let report = serde_json::json!({
        "scenario": format!("64-node clustered-vector query batch ({mode})"),
        "e2e_64node": counters,
        "kernels": kernel_timings(budget),
    });
    bench::report::save_json("BENCH_micro", &report);
}

/// Checked-in smoke thresholds for the quick (`BENCH_SMOKE=1`) scenario.
/// The counters are fully deterministic — current values are scanned
/// 4443, pruned 18, recall 1.0 — so the margins below only have to
/// absorb intentional scenario retuning, not noise. Tighten or loosen
/// them in the same commit as the behavior change they reflect.
const MAX_SCANNED_QUICK: u64 = 6_000;
const MIN_PRUNED_QUICK: u64 = 10;
const MIN_RECALL: f64 = 1.0;

/// The CI gate: deterministic counters of the quick scenario against the
/// checked-in thresholds. Exits non-zero on regression.
fn check_thresholds(counters: &bench::micro_report::MicroCounters) {
    let max_scanned = MAX_SCANNED_QUICK;
    let min_pruned = MIN_PRUNED_QUICK;
    let min_recall = MIN_RECALL;
    let mut failed = false;
    if counters.scanned > max_scanned {
        eprintln!(
            "bench-smoke FAIL: scanned {} exceeds threshold {max_scanned} — \
             the store scan's key-span or block-bounds narrowing regressed",
            counters.scanned
        );
        failed = true;
    }
    if counters.pruned < min_pruned {
        eprintln!(
            "bench-smoke FAIL: search.refine.pruned {} below threshold {min_pruned} — \
             the landmark lower-bound prune regressed",
            counters.pruned
        );
        failed = true;
    }
    if counters.mean_recall < min_recall {
        eprintln!(
            "bench-smoke FAIL: recall {} below {min_recall} — pruning dropped answers",
            counters.mean_recall
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "bench-smoke OK: scanned {} <= {max_scanned}, pruned {} >= {min_pruned}, recall {}",
        counters.scanned, counters.pruned, counters.mean_recall
    );
}
