//! The sustained-load scenario behind `BENCH_load.json` and the CI
//! `load-smoke` gate.
//!
//! Where `scale_report` asks how cost grows with overlay size,
//! this scenario asks **how much offered rate one overlay sustains**:
//! a Zipf-skewed open-loop mix of range queries, knn queries, and
//! runtime publishes is driven through `simsearch::loadgen` with the
//! finite per-node service model on, and a capacity search finds the
//! highest offered QPS whose p99 latency and error rate stay inside the
//! SLO. Two scenarios share one dataset:
//!
//! * **plain** — healthy network. The baseline capacity knee.
//! * **loss_churn** — 1% message loss plus two crash/restart pairs,
//!   `r = 2` replication with retry/failover. The SLO allows a small
//!   error budget; completed queries must still have recall 1.0.
//!
//! Everything but the `timing` block is deterministic in the seed: the
//! plan is drawn before the system is built (the distance oracle is
//! keyed by qid), each capacity probe builds a fresh system, and probed
//! rates follow a doubling-then-bisection ladder from a fixed base.

use std::sync::Arc;

use metric::{Metric, ObjectId, L2};
use serde_json::{ToJson, Value};
use simnet::{AgentId, ArrivalProcess, SimDuration, SimRng};
use simsearch::loadgen::{self, LoadPools};
use simsearch::{
    CapacityResult, LoadConfig, LoadOutcome, QueryDistance, QueryMix, QuerySpec, ResilienceConfig,
    SearchSystem, SloSpec, SystemConfig,
};

use crate::fixture::{l2_oracle, peak_rss_kb, Corpus, KNN_K};
/// Per-message service time of the finite-capacity model: what turns
/// offered rate into queueing delay and gives the SLO a knee to find.
const SERVICE_MS: f64 = 2.0;
/// Per-query completion deadline; a query with no first result by then
/// is an error.
const DEADLINE_S: u64 = 10;
/// Uniform message loss rate of the `loss_churn` scenario.
const LOSS_RATE: f64 = 0.01;
/// Crash/restart pairs injected across the admission span.
const CHURN_PAIRS: usize = 2;
/// Node indices the fault scenario reserves as churn victims: excluded
/// from the plan's origin draw (a crashed origin loses its merge state
/// — a different failure mode than the owner/replica churn measured
/// here) and crashed in ring-non-adjacent pairs during the run.
const CHURN_CANDIDATES: [usize; 4] = [3, 11, 23, 37];
/// How long a churn victim stays down. Fixed, not span-relative: a
/// span-relative downtime would punish *low* offered rates with longer
/// outages and make latency anti-monotone in rate.
const CHURN_DOWNTIME_S: f64 = 5.0;

/// The dataset-side state shared by every scenario and probe: the
/// mapped corpus published at build time, query pools with exact truth,
/// the publish pool, and the raw vectors behind the qid-keyed oracle.
pub struct LoadFixture {
    /// The mapped corpus every probe's system indexes.
    pub corpus: Corpus,
    /// Range-query pool (wide padded radius, top-k truth).
    pub range: Vec<QuerySpec>,
    /// knn-query pool (tight padded radius, top-k truth).
    pub knn: Vec<QuerySpec>,
    /// Runtime-publish pool: fresh object ids with landmark-space
    /// points, all far from every pool query so publishing them cannot
    /// perturb any query's truth.
    pub publish: Vec<(ObjectId, Vec<f64>)>,
    /// Raw vectors behind ObjectId space — build-time objects first,
    /// then the publish pool's objects.
    objects: Arc<Vec<Vec<f32>>>,
    /// Raw vectors of the range pool's query points, by pool index.
    range_raw: Vec<Vec<f32>>,
    /// Raw vectors of the knn pool's query points, by pool index.
    knn_raw: Vec<Vec<f32>>,
}

impl LoadFixture {
    /// Generate the dataset, select landmarks, map everything, compute
    /// exact pool truth, and carve out a far-from-everything publish
    /// pool.
    pub fn build(n_objects: usize, pool_size: usize, n_publish: usize, seed: u64) -> LoadFixture {
        let corpus = Corpus::build(n_objects, seed);
        // Both pools are padded top-k: wide for the range pool, tight
        // for knn.
        let range_raw = corpus.data.queries(pool_size, seed ^ 0x4A);
        let knn_raw = corpus.data.queries(pool_size, seed ^ 0x4B);
        let range = corpus.padded_knn(&range_raw, 2.5);
        let knn = corpus.padded_knn(&knn_raw, 1.5);

        // Publish candidates must not perturb any pool query's truth:
        // keep only candidates outside every pool query's ball (with a
        // 10% margin). An object farther than the radius can never
        // out-rank a truth object — answers are ranked by true distance
        // and every truth object sits within radius/pad — so recall
        // stays exactly 1.0 while the publishes still cost routing and
        // storage traffic. Cluster-drawn points can't clear the balls
        // (the query pool covers every cluster), so candidates live at
        // jittered corners of the domain, ~2x farther from any cluster
        // than the widest radius; the filter below still enforces it.
        let mut crng = SimRng::new(seed).fork(0x9B);
        let candidates: Vec<Vec<f32>> = (0..n_publish * 4)
            .map(|i| {
                (0..12)
                    .map(|d| {
                        let hi = (i >> (d % 12)) & 1 == 1;
                        let jitter = crng.f64() * 5.0;
                        (if hi { 100.0 - jitter } else { jitter }) as f32
                    })
                    .collect()
            })
            .collect();
        let l2 = L2::new();
        let far_enough = |c: &Vec<f32>| {
            range_raw
                .iter()
                .zip(&range)
                .chain(knn_raw.iter().zip(&knn))
                .all(|(q, spec)| l2.distance(c.as_slice(), q.as_slice()) > 1.1 * spec.radius)
        };
        let chosen: Vec<Vec<f32>> = candidates
            .into_iter()
            .filter(far_enough)
            .take(n_publish)
            .collect();
        assert!(
            chosen.len() == n_publish,
            "only {} of {} publish candidates clear the radius margin",
            chosen.len(),
            n_publish
        );
        let publish: Vec<(ObjectId, Vec<f64>)> = chosen
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    ObjectId((n_objects + i) as u32),
                    corpus.mapper.map(c.as_slice()).into_vec(),
                )
            })
            .collect();
        let mut objects = corpus.data.objects.clone();
        objects.extend(chosen);

        LoadFixture {
            corpus,
            range,
            knn,
            publish,
            objects: Arc::new(objects),
            range_raw,
            knn_raw,
        }
    }

    /// The quick fixture behind the smoke gate and determinism test.
    pub fn quick(seed: u64) -> LoadFixture {
        LoadFixture::build(1_500, 16, 24, seed)
    }

    /// The full fixture behind the checked-in artifact.
    pub fn full(seed: u64) -> LoadFixture {
        LoadFixture::build(4_000, 32, 48, seed)
    }

    /// Pool handles for the driver.
    pub fn pools(&self) -> LoadPools<'_> {
        LoadPools {
            range: &self.range,
            knn: &self.knn,
            publish: &self.publish,
        }
    }

    /// The qid-keyed true-distance oracle for one plan: qid resolves to
    /// the planned pool query's raw point. Built per probe because the
    /// plan (hence the qid space) changes with the offered rate.
    pub fn oracle_for(&self, plan: &loadgen::LoadPlan) -> Arc<dyn QueryDistance> {
        let qpoints: Vec<Vec<f32>> = plan
            .query_pool_refs()
            .into_iter()
            .map(|(pool, idx)| match pool {
                loadgen::PoolKind::Range => self.range_raw[idx].clone(),
                loadgen::PoolKind::Knn => self.knn_raw[idx].clone(),
            })
            .collect();
        l2_oracle(self.objects.clone(), qpoints)
    }
}

/// The two sustained-load scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// Healthy network.
    Plain,
    /// 1% loss + crash/restart churn, `r = 2` replication.
    LossChurn,
}

impl Scenario {
    /// Scenario name as it appears in the artifact.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Plain => "plain",
            Scenario::LossChurn => "loss_churn",
        }
    }

    fn system_config(self, n_nodes: usize, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig {
            n_nodes,
            seed,
            knn_k: KNN_K,
            ..SystemConfig::default()
        };
        match self {
            Scenario::Plain => {}
            Scenario::LossChurn => {
                // Tighter retransmits than the library default: the
                // default backoff chain (0.8/1.6/3.2/6.4 s) alone
                // pushes a lost answer's straggler past the deadline
                // even on an idle network, which would pin p99 at the
                // clamp at every rate and leave the SLO nothing to
                // discriminate.
                cfg.resilience = Some(ResilienceConfig {
                    replication: 2,
                    max_retries: 3,
                    base_timeout: SimDuration::from_millis(100),
                    backoff: 1.5,
                    ..ResilienceConfig::default()
                });
            }
        }
        cfg
    }

    /// The SLO this scenario's capacity search runs under. The fault
    /// scenario gets a looser latency bound than the healthy one plus a
    /// small error budget (a crashed owner can strand a few in-flight
    /// queries). Every scenario must keep recall 1.0 to pass.
    pub fn slo(self) -> SloSpec {
        match self {
            Scenario::Plain => SloSpec {
                p99_ms: 3_500.0,
                max_error_rate: 0.0,
                min_recall: 1.0,
            },
            Scenario::LossChurn => SloSpec {
                p99_ms: 9_000.0,
                max_error_rate: 0.02,
                min_recall: 1.0,
            },
        }
    }
}

/// Crash/restart pairs across the admission span, victims drawn from
/// `CHURN_CANDIDATES` — node indices the plan's origin draw excluded —
/// keeping chosen victims non-adjacent on the ring so one crash never
/// takes both the primary and the replica of an entry down.
fn schedule_churn(system: &mut SearchSystem, span_s: f64) {
    let ring: Vec<AgentId> = system.ring().nodes().iter().map(|n| n.addr).collect();
    let n = ring.len();
    let mut victims: Vec<usize> = Vec::new();
    for (pos, addr) in ring.iter().enumerate() {
        if victims.len() == CHURN_PAIRS {
            break;
        }
        let adjacent = victims
            .iter()
            .any(|&v| (pos + n - v) % n <= 1 || (v + n - pos) % n <= 1);
        if CHURN_CANDIDATES.contains(&addr.0) && !adjacent {
            victims.push(pos);
        }
    }
    assert_eq!(
        victims.len(),
        CHURN_PAIRS,
        "churn candidates landed ring-adjacent; widen CHURN_CANDIDATES"
    );
    let base = system.now();
    for (i, &pos) in victims.iter().enumerate() {
        let t0 = span_s * (i as f64 + 0.5) / (CHURN_PAIRS as f64 + 1.0);
        system.schedule_crash(base + SimDuration::from_secs_f64(t0), ring[pos]);
        system.schedule_restart(
            base + SimDuration::from_secs_f64(t0 + CHURN_DOWNTIME_S),
            ring[pos],
        );
    }
}

/// One open-loop run offering `qps` for `duration_s` seconds of
/// simulated time against a fresh system, with the finite-capacity
/// service model on. The *duration* is fixed — not the operation count
/// — so a higher offered rate admits proportionally more operations
/// and sustained queueing can actually accumulate; a fixed op count
/// would turn every high-rate probe into a short burst that drains
/// inside the deadline tail and never saturates anything.
pub fn run_load_at(
    fixture: &LoadFixture,
    scenario: Scenario,
    n_nodes: usize,
    duration_s: f64,
    qps: f64,
    seed: u64,
) -> LoadOutcome {
    let cfg = LoadConfig {
        arrival: ArrivalProcess::poisson_qps(qps),
        n_ops: ((qps * duration_s).round() as usize).max(1),
        mix: QueryMix::default(),
        deadline: SimDuration::from_secs(DEADLINE_S),
        excluded_origins: if scenario == Scenario::LossChurn {
            CHURN_CANDIDATES.to_vec()
        } else {
            Vec::new()
        },
        ..LoadConfig::default()
    };
    let pools = fixture.pools();
    let plan = loadgen::plan(&cfg, &pools, n_nodes, seed);
    let oracle = fixture.oracle_for(&plan);
    let spec = fixture.corpus.index(&format!("load-{}", scenario.name()));
    let mut system = SearchSystem::build(scenario.system_config(n_nodes, seed), &[spec], oracle);
    system.set_service_time(Some(SimDuration::from_millis_f64(SERVICE_MS)));
    if scenario == Scenario::LossChurn {
        system.set_loss_rate(LOSS_RATE);
        schedule_churn(&mut system, duration_s);
    }
    loadgen::execute(&mut system, &plan, &pools)
}

/// Capacity search for one scenario: doubling ladder from `base_qps`,
/// then log-space bisection of the first passing/failing bracket.
#[allow(clippy::too_many_arguments)]
pub fn run_capacity(
    fixture: &LoadFixture,
    scenario: Scenario,
    n_nodes: usize,
    duration_s: f64,
    base_qps: f64,
    max_doublings: usize,
    refine_steps: usize,
    seed: u64,
) -> CapacityResult {
    loadgen::capacity_search(
        scenario.slo(),
        base_qps,
        max_doublings,
        refine_steps,
        |qps| run_load_at(fixture, scenario, n_nodes, duration_s, qps, seed),
    )
}

fn outcome_json(o: &LoadOutcome) -> Value {
    serde_json::json!({
        "issued": o.issued,
        "completions": o.completions,
        "timeouts": o.timeouts,
        "publishes": o.publishes,
        "duplicate_completions": o.duplicate_completions,
        "offered_qps": o.offered_qps,
        "sustained_qps": o.sustained_qps,
        "p50_ms": o.p50_ms,
        "p95_ms": o.p95_ms,
        "p99_ms": o.p99_ms,
        "mean_ms": o.mean_ms,
        "error_rate": o.error_rate,
        "mean_recall": o.mean_recall,
        "deferred": o.deferred,
    })
}

/// One scenario's capacity search, serialized.
pub struct ScenarioReport {
    /// Which scenario.
    pub scenario: Scenario,
    /// The capacity-search result.
    pub result: CapacityResult,
}

impl ToJson for ScenarioReport {
    fn to_json(&self) -> Value {
        let slo = self.scenario.slo();
        let slo_json = serde_json::json!({
            "p99_ms": slo.p99_ms,
            "max_error_rate": slo.max_error_rate,
            "min_recall": slo.min_recall,
        });
        let knee_json = self.result.knee.as_ref().map_or(Value::Null, outcome_json);
        let trials: Vec<Value> = self
            .result
            .trials
            .iter()
            .map(|t| {
                serde_json::json!({
                    "offered_qps": t.offered_qps,
                    "pass": t.pass,
                    "p99_ms": t.outcome.p99_ms,
                    "error_rate": t.outcome.error_rate,
                    "completions": t.outcome.completions,
                    "timeouts": t.outcome.timeouts,
                    "mean_recall": t.outcome.mean_recall,
                    "deferred": t.outcome.deferred,
                })
            })
            .collect();
        serde_json::json!({
            "scenario": self.scenario.name(),
            "slo": slo_json,
            "knee_qps": self.result.knee_qps,
            "knee": knee_json,
            "trials": trials,
        })
    }
}

/// The whole artifact: both scenarios plus wall-clock timing.
pub struct LoadReport {
    /// Overlay size the search ran at.
    pub n_nodes: usize,
    /// Simulated admission window of each probe run, seconds.
    pub duration_s: f64,
    /// Base rate of the doubling ladder.
    pub base_qps: f64,
    /// Per-scenario capacity searches.
    pub scenarios: Vec<ScenarioReport>,
    /// Wall time of the whole sweep, ms.
    pub wall_ms: f64,
    /// Process peak RSS after the sweep, kB.
    pub peak_rss_kb: u64,
}

impl LoadReport {
    /// The seed-deterministic subset: everything except `timing`. Two
    /// regenerations must serialize this to byte-identical strings.
    pub fn deterministic_json(&self) -> Value {
        serde_json::json!({
            "n_nodes": self.n_nodes as u64,
            "duration_s": self.duration_s,
            "base_qps": self.base_qps,
            "service_ms": SERVICE_MS,
            "deadline_s": DEADLINE_S,
            "scenarios": self.scenarios.iter().map(|s| s.to_json()).collect::<Vec<_>>(),
        })
    }
}

impl ToJson for LoadReport {
    fn to_json(&self) -> Value {
        let mut v = self.deterministic_json();
        if let Value::Object(map) = &mut v {
            map.insert(
                "timing".into(),
                serde_json::json!({
                    "wall_ms": self.wall_ms,
                    "peak_rss_kb": self.peak_rss_kb,
                }),
            );
        }
        v
    }
}

/// Run the full two-scenario sweep at one size.
pub fn run_load_report(
    fixture: &LoadFixture,
    n_nodes: usize,
    duration_s: f64,
    base_qps: f64,
    max_doublings: usize,
    refine_steps: usize,
    seed: u64,
) -> LoadReport {
    let t0 = std::time::Instant::now();
    let scenarios = [Scenario::Plain, Scenario::LossChurn]
        .into_iter()
        .map(|scenario| ScenarioReport {
            scenario,
            result: run_capacity(
                fixture,
                scenario,
                n_nodes,
                duration_s,
                base_qps,
                max_doublings,
                refine_steps,
                seed,
            ),
        })
        .collect();
    LoadReport {
        n_nodes,
        duration_s,
        base_qps,
        scenarios,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_probe_completes_with_full_recall() {
        let fixture = LoadFixture::quick(0x10AD5EED);
        let out = run_load_at(&fixture, Scenario::Plain, 64, 4.0, 25.0, 0x10AD5EED);
        assert_eq!(out.issued, out.completions + out.timeouts);
        assert_eq!(out.duplicate_completions, 0);
        assert_eq!(out.timeouts, 0, "25 qps must be under the knee");
        assert!(out.publishes > 0);
        assert!(
            (out.mean_recall - 1.0).abs() < 1e-12,
            "publishes perturbed recall: {}",
            out.mean_recall
        );
        assert!(out.deferred > 0, "service model never queued anything");
    }

    #[test]
    fn loss_churn_probe_keeps_ledger_balanced() {
        let fixture = LoadFixture::quick(0x10AD5EED);
        let out = run_load_at(&fixture, Scenario::LossChurn, 64, 12.0, 10.0, 0x10AD5EED);
        assert_eq!(out.issued, out.completions + out.timeouts);
        assert_eq!(out.duplicate_completions, 0);
        assert!(out.completions > 0);
        assert!(
            (out.mean_recall - 1.0).abs() < 1e-12,
            "completed queries must keep full recall under r=2: {}",
            out.mean_recall
        );
    }
}
