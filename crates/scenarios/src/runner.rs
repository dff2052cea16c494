//! The scenario runner: execute any parsed [`Scenario`] through the
//! deterministic simulator with per-index recall oracles, and fold the
//! run into a canonical integer-only digest the zoo goldens gate.
//!
//! Execution model: every tenant's publish/query mix is pre-drawn from
//! seeded RNG forks (kinds shuffled, pool picks Zipf-skewed, flash
//! windows overriding the head item), the per-tenant sequences are
//! interleaved round-robin, and the resulting global op list is played
//! one op at a time, each run to quiescence before the next — a phase
//! barrier that keeps the exact-recall oracle valid even while tenants
//! publish new objects mid-run. Runtime-published objects are held out
//! of the build-time dataset, so their object ids (and the ground truth
//! that grows with them) are known before the system is built.

use std::collections::BTreeMap;
use std::sync::Arc;

use landmark::{boundary_from_metric, boundary_from_sample, greedy, kmeans};
use metric::{Angular, EditDistance, ObjectId, SparseVector, L2};
use serde_json::Value;
use simnet::{AgentId, SimRng, SimTime};
use simsearch::{
    map_index, IndexSpec, LoadBalanceConfig, Mapping, QueryDistance, QueryId, QuerySpec,
    ResilienceConfig, SearchSystem, SystemConfig, TrueDist,
};
use workloads::{
    ClusteredParams, ClusteredVectors, Corpus, CorpusParams, StringWorkload, StringWorkloadParams,
    TimeSeriesParams, TimeSeriesWorkload, Zipf,
};

use crate::schema::{LbDecl, Scenario, SchemeDecl, TenantDecl};

/// What one scenario run produced: the canonical digest (what goldens
/// byte-compare) and any invariant violations (empty on a passing run —
/// and checked into the digest itself, so a golden also locks the pass).
pub struct RunReport {
    /// Canonical integer/string-only digest.
    pub digest: Value,
    /// Human-readable invariant violations.
    pub violations: Vec<String>,
}

/// The digest as the exact bytes a golden file stores.
pub fn digest_json(digest: &Value) -> String {
    let mut s = serde_json::to_string_pretty(digest).expect("serialization is infallible");
    s.push('\n');
    s
}

/// Fixed-point float encoding for the digest (1.0 → 1_000_000).
fn micros(x: f64) -> u64 {
    (x * 1e6).round().max(0.0) as u64
}

/// One pre-built co-hosted index: everything the oracle and the ground
/// truth need beside its publishable [`IndexSpec`].
struct BuiltIndex {
    /// Held-out publishes in publish order, the tenant query pools in
    /// qref order, and the true distance.
    mapping: Mapping,
    /// Objects published at build time.
    base_n: usize,
    /// Query radius in the original metric (= index-space L∞ radius).
    radius: f64,
}

/// Derive a per-purpose RNG stream for one index.
fn index_seed(sc: &Scenario, data_seed: u64, stream: u64) -> u64 {
    sc.seed ^ data_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream
}

/// Map one declared index through [`map_index`], the held-out runtime
/// publishes included.
fn build_index(
    sc: &Scenario,
    pos: usize,
    pool_total: usize,
    publish_total: usize,
) -> (IndexSpec, BuiltIndex) {
    let decl = &sc.indexes[pos];
    let dseed = index_seed(sc, decl.data_seed, 0x0DA7A);
    let qseed = index_seed(sc, decl.data_seed, 0x9001);
    let rng = &mut SimRng::new(index_seed(sc, decl.data_seed, 0x5E1));
    let k = decl.landmarks;
    let sample = decl.sample;
    let ((spec, mapping), radius) = match decl.scheme {
        SchemeDecl::Clustered {
            objects,
            dims,
            clusters,
            deviation,
        } => {
            let data = ClusteredVectors::generate(
                ClusteredParams {
                    dims,
                    clusters,
                    deviation,
                    n_objects: objects + publish_total,
                    ..ClusteredParams::default()
                },
                dseed,
            );
            let radius = decl.radius * data.max_distance();
            let mapped = map_index::<_, [f32], _>(
                sample,
                rng,
                data.queries(pool_total, qseed),
                data.objects,
                L2::bounded(dims, 0.0, 100.0),
                objects,
                |m, s, r| kmeans::<_, [f32], _>(m, s, k, 8, r),
                |m, _| boundary_from_metric::<[f32], _>(m.metric(), k).expect("bounded L2"),
            );
            (mapped, radius)
        }
        SchemeDecl::Strings { families, members } => {
            let data = StringWorkload::generate(
                StringWorkloadParams {
                    families,
                    members_per_family: members,
                    ..StringWorkloadParams::default()
                },
                dseed,
            );
            let base_n = data.sequences.len().saturating_sub(publish_total);
            assert!(base_n > 0, "strings scheme too small for its publishes");
            let mapped = map_index::<_, str, _>(
                sample,
                rng,
                data.queries(pool_total, qseed),
                data.sequences,
                EditDistance,
                base_n,
                |m, s, r| greedy::<_, str, _>(m, s, k, r),
                |m, s| boundary_from_sample::<_, str, _>(m, s, 0.05),
            );
            (mapped, decl.radius)
        }
        SchemeDecl::Docs { docs, vocab, areas } => {
            let corpus = Corpus::generate(
                CorpusParams {
                    n_docs: docs + publish_total,
                    vocab,
                    stopwords: (vocab / 25).max(50),
                    subject_areas: areas,
                    ..CorpusParams::default()
                },
                dseed,
            );
            let mapped = map_index::<_, SparseVector, _>(
                sample,
                rng,
                // Query pool: the corpus's query topics, cycled.
                (0..pool_total)
                    .map(|i| corpus.topics[i % corpus.topics.len()].clone())
                    .collect(),
                corpus.docs,
                Angular::new(),
                docs,
                |m, s, r| kmeans::<_, SparseVector, _>(m, s, k, 10, r),
                |m, s| boundary_from_sample::<_, SparseVector, _>(m, s, 0.02),
            );
            (mapped, decl.radius * std::f64::consts::FRAC_PI_2)
        }
        SchemeDecl::Timeseries {
            length,
            window,
            stride,
            motifs,
            repeats,
            noise,
        } => {
            let ts = TimeSeriesWorkload::generate(
                TimeSeriesParams {
                    length,
                    window,
                    stride,
                    motifs,
                    motif_repeats: repeats,
                    noise,
                },
                dseed,
            );
            let base_n = ts.windows.len().saturating_sub(publish_total);
            assert!(base_n > 0, "timeseries scheme too small for its publishes");
            let mapped = map_index::<_, [f32], _>(
                sample,
                rng,
                ts.queries(pool_total, qseed)
                    .into_iter()
                    .map(|(_, w)| w)
                    .collect(),
                ts.windows,
                L2::new(),
                base_n,
                |m, s, r| kmeans::<_, [f32], _>(m, s, k, 8, r),
                |m, s| boundary_from_sample::<_, [f32], _>(m, s, 0.05),
            );
            (mapped, decl.radius)
        }
    };
    let built = BuiltIndex {
        base_n: spec.points.len(),
        mapping,
        radius,
    };
    let spec = IndexSpec {
        name: decl.name.clone(),
        rotate: decl.rotate,
        rotation: decl.rotation,
        ..spec
    };
    (spec, built)
}

/// One pre-drawn operation of the global sequence.
enum Op {
    Query {
        tenant: usize,
        index: usize,
        /// Index into the tenant's pool (0 = hottest item).
        pool_item: usize,
        origin: AgentId,
        qid: QueryId,
    },
    Publish {
        index: usize,
        /// Per-index publish sequence number (object id = base + seq).
        seq: usize,
        origin: AgentId,
    },
}

/// Per-tenant derived layout: which index position it targets and where
/// its pool slice starts in that index's qref space.
struct TenantLayout {
    index_pos: usize,
    pool_base: usize,
    /// Fixed issuing nodes (empty = roaming).
    origins: Vec<AgentId>,
}

/// Execute a scenario and fold the digest.
pub fn run(sc: &Scenario) -> RunReport {
    // --- layout: pool slices and publish totals per index ---
    let mut pool_total = vec![0usize; sc.indexes.len()];
    let mut publish_total = vec![0usize; sc.indexes.len()];
    let mut layouts: Vec<TenantLayout> = Vec::new();
    let mut origin_rng = SimRng::new(sc.seed).fork(0x0819);
    for t in &sc.tenants {
        let index_pos = sc
            .indexes
            .iter()
            .position(|i| i.name == t.index)
            .expect("validated by schema");
        let origins = origin_rng
            .sample_indices(sc.ring.nodes, t.origins.min(sc.ring.nodes))
            .into_iter()
            .map(AgentId)
            .collect();
        layouts.push(TenantLayout {
            index_pos,
            pool_base: pool_total[index_pos],
            origins,
        });
        pool_total[index_pos] += t.pool;
        publish_total[index_pos] += t.publishes;
    }

    // --- pre-draw every tenant's op sequence, then interleave ---
    let mut per_tenant_ops: Vec<Vec<Op>> = Vec::new();
    for (ti, t) in sc.tenants.iter().enumerate() {
        per_tenant_ops.push(draw_tenant_ops(sc, ti, t, &layouts[ti]));
    }
    let mut ops: Vec<Op> = Vec::new();
    let mut cursors: Vec<std::vec::IntoIter<Op>> =
        per_tenant_ops.into_iter().map(|v| v.into_iter()).collect();
    loop {
        let mut any = false;
        for c in &mut cursors {
            if let Some(op) = c.next() {
                ops.push(op);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    // Assign per-index publish sequence numbers and global query ids in
    // final op order (the order ground truth grows in).
    let mut pub_seq = vec![0usize; sc.indexes.len()];
    let mut next_qid: QueryId = 0;
    for op in &mut ops {
        match op {
            Op::Publish { index, seq, .. } => {
                *seq = pub_seq[*index];
                pub_seq[*index] += 1;
            }
            Op::Query { qid, .. } => {
                *qid = next_qid;
                next_qid += 1;
            }
        }
    }

    // --- build indexes and the qid → (index, qref) recall oracle ---
    // `SearchSystem::build` is the only reader of the specs.
    let (specs, built): (Vec<IndexSpec>, Vec<BuiltIndex>) = (0..sc.indexes.len())
        .map(|i| build_index(sc, i, pool_total[i], publish_total[i]))
        .unzip();
    let mut qid_probe: Vec<(usize, usize)> = Vec::new(); // (index, qref)
    for op in &ops {
        if let Op::Query {
            tenant, pool_item, ..
        } = op
        {
            let lay = &layouts[*tenant];
            qid_probe.push((lay.index_pos, lay.pool_base + pool_item));
        }
    }
    let dists: Vec<TrueDist> = built.iter().map(|b| Arc::clone(&b.mapping.dist)).collect();
    let oracle: Arc<dyn QueryDistance> = Arc::new(move |qid: QueryId, obj: ObjectId| {
        let (ix, qref) = qid_probe[qid as usize];
        (dists[ix])(qref, obj.0 as usize)
    });

    // --- build the system ---
    let cfg = SystemConfig {
        n_nodes: sc.ring.nodes,
        seed: sc.seed,
        n_successors: sc.ring.successors,
        pns_candidates: sc.ring.pns,
        knn_k: sc.ring.knn_k,
        depth: sc.ring.depth,
        lb: sc.ring.lb.map(lb_config),
        load_aware_join: sc.ring.load_aware_join,
        resilience: (sc.ring.replication > 1).then(|| ResilienceConfig {
            replication: sc.ring.replication,
            ..ResilienceConfig::default()
        }),
        index_telemetry: true,
        ..SystemConfig::default()
    };
    let mut system = SearchSystem::build(cfg, &specs, oracle);
    drop(specs);
    if sc.faults.loss > 0.0 {
        system.set_loss_rate(sc.faults.loss);
    }

    // Crash victims: the highest node addresses that are not fixed
    // origins (schema guarantees all tenants use fixed origins when
    // crashes are configured, so no op is ever issued from a dead node).
    let fixed: std::collections::BTreeSet<usize> = layouts
        .iter()
        .flat_map(|l| l.origins.iter().map(|a| a.0))
        .collect();
    let victims: Vec<AgentId> = (0..sc.ring.nodes)
        .rev()
        .filter(|a| !fixed.contains(a))
        .take(sc.faults.crashes)
        .map(AgentId)
        .collect();
    let crash_at = ops.len() / 3;
    let restart_at = (2 * ops.len()) / 3;
    let rebalance_at = sc
        .rebalance
        .map(|r| ((ops.len() as f64 * r.after_frac) as usize).min(ops.len()));

    // --- play the op sequence ---
    let mut published = vec![0usize; sc.indexes.len()];
    let mut runtime_migrations = 0u64;
    let mut runtime_rounds = 0u64;
    struct QueryRecord {
        tenant: usize,
        completed: bool,
        hops: u32,
        responses: u32,
        recall: f64,
    }
    let mut records: Vec<QueryRecord> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if !victims.is_empty() && i == crash_at {
            let at = step_time(&system);
            for &v in &victims {
                system.schedule_crash(at, v);
            }
        }
        if !victims.is_empty() && i == restart_at {
            let at = step_time(&system);
            for &v in &victims {
                system.schedule_restart(at, v);
            }
        }
        if rebalance_at == Some(i) {
            let decl = sc.rebalance.expect("gated on rebalance_at");
            let report = system.rebalance(&lb_config(decl.lb));
            runtime_migrations += report.migrations as u64;
            runtime_rounds += report.rounds as u64;
        }
        match *op {
            Op::Publish {
                index, seq, origin, ..
            } => {
                let b = &built[index];
                let at = step_time(&system);
                system.inject_publish(
                    at,
                    origin,
                    index as u8,
                    ObjectId((b.base_n + seq) as u32),
                    &b.mapping.held_out[seq],
                );
                system.run_to_quiescence();
                published[index] += 1;
            }
            Op::Query {
                tenant,
                index,
                pool_item,
                origin,
                qid,
            } => {
                let b = &built[index];
                let qref = layouts[tenant].pool_base + pool_item;
                // Ground truth *now*: the k nearest among the objects
                // published so far that lie within the query radius (all
                // of which the contractive mapping guarantees are inside
                // the searched hypercube).
                let visible = b.base_n + published[index];
                let mut near: Vec<(ObjectId, f64)> = (0..visible)
                    .filter_map(|oid| {
                        let d = (b.mapping.dist)(qref, oid);
                        (d <= b.radius).then_some((ObjectId(oid as u32), d))
                    })
                    .collect();
                near.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                near.truncate(sc.ring.knn_k);
                let truth: Vec<ObjectId> = near.into_iter().map(|(id, _)| id).collect();
                let at = step_time(&system);
                system.inject_query(
                    at,
                    origin,
                    qid,
                    &QuerySpec {
                        index: index as u8,
                        point: b.mapping.pool[qref].clone(),
                        radius: b.radius,
                        truth: Vec::new(),
                    },
                );
                system.run_to_quiescence();
                let iq = system
                    .issued_query(origin, qid)
                    .expect("query was injected at a live origin");
                records.push(QueryRecord {
                    tenant,
                    completed: iq.first_result.is_some(),
                    hops: iq.max_hops,
                    responses: iq.responses,
                    recall: iq.recall(&truth),
                });
            }
        }
    }

    // --- invariants ---
    let mut violations: Vec<String> = Vec::new();
    let e = &sc.expect;
    for (qi, r) in records.iter().enumerate() {
        let tname = &sc.tenants[r.tenant].name;
        if e.all_complete && !r.completed {
            violations.push(format!("query {qi} (tenant {tname}) never completed"));
        }
        if r.recall + 1e-9 < e.min_recall {
            violations.push(format!(
                "query {qi} (tenant {tname}) recall {:.4} < {:.4}",
                r.recall, e.min_recall
            ));
        }
        if u64::from(r.hops) > e.max_hops {
            violations.push(format!(
                "query {qi} (tenant {tname}) took {} hops > {}",
                r.hops, e.max_hops
            ));
        }
    }
    if e.conservation {
        for (i, b) in built.iter().enumerate() {
            let stored = system.total_entries(i);
            let expected = b.base_n + published[i];
            if stored != expected {
                violations.push(format!(
                    "index {} stores {stored} entries, expected {expected}",
                    sc.indexes[i].name
                ));
            }
        }
    }
    let build_migrations = system.lb_report.as_ref().map_or(0, |r| r.migrations) as u64;
    let total_migrations = build_migrations + runtime_migrations;
    if let Some(min) = e.min_migrations {
        if total_migrations < min {
            violations.push(format!("{total_migrations} migrations < required {min}"));
        }
    }
    if let Some(max) = e.max_migrations {
        if total_migrations > max {
            violations.push(format!("{total_migrations} migrations > allowed {max}"));
        }
    }
    let snapshot = system.telemetry_snapshot();
    // The hottest node's share of the combined (cross-index) load — the
    // §3.4 rotation-staggering observable.
    let mut combined = vec![0u64; sc.ring.nodes];
    for i in 0..built.len() {
        for (node, load) in system.load_per_node(i).into_iter().enumerate() {
            combined[node] += load as u64;
        }
    }
    let combined_max = combined.iter().copied().max().unwrap_or(0);
    let combined_total: u64 = combined.iter().sum();
    let max_share = micros(combined_max as f64 / combined_total.max(1) as f64);
    if let Some(bound) = e.max_combined_load_micros {
        if max_share > bound {
            violations.push(format!(
                "hottest node holds {max_share} micro-share of combined load > {bound}"
            ));
        }
    }
    if let Some(bound) = e.min_combined_load_micros {
        if max_share < bound {
            violations.push(format!(
                "hottest node holds {max_share} micro-share of combined load < {bound} \
                 (control expected a pileup)"
            ));
        }
    }

    // --- digest ---
    let mut per_index: BTreeMap<String, Value> = BTreeMap::new();
    for (i, b) in built.iter().enumerate() {
        let loads = system.load_distribution(i);
        per_index.insert(
            sc.indexes[i].name.clone(),
            serde_json::json!({
                "entries": Value::UInt(system.total_entries(i) as u64),
                "base": Value::UInt(b.base_n as u64),
                "published": Value::UInt(published[i] as u64),
                "held_out": Value::UInt(b.mapping.held_out.len() as u64),
                "rotation": Value::UInt(system.rotation(i).0),
                "load_max": Value::UInt(loads.first().copied().unwrap_or(0) as u64),
                "load_nonzero": Value::UInt(loads.iter().filter(|&&l| l > 0).count() as u64),
            }),
        );
    }
    let mut per_tenant: BTreeMap<String, Value> = BTreeMap::new();
    for (ti, t) in sc.tenants.iter().enumerate() {
        let recs: Vec<&QueryRecord> = records.iter().filter(|r| r.tenant == ti).collect();
        let n = recs.len();
        let recall_min = recs.iter().map(|r| r.recall).fold(1.0f64, f64::min);
        let recall_sum: f64 = recs.iter().map(|r| r.recall).sum();
        per_tenant.insert(
            t.name.clone(),
            serde_json::json!({
                "queries": Value::UInt(n as u64),
                "publishes": Value::UInt(t.publishes as u64),
                "completed": Value::UInt(recs.iter().filter(|r| r.completed).count() as u64),
                "recall_min_micros": Value::UInt(micros(recall_min)),
                "recall_mean_micros": Value::UInt(micros(if n == 0 {
                    1.0
                } else {
                    recall_sum / n as f64
                })),
                "hops_max": Value::UInt(recs.iter().map(|r| u64::from(r.hops)).max().unwrap_or(0)),
                "responses": Value::UInt(recs.iter().map(|r| u64::from(r.responses)).sum()),
            }),
        );
    }
    let digest = serde_json::json!({
        "scenario": serde_json::json!({
            "name": Value::String(sc.name.clone()),
            "seed": Value::UInt(sc.seed),
            "nodes": Value::UInt(sc.ring.nodes as u64),
            "indexes": Value::UInt(sc.indexes.len() as u64),
            "tenants": Value::UInt(sc.tenants.len() as u64),
            "ops": Value::UInt(ops.len() as u64),
        }),
        "indexes": Value::Object(per_index),
        "tenants": Value::Object(per_tenant),
        "balance": serde_json::json!({
            "build_migrations": Value::UInt(build_migrations),
            "runtime_migrations": Value::UInt(runtime_migrations),
            "runtime_rounds": Value::UInt(runtime_rounds),
        }),
        "combined": serde_json::json!({
            "load_max": Value::UInt(combined_max),
            "load_total": Value::UInt(combined_total),
            "max_share_micros": Value::UInt(max_share),
        }),
        "net": snapshot["net"].clone(),
        "faults": snapshot["faults"].clone(),
        "registry": snapshot["registry"].clone(),
        "violations": Value::Array(
            violations.iter().map(|v| Value::String(v.clone())).collect()
        ),
    });
    RunReport { digest, violations }
}

fn lb_config(decl: LbDecl) -> LoadBalanceConfig {
    LoadBalanceConfig {
        delta: decl.delta,
        probe_level: decl.probe_level,
        max_rounds: decl.max_rounds,
    }
}

/// The next op's injection time: strictly after everything that already
/// ran, so per-op quiescence phases never interleave.
fn step_time(system: &SearchSystem) -> SimTime {
    SimTime::from_secs_f64(system.now().as_secs_f64() + 0.05)
}

/// Pre-draw one tenant's op sequence (kinds, pool picks, origins, flash
/// overrides) from its own seeded forks.
fn draw_tenant_ops(sc: &Scenario, ti: usize, t: &TenantDecl, lay: &TenantLayout) -> Vec<Op> {
    let mut kind_rng = SimRng::new(sc.seed ^ 0xA11C_E000).fork(ti as u64);
    let mut pick_rng = SimRng::new(sc.seed ^ 0xB0B0_0000).fork(ti as u64);
    let zipf = Zipf::new(t.pool, t.zipf);
    let mut kinds: Vec<bool> = std::iter::repeat_n(true, t.queries)
        .chain(std::iter::repeat_n(false, t.publishes))
        .collect();
    kind_rng.shuffle(&mut kinds);
    let flash = t
        .flash_at
        .map(|at| (at, at.saturating_add(t.flash_len)))
        .unwrap_or((usize::MAX, usize::MAX));
    let mut ops = Vec::with_capacity(kinds.len());
    for (pos, is_query) in kinds.into_iter().enumerate() {
        let in_flash = pos >= flash.0 && pos < flash.1;
        let origin = if in_flash {
            lay.origins[0]
        } else if lay.origins.is_empty() {
            AgentId(pick_rng.index(sc.ring.nodes))
        } else {
            lay.origins[pos % lay.origins.len()]
        };
        if is_query {
            let pool_item = if in_flash {
                // The flash crowd hammers the hottest pool item. The
                // draw is still consumed so the post-flash sequence is
                // unchanged by the window.
                let _ = zipf.draw(&mut pick_rng);
                0
            } else {
                zipf.draw(&mut pick_rng)
            };
            ops.push(Op::Query {
                tenant: ti,
                index: lay.index_pos,
                pool_item,
                origin,
                qid: 0,
            });
        } else {
            ops.push(Op::Publish {
                index: lay.index_pos,
                seq: 0,
                origin,
            });
        }
    }
    ops
}
