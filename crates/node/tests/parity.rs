//! Sim-vs-socket parity: the deterministic simulator and a real 16-process
//! loopback cluster run the *same* scenario through the *same* sans-io
//! core, and must land on identical telemetry — summed counters,
//! histogram roll-ups, per-query summaries, merged answer lists with
//! bit-identical distances, and total stored load. Wall-clock is the
//! only thing allowed to differ, and nothing in the digest derives
//! from it.
//!
//! This is the acceptance test of the driver contract: if either driver
//! reorders, drops, duplicates or mangles a single protocol message,
//! some commutative total in the digest moves and the comparison fails
//! with a field-level diff.

use node::client::Client;
use node::scenario::{l2, rotation, Scenario, KNN_K};
use simnet::{AgentId, Sim, SimTime, Topology};
use simsearch::msg::DistanceOracle;
use simsearch::node::IndexState;
use simsearch::telemetry::QuerySummary;
use simsearch::{QueryId, SearchMsg, SearchNode, Store, Telemetry};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 16;

/// How long the cluster side gets to bootstrap, publish, answer and
/// quiesce before the test gives up.
const CLUSTER_PATIENCE: Duration = Duration::from_secs(120);

/// Origin-side view of one query, with distances as raw bits so the
/// comparison is exact equality, not float tolerance.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ReportDigest {
    responses: u32,
    max_hops: u32,
    degraded: bool,
    merged: Vec<(u32, u64)>,
}

/// Everything both drivers must agree on. Derived only from protocol
/// events — no timestamps, no ports, no process ids.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Digest {
    counters: BTreeMap<String, u64>,
    /// name -> (count, sum, max)
    histograms: BTreeMap<String, (u64, u64, u64)>,
    queries: BTreeMap<u32, QuerySummary>,
    reports: BTreeMap<u32, ReportDigest>,
    load: u64,
}

fn merged_bits(merged: &[(u32, f64)]) -> Vec<(u32, u64)> {
    merged.iter().map(|&(o, d)| (o, d.to_bits())).collect()
}

// ------------------------------------------------------------------
// Driver 1: the deterministic simulator
// ------------------------------------------------------------------

fn sim_digest(sc: &Scenario) -> Digest {
    let corpus = sc.corpus();
    let queries = sc.queries();
    let grid = Arc::new(sc.grid());

    // The simulator driver may hold global knowledge; the oracle closes
    // over the whole corpus and query list, with the same `l2` the
    // cluster's nodes apply to the ball center and the stored point.
    let oracle_corpus = corpus.clone();
    let oracle_queries = queries.clone();
    let oracle: DistanceOracle = Arc::new(move |qid: QueryId, obj: metric::ObjectId| {
        l2(
            &oracle_queries[qid as usize].center,
            &oracle_corpus[obj.0 as usize],
        )
    });

    let telemetry = Telemetry::new();
    let agents: Vec<SearchNode> = sc
        .ring()
        .build_all_tables(16, None, 16)
        .into_iter()
        .map(|table| {
            let mut node = SearchNode::new(
                table,
                vec![IndexState {
                    grid: Arc::clone(&grid),
                    rotation: rotation(),
                    store: Store::new(),
                }],
                Arc::clone(&oracle),
                KNN_K,
                None,
            );
            node.attach_telemetry(telemetry.clone());
            node
        })
        .collect();

    let mut sim = Sim::new(
        Topology::uniform(sc.n_nodes, SimTime::from_millis(10)),
        agents,
        sc.seed,
    );

    // Phase 1: publish the corpus, each object entering at the same
    // node the cluster's publisher uses, and let routing drain.
    for (obj, point) in corpus.iter().enumerate() {
        sim.inject(
            SimTime::ZERO,
            AgentId(sc.publish_origin(obj as u32)),
            SearchMsg::Publish {
                index: 0,
                entry: sc.entry(&grid, obj as u32, point),
                hops: 0,
            },
        );
    }
    sim.run();

    // Phase 2: issue every scripted range query at its origin.
    let now = sim.now();
    for (qid, q) in queries.iter().enumerate() {
        sim.inject(now, AgentId(q.origin), sc.issue_msg(&grid, qid as u32, q));
    }
    sim.run();

    // Ground truth first: the sim's merged lists must equal the model's
    // expected answers exactly, otherwise "parity" would only prove
    // both drivers are wrong the same way.
    for (qid, q) in queries.iter().enumerate() {
        let iq = sim
            .agent(AgentId(q.origin))
            .issued
            .get(&(qid as u32))
            .unwrap_or_else(|| panic!("sim: origin {} never issued qid {qid}", q.origin));
        let merged: Vec<(u32, f64)> = iq.merged.iter().map(|&(o, d)| (o.0, d)).collect();
        let expected = sc.expected_range(&grid, &corpus, q);
        assert_eq!(
            merged_bits(&merged),
            merged_bits(&expected),
            "sim recall != 1.0 for qid {qid}"
        );
    }

    let st = telemetry.lock();
    Digest {
        counters: st
            .registry
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        histograms: st
            .registry
            .histograms()
            .map(|(k, h)| (k.to_string(), (h.count(), h.sum(), h.max())))
            .collect(),
        queries: st
            .traces
            .iter()
            .map(|(&qid, t)| (qid, t.summary()))
            .collect(),
        reports: queries
            .iter()
            .enumerate()
            .map(|(qid, q)| {
                let iq = &sim.agent(AgentId(q.origin)).issued[&(qid as u32)];
                (
                    qid as u32,
                    ReportDigest {
                        responses: iq.responses,
                        max_hops: iq.max_hops,
                        degraded: iq.degraded,
                        merged: merged_bits(
                            &iq.merged.iter().map(|&(o, d)| (o.0, d)).collect::<Vec<_>>(),
                        ),
                    },
                )
            })
            .collect(),
        load: sim.agents().map(|n| n.load() as u64).sum(),
    }
}

// ------------------------------------------------------------------
// Driver 2: a real loopback cluster of `node` processes
// ------------------------------------------------------------------

/// Kills every child on drop so a failing assertion never leaks 16
/// orphan processes into the test environment.
struct Cluster {
    children: Vec<Child>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn spawn_node(join: Option<&str>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_node"));
    cmd.args(["--listen", "127.0.0.1:0", "--expect", &N.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(seed) = join {
        cmd.args(["--join", seed]);
    }
    let mut child = cmd.spawn().expect("spawn node process");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the node's listen announcement");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected node announcement: {line:?}"))
        .to_string();
    (child, addr)
}

fn cluster_digest(sc: &Scenario, sim: &Digest) -> Digest {
    let deadline = Instant::now() + CLUSTER_PATIENCE;
    let corpus = sc.corpus();
    let queries = sc.queries();

    let (seed_child, seed_addr) = spawn_node(None);
    let mut cluster = Cluster {
        children: vec![seed_child],
    };
    for _ in 1..N {
        let (child, _) = spawn_node(Some(&seed_addr));
        cluster.children.push(child);
    }

    let mut seed_client = Client::connect(&seed_addr).expect("connect to seed");
    let members = seed_client.members().expect("fetch membership");
    assert_eq!(members.len(), N, "cluster membership size");
    let mut clients: Vec<Client> = members
        .iter()
        .map(|m| Client::connect(&m.addr).expect("connect to member"))
        .collect();

    // Publish phase, same placement as the sim, then barrier on total
    // load (no replication: every object is stored exactly once).
    for (obj, point) in corpus.iter().enumerate() {
        clients[sc.publish_origin(obj as u32)]
            .publish(0, obj as u32, point)
            .expect("publish");
    }
    loop {
        let stored: u64 = clients
            .iter_mut()
            .map(|c| c.stats().expect("stats during publish barrier").load)
            .sum();
        if stored as usize == corpus.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "publish barrier timed out at {stored}/{} entries",
            corpus.len()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Query phase: issue at the scripted origins, then wait for news at
    // each origin until its merged list reaches the sim's answer.
    for (qid, q) in queries.iter().enumerate() {
        clients[q.origin]
            .query(qid as u32, 0, &q.center, q.radius)
            .expect("issue query");
    }
    for (qid, q) in queries.iter().enumerate() {
        let want = &sim.reports[&(qid as u32)].merged;
        loop {
            let report = clients[q.origin].status(qid as u32).expect("query status");
            if &merged_bits(&report.merged) == want {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "qid {qid} never converged: want {want:?}, still seeing {:?}",
                report.merged
            );
        }
    }

    // Merged lists are complete, but stragglers (empty result frames
    // still in flight) can lag the counters; poll until the digest is
    // stable across two consecutive snapshots.
    let mut last = collect_digest(&mut clients, &queries, sc);
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let next = collect_digest(&mut clients, &queries, sc);
        if next == last {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster telemetry never went quiescent"
        );
        last = next;
    }

    for client in &mut clients {
        client.shutdown().expect("shutdown member");
    }
    for child in &mut cluster.children {
        let status = child.wait().expect("wait for node process");
        assert!(status.success(), "node process exited with {status}");
    }
    cluster.children.clear();
    last
}

fn collect_digest(
    clients: &mut [Client],
    queries: &[node::scenario::RangeQuery],
    _sc: &Scenario,
) -> Digest {
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut summaries: BTreeMap<u32, QuerySummary> = BTreeMap::new();
    let mut load = 0u64;
    for client in clients.iter_mut() {
        let stats = client.stats().expect("stats snapshot");
        for (name, v) in stats.counters {
            *counters.entry(name).or_insert(0) += v;
        }
        for h in stats.histograms {
            let slot = histograms.entry(h.name).or_insert((0, 0, 0));
            slot.0 += h.count;
            slot.1 += h.sum;
            slot.2 = slot.2.max(h.max);
        }
        for (qid, summary) in stats.queries {
            summaries.entry(qid).or_default().merge(&summary);
        }
        load += stats.load;
    }
    let reports = queries
        .iter()
        .enumerate()
        .map(|(qid, q)| {
            let r = clients[q.origin].status(qid as u32).expect("query status");
            (
                qid as u32,
                ReportDigest {
                    responses: r.responses,
                    max_hops: r.max_hops,
                    degraded: r.degraded,
                    merged: merged_bits(&r.merged),
                },
            )
        })
        .collect();
    Digest {
        counters,
        histograms,
        queries: summaries,
        reports,
        load,
    }
}

// ------------------------------------------------------------------
// The comparison
// ------------------------------------------------------------------

#[test]
fn sim_and_loopback_cluster_agree_on_telemetry() {
    let sc = Scenario::new(N);
    let sim = sim_digest(&sc);
    assert_eq!(sim.load, sc.n_objects as u64, "sim stored the whole corpus");

    let cluster = cluster_digest(&sc, &sim);

    // Field-by-field first, so a failure names the divergent piece
    // instead of dumping two whole digests.
    assert_eq!(cluster.load, sim.load, "total stored load");
    assert_eq!(cluster.counters, sim.counters, "summed counters");
    assert_eq!(cluster.histograms, sim.histograms, "histogram roll-ups");
    assert_eq!(cluster.queries, sim.queries, "per-query summaries");
    assert_eq!(cluster.reports, sim.reports, "origin-side query reports");
    assert_eq!(cluster, sim);
}
