//! The load generator: corpus publish, closed-loop laps over one or
//! two connections, and the open-loop capacity ramp. Every answer is
//! verified against its oracle.
//!
//! A query is *complete* at the first `Client::status` poll whose merged
//! list equals the expected list bit for bit. Polls run back to back —
//! the client API has no completion push — and `polls` exposes how hard
//! the harness leaned on the origin node. An operation *fails* on
//! timeout, an error frame or connection loss.

use crate::cluster::Cluster;
use crate::gen::{answer_bits, Op, QueryOp};
use node::client::Client;
use std::time::{Duration, Instant};

/// A query with no matching answer after this long has failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(2);

/// A connection stops issuing once this many operations failed: each
/// failure costs a full timeout, and a broken cluster fails them all.
const MAX_FAILURES: usize = 3;

/// Connections of the corpus publish and of the `mixed` workload. Two
/// closed-loop clients saturate the CPU the benchmark runs on, so
/// nothing ever uses more.
pub const CONNS: usize = 2;

/// Outcome of one completed query.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub latency_ns: u64,
    pub polls: u32,
}

/// Issue one query and poll to completion.
pub fn run_query(client: &mut Client, qid: u32, op: &QueryOp, radius: f64) -> Result<Done, String> {
    let t0 = Instant::now();
    let mut report = client.query(qid, 0, &op.center, radius)?;
    let mut polls = 0;
    while answer_bits(&report.merged) != op.expected {
        if t0.elapsed() > QUERY_TIMEOUT {
            return Err(format!(
                "qid {qid}: no exact answer within {QUERY_TIMEOUT:?}; expected {} entries, last saw {} after {} responses",
                op.expected.len(),
                report.merged.len(),
                report.responses
            ));
        }
        report = client.status(qid)?;
        polls += 1;
    }
    Ok(Done {
        latency_ns: t0.elapsed().as_nanos() as u64,
        polls,
    })
}

/// Publish `corpus` (object id = position) over [`CONNS`] connections,
/// each entering at its own member, then wait until the cluster stores
/// every object.
pub fn publish_corpus(cluster: &mut Cluster, corpus: &[Vec<f64>]) -> Result<(), String> {
    let addrs = &cluster.addrs;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNS)
            .map(|w| {
                s.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(&addrs[w % addrs.len()])?;
                    for (obj, point) in corpus.iter().enumerate().skip(w).step_by(CONNS) {
                        client.publish(0, obj as u32, point)?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("publisher thread panicked"))
    })?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (sum, _) = cluster.sweep()?;
        let stored: u64 = sum.loads.iter().sum();
        if stored as usize == corpus.len() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(cluster.failure(&format!(
                "publish barrier timed out at {stored}/{} objects",
                corpus.len()
            )));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What one connection did in one window.
#[derive(Default)]
pub struct ConnLap {
    pub queries: Vec<Done>,
    /// `Client::publish` round trips.
    pub publish_ack_ns: Vec<u64>,
    pub failures: Vec<String>,
    pub wall: Duration,
}

impl ConnLap {
    pub fn ops(&self) -> usize {
        self.queries.len() + self.publish_ack_ns.len()
    }
}

/// Run `ops` back to back on one connection: the next op is issued only
/// when the previous one completed. Query ids are `first_qid + i·stride`,
/// so connections sharing a lap stay dense together. With a `budget`,
/// stop issuing once it is spent (the calibration lap).
pub fn conn_lap(
    client: &mut Client,
    ops: &[Op],
    (first_qid, stride): (u32, u32),
    radius: f64,
    budget: Option<Duration>,
) -> ConnLap {
    let mut lap = ConnLap::default();
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if budget.is_some_and(|b| t0.elapsed() >= b) || lap.failures.len() >= MAX_FAILURES {
            break;
        }
        let result = match op {
            Op::Query(q) => run_query(client, first_qid + i as u32 * stride, q, radius)
                .map(|done| lap.queries.push(done)),
            Op::Publish { obj, point } => {
                let p0 = Instant::now();
                client
                    .publish(0, *obj, point)
                    .map(|()| lap.publish_ack_ns.push(p0.elapsed().as_nanos() as u64))
            }
        };
        if let Err(e) = result {
            lap.failures.push(e);
        }
    }
    lap.wall = t0.elapsed();
    lap
}

/// One lap: connection `c` runs `lists[c]`, all starting together, one
/// thread each.
pub fn lap(
    clients: &mut [Client],
    lists: &[&[Op]],
    first_qid: u32,
    radius: f64,
    budget: Option<Duration>,
) -> Vec<ConnLap> {
    let stride = clients.len() as u32;
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(c, (client, ops))| {
                s.spawn(move || {
                    conn_lap(client, ops, (first_qid + c as u32, stride), radius, budget)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    })
}

/// One open-loop connection's results.
#[derive(Default)]
pub struct OpenLoop {
    /// Query latency from *due* time.
    pub latency_ns: Vec<u64>,
    /// How late each op was issued.
    pub lag_ns: Vec<u64>,
    /// Most ops due but not yet issued, sampled at every issue.
    pub backlog_max: usize,
    pub failed: bool,
}

/// An op this late means the connection has fallen hopelessly behind.
const MAX_LAG: Duration = Duration::from_millis(250);

/// How long before an op's due time its connection stops sleeping.
const SPIN: Duration = Duration::from_micros(100);

/// Open loop at `rate` ops/s: op `i` is due at `i / rate` on connection
/// `i mod clients`, issued then or as soon afterwards as the connection
/// is free, and timed from its due time, so a stall is charged to
/// every op it delays.
pub fn open_loop(
    clients: &mut [Client],
    ops: &[Op],
    rate: f64,
    first_qid: u32,
    radius: f64,
) -> Vec<OpenLoop> {
    let conns = clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = OpenLoop::default();
                    for i in (c..ops.len()).step_by(conns) {
                        // Sleep overshoots by the kernel's timer slack
                        // (~60 µs); spin the last stretch so the
                        // generator's lateness is not charged to the
                        // system.
                        if let Some(nap) = due(i).checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(nap);
                        }
                        while Instant::now() < due(i) {
                            std::hint::spin_loop();
                        }
                        let lag = due(i).elapsed();
                        out.lag_ns.push(lag.as_nanos() as u64);
                        let now = Instant::now();
                        let backlog = (i..ops.len())
                            .step_by(conns)
                            .take_while(|&j| due(j) <= now)
                            .count();
                        out.backlog_max = out.backlog_max.max(backlog - 1);
                        let result = match &ops[i] {
                            Op::Publish { obj, point } => client.publish(0, *obj, point),
                            Op::Query(q) => run_query(client, first_qid + i as u32, q, radius)
                                .map(|_| out.latency_ns.push(due(i).elapsed().as_nanos() as u64)),
                        };
                        if result.is_err() || lag > MAX_LAG {
                            out.failed = true;
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    })
}
