//! A loopback cluster of `node` processes owned by the harness: spawn,
//! bootstrap, `/proc` sampling, telemetry sweeps and guaranteed reaping.
//!
//! Every node listens on `127.0.0.1:0`; traffic crosses the host
//! loopback only. The guard pattern follows `crates/node/tests/parity.rs`
//! (kill + wait on drop) and adds a kernel-side backstop: each child is
//! started with `PR_SET_PDEATHSIG = SIGKILL`, so the nodes die with the
//! harness even when the harness itself is killed by a signal it cannot
//! catch.

use node::client::Client;
use node::wire::StatsReport;
use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Shape of one cluster: everything a `node` process needs on its
/// command line. The corpus is *not* part of it — nodes only ever see
/// the points published to them.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n_nodes: usize,
    pub dims: usize,
    pub depth: u32,
}

/// Summed telemetry of a cluster at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub counters: BTreeMap<String, u64>,
    /// Stored entries per node, in member-index order.
    pub loads: Vec<u64>,
}

impl Counters {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Counters) -> BTreeMap<String, u64> {
        crate::stats::delta(&self.counters, &earlier.counters)
    }
}

/// Per-node readings of `/proc/<pid>`, member-index order.
#[derive(Clone, Debug, Default)]
pub struct ProcSample {
    /// `utime + stime` in clock ticks.
    pub cpu_ticks: Vec<u64>,
    /// `VmHWM` in kB.
    pub hwm_kb: Vec<u64>,
    /// `Threads:` of `/proc/<pid>/status`.
    pub threads: Vec<u64>,
    /// Voluntary + involuntary context switches summed over
    /// `/proc/<pid>/task/*/status` (0 unless sampled with `tasks`).
    pub ctx_switches: Vec<u64>,
}

/// Clock ticks per second of `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on every Linux ABI this benchmark runs on).
pub const TICKS_PER_S: f64 = 100.0;

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn read_proc(pid: u32, tasks: bool) -> Result<(u64, u64, u64, u64), String> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("node process {pid} is gone: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let cpu = tick(11) + tick(12);
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("node process {pid} is gone: {e}"))?;
    let mut ctx = 0;
    if tasks {
        let dir = fs::read_dir(format!("/proc/{pid}/task"))
            .map_err(|e| format!("cannot list threads of {pid}: {e}"))?;
        for task in dir.flatten() {
            // A thread may exit between the listing and the read.
            if let Ok(s) = fs::read_to_string(task.path().join("status")) {
                ctx += status_field(&s, "voluntary_ctxt_switches:")
                    + status_field(&s, "nonvoluntary_ctxt_switches:");
            }
        }
    }
    Ok((
        cpu,
        status_field(&status, "VmHWM:"),
        status_field(&status, "Threads:"),
        ctx,
    ))
}

/// `VmHWM` of the harness itself, in MB.
pub fn self_hwm_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

/// `utime + stime` of the harness itself, in seconds.
pub fn self_cpu_s() -> f64 {
    read_proc(std::process::id(), false).map_or(0.0, |(cpu, ..)| cpu as f64 / TICKS_PER_S)
}

/// Pids of every live process whose executable is `node_bin`.
pub fn node_processes(node_bin: &Path) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|exe| exe == node_bin))
        .collect()
}

/// Kills and reaps every child on drop, so neither a failed check nor a
/// panic leaks node processes.
pub struct Cluster {
    children: Vec<Child>,
    /// Member-index → position in `children`.
    by_index: Vec<usize>,
    /// Listen addresses in member-index order.
    pub addrs: Vec<String>,
    /// One idle control connection per member, for telemetry sweeps
    /// between laps; never used inside a timed window.
    control: Vec<Client>,
    logs: Vec<PathBuf>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Cluster {
    /// Spawn `shape.n_nodes` processes and wait for the membership. Each
    /// node's stderr goes to `<log_dir>/<tag>-<k>.log`.
    pub fn spawn(
        node_bin: &Path,
        shape: Shape,
        log_dir: &Path,
        tag: &str,
    ) -> Result<Cluster, String> {
        fs::create_dir_all(log_dir).map_err(|e| format!("cannot create {log_dir:?}: {e}"))?;
        let mut cluster = Cluster {
            children: Vec::new(),
            by_index: Vec::new(),
            addrs: Vec::new(),
            control: Vec::new(),
            logs: Vec::new(),
        };
        let mut spawned_addrs: Vec<String> = Vec::new();
        for k in 0..shape.n_nodes {
            let log = log_dir.join(format!("{tag}-{k}.log"));
            let stderr =
                fs::File::create(&log).map_err(|e| format!("cannot create {log:?}: {e}"))?;
            let mut cmd = Command::new(node_bin);
            cmd.args(["--listen", "127.0.0.1:0"])
                .args(["--expect", &shape.n_nodes.to_string()])
                .args(["--dims", &shape.dims.to_string()])
                .args(["--depth", &shape.depth.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(stderr);
            if let Some(seed) = spawned_addrs.first() {
                cmd.args(["--join", seed]);
            }
            // SAFETY: `prctl` is async-signal-safe and touches no memory
            // of the forked child; it only asks the kernel to deliver
            // SIGKILL when the spawning thread (the harness main
            // thread, which outlives every cluster) dies.
            unsafe {
                cmd.pre_exec(|| {
                    if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                        return Err(std::io::Error::last_os_error());
                    }
                    Ok(())
                });
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| format!("cannot start {node_bin:?}: {e}"))?;
            let stdout = child.stdout.take().expect("child stdout is piped");
            cluster.children.push(child);
            cluster.logs.push(log);
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("node {k} announced nothing: {e}"))?;
            let addr = line
                .trim()
                .strip_prefix("listening on ")
                .ok_or_else(|| cluster.failure(&format!("node {k} announced {line:?}")))?;
            spawned_addrs.push(addr.to_string());
        }
        // Ask a joiner, not the seed: a joiner's listener queues the
        // hello until its bootstrap is over, while a seed still
        // collecting joins rejects it and costs the client a 100 ms
        // retry sleep — a coin flip that made `setup_s` bimodal.
        let members = Client::connect(spawned_addrs.last().expect("at least one node"))
            .and_then(|mut c| c.members())
            .map_err(|e| cluster.failure(&e))?;
        if members.len() != shape.n_nodes {
            return Err(cluster.failure(&format!("membership has {} nodes", members.len())));
        }
        for m in &members {
            let pos = spawned_addrs
                .iter()
                .position(|a| *a == m.addr)
                .ok_or_else(|| cluster.failure(&format!("unknown member {}", m.addr)))?;
            cluster.by_index.push(pos);
            cluster.addrs.push(m.addr.clone());
        }
        for addr in cluster.addrs.clone() {
            let c = Client::connect(&addr).map_err(|e| cluster.failure(&e))?;
            cluster.control.push(c);
        }
        Ok(cluster)
    }

    /// `what`, followed by the tail of every non-empty node log.
    pub fn failure(&self, what: &str) -> String {
        let mut out = what.to_string();
        for log in &self.logs {
            let text = fs::read_to_string(log).unwrap_or_default();
            let tail: Vec<&str> = text.lines().rev().take(5).collect();
            if !tail.is_empty() {
                out.push_str(&format!("\n--- {} ---", log.display()));
                for l in tail.iter().rev() {
                    out.push_str(&format!("\n{l}"));
                }
            }
        }
        out
    }

    pub fn pid(&self, index: usize) -> u32 {
        self.children[self.by_index[index]].id()
    }

    /// Kill one node (the self-test's injected fault).
    pub fn kill(&mut self, index: usize) {
        let child = &mut self.children[self.by_index[index]];
        let _ = child.kill();
        let _ = child.wait();
    }

    /// Error unless every node process is still running.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for k in 0..self.children.len() {
            if let Ok(Some(status)) = self.children[k].try_wait() {
                return Err(self.failure(&format!("node process {k} exited early with {status}")));
            }
        }
        Ok(())
    }

    pub fn proc_sample(&self, tasks: bool) -> Result<ProcSample, String> {
        let mut s = ProcSample::default();
        for index in 0..self.addrs.len() {
            let (cpu, hwm, threads, ctx) = read_proc(self.pid(index), tasks)?;
            s.cpu_ticks.push(cpu);
            s.hwm_kb.push(hwm);
            s.threads.push(threads);
            s.ctx_switches.push(ctx);
        }
        Ok(s)
    }

    /// One telemetry snapshot per member over the control connections.
    /// Returns the summed counters and the median round-trip time.
    pub fn sweep(&mut self) -> Result<(Counters, Duration), String> {
        let mut sum = Counters::default();
        let mut rtts = Vec::new();
        for c in &mut self.control {
            let t0 = Instant::now();
            let StatsReport { counters, load, .. } = c.stats()?;
            rtts.push(t0.elapsed());
            for (name, v) in counters {
                *sum.counters.entry(name).or_insert(0) += v;
            }
            sum.loads.push(load);
        }
        rtts.sort();
        Ok((sum, rtts[rtts.len() / 2]))
    }

    /// Sweep until two consecutive snapshots agree: answers complete
    /// before the last (empty) result frames land, so counters lag the
    /// merged lists by a few messages.
    pub fn quiesce(&mut self) -> Result<(Counters, Duration), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut last = self.sweep()?;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let next = self.sweep()?;
            if next.0 == last.0 {
                return Ok(next);
            }
            if Instant::now() >= deadline {
                return Err(self.failure("cluster telemetry never went quiescent"));
            }
            last = next;
        }
    }
}
