//! The `node` binary: run one cluster node, or act as a client against
//! a running cluster. See the README quickstart for a worked example.

use node::client;
use node::runtime::{run_server, ServerOpts};
use node::scenario::{write_corpus, Scenario};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  node --listen ADDR [--join ADDR] --expect N [--dims D] [--depth B] [--objects N] [--seed S]
      Run one cluster node. The seed node omits --join; every node must
      agree on --expect and the scenario flags. `--listen 127.0.0.1:0`
      picks a free port and prints `listening on <addr>`.

  node --gen-corpus PATH --objects N [--dims D] [--seed S]
      Write the deterministic corpus (one point per line) to PATH.

  Scenario flags: --dims D needs D >= 1 and --depth B (grid divisions,
  i.e. key bits) needs 1 <= B <= 64; both modes refuse anything else.

  node --connect ADDR <operation>
      operations:
        --publish-file PATH                  publish the corpus, wait until stored
        --query SPEC --qid N                 issue a range query (SPEC = x,y,..@radius)
        --check-range SPEC --qid N --corpus PATH   query + assert exact expected results
        --check-knn SPEC --qid N --corpus PATH     expanding-ring kNN (SPEC = x,y,..@k)
        --stats                              print the node's telemetry as JSON
        --members                            print the membership list
        --shutdown                           stop the connected node
        --shutdown-cluster                   stop every member
";

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: Vec<String>) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = argv.into_iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?} (flags start with --)"))?
                .to_string();
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked")),
                _ => None,
            };
            flags.push((name, value));
        }
        Ok(Args { flags })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} requires a value"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|e| format!("--{name} {v:?}: {e}")),
        }
    }
}

/// The scenario the flags describe, refused before any socket or file
/// is opened if the index grid could not be built from it.
fn scenario_from(args: &Args, n_nodes: usize) -> Result<Scenario, String> {
    let defaults = Scenario::new(n_nodes);
    let sc = Scenario {
        n_nodes,
        dims: args.parse_num("dims", defaults.dims)?,
        depth: args.parse_num("depth", defaults.depth)?,
        n_objects: args.parse_num("objects", defaults.n_objects)?,
        seed: args.parse_num("seed", defaults.seed)?,
    };
    if sc.dims == 0 {
        return Err("--dims must be at least 1".to_string());
    }
    if !(1..=64).contains(&sc.depth) {
        return Err(format!("--depth {} is outside 1..=64", sc.depth));
    }
    Ok(sc)
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    if args.has("help") || args.flags.is_empty() {
        print!("{USAGE}");
        return Ok(());
    }
    if args.has("listen") {
        let expect: usize = args.parse_num("expect", 0)?;
        if expect == 0 {
            return Err("--listen requires --expect N (total cluster size)".to_string());
        }
        let opts = ServerOpts {
            listen: args.require("listen")?.to_string(),
            join: args.get("join").map(String::from),
            expect,
            scenario: scenario_from(&args, expect)?,
        };
        return run_server(&opts);
    }
    if args.has("gen-corpus") {
        let path = args.require("gen-corpus")?;
        if !args.has("objects") {
            return Err("--gen-corpus requires --objects N".to_string());
        }
        let sc = scenario_from(&args, 1)?;
        write_corpus(path, &sc.corpus())?;
        println!("wrote {} {}-dim points to {path}", sc.n_objects, sc.dims);
        return Ok(());
    }
    if args.has("connect") {
        let addr = args.require("connect")?;
        let qid = || -> Result<u32, String> {
            args.require("qid")?
                .parse::<u32>()
                .map_err(|e| format!("--qid: {e}"))
        };
        if args.has("publish-file") {
            return client::publish_file(addr, args.require("publish-file")?);
        }
        if args.has("check-range") {
            return client::check_range(
                addr,
                args.require("check-range")?,
                qid()?,
                args.require("corpus")?,
            );
        }
        if args.has("check-knn") {
            return client::check_knn(
                addr,
                args.require("check-knn")?,
                qid()?,
                args.require("corpus")?,
            );
        }
        if args.has("query") {
            let (center, radius) = node::scenario::parse_spec(args.require("query")?)?;
            let mut c = client::Client::connect(addr)?;
            let report = c.query(qid()?, 0, &center, radius)?;
            println!(
                "issued; {} responses so far (poll with --check-range for verification)",
                report.responses
            );
            return Ok(());
        }
        if args.has("stats") {
            return client::print_stats(addr);
        }
        if args.has("members") {
            return client::print_members(addr);
        }
        if args.has("shutdown-cluster") {
            return client::shutdown_cluster(addr);
        }
        if args.has("shutdown") {
            return client::Client::connect(addr)?.shutdown();
        }
        return Err("--connect needs an operation (see --help)".to_string());
    }
    Err("no mode selected: use --listen, --gen-corpus, or --connect (see --help)".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("node: {e}");
            ExitCode::FAILURE
        }
    }
}
