//! `explore` — run a custom experiment from the command line.
//!
//! ```text
//! cargo run --release -p bench --bin explore -- \
//!     --nodes 256 --objects 20000 --queries 100 \
//!     --method kmeans --k 10 --factors 0.02,0.05,0.1 --lb
//! ```
//!
//! Knobs (all optional):
//!   --nodes N        overlay size            (default 256)
//!   --objects N      dataset size            (default 20000)
//!   --queries N      queries per factor      (default 100)
//!   --method M       greedy|kmeans|kmedoids  (default kmeans)
//!   --k K            landmark count          (default 10)
//!   --factors F,..   query range factors     (default 0.02,0.05,0.10)
//!   --seed S         root seed               (default 42)
//!   --lb             enable dynamic load migration
//!   --load-aware     load-aware join placement
//!   --naive L        naive routing at decomposition level L
//!   --rotate         apply the space-mapping rotation
//!   --no-pns         plain Chord fingers (no proximity selection)
//!   --replicate R    retry/failover + publish to R successor replicas
//!   --loss P         drop each message with probability P (e.g. 0.1)
//!   --churn N        inject N crash/restart pairs across the workload
//!   --telemetry      after the sweep, print the run's telemetry summary,
//!                    the recorded plan of query 0, and save the full
//!                    snapshot under target/experiments/

use bench::print_series;
use bench::report::print_telemetry_summary;
use bench::scale::Scale;
use bench::sweep::{run_sweep, synth_setup, Run};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn parse_args() -> (Scale, Run, Vec<f64>, bool) {
    let mut scale = Scale::quick();
    scale.n_queries = 100;
    let mut run = Run::new(SelectionMethod::KMeans, 10, None);
    let mut factors = vec![0.02, 0.05, 0.10];
    let mut telemetry = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => scale.n_nodes = value(&mut i).parse().expect("--nodes"),
            "--objects" => scale.n_objects = value(&mut i).parse().expect("--objects"),
            "--queries" => scale.n_queries = value(&mut i).parse().expect("--queries"),
            "--seed" => scale.seed = value(&mut i).parse().expect("--seed"),
            "--k" => run.k = value(&mut i).parse().expect("--k"),
            "--method" => {
                run.method = match value(&mut i).as_str() {
                    "greedy" => SelectionMethod::Greedy,
                    "kmeans" => SelectionMethod::KMeans,
                    "kmedoids" => SelectionMethod::KMedoids,
                    other => panic!("unknown method {other}"),
                }
            }
            "--factors" => {
                factors = value(&mut i)
                    .split(',')
                    .map(|f| f.parse().expect("--factors"))
                    .collect()
            }
            "--lb" => run.lb = Some(LoadBalanceConfig::default()),
            "--load-aware" => run.load_aware_join = true,
            "--naive" => run.naive = Some(value(&mut i).parse().expect("--naive")),
            "--rotate" => run.rotate = true,
            "--no-pns" => run.pns = 0,
            "--replicate" => {
                run.resilience = Some(simsearch::ResilienceConfig {
                    replication: value(&mut i).parse().expect("--replicate"),
                    ..simsearch::ResilienceConfig::default()
                })
            }
            "--loss" => run.loss = value(&mut i).parse().expect("--loss"),
            "--churn" => run.churn = value(&mut i).parse().expect("--churn"),
            "--telemetry" => telemetry = true,
            "--help" | "-h" => {
                println!("see the doc comment at the top of explore.rs for the knob list");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
        i += 1;
    }
    (scale, run, factors, telemetry)
}

fn main() {
    let (scale, run, factors, telemetry) = parse_args();
    println!(
        "explore: {} nodes, {} objects, {} queries/factor, {}-{} landmarks{}{}{}",
        scale.n_nodes,
        scale.n_objects,
        scale.n_queries,
        run.method,
        run.k,
        if run.lb.is_some() { ", LB on" } else { "" },
        run.naive
            .map(|l| format!(", naive L{l}"))
            .unwrap_or_default(),
        if run.rotate { ", rotated" } else { "" },
    );

    eprintln!("generating dataset + ground truth ...");
    let setup = synth_setup(&scale);

    eprintln!("running ...");
    let sweep = run_sweep(&scale, &setup, &run, &factors);
    let (all, loads, system) = (sweep.rows, sweep.loads, sweep.system);
    print_series("recall", &all, |r| r.recall);
    print_series("hops", &all, |r| r.hops);
    print_series("response time [ms]", &all, |r| r.response_ms);
    print_series("maximum latency [ms]", &all, |r| r.max_latency_ms);
    print_series("query bandwidth [bytes]", &all, |r| r.query_bytes);
    print_series("result bandwidth [bytes]", &all, |r| r.result_bytes);
    println!(
        "\nload: max={} median={} of {} entries over {} nodes",
        loads.first().unwrap_or(&0),
        loads.get(loads.len() / 2).unwrap_or(&0),
        scale.n_objects,
        scale.n_nodes
    );

    if telemetry {
        if let Some(plan) = system.query_plan(0) {
            println!("\n== recorded plan of query 0 ==\n{plan}");
        }
        let snapshot = system.telemetry_snapshot();
        print_telemetry_summary(&snapshot);
        bench::report::save_json("explore_telemetry", &snapshot);
    }
}
