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
//!   --explain        print a step-by-step trace of one query's resolution
//!   --telemetry      after the sweep, print the run's telemetry summary,
//!                    the recorded plan of query 0, and save the full
//!                    snapshot under target/experiments/

use bench::report::print_telemetry_summary;
use bench::scale::Scale;
use bench::synth::{run_synth_system, synth_setup, SynthRun};
use bench::{print_series, Row};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn parse_args() -> (Scale, SynthRun, Vec<f64>, bool, bool) {
    let mut scale = Scale::quick();
    scale.n_queries = 100;
    let mut run = SynthRun::new(SelectionMethod::KMeans, 10, None);
    let mut factors = vec![0.02, 0.05, 0.10];
    let mut explain = false;
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
            "--explain" => explain = true,
            "--telemetry" => telemetry = true,
            "--help" | "-h" => {
                println!("see the doc comment at the top of explore.rs for the knob list");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
        i += 1;
    }
    (scale, run, factors, explain, telemetry)
}

fn main() {
    let (scale, run, factors, explain, telemetry) = parse_args();
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

    if explain {
        // Build the same system and trace the first query at the first
        // range factor instead of running the whole sweep.
        use landmark::{boundary_from_metric, Mapper};
        use metric::L2;
        use simsearch::{IndexSpec, SearchSystem, SystemConfig};
        use std::sync::Arc;
        let landmarks = bench::synth::select_landmarks(&setup, run.method, run.k, &scale);
        let metric = L2::bounded(100, 0.0, 100.0);
        let mapper = Mapper::new(metric, landmarks);
        let points = mapper.map_all::<[f32], _>(&setup.dataset.objects);
        let oracle: Arc<dyn simsearch::QueryDistance> =
            Arc::new(|_q: simsearch::QueryId, _o: metric::ObjectId| 0.0);
        let system = SearchSystem::build(
            SystemConfig {
                n_nodes: scale.n_nodes,
                seed: scale.seed,
                lb: run.lb,
                ..SystemConfig::default()
            },
            &[IndexSpec {
                name: "explore".into(),
                boundary: boundary_from_metric(&metric, run.k).unwrap().dims,
                points,
                rotate: run.rotate,
                rotation: None,
            }],
            oracle,
        );
        let qm = mapper.map(setup.qpoints[0].as_slice());
        let radius = factors[0] * setup.dataset.max_distance();
        let report = system.explain(0, &qm, radius, 0);
        println!(
            "
query 0 at range factor {:.2}%:
{report}",
            factors[0] * 100.0
        );
        return;
    }

    eprintln!("running ...");
    let (rows, loads, system) = run_synth_system(&scale, &setup, &run, &factors);

    let all: Vec<Row> = rows;
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
