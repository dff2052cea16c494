//! **Figure 3** — synthetic dataset, *with* dynamic load migration
//! (δ = 0, probe level P_l = 4, the paper's maximum-effect setting).
//!
//! Paper shape to check: versus figure 2, recall can dip slightly and
//! routing cost rises (migration skews the node-id distribution, which
//! deepens the embedded search tree), but recall stays high; the
//! 5-landmark schemes are hurt less than the 10-landmark ones because
//! their entries were already spread more evenly.

use bench::scale::RANGE_FACTORS;
use bench::sweep::{run_sweep, synth_setup, Run, Sweep};
use bench::{print_series, save_json, Row, Scale};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 3: synthetic dataset, with load balancing (delta=0, P_l=4) ===");
    println!(
        "{} nodes, {} objects, {} queries per range factor, seed {}",
        scale.n_nodes, scale.n_objects, scale.n_queries, scale.seed
    );

    let setup = synth_setup(&scale);
    let lb = LoadBalanceConfig {
        delta: 0.0,
        probe_level: 4,
        max_rounds: 8,
    };
    let configs = [
        (SelectionMethod::Greedy, 5),
        (SelectionMethod::Greedy, 10),
        (SelectionMethod::KMeans, 5),
        (SelectionMethod::KMeans, 10),
    ];
    let mut all: Vec<Row> = Vec::new();
    for (method, k) in configs {
        let run = Run::new(method, k, Some(lb));
        eprintln!("running {} ...", run.label());
        let Sweep { rows, loads, .. } = run_sweep(&scale, &setup, &run, RANGE_FACTORS);
        eprintln!(
            "  {}: max load after LB = {}",
            run.label(),
            loads.first().copied().unwrap_or(0)
        );
        all.extend(rows);
    }

    print_series("Fig 3a: recall", &all, |r| r.recall);
    print_series("Fig 3b: hops (max path length)", &all, |r| r.hops);
    print_series("Fig 3c: response time [ms]", &all, |r| r.response_ms);
    print_series("Fig 3d: maximum latency [ms]", &all, |r| r.max_latency_ms);
    print_series("Fig 3e: query delivery bandwidth [bytes]", &all, |r| {
        r.query_bytes
    });
    print_series("Fig 3f: result delivery bandwidth [bytes]", &all, |r| {
        r.result_bytes
    });
    print_series("Fig 3g: query messages", &all, |r| r.query_msgs);
    save_json("fig3_synthetic_lb", &all);
}
