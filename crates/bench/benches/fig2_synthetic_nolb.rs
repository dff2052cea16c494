//! **Figure 2** — synthetic dataset, *without* load balancing.
//!
//! Reproduces: recall / hops / response time / maximum latency /
//! bandwidth versus the query range factor (0.1%–20%) for the four
//! landmark configurations {Greedy-5, Greedy-10, KMean-5, KMean-10}.
//!
//! Paper shape to check: all schemes reach high recall cheaply;
//! KMean-10 and Greedy-10 hit 100% recall by ≈5% range factor; the
//! 10-landmark schemes beat the 5-landmark ones (the data has 10
//! clusters); k-means beats greedy.

use bench::scale::RANGE_FACTORS;
use bench::sweep::{run_sweep, synth_setup, Run};
use bench::{print_series, save_json, Row, Scale};
use landmark::SelectionMethod;

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 2: synthetic dataset, no load balancing ===");
    println!(
        "Table 1 params: 100 dims, range [0,100], 10 clusters, deviation 20, {} objects",
        scale.n_objects
    );
    println!(
        "{} nodes, {} queries per range factor, seed {}{}",
        scale.n_nodes,
        scale.n_queries,
        scale.seed,
        if scale.full {
            " (paper scale)"
        } else {
            " (quick scale; SIMSEARCH_FULL=1 for paper scale)"
        }
    );

    let setup = synth_setup(&scale);
    let configs = [
        (SelectionMethod::Greedy, 5),
        (SelectionMethod::Greedy, 10),
        (SelectionMethod::KMeans, 5),
        (SelectionMethod::KMeans, 10),
    ];
    let mut all: Vec<Row> = Vec::new();
    for (method, k) in configs {
        let run = Run::new(method, k, None);
        eprintln!("running {} ...", run.label());
        let rows = run_sweep(&scale, &setup, &run, RANGE_FACTORS).rows;
        all.extend(rows);
    }

    print_series("Fig 2a: recall", &all, |r| r.recall);
    print_series("Fig 2b: hops (max path length)", &all, |r| r.hops);
    print_series("Fig 2c: response time [ms]", &all, |r| r.response_ms);
    print_series("Fig 2d: maximum latency [ms]", &all, |r| r.max_latency_ms);
    print_series("Fig 2e: query delivery bandwidth [bytes]", &all, |r| {
        r.query_bytes
    });
    print_series("Fig 2f: result delivery bandwidth [bytes]", &all, |r| {
        r.result_bytes
    });
    print_series("Fig 2g: query messages", &all, |r| r.query_msgs);
    save_json("fig2_synthetic_nolb", &all);
}
