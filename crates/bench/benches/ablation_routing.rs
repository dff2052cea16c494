//! **Ablation: embedded-tree routing vs the naive approach** (§3.3).
//!
//! The paper motivates Algorithms 3–5 by contrast with the naive scheme
//! — subdivide the range query into per-cuboid subqueries and route each
//! independently — which "is obviously inefficient ... especially when
//! the query selectivity is large". This harness measures that claim:
//! same workload, same answers, message/bandwidth cost of the embedded
//! tree vs naive decomposition at several levels.

use bench::sweep::{run_sweep, synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: embedded-tree routing vs naive per-cuboid routing ===");
    println!(
        "{} nodes, {} objects, {} queries, KMean-10 landmarks",
        scale.n_nodes, scale.n_objects, scale.n_queries
    );
    let setup = synth_setup(&scale);
    let factors = [0.02, 0.05, 0.10, 0.20];
    let level = (scale.n_nodes as f64).log2().ceil() as u32 + 2;

    let mut table: Vec<(String, Vec<bench::Row>)> = Vec::new();
    for (name, naive) in [
        ("embedded-tree".to_string(), None),
        (format!("naive-L{}", level - 2), Some(level - 2)),
        (format!("naive-L{level}"), Some(level)),
    ] {
        eprintln!("running {name} ...");
        let run = Run {
            naive,
            ..Run::new(SelectionMethod::KMeans, 10, None)
        };
        let rows = run_sweep(&scale, &setup, &run, &factors).rows;
        table.push((name, rows));
    }

    println!(
        "\n{:>8} {:>16} {:>10} {:>10} {:>12} {:>8} {:>8}",
        "range%", "router", "msgs", "hops", "query-bytes", "recall", "resp-ms"
    );
    for fi in 0..factors.len() {
        for (name, rows) in &table {
            let r = &rows[fi];
            println!(
                "{:>8.1} {:>16} {:>10.1} {:>10.2} {:>12.0} {:>8.3} {:>8.1}",
                r.range_factor * 100.0,
                name,
                r.query_msgs,
                r.hops,
                r.query_bytes,
                r.recall,
                r.response_ms
            );
        }
    }

    // Sanity: identical recall (same answers), fewer messages.
    for fi in 0..factors.len() {
        let tree = &table[0].1[fi];
        for (name, rows) in &table[1..] {
            let naive = &rows[fi];
            assert!(
                (tree.recall - naive.recall).abs() < 1e-9,
                "answers must not depend on the router ({name})"
            );
            assert!(
                tree.query_msgs <= naive.query_msgs,
                "embedded tree must not send more messages than {name}"
            );
        }
    }
    println!("\nOK: identical recall, embedded tree never costs more messages.");
    save_json(
        "ablation_routing",
        &table
            .iter()
            .map(|(n, r)| (n.clone(), r.clone()))
            .collect::<Vec<_>>(),
    );
}
