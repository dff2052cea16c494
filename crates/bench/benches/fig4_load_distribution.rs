//! **Figure 4** — load distribution on nodes (synthetic dataset),
//! sorted in decreasing order of load, for every landmark configuration.
//!
//! Paper shape to check: without balancing the clustered data piles
//! index entries onto a few nodes; dynamic load migration flattens the
//! distribution (the paper's maximally loaded node holds only 97 entries
//! at 10^5 objects — ≈0.1% of the dataset — for all schemes).

use bench::report::print_load_distribution;
use bench::sweep::{run_sweep, synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 4: load distribution on nodes (synthetic) ===");
    println!(
        "{} nodes, {} objects, seed {}",
        scale.n_nodes, scale.n_objects, scale.seed
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
    // A single cheap sweep point: figure 4 is about placement, which
    // queries do not change.
    let factors = [0.01];
    let mut without: Vec<(String, Vec<usize>)> = Vec::new();
    let mut with_lb: Vec<(String, Vec<usize>)> = Vec::new();
    for (method, k) in configs {
        let plain = Run::new(method, k, None);
        eprintln!("running {} (no LB) ...", plain.label());
        let loads0 = run_sweep(&scale, &setup, &plain, &factors).loads;
        without.push((plain.label(), loads0));
        let balanced = Run::new(method, k, Some(lb));
        eprintln!("running {} (LB) ...", balanced.label());
        let loads1 = run_sweep(&scale, &setup, &balanced, &factors).loads;
        with_lb.push((balanced.label(), loads1));
    }

    print_load_distribution("Fig 4 (reference): WITHOUT load balancing", &without);
    print_load_distribution("Fig 4: WITH load balancing (delta=0, P_l=4)", &with_lb);

    // The paper's headline: the maximum load after balancing is small
    // for every scheme.
    println!("\nmax-load summary (entries on the busiest node):");
    for ((label, w), (_, b)) in without.iter().zip(&with_lb) {
        println!(
            "  {label:>10}: {:>7} -> {:>6} ({} entries total)",
            w.first().unwrap(),
            b.first().unwrap(),
            scale.n_objects
        );
    }
    save_json(
        "fig4_load_distribution",
        &serde_json::json!({ "without": without, "with_lb": with_lb }),
    );
}
