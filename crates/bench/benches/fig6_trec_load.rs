//! **Figure 6** — TREC-like corpus: load distribution on nodes for
//! Greedy-10 and KMean-10, with load balancing.
//!
//! Paper shape to check: greedy's sparse landmarks map a large mass of
//! unrelated documents to the *same* point near the upper boundary of
//! the index space, hashing them to a single key — which load migration
//! cannot divide — so the greedy distribution stays badly skewed even
//! with balancing, while k-means spreads out.

use bench::report::print_load_distribution;
use bench::sweep::{run_sweep, trec_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 6: TREC-like corpus load distribution, with LB ===");
    println!(
        "{} docs, {} nodes, seed {}",
        scale.corpus_docs, scale.n_nodes, scale.seed
    );

    let setup = trec_setup(&scale);
    let lb = LoadBalanceConfig {
        delta: 0.0,
        probe_level: 4,
        max_rounds: 8,
    };
    let factors = [0.01];
    let mut series: Vec<(String, Vec<usize>)> = Vec::new();
    for method in [SelectionMethod::Greedy, SelectionMethod::KMeans] {
        eprintln!("running {method}-10 ...");
        let loads = run_sweep(&scale, &setup, &Run::new(method, 10, Some(lb)), &factors).loads;
        series.push((format!("{method}-10"), loads));
    }
    print_load_distribution("Fig 6: WITH load balancing", &series);

    let g_max = series[0].1.first().copied().unwrap_or(0);
    let k_max = series[1].1.first().copied().unwrap_or(0);
    println!(
        "\nbusiest node holds {:.1}% of all entries under Greedy-10 vs {:.1}% under KMean-10",
        100.0 * g_max as f64 / scale.corpus_docs as f64,
        100.0 * k_max as f64 / scale.corpus_docs as f64,
    );
    save_json("fig6_trec_load", &series);
}
