//! **Ablation: number of landmarks** (§3.1).
//!
//! "The number of landmarks affects the tradeoff between querying
//! quality and querying efficiency": too few landmarks filter poorly
//! (bigger candidate sets, more result bandwidth); too many blow up the
//! dimensionality of the index space (more subqueries, higher routing
//! cost). This harness sweeps k at fixed range factors.

use bench::sweep::{run_sweep, synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: landmark count sweep (KMean-k) ===");
    println!("{} nodes, {} objects", scale.n_nodes, scale.n_objects);
    let setup = synth_setup(&scale);
    let factors = [0.02, 0.05];
    let ks = [2usize, 3, 5, 8, 10, 15, 20];

    let mut rows_all = Vec::new();
    // Mean candidates per query (entries whose mapped point matched a
    // fragment, over all answering nodes), one per row of `rows_all`.
    let mut candidates = Vec::new();
    println!(
        "\n{:>4} {:>8} {:>8} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "k", "range%", "recall", "hops", "query-bytes", "result-bytes", "msgs", "cands"
    );
    for &k in &ks {
        let run = Run::new(SelectionMethod::KMeans, k, None);
        let sweep = run_sweep(&scale, &setup, &run, &factors);
        let tel = sweep.system.telemetry();
        // Outcomes run factor by factor, `n_queries` each.
        let per_factor = sweep.outcomes.chunks(scale.n_queries);
        for (r, outcomes) in sweep.rows.iter().zip(per_factor) {
            let trace = |qid| tel.trace(qid).expect("every query is traced");
            let matched: u64 = outcomes
                .iter()
                .map(|o| trace(o.qid).summary().matched)
                .sum();
            let cands = matched as f64 / outcomes.len() as f64;
            println!(
                "{:>4} {:>8.1} {:>8.3} {:>8.2} {:>12.0} {:>12.0} {:>10.1} {:>10.1}",
                k,
                r.range_factor * 100.0,
                r.recall,
                r.hops,
                r.query_bytes,
                r.result_bytes,
                r.query_msgs,
                cands
            );
            candidates.push(cands);
        }
        rows_all.extend(sweep.rows);
    }

    // Shape checks — the §3.1 trade-off. Few landmarks filter poorly:
    // the candidate superset balloons. Many landmarks filter tightly:
    // cheap delivery, slightly fewer bonus near-misses in the merged
    // top-10 at small radii. Both ends must still answer the 5%-range
    // queries with high recall.
    let row = |k: usize, f: f64| {
        rows_all
            .iter()
            .position(|r| r.label == format!("KMean-{k}") && r.range_factor == f)
            .unwrap()
    };
    let at = |k: usize, f: f64| &rows_all[row(k, f)];
    let (loose, tight) = (at(2, 0.05), at(10, 0.05));
    let (loose_cands, tight_cands) = (candidates[row(2, 0.05)], candidates[row(10, 0.05)]);
    assert!(
        loose_cands > tight_cands * 4.0,
        "2 landmarks should match over 4x the candidates of 10: {loose_cands:.1} vs {tight_cands:.1}"
    );
    assert!(
        loose.query_msgs > tight.query_msgs,
        "2 landmarks should cost more query messages than 10"
    );
    for &k in &ks {
        let r = at(k, 0.05);
        assert!(r.recall > 0.85, "KMean-{k} recall at 5%: {}", r.recall);
    }
    println!(
        "\nOK: k=2 matches {:.2}x the candidates of k=10 at equal (high) recall.",
        loose_cands / tight_cands
    );
    save_json("ablation_landmarks", &rows_all);
}
