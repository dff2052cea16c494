//! **Ablation: k-NN by iterative range expansion** (extension; the
//! paper's evaluation probes k=10 recall through fixed-radius queries —
//! this harness measures the adaptive strategy a client would actually
//! use, and the cost of guessing the initial radius wrong).
//!
//! Three strategies resolve the same exact 10-NN queries:
//! * `tiny`      — start at 0.1% of the max distance, double per round:
//!   many cheap rounds (lowest bandwidth, highest latency);
//! * `estimated` — start at the sampled median 10-NN radius and grow
//!   gently (×1.3): few rounds with little overshoot;
//! * `oversized` — start at 30% of the max distance: one round, lowest
//!   latency, the query floods a large part of the ring.

use bench::sweep::{synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use metric::ObjectId;
use simsearch::{QueryId, SearchSystem, SystemConfig};

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: k-NN initial-radius strategies (exact 10-NN) ===");
    println!(
        "{} nodes, {} objects, KMean-10",
        scale.n_nodes, scale.n_objects
    );

    let setup = synth_setup(&scale);
    let (spec, mapping) = setup.index(&scale, &Run::new(SelectionMethod::KMeans, 10, None));

    // Estimate the 10-NN radius from the ground truth of the setup
    // (in a deployment: from a published sample); median over queries.
    let mut radii: Vec<f64> = setup
        .truth
        .iter()
        .enumerate()
        .map(|(qi, t)| (mapping.dist)(qi, t.last().expect("10 truth ids").0 as usize))
        .collect();
    radii.sort_by(|a, b| a.total_cmp(b));
    let est_radius = radii[radii.len() / 2];
    let max_d = setup.max_distance;
    println!(
        "estimated 10-NN radius: {est_radius:.1} ({:.1}% of max)",
        est_radius / max_d * 100.0
    );

    let n_queries = scale.n_queries.min(60); // knn runs are sequential
    let n_pool = mapping.pool.len();

    println!(
        "\n{:>10} {:>8} {:>8} {:>12} {:>12} {:>10} {:>8}",
        "strategy", "rounds", "exact%", "query-bytes", "result-bytes", "total-ms", "r0/max%"
    );
    let mut out = Vec::new();
    for (name, r0, growth) in [
        ("tiny", 0.001 * max_d, 2.0),
        ("estimated", est_radius, 1.3),
        ("oversized", 0.30 * max_d, 2.0),
    ] {
        let cfg = SystemConfig {
            n_nodes: scale.n_nodes,
            seed: scale.seed,
            ..SystemConfig::default()
        };
        let mut system = SearchSystem::build(
            cfg,
            std::slice::from_ref(&spec),
            mapping.oracle(move |qid| qid as usize % n_pool),
        );
        let mut rounds = 0.0;
        let mut exact = 0usize;
        let mut qb = 0u64;
        let mut rb = 0u64;
        let mut ms = 0.0;
        for qi in 0..n_queries {
            let o = system.run_knn(qi as QueryId, 0, &mapping.pool[qi], 10, r0, growth, 24);
            rounds += o.rounds as f64;
            let got: Vec<ObjectId> = o.results.iter().map(|&(id, _)| id).collect();
            if o.certified && got == setup.truth[qi] {
                exact += 1;
            }
            qb += o.query_bytes;
            rb += o.result_bytes;
            ms += o.total_ms;
        }
        let n = n_queries as f64;
        println!(
            "{name:>10} {:>8.2} {:>8.0} {:>12.0} {:>12.0} {:>10.0} {:>8.2}",
            rounds / n,
            exact as f64 / n * 100.0,
            qb as f64 / n,
            rb as f64 / n,
            ms / n,
            r0 / max_d * 100.0
        );
        out.push(serde_json::json!({
            "strategy": name, "rounds": rounds / n, "exact": exact,
            "query_bytes": qb as f64 / n, "result_bytes": rb as f64 / n, "ms": ms / n,
        }));
    }

    // Shape checks: every strategy is exact; the estimated start needs
    // the fewest bytes.
    for v in &out {
        assert_eq!(
            v["exact"].as_u64().unwrap() as usize,
            n_queries,
            "{} strategy lost exactness",
            v["strategy"]
        );
    }
    let field = |s: &str, f: &str| {
        out.iter().find(|v| v["strategy"] == s).unwrap()[f]
            .as_f64()
            .unwrap()
    };
    // The latency/bandwidth trade-off must point the expected ways:
    // growing from tiny is the slowest but thriftiest; starting oversized
    // is the fastest; the informed start sits at one round-ish.
    assert!(field("tiny", "ms") > field("oversized", "ms"));
    assert!(field("tiny", "query_bytes") < field("oversized", "query_bytes"));
    assert!(field("estimated", "rounds") < field("tiny", "rounds"));
    println!(
        "\nOK: all strategies exact; tiny-start trades {:.1}x latency for {:.1}x less bandwidth vs oversized.",
        field("tiny", "ms") / field("oversized", "ms"),
        field("oversized", "query_bytes") / field("tiny", "query_bytes")
    );
    save_json("ablation_knn", &out);
}
