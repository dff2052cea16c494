//! **Figure 5** — TREC-like corpus: recall and routing cost versus the
//! query range factor for Greedy-10 and KMean-10, with load balancing.
//!
//! Paper shape to check: below ≈1% range factor the greedy method gets
//! higher recall at lower routing cost (its sparse landmarks map queries
//! — and most documents — into a thin shell at the upper boundary, so
//! the *effective* search region is truncated and the entries sit on few
//! nodes); from 1% to 20% k-means wins on both recall and cost, because
//! its dense centroid landmarks actually discriminate documents while
//! greedy cannot retrieve the related documents it filtered badly.

use bench::scale::RANGE_FACTORS;
use bench::sweep::{run_sweep, trec_setup, Run};
use bench::{print_series, save_json, Row, Scale};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Figure 5: TREC-like corpus, Greedy-10 vs KMean-10, with LB ===");
    println!(
        "{} docs, vocab {}, {} nodes, {} queries per range factor, seed {}",
        scale.corpus_docs, scale.corpus_vocab, scale.n_nodes, scale.n_queries, scale.seed
    );

    let setup = trec_setup(&scale);
    let lb = LoadBalanceConfig {
        delta: 0.0,
        probe_level: 4,
        max_rounds: 8,
    };
    let mut all: Vec<Row> = Vec::new();
    for method in [SelectionMethod::Greedy, SelectionMethod::KMeans] {
        eprintln!("running {method}-10 ...");
        let rows = run_sweep(
            &scale,
            &setup,
            &Run::new(method, 10, Some(lb)),
            RANGE_FACTORS,
        )
        .rows;
        all.extend(rows);
    }

    print_series("Fig 5a: recall", &all, |r| r.recall);
    print_series("Fig 5b: hops (max path length)", &all, |r| r.hops);
    print_series("Fig 5c: response time [ms]", &all, |r| r.response_ms);
    print_series("Fig 5d: maximum latency [ms]", &all, |r| r.max_latency_ms);
    print_series("Fig 5e: query delivery bandwidth [bytes]", &all, |r| {
        r.query_bytes
    });
    print_series("Fig 5f: query messages", &all, |r| r.query_msgs);
    save_json("fig5_trec", &all);
}
