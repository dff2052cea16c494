//! **Table 2** — distribution of document-vector sizes in the TREC-like
//! corpus. The paper reports, for TREC-1,2-AP after stopword removal:
//! min 1 / 5th 50 / 50th 146 / 95th 293 / max 676 / mean 155.4.
//!
//! This harness regenerates the table from our synthetic corpus so the
//! substitution's fidelity is measurable, and prints the query-topic
//! statistics (paper: 3.5 distinct terms on average) alongside.

use bench::sweep::trec_corpus;
use bench::{save_json, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("=== Table 2: document vector size distribution ===");
    println!(
        "{} documents, vocabulary {}, seed {}",
        scale.corpus_docs, scale.corpus_vocab, scale.seed
    );

    let corpus = trec_corpus(&scale);
    let s = corpus.vector_size_stats();

    println!(
        "\n{:>10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "", "min", "5th", "50th", "95th", "max", "mean"
    );
    println!(
        "{:>10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8.1}",
        "ours", s.min, s.p5, s.p50, s.p95, s.max, s.mean
    );
    println!(
        "{:>10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8.1}",
        "paper", 1, 50, 146, 293, 676, 155.4
    );

    let qmean =
        corpus.topics.iter().map(|t| t.nnz()).sum::<usize>() as f64 / corpus.topics.len() as f64;
    println!(
        "\nquery topics: {} topics, mean {:.2} distinct terms (paper: 50 topics, 3.5 terms)",
        corpus.topics.len(),
        qmean
    );
    let distinct_terms = corpus.df.iter().filter(|&&d| d > 0).count();
    println!(
        "distinct terms used: {} of vocabulary {} (paper: 233,640 distinct terms)",
        distinct_terms, scale.corpus_vocab
    );

    save_json(
        "table2_corpus_stats",
        &serde_json::json!({
            "min": s.min, "p5": s.p5, "p50": s.p50, "p95": s.p95,
            "max": s.max, "mean": s.mean,
            "query_mean_terms": qmean,
            "distinct_terms": distinct_terms,
        }),
    );
}
