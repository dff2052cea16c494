//! The figure pipeline pinned: one tiny synthetic configuration and one
//! tiny TREC configuration run through the same `run_sweep` the
//! figure and ablation benches use, and every field of every
//! `QueryOutcome` (floats as bit patterns) plus the final load
//! distribution must match `tests/golden/figure_pipeline.txt` byte for
//! byte. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --release -p bench --test figure_golden`
//! and review the diff like source.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::fmt::Write;

use bench::sweep::{run_sweep, synth_setup, trec_setup, Run, Sweep};
use bench::Scale;
use landmark::SelectionMethod;
use simsearch::{LoadBalanceConfig, QueryOutcome, ResilienceConfig};

const FACTORS: &[f64] = &[0.01, 0.05, 0.2];

fn tiny_scale() -> Scale {
    Scale {
        n_nodes: 32,
        n_objects: 1_500,
        n_queries: 10,
        corpus_docs: 1_200,
        corpus_vocab: 8_000,
        sample: 200,
        kmeans_iters: 6,
        ..Scale::quick()
    }
}

/// One line per query, then the load distribution.
fn digest(out: &mut String, label: &str, outcomes: &[QueryOutcome], loads: &[usize]) {
    writeln!(out, "# {label}").unwrap();
    for o in outcomes {
        let QueryOutcome {
            qid,
            origin,
            hops,
            completed,
            response_ms,
            max_latency_ms,
            query_bytes,
            result_bytes,
            query_msgs,
            responses,
            results,
            recall,
            degraded,
        } = o;
        let results: Vec<String> = results
            .iter()
            .map(|(id, d)| format!("{}:{:016x}", id.0, d.to_bits()))
            .collect();
        writeln!(
            out,
            "{qid} origin={} hops={hops} completed={completed} response={:016x} \
             max_latency={:016x} query_bytes={query_bytes} result_bytes={result_bytes} \
             query_msgs={query_msgs} responses={responses} recall={:016x} \
             degraded={degraded} results=[{}]",
            origin.0,
            response_ms.to_bits(),
            max_latency_ms.to_bits(),
            recall.to_bits(),
            results.join(" ")
        )
        .unwrap();
    }
    writeln!(out, "loads {loads:?}").unwrap();
}

fn run_pipeline() -> String {
    let scale = tiny_scale();
    let mut out = String::new();

    // Synthetic: rotation, replication, loss and one crash/restart pair
    // on top of the plain sweep.
    let setup = synth_setup(&scale);
    let run = Run {
        rotate: true,
        resilience: Some(ResilienceConfig::default()),
        loss: 0.05,
        churn: 1,
        ..Run::new(SelectionMethod::KMeans, 5, None)
    };
    let Sweep {
        loads, outcomes, ..
    } = run_sweep(&scale, &setup, &run, FACTORS);
    digest(
        &mut out,
        &format!("synthetic {}", run.label()),
        &outcomes,
        &loads,
    );

    // TREC: greedy document landmarks with load migration.
    let setup = trec_setup(&scale);
    let run = Run::new(
        SelectionMethod::Greedy,
        6,
        Some(LoadBalanceConfig::default()),
    );
    let Sweep {
        loads, outcomes, ..
    } = run_sweep(&scale, &setup, &run, FACTORS);
    digest(
        &mut out,
        &format!("trec {}", run.label()),
        &outcomes,
        &loads,
    );
    out
}

#[test]
fn figure_pipeline_matches_checked_in_golden() {
    common::check_golden(
        "figure_pipeline.txt",
        &run_pipeline(),
        "cargo test --release -p bench --test figure_golden",
    );
}
