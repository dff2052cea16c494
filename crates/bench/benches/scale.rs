//! The scaling-law sweep behind `BENCH_scale.json` and the CI
//! `scale-smoke` gate.
//!
//! Default run: overlays of 1k, 4k, and 16k nodes answer the
//! `scale_report` workloads and the sweep lands in
//! `target/experiments/BENCH_scale.json` (the checked-in copy lives at
//! the repo root). `SIMSEARCH_FULL=1` extends the sweep to 64k and
//! 100k nodes. `SCALE_SMOKE=1` runs the 1k and 4k points on the quick
//! fixture only and fails the process when any scaling-law threshold
//! checked in below regresses:
//!
//! * `hops_per_query <= MAX_HOPS_PER_LOG2N * log2(N)` — routing must
//!   stay logarithmic in the overlay size;
//! * plain recall = 1.0 and churn recall >= `MIN_RECALL_CHURN` — the
//!   prunes are exact and the resilience layer holds under faults;
//! * the whole smoke sweep fits the `MAX_SMOKE_WALL_MS` budget — the
//!   calendar queue, coordinate topology, and instant-ring builder
//!   keep large overlays cheap.

use bench::fixture::peak_rss_kb;
use bench::scale_report::{run_scale_point, ScaleFixture, ScalePoint};
use serde_json::ToJson;

const SEED: u64 = 0x5CA1E;

/// Checked-in smoke thresholds (quick fixture, N in {1024, 4096}).
/// The counters are fully deterministic — current values are
/// hops/query 10.08 @ 1k and 13.12 @ 4k (1.01 and 1.09 · log2 N; the
/// outcome's `hops` is the deepest chain in the sub-query tree, so the
/// constant sits above plain Chord's 0.5), churn recall 1.0 at both
/// points — so the margins only have to absorb intentional retuning,
/// not noise.
const MAX_HOPS_PER_LOG2N: f64 = 1.40;
const MIN_RECALL_CHURN: f64 = 0.99;
/// Wall budget for the whole smoke sweep (fixture + both points);
/// measured ~1.3 s on one core, so this only catches order-of-magnitude
/// regressions in overlay construction or event processing.
const MAX_SMOKE_WALL_MS: f64 = 60_000.0;

fn check_point(p: &ScalePoint) -> bool {
    let mut failed = false;
    let ceiling = MAX_HOPS_PER_LOG2N * p.log2_n();
    if p.plain.hops_per_query > ceiling {
        eprintln!(
            "scale-smoke FAIL: n={} hops/query {:.3} exceeds {:.3} \
             ({MAX_HOPS_PER_LOG2N} * log2 N) — routing stopped scaling logarithmically",
            p.n_nodes, p.plain.hops_per_query, ceiling
        );
        failed = true;
    }
    if p.plain.mean_recall < 1.0 {
        eprintln!(
            "scale-smoke FAIL: n={} plain recall {} below 1.0 — \
             exact pruning dropped answers at scale",
            p.n_nodes, p.plain.mean_recall
        );
        failed = true;
    }
    if p.churn.mean_recall < MIN_RECALL_CHURN {
        eprintln!(
            "scale-smoke FAIL: n={} churn recall {} below {MIN_RECALL_CHURN} — \
             the resilience layer stopped holding recall under faults",
            p.n_nodes, p.churn.mean_recall
        );
        failed = true;
    }
    failed
}

fn main() {
    let smoke = std::env::var_os("SCALE_SMOKE").is_some();
    let full = std::env::var("SIMSEARCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);

    let start = std::time::Instant::now();
    let (fixture, sizes): (ScaleFixture, Vec<usize>) = if smoke {
        (ScaleFixture::quick(SEED), vec![1 << 10, 1 << 12])
    } else if full {
        (
            ScaleFixture::full(SEED),
            vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 100_000],
        )
    } else {
        (ScaleFixture::full(SEED), vec![1 << 10, 1 << 12, 1 << 14])
    };

    let mut points: Vec<ScalePoint> = Vec::new();
    let mut failed = false;
    for &n in &sizes {
        let p = run_scale_point(&fixture, n, SEED);
        println!(
            "scale n={:>6}: hops/query {:.2} ({:.2} * log2 N), recall {:.3}/{:.3} \
             (plain/churn), build {:.0} ms, run {:.0} ms, peak RSS {} MB",
            p.n_nodes,
            p.plain.hops_per_query,
            p.plain.hops_per_query / p.log2_n(),
            p.plain.mean_recall,
            p.churn.mean_recall,
            p.build_ms,
            p.run_ms,
            p.peak_rss_kb / 1024,
        );
        if smoke {
            failed |= check_point(&p);
        }
        points.push(p);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    if smoke {
        // Persist the measured points before any threshold exit so CI
        // can attach them to a failed run.
        bench::report::save_json(
            "BENCH_scale_smoke",
            &serde_json::json!({
                "points": points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
                "wall_ms": wall_ms,
            }),
        );
        if wall_ms > MAX_SMOKE_WALL_MS {
            eprintln!(
                "scale-smoke FAIL: sweep took {wall_ms:.0} ms, budget {MAX_SMOKE_WALL_MS:.0} ms \
                 — large-overlay construction or simulation regressed"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "scale-smoke OK: {} points, hops <= {MAX_HOPS_PER_LOG2N} * log2 N, \
             recall >= {MIN_RECALL_CHURN} under churn, {wall_ms:.0} ms <= {MAX_SMOKE_WALL_MS:.0} ms",
            points.len()
        );
        return;
    }

    let report = serde_json::json!({
        "scenario": format!(
            "scaling-law sweep, {} objects, {} plain queries per point{}",
            fixture.n_objects,
            fixture.plain_queries.len(),
            if full { " (full)" } else { "" },
        ),
        "points": points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
        "wall_ms": wall_ms,
        "peak_rss_kb": peak_rss_kb(),
    });
    bench::report::save_json("BENCH_scale", &report);
}
