//! The sustained-load capacity search behind `BENCH_load.json` and the
//! CI `load-smoke` gate.
//!
//! Default run: the full fixture's two scenarios (plain, loss_churn)
//! each get a doubling-then-bisection capacity search and
//! the artifact lands in `target/experiments/BENCH_load.json` (the
//! checked-in copy lives at the repo root). `SIMSEARCH_FULL=1` doubles
//! the per-probe admission window and adds refinement steps.
//! `LOAD_SMOKE=1` runs the quick fixture and fails the process when any
//! capacity threshold checked in below regresses:
//!
//! * every scenario finds a knee (`knee_qps > 0`) — the SLO must pass
//!   at the base rate;
//! * `plain.knee_qps >= MIN_PLAIN_KNEE_QPS` — the baseline capacity
//!   floor;
//! * at every knee: recall 1.0, and zero errors for the healthy
//!   scenario — sustained rate means correct answers, not partial
//!   ones;
//! * the whole smoke sweep fits `MAX_SMOKE_WALL_MS` — the serve-slot
//!   reservation keeps saturated probes cheap.

use bench::load_report::{run_load_report, LoadFixture, LoadReport, Scenario};

const SEED: u64 = 0x10AD5EED;
const N_NODES: usize = 64;
const BASE_QPS: f64 = 5.0;
const MAX_DOUBLINGS: usize = 9;
/// Simulated admission window of every probe. Fixed duration — not a
/// fixed op count — so higher offered rates admit proportionally more
/// operations and sustained queueing can actually accumulate.
const DURATION_S: f64 = 12.0;

/// Checked-in smoke thresholds (quick fixture, 64 nodes, 12 s probe
/// windows). The sweep is fully deterministic — current knees are
/// plain 23.8 QPS, loss_churn 7.1 QPS — so the margins only have to
/// absorb intentional retuning, not noise.
const MIN_PLAIN_KNEE_QPS: f64 = 10.0;
/// Wall budget for the whole smoke sweep; only catches
/// order-of-magnitude regressions in saturated-probe simulation.
const MAX_SMOKE_WALL_MS: f64 = 120_000.0;

fn check_report(report: &LoadReport) -> bool {
    let mut failed = false;
    let knee_of = |s: Scenario| {
        report
            .scenarios
            .iter()
            .find(|r| r.scenario == s)
            .expect("all scenarios present")
    };
    for sr in &report.scenarios {
        let name = sr.scenario.name();
        let Some(knee) = &sr.result.knee else {
            eprintln!(
                "load-smoke FAIL: {name} found no knee — the SLO fails even at {BASE_QPS} QPS"
            );
            failed = true;
            continue;
        };
        if knee.mean_recall < 1.0 {
            eprintln!(
                "load-smoke FAIL: {name} knee recall {} below 1.0 — \
                 the sustained rate returns partial answers",
                knee.mean_recall
            );
            failed = true;
        }
        if sr.scenario != Scenario::LossChurn && knee.error_rate > 0.0 {
            eprintln!(
                "load-smoke FAIL: {name} knee error rate {} nonzero on a healthy network",
                knee.error_rate
            );
            failed = true;
        }
        if knee.duplicate_completions > 0 {
            eprintln!(
                "load-smoke FAIL: {name} recorded {} duplicate completions — \
                 the exactly-once ledger leaked",
                knee.duplicate_completions
            );
            failed = true;
        }
    }
    let plain = knee_of(Scenario::Plain).result.knee_qps;
    if plain < MIN_PLAIN_KNEE_QPS {
        eprintln!(
            "load-smoke FAIL: plain knee {plain:.2} QPS below {MIN_PLAIN_KNEE_QPS} — \
             baseline capacity regressed"
        );
        failed = true;
    }
    failed
}

fn main() {
    let smoke = std::env::var_os("LOAD_SMOKE").is_some();
    let full = std::env::var("SIMSEARCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false);

    let (fixture, duration_s, refine) = if smoke {
        (LoadFixture::quick(SEED), DURATION_S, 2)
    } else if full {
        (LoadFixture::full(SEED), 2.0 * DURATION_S, 4)
    } else {
        (LoadFixture::full(SEED), DURATION_S, 2)
    };

    let report = run_load_report(
        &fixture,
        N_NODES,
        duration_s,
        BASE_QPS,
        MAX_DOUBLINGS,
        refine,
        SEED,
    );
    for sr in &report.scenarios {
        let (p50, p95, p99) = sr
            .result
            .knee
            .as_ref()
            .map_or((0.0, 0.0, 0.0), |k| (k.p50_ms, k.p95_ms, k.p99_ms));
        println!(
            "load {:<12} knee {:>7.2} QPS  p50/p95/p99 {:>6.0}/{:>6.0}/{:>6.0} ms  ({} trials)",
            sr.scenario.name(),
            sr.result.knee_qps,
            p50,
            p95,
            p99,
            sr.result.trials.len(),
        );
    }

    if smoke {
        // Persist the sweep before any threshold exit so CI can attach
        // it to a failed run.
        bench::report::save_json("BENCH_load_smoke", &report);
        let mut failed = check_report(&report);
        if report.wall_ms > MAX_SMOKE_WALL_MS {
            eprintln!(
                "load-smoke FAIL: sweep took {:.0} ms, budget {MAX_SMOKE_WALL_MS:.0} ms \
                 — saturated-probe simulation regressed",
                report.wall_ms
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "load-smoke OK: plain/loss_churn knees at recall 1.0, {:.0} ms \
             <= {MAX_SMOKE_WALL_MS:.0} ms",
            report.wall_ms
        );
        return;
    }

    let path = bench::report::save_json("BENCH_load", &report);
    println!("wrote {}", path.display());
}
