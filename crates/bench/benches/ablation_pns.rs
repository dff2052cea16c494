//! **Ablation: proximity neighbor selection** (§4.1's Chord-PNS).
//!
//! The paper runs on Chord-PNS, where finger entries are chosen by
//! latency among the valid candidates of each finger interval. This
//! harness compares query response time and maximum latency with PNS on
//! (16 candidates, the p2psim default) vs plain Chord fingers.

use bench::sweep::{run_sweep, synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: PNS(16) vs plain Chord fingers ===");
    println!(
        "{} nodes, {} objects, KMean-10, mean RTT 180 ms",
        scale.n_nodes, scale.n_objects
    );
    let setup = synth_setup(&scale);
    let factors = [0.02, 0.05, 0.10];

    let mut table = Vec::new();
    for (name, pns) in [("plain", 0usize), ("pns-16", 16)] {
        eprintln!("running {name} ...");
        let run = Run {
            pns,
            ..Run::new(SelectionMethod::KMeans, 10, None)
        };
        let rows = run_sweep(&scale, &setup, &run, &factors).rows;
        table.push((name, rows));
    }

    println!(
        "\n{:>8} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "range%", "fingers", "resp-ms", "max-lat", "hops", "recall"
    );
    for fi in 0..factors.len() {
        for (name, rows) in &table {
            let r = &rows[fi];
            println!(
                "{:>8.1} {:>8} {:>10.1} {:>10.1} {:>8.2} {:>8.3}",
                r.range_factor * 100.0,
                name,
                r.response_ms,
                r.max_latency_ms,
                r.hops,
                r.recall
            );
        }
    }

    // Shape checks: same answers; PNS should cut latency on average.
    let mean = |rows: &[bench::Row], f: fn(&bench::Row) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    let plain_lat = mean(&table[0].1, |r| r.max_latency_ms);
    let pns_lat = mean(&table[1].1, |r| r.max_latency_ms);
    for fi in 0..factors.len() {
        assert!(
            (table[0].1[fi].recall - table[1].1[fi].recall).abs() < 1e-9,
            "PNS must not change answers"
        );
    }
    assert!(
        pns_lat < plain_lat,
        "PNS should reduce mean max-latency: {pns_lat:.1} !< {plain_lat:.1}"
    );
    println!("\nOK: PNS cuts mean max-latency {plain_lat:.1} ms -> {pns_lat:.1} ms with identical answers.");
    save_json(
        "ablation_pns",
        &serde_json::json!({"plain_ms": plain_lat, "pns_ms": pns_lat}),
    );
}
