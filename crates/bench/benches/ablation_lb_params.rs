//! **Ablation: load-balancing parameters δ and P_l** (§3.4).
//!
//! "The average value of δ and P_l control the tradeoff between the
//! overhead and quality of the load balancing" and over-aggressive
//! balancing skews node ids, hurting query routing. This harness sweeps
//! both knobs and reports maximum load, migrations, and routing cost.

use bench::sweep::{run_sweep, synth_setup, Run, Sweep};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use simsearch::LoadBalanceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: load balancing delta / probe level sweep ===");
    println!(
        "{} nodes, {} objects, KMean-10, query range factor 5%",
        scale.n_nodes, scale.n_objects
    );
    let setup = synth_setup(&scale);
    let factors = [0.05];

    println!(
        "\n{:>8} {:>6} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "delta", "P_l", "max-load", "hops", "resp-ms", "max-lat", "recall"
    );
    let mut results = Vec::new();
    // Baseline: no balancing at all.
    {
        let run = Run::new(SelectionMethod::KMeans, 10, None);
        let Sweep { rows, loads, .. } = run_sweep(&scale, &setup, &run, &factors);
        let r = &rows[0];
        println!(
            "{:>8} {:>6} {:>10} {:>8.2} {:>10.1} {:>10.1} {:>8.3}",
            "off", "-", loads[0], r.hops, r.response_ms, r.max_latency_ms, r.recall
        );
        results.push(("off".to_string(), 0u32, loads[0], r.clone()));
    }
    for delta in [0.0, 0.25, 0.5, 1.0] {
        for probe_level in [1u32, 2, 4] {
            let lb = LoadBalanceConfig {
                delta,
                probe_level,
                max_rounds: 8,
            };
            let run = Run::new(SelectionMethod::KMeans, 10, Some(lb));
            let Sweep { rows, loads, .. } = run_sweep(&scale, &setup, &run, &factors);
            let r = &rows[0];
            println!(
                "{:>8.2} {:>6} {:>10} {:>8.2} {:>10.1} {:>10.1} {:>8.3}",
                delta, probe_level, loads[0], r.hops, r.response_ms, r.max_latency_ms, r.recall
            );
            results.push((format!("{delta}"), probe_level, loads[0], r.clone()));
        }
    }

    // Shape checks: balancing with delta=0, P_l=4 must reduce max load
    // versus no balancing.
    let baseline = results[0].2;
    let aggressive = results
        .iter()
        .find(|(d, p, _, _)| d == "0" && *p == 4)
        .expect("delta=0 P_l=4 present")
        .2;
    assert!(
        aggressive < baseline,
        "aggressive balancing must cut max load: {aggressive} !< {baseline}"
    );
    println!(
        "\nOK: delta=0/P_l=4 cuts the maximum load vs unbalanced ({baseline} -> {aggressive})."
    );
    save_json(
        "ablation_lb_params",
        &results
            .iter()
            .map(
                |(d, p, l, r)| serde_json::json!({"delta": d, "probe": p, "max_load": l, "row": r}),
            )
            .collect::<Vec<_>>(),
    );
}
