//! **Churn scenario: recall under adversity** — the paper inherits
//! Chord's resilience claims (§3.3) without measuring them; this
//! scenario does. The same index and workload run on a healthy overlay,
//! under 5% and 10% message loss, and under loss plus crash/restart
//! churn — once bare (`r = 1`, no retries) and once with the resilience
//! layer (`r = 2`, retry/failover). Bare runs silently shed recall as
//! faults rise; resilient runs hold it at the cost of retransmissions.

use bench::sweep::{run_sweep, synth_setup, Run};
use bench::Scale;
use landmark::SelectionMethod;
use simsearch::ResilienceConfig;

fn main() {
    let scale = Scale::from_env();
    println!("=== Churn: recall under message loss and crash/restart ===");
    println!(
        "{} nodes, {} objects, KMean-10",
        scale.n_nodes, scale.n_objects
    );
    let setup = synth_setup(&scale);
    let factors = [0.05];

    let mut table = Vec::new();
    for (name, resilient, loss, churn) in [
        ("healthy/bare", false, 0.0, 0),
        ("loss5%/bare", false, 0.05, 0),
        ("loss10%/bare", false, 0.10, 0),
        ("healthy/r2", true, 0.0, 0),
        ("loss5%/r2", true, 0.05, 0),
        ("loss10%/r2", true, 0.10, 0),
        ("churn+loss10%/r2", true, 0.10, 2),
    ] {
        eprintln!("running {name} ...");
        let run = Run {
            resilience: resilient.then(ResilienceConfig::default),
            loss,
            churn,
            ..Run::new(SelectionMethod::KMeans, 10, None)
        };
        let rows = run_sweep(&scale, &setup, &run, &factors).rows;
        table.push((name, rows));
    }

    println!(
        "\n{:>18} {:>8} {:>10} {:>8} {:>10}",
        "scenario", "hops", "resp-ms", "recall", "msgs"
    );
    for (name, rows) in &table {
        let r = &rows[0];
        println!(
            "{:>18} {:>8.2} {:>10.1} {:>8.3} {:>10.1}",
            name, r.hops, r.response_ms, r.recall, r.query_msgs
        );
    }
}
