//! **Ablation: join-time balancing vs dynamic migration** (§3.4's two
//! dynamic mechanisms).
//!
//! The paper offers two runtime levers: (1) steer *joining* nodes toward
//! heavily loaded ranges, splitting them in half, and (2) migrate load
//! afterwards by asking light nodes to leave and re-join. This harness
//! compares four builds on the same skewed synthetic index:
//! random ids / load-aware joins, each with and without migration.

use bench::sweep::{synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use simsearch::{LoadBalanceConfig, QuerySpec, SearchSystem, SystemConfig};

fn main() {
    let scale = Scale::from_env();
    println!("=== Ablation: join-time balancing vs dynamic migration ===");
    println!(
        "{} nodes, {} objects, KMean-10",
        scale.n_nodes, scale.n_objects
    );

    let setup = synth_setup(&scale);
    let (spec, mapping) = setup.index(&scale, &Run::new(SelectionMethod::KMeans, 10, None));
    let nq = mapping.pool.len();
    let queries: Vec<QuerySpec> = mapping
        .pool
        .iter()
        .zip(&setup.truth)
        .map(|(qm, t)| QuerySpec {
            index: 0,
            point: qm.clone(),
            radius: 0.05 * setup.max_distance,
            truth: t.clone(),
        })
        .collect();

    println!(
        "\n{:>14} {:>10} {:>10} {:>8} {:>10} {:>8}",
        "placement", "migration", "max-load", "hops", "resp-ms", "recall"
    );
    let mut out = Vec::new();
    for (pname, load_aware) in [("random", false), ("load-aware", true)] {
        for (mname, lb) in [("off", None), ("on", Some(LoadBalanceConfig::default()))] {
            let cfg = SystemConfig {
                n_nodes: scale.n_nodes,
                seed: scale.seed,
                load_aware_join: load_aware,
                lb,
                ..SystemConfig::default()
            };
            let mut system = SearchSystem::build(
                cfg,
                std::slice::from_ref(&spec),
                mapping.oracle(move |qid| qid as usize % nq),
            );
            let max_load = system.load_distribution(0)[0];
            let outcomes = system.run_queries(&queries, 150.0);
            let n = outcomes.len() as f64;
            let hops = outcomes.iter().map(|o| o.hops as f64).sum::<f64>() / n;
            let resp = outcomes.iter().map(|o| o.response_ms).sum::<f64>() / n;
            let recall = outcomes.iter().map(|o| o.recall).sum::<f64>() / n;
            println!(
                "{pname:>14} {mname:>10} {max_load:>10} {hops:>8.2} {resp:>10.1} {recall:>8.3}"
            );
            out.push(serde_json::json!({
                "placement": pname, "migration": mname,
                "max_load": max_load, "hops": hops, "recall": recall,
            }));
        }
    }

    // Shape checks: load-aware joins alone must flatten the placement
    // far below random placement.
    let find = |p: &str, m: &str| {
        out.iter()
            .find(|v| v["placement"] == p && v["migration"] == m)
            .unwrap()
            .clone()
    };
    let rand_off = find("random", "off")["max_load"].as_u64().unwrap();
    let aware_off = find("load-aware", "off")["max_load"].as_u64().unwrap();
    assert!(
        aware_off * 4 <= rand_off,
        "load-aware joins should flatten: {aware_off} !<< {rand_off}"
    );
    println!("\nOK: load-aware joins cut the unbalanced maximum load {rand_off} -> {aware_off}.");
    save_json("ablation_join", &out);
}
