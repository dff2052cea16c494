//! **Ablation: space-mapping rotation** (§3.4, static load balancing).
//!
//! The paper's platform hosts many indexes at once; if their hot regions
//! fall in similar parts of their index spaces, the same ring arc
//! absorbs every index's hotspot. A per-index random rotation offset
//! φ = hash(index name) de-correlates the arcs. This harness co-hosts
//! several indexes with *identical* hotspot structure and compares the
//! busiest node's combined load with rotation off vs on.

use bench::sweep::{synth_setup, Run};
use bench::{save_json, Scale};
use landmark::SelectionMethod;
use simsearch::{IndexSpec, SearchSystem, SystemConfig};

fn main() {
    let scale = Scale::from_env();
    const N_INDEXES: usize = 4;
    println!("=== Ablation: space-mapping rotation with {N_INDEXES} co-hosted indexes ===");
    println!(
        "{} nodes, {} objects per index",
        scale.n_nodes, scale.n_objects
    );

    let setup = synth_setup(&scale);
    let (spec, mapping) = setup.index(&scale, &Run::new(SelectionMethod::KMeans, 10, None));
    let n_pool = mapping.pool.len();

    let run = |rotate: bool| -> (usize, Vec<usize>) {
        let specs: Vec<IndexSpec> = (0..N_INDEXES)
            .map(|i| IndexSpec {
                name: format!("index-{i}"),
                rotate,
                ..spec.clone()
            })
            .collect();
        let cfg = SystemConfig {
            n_nodes: scale.n_nodes,
            seed: scale.seed,
            ..SystemConfig::default()
        };
        let system = SearchSystem::build(
            cfg,
            &specs,
            mapping.oracle(move |qid| qid as usize % n_pool),
        );
        // Combined load per node across all indexes.
        let mut combined = vec![0usize; scale.n_nodes];
        for ix in 0..N_INDEXES {
            for (node, load) in system.load_per_node(ix).into_iter().enumerate() {
                combined[node] += load;
            }
        }
        combined.sort_unstable_by(|a, b| b.cmp(a));
        (combined[0], combined)
    };

    let (max_plain, dist_plain) = run(false);
    let (max_rot, dist_rot) = run(true);

    println!("\nbusiest node, combined over {N_INDEXES} indexes:");
    println!("  rotation OFF: {max_plain}");
    println!("  rotation ON : {max_rot}");
    println!(
        "\nhead of combined distribution (sorted desc):\n  off: {:?}\n  on : {:?}",
        &dist_plain[..12.min(dist_plain.len())],
        &dist_rot[..12.min(dist_rot.len())]
    );
    assert!(
        max_rot < max_plain,
        "rotation must spread correlated hotspots: {max_rot} !< {max_plain}"
    );
    println!("\nOK: rotation reduces the correlated-hotspot maximum load.");
    save_json(
        "ablation_rotation",
        &serde_json::json!({"max_plain": max_plain, "max_rotated": max_rot}),
    );
}
