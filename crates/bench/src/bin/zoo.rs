//! `zoo` — run the checked-in scenario zoo and print a report table.
//!
//! ```text
//! cargo run --release -p bench --bin zoo            # whole zoo
//! cargo run --release -p bench --bin zoo -- flash   # name substring filter
//! ```
//!
//! Each `scenarios/*.toml` file is executed through the deterministic
//! simulator and summarized on one row: recall, hop ceiling, migration
//! count, and the combined hot-arc share that the rotation ablation
//! compares. Exit is non-zero if any scenario violates its
//! `[expect]` block — the same invariants the `zoo` CI smoke job gates,
//! minus the golden byte-compare (this bin is a report, not a gate).

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

fn u(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

fn main() -> ExitCode {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let dir = repo_root().join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .filter(|p| p.to_string_lossy().contains(&filter))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no scenario matches {filter:?} under {}", dir.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{:<22} {:>3} {:>3} {:>7} {:>5} {:>5} {:>9} {:>6}",
        "scenario", "idx", "ten", "recall", "hops", "migr", "hot-share", "status"
    );
    let mut failed = false;
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("read scenario");
        let sc = match scenarios::parse_scenario(&text) {
            Ok(sc) => sc,
            Err(e) => {
                println!(
                    "{:<22} parse error: {e}",
                    path.file_stem().unwrap().to_string_lossy()
                );
                failed = true;
                continue;
            }
        };
        let report = scenarios::run(&sc);
        let d = &report.digest;
        let (mut recall_min, mut hops_max) = (1_000_000u64, 0u64);
        if let Value::Object(tenants) = &d["tenants"] {
            for t in tenants.values() {
                recall_min = recall_min.min(u(&t["recall_min_micros"]));
                hops_max = hops_max.max(u(&t["hops_max"]));
            }
        }
        println!(
            "{:<22} {:>3} {:>3} {:>7} {:>5} {:>5} {:>9} {:>6}",
            sc.name,
            u(&d["scenario"]["indexes"]),
            u(&d["scenario"]["tenants"]),
            format!("{:.4}", recall_min as f64 / 1e6),
            hops_max,
            u(&d["balance"]["runtime_migrations"]),
            format!("{:.3}", u(&d["combined"]["max_share_micros"]) as f64 / 1e6),
            if report.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            },
        );
        for v in &report.violations {
            println!("    violation: {v}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
