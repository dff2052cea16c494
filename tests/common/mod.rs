//! Shared by the golden-snapshot harnesses (`tests/telemetry_*.rs`, and
//! `crates/bench/tests/figure_golden.rs`, whose goldens live under its
//! own crate's `tests/golden/`).

use std::path::PathBuf;

/// Compare `got` byte for byte against `tests/golden/<file_name>`, or,
/// with `UPDATE_GOLDEN` set, write `got` there instead. `regen_hint` is
/// the test command that regenerates this golden, quoted in failures.
pub fn check_golden(file_name: &str, got: &str, regen_hint: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file_name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        println!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with UPDATE_GOLDEN=1 {regen_hint}",
            path.display()
        )
    });
    assert!(
        got == want,
        "snapshot diverged from {} (len {} vs {}); if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 {regen_hint} and \
         review the diff",
        path.display(),
        got.len(),
        want.len()
    );
}
