//! Two independent regenerations of a 4k-node sweep point must
//! serialize byte-identically.
//!
//! The 4096-node overlay sits above the dense-topology threshold, so
//! this pins the whole large-N stack at once: the coordinate topology's
//! on-demand RTTs, the parallel instant-ring builder (whose rayon
//! chunking must not leak into results), the event queue's pop order,
//! and both workloads' full counter sets — everything except the
//! wall-clock/RSS `timing` block, which is excluded from
//! `deterministic_json` by construction.

use bench::scale_report::{run_scale_point, ScaleFixture};

#[test]
fn sweep_point_at_4k_regenerates_byte_identically() {
    let regenerate = || {
        let fixture = ScaleFixture::quick(0x5CA1E);
        let point = run_scale_point(&fixture, 4096, 0x5CA1E);
        serde_json::to_string_pretty(&point.deterministic_json()).expect("serialize")
    };
    let a = regenerate();
    let b = regenerate();
    assert!(
        a == b,
        "two 4k-node sweep regenerations diverged:\n{a}\nvs\n{b}"
    );
}
