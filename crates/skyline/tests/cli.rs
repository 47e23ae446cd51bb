//! The `skyline` binary's argument handling: non-finite numbers are
//! usage errors (exit code 1 with a message), never a panic inside the
//! unit types (exit code 101).

use std::process::{Command, Output};

use f1_components::names;

fn skyline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skyline"))
        .args(args)
        .output()
        .expect("the skyline binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = skyline(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains("finite number"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn non_finite_max_tdp_is_a_usage_error() {
    for value in ["nan", "NaN", "inf", "-inf"] {
        assert_usage_error(&["--dse", "--max-tdp", value]);
    }
}

#[test]
fn non_finite_mission_distance_is_a_usage_error() {
    for value in ["nan", "inf", "-inf"] {
        assert_usage_error(&[
            "--airframe",
            names::ASCTEC_PELICAN,
            "--sensor",
            names::RGBD_60,
            "--compute",
            names::TX2,
            "--algorithm",
            names::DRONET,
            "--mission",
            value,
        ]);
    }
}

#[test]
fn finite_max_tdp_runs_the_exploration() {
    let out = skyline(&["--dse", "--max-tdp", "20"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("frontier"), "{stdout}");
}
