//! Malformed input exits with code 2 and a message, never a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lergan-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
}

#[test]
fn an_unknown_workload_is_a_usage_error() {
    assert_usage_error(
        &["--workload", "train_b9", "--seed", "1"],
        "unknown workload 'train_b9'",
    );
}

#[test]
fn a_malformed_seed_is_a_usage_error() {
    assert_usage_error(
        &["--workload", "train_b1", "--seed", "0x10"],
        "malformed seed '0x10'",
    );
    assert_usage_error(
        &["--workload", "train_b1", "--seed", "18446744073709551616"],
        "malformed seed",
    );
}

#[test]
fn an_unwritable_out_path_is_a_usage_error() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-dir")
        .join("record.json");
    let out = out.to_str().expect("UTF-8 temp path");
    assert_usage_error(
        &["--workload", "sim_sweep", "--seed", "1", "--out", out],
        "cannot write --out",
    );
}

#[test]
fn compare_without_records_is_a_usage_error() {
    let empty = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("empty-records");
    std::fs::create_dir_all(&empty).expect("temp dir");
    let empty = empty.to_str().expect("UTF-8 temp path");
    assert_usage_error(&["compare", empty, empty], "at least one record");
}
