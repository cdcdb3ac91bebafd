//! `experiments` runs the harness binaries in turn and ends at the first
//! one that fails, exiting with that harness's status instead of
//! panicking.

use std::process::Command;

#[test]
fn a_failing_harness_ends_the_run_with_its_exit_status() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--workloads", "nope"])
        .output()
        .expect("experiments launches");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error: table1 exited with"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
