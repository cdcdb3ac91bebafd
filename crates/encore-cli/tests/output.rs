//! The binary's output path: a reader that closes the pipe early ends
//! the run quietly, and any other failed write or a rejected setting is
//! an error, not a panic.

use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_encore-cli"))
}

/// The demo module is larger than a pipe buffer, so its write is still
/// going when the read end closes, or starts after it.
#[test]
fn a_closed_pipe_ends_the_run_quietly() {
    let mut child = cli()
        .args(["demo", "164.gzip@100x"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn encore-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for encore-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_device_is_a_write_error() {
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("open /dev/full");
    let out = cli().arg("list").stdout(full).output().expect("run encore-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: cannot write output:"), "{stderr}");
}

/// A setting outside its domain ends the run with an error naming the
/// flag, before any report is written.
#[test]
fn an_out_of_domain_pmin_is_an_error() {
    let demo = cli().args(["demo", "164.gzip"]).output().expect("run encore-cli");
    assert!(demo.status.success());
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("164.gzip.eir");
    std::fs::write(&path, &demo.stdout).expect("write the module");
    let out =
        cli().arg("analyze").arg(&path).args(["--pmin", "nan"]).output().expect("run encore-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: --pmin"), "{stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}
