//! Runs every paper experiment in sequence (Table 1, Figures 1, 5, 6,
//! 7a, 7b, 8), spawning each sibling harness binary as a child process
//! with this run's arguments. Used to regenerate `EXPERIMENTS.md` data.
//!
//! Usage: `experiments [--workloads a,b,c] [--sfi N]`
//!
//! The first harness that fails ends the run: `experiments` names it and
//! exits with its status, or with 1 when it was killed by a signal or
//! could not be launched.

use std::process::{exit, Command};

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let pass_through: Vec<String> = std::env::args().skip(1).collect();

    for bin in ["table1", "fig1", "fig5", "fig6", "fig7a", "fig7b", "fig8"] {
        let status = match Command::new(dir.join(bin)).args(&pass_through).status() {
            Ok(status) if status.success() => continue,
            Ok(status) => status,
            Err(e) => {
                eprintln!("error: failed to launch {bin}: {e}");
                exit(1);
            }
        };
        eprintln!("error: {bin} exited with {status}");
        exit(status.code().unwrap_or(1));
    }
}
