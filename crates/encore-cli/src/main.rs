//! Thin binary wrapper around [`encore_cli::dispatch`].

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match encore_cli::dispatch(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut stdout = io::stdout().lock();
    match stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        // A reader that stops early, like `head`, closes the pipe once it
        // has what it wants: that ends the run, and is no failure.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("error: cannot write output: {e}");
            std::process::exit(1);
        }
    }
}
