//! The `perfbase` executable: a thin wrapper around [`perfbase::cli::run`].

use std::io::{ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match perfbase::cli::run(argv) {
        Ok(mut output) => {
            if !output.ends_with('\n') {
                output.push('\n');
            }
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stopped reading (`perfbase dump | head`) has
                // what it wanted.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("perfbase: writing the output: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(message) => {
            eprintln!("perfbase: {message}");
            std::process::exit(1);
        }
    }
}
