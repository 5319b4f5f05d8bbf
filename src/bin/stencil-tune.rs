//! Thin shell around [`hhc_stencil::cli`].

use std::io::Write;

fn main() {
    match hhc_stencil::cli::run(&experiments::flags::argv()) {
        Ok(out) => {
            // Tolerate a closed stdout (e.g. piping into `head`).
            let _ = writeln!(std::io::stdout(), "{out}");
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}");
            std::process::exit(2);
        }
    }
}
