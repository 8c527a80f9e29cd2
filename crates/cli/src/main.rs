//! The `standby` binary: see `standby --help`.

use std::process::ExitCode;

use simty_cli::run_cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout().lock();
    match run_cli(&args, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
