//! The `volley` command-line binary; see [`volley_cli`] for usage.

use std::process::ExitCode;

use volley_cli::{run, CliError, Command};

fn main() -> ExitCode {
    let command = match Command::parse(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(err) => return fail(err),
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match run(command, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => fail(err),
    }
}

fn fail(err: CliError) -> ExitCode {
    eprintln!("volley: {err}");
    if matches!(err, CliError::Usage(_)) {
        eprintln!("\n{}", volley_cli::args::usage());
    }
    ExitCode::FAILURE
}
