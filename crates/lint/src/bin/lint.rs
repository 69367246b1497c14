//! The `lint` command-line tool: run the symbolic linter over one or more
//! configuration files, or over a whole topology. The front end lives in
//! [`clarify_lint::cli`], shared with `clarify lint`.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    clarify_lint::cli::run(&args)
}
