//! # topomap-cli
//!
//! The library behind the `topomap` command-line tool: flag parsing and
//! the five subcommands (`gen`, `map`, `eval`, `simulate`, `serve`).
//! Machine, workload and mapper spec strings are parsed by
//! `topomap_serve::specs`, the same parser the mapping server uses. Kept
//! as a library so every piece is unit-testable; the binary is a thin
//! `main` that forwards `std::env::args`.
//!
//! ```text
//! topomap gen      --pattern stencil2d:16x16 --bytes 4096 --out tasks.json
//! topomap map      --topology torus:8x8x8 --tasks tasks.json --mapper topolb --out m.json
//! topomap eval     --topology torus:8x8x8 --tasks tasks.json --mapping m.json
//! topomap simulate --topology torus:8x8x8 --tasks tasks.json --mapping m.json \
//!                  --iterations 200 --bandwidth-mbps 175
//! ```

pub(crate) mod args;
pub(crate) mod commands;

pub(crate) use args::Args;

/// Top-level driver; returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    match run_inner(argv) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            1
        }
    }
}

/// The driver without I/O side effects on success (output returned as a
/// string, so tests can assert on it).
pub(crate) fn run_inner(argv: &[String]) -> Result<String, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let args = Args::parse_with_flags(&argv[1..], commands::BOOL_FLAGS)?;
    match cmd.as_str() {
        "gen" => commands::cmd_gen(&args),
        "map" => commands::cmd_map(&args),
        "eval" => commands::cmd_eval(&args),
        "simulate" => commands::cmd_simulate(&args),
        "serve" => commands::cmd_serve(&args),
        "help" | "--help" | "-h" => Ok(commands::USAGE.to_string()),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_subcommand_is_error() {
        let argv = vec!["frobnicate".to_string()];
        assert!(run_inner(&argv).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let argv = vec!["help".to_string()];
        let out = run_inner(&argv).unwrap();
        assert!(out.contains("topomap"));
        assert!(out.contains("simulate"));
    }

    #[test]
    fn missing_subcommand_is_error() {
        assert!(run_inner(&[]).is_err());
    }
}
