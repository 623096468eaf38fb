//! The evaluation matrix, end to end: run every case of
//! `topomap_bench::cases::CASES`, hold the records to every claim of
//! `topomap_bench::claims::CLAIMS`, and
//!
//! - by default write `results/matrix.tsv` and regenerate the tables of
//!   EXPERIMENTS.md from it;
//! - with `--check`, write nothing and fail on the first deterministic
//!   cell that differs from the committed file;
//! - with `--full`, run the paper's sizes and print the tables only.
//!
//! Exits non-zero when a claim fails or the check finds a difference.
//! Run: `cargo run --release -p topomap-bench --bin matrix [--check | --full]`

use std::process::ExitCode;
use topomap_bench::cases::Scale;
use topomap_bench::{claims, first_difference, render, repo_root, run, stamp, to_tsv};

enum Mode {
    Write,
    Check,
    Full,
}

fn matrix(mode: Mode) -> Result<bool, String> {
    let scale = match mode {
        Mode::Full => Scale::Full,
        _ => Scale::Default,
    };
    let stamp = stamp(scale);
    let records = run::run_all(scale);
    let read = |name: &str| {
        std::fs::read_to_string(repo_root().join(name)).map_err(|e| format!("read {name}: {e}"))
    };
    let write = |name: &str, text: String| {
        std::fs::write(repo_root().join(name), text).map_err(|e| format!("write {name}: {e}"))
    };
    let mut ok = true;
    match mode {
        Mode::Full => {
            for block in render::BLOCKS {
                println!("## {}\n\n{}", block.0, render::render(block, &records));
            }
        }
        Mode::Check => {
            let fresh = to_tsv(&stamp, &records);
            match first_difference(&read("results/matrix.tsv")?, &fresh)? {
                Some(difference) => {
                    println!("matrix --check: {difference}");
                    ok = false;
                }
                None => println!(
                    "matrix --check: {} records match results/matrix.tsv",
                    records.len()
                ),
            }
        }
        Mode::Write => {
            let doc = render::rewrite(&read("EXPERIMENTS.md")?, &stamp, &records)?;
            write("results/matrix.tsv", to_tsv(&stamp, &records))?;
            write("EXPERIMENTS.md", doc)?;
            println!(
                "wrote {} records to results/matrix.tsv and the tables of EXPERIMENTS.md",
                records.len()
            );
        }
    }
    let failures = claims::check(&records);
    for claim in &failures {
        println!("CLAIM FAILED: {claim}");
    }
    println!(
        "{} of {} claims hold",
        claims::CLAIMS.len() - failures.len(),
        claims::CLAIMS.len()
    );
    Ok(ok && failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => Mode::Write,
        ["--check"] => Mode::Check,
        ["--full"] => Mode::Full,
        _ => {
            eprintln!("usage: matrix [--check | --full]");
            return ExitCode::from(2);
        }
    };
    match matrix(mode) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
