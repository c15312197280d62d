//! The baseline gate: render every committed `BENCH_*.json` from the model
//! and hold the file to it byte for byte.
//!
//! ```text
//! cargo run -p gdmp-bench --release --bin bench_compare            # check ./BENCH_*.json
//! cargo run -p gdmp-bench --release --bin bench_compare -- --write # rewrite them
//! ```
//!
//! Run from the repo root. A mismatch prints the file and the first line
//! that differs, which names the field that moved, and exits non-zero.
//! `--write` refuses a baseline that breaks one of its contracts, as the
//! check does (see `gdmp_bench::baselines`).

use std::path::Path;
use std::process::ExitCode;

use gdmp_bench::baselines::{check_file, file_name, render, BASELINES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write = match args.as_slice() {
        [] => false,
        [flag] if flag == "--write" => true,
        _ => {
            eprintln!("usage: bench_compare [--write]");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in BASELINES {
        let file = file_name(name);
        let outcome = render(name).and_then(|text| {
            if write {
                std::fs::write(&file, text).map_err(|e| format!("{file}: {e}"))
            } else {
                check_file(&file, Path::new(&file), &text)
            }
        });
        match outcome {
            Ok(()) => println!("{} {file}", if write { "wrote" } else { "ok" }),
            Err(e) => {
                println!("FAIL {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        if !write {
            println!(
                "bench-compare: the model no longer renders the committed baselines; a change \
                 that means to move them runs `bench_compare --write` and commits the diff"
            );
        }
        ExitCode::FAILURE
    }
}
