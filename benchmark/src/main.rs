//! `gdmp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`.

use std::path::PathBuf;
use std::process::ExitCode;

use gdmp_benchmark::run::{end_to_end, traced};
use gdmp_benchmark::workloads::{sizes, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("within (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdmp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if !NAMES.contains(&args.workload.as_str()) {
        eprintln!("gdmp-benchmark: --workload must be one of {}", NAMES.join(", "));
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        let path = args.out_dir.join(format!("{}.trace.jsonl", args.workload));
        traced(&args.workload, args.seed, args.seconds, &path)
    } else {
        end_to_end(&args.workload, args.seed, args.seconds)
    };

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# {} seed={} trace={} reps={} host_cores={cores} [{}]",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.reps,
        sizes(&args.workload)
    );
    for (i, (setup, measured, check)) in outcome.rep_seconds.iter().enumerate() {
        println!("# rep {i}: setup {setup:.4} s, measured {measured:.4} s, check {check:.4} s");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<42} {value:>18.6} {unit}");
    }
    println!("sim_digest {:016x}", outcome.sim_digest);
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
