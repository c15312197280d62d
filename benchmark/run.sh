#!/usr/bin/env bash
# Whole-stack benchmark for the GDMP reproduction.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the JSON result
#       (this is the form BENCHMARK.json's `command` is run in)
#   benchmark/run.sh [--seed N] [--seconds S]
#       all four workloads, three untraced runs each plus one traced run;
#       prints every metric and writes benchmark/out/baseline.json
#   benchmark/run.sh --trace [--seed N] [--seconds S]
#       the traced run only: per-layer table + benchmark/out/<w>.trace.jsonl
#   benchmark/run.sh --check [--seed N] [--seconds S]
#       re-run and compare against benchmark/out/baseline.json with the
#       bounds BENCHMARK.json fixes
#
# Builds the benchmark's own workspace (release, offline) first. The build
# reads ../crates and ../vendor; where they are missing it fails, and so
# does this script, before anything is printed to stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/gdmp-benchmark"
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@" --out-dir "$here/out"
    fi
done
exec python3 "$here/suite.py" "$bin" "$here" "$@"
