#!/usr/bin/env bash
# Local CI gate. The registry is offline (vendored shims via [patch.crates-io]),
# so every cargo invocation runs with --offline.
#
#   ./ci.sh                fmt + clippy + build + test + benches compile +
#                          the parallel-engine determinism smoke, the
#                          scenario smoke and the whole-stack smoke (one
#                          short `benchmark/run.sh` run of each of the
#                          four workloads, which must come out correct
#                          with no failed operation and with the model
#                          digest recorded below)
#   ./ci.sh --bench-smoke  additionally run the simnet perf baseline once,
#                          regenerating BENCH_simnet.json
#   ./ci.sh --chaos-smoke  additionally run the seeded chaos convergence
#                          soak (3 fixed seeds, 5-site grid)
#   ./ci.sh --fetch-smoke  additionally run the multi-source fetch scenario
#                          (striping speedup, crash reassignment, determinism)
#   ./ci.sh --trace-smoke  additionally run the causal-tracing smoke: one
#                          striped fetch must yield connected span trees
#                          whose critical path partitions the latency, with
#                          byte-identical same-seed exports
#   ./ci.sh --catalog-smoke  additionally run the federated-catalog smoke
#                          (release, < 10 s): the gdmp federation flows,
#                          the catalog soak (Off == EmptySchedule, seeded
#                          never-wrong), and the 100+-site acceptance soak
#   ./ci.sh --grid-smoke   additionally run the interned-id grid smoke
#                          (release, < 10 s): the Tier-0/1/2 soak and the
#                          zero-allocation hot-path probes, then `figures
#                          grid --json` twice — the emissions must be
#                          byte-identical
#   ./ci.sh --par-smoke    the sharded-engine determinism smoke alone is
#                          named here for discoverability; it is part of
#                          the default gate (release build, < 10 s): the
#                          fan-out scenario and the fixed-seed simnet
#                          suites must be byte-identical on 2+ workers
#   ./ci.sh --scenario-smoke  the scenario-DSL smoke, also part of the
#                          default gate (release build, < 10 s): load
#                          every committed scenarios/*.json, replay the
#                          quick ones twice, assert invariants + byte-
#                          identical telemetry exports
#   ./ci.sh --bench-compare  additionally diff the deterministic bench
#                          metrics against the committed BENCH_fetch.json /
#                          BENCH_simnet.json baselines; fails on drift.
#                          Tolerance bands (see crates/bench/src/compare.rs):
#                            GDMP_TOL_MBPS_PCT    throughputs/elapsed (5)
#                            GDMP_TOL_EVENTS_PCT  event/byte counts  (10)
#                            GDMP_TOL_SPEEDUP_PCT speedups/reductions (10)
#                            GDMP_TOL_DELTA_ABS   fidelity deltas, pp  (1)
set -euo pipefail
cd "$(dirname "$0")"

bench_smoke=0
chaos_smoke=0
fetch_smoke=0
trace_smoke=0
catalog_smoke=0
grid_smoke=0
bench_compare=0
par_smoke=1      # part of the default gate; the flag exists to name it
scenario_smoke=1 # part of the default gate; the flag exists to name it
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) bench_smoke=1 ;;
    --chaos-smoke) chaos_smoke=1 ;;
    --fetch-smoke) fetch_smoke=1 ;;
    --trace-smoke) trace_smoke=1 ;;
    --catalog-smoke) catalog_smoke=1 ;;
    --grid-smoke) grid_smoke=1 ;;
    --bench-compare) bench_compare=1 ;;
    --par-smoke) par_smoke=1 ;;
    --scenario-smoke) scenario_smoke=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --workspace --release

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> cargo bench --no-run"
cargo bench --offline --workspace --no-run

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

if [[ "$par_smoke" == 1 ]]; then
  echo "==> par smoke: sharded engine byte-identical on 2+ workers"
  cargo test --offline -q --release -p gdmp-simnet --test par_determinism
  cargo test --offline -q --release -p gdmp-workloads --lib fanout::
fi

if [[ "$scenario_smoke" == 1 ]]; then
  echo "==> scenario smoke: committed scenario files load, replay, and stay byte-identical"
  cargo run --offline --release -q -p gdmp-bench --bin scenario_smoke
fi

echo "==> whole-stack smoke: every benchmark/run.sh workload is correct, no operation failed, model unmoved"
# What the simulated model produced for each workload at seed 1 (the
# telemetry export and the outcome counts together), as printed by the
# binary built from the commit named. A change that claims host speed only
# must reproduce it; a change that means to move the model records the new
# value here.
whole_stack_smoke() { # <workload> <recorded digest line>
  local smoke result digest
  smoke=$(bash benchmark/run.sh --workload "$1" --seed 1 --seconds 1 --trace 0)
  result=$(tail -n 1 <<<"$smoke")
  if [[ "$result" != *'"correct": true'* || "$result" != *'"failed": 0,'* ]]; then
    echo "whole-stack benchmark $1 did not report correct/failed 0: $result" >&2
    exit 1
  fi
  digest=$(grep '^sim_digest ' <<<"$smoke" || true)
  if [[ "$digest" != "$2" ]]; then
    echo "whole-stack benchmark $1: model moved: got '$digest', recorded '$2'" >&2
    exit 1
  fi
}
whole_stack_smoke grid_mix "sim_digest dd9384db27bb9c9a"        # commit 47dbafc
whole_stack_smoke push_soak "sim_digest adfd48b6c8c434e0"       # commit 6156a39
whole_stack_smoke bulk_wan "sim_digest 311d553d4b163b09"        # commit 6156a39
whole_stack_smoke object_analysis "sim_digest 61daa7d4a954458c" # commit 8a033fc

if [[ "$bench_smoke" == 1 ]]; then
  echo "==> bench smoke: simnet perf baseline"
  cargo run --offline --release -p gdmp-bench --bin bench_simnet
fi

if [[ "$chaos_smoke" == 1 ]]; then
  echo "==> chaos smoke: seeded convergence soak"
  cargo test --offline -q -p gdmp-workloads --test chaos_soak
  cargo test --offline -q -p gdmp --test chaos_recovery
fi

if [[ "$fetch_smoke" == 1 ]]; then
  echo "==> fetch smoke: multi-source striped fetch"
  cargo test --offline -q --release -p gdmp-workloads --lib fetch::
  cargo test --offline -q --release -p gdmp --test schedule_properties
fi

if [[ "$trace_smoke" == 1 ]]; then
  echo "==> trace smoke: span trees + critical path of the striped fetch"
  cargo test --offline -q --release -p gdmp-workloads --test trace_smoke
fi

if [[ "$catalog_smoke" == 1 ]]; then
  echo "==> catalog smoke: federation flows, soak inertness, 100+-site never-wrong"
  cargo test --offline -q --release -p gdmp --test federation_flows
  cargo test --offline -q --release -p gdmp-workloads --lib catalog::
  cargo test --offline -q --release -p gdmp-workloads --test catalog_soak
fi

if [[ "$grid_smoke" == 1 ]]; then
  echo "==> grid smoke: tiered soak, zero-alloc probes, byte-identical figures grid --json"
  cargo test --offline -q --release -p gdmp-workloads --lib grid::
  cargo test --offline -q --release -p gdmp-workloads --test byte_identity
  cargo test --offline -q --release -p gdmp --test control_plane_alloc
  tmp_a=$(mktemp); tmp_b=$(mktemp)
  trap 'rm -f "$tmp_a" "$tmp_b"' EXIT
  cargo run --offline --release -q -p gdmp-bench --bin figures -- grid --json > "$tmp_a"
  cargo run --offline --release -q -p gdmp-bench --bin figures -- grid --json > "$tmp_b"
  cmp "$tmp_a" "$tmp_b"
  echo "    figures grid --json: byte-identical across runs"
fi

if [[ "$bench_compare" == 1 ]]; then
  echo "==> bench compare: deterministic metrics vs committed baselines"
  cargo run --offline --release -p gdmp-bench --bin bench_compare
fi

echo "CI OK"
