#!/usr/bin/env bash
# Local CI gate. The registry is offline (vendored shims via [patch.crates-io]),
# so every cargo invocation runs with --offline.
#
#   ./ci.sh                fmt + unsafe gate + owned-state gate (no
#                          `thread_local!` or `static mut` under crates/*/src)
#                          + size ledger (prints each crate's non-test lines:
#                          every crates/*/src file up to its first column-0
#                          `#[cfg(test)]`, and their total)
#                          + cited-path gate (every crate,
#                          example and scenario path and every
#                          `<crate>::<module>` README, DESIGN, EXPERIMENTS and
#                          ROADMAP cite exists, and no `path:N` cite names a
#                          line past the end of its file) + clippy + build + example transcripts
#                          (every examples/ binary prints exactly its
#                          examples/transcripts/<name>.txt) + test + benches
#                          compile + docs, the scenario smoke (every committed
#                          scenarios/*.json loads, the quick ones replay
#                          twice with clean invariants and byte-identical
#                          telemetry exports), the baseline gate (every
#                          committed BENCH_*.json must be exactly what the
#                          model renders; `bench_compare --write` rewrites
#                          them) and the whole-stack smoke (one
#                          short `benchmark/run.sh` run of each of the
#                          four workloads, which must come out correct
#                          with no failed operation and with the model
#                          digest recorded below)
#   ./ci.sh --full         additionally run (each test step must run at
#                          least one test):
#                          - the seeded chaos convergence soak (3 fixed
#                            seeds, 5-site grid)
#                          - the multi-source fetch scenario (striping
#                            speedup, crash reassignment, determinism)
#                          - the causal-tracing smoke: one striped fetch
#                            must yield connected span trees whose critical
#                            path partitions the latency, with byte-identical
#                            same-seed exports
#                          - the federated-catalog smoke: the gdmp
#                            federation flows, the catalog soak (no faults
#                            == empty schedule, seeded never-wrong), and the
#                            100+-site acceptance soak
#                          - the interned-id grid smoke: the Tier-0/1/2
#                            soak and the zero-allocation hot-path probes,
#                            then `figures grid --json` twice — the
#                            emissions must be byte-identical
#                          - the resident-set canary: one 30 s `push_soak`
#                            run of `benchmark/run.sh` must report
#                            `peak_rss_mb` under the ceiling recorded below
set -euo pipefail
cd "$(dirname "$0")"

full=0
for arg in "$@"; do
  case "$arg" in
    --full) full=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> unsafe gate: only the CRC kernel may use it"
if grep -rlw unsafe crates/*/src | grep -vxF crates/gridftp/src/crc.rs; then
  echo "the files above use \`unsafe\`; keep it to gridftp/src/crc.rs" >&2
  exit 1
fi

echo "==> owned-state gate: no thread-local or static mutable state outlives its owner"
if grep -rnE 'thread_local!|static mut' crates/*/src; then
  echo "the lines above keep state no value owns; hand it to the value that uses it (DESIGN §10)" >&2
  exit 1
fi

echo "==> size ledger: non-test lines per crate (each crates/*/src file up to its first column-0 #[cfg(test)])"
for crate in crates/*/; do
  printf '%-16s %6d\n' "$(basename "$crate")" "$(find "${crate}src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }')"
done | awk '{ print; total += $2 } END { printf "%-16s %6d\n", "total", total }'

echo "==> cited paths: every crate, example, scenario and module the docs cite exists"
docs=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md)
# Full `crates/<crate>/…` paths, the `<crate>/{src,tests,benches}/…`
# shorthand, and `examples/…` and `scenarios/…` paths (globs allowed); a
# trailing `:line` or sentence full stop is not part of the path.
crate_names=$(ls crates | paste -sd'|' -)
# A `path:N` or `path:N-M` cite must also name lines the file has.
cited=$(grep -noE "(crates/[A-Za-z0-9_-]+|\b($crate_names)/(src|tests|benches)|\b(examples|scenarios)/[A-Za-z0-9_.*-]*)(/[A-Za-z0-9_.*-]*)*(:[0-9]+(-[0-9]+)?)?" \
  "${docs[@]}" | sed -E 's/\.+$//')
missing=0
exists() { # <path or glob>
  local match
  for match in $1; do [[ -e "$match" ]] && return 0; done
  return 1
}
while IFS=: read -r doc line path lines; do
  case "$path" in crates/* | examples/* | scenarios/*) ;; *) path="crates/$path" ;; esac
  if ! exists "$path"; then
    echo "$doc:$line cites $path, which does not exist" >&2
    missing=1
  elif [[ -n "$lines" ]] && { [[ ! -f "$path" ]] || ((${lines#*-} > $(wc -l <"$path"))); }; then
    echo "$doc:$line cites $path:$lines, past the end of the file" >&2
    missing=1
  fi
done <<<"$cited"
# `<crate>::<module>` (or `gdmp_<crate>::<module>`) must name a module file,
# a module directory, or an inline `pub mod` of the crate's lib.rs.
crate_idents=$(ls crates | sed 's/-/[-_]/g' | paste -sd'|' -)
modules=$(grep -noE "\b(gdmp_)?($crate_idents)::[a-z_][a-z0-9_]*" "${docs[@]}")
while IFS=: read -r doc line ref; do
  crate=${ref%%::*}
  crate=${crate#gdmp_}
  module=${ref#*::}
  src="crates/${crate//_/-}/src"
  if [[ ! -e "$src/$module.rs" && ! -d "$src/$module" ]] && ! grep -qE "^pub mod $module \{" "$src/lib.rs"; then
    echo "$doc:$line cites $ref, which is no module of $src" >&2
    missing=1
  fi
done <<<"$modules"
[[ "$missing" == 0 ]] || exit 1

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --offline --workspace --release

echo "==> example transcripts: every examples/ binary prints its recorded stdout"
for src in examples/*.rs; do
  name=$(basename "$src" .rs)
  if ! diff -u "examples/transcripts/$name.txt" <(cargo run --offline --release -q -p gdmp-examples --bin "$name"); then
    echo "examples/$name printed something other than examples/transcripts/$name.txt" >&2
    exit 1
  fi
done

echo "==> cargo test"
cargo test --offline --workspace -q
cargo test --offline -q -p bytes # the vendored shim whose copy behaviour the data path relies on

echo "==> cargo bench --no-run"
cargo bench --offline --workspace --no-run

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "==> scenario smoke: committed scenario files load, replay, and stay byte-identical"
cargo run --offline --release -q -p gdmp-bench --bin scenario_smoke

echo "==> baseline gate: every BENCH_*.json is exactly what the model renders"
cargo run --offline --release -q -p gdmp-bench --bin bench_compare

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

if [[ "$full" == 1 ]]; then
  # `cargo test` passes when its filter matches nothing, so a step whose
  # tests moved would stop running them silently: every step below must
  # report at least one passed test.
  full_test() {
    local out
    out=$(cargo test --offline -q "$@" 2>&1) || { echo "$out" >&2; exit 1; }
    echo "$out"
    if ! grep -qE '^test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
      echo "cargo test $* ran no test" >&2
      exit 1
    fi
  }

  echo "==> chaos smoke: seeded convergence soak"
  full_test -p gdmp-workloads --test chaos_soak
  full_test -p gdmp --test chaos_recovery

  echo "==> fetch smoke: multi-source striped fetch"
  full_test --release -p gdmp-workloads --lib scenario::tests::fetch::
  full_test --release -p gdmp --test schedule_properties

  echo "==> trace smoke: span trees + critical path of the striped fetch"
  full_test --release -p gdmp-workloads --test trace_smoke

  echo "==> catalog smoke: federation flows, soak inertness, 100+-site never-wrong"
  full_test --release -p gdmp --test federation_flows
  full_test --release -p gdmp-workloads --lib scenario::tests::catalog::
  full_test --release -p gdmp-workloads --test catalog_soak

  echo "==> grid smoke: tiered soak, zero-alloc probes, byte-identical figures grid --json"
  full_test --release -p gdmp-workloads --lib grid::
  full_test --release -p gdmp-workloads --test byte_identity
  full_test --release -p gdmp --test control_plane_alloc
  tmp_a=$(mktemp); tmp_b=$(mktemp)
  trap 'rm -f "$tmp_a" "$tmp_b"' EXIT
  cargo run --offline --release -q -p gdmp-bench --bin figures -- grid --json > "$tmp_a"
  cargo run --offline --release -q -p gdmp-bench --bin figures -- grid --json > "$tmp_b"
  cmp "$tmp_a" "$tmp_b"
  echo "    figures grid --json: byte-identical across runs"

  echo "==> rss canary: push_soak for the benchmark's 30 s stays under its recorded peak_rss_mb"
  # The benchmark harness keeps tens of KB of every repetition it has run,
  # so whatever makes push_soak faster makes it run more repetitions in
  # its 30 s and read a higher peak (memoised sessions alone: 42.3 -> 46.5
  # MB against a 10 % bound). The next speed-up should meet that here, not
  # in review. Recorded on the 2-core host: 40.8 MB at 262 repetitions.
  rss_ceiling_mb=45
  rss=$(bash benchmark/run.sh --workload push_soak --seed 1 --seconds 30 --trace 0 |
    sed -n 's/^peak_rss_mb  *\([0-9.]*\) MB$/\1/p')
  if ! awk -v rss="$rss" -v max="$rss_ceiling_mb" 'BEGIN { exit !(rss != "" && rss + 0 <= max) }'; then
    echo "push_soak peak_rss_mb '$rss' is above the recorded ceiling of $rss_ceiling_mb MB" >&2
    exit 1
  fi
  echo "    push_soak peak_rss_mb $rss (ceiling $rss_ceiling_mb)"
fi

echo "CI OK"
