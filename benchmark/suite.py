"""All-workload runs and the `--check` comparison behind `run.sh`.

The measured program is the Rust binary; this script only starts it once
per run (each workload in its own process, so `peak_rss_mb` is per
workload), gathers the JSON results, and compares them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPETITIONS = 3


def run_once(binary, out_dir, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out-dir", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    failed_checks = [l for l in lines if l.startswith("CHECK FAILED")]
    return json.loads(lines[-1]), digest, failed_checks


def spread(values):
    """(max - min) / median of the repetitions, as a share."""
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else 0.0


def measure(binary, out_dir, spec, seed, seconds):
    """Three untraced runs per workload: {workload: {metric: [values]}}."""
    results, ok = {}, True
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_once(binary, out_dir, w, seed, seconds, trace=False)
                for _ in range(REPETITIONS)]
        digests = {d for _, d, _ in runs}
        bad = [c for _, _, checks in runs for c in checks]
        if len(digests) != 1:
            bad.append(f"sim_digest differs between processes: {sorted(digests)}")
        if any(r["failed"] for r, _, _ in runs):
            bad.append("failed ops")
        for msg in bad:
            print(f"{w}: {msg}")
        ok = ok and not bad and all(r["correct"] for r, _, _ in runs)
        results[w] = {
            "sim_digest": sorted(digests)[0],
            "attempted": runs[0][0]["attempted"],
            "metrics": {m["name"]: [r["metrics"][m["name"]]["value"] for r, _, _ in runs]
                        for m in spec["end_to_end"]},
        }
    return results, ok


def print_end_to_end(spec, results):
    for w, res in results.items():
        print(f"\n== {w}  (sim_digest {res['sim_digest']}, {res['attempted']} ops a run)")
        print(f"{'metric':<18}{'unit':>8}{'median':>16}{'min':>16}{'max':>16}{'spread':>9}")
        for m in spec["end_to_end"]:
            v = res["metrics"][m["name"]]
            print(f"{m['name']:<18}{m['unit']:>8}{statistics.median(v):>16.6g}"
                  f"{min(v):>16.6g}{max(v):>16.6g}{spread(v) * 100:>8.2f}%")


def print_traced(binary, out_dir, spec, seed, seconds):
    ok = True
    columns = {}
    for w in (w["name"] for w in spec["workloads"]):
        result, _, checks = run_once(binary, out_dir, w, seed, seconds, trace=True)
        for c in checks:
            print(f"{w}: {c}")
        ok = ok and result["correct"]
        columns[w] = result["metrics"]
    names = list(columns)
    print(f"\n{'per-layer metric':<42}{'unit':>7}" + "".join(f"{n:>17}" for n in names))
    for m in spec["per_layer"]:
        row = "".join(f"{columns[n][m['name']]['value']:>17.6g}" for n in names)
        print(f"{m['name']:<42}{m['unit']:>7}{row}")
    print(f"spans written to {out_dir}/<workload>.trace.jsonl")
    return ok


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def check(spec, baseline, results):
    """One row per workload x metric; True when nothing regressed."""
    ok = True
    print(f"\n{'workload':<17}{'metric':<18}{'baseline':>14}{'now':>14}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for w, res in results.items():
        base = baseline["workloads"][w]
        for m in spec["end_to_end"]:
            now, was = res["metrics"][m["name"]], base["metrics"][m["name"]]
            worse = worse_by(m, statistics.median(was), statistics.median(now))
            if m["name"].startswith("sim_"):
                # Same seed, same model: the sim clock must not move at all.
                verdict = "ok" if sorted(now) == sorted(was) else "CHANGED"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
            elif max(spread(now), spread(was)) > m["bound"]:
                # Too noisy to call, unless every run now beats every run then.
                better = (max(now) < min(was)) if m["better"] == "lower" else (min(now) > max(was))
                verdict = "ok" if better else "unresolved"
            else:
                verdict = "ok"
            ok = ok and verdict in ("ok", "unresolved")
            print(f"{w:<17}{m['name']:<18}{statistics.median(was):>14.6g}"
                  f"{statistics.median(now):>14.6g}{worse * 100:>9.2f}%{m['bound'] * 100:>6.0f}%  {verdict}")
        if res["sim_digest"] != base["sim_digest"]:
            print(f"{w:<17}sim_digest {base['sim_digest']} -> {res['sim_digest']}  CHANGED")
            ok = False
    return ok


def provenance(repo):
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=repo).stdout.strip()
        except OSError:
            return ""
    return {
        "host_cores": os.cpu_count(),
        "rustc": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]) or "unknown",
    }


def main():
    binary, here = sys.argv[1], sys.argv[2]
    repo = os.path.dirname(here)
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(prog="benchmark/run.sh")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(sys.argv[3:])
    out_dir = os.path.join(here, "out")
    os.makedirs(out_dir, exist_ok=True)
    baseline_path = os.path.join(out_dir, "baseline.json")

    if args.trace:
        sys.exit(0 if print_traced(binary, out_dir, spec, args.seed, args.seconds) else 1)

    if args.check:
        with open(baseline_path) as f:
            baseline = json.load(f)
        if (baseline["seed"], baseline["seconds"]) != (args.seed, args.seconds):
            sys.exit(f"baseline was taken with --seed {baseline['seed']} --seconds "
                     f"{baseline['seconds']}; compare like with like")
        results, correct = measure(binary, out_dir, spec, args.seed, args.seconds)
        print_end_to_end(spec, results)
        print(f"\nbaseline: {baseline['provenance']}\nnow:      {provenance(repo)}")
        sys.exit(0 if check(spec, baseline, results) and correct else 1)

    results, correct = measure(binary, out_dir, spec, args.seed, args.seconds)
    print_end_to_end(spec, results)
    correct = print_traced(binary, out_dir, spec, args.seed, args.seconds) and correct
    if not correct:
        sys.exit("a correctness check failed: no baseline written")
    with open(baseline_path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "provenance": provenance(repo),
                   "workloads": results}, f, indent=1)
    print(f"baseline written to {baseline_path}")


if __name__ == "__main__":
    main()
