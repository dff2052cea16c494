#!/usr/bin/env bash
# A/A tool: is the benchmark steady enough to hold its own bounds?
#
#   benchmark/aa.sh              every workload twice at seed 42: each
#                                end-to-end metric's two values, their
#                                relative difference and its bound; the
#                                count metrics must agree exactly
#   benchmark/aa.sh --spread N   every workload at N seeds: each metric's
#                                interquartile spread as a share of its
#                                median, against a third of its bound
#
# Exits non-zero on any breach. Bounds, workloads and the run length
# come from BENCHMARK.json. Needs python3 for the statistics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here" "$@" <<'PY'
import json, statistics, subprocess, sys

here, args = sys.argv[1], sys.argv[2:]
spec = json.load(open(f"{here}/../BENCHMARK.json"))
seeds = list(range(1, int(args[1]) + 1)) if args[:1] == ["--spread"] else [42, 42]
exact = {"wire_bytes_per_query", "msgs_per_query"}
breaches = 0

def run(workload, seed):
    cmd = ["bash", f"{here}/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}

for w in (w["name"] for w in spec["workloads"]):
    runs = [run(w, s) for s in seeds]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        v = [r[name] for r in runs]
        if len(seeds) == 2:
            diff = abs(v[1] - v[0]) / v[0]
            bad = v[0] != v[1] if name in exact else diff > bound
            limit = "exact" if name in exact else f"{bound:.0%}"
            print(f"{w:7s} {name:22s} {v[0]:12.4f} {v[1]:12.4f}  diff {diff:7.2%}  bound {limit:>5s}{'  BREACH' if bad else ''}")
        else:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / statistics.median(v)
            # The set-up time's spread is reported, not judged: only a
            # shift of its median is held against its bound.
            bad = name != "setup_s" and spread > bound / 3
            print(f"{w:7s} {name:22s} median {statistics.median(v):12.4f}  spread {spread:6.2%}  bound/3 {bound / 3:6.2%}{'  BREACH' if bad else ''}")
        breaches += bad
sys.exit(1 if breaches else 0)
PY
