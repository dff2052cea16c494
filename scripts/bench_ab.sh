#!/usr/bin/env bash
# Alternating A/B runs of the repo benchmark: REV against this checkout.
#
#   scripts/bench_ab.sh REV WORKLOAD SEED PAIRS
#
# Exports REV's tree into a temporary directory (`git archive`) and
# builds each side into its own CARGO_TARGET_DIR, then runs
# `benchmark/run.sh --trace 0` for PAIRS pairs, REV and this checkout
# taking turns (which side goes first alternates too, so drift during
# the session hits both alike). Each run lasts BENCHMARK.json's
# run_seconds. Prints failed/attempted operations per side, then per
# metric each side's median [quartiles], how many pairs this checkout
# won ("better" being the direction BENCHMARK.json gives) and a verdict:
#
#   gain        head won at least 9 of every 10 pairs, and the medians
#               differ by more than base's interquartile range; with
#               fewer than 10 pairs this reads `unresolved (fewer than
#               10 pairs)` instead, since a few wins in a row happen by
#               chance (three in a row 1 time in 8)
#   worse       head's median is worse than base's by more than the
#               metric's BENCHMARK.json bound
#   unresolved  base's interquartile range exceeds the bound, and not
#               every head run beats every base run
#   same        none of the above
#
# Per-layer metrics have no bound, so they are only ever gain or same.
#
# Exits non-zero if any run fails or reports `correct: false` or
# `failed > 0`, or if a count metric (msgs_per_query,
# wire_bytes_per_query) is not exactly equal in every run of both sides.
# Writes nothing under benchmark/ except what run.sh itself leaves in
# its git-ignored out/: a run.sh build rewrites benchmark/Cargo.lock, so
# the lock is saved before the first run and put back on exit. Needs
# python3.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: scripts/bench_ab.sh REV WORKLOAD SEED PAIRS" >&2
    exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
base="$tmp/base"
lock="$root/benchmark/Cargo.lock"
cp "$lock" "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" "$lock"; rm -rf "$tmp"' EXIT
mkdir "$base"
git -C "$root" archive "$rev" | tar -x -C "$base"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"

# run SIDE PAIR: one benchmark run; its result line lands in SIDE-PAIR.json.
run() {
    local side=$1 pair=$2 dir
    if [ "$side" = base ]; then dir="$base"; else dir="$root"; fi
    echo "pair $pair/$pairs: $side" >&2
    if ! CARGO_TARGET_DIR="$tmp/target-$side" bash "$dir/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$tmp/$side-$pair.out" 2>"$tmp/$side-$pair.log"; then
        tail -n 30 "$tmp/$side-$pair.log" >&2
        echo "bench_ab: the $side run of pair $pair failed" >&2
        exit 1
    fi
    tail -n 1 "$tmp/$side-$pair.out" >"$tmp/$side-$pair.json"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) = 1 ]; then
        run base "$pair"
        run head "$pair"
    else
        run head "$pair"
        run base "$pair"
    fi
done

echo "$workload @ seed $seed, $pairs pairs of ${seconds} s: base = $rev, head = this checkout"
python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" <<'PY'
import json, statistics, sys

spec_path, tmp, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
exact = {"msgs_per_query", "wire_bytes_per_query"}
runs = {
    side: [json.load(open(f"{tmp}/{side}-{i}.json")) for i in range(1, pairs + 1)]
    for side in ("base", "head")
}
bad = 0
for side, results in runs.items():
    for i, r in enumerate(results, 1):
        if not r["correct"] or r["failed"]:
            print(f"{side} pair {i}: correct {r['correct']}, {r['failed']} of {r['attempted']} ops failed")
            bad += 1
for side, results in runs.items():
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{side}: {failed} of {attempted} ops failed")

def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3

def verdict(name, base, head, wins):
    (b1, bm, b3), (_, hm, _) = quartiles(base), quartiles(head)
    sign = 1 if better[name] == "higher" else -1
    if wins >= 0.9 * len(base) and sign * (hm - bm) > b3 - b1:
        return "gain" if len(base) >= 10 else "unresolved (fewer than 10 pairs)"
    if name not in bound or not bm:
        return "same"
    if -sign * (hm - bm) / bm > bound[name]:
        return "worse"
    every_head_better = min(sign * h for h in head) > max(sign * b for b in base)
    if (b3 - b1) / bm > bound[name] and not every_head_better:
        return "unresolved"
    return "same"

print(f"{'metric':22s} {'base median [q1, q3]':>34s} {'head median [q1, q3]':>34s} {'change':>8s} {'wins':>6s}  verdict")
for name in sorted(runs["base"][0]["metrics"]):
    if name not in better:
        continue
    v = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    (b1, bm, b3), (h1, hm, h3) = quartiles(v["base"]), quartiles(v["head"])
    sign = 1 if better[name] == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(v["base"], v["head"]))
    change = f"{(hm - bm) / bm:+.1%}" if bm else "n/a"
    flag = ""
    if name in exact and len(set(v["base"] + v["head"])) != 1:
        flag = "  DIFFERS"
        bad += 1
    print(f"{name:22s} {bm:12.3f} [{b1:9.3f}, {b3:9.3f}] {hm:12.3f} [{h1:9.3f}, {h3:9.3f}] "
          f"{change:>8s} {wins:>2d}/{pairs}  {verdict(name, v['base'], v['head'], wins)}{flag}")
sys.exit(1 if bad else 0)
PY
