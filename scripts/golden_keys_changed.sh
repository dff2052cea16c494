#!/usr/bin/env bash
# Which keys of the golden snapshots changed, and may they?
#
#   scripts/golden_keys_changed.sh [REV]
#
# Compares every JSON file under tests/golden/ in the working tree with
# its version at REV (default HEAD) and prints the path of each leaf
# that differs. Exits non-zero if a file was added or removed, if the
# two versions differ in shape, or if any changed leaf is other than a
# store-scan work count: `store.entries_scanned`,
# `store.entries_skipped`, the per-index twin `index<i>.scanned`, and the
# per-query / per-event `scanned` fields. Those count
# how many entries a node rect-tested or passed over on the way to an
# answer; a change of store layout may move them and nothing else —
# results, messages, bytes, hops, distance calls and loads must not.
#
# After the per-leaf lines it prints a tally: how many leaves changed
# under each leaf name, over all files, so a diff of thousands of trace
# leaves still shows at a glance which names moved and which did not.
# Its last line says whether any answer leaf changed — recall
# (`recall_*_micros`), `completed`, loads (`load_*`), `published` (and
# its twin `index<i>.published`), `publish.stored`, `replicate.stored`,
# `held_out` — so a change of message pattern, which may move every cost
# leaf, shows at once that it left the answers alone. That line does
# not change the exit status.
#
# The golden CI jobs run this after regenerating a failed snapshot, so
# the log says at once whether the diff is confined to those counts.
# Needs python3 and git.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec python3 - "${1:-HEAD}" <<'PY'
import collections, json, pathlib, re, subprocess, sys

rev = sys.argv[1]
allowed = re.compile(r"^(store\.entries_(scanned|skipped)|index\d+\.scanned|scanned)$")
answer = re.compile(r"^(recall_\w+_micros|completed|load_\w+|(index\d+\.)?published"
                    r"|publish\.stored|replicate\.stored|held_out)$")

def leaves(node, path, out):
    if isinstance(node, dict):
        for key, value in node.items():
            leaves(value, path + (key,), out)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            leaves(value, path + (i,), out)
    else:
        out[path] = node

def flat(text):
    out = {}
    leaves(json.loads(text), (), out)
    return out

listed = subprocess.run(["git", "ls-tree", "-r", "--name-only", rev, "tests/golden"],
                        check=True, capture_output=True, text=True).stdout.split()
old_files = {f for f in listed if f.endswith(".json")}
new_files = {str(p) for p in pathlib.Path("tests/golden").rglob("*.json")}
bad = 0
tally = collections.Counter()
for f in sorted(old_files ^ new_files):
    print(f"{f}: {'removed' if f in old_files else 'added'}  NOT ALLOWED")
    bad += 1
for f in sorted(old_files & new_files):
    old = flat(subprocess.run(["git", "show", f"{rev}:{f}"], check=True,
                              capture_output=True, text=True).stdout)
    new = flat(pathlib.Path(f).read_text())
    changed = 0
    for path in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if a == b:
            continue
        changed += 1
        tally[str(path[-1])] += 1
        ok = path in old and path in new and allowed.match(str(path[-1]))
        if not ok:
            bad += 1
        if not ok or changed <= 5:
            where = "/".join(map(str, path))
            print(f"{f}: {where}: {a} -> {b}{'' if ok else '  NOT ALLOWED'}")
    if changed > 5:
        print(f"{f}: {changed} leaves changed in all")
if tally:
    print("changed leaves per leaf name:")
    for name, n in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {n:8d}  {name}")
print("golden diff confined to store-scan work counts" if not bad
      else f"{bad} changes outside the store-scan work counts")
answers = sorted(name for name in tally if answer.match(name))
print("no answer leaf changed" if not answers
      else f"answer leaves changed: {', '.join(answers)}")
sys.exit(1 if bad else 0)
PY
