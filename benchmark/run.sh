#!/usr/bin/env bash
# The repo benchmark's one entry point.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --self-test
#
# Builds `node` (root workspace, release) and the harness (this
# package) offline, then runs one workload, or all four in turn when
# none is named. The last line of stdout of each run is one JSON object
# {correct, attempted, failed, metrics}; benchmark/out/ gets a copy
# (<workload>-trace<0|1>.json), the node logs and, with --trace 1, the
# spans (trace-<workload>.json).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo reports to stderr; stdout stays the benchmark's own. Explicit
# manifests: outside a checkout of the repo this must fail, not find
# some other workspace in a parent directory.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p node --bin node
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

out="$here/out"
mkdir -p "$out"
harness=("$target/release/harness" --node-bin "$target/release/node" --out "$out")

named=0
for arg in "$@"; do
    case "$arg" in
    --workload | --self-test) named=1 ;;
    esac
done

if [ "$named" = 1 ]; then
    exec "${harness[@]}" "$@"
fi
for workload in narrow wide mixed sim_1k; do
    "${harness[@]}" --workload "$workload" "$@"
done
