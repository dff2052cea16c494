#!/usr/bin/env bash
# Line budget for non-test Rust: the lines of every crates/*/src/**/*.rs
# file before that file's first `#[cfg(test)]` (all of a file that has
# none), summed. Exits non-zero unless the sum equals BUDGET.
#
# The rule: a change that lowers the count lowers BUDGET to match; a
# change that raises it raises BUDGET and justifies the increase in
# CHANGES.md.
#
# Usage: scripts/line_budget.sh
set -euo pipefail

BUDGET=17094

cd "$(dirname "$0")/.."
count=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }' {} + | awk '{ sum += $1 } END { print sum + 0 }')

if [ "$count" -ne "$BUDGET" ]; then
    echo "line budget: $count non-test lines under crates/*/src, budget $BUDGET" >&2
    if [ "$count" -gt "$BUDGET" ]; then
        echo "raise BUDGET in $0 and justify the increase in CHANGES.md" >&2
    else
        echo "lower BUDGET in $0 to $count" >&2
    fi
    exit 1
fi
echo "line budget: $count non-test lines under crates/*/src (budget $BUDGET)"
