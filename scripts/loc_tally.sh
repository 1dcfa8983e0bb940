#!/usr/bin/env bash
# Non-test line tally of the workspace crates: every `.rs` file under
# `crates/*/src`, counted up to (not including) its first `#[cfg(test)]`
# line, or whole when it has none. Prints one line per crate, then the
# total.
#
#   scripts/loc_tally.sh            # from anywhere inside the checkout
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' -print0 |
    xargs -0 awk '
        FNR == 1 { if (file != "") print crate, n; file = FILENAME; split(FILENAME, p, "/"); crate = p[2]; n = 0; on = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }
        on { n++ }
        END { if (file != "") print crate, n }' |
    awk '
        { sum[$1] += $2; total += $2 }
        END {
            for (c in sum) printf "%-18s %6d\n", c, sum[c] | "sort"
            close("sort")
            printf "%-18s %6d\n", "total", total
        }'
