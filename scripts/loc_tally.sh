#!/usr/bin/env bash
# Non-test line tally of the workspace crates: every `.rs` file under
# `crates/*/src`, counted up to (not including) its first `#[cfg(test)]`
# line, or whole when it has none. Prints one line per crate, then the
# total, then — outside the total — a `test-support` line for the shared
# test modules under `crates/*/tests/support`, counted the same way, so
# code moved out of a crate's API into test support shows as moved, not
# deleted; then one `unsafe <crate>` line per crate: how many of its
# non-test lines contain the word `unsafe`; then one `pub fn <crate>` line
# per crate and their total: how many of its non-test lines begin (after
# indentation) with `pub fn `, `pub const fn `, `pub unsafe fn ` or
# `pub const unsafe fn ` — the workspace's exported functions, as opposed
# to `pub(crate) fn`; last, one `pub type <crate>` line per crate and their
# total: how many of its non-test lines begin with `pub struct `, `pub enum `,
# `pub trait `, `pub type `, `pub const ` (not a `const fn`) or
# `pub static ` — its exported types and constants.
#
# A line that begins at column 0 with `pub use`, `pub mod`, `pub fn`,
# `pub struct`, `pub enum`, `pub trait`, `pub type`, `pub const` or
# `pub static` after its file's first `#[cfg(test)]` is an export the
# tally cannot see; each one is named on stderr as `hidden <file>:<line>`.
#
#   scripts/loc_tally.sh            # from anywhere inside the checkout
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints `<crate> <lines> <unsafe lines> <pub fn lines> <pub type lines>`
# per file of the given roots.
count() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 -r awk '
            FNR == 1 { if (file != "") print crate, n, u, f, t; file = FILENAME; split(FILENAME, p, "/"); crate = p[2]; n = 0; u = 0; f = 0; t = 0; on = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }
            on { n++ }
            !on && /^pub (use|mod|fn|struct|enum|trait|type|const|static)[^A-Za-z0-9_]/ { print "hidden " FILENAME ":" FNR > "/dev/stderr" }
            on && /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { u++ }
            on && /^[[:space:]]*pub (const )?(unsafe )?fn / { f++ }
            on && /^[[:space:]]*pub (struct|enum|trait|type|const|static) / && !/^[[:space:]]*pub const (unsafe )?fn / { t++ }
            END { if (file != "") print crate, n, u, f, t }'
}

crates=$(count crates/*/src)
awk '
    { sum[$1] += $2; total += $2 }
    END {
        for (c in sum) printf "%-18s %6d\n", c, sum[c] | "sort"
        close("sort")
        printf "%-18s %6d\n", "total", total
    }' <<<"$crates"
shopt -s nullglob
support=(crates/*/tests/support)
if ((${#support[@]})); then count "${support[@]}"; fi |
    awk '{ n += $2 } END { printf "%-18s %6d\n", "test-support", n }'
awk '
    { sum[$1] += $3 }
    END { for (c in sum) printf "%-18s %6d\n", "unsafe " c, sum[c] | "sort" }' <<<"$crates"
awk '
    { sum[$1] += $4; total += $4 }
    END {
        for (c in sum) printf "%-18s %6d\n", "pub fn " c, sum[c] | "sort"
        close("sort")
        printf "%-18s %6d\n", "pub fn total", total
    }' <<<"$crates"
awk '
    { sum[$1] += $5; total += $5 }
    END {
        for (c in sum) printf "%-18s %6d\n", "pub type " c, sum[c] | "sort"
        close("sort")
        printf "%-18s %6d\n", "pub type total", total
    }' <<<"$crates"
