#!/usr/bin/env bash
# Print each crate's non-test lines, then their total: every tracked `.rs`
# file under `crates/<c>/src` (the `crates/compat/<c>/src` shims too)
# counted up to the line before its first `#[cfg(test)]`, or whole if it
# has none. It only prints; nothing is gated on it. Run from anywhere in
# the repository; compare two commits by running it in a checkout of each.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src crates/compat/*/src; do
    files=$(git ls-files -- "$src" | grep '\.rs$' || true)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086 # one word per path; no path has a space
    lines=$(awk 'FNR == 1 { on = 1 }
                 /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }
                 on { n++ }
                 END { print n + 0 }' $files)
    crate=${src%/src}
    printf '%-18s %7d\n' "${crate#crates/}" "$lines"
    total=$((total + lines))
done
printf '%-18s %7d\n' total "$total"
