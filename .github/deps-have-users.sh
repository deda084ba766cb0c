#!/usr/bin/env bash
# Every dependency and module has a user. Each name under
# `[dependencies]` or `[dev-dependencies]` of a workspace manifest must
# appear, as a whole word in snake_case, in that package's `.rs` files
# (the root package's are `src/`, `tests/` and `examples/`), and every
# `crates/compat/*` shim must be a dependency of some other manifest.
# Each `pub mod m;` of a `crates/*/src/lib.rs` must be named in path
# form (`m::` or `::m`) by non-test code — a file under `src/`,
# `examples/`, `crates/*/src` or `e2e_ledger/src`, read up to its first
# `#[cfg(test)]` — other than the module's own files and its
# declaration. Run from anywhere in the repository; exits 1 and names
# each offender on failure.
set -euo pipefail
cd "$(dirname "$0")/.."

manifests=(Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml)

# The dependency names of a manifest, as written (`name.workspace = true`,
# `name = { ... }` or `name = "..."`).
deps_of() {
    awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
         on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$1"
}

fail=0
for manifest in "${manifests[@]}"; do
    dir=$(dirname "$manifest")
    if [ "$dir" = . ]; then sources=(src tests examples); else sources=("$dir"); fi
    for dep in $(deps_of "$manifest"); do
        if ! grep -rqw --include='*.rs' -- "${dep//-/_}" "${sources[@]}"; then
            echo "$manifest: no .rs file of this package names dependency \`$dep\`"
            fail=1
        fi
    done
done

for shim in crates/compat/*/; do
    name=$(basename "$shim")
    used=0
    for manifest in "${manifests[@]}"; do
        if [ "$manifest" != "${shim}Cargo.toml" ] && deps_of "$manifest" | grep -qx -- "$name"; then
            used=1
        fi
    done
    if [ "$used" = 0 ]; then
        echo "${shim%/}: no other manifest depends on this shim"
        fail=1
    fi
done

# `file:line:text` for every line of non-test code.
code=$(find src examples crates/*/src e2e_ledger/src -name '*.rs' -print0 |
    xargs -0 awk 'FNR == 1 { live = 1 } /^[ \t]*#\[cfg\(test\)\]/ { live = 0 }
                  live { print FILENAME ":" FNR ":" $0 }')

for lib in crates/*/src/lib.rs; do
    src=$(dirname "$lib")
    for m in $(sed -nE 's/^[[:space:]]*pub mod ([a-z0-9_]+);.*/\1/p' "$lib"); do
        users=$(grep -vE "^($src/$m\.rs|$src/$m/[^:]*):" <<<"$code" |
            grep -vE "^$lib:[0-9]+:[[:space:]]*pub mod $m;" |
            grep -cE "(^|[^A-Za-z0-9_])$m::|::$m([^A-Za-z0-9_]|\$)" || true)
        if [ "$users" = 0 ]; then
            echo "$lib: no code outside module \`$m\` names it (\`$m::\` or \`::$m\`)"
            fail=1
        fi
    done
done

exit "$fail"
