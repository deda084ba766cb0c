#!/usr/bin/env bash
# Every dependency has a user. Each name under `[dependencies]` or
# `[dev-dependencies]` of a workspace manifest must appear, as a whole
# word in snake_case, in that package's `.rs` files (the root package's
# are `src/`, `tests/` and `examples/`), and every `crates/compat/*` shim
# must be a dependency of some other manifest. Run from anywhere in the
# repository; exits 1 and names each offender on failure.
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

exit "$fail"
