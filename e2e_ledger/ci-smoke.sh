#!/usr/bin/env bash
# Build the benchmark, run the whole suite on tiny populations (untraced
# and traced), and run the crate's tests. For a later PR to call from
# .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
./target/release/e2e_ledger --workload all --smoke --trace 0
./target/release/e2e_ledger --workload all --smoke --trace 1
cargo test --release --offline
