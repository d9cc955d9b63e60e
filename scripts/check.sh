#!/usr/bin/env bash
# Lint gate: the static-analysis suite (rustfmt, clippy -D warnings,
# no-default-features build, first-party unsafe audit, er-lint domain
# rules — see xtask/src/main.rs and xtask/src/lint/), then the full
# test suite. CI runs this exact script (.github/workflows/ci.yml), so
# a clean local run means a clean CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo xtask analyze"
cargo xtask analyze

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Vendored crates model external dependencies and keep their own doc
# hygiene; the gate covers first-party crates only.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude criterion --exclude crossbeam --exclude loom \
  --exclude parking_lot --exclude proptest --exclude rand \
  --exclude serde --exclude serde_derive

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo test perfbench (the benchmark's use of the public API)"
# perfbench/ is a workspace of its own, so the workspace build above
# never compiles it: a removed or renamed public item it calls would
# otherwise pass this gate and break the benchmark.
cargo test --offline --quiet --manifest-path perfbench/Cargo.toml

echo "All checks passed."
