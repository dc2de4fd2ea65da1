#!/usr/bin/env bash
# The verification gate, runnable locally and from CI:
#
#   scripts/ci.sh
#
# Four steps: format check, release build of every target (libs, bins,
# tests, examples), the full test suite, and the benchmark harness's
# own suite. The suite drives the real `biorank` binary itself
# (tests/cli_serve.rs) and guards the test-target list (crates/core).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --all-targets"
cargo build --release --all-targets

echo "==> cargo test -q"
cargo test -q

# The benchmark harness is its own workspace, frozen between benchmark
# PRs, that the suite above never compiles: a change that breaks a
# name it imports, or an answer its checker recomputes, must fail here
# (~30 s, including the 16 s `--smoke` run), not in the benchmark.
echo "==> cargo test -q --offline --manifest-path e2ebench/Cargo.toml"
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "OK"
