#!/usr/bin/env sh
# Tier-1 verification gate, fully offline: release build, the whole
# test suite, and warning-free clippy. CI runs exactly this script, so
# a green local run means a green pipeline.
set -eu

cd "$(dirname "$0")/.."

# Never touch the network: every dependency is in-workspace.
export CARGO_NET_OFFLINE=true

echo "==> cargo build --release"
cargo build --release

# Every package's tests: the integration suites under tests/ and each
# crate's unit tests (cache model, checkpoint codec, config checks).
echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# chaos-smoke: a fixed-seed escalating fault sweep across all four
# system designs, with invariant audits after every recovery. Exits
# non-zero on any auditor violation or functional-fingerprint drift.
# The second run plants a known recovery bug and must find + shrink it,
# proving the detector itself works.
echo "==> chaos-smoke: seeded sweep (must stay green)"
./target/release/stramash-cli chaos --seed 0x5eed --stages 4

echo "==> chaos-smoke: injected regression (must be found and shrunk)"
./target/release/stramash-cli chaos --seed 0x5eed --stages 4 --inject-regression

echo "==> verify: OK"
