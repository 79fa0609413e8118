#!/usr/bin/env bash
# Builds the `rsj` CLI (in the repository's own workspace, so with its
# release profile) and the benchmark, then runs the benchmark from the
# repository root with this script's arguments. Both builds go to
# $CARGO_TARGET_DIR when it is set, to ./target otherwise.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p rsj-cli
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
