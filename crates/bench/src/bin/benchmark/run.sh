#!/usr/bin/env bash
# Builds the binaries the benchmark drives and the benchmark itself, then
# runs it. Run from the root of a checkout; arguments go to `benchmark`.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
# One target directory for both builds, so that `benchmark` finds `uots`
# and `uots-serve` next to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# The served binaries come from the workspace, with the workspace's own
# profile; the benchmark is a package of its own.
cargo build --release --offline --quiet --bins -p uots --manifest-path Cargo.toml
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
