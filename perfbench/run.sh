#!/usr/bin/env bash
# Build `mpq` and the benchmark from source, then run one benchmark run.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); the rendered .dl inputs go next to them.
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --offline --release --quiet -p mp-framework --bin mpq >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2

# Provenance the binary cannot read itself. A checkout without git
# history is identified by a digest of the sources it was built from.
PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_GIT_COMMIT="none"
if [ -e .git ]; then
    PERFBENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
fi
PERFBENCH_SOURCE_SHA256="$(find Cargo.toml Cargo.lock src crates perfbench/Cargo.toml perfbench/src \
    -type f -print0 | LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)"
export PERFBENCH_RUSTC PERFBENCH_GIT_COMMIT PERFBENCH_SOURCE_SHA256

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --mpq "$CARGO_TARGET_DIR/release/mpq" \
    --workdir "$CARGO_TARGET_DIR/perfbench-inputs" \
    "$@"
