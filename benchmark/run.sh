#!/usr/bin/env bash
# Builds the benchmark from source and runs it. With
#   --workload W --seed N --seconds S --trace 0|1
# it makes one run and prints the result object as its last line; with
# no --workload it runs the full set (see README.md in this directory).
#
# The build goes to $CARGO_TARGET_DIR when set, else to the repository's
# own target/ (that is ../target seen from here); nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/eunomia-benchmark" "$@"
