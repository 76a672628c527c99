#!/usr/bin/env bash
# panobench: the repository's benchmark. One command:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--repeat K] [--smoke]
#
# Builds panorama, panoramad and trace_check plus the harness in release
# mode (untimed), then runs the harness. See benchmark/README.md.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

# One target directory for both builds, so the analyzer's crates are
# compiled once. A relative CARGO_TARGET_DIR means relative to the root.
target="${CARGO_TARGET_DIR:-$bench_dir/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p panorama -p panoramad 1>&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" 1>&2

exec "$target/release/panobench" \
  --bench-dir "$bench_dir" --bin-dir "$target/release" "$@"
