#!/usr/bin/env bash
# Builds and runs the benchmark, sharing the repository's target directory.
#
#   benchmark/run.sh                       every workload, both ways (seed 0x4177)
#   benchmark/run.sh --seed 7 --reps 9     the same with another seed or rep count
#   benchmark/run.sh --workload fs_mixed --seconds 8 --trace 0
#                                          one workload, the driver's way
#   benchmark/run.sh --check               two full sets; fails unless they agree
#   benchmark/run.sh --manifest            print BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
exec cargo run --release --quiet --offline --manifest-path "$here/Cargo.toml" -- "$@"
