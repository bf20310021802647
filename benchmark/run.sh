#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                      every workload: untraced pass, traced pass,
#                                         table on stdout, benchmark/out/results.json
#   benchmark/run.sh --runs 5             the same with five seeds per workload
#   benchmark/run.sh --sensitivity        ... plus the check that a 20% change in the
#                                         dominant layer's work moves op_ms_p50
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is its result
#
# Builds the harness and the product crates from source (release profile)
# into $CARGO_TARGET_DIR, or benchmark/target when that is unset. Runs from
# the repository root so the root .cargo/config.toml applies, as it does to
# a normal build of the product.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/graphene-benchmark"

case "${1:-}" in
    --workload) exec "$bin" "$@" ;;
    *) exec "$bin" all "$@" ;;
esac
