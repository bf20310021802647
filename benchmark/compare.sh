#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Compares two results.json files written by benchmark/run.sh (B against A):
# one row per workload x end-to-end metric, judged by the benchmark's bounds.
# A row is "unresolved" where run-to-run spread exceeds the bound; exits
# non-zero if any row is a regression.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
a="$(realpath "${1:?usage: benchmark/compare.sh A.json B.json}")"
b="$(realpath "${2:?usage: benchmark/compare.sh A.json B.json}")"
cd "$root"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/graphene-benchmark" compare "$a" "$b"
