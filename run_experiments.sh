#!/bin/bash
# Regenerate every figure and sweep. Build first:
#   cargo build --release -p graphene-experiments --bins
#
# Full run: results land in results/*.csv and results/*.log, and
# results/MANIFEST says what produced each of them. Flags are passed
# through to every binary, e.g.:
#   ./run_experiments.sh --threads 2    # parallel trial engine (same output bytes)
#
# Quick run: every binary at --quick, in target/results-quick/ (the
# committed full-size results/ are not touched):
#   ./run_experiments.sh --quick [--threads N]   # rewrite results/MANIFEST.quick
#   ./run_experiments.sh --check [--threads N]   # compare against it
# MANIFEST.quick holds one line per CSV: file | bin | sha256. --check exits
# non-zero, naming every CSV whose hash differs, that is missing or that
# the manifest does not list, and every binary that failed. Logs are not
# hashed: they carry wall-clock timings.
set -u
cd "$(dirname "$0")"
root=$PWD
# Every figure binary, one per crates/experiments/src/bin/<bin>.rs.
BINS=$(for f in crates/experiments/src/bin/*.rs; do basename "$f" .rs; done)

# Run every binary with the given flags from cwd $1; logs go to $1/results.
# Returns non-zero if any binary did.
run_bins() {
  local dir=$1 status=0
  shift
  mkdir -p "$dir/results"
  for b in $BINS; do
    echo "=== $b ==="
    if ! (cd "$dir" && "$root/target/release/$b" "$@" > "results/$b.log" 2>&1); then
      echo "!!! $b failed; see $dir/results/$b.log"
      status=1
    fi
    echo "--- $b done ($(date +%T)) ---"
  done
  return $status
}

# The binary that wrote results/$2 under $1: the one whose log says so.
writer() {
  grep -lx "wrote results/$2" "$1"/results/*.log | head -n 1 | xargs -r basename -s .log
}

mode=full
for a in "$@"; do
  case $a in
    --quick | --check) mode=${a#--} ;;
  esac
done

if [ "$mode" != full ]; then
  threads=()
  while [ $# -gt 0 ]; do
    case $1 in
      --quick | --check) shift ;;
      --threads) [ -n "${2:-}" ] && threads=(--threads "$2") && shift 2 || break ;;
      *) break ;;
    esac
  done
  if [ $# -gt 0 ]; then
    echo "usage: $0 --quick|--check [--threads N]" >&2
    exit 2
  fi
  dir=target/results-quick
  rm -rf "$dir/results"
  failed=0
  run_bins "$dir" --quick ${threads[@]+"${threads[@]}"} || failed=1
  actual=$(
    for f in "$dir"/results/*.csv; do
      [ -e "$f" ] || continue
      name=$(basename "$f")
      echo "$name | $(writer "$dir" "$name") | $(sha256sum "$f" | cut -d' ' -f1)"
    done
  )
  if [ "$mode" = quick ]; then
    { echo "# file | bin | sha256 (every bin at --quick)"; echo "$actual"; } > results/MANIFEST.quick
    echo "wrote results/MANIFEST.quick ($(echo "$actual" | wc -l) CSVs)"
    exit $failed
  fi
  expected=$(grep -v '^#' results/MANIFEST.quick)
  mismatched=$(
    diff <(echo "$expected") <(echo "$actual") | sed -n 's/^[<>] \([^ ]*\) |.*/\1/p' | sort -u
  )
  for name in $mismatched; do
    echo "!!! $name differs from results/MANIFEST.quick"
    failed=1
  done
  [ $failed = 0 ] && echo "check passed: $(echo "$actual" | wc -l) CSVs match results/MANIFEST.quick"
  exit $failed
fi

started=$(mktemp)
run_bins . "$@"

# One line per file: the binary that wrote it (a CSV's is the one whose log
# says `wrote results/<csv>`), the flags and seed of this run, the commit
# the tree was at (`+` if it had uncommitted changes) and the file's
# sha256. A file this run did not write is listed `stale`.
flags=${*:-none}
seed=0xeca1 # RunOpts' default
while [ $# -gt 0 ]; do
  [ "$1" = "--seed" ] && seed=${2:-$seed}
  shift
done
rev=$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- crates src vendor Cargo.toml Cargo.lock || echo +)
{
  echo "# file | bin | flags | seed | rev | sha256"
  for f in results/*.csv results/*.log; do
    name=$(basename "$f")
    case $name in
      *.log) bin=${name%.log} ;;
      *) bin=$(writer . "$name") ;;
    esac
    if [ -n "$bin" ] && [ "$f" -nt "$started" ] && [ "results/$bin.log" -nt "$started" ]; then
      echo "$name | $bin | $flags | $seed | $rev | $(sha256sum "$f" | cut -d' ' -f1)"
    else
      echo "$name | stale"
    fi
  done
} > results/MANIFEST
rm -f "$started"
echo "wrote results/MANIFEST ($(grep -c ' | stale$' results/MANIFEST) stale)"
