#!/bin/bash
# Regenerate every figure and sweep. Results land in results/*.csv and
# results/*.log, and results/MANIFEST says what produced each of them.
# Flags are passed through to every binary, e.g.:
#   ./run_experiments.sh --quick        # 10x fewer Monte Carlo trials
#   ./run_experiments.sh --threads 8    # parallel trial engine (same output bytes)
# Build first: cargo build --release -p graphene-experiments --bins
set -u
cd "$(dirname "$0")"
mkdir -p results
BINS="ablations fig07 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 thm4 sec61 sec62 multipeer diffdigest backends organic cpisync propagation adversary chaos fanout latency rateless"
started=$(mktemp)
for b in $BINS; do
  echo "=== $b ==="
  ./target/release/$b "$@" > results/$b.log 2>&1 || echo "!!! $b exited with status $?"
  echo "--- $b done ($(date +%T)) ---"
done

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
      *) bin=$(grep -lx "wrote results/$name" results/*.log | head -n 1 | xargs -r basename -s .log) ;;
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
