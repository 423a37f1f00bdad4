#!/usr/bin/env bash
# Regenerate every paper table/figure and the ablations.
# Usage: scripts/reproduce.sh [build-dir]
#
# The cycle-level sweeps (Figure 6, the ucache/latency/cache ablations)
# run through liquid-lab: sharded across every core, written as
# machine-readable BENCH_*.json under $BUILD/results/, and rendered as
# the paper tables. The remaining benches are single-shot analyses and
# run directly.
set -euo pipefail
BUILD="${1:-build}"

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure

echo
echo "########## liquid-lab run --all"
"$BUILD"/tools/liquid-lab run --all --render --out "$BUILD"/results

for b in "$BUILD"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo
    echo "########## $(basename "$b")"
    "$b"
done

echo
echo "Results: $BUILD/results/BENCH_*.json"
