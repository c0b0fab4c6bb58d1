#!/usr/bin/env bash
# Repository benchmark entry point. Builds the driver (benchmark/focusbench)
# from ../src into build/benchmark, then either runs one workload or the
# whole suite:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result JSON (BENCHMARK.json's
#       command)
#   benchmark/run.sh [--seeds A,B,...] [--out FILE]
#       every workload once per seed (default seed 7 five times) untraced
#       plus one traced run, with medians/quartiles and cross-run checks
#       (benchmark/suite.py)
#   benchmark/run.sh --smoke
#       every workload once at 1/10 of its window, all checks on
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build/benchmark"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no FOCUS sources at $root/src; run from a full checkout" >&2
  exit 2
fi

# Compiler temporaries stay inside the checkout.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

# Build output goes to stderr: stdout carries only results.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --parallel 4 >&2

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$build/focusbench" "$@"
  fi
done
exec python3 "$root/benchmark/suite.py" --bin "$build/focusbench" "$@"
