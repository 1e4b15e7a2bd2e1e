#!/usr/bin/env bash
# Full pre-merge check: lint gate, then build and test the default, asan
# (-fsanitize=address,undefined) and ubsan (standalone, non-recoverable)
# presets — each preset runs the FULL test suite. Run from anywhere.
#
#   tools/check.sh            # lint + all three presets + bench/serve smoke
#   tools/check.sh default    # one preset only (lint + smokes still run)
#   tools/check.sh asan
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan ubsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)

echo "==== lint ===="
tools/lint.sh

for preset in "${presets[@]}"; do
  echo "==== preset: ${preset} ===="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}"
done

# Bench smoke: the benches must build, and the --json fast-path report
# (what tools/bench.sh records into BENCH_conveyor.json) must still run.
# One short iteration only — this is a does-it-work check, not a
# measurement; see docs/PERFORMANCE.md for real baselines. The profiler
# overhead report runs histogram under every profiling mode (all but the
# timeline take the batch-dispatch path); it is printed, not gated.
echo "==== bench smoke ===="
cmake --build --preset default -j "${jobs}" \
  --target micro_conveyor micro_selector scaling_triangle overhead_tracing
smoke_json=$(mktemp)
trap 'rm -f "${smoke_json}"' EXIT
build/bench/micro_conveyor --json="${smoke_json}" --msgs=2000
grep -q '"items_per_sec"' "${smoke_json}"
build/bench/overhead_tracing --json
echo "bench smoke OK"

# Serve smoke: `actorprof serve` on a fresh binary-format trace must answer
# /healthz and serve /analyze and /heatmap byte-identical to the CLI.
echo "==== serve smoke ===="
tools/serve_smoke.sh

echo "All presets green."
