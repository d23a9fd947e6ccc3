#!/usr/bin/env bash
# Race check for the intra-node execution engine: build a sanitizer preset
# and run the executor + determinism tests under it.
#
#   $ scripts/check.sh                      # tsan, executor-focused (fast)
#   $ scripts/check.sh --all                # tsan, the whole suite (slow)
#   $ scripts/check.sh --preset asan-ubsan  # same flow, other sanitizer
set -euo pipefail
cd "$(dirname "$0")/.."

preset=tsan
all=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --all) all=1 ;;
    --preset)
      [[ $# -ge 2 ]] || { echo "check.sh: --preset needs a value" >&2; exit 2; }
      preset="$2"
      shift
      ;;
    *) echo "usage: check.sh [--all] [--preset NAME]" >&2; exit 2 ;;
  esac
  shift
done

# Portable core count: Linux, then POSIX, then macOS, then a safe default.
jobs="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null ||
        sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake --preset "${preset}"
cmake --build --preset "${preset}" -j "${jobs}"

filter='ThreadPool.*:ParallelFor.*:Latch.*:ResolveWorkers.*'
filter+=':ThreadCountDeterminism.*:Determinism.*:Devices.*'
# Concurrency-heavy suite families are discovered, not hardcoded: any suite
# named Serve*/Fault*/Chaos*/Hotpath*/Stencil* (present or added later)
# joins the sanitizer run automatically instead of silently falling out of
# coverage. Stencil sweeps run inner tiles concurrently with the halo
# exchange.
discovered="$("./build-${preset}/tests/psf_tests" --gtest_list_tests 2>/dev/null |
  awk '/^[A-Za-z_]/ { sub(/\.$/, ""); sub(/\..*$/, "");
       if ($1 ~ /^(Serve|Fault|Chaos|Hotpath|Stencil)/) print $1 }' | sort -u)"
for suite in ${discovered}; do
  filter+=":${suite}.*"
done
if [[ "${all}" == 1 ]]; then
  filter='*'
fi

# Sanitizers halt on the first finding so nothing slips through as "just a
# warning"; second_deadlock_stack makes tsan lock-order reports readable.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
ASAN_OPTIONS="halt_on_error=1" \
  "./build-${preset}/tests/psf_tests" --gtest_filter="${filter}"

# Smoke-run the stencil and irregular-reduction examples under the same
# sanitizer: the examples drive code paths (typed facades, the composition
# layer, the node-data exchange) the focused test filter does not.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
ASAN_OPTIONS="halt_on_error=1" \
  "./build-${preset}/examples/advection" 2 32 10
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
ASAN_OPTIONS="halt_on_error=1" \
  "./build-${preset}/examples/moldyn_sim" 2 512 4096 3

echo "check.sh: ${preset} clean"
