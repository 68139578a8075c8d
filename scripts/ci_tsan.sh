#!/usr/bin/env bash
# Configure, build, and run the threading-sensitive tests under
# ThreadSanitizer: the sweep runner (thread pool + result slots), the
# buffer pool (thread-local instances with plain refcounts — TSan proves the
# pools really are disjoint), and the classifier/flow-cache suites (each
# simulation owns its compiled structure and cache, but sweep tasks build
# them on pool threads — TSan proves they really are shared-nothing).
# The fleet bench then runs at --jobs 4: each sweep task builds a full
# multi-switch fabric (TopologyBuilder, shared AddressDirectory, bounded
# FIBs) and drives batched-link simulations on a pool thread, proving the
# fleet-scale path is shared-nothing too.
#
# Usage: scripts/ci_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake -B "$BUILD_DIR" -S . -DTSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target core_sweep_runner_test net_buffer_pool_stress_test \
  firewall_classifier_test firewall_flow_cache_test fleet_goodput fuzz_main
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'SweepRunner|DerivePointSeed|ResolveJobs|JobsFromCli|BufferPoolThreading|CompiledClassifier|FlowCache'
BARB_BENCH_FAST=1 "$BUILD_DIR"/bench/fleet_goodput --jobs 4

# Policy-family seeds at --jobs 4: corpus generation, the pairwise analyzer,
# and the compiled/flow-cache oracle all run on pool threads — TSan proves
# the policygen path is shared-nothing too.
"$BUILD_DIR"/tests/fuzz_main --family policy --seeds 8 --jobs 4
