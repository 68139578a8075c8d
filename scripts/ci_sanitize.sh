#!/usr/bin/env bash
# Configure, build, and run the full test suite under ASan + UBSan.
#
# Usage: scripts/ci_sanitize.sh [build-dir]   (default: build-asan)
#
# Any sanitizer report fails the run: halt_on_error aborts the offending
# test, and -fno-sanitize-recover=all (set by the ASAN CMake option) turns
# every UBSan diagnostic into an abort as well.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

# detect_leaks=1: the TcpConnection callback ownership cycle that used to
# force this off is fixed (to_closed()/~TcpLayer() clear the callbacks; see
# tests/stack/tcp_leak_test.cc for the regression test), so LeakSanitizer
# runs at full strength.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# -DBARB_WERROR=ON: the -Wall -Wextra build is clean, so a new warning fails
# the lane.
cmake -B "$BUILD_DIR" -S . -DASAN=ON -DBARB_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
