#!/usr/bin/env bash
# Builds the whole repository under AddressSanitizer + UndefinedBehavior-
# Sanitizer and runs the full ctest suite. UBSan findings are fatal
# (-fno-sanitize-recover=undefined), so any report fails its test instead
# of scrolling past; LeakSanitizer rides along with ASan.
#
# Usage: tools/run_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DCOREDA_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)"

export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "ASan+UBSan: the full ctest suite passed."
