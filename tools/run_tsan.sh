#!/usr/bin/env bash
# Build the ThreadSanitizer configuration and run the tsan-labeled
# test suites (the thread pool and the concurrent outer loops: per-
# device floorplan passes, HBM binding sweep, DSE points, serving).
#
# Usage: tools/run_tsan.sh [build-dir]
#   build-dir defaults to build-tsan (matches the 'tsan' CMake preset).
#
# Equivalent presets workflow:
#   cmake --preset tsan && cmake --build --preset tsan
#   ctest --preset tsan
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-tsan"}"

cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAPACS_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)"

# Run every suite that exercises shared-state concurrency. Halt on
# first failure so the tsan report sits at the end of the output.
ctest --test-dir "${build_dir}" -L tsan --output-on-failure
