#!/usr/bin/env bash
# Builds the Address+UBSanitizer preset and runs the memory-sensitive
# tests (the parallel runtime, the CSR transpose indexing tests, the
# retrieval engines — the panel scan walks zero-padded packed buffers
# whose indexing must never stray — the SIMD kernel tables, whose vector
# tails and odd-offset starts must stay in bounds, the obs layer, whose
# worker-chunk scopes point into the dispatching thread's stack, and the
# evaluator, whose parallel chunks hand score rows and exclusion lists to
# the shared top-K selection, and the autograd tape, whose backward
# closures move gradient buffers between nodes and whose ops write into
# uninitialized outputs: autograd_test, tape_internals_test and
# augment_test, and the TSV loader, fed truncated, garbage and random-byte
# files by data_test) under ASan+UBSan.
# Any error aborts the run.
#
# Usage: tools/run_asan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan \
  --target parallel_test graph_test retrieval_test simd_test obs_test \
  eval_test autograd_test tape_internals_test augment_test data_test \
  -j "$(nproc)"

ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}" \
  ctest --test-dir build-asan --output-on-failure \
        -R '^(parallel_test|graph_test|retrieval_test|simd_test|obs_test|eval_test|autograd_test|tape_internals_test|augment_test|data_test)$' \
        "$@"

echo "asan: parallel_test + graph_test + retrieval_test + simd_test +" \
  "obs_test + eval_test + autograd_test + tape_internals_test +" \
  "augment_test + data_test clean"
