#!/usr/bin/env bash
# Builds the ThreadSanitizer preset and runs the concurrency-sensitive
# tests (the parallel runtime tests, the CSR/transpose-cache tests, the
# retrieval engines — RetrieveBatch fans out over the shared team and
# bumps shared obs counters — the obs layer, whose tag observer enters
# scopes on workers and on the dispatcher's own chunks, and the autograd
# ops, whose fused pair MLP writes hidden rows and logits from parallel
# row-block chunks) under TSan.
# Any data race aborts the run (halt_on_error=1).
#
# Usage: tools/run_tsan.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan \
  --target parallel_test graph_test retrieval_test obs_test autograd_test \
  -j "$(nproc)"

TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure \
        -R '^(parallel_test|graph_test|retrieval_test|obs_test|autograd_test)$' \
        "$@"

echo "tsan: parallel_test + graph_test + retrieval_test + obs_test +" \
  "autograd_test clean"
