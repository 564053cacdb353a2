#!/usr/bin/env bash
# Observability smoke test: trains GraphAug for two epochs on the tiny
# synthetic preset with metrics + trace + run-report + sampling-profiler
# export enabled, then checks that the artifacts exist, lint as JSON /
# JSONL (via the json_check tool, which uses the same obs::JsonLint the
# unit tests exercise), contain the sections the instrumentation layer
# promises, that the run report self-diffs cleanly through
# report_compare, and that the folded profile digests through
# profile_report. The saved checkpoint then drives `recommend`: the
# exact (dense) and heap engines must print identical tables, and a
# top-K as deep as the catalog must list no already-seen item. Registered
# as a ctest (run_obs_smoke) from
# tools/CMakeLists.txt.
#
# Usage: run_obs_smoke.sh GRAPHAUG_BIN JSON_CHECK_BIN REPORT_COMPARE_BIN \
#        PROFILE_REPORT_BIN
set -euo pipefail

USAGE="usage: run_obs_smoke.sh GRAPHAUG_BIN JSON_CHECK_BIN REPORT_COMPARE_BIN PROFILE_REPORT_BIN"
CLI=${1:?$USAGE}
CHECK=${2:?$USAGE}
RCOMPARE=${3:?$USAGE}
PREPORT=${4:?$USAGE}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

METRICS="$WORK/metrics.json"
TRACE="$WORK/trace.json"
REPORT="$WORK/report.jsonl"
PROFILE="$WORK/profile"
CKPT="$WORK/model.bin"

"$CLI" train --preset=tiny --model=GraphAug --epochs=2 --eval-every=2 \
  --metrics-out="$METRICS" --trace-out="$TRACE" --report-out="$REPORT" \
  --profile-out="$PROFILE" --profile-hz=4000 --checkpoint="$CKPT" \
  --obs-report --log-level=warn

[ -s "$METRICS" ] || { echo "FAIL: $METRICS missing or empty" >&2; exit 1; }
[ -s "$TRACE" ]   || { echo "FAIL: $TRACE missing or empty" >&2; exit 1; }
[ -s "$REPORT" ]  || { echo "FAIL: $REPORT missing or empty" >&2; exit 1; }
[ -f "$PROFILE.folded" ] || {
  echo "FAIL: $PROFILE.folded missing" >&2; exit 1; }
[ -s "$PROFILE.json" ] || {
  echo "FAIL: $PROFILE.json missing or empty" >&2; exit 1; }

"$CHECK" "$METRICS" "$TRACE" "$PROFILE.json"
"$CHECK" --jsonl "$REPORT"

# The profile JSON must always be valid and self-describing. Stack checks
# are gated on samples actually landing: a 2-epoch tiny train on a slow /
# heavily ticked kernel can finish with zero SIGPROF deliveries, which is
# a documented property of CPU-time timers, not a failure.
grep -q '"available"' "$PROFILE.json" || {
  echo "FAIL: profile JSON lacks availability marker" >&2; exit 1; }
if [ -s "$PROFILE.folded" ]; then
  grep -q '^span:' "$PROFILE.folded" || {
    echo "FAIL: folded stacks lack span attribution roots" >&2; exit 1; }
  "$PREPORT" "$PROFILE.folded" --top=10 >/dev/null
  "$PREPORT" --baseline="$PROFILE.folded" --current="$PROFILE.folded" \
    --top=5 >/dev/null
fi
"$PREPORT" --selftest >/dev/null

for key in '"metrics"' '"autograd_ops"' '"epochs"' '"parallel"' \
           '"memory"' '"perf"' '"live_bytes"' '"p95"'; do
  grep -q "$key" "$METRICS" || {
    echo "FAIL: $key not found in metrics JSON" >&2; exit 1; }
done
for key in '"traceEvents"' '"spmm"' '"backward"'; do
  grep -q "$key" "$TRACE" || {
    echo "FAIL: $key not found in trace JSON" >&2; exit 1; }
done
grep -q '"type":"epoch"' "$REPORT" || {
  echo "FAIL: no epoch record in run report" >&2; exit 1; }
grep -q '"type":"footer"' "$REPORT" || {
  echo "FAIL: no footer record in run report" >&2; exit 1; }
grep -q '"git_sha"' "$REPORT" || {
  echo "FAIL: footer lacks env provenance" >&2; exit 1; }

# A report must diff cleanly against itself, even with a strict gate.
"$RCOMPARE" --baseline="$REPORT" --current="$REPORT" --max-metric-drop=0.01 \
  >/dev/null

# recommend: every engine selects with the same ranking rule, so exact
# and heap print the same table (the header names the engine). Asking for
# every item must still leave out the user's training items, which would
# otherwise show up with score -inf.
NUM_ITEMS=$("$CLI" stats --preset=tiny | awk '$2 == "items" {print $4}')
for mode in exact heap; do
  "$CLI" recommend --preset=tiny --model=GraphAug --checkpoint="$CKPT" \
    --user=0 --topk="$NUM_ITEMS" --index="$mode" --log-level=warn \
    | tail -n +2 >"$WORK/rec_$mode.txt"
done
[ -s "$WORK/rec_exact.txt" ] || {
  echo "FAIL: recommend --index=exact printed nothing" >&2; exit 1; }
cmp -s "$WORK/rec_exact.txt" "$WORK/rec_heap.txt" || {
  echo "FAIL: recommend --index=exact and --index=heap differ" >&2; exit 1; }
if grep -q -- '-inf' "$WORK/rec_exact.txt"; then
  echo "FAIL: recommend --topk=$NUM_ITEMS lists seen items (-inf)" >&2
  exit 1
fi

# An unwritable output path must fail fast with a warning, before training.
if "$CLI" train --preset=tiny --model=GraphAug --epochs=1 \
     --report-out="$WORK/no/such/dir/report.jsonl" --log-level=warn \
     2>"$WORK/err.txt"; then
  echo "FAIL: unwritable --report-out must exit non-zero" >&2; exit 1
fi
grep -q "not writable" "$WORK/err.txt" || {
  echo "FAIL: unwritable path must print a warning" >&2; exit 1; }

# Bad training settings are config errors: one line on stderr and exit 2
# before any data is built — never an abort (rc 134), never a silent run
# that reports a metric. Malformed, empty and int-overflowing numbers are
# rejected by the flag parser itself.
for sub in train denoise; do
  model=()
  [ "$sub" = train ] && model=(--model=LightGCN)
  for bad in --epochs=0 --dim=0 --layers=-1 --batch=0 --lr=nan --lr=0 \
             --threads=-2 --epochs=abc --lr=x --batches-per-epoch= \
             --batches-per-epoch=-1 --eval-every=0 --epochs=4294967297 \
             --temperature=0 --temperature=nan; do
    rc=0
    "$CLI" "$sub" --preset=tiny "${model[@]}" "$bad" --log-level=warn \
      >"$WORK/out.txt" 2>"$WORK/err.txt" || rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "FAIL: $sub $bad exited $rc (want the config error rc 2)" >&2
      exit 1
    fi
    [ "$(wc -l <"$WORK/err.txt")" -eq 1 ] || {
      echo "FAIL: $sub $bad must print one line, got:" >&2
      cat "$WORK/err.txt" >&2; exit 1; }
  done
done

# A run whose loss stops being finite fails loudly: one line naming the
# epoch and exit 1, and no metric (or flagged-edge list) on stdout.
for sub in train denoise; do
  model=()
  [ "$sub" = train ] && model=(--model=LightGCN)
  rc=0
  "$CLI" "$sub" --preset=tiny "${model[@]}" --lr=1e30 --epochs=2 \
    --log-level=warn >"$WORK/out.txt" 2>"$WORK/err.txt" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: $sub --lr=1e30 exited $rc (want 1)" >&2; exit 1
  fi
  grep -q "not finite at epoch" "$WORK/err.txt" &&
    [ "$(wc -l <"$WORK/err.txt")" -eq 1 ] && [ ! -s "$WORK/out.txt" ] || {
    echo "FAIL: $sub --lr=1e30 must print one line and no result, got:" >&2
    cat "$WORK/err.txt" "$WORK/out.txt" >&2; exit 1; }
done

# An unknown preset or model is a usage error: one line naming the valid
# choices and exit 2, checked before any data is built or loaded.
for args in "generate --preset=nope --out=$WORK/nope.tsv" \
            "stats --preset=nope" "train --preset=nope" \
            "train --preset=tiny --model=Nope" "denoise --preset=nope" \
            "recommend --preset=nope --checkpoint=$CKPT" \
            "recommend --preset=tiny --model=Nope --checkpoint=$CKPT"; do
  rc=0
  # $args is split into words on purpose.
  "$CLI" $args --log-level=warn >"$WORK/out.txt" 2>"$WORK/err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $args exited $rc (want the usage error rc 2)" >&2; exit 1
  fi
  grep -q "(expected " "$WORK/err.txt" &&
    [ "$(wc -l <"$WORK/err.txt")" -eq 1 ] || {
    echo "FAIL: $args must print one line naming the choices, got:" >&2
    cat "$WORK/err.txt" >&2; exit 1; }
done

# A malformed dataset file is an input error: one line naming the file
# and line, and exit 1 -- never an abort, and no unused-flag warnings for
# the flags the command never reached (--checkpoint).
printf '#users\t3\n#items\t3\n0\t1\n' >"$WORK/short.tsv"
printf '#users\t3\n#items\t3\nzero\t1\ttrain\n' >"$WORK/garbage.tsv"
printf '#users\t3\n#items\t3\n0\t7\ttrain\n' >"$WORK/range.tsv"
printf '#users\n#items\t3\n0\t1\ttrain\n' >"$WORK/header.tsv"
printf '#users\t3\n#items\t3\n0\t1\tvalid\n' >"$WORK/split.tsv"
for bad in short garbage range header split; do
  for sub in stats train; do
    rc=0
    "$CLI" "$sub" --dataset="$WORK/$bad.tsv" --checkpoint="$WORK/never.bin" \
      --log-level=warn >"$WORK/out.txt" 2>"$WORK/err.txt" || rc=$?
    if [ "$rc" -ne 1 ]; then
      echo "FAIL: $sub on $bad.tsv exited $rc (want 1)" >&2; exit 1
    fi
    grep -q "$bad.tsv:[0-9]" "$WORK/err.txt" &&
      [ "$(wc -l <"$WORK/err.txt")" -eq 1 ] || {
      echo "FAIL: $sub on $bad.tsv must print one path:line line, got:" >&2
      cat "$WORK/err.txt" >&2; exit 1; }
  done
done

echo "obs smoke ok: metrics=$(wc -c <"$METRICS")B trace=$(wc -c <"$TRACE")B" \
     "report=$(wc -c <"$REPORT")B"
