#!/usr/bin/env bash
# Smoke benchmark: runs the micro-benchmarks and a shrunken Figure-4
# bench with tiny parameters and emits one JSON document, seeding the
# BENCH_*.json perf trajectory. The benches run one after another on
# one core: about 90 s wall time for a Release build on a 4-core Xeon
# host with the SHA extensions. The top-level "host" object records each
# bench's wall seconds.
#
# Usage: bench/run_smoke.sh [output.json]
#   BUILD_DIR  build tree holding the bench binaries (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_smoke.json}

# Each smoke bench NAME is the binary bench_NAME and the JSON key NAME.
BENCHES=(fig04_ro_latency shard_scaling consensus_compare apply_pipeline
         durability watch_fanout)

for name in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench_$name" ]]; then
    echo "error: $BUILD_DIR/bench_$name not built" >&2
    echo "hint: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

declare -A json host
for name in "${BENCHES[@]}"; do
  start=$EPOCHREALTIME
  json[$name]=$(TRANSEDGE_SMOKE=1 "$BUILD_DIR/bench_$name" | grep '^{')
  host[$name]=$(awk -v a="$start" -v b="$EPOCHREALTIME" \
    'BEGIN { printf "%.1f", b - a }')
done

# bench_micro is optional (needs google-benchmark); emit native JSON when
# present, a placeholder otherwise.
if [[ -x "$BUILD_DIR/bench_micro" ]]; then
  micro_json=$("$BUILD_DIR/bench_micro" \
    --benchmark_filter='BM_Sha256/256|BM_HashPair|BM_HmacSign|BM_HmacVerify|BM_MerklePut/13|BM_MerklePutBatch/13|BM_MerkleProve' \
    --benchmark_min_time=0.05 --benchmark_format=json 2>/dev/null)
else
  micro_json='{"skipped":"bench_micro not built (google-benchmark missing)"}'
fi

{
  echo '{'
  echo '"generated_by": "bench/run_smoke.sh",'
  echo '"micro":'
  echo "$micro_json"
  for name in "${BENCHES[@]}"; do
    echo ','
    echo "\"$name\":"
    echo "${json[$name]}"
  done
  echo ','
  echo '"host": {'
  sep=''
  for name in "${BENCHES[@]}"; do
    echo "$sep\"${name}_s\": ${host[$name]}"
    sep=','
  done
  echo '}'
  echo '}'
} > "$OUT"

echo "wrote $OUT" >&2
