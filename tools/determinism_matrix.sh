#!/usr/bin/env bash
# The determinism matrix. Every program below prints only deterministic
# results on stdout (store paths, job counts and wall-clock go to stderr or
# --timing-json), so its stdout must be byte-identical
#
#   * jobs: at --jobs=1, 2 and 4 (JOBS_ROWS);
#   * simd: with every explicit SIMD kernel on and off, COREDA_LANE_SIMD=0
#     (SIMD_ROWS): the idle lanes settle idle accelerometer windows below
#     the vote and the lane engine trains in AVX-512, so session-level
#     programs, the multi-routine planner (A5) and the λ ablation's
#     no-sweep, no-cut training must not see which body ran.
#
# A row's {dir} becomes a fresh directory per run, so no run reads a store
# another run wrote. Programs are looked up under the build directory.
#
# Usage: tools/determinism_matrix.sh [build-dir] [jobs|simd|all]
#        (defaults: build, all). Exits 1 when any row differs.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
AXIS="${2:-all}"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

JOBS_ROWS=(
  "bench/bench_scenario_corpus"
  "bench/bench_retrain_recovery"
  "bench/bench_serve_throughput"
  "tools/coreda retrain"
  # The fleet bench builds its Zipf table on the run's runner and reopens
  # its 4-lane store with a parallel verify.
  "bench/bench_fleet_serve --users=200000 --active=500 --rounds=2 --dir={dir}"
  "bench/bench_table3_extract"
  "bench/bench_fig4_learning_curve"
  "bench/bench_ablation_lambda"
  "bench/bench_ablation_radio"
  "bench/bench_ablation_detector"
  "bench/bench_personalization"
  "bench/bench_sensitivity"
  "bench/bench_fleet_throughput"
  "bench/bench_session_throughput"
  "bench/bench_chaos_soak --dir={dir}"
  "tools/coreda faults replay --dir={dir}"
)
for plan in tests/scenarios/*.scenario; do
  JOBS_ROWS+=("tools/coreda scenario run $plan")
done

SIMD_ROWS=(
  "bench/bench_scenario_corpus"
  "bench/bench_session_throughput"
  "bench/bench_fig1_scenario"
  "bench/bench_table3_extract"
  "bench/bench_energy"
  "bench/bench_recognition"
  "bench/bench_ext_multiroutine"
  "bench/bench_ablation_lambda"
)

failed=0
row_no=0

# run ROW LABEL [ENV=VALUE...] -- [EXTRA FLAG...]: runs one row's program
# into $out/<row>.<label>.
run() {
  local row=$1 label=$2
  shift 2
  local env=()
  while [ "$1" != "--" ]; do
    env+=("$1")
    shift
  done
  shift
  local words
  read -ra words <<< "${row//\{dir\}/$out/dir.$row_no.$label}"
  words[0]="$BUILD_DIR/${words[0]}"
  if ! env "${env[@]}" "${words[@]}" "$@" > "$out/$row_no.$label" \
      2> "$out/$row_no.$label.err"; then
    echo "FAIL  $row ($label) exited non-zero:" >&2
    cat "$out/$row_no.$label.err" >&2
    exit 1
  fi
}

# same ROW A B: whether two runs of the current row printed the same bytes.
same() {
  if ! cmp -s "$out/$row_no.$2" "$out/$row_no.$3"; then
    echo "DIFF  $1: $2 vs $3" >&2
    failed=1
  fi
}

if [ "$AXIS" = jobs ] || [ "$AXIS" = all ]; then
  for row in "${JOBS_ROWS[@]}"; do
    row_no=$((row_no + 1))
    for j in 1 2 4; do run "$row" "jobs$j" -- --jobs="$j"; done
    same "$row" jobs1 jobs2
    same "$row" jobs1 jobs4
  done
  echo "determinism matrix: ${#JOBS_ROWS[@]} programs at --jobs 1, 2, 4"
fi
if [ "$AXIS" = simd ] || [ "$AXIS" = all ]; then
  for row in "${SIMD_ROWS[@]}"; do
    row_no=$((row_no + 1))
    run "$row" simd --
    run "$row" scalar COREDA_LANE_SIMD=0 --
    same "$row" simd scalar
  done
  echo "determinism matrix: ${#SIMD_ROWS[@]} programs with SIMD on and off"
fi
exit "$failed"
