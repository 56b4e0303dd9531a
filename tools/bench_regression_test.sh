#!/usr/bin/env bash
# Opt-in bench-regression gate: re-runs the fleet-throughput,
# session-throughput, serve-throughput, retrain-recovery, fleet-serve and
# chaos-soak benches at the baselines' job counts and compares the fresh
# timing records against the committed BENCH_fleet.json /
# BENCH_sessions.json / BENCH_serve.json / BENCH_retrain.json /
# BENCH_fleet_serve.json / BENCH_chaos.json via
# tools/check_bench_regression.py.
#
# Wired as the ctest label `bench-regression` when the build is configured
# with -DCOREDA_BENCH_REGRESSION=ON (see tests/CMakeLists.txt); never part
# of the default tier-1 run because it depends on wall-clock. These three
# benches are the gates of choice: they finish in seconds per job count yet
# cover the training, serving and multi-tenant throughput numbers AND every
# zero-allocation steady-state contract.
#
# Usage: tools/bench_regression_test.sh [build-dir] [tolerance]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TOLERANCE="${2:-0.40}"

for bench in bench_fleet_throughput bench_session_throughput \
             bench_serve_throughput bench_retrain_recovery \
             bench_fleet_serve bench_chaos_soak bench_scenario_corpus; do
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: $BUILD_DIR/bench/$bench not built (cmake --build" \
         "$BUILD_DIR --target $bench)" >&2
    exit 2
  fi
done

FRESH="$BUILD_DIR/BENCH_fleet.fresh.json"
: > "$FRESH"
# Warm-up pass, timing discarded — same rationale as tools/bench_parallel.sh.
"$BUILD_DIR/bench/bench_fleet_throughput" --jobs=1 > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_fleet_throughput" --jobs="$jobs" \
    --timing-json="$FRESH" > /dev/null
done
# Lane-engine record: same fleet, batched through the SoA lane path. The
# checker keys records by (bench, jobs, lanes), so this gates the batched
# episodes_per_sec alongside the scalar numbers.
"$BUILD_DIR/bench/bench_fleet_throughput" --jobs=1 --lanes=16 \
  --timing-json="$FRESH" > /dev/null
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_fleet.json --tolerance "$TOLERANCE"

FRESH="$BUILD_DIR/BENCH_sessions.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_session_throughput" --jobs=1 > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_session_throughput" --jobs="$jobs" \
    --timing-json="$FRESH" > /dev/null
done
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_sessions.json --tolerance "$TOLERANCE"

FRESH="$BUILD_DIR/BENCH_serve.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_serve_throughput" --jobs=1 > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_serve_throughput" --jobs="$jobs" \
    --timing-json="$FRESH" > /dev/null
done
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_serve.json --tolerance "$TOLERANCE"

FRESH="$BUILD_DIR/BENCH_retrain.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_retrain_recovery" --jobs=1 > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_retrain_recovery" --jobs="$jobs" \
    --timing-json="$FRESH" > /dev/null
done
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_retrain.json --tolerance "$TOLERANCE"

# Fleet tier: 1M registered users (the bench default) over the mmap
# segment store. The gate adds the p50/p99/p999 serve-latency percentiles,
# the cold_start_scan_ms reopen ceiling, and the exact per-user memory
# (resident_bytes_per_user, index_bytes_per_user) and per-retrain append
# traffic (segment_bytes_per_retrain, append_reduction) contracts on top
# of throughput and the allocation contract.
FRESH="$BUILD_DIR/BENCH_fleet_serve.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_fleet_serve" --jobs=1 \
  --dir="$BUILD_DIR/fleet_serve_bench" > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_fleet_serve" --jobs="$jobs" \
    --dir="$BUILD_DIR/fleet_serve_bench" --timing-json="$FRESH" > /dev/null
done
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_fleet_serve.json --tolerance "$TOLERANCE"

# Chaos soak: both serving tiers under the standard fault plan. The gate
# here is correctness-first: invariant_violations and
# committed_versions_lost are exact counters (0 in the baseline, never
# hardware-downgraded), recovered_users is an exact floor, the injection,
# drop and retrain counts must equal the baseline, and the steady-state
# allocation contract must survive the fault window closing.
FRESH="$BUILD_DIR/BENCH_chaos.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_chaos_soak" --jobs=1 \
  --dir="$BUILD_DIR/chaos_bench" > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_chaos_soak" --jobs="$jobs" \
    --dir="$BUILD_DIR/chaos_bench" --timing-json="$FRESH" > /dev/null
done
python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_chaos.json --tolerance "$TOLERANCE"

# Scenario corpus: the committed tests/scenarios/*.scenario plans through
# the multi-ADL serving tier. Every behavioural counter and the checksum
# is EQUALITY-gated per (scenario, jobs) — the corpus is the repo's
# end-to-end behaviour lock, not a throughput gate.
FRESH="$BUILD_DIR/BENCH_scenarios.fresh.json"
: > "$FRESH"
"$BUILD_DIR/bench/bench_scenario_corpus" --jobs=1 > /dev/null
for jobs in 1 2 4; do
  "$BUILD_DIR/bench/bench_scenario_corpus" --jobs="$jobs" \
    --timing-json="$FRESH" > /dev/null
done
exec python3 tools/check_bench_regression.py \
  --fresh "$FRESH" --baseline BENCH_scenarios.json --tolerance "$TOLERANCE"
