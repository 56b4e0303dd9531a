#!/usr/bin/env bash
# Builds the exec + sim test binaries under ThreadSanitizer and runs them.
# The exec layer is the only intentionally multi-threaded code in the repo;
# the sim scheduler rides along to prove a Scheduler instance stays
# single-threaded under TrialRunner fan-out.
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# One compile job per CPU: a bare -j lets make start every translation
# unit at once, which can exhaust memory under the sanitizer.
cmake -B "$BUILD_DIR" -S . -DCOREDA_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_exec test_sim test_trace \
  bench_fleet_throughput bench_session_throughput bench_serve_throughput \
  bench_retrain_recovery bench_fleet_serve bench_chaos_soak \
  bench_scenario_corpus

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/test_exec
"$BUILD_DIR"/tests/test_sim
# Dataset tests exercise sensed_training_set_parallel (sensing stacks on
# pool workers).
"$BUILD_DIR"/tests/test_trace --gtest_filter='DatasetFixture.*'
# The fleet bench is the heaviest TrialRunner consumer: N concurrent
# RoutineLearners plus the global operator-new counter (relaxed atomic) on
# every worker. A small fleet at --jobs=4 is enough for TSan to observe
# every cross-thread edge; timing output is irrelevant here.
"$BUILD_DIR"/bench/bench_fleet_throughput --users=50 --episodes=40 --jobs=4 \
  > /dev/null
# Same fleet through the SoA lane engine: lane batches train inside trial
# workers, so TSan checks the batched kernels' slabs never alias across
# concurrent trials.
"$BUILD_DIR"/bench/bench_fleet_throughput --users=50 --episodes=40 --jobs=4 \
  --lanes=8 > /dev/null
# The session bench fans whole closed-loop single-ADL HomeDeployments
# (scheduler, radio, station, actor — all single-threaded by contract)
# across pool workers: TSan proves no deployment state leaks between
# concurrent trials.
"$BUILD_DIR"/bench/bench_session_throughput --users=8 --sessions=5 --jobs=4 \
  > /dev/null
# The serve bench adds the multi-tenant edges on top: pool workers write
# back Q-tables into a shared PolicyStore and bump shared-looking counters.
# (Its store is memory-only; the chaos soak below covers the segment-backed
# PolicyStore, whose writer lanes match the pool slots.)
# Correctness rests on disjoint ownership (each user belongs to exactly one
# statically-sharded slot, each slot to exactly one trial); TSan proves the
# partition really is disjoint — no locks anywhere on the serve path.
"$BUILD_DIR"/bench/bench_serve_throughput --users=16 --slots=4 --sessions=5 \
  --jobs=4 > /dev/null
# The retrain bench closes the loop under TSan: serve trials hand off to
# retrain trials within one drain, lane learners replay transcript rings
# concurrently, and the refreshed tables are staged back into the shared
# store — all still lock-free on disjoint static shards.
"$BUILD_DIR"/bench/bench_retrain_recovery --users=12 --slots=4 --drifted=4 \
  --rounds=4 --jobs=4 > /dev/null
# The fleet-serve bench stacks the mmap segment store under the shard fan-
# out: shard trials append/load through disjoint writer chains (relaxed
# atomic live/reachable counters are the only shared-looking store state)
# while the main thread publishes the user index between drains. TSan
# proves the writer partitioning really is disjoint. Two shapes: a small
# fleet that compacts and rolls segments quickly, and the 1M-user register
# + packed-slab + index-reserve path of the production config (sparse
# active set keeps the session count TSan-sized; the retrain write-back
# phase runs its delta chains under the same fan-out in both).
"$BUILD_DIR"/bench/bench_fleet_serve --users=200 --active=50 --rounds=2 \
  --jobs=4 --dir="$BUILD_DIR/fleet_serve_tsan" > /dev/null
"$BUILD_DIR"/bench/bench_fleet_serve --users=1000000 --active=100 \
  --rounds=1 --retrain-users=64 --retrain-rounds=8 --jobs=4 \
  --dir="$BUILD_DIR/fleet_serve_tsan_1m" > /dev/null
# The chaos soak runs every fault seam concurrently: shard trials evaluate
# their sites' pure decision hashes and bump the shared relaxed injection
# counters while InjectedCrash unwinds through concurrent appends and the
# per-channel burst chains advance inside their owning shard. TSan proves
# injection adds no cross-thread edges beyond the counters it owns.
"$BUILD_DIR"/bench/bench_chaos_soak --users=128 --active=64 --rounds=3 \
  --tail-rounds=1 --serve-users=12 --drifted=3 --serve-rounds=3 \
  --serve-tail-rounds=4 --jobs=4 --dir="$BUILD_DIR/chaos_tsan" > /dev/null
# The scenario corpus fans whole-home HomeDeployments (scheduler, radio,
# tracker, actor) across pool-slot trials while every slot stages bundle
# records back into the shared BundleStore. Correctness again rests on disjoint static
# ownership (user -> slot -> trial, user -> store entry); TSan proves the
# bundle write-back path adds no cross-thread edges.
"$BUILD_DIR"/bench/bench_scenario_corpus --jobs=4 > /dev/null

echo "TSan: all exec/sim/trace-parallel tests, the" \
     "fleet/session/serve/retrain/fleet-serve/chaos benches and the" \
     "scenario corpus passed."
