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
  test_core test_serve test_fuzz bench_fleet_throughput bench_session_throughput bench_serve_throughput \
  bench_retrain_recovery bench_fleet_serve bench_chaos_soak \
  bench_scenario_corpus

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/test_exec
"$BUILD_DIR"/tests/test_sim
# Dataset tests exercise sensed_training_set_parallel (sensing stacks on
# pool workers); the batch cases replay one pipeline's scripts on 2 and 4
# workers that share its const tool table and pre-drawn streams, and a whole
# home pretrains at 4 jobs against a 1-job replay.
"$BUILD_DIR"/tests/test_trace \
  --gtest_filter='DatasetFixture.*:AllAdls/SensedSetJobs.*:PipelineFixture.RunAllMatchesSuccessiveRunsAtAnyJobCount'
batch_out=$("$BUILD_DIR"/tests/test_core \
  --gtest_filter='HomeFixture.PretrainIsBitExactAtAnyJobCount')
case "$batch_out" in
  *"[  PASSED  ] 1 test."*) echo "TSan whole-home pretrain run passed" ;;
  *)
    echo "TSan whole-home pretrain run selected no test" >&2
    exit 1
    ;;
esac
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
# The serve bench adds the multi-tenant edges on top: pool workers import
# Q-tables from a shared PolicyStore and bump shared-looking counters.
# (Its store is memory-only; the chaos soak below covers the segment-backed
# PolicyStore, whose writer lanes match the pool slots.)
# Correctness rests on disjoint ownership (each user belongs to exactly one
# statically-sharded slot, each slot to exactly one trial); TSan proves the
# partition really is disjoint — no locks anywhere on the serve path.
"$BUILD_DIR"/bench/bench_serve_throughput --users=16 --slots=4 --sessions=5 \
  --jobs=4 > /dev/null
# The retrain bench closes the loop under TSan: each slot trial of a drain
# serves its users, then retrains its flagged ones on the slot's own lane
# trainer while other slots still serve, and stages the refreshed tables
# back into the shared store — all still lock-free on disjoint static
# shards.
"$BUILD_DIR"/bench/bench_retrain_recovery --users=12 --slots=4 --drifted=4 \
  --rounds=4 --jobs=4 > /dev/null
# The fleet-serve bench stacks the mmap segment store under the shard fan-
# out: shard trials append/load through disjoint writer chains (atomic
# live/reachable counters are the only shared-looking store state) while
# the main thread publishes the user index between drains. TSan
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
# Segment reclamation on concurrent writer lanes: a 4,096-user retrain
# cohort of full anchors (--rebase-every=1) is 1,024 users per lane, more
# than a 1 MiB segment holds, so each lane's sweep empties its oldest
# segment, reclaims it into the lane's spare and recycles the spare on a
# later roll (rename, scrub, header) while the other lanes append. The
# summary line counts the reclaimed segments; the run fails if there are
# none.
reclaim_line=$("$BUILD_DIR"/bench/bench_fleet_serve --users=200 --active=50 \
  --rounds=1 --retrain-users=4096 --retrain-rounds=2 --rebase-every=1 \
  --jobs=4 --dir="$BUILD_DIR/fleet_serve_tsan_reclaim" | grep '^Retrain store')
echo "TSan reclaim run: $reclaim_line"
case "$reclaim_line" in
  *" 0 segments reclaimed"*)
    echo "TSan reclaim run reclaimed no segment" >&2
    exit 1
    ;;
esac
# Fleet bring-up on parallel jobs: 4-, 2- and 8-writer reopens of a store
# with records in every lane verify its segments on parallel jobs, and
# Zipf tables of two and five chunks build their terms on 4 jobs. The run
# fails if the filter selects no test.
bringup_out=$("$BUILD_DIR"/tests/test_serve \
  --gtest_filter='LaneScanDigest.*:ZipfTableDigest.*')
case "$bringup_out" in
  *"[  PASSED  ] 4 tests."*) echo "TSan fleet bring-up run passed" ;;
  *)
    echo "TSan fleet bring-up run did not run its 4 tests" >&2
    exit 1
    ;;
esac
# The scan fuzzer's corpora are two-lane stores: every mutated store it
# reopens goes through the parallel verify.
"$BUILD_DIR"/tests/test_fuzz > /dev/null
# The chaos soak runs every fault seam concurrently: shard trials evaluate
# their sites' pure decision hashes and bump the shared relaxed injection
# counters while InjectedCrash unwinds through concurrent appends and the
# per-channel burst chains advance inside their owning shard. TSan proves
# injection adds no cross-thread edges beyond the counters it owns. Its
# drift soak retrains inside the slot trials, staging into one writer lane
# of the segment-backed store while other slots serve: the run fails if the
# printed "retrain jobs" row reads 0 (these flags give 9).
retrain_row=$("$BUILD_DIR"/bench/bench_chaos_soak --users=128 --active=64 \
  --rounds=3 --tail-rounds=1 --serve-users=12 --drifted=3 --serve-rounds=3 \
  --serve-tail-rounds=4 --jobs=4 --dir="$BUILD_DIR/chaos_tsan" |
  grep '^| retrain jobs ')
echo "TSan chaos soak: $retrain_row"
case "$retrain_row" in
  *"| 0 "*)
    echo "TSan chaos soak ran no retrain job" >&2
    exit 1
    ;;
esac
# The scenario corpus pretrains its donor on the run's 4-job runner, then
# fans whole-home HomeDeployments (scheduler, radio, tracker, actor) across
# slot trials, each slot serving its own users on its own deployment.
# Correctness again rests on disjoint static ownership (user -> slot ->
# trial); TSan proves the slot trials share no mutable state (each slot
# copied the donor's recognizer and planners at set-up).
"$BUILD_DIR"/bench/bench_scenario_corpus --jobs=4 > /dev/null
# A durable one-table pool on concurrent writer lanes: the chaos soak's
# drift loop at 1, 2 and 4 jobs, each slot trial serving its users
# read-only, then retraining its due ones and staging their tables into its
# own lane of a segment-backed PolicyStore, and the test requires every run
# to match one pinned digest. The run fails if the filter selects no test.
pool_out=$("$BUILD_DIR"/tests/test_serve \
  --gtest_filter='DrainStageDigest.ChaosSoakIsPinnedAtAnyJobCount')
case "$pool_out" in
  *"[  PASSED  ] 1 test."*) echo "TSan durable pool run passed" ;;
  *)
    echo "TSan durable pool run selected no test" >&2
    exit 1
    ;;
esac

echo "TSan: all exec/sim/trace-parallel tests, the batched pretrain, the" \
     "fleet/session/serve/retrain/fleet-serve/chaos benches, the parallel" \
     "reopen verify and its fuzzer, the chunked Zipf table, the scenario" \
     "corpus and the durable pool passed."
