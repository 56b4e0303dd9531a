#!/usr/bin/env python3
"""Compares fresh BENCH_*.json timing records against committed baselines.

The committed BENCH_parallel.json / BENCH_fleet.json / BENCH_sessions.json /
BENCH_serve.json / BENCH_retrain.json / BENCH_fleet_serve.json /
BENCH_scenarios.json files double as performance baselines. This checker
re-keys both files by (bench, jobs, lanes) and gates every metric through
one of three explicit tables:

EQUALITY gates — behavioural counters of the scenario corpus
(BENCH_scenarios.json: sessions, prompts, recoveries, switches, pool
residency, the order-independent checksum, ...). The runner's contract
makes them pure functions of the committed .scenario file, so fresh must
equal baseline EXACTLY, in both directions, at every job count — a drift
of 1 in either direction is a behaviour change. The other benches' recorded
work counters get the same gate, each scoped to the bench records that
carry it (COUNTER_EQUALITIES): the chaos soaks' injection and retrain
counts, the retrain bench's jobs and episodes, the serve benches' policy
swaps and the fleet-serve benches' cold-start record counts.

EXACT gates — deterministic functions of the workload shape and the build,
identical on any machine. These are NEVER downgraded to warnings on a
hardware mismatch; a miss is a behaviour change, not noise:

  * allocation contracts — steady_state_allocs_per_{episode,session,retrain}
    must never exceed baseline (zero-allocation contracts are exact);
    whole-drain allocs_per_session gets a 0.05 epsilon that only absorbs
    the parallel path's per-trial task handoff (a real per-session cold
    allocation shows up as ~+1.0);
  * hit rates — pool_hit_rate is a pure function of the workload shape and
    must never decrease: a drop means residency/sharding changed behaviour;
  * byte counts — segment_bytes_per_retrain (the segment delta chain)
    must never grow: write amplification is a pure function of table
    shape + replay stream.
    index_bytes_per_user and resident_bytes_per_user gate the fleet's
    per-user memory budget the same way. append_reduction (anchor bytes /
    actual bytes per append) must never decrease;
  * closed-loop recovery — recovered_users must not decrease;
    recovery_sessions_max / post_retrain_prompts_per_session must not
    increase.

BANDED gates — wall-clock, hence noisy and machine-shaped. Only these are
downgraded to warnings when hardware_concurrency differs from the baseline:

  * throughput floors — trials_per_sec / episodes_per_sec /
    sessions_per_sec may drop at most --tolerance (default 0.40) below
    baseline: catch collapses, not jitter;
  * tail-latency ceilings — p50_ns / p99_ns / p999_ns get per-metric bands
    scaled from --latency-tolerance (default 1.00): p50 may grow 1x the
    tolerance, p99 2x, p999 4x, plus absolute slack (1 ms / 2 ms / 10 ms).
    The slack makes microsecond-scale baselines gateable: preemption adds
    milliseconds in absolute terms, and a round's p999 rests on a handful
    of sessions. The gate catches the mmap/eviction path collapsing
    (10-100x), not scheduler jitter;
  * cold-start ceiling — cold_start_scan_ms (the fleet store's
    scan-on-open index rebuild) may grow 4x the latency tolerance plus
    50 ms slack: reopen cost scales with records on disk, and the gate is
    for the scan going accidentally quadratic, not for a cold page cache.

Any metric present in a baseline record but absent from the fresh run is a
failure for exact gates (the bench stopped reporting a contract) and a
warning for banded ones.

Usage:
  tools/check_bench_regression.py --fresh FRESH.json --baseline BASELINE.json
      [--tolerance 0.40] [--latency-tolerance 1.00]

Exit code 0 = OK, 1 = regression, 2 = usage/parse error. Wired as the
opt-in ctest label `bench-regression` (configure with
-DCOREDA_BENCH_REGRESSION=ON; see tests/CMakeLists.txt) so tier-1 runs
never depend on wall-clock.
"""

import argparse
import json
import sys

# --- Equality gates: fresh must equal baseline exactly ---------------------
# metric -> reason. Used by the scenario corpus (bench "scenario/<name>"),
# whose counters are deterministic functions of the committed .scenario
# file at any job count. Never hardware-downgraded, gated both directions.
EXACT_EQUALITIES = {
    "sessions": "the arrival pattern served a different session count",
    "completed_sessions": "scenario completion behaviour changed",
    "segments": "the compiled script changed shape",
    "segments_completed": "segment completion behaviour changed",
    "prompts": "the reminding loop fired a different number of prompts",
    "praises": "the praise/recovery loop changed behaviour",
    "wrong_tool_recoveries": "wrong-tool rescue behaviour changed",
    "segment_switches": "recognition-gated switching changed behaviour",
    "idle_episodes": "idle-gap episode segmentation changed behaviour",
    "pool_hits": "pool residency changed",
    "pool_swaps": "pool residency changed",
    "rejected_bundles": "bundle checkout validation changed behaviour",
    "checksum": "some session's outcome changed (order-independent "
                "digest over every per-session counter)",
}

# Recorded work counters of the other benches, deterministic at any --jobs:
# bench name (a trailing "*" matches every bench with that prefix) ->
# counters that must equal baseline exactly, in both directions.
COUNTER_EQUALITIES = {
    "chaos_fleet": ("injected_crashes", "injected_corruptions",
                    "dropped_sessions", "crashed_appends",
                    "radio_lost_frames"),
    "chaos_serve": ("retrain_jobs", "aborted_retrains"),
    "retrain_recovery": ("retrain_jobs", "retrain_episodes"),
    "serve_throughput*": ("policy_swaps",),
    "fleet_serve*": ("cold_start_records",),
}


def equality_gates(bench):
    """(metric, reason) pairs gated for equality on `bench`'s records."""
    if bench.startswith("scenario/"):
        return list(EXACT_EQUALITIES.items())
    gates = []
    for pattern, counters in COUNTER_EQUALITIES.items():
        if (bench == pattern or (pattern.endswith("*") and
                                 bench.startswith(pattern[:-1]))):
            gates += [(metric, "a deterministic work counter moved — the "
                               "bench's behaviour changed")
                      for metric in counters]
    return gates

# --- Exact gates: never hardware-downgraded --------------------------------
# metric -> (epsilon, reason). Fresh value must be <= baseline + epsilon.
EXACT_CEILINGS = {
    "steady_state_allocs_per_episode":
        (0.0, "the zero-allocation contract broke"),
    "steady_state_allocs_per_session":
        (0.0, "the zero-allocation contract broke"),
    "steady_state_allocs_per_retrain":
        (0.0, "the zero-allocation contract broke"),
    "allocs_per_session":
        (0.05, "a per-session allocation crept into the drain path"),
    "segment_bytes_per_retrain":
        (1e-6, "segment write amplification grew — the delta chain "
               "stopped paying"),
    "index_bytes_per_user":
        (1e-6, "the user-index slab grew past its per-user budget"),
    "resident_bytes_per_user":
        (1e-6, "resident per-user state grew past its budget"),
    "recovery_sessions_max":
        (0.0, "the retrain loop recovers slower"),
    "post_retrain_prompts_per_session":
        (0.0, "the retrain loop recovers slower"),
    # Chaos-soak invariants (bench_chaos_soak). Counters, not timings: a
    # baseline of 0 means any nonzero fresh value is a crash-consistency
    # bug, so these are never hardware-downgraded.
    "invariant_violations":
        (0.0, "a chaos-soak invariant broke — committed state was lost, "
              "a reopen diverged from the live store, or a drifted user "
              "failed to recover under faults"),
    "committed_versions_lost":
        (0.0, "a committed policy version regressed under fault "
              "injection — the pre-publish crash contract broke"),
    "reopen_mismatches":
        (0.0, "a reopened store recovered a different view than the live "
              "store — the longest-valid-prefix contract broke"),
}
# metric -> reason. Fresh value must be >= baseline.
EXACT_FLOORS = {
    "pool_hit_rate": "residency/sharding behaviour changed",
    "recovered_users": "drifted users no longer recover",
    "append_reduction": "the delta chain's append-traffic win shrank",
}

# --- Banded gates: hardware mismatch downgrades to warnings ----------------
THROUGHPUT_METRICS = ("trials_per_sec", "episodes_per_sec",
                      "sessions_per_sec")
# metric -> (tolerance scale, absolute slack in the metric's own unit).
LATENCY_CEILINGS = {
    "p50_ns": (1.0, 1e6),
    "p99_ns": (2.0, 2e6),
    "p999_ns": (4.0, 10e6),
    "cold_start_scan_ms": (4.0, 50.0),
}


def load_records(path):
    """Parses a JSON-lines bench file into {(bench, jobs, lanes): record}."""
    records = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(
                        f"error: {path}:{line_no}: unparsable JSON: {e}")
                # Lane records share a bench name with their scalar
                # siblings; "lanes" (default 1 — most benches don't emit
                # it) keeps them as separate gated entries.
                key = (record.get("bench"), record.get("jobs"),
                       record.get("lanes", 1))
                if key[0] is None or key[1] is None:
                    raise SystemExit(
                        f"error: {path}:{line_no}: record lacks bench/jobs")
                # Later records win: re-running a bench appends.
                records[key] = record
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="freshly generated BENCH_*.json")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional throughput drop (default "
                             "0.40)")
    parser.add_argument("--latency-tolerance", type=float, default=1.00,
                        help="allowed fractional growth of the latency "
                             "ceilings (default 1.00 = 2x for p50)")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        print("error: --tolerance must be in [0, 1)", file=sys.stderr)
        return 2
    if args.latency_tolerance < 0.0:
        print("error: --latency-tolerance must be >= 0", file=sys.stderr)
        return 2

    baseline = load_records(args.baseline)
    fresh = load_records(args.fresh)

    failures = []
    warnings = []
    for key, base in sorted(baseline.items()):
        bench, jobs, lanes = key
        label = (f"{bench} (jobs={jobs}, lanes={lanes})" if lanes != 1
                 else f"{bench} (jobs={jobs})")
        got = fresh.get(key)
        if got is None:
            failures.append(f"{label}: missing from fresh run")
            continue

        same_hw = (base.get("hardware_concurrency") is not None and
                   base.get("hardware_concurrency")
                   == got.get("hardware_concurrency"))

        def banded(message):
            """Banded gates are wall-clock: a hardware mismatch makes the
            comparison meaningless, so the finding becomes a warning."""
            if same_hw:
                failures.append(message)
            else:
                warnings.append(message +
                                " [hardware mismatch: warning only]")

        # --- Equality gates (never downgraded) ------------------------
        # Scoped by bench name: benches reuse key names like "sessions"
        # for shape parameters that are not equality contracts.
        for metric, reason in equality_gates(bench):
            if metric not in base:
                continue
            got_v = got.get(metric)
            if got_v is None:
                failures.append(
                    f"{label}: {metric} missing from fresh run "
                    f"(baseline {base[metric]})")
            elif got_v != base[metric]:
                failures.append(
                    f"{label}: {metric} {got_v} != baseline "
                    f"{base[metric]} — {reason}")

        # --- Exact gates (never downgraded) ----------------------------
        for metric, (epsilon, reason) in EXACT_CEILINGS.items():
            if metric not in base:
                continue
            got_v = got.get(metric)
            if got_v is None:
                failures.append(
                    f"{label}: {metric} missing from fresh run "
                    f"(baseline {base[metric]})")
            # Written as "not <=" so a NaN (an unmeasured probe) fails.
            elif not got_v <= base[metric] + epsilon:
                bound = (f"{base[metric]} + {epsilon}" if epsilon
                         else f"{base[metric]}")
                failures.append(
                    f"{label}: {metric} {got_v} > baseline {bound} — "
                    f"{reason}")
        for metric, reason in EXACT_FLOORS.items():
            if metric not in base:
                continue
            got_v = got.get(metric)
            if got_v is None:
                failures.append(
                    f"{label}: {metric} missing from fresh run "
                    f"(baseline {base[metric]})")
            elif not got_v >= base[metric]:
                failures.append(
                    f"{label}: {metric} {got_v} < baseline "
                    f"{base[metric]} — {reason}")

        # --- Banded gates (hardware mismatch -> warning) ---------------
        for metric in THROUGHPUT_METRICS:
            if metric not in base:
                continue
            base_v, got_v = base[metric], got.get(metric, 0.0)
            floor = base_v * (1.0 - args.tolerance)
            if got_v < floor:
                banded(f"{label}: {metric} {got_v:.1f} < {floor:.1f} "
                       f"(baseline {base_v:.1f} - {args.tolerance:.0%})")

        for metric, (scale, slack) in LATENCY_CEILINGS.items():
            if metric not in base:
                continue
            base_v, got_v = base[metric], got.get(metric, 0.0)
            tolerance = scale * args.latency_tolerance
            ceiling = base_v * (1.0 + tolerance) + slack
            if got_v > ceiling:
                banded(f"{label}: {metric} {got_v:.0f} > {ceiling:.0f} "
                       f"(baseline {base_v:.0f} + {tolerance:.0%} + "
                       f"{slack:g} slack)")

    for message in warnings:
        print(f"warning: {message}")
    if failures:
        for message in failures:
            print(f"REGRESSION: {message}")
        return 1
    print(f"ok: {len(baseline)} baseline records held "
          f"(tolerance {args.tolerance:.0%}, {len(warnings)} warnings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
