#!/usr/bin/env python3
"""CoReDA benchmark: build the program from source, run one workload, check it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload home_scenarios --seed 1 --seconds 10 --trace 0

The benchmark program (perfbench/coreda_perfbench.cpp) is built in Release
mode under $CARGO_TARGET_DIR (default .bench_build). It runs the workload as
a closed loop for --seconds of wall time on min(4, available CPUs) workers,
and replays a short prefix at 1 worker to check that the outcome digest does
not depend on the worker count.

Standard output: a self-describing record (nproc, hardware_concurrency,
workers, SIMD, build type, seed, attempted/succeeded/failed), every
end-to-end metric of the workload under the names it is known by, and -- with
--trace 1 -- the per-layer split. The last line is one JSON object with the
keys correct, attempted, failed and metrics; its metrics are the end_to_end
(--trace 0) or per_layer (--trace 1) metrics named in BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("home_scenarios", "fleet_zipf", "nightly_retrain")
MAX_WORKERS = 4  # the program's fixed shard count
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# What one latency sample times on each workload.
LATENCY_ITEM = {
    "home_scenarios": "one HomeDeployment::run_script call",
    "fleet_zipf": "one round: enqueue 256 sessions, FleetEngine::drain",
    "nightly_retrain": "one night: reopen the store, retrain all 16,384 users",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the program; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(build_dir, "coreda_perfbench")


def finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no CoReDA sources (src/) under the current directory; "
             "run from the root of a source checkout")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    workers = max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))
    run_dir = os.path.join(root, target, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workers={workers}", f"--dir={run_dir}"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"benchmark program exited with {done.returncode}")
    try:
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark program printed no JSON result")

    record, e2e, report, layers = out["record"], out["e2e"], out["report"], out["layers"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e

    problems = []
    if not out["digest_ok"]:
        problems.append(f"outcome digest of the first {out['prefix_items']} items differs "
                        f"between {record['workers']} worker(s) ({out['digest_timed']}) "
                        f"and 1 worker ({out['digest_serial']})")
    if record["failed"] != 0:
        problems.append(f"{record['failed']} of {record['attempted']} items failed")
    for m in wanted:
        v = source.get(m["name"])
        if not finite(v):
            problems.append(f"metric {m['name']} missing or not finite: {v}")
        elif not args.trace and v <= 0:
            problems.append(f"metric {m['name']} is not positive: {v}")
    if args.workload == "nightly_retrain":
        if not report["retrain_greedy_accuracy"] > 0.5:
            problems.append("retrained tables mostly mispredict the routine")
    elif not report["completion_rate"] > 0:
        problems.append("no session completed")

    print("record " + json.dumps(record))
    print(f"latency sample: {LATENCY_ITEM[args.workload]}")
    units = {"_per_sec": "1/s", "_us": "us", "_s": "s", "_mb": "MiB"}
    for key, value in report.items():
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "")
        print(f"{key} {value} {unit}".rstrip())
    if args.trace:
        # A value without a note is measured on the workload's own path.
        notes = out["layer_notes"]
        for m in spec["per_layer"]:
            note = f"  [{notes[m['name']]}]" if m["name"] in notes else ""
            print(f"{m['name']} {layers.get(m['name'])} {m['unit']}{note}")
        session_us = layers.get("core.session_us")
        if finite(session_us) and session_us > 0:
            sensors = layers["sensors.ns_per_sample"] * layers["sensors.samples_per_session"] / 1e3
            sim = layers["sim.ns_per_event"] * layers["sim.wakeups_per_session"] / 1e3
            planning = layers["planning.predict_ns"] * layers["planning.predicts_per_session"] / 1e3
            print(f"split of core.session_us={session_us:.1f}: sensor synthesis "
                  f"{sensors / session_us:.1%}, scheduler {sim / session_us:.1%}, "
                  f"planner predict {planning / session_us:.3%}")
    for problem in problems:
        print(f"check failed: {problem}")

    metrics = {m["name"]: {"value": source.get(m["name"]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
