#!/usr/bin/env python3
"""Build and run the emdpa benchmark for one workload; print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload liquid-2k --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and with it the engine's
core and md libraries) in Release mode under .bench_build/.  The program
measures; this script turns its raw samples into the metrics listed in
BENCHMARK.json and prints them as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Two lines before it state the machine/build fingerprint and, for every
reported percentile, the sample count and the percentile actually used.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("liquid-2k", "liquid-100k")

# Layers each workload's traced run measures; the others read 0 there.
EXERCISED = {
    "liquid-2k": ("pool", "neighbor", "force", "step", "ckpt", "journal",
                  "sched", "store", "trace"),
    "liquid-100k": ("pool", "neighbor", "force", "step", "trace"),
}

# A tail percentile is reported only where at least this many samples lie
# beyond it; with fewer samples the highest such percentile is used, but
# never one below the reported median.
MIN_TAIL = 10

# Every run, build included, must end within this many seconds.
DEADLINE_S = 880
RUN_DEADLINE_S = 170

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def tail_percentile(samples, q):
    """Value at percentile q, lowered until MIN_TAIL samples lie beyond it
    (but not below the upper median, ordered[n // 2], which is never below
    statistics.median; meeting the rule at p95 takes 200 samples).

    Returns (value, percentile used).  The value is a sample (nearest rank),
    never an interpolation, so "beyond it" counts real samples.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n // 2, min(math.ceil(q * n) - 1, n - 1 - MIN_TAIL))
    return ordered[index], (index + 1) / n


def end_to_end(raw):
    """End-to-end metric values and the sample statement for one run."""
    samples = raw["samples"]
    values = {
        "atom_steps_per_s": raw["atom_steps"] / raw["timed_wall_s"],
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": 1.0 - raw["failed"] / raw["attempted"],
    }
    stated = {}
    for series, tail_q in (("step_ms", 0.90), ("restore_ms", 0.95)):
        data = samples[series]
        values[series + "_p50"] = statistics.median(data)
        tail_name = "%s_p%d" % (series, round(100 * tail_q))
        values[tail_name], used = tail_percentile(data, tail_q)
        stated[series] = {"n": len(data), tail_name: "p%g" % (100 * used)}
    stated["setup_s"] = {"n": len(samples["setup_s"])}
    return values, stated


def per_layer(raw, names):
    """Per-layer metric values: measured for the layers the run's workload
    calls, 0 for the rest.  A mismatch between what the program measured
    and BENCHMARK.json is an error, not a silent zero."""
    measured = raw["layers"]
    layers = EXERCISED[raw["workload"]]
    exercised = [n for n in names if n.split(".")[0] in layers]
    missing = sorted(set(exercised) - set(measured))
    unexpected = sorted(set(measured) - set(exercised))
    if missing or unexpected:
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: "
                           "missing %s, unexpected %s" % (missing, unexpected))
    return {n: measured.get(n, 0.0) for n in names}


def result_line(raw, spec, trace):
    if trace:
        group = spec["per_layer"]
        values = per_layer(raw, [m["name"] for m in group])
    else:
        group = spec["end_to_end"]
        values, _ = end_to_end(raw)
    return {
        "correct": all(c["ok"] for c in raw["checks"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in group},
    }


def build(root, deadline):
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1, deadline - time.monotonic()))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    engine = os.path.join(root, "src", "md", "CMakeLists.txt")
    if not os.path.isfile(spec_path) or not os.path.isfile(engine):
        print("perfbench: run from the emdpa repository root (needs "
              "BENCHMARK.json and src/)", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    workdir = os.path.join(root, ".bench_build", "work-%d" % os.getpid())
    try:
        binary = build(root, started + DEADLINE_S)
        timeout = min(RUN_DEADLINE_S, started + DEADLINE_S - time.monotonic())
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, timeout=max(1, timeout))
    except (subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        print("perfbench: %s exited with %d" % (args.workload, proc.returncode),
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    line = result_line(raw, spec, args.trace)
    _, stated = end_to_end(raw)
    print("fingerprint: " + json.dumps(raw["fingerprint"]))
    print("samples: " + json.dumps(stated) + " input_digest: " +
          raw["input_digest"])
    for check in raw["checks"]:
        if not check["ok"]:
            print("check failed: %s %s" % (check["name"], check["detail"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
