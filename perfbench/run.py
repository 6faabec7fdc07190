#!/usr/bin/env python3
"""Builds and runs the accelOS stack benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

The first form configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/, then runs one workload. Build
output goes to stderr; accelbench's output goes to stdout, and the
last line is one JSON result. The exit code is non-zero when any output
check fails.

An untraced run (--trace 0) splits --seconds over SAMPLES fresh
accelbench processes of the same seed, because a shared host runs a
process up to 1.5x slower than the next for seconds at a time. The
merged result takes each timed unit's fastest time over all processes
(or, in runtime-clients, the fastest process), the median set-up time
and the largest peak memory; every process must pass its checks and
print the same schedule digest. The traced run (--trace 1) is one
process; it also writes its spans as a Chrome trace to
.bench_build/traces/.

--test runs the benchmark's own tests: the C++ unit tests, the
agreement of BENCHMARK.json with accelbench's metric tables, equal
digests and sim_* metrics between traced and untraced runs of one seed
(and different ones for another seed), and a run whose runtime-clients
result buffer is deliberately corrupted, which must be counted as
failed and fail the run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["scale-open", "fleet-outage", "runtime-clients", "paper-mixes"]
SAMPLES = 3
# How the end-to-end metrics of the sampled processes combine.
MERGE = {"requests_per_s": max, "setup_s": statistics.median,
         "peak_rss_mb": max}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("run.py: the library sources (src/) are missing; cannot build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def accelbench(*args):
    return [os.path.join(BUILD_DIR, "accelbench"), *args]


def run_json(args):
    """Runs accelbench; returns (exit code, stdout lines, result object)."""
    out = subprocess.run(accelbench(*args), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, lines, result


def digest_of(lines):
    return [l for l in lines if l.startswith("schedule_digest")]


def unit_seconds(lines):
    """Each timed unit's fastest time in one process, if it has units."""
    for l in lines:
        if l.startswith("unit_seconds "):
            return [float(v) for v in l.split()[1:]]
    return None


def sim_values(lines):
    """The sim_* outcome metrics a run printed, by name."""
    out = {}
    for l in lines:
        parts = l.split()
        if len(parts) >= 3 and parts[0] in ("metric", "also") \
                and parts[1].startswith("sim_") and parts[2] != "n/a":
            out[parts[1]] = parts[2]
    return out


def self_test():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        failures += 0 if ok else 1

    unit = subprocess.run([os.path.join(BUILD_DIR, "accelbench_tests")])
    check(unit.returncode == 0, "C++ unit tests")

    listed = json.loads(subprocess.run(accelbench("--list-metrics"),
                                       capture_output=True,
                                       text=True).stdout)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        emitted = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
        check(declared == emitted, "BENCHMARK.json %s matches accelbench" % key)
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists accelbench's workloads")

    quick = ["--seconds", "0.1"]
    for wl in ("scale-open", "fleet-outage", "paper-mixes"):
        runs = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            code, lines, result = run_json(["--workload", wl, "--seed",
                                             str(seed), "--trace", str(trace)]
                                            + quick)
            check(code == 0 and result["correct"],
                  "%s seed %d trace %d passes its checks" % (wl, seed, trace))
            runs[(seed, trace)] = (digest_of(lines), sim_values(lines))
        same, traced, other = runs[(1, 0)], runs[(1, 1)], runs[(2, 0)]
        check(len(same[0]) == 1 and same[0] == traced[0],
              "%s: traced and untraced runs print the same digest" % wl)
        check(len(same[1]) >= 4 and same[1] == traced[1],
              "%s: the same seed repeats every sim_* metric" % wl)
        check(same[0] != other[0] and same[1] != other[1],
              "%s: another seed changes the digest and sim_* metrics" % wl)

    code, lines, result = run_json(["--workload", "runtime-clients", "--seed",
                                    "1", "--seconds", "1", "--trace", "0",
                                    "--corrupt-buffers", "1"])
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a corrupted runtime-clients buffer is counted and fails the run")
    print("%d failure(s)" % failures)
    return 1 if failures else 0


def sampled_run(args, seconds):
    """Runs SAMPLES untraced processes and prints their merged result."""
    results, digests, units, code = [], set(), [], 0
    for i in range(SAMPLES):
        print("== process %d of %d" % (i + 1, SAMPLES), flush=True)
        rc, lines, result = run_json(args + ["--seconds",
                                             repr(seconds / SAMPLES)])
        print("\n".join(lines[:-1]), flush=True)
        code = code or rc
        if result is None:
            return rc or 1
        results.append(result)
        digests.update(digest_of(lines))
        units.append(unit_seconds(lines))
    correct = code == 0 and all(r["correct"] for r in results)
    if len(digests) > 1:
        print("CHECK FAILED: the processes replayed different schedules")
        correct = False
    metrics = {}
    for name, merge in MERGE.items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": merge(values),
                         "unit": results[0]["metrics"][name]["unit"]}
    if all(units) and len(set(map(len, units))) == 1:
        # The requests of one pass over the units, divided by the sum of
        # each unit's fastest time over all processes.
        rps = results[0]["metrics"]["requests_per_s"]["value"]
        requests = rps * sum(units[0])
        fastest = [min(times) for times in zip(*units)]
        metrics["requests_per_s"]["value"] = requests / sum(fastest)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}), flush=True)
    return 0 if correct else (code or 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true",
                   help="run the benchmark's own tests")
    a = p.parse_args()
    if not a.test and a.workload is None:
        p.error("--workload is required")
    if not build():
        return 2
    if a.test:
        return self_test()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--trace", str(a.trace)]
    if not a.trace:
        return sampled_run(args, a.seconds)
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    args += ["--seconds", str(a.seconds), "--trace-out", os.path.join(
        traces, "%s-seed%d.trace.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    return subprocess.run(accelbench(*args)).returncode


if __name__ == "__main__":
    sys.exit(main())
