#!/usr/bin/env python3
"""Build and run the gMark pipeline benchmark.

One run (what BENCHMARK.json's command does):

    python3 pipebench/run.py --workload generate --seed 7 --seconds 20 --trace 0

builds pipebench/ (the gMark library from src/ plus pipebench.cpp) into
.bench_build/pipebench, runs one workload in one process and passes its
output through: a human-readable summary, then, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}. The full
record of the run (provenance, samples, quartiles, gate findings) is
written to .bench_build/pipebench/records/, and with --trace 1 a Chrome
trace of one traced pass to .bench_build/pipebench/traces/.

Steadiness report (not used by BENCHMARK.json's command):

    python3 pipebench/run.py --steadiness

runs every workload of BENCHMARK.json ten times per set, in two sets,
with seeds 1..10 (the same seeds in both sets), and prints for every
end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json, then
whether the second set's median is within the bound of the first's. It
exits 1 when a spread or a median shift exceeds its bound.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 175
STEADY_RUNS = 10
STEADY_SETS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; build output goes to stderr. A build
    tree that no longer builds (e.g. configured at another path) is
    removed and configured afresh once."""
    for attempt in (0, 1):
        try:
            if not os.path.exists(os.path.join(BUILD, "Makefile")):
                subprocess.run(
                    ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    check=True, stdout=sys.stderr, stderr=sys.stderr)
            subprocess.run(["cmake", "--build", BUILD, "-j2"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
            return
        except subprocess.CalledProcessError:
            if attempt == 1:
                raise
            shutil.rmtree(BUILD, ignore_errors=True)


def commit():
    """The git commit when run from a clone, else "unknown"."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace):
    """Run the binary; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", BUILD, "--commit", commit(),
           "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("pipebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        for s in range(STEADY_SETS):
            values = {}
            for r in range(STEADY_RUNS):
                seed = r + 1
                code, out = run_once(workload, seed, spec["run_seconds"], 0)
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    log("FAIL: %s seed %d exited %d" % (workload, seed, code))
                    return 1
                result = json.loads(lines[-1])
                if not result["correct"]:
                    log("FAIL: %s seed %d incorrect" % (workload, seed))
                    return 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                log("  %s set %d seed %d: %s" % (workload, s, seed, " ".join(
                    "%s=%.6g" % (k, m["value"])
                    for k, m in result["metrics"].items())))
            print("%s, set %d (%d runs):" % (workload, s, STEADY_RUNS))
            print("  %-18s %12s %12s %12s %8s %6s" %
                  ("metric", "median", "q1", "q3", "spread", "bound"))
            set_medians = {}
            for name, vals in values.items():
                med, q1, q3, spread = quartile_spread(vals)
                bound = bounds[name]["bound"]
                set_medians[name] = med
                verdict = "ok"
                if spread > bound:
                    verdict = "OVER"
                    ok = False
                elif spread > bound / 3:
                    verdict = "> 1/3"
                print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.3f %s" %
                      (name, med, q1, q3, spread, bound, verdict))
            medians.append(set_medians)
        print("%s, median of set 1 against set 0:" % workload)
        for name, first in medians[0].items():
            second = medians[1][name]
            lower = bounds[name]["better"] == "lower"
            worse = (second - first) / first if lower else \
                (first - second) / first
            verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print("  %-18s %12.6g -> %12.6g  worse by %+.4f (bound %.3f) %s"
                  % (name, first, second, worse, bounds[name]["bound"],
                     verdict))
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("pipebench: build failed: %s" % e)
        return 1
    if args.steadiness:
        return steadiness()
    if not args.workload:
        ap.error("--workload is required")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
