#!/usr/bin/env python3
"""End-to-end test of the gmark_cli front end.

Checks that `-g` writes the same bytes with no --threads, with
--threads 1 and with --threads 2, each also with --stats (which builds
the indexed graph from the same generation), that every run walks the
generator exactly once (one `gen.generate` span in its trace), and that
invalid sizes, thread counts and retired flags fail with the usage
error instead of being ignored or wrapped. No run starts more than 2
worker threads: the out-of-range inputs write nothing, so a CLI that
wrongly accepted them would still start at most 2 workers.

Usage: gmark_cli_test.py <path to gmark_cli>   (also `ctest -R cli`)
"""

import json
import os
import subprocess
import sys
import tempfile

NODES = "2000"


def run(cli, args):
    return subprocess.run([cli, "--use-case", "Bib"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True, timeout=300)


def generate_spans(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    return sum(1 for e in events if e["name"] == "gen.generate")


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    failures = []

    with tempfile.TemporaryDirectory(prefix="gmark-cli-test-") as tmp:
        variants = [
            ("no --threads", []),
            ("--threads 1", ["--threads", "1"]),
            ("--threads 2", ["--threads", "2"]),
            ("--threads 1 --stats", ["--threads", "1", "--stats"]),
            ("--threads 2 --stats", ["--threads", "2", "--stats"]),
        ]
        outputs = {}
        for i, (label, extra) in enumerate(variants):
            path = os.path.join(tmp, "g%d.nt" % i)
            trace = os.path.join(tmp, "t%d.json" % i)
            proc = run(cli, ["-n", NODES, "-g", path,
                             "--trace-json", trace] + extra)
            if proc.returncode != 0:
                failures.append("%s: exit %d: %s" %
                                (label, proc.returncode, proc.stderr))
                continue
            with open(path, "rb") as f:
                outputs[label] = f.read()
            if "--stats" in extra and "gen.total_edges" not in proc.stdout:
                failures.append("%s: no generation stats printed" % label)
            spans = generate_spans(trace)
            if spans != 1:
                failures.append("%s: the generator ran %d times, not once" %
                                (label, spans))
        reference = outputs.get("no --threads")
        if not reference:
            failures.append("no --threads: empty or missing graph")
        for label, data in outputs.items():
            if data != reference:
                failures.append("%s: graph bytes differ from no --threads" %
                                label)

    # Rejected inputs: each must exit non-zero. Without -g, -q, -o or
    # --stats nothing is generated, so even a regressed check starts no
    # worker. Only --evaluate runs generation and evaluation; its thread
    # counts are ones a regressed check would read as at most 2
    # (4294967298 wraps to 2 in a 32-bit int).
    rejected = [
        ["-n", "0"],
        ["-n", "-5"],
        ["--threads", "-1"],
        ["--threads", "1025"],
        ["--threads", "4294967298"],
        ["-n", NODES, "--evaluate", "P", "--eval-threads", "-1"],
        ["-n", NODES, "--evaluate", "P", "--eval-threads", "4294967298"],
        ["--spill-dir", "x"],
        ["--spill-threshold", "0"],
    ]
    for args in rejected:
        proc = run(cli, args)
        if proc.returncode == 0:
            failures.append("accepted invalid input: %s" % " ".join(args))
    # The largest thread count is accepted (nothing runs without outputs).
    proc = run(cli, ["--threads", "1024"])
    if proc.returncode != 0:
        failures.append("rejected --threads 1024: %s" % proc.stderr)

    for failure in failures:
        print("FAIL: " + failure)
    if failures:
        return 1
    print("gmark_cli: %d output variants identical, %d invalid inputs "
          "rejected" % (len(variants), len(rejected)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
