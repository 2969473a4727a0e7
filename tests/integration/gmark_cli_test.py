#!/usr/bin/env python3
"""End-to-end test of the gmark_cli front end.

Checks that `-g` writes the same bytes with no --threads, with
--threads 1, with --threads 2, and with --threads 2 plus a spill-staged
--stats build, and that invalid sizes and thread counts fail with the
usage error instead of being ignored or wrapped. No run starts more
than 2 worker threads: the out-of-range inputs write nothing, so a CLI
that wrongly accepted them would still start at most 2 workers.

Usage: gmark_cli_test.py <path to gmark_cli>   (also `ctest -R cli`)
"""

import os
import subprocess
import sys
import tempfile

NODES = "2000"


def run(cli, args):
    return subprocess.run([cli, "--use-case", "Bib"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          universal_newlines=True, timeout=300)


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    failures = []

    with tempfile.TemporaryDirectory(prefix="gmark-cli-test-") as tmp:
        spill_dir = os.path.join(tmp, "spill")
        os.mkdir(spill_dir)
        variants = [
            ("no --threads", []),
            ("--threads 1", ["--threads", "1"]),
            ("--threads 2", ["--threads", "2"]),
            ("--threads 2 --spill-dir --stats",
             ["--threads", "2", "--spill-dir", spill_dir, "--stats"]),
        ]
        outputs = {}
        for i, (label, extra) in enumerate(variants):
            path = os.path.join(tmp, "g%d.nt" % i)
            proc = run(cli, ["-n", NODES, "-g", path] + extra)
            if proc.returncode != 0:
                failures.append("%s: exit %d: %s" %
                                (label, proc.returncode, proc.stderr))
                continue
            with open(path, "rb") as f:
                outputs[label] = f.read()
            if "--stats" in extra and "gen.spilled_runs" not in proc.stdout:
                failures.append("%s: the indexed build did not spill" % label)
        if os.listdir(spill_dir):
            failures.append("spill files left behind: %s" %
                            os.listdir(spill_dir))
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
