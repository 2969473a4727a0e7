#!/usr/bin/env python3
"""Self-test for determinism_lint.py over the golden fixtures in
tools/lint/testdata/.

Every file under testdata/bad/ must produce at least one finding, with
the exact rule id the fixture exercises; every file under
testdata/good/ must produce none. Run directly or via
`ctest -R lint`.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import determinism_lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata")

# fixture (relative to testdata/) -> exact set of rule ids it must hit.
EXPECTED_BAD = {
    "bad/rand_call.cc": {"raw-rand"},
    "bad/random_device.cc": {"random-device"},
    "bad/raw_engine.cc": {"raw-engine"},
    "bad/clock_read.cc": {"clock-read"},
    "bad/unordered_iter.cc": {"unordered-iter"},
    "bad/unordered_begin.cc": {"unordered-iter"},
    "bad/stream_format.cc": {"stream-format"},
    "bad/rng_default.cc": {"rng-default-seed"},
    "bad/rng_underived.cc": {"rng-underived-seed"},
    "bad/nolint_empty.cc": {"nolint-empty-reason"},
    "bad/tests/wallclock_test.cc": {"clock-read"},
}


def lint(rel):
    path = os.path.join(TESTDATA, rel)
    return determinism_lint.lint_file(path, rel)


def main():
    failures = []

    for rel, expected_rules in sorted(EXPECTED_BAD.items()):
        findings = lint(rel)
        got = {f.rule for f in findings}
        if not findings:
            failures.append(f"{rel}: expected {sorted(expected_rules)}, "
                            f"got no findings")
        elif got != expected_rules:
            failures.append(f"{rel}: expected rules "
                            f"{sorted(expected_rules)}, got {sorted(got)}")

    good_root = os.path.join(TESTDATA, "good")
    good_count = 0
    for root, dirs, files in os.walk(good_root):
        dirs.sort()
        for name in sorted(files):
            rel = os.path.relpath(os.path.join(root, name),
                                  TESTDATA).replace(os.sep, "/")
            findings = lint(rel)
            good_count += 1
            if findings:
                listed = "; ".join(str(f) for f in findings)
                failures.append(f"{rel}: expected clean, got: {listed}")

    # The bad fixtures must also fail through the CLI (non-zero exit),
    # and the good tree must pass through it — the exact surfaces CMake
    # and CI call.
    bad_exit = determinism_lint.main(
        ["determinism_lint.py", os.path.join(TESTDATA, "bad")])
    if bad_exit != 1:
        failures.append(f"CLI over testdata/bad: expected exit 1, "
                        f"got {bad_exit}")
    good_exit = determinism_lint.main(
        ["determinism_lint.py", good_root])
    if good_exit != 0:
        failures.append(f"CLI over testdata/good: expected exit 0, "
                        f"got {good_exit}")

    if failures:
        print("lint_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"lint_selftest: PASS ({len(EXPECTED_BAD)} bad fixtures, "
          f"{good_count} good fixtures)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
