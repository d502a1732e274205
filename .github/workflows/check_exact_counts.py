#!/usr/bin/env python3
"""Gate a traced benchmark run on what is exact for a commit.

usage: check_exact_counts.py <benchmark stdout> <expected.json> <title> [ungated metric ...]

The last stdout line is the benchmark's contract JSON. `correct`, `failed`
and the counts in the expected file depend only on the code (bound values,
wave order, termination, which gate a batch crosses), never on the host, so
any difference fails the job. The metrics named after the title — times and
time ratios — are printed for the job summary and not gated: shared runners
are not the quiet host.
"""
import json
import sys

stdout_path, expected_path, title, *ungated = sys.argv[1:]
run = json.loads(open(stdout_path).read().strip().splitlines()[-1])
expected = json.load(open(expected_path))


def value(name):
    return run["metrics"][name]["value"]


problems = []
if run["correct"] is not True:
    problems.append("correct = %r" % run["correct"])
if run["failed"] != 0:
    problems.append("failed = %r" % run["failed"])
for name, want in expected.items():
    if value(name) != want:
        problems.append("%s = %r, expected %r" % (name, value(name), want))

print("### %s" % title)
print()
print("| metric | value |")
print("|---|---|")
for name in [*ungated, *expected]:
    print("| `%s` | %r |" % (name, value(name)))
print()
print("exact counts: " + ("**MISMATCH** — " + "; ".join(problems) if problems else "match"))
sys.exit(1 if problems else 0)
