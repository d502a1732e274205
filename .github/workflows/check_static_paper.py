#!/usr/bin/env python3
"""Gate a traced `static_paper --seed 1` run on what is exact for a commit.

usage: check_static_paper.py <benchmark stdout> <expected.json>

The last stdout line is the benchmark's contract JSON. `correct`, `failed`
and the counts in the expected file depend only on the code (bound values,
wave order, termination), never on the host, so any difference fails the
job. The two time ratios are printed for the job summary and not gated:
shared runners are not the quiet host.
"""
import json
import sys

run = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
expected = json.load(open(sys.argv[2]))


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

print("### static_paper --seed 1 (traced)")
print()
print("| metric | value |")
print("|---|---|")
for name in ["core.topk_over_match", "core.topkdh_over_topkdiv", *expected]:
    print("| `%s` | %r |" % (name, value(name)))
print()
print("exact counts: " + ("**MISMATCH** — " + "; ".join(problems) if problems else "match"))
sys.exit(1 if problems else 0)
