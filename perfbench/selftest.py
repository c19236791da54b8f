#!/usr/bin/env python3
"""Self-test of the benchmark harness on smoke-sized grids.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that
  1. every workload's timed run emits exactly the end-to-end metrics of
     BENCHMARK.json, each with its unit, and its traced run exactly the
     per-layer metrics, each with its unit;
  2. a tampered reference (one cell's verdict flipped) trips the
     correctness gate: exit status 1 and "correct": false;
  3. the count metrics of two traced runs with the same seed are equal
     (except the scheduler's steal count, which depends on timing).
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK = os.path.join(REPO, ".bench_build", "perfbench", "selftest")


def run(workload, trace, seed=1, reference=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines else None
    return proc.returncode, summary, proc.stderr


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    counts = {}
    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, summary, err = run(w, trace)
            if summary is None:
                check(False, "%s trace=%d printed no summary: %s"
                      % (w, trace, err.strip()[-300:]))
                continue
            check(code == 0 and summary["correct"]
                  and summary["failed"] == 0 and summary["attempted"] > 0,
                  "%s trace=%d passes the gate" % (w, trace))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            check(got == want, "%s trace=%d emits every %s metric with its "
                  "unit" % (w, trace, key))
            if trace == 1:
                counts[w] = {k: v["value"]
                             for k, v in summary["metrics"].items()
                             if v["unit"] == "count"
                             and k != "campaign.sched.steals"}

    # A tampered reference must trip the gate.
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(HERE, "reference", "probe_campaign.json")) as f:
        ref = json.load(f)
    key = "paper-qpsk-10M/none"
    ref["cells"][key] = "fail" if ref["cells"][key] == "pass" else "pass"
    tampered = os.path.join(WORK, "tampered.json")
    with open(tampered, "w") as f:
        json.dump(ref, f)
    code, summary, _ = run("probe_campaign", 0, reference=tampered)
    check(code == 1 and summary is not None and not summary["correct"]
          and summary["failed"] > 0,
          "a tampered reference trips the correctness gate")

    # Count metrics repeat exactly for a given seed (the scheduler's steal
    # count depends on thread timing and is exempt).
    for w, first in counts.items():
        _, again, _ = run(w, 1)
        repeat = {k: v["value"]
                  for k, v in (again or {}).get("metrics", {}).items()
                  if v["unit"] == "count" and k in first}
        check(bool(repeat) and repeat == first,
              "%s count metrics repeat exactly across two traced runs" % w)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
