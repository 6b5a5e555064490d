"""Steadiness check for the benchmark.

    python3 perfbench/steady.py

Runs every workload RUNS times in each of SETS sets, each run with its own
seed (FIRST_SEED onwards), workloads interleaved.  For every end-to-end
metric it prints the median, the quartiles and their distance as a share of
the median (the spread), and whether the spread is within the metric's bound
in BENCHMARK.json.  It also says whether each later set's median is within
the bound of the first set's, in either direction, and whether the share of
failed operations is exactly the same in every run.  The spread of `setup_s`
is printed but does not decide the verdict: a set-up is a cold process of
about a second, and the median of three of them follows the machine's
speed, which swung by about 30% within one set of runs.

The first run of each workload in each set is followed at once by a traced
run with the same seed.  The tracing overhead is how much lower the traced
run's operation rate is than its untraced twin's; pairing them keeps the
machine's drift out of it.  Raw results go to perfbench/out/.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUNS = 10
SETS = 2
FIRST_SEED = 301


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s\n%s%s"
                         % (" ".join(cmd), proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    result["seed"], result["wall_s"] = seed, wall
    rate = re.search(r"([0-9.]+) operations per CPU second", proc.stdout)
    result["rate"] = float(rate.group(1))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(spec, workload, sets):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print("\n%s: %d set(s) of %d runs" % (workload, len(sets), len(sets[0])))
    print("  %-14s %3s %12s %12s %12s %8s %6s  %s"
          % ("metric", "set", "q1", "median", "q3", "spread", "bound", ""))
    for name, m in bounds.items():
        medians = []
        for s, runs in enumerate(sets, start=1):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            medians.append(med)
            verdict = "ok" if spread <= m["bound"] else "TOO WIDE"
            if name == "setup_s" and verdict != "ok":
                verdict = "wide, not gated"
            ok &= verdict != "TOO WIDE"
            print("  %-14s %3d %12.5g %12.5g %12.5g %8.4f %6.2f  %s"
                  % (name, s, q1, med, q3, spread, m["bound"], verdict))
        for s, med in enumerate(medians[1:], start=2):
            change = (med - medians[0]) / medians[0]
            agree = abs(change) <= m["bound"]
            ok &= agree
            print("  %-14s set %d vs 1: %+.4f, %s"
                  % (name, s, change, "agrees" if agree else "DISAGREES"))
    shares = {Fraction(sum(r["failed"] for r in runs),
                       sum(r["attempted"] for r in runs)) for runs in sets}
    per_run = {Fraction(r["failed"], r["attempted"])
               for runs in sets for r in runs}
    same = len(per_run) == 1
    ok &= same and all(r["correct"] for runs in sets for r in runs)
    print("  failed share %s (%s)" % (
        ", ".join(str(x) for x in sorted(shares)),
        "identical in every run" if same else "DIFFERS between runs"))
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    traced = {w: [] for w in names}      # (untraced twin, traced run)
    seed = FIRST_SEED
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                r = run_once(spec, w, seed, 0)
                results[w][s].append(r)
                print("set %d %-15s seed %3d wall %5.1f s  %s" % (
                    s + 1, w, seed, r["wall_s"], " ".join(
                        "%s=%.5g" % (k, v["value"])
                        for k, v in r["metrics"].items())), flush=True)
                if i == 0:
                    traced[w].append((r, run_once(spec, w, seed, 1)))
            seed += 1
    ok = True
    for w in names:
        ok &= summarise(spec, w, results[w])
        for untraced, tr in traced[w]:
            ok &= tr["correct"]
            print("  tracing overhead, seed %d: %.4g operations per CPU "
                  "second traced, %.4g untraced (%.1f%% lower)"
                  % (tr["seed"], tr["rate"], untraced["rate"],
                     100 * (1 - tr["rate"] / untraced["rate"])))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / ("steady-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    path.write_text(json.dumps({"results": results, "traced": traced},
                               indent=1))
    print("\n%s; raw results in %s" % (
        "STEADY: every check passed" if ok else "NOT STEADY",
        path.relative_to(ROOT)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
