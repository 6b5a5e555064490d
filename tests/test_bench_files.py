"""The summaries of the paired-run BENCH files follow from their own runs.

A summary holds, per workload and end-to-end metric, each side's median and
inclusive quartiles over the untraced runs, the number of (parent, change)
pairs, the pairs the change wins, the change of the medians relative to
the parent's, and whether that change stays within the metric's bound in
BENCHMARK.json, all rounded to four places.  BENCH_7.json took each change
of the medians from the medians as rounded, and adds an entry
"<workload>-traced": per side and layer, that layer's value in each traced
run of the workload, by seed.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
METRICS = {m["name"]: m for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
ROUNDED_MEDIANS = {"BENCH_7.json"}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summary(runs, rounded_medians=False):
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload
                and r["trace"] == 0]
        sides = {side: {r["seed"]: r["metrics"] for r in mine
                        if r["side"] == side} for side in ("parent", "change")}
        assert sides["parent"].keys() == sides["change"].keys()
        seeds = sorted(sides["parent"])
        out[workload] = {}
        for name, metric in METRICS.items():
            parent = [sides["parent"][s][name] for s in seeds]
            change = [sides["change"][s][name] for s in seeds]
            sign = 1 if metric["better"] == "lower" else -1
            medians = [statistics.median(parent), statistics.median(change)]
            if rounded_medians:
                medians = [round(m, 4) for m in medians]
            relative = (medians[1] - medians[0]) / medians[0]
            out[workload][name] = {
                "parent": quartiles(parent), "change": quartiles(change),
                "pairs": len(seeds),
                "change_wins": sum(sign * (c - p) < 0
                                   for p, c in zip(parent, change)),
                "median_change": round(relative, 4),
                "within_bound": sign * relative <= metric["bound"]}
        out[workload]["correct_all"] = all(r["correct"] for r in mine)
        out[workload]["failed_total"] = sum(r["failed"] for r in mine)
    return out


def traced(runs, workload, layers):
    """Per side, each of `layers`' values in the traced runs of
    `workload`, by seed, rounded to four places."""
    mine = sorted((r for r in runs if r["workload"] == workload
                   and r["trace"] == 1), key=lambda r: r["seed"])
    return {side: {name: [round(r["metrics"][name], 4) for r in mine
                          if r["side"] == side] for name in layers}
            for side in ("parent", "change")}


@pytest.mark.parametrize(
    "name", [path.name for path in sorted(ROOT.glob("BENCH_*.json"))])
def test_summary_is_recomputed_from_the_runs(name):
    bench = json.loads((ROOT / name).read_text())
    want = dict(bench["summary"])
    for key in [key for key in want if key.endswith("-traced")]:
        entry = want.pop(key)
        assert traced(bench["runs"], key[:-len("-traced")],
                      entry["parent"]) == entry
    assert summary(bench["runs"], name in ROUNDED_MEDIANS) == want
