"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a checkout (the package is taken from
`src`, nothing needs installing).  Every workload is a closed loop: one
operation in flight at a time, repeated in whole rounds of the same
operations until `--seconds` have passed.  Outputs are checked after the
measured phase, against computations made in this directory.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {
    "verify-cli": "wl_verify_cli",
    "certify-stream": "wl_certify_stream",
    "structure": "wl_structure",
}

# Cold set-ups per run; set-up time is their median.
COLD_SETUPS = 3

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_cpu_s": "s",
             "ops_per_cpu_s": "1/s"}


def cpu_clock():
    """CPU seconds (user + system) of this process and of every child it
    has reaped.  Unlike wall time, this leaves out time the hypervisor gives
    to other guests, which moved wall times by up to 45% between runs."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup(wl, tracer):
    """The workload's set-up, after the package import every user pays."""
    with tracer.span("cli.import"):
        import triflag.cli  # noqa: F401
    wl.setup()


def measure(wl, seconds, tracer):
    """Run whole rounds of the workload's operations for `seconds` of wall
    time.

    Returns a dict of per-operation and per-round CPU and wall times, the
    failed count, the first round's (output, error) pairs in round order,
    and problems: every later round must give the first round's outputs.
    """
    ops = wl.round_ops()
    m = {"op_cpu": [], "op_wall": [], "round_cpu": [], "round_wall": [],
         "failed": 0, "first": [], "problems": []}
    start = time.perf_counter()
    while True:
        rnd = len(m["round_cpu"])
        round_cpu, round_wall = cpu_clock(), time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = len(m["op_cpu"])
            c0, t0 = cpu_clock(), time.perf_counter()
            try:
                out, err = wl.run(op), None
            except Exception as exc:  # the program's failure is a result
                out, err = None, exc
            m["op_wall"].append(time.perf_counter() - t0)
            m["op_cpu"].append(cpu_clock() - c0)
            m["failed"] += wl.failed(op, out, err)
            if rnd == 0:
                m["first"].append((out, err))
            elif wl.digest(out, err) != wl.digest(*m["first"][i]):
                m["problems"].append("operation %d of round %d differs from "
                                     "round 0" % (i, rnd))
        m["round_cpu"].append(cpu_clock() - round_cpu)
        m["round_wall"].append(time.perf_counter() - round_wall)
        if time.perf_counter() - start >= seconds:
            return m


def cold_setup_s(args):
    """CPU time of one fresh process that only sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    c0 = cpu_clock()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=170)
    return cpu_clock() - c0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (cold set-up probe)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "triflag" / "__init__.py").is_file():
        print("error: no triflag package under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    wl_mod = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=OUT))
    try:
        if args.setup_only:
            setup(wl_mod.Workload(args.seed, workdir, tracing.NullTracer()),
                  tracing.NullTracer())
            return 0
        setups = ([] if args.trace else
                  [cold_setup_s(args) for _ in range(COLD_SETUPS)])
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        wl = wl_mod.Workload(args.seed, workdir, tracer)
        setup(wl, tracer)
        m = measure(wl, args.seconds, tracer)
        rss = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") \
            else self_peak_rss_mb()
        tracer.unpatch()
        problems = m["problems"] + tracer.unreached() + wl.check(m["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    med = statistics.median
    attempted = len(m["op_cpu"])
    rate = attempted / sum(m["round_cpu"])
    print("%s seed=%d: %d operations (%d failed) in %d rounds; median "
          "operation %.4f s CPU, %.4f s wall; %.4f operations per CPU "
          "second, %.4f per wall second%s"
          % (args.workload, args.seed, attempted, m["failed"],
             len(m["round_cpu"]), med(m["op_cpu"]), med(m["op_wall"]),
             rate, attempted / sum(m["round_wall"]),
             " (traced)" if args.trace else ""))
    for line in problems:
        print("CHECK FAILED: " + line)
    if args.trace:
        trace_path = OUT / ("trace-%s-%d.json" % (args.workload, args.seed))
        tracer.dump(trace_path)
        layer = tracing.layer_metrics(tracer.spans, attempted)
        metrics = {name: {"value": value, "unit": tracing.LAYER_UNITS[name]}
                   for name, value in layer.items()}
        print("spans written to %s" % trace_path.relative_to(ROOT))
    else:
        values = {"setup_s": med(setups), "peak_rss_mb": rss,
                  "op_cpu_s": med(m["op_cpu"]),
                  "ops_per_cpu_s": rate}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
