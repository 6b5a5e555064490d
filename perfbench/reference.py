"""Reference figures kept out of the workloads.

    python3 perfbench/reference.py

Each figure is taken in a fresh process (so caches are cold) and printed
with its CPU and wall time and that process's peak RSS.  The threaded
coefficient table needs the wall time: its two threads share one
interpreter lock, so their CPU time adds up to about the serial figure.  These calls are too slow
or too large for a benchmark run, or they time an option no workload uses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PRELUDE = "import random, time\nfrom triflag import certificate, graphs\n"

RANDOM_PAIR = ("rng = random.Random(1)\n"
               "G = graphs.ColouredGraph({n}, 3, [rng.randint(1, 3) "
               "for _ in range({n} * ({n} - 1) // 2)])\n"
               "p = list(range({n})); rng.shuffle(p)\n"
               "H = G.relabel(p)\n")
# A relabelled K_22 blow-up with a recoloured matching between two classes,
# and a relabelled copy of it: the backtracking search of is_isomorphic
# needs tens of seconds on this pair (found by the structure workload's
# input generator; such pairs are left out of that workload).
MATCHING_PAIR = (
    "G = graphs.ColouredGraph(22, 3, [int(c) for c in '"
    "1323221233332233322113232212333322333221122323311123322122333312322233"
    "3332112223322221221123333321333211223332223222333332112223333223332211"
    "3332112233322112332212233123322122332332212233221123333122333222233322"
    "123333233331233122221'])\n"
    "H = graphs.ColouredGraph(22, 3, [int(c) for c in '"
    "3322213112222132323331322313323223232322132231332322323232213313223133"
    "2212122313222131123333332322213112333333232231332212122333232232323221"
    "1222213232333222213232333311233333323322121223123333332233333323232333"
    "212112212232112223122'])\n")
WARM_TABLE = ("cert = certificate.load_shipped_certificate()\n"
              "certificate.coefficient_table(cert)\n")

# (label, set-up code, timed statement)
FIGURES = [
    ("cold enumerate_models(7, 2)", "", "graphs.enumerate_models(7, 2)"),
    ("cold enumerate_models(6, 3)", "", "graphs.enumerate_models(6, 3)"),
    ("is_isomorphic, random K_10 and a relabelled copy",
     RANDOM_PAIR.format(n=10), "assert graphs.is_isomorphic(G, H)"),
    ("is_isomorphic, random K_11 and a relabelled copy",
     RANDOM_PAIR.format(n=11), "assert graphs.is_isomorphic(G, H)"),
    ("is_isomorphic, the K_22 matching blow-up pair above", MATCHING_PAIR,
     "assert graphs.is_isomorphic(G, H)"),
    ("coefficient_table, serial, after a warm-up table", WARM_TABLE,
     "certificate.coefficient_table(cert, threads=1)"),
    ("coefficient_table, threads=2, after a warm-up table", WARM_TABLE,
     "certificate.coefficient_table(cert, threads=2)"),
]


def figure(setup, timed):
    """Run `setup` then `timed` in a fresh process.  Returns (CPU seconds
    and wall seconds of the timed statement, peak RSS of the process in
    MB)."""
    script = (PRELUDE + setup +
              "c0, t0 = time.process_time(), time.perf_counter()\n" + timed +
              "\nprint(time.process_time() - c0, time.perf_counter() - t0)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit("figure failed:\n" + script)
    cpu, wall = (float(x) for x in out.split()[-2:])
    return cpu, wall, usage.ru_maxrss / 1024.0


def main():
    for label, setup, timed in FIGURES:
        cpu, wall, rss = figure(setup, timed)
        print("%-52s %9.4g s CPU %9.4g s wall  peak RSS %4.0f MB"
              % (label, cpu, wall, rss), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
