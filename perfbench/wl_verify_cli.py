"""verify-cli: `triflag verify` in fresh child processes, one at a time.

Each round runs the command twice: once on the shipped certificate, once
with `--cert` on a seeded copy whose flags are permuted within each block.
The copy has the same verdict and a different table layout.  The child is
`python -m triflag.cli` with `src` on the path, timed from spawn to exit; its
peak RSS is read from its own rusage.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import oracles
import tracing
from wl_certify_stream import permuted

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


class Workload:
    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.tr = tracer
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.rss_mb = []

    def setup(self):
        tracing.patch_all(self.tr, tracing.VERIFY_LAYERS)
        from triflag import certificate
        self.C = certificate
        self.shipped_text = certificate.shipped_certificate_text()
        self.shipped = certificate.load_certificate(self.shipped_text)
        self.perms = [self.rng.sample(range(27), 27) for _ in range(10)]
        self.cert_path = self.workdir / "permuted.cert"
        self.cert_path.write_text(certificate.serialize_certificate(
            permuted(self.shipped, self.perms)))

    def round_ops(self):
        return [("shipped", ["verify"]),
                ("permuted", ["verify", "--cert", str(self.cert_path)])]

    def run(self, op):
        argv = op[1]
        out_path = self.workdir / "stdout.txt"
        if self.tr.enabled:
            spans_path = self.workdir / "spans.json"
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "triflag.cli"] + argv
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        if self.tr.enabled:
            self.tr.merge(spans_path)
        return proc.returncode, out_path.read_text()

    def failed(self, op, out, err):
        return err is not None or out[0] != 0

    def digest(self, out, err):
        if err is not None:
            return type(err).__name__, str(err)
        return out[0], _verdict_lines(out[1])

    def peak_rss_mb(self):
        return statistics.median(self.rss_mb)

    def check(self, first):
        problems = []
        shipped = self.shipped
        table = self.C.coefficient_table(shipped)
        own = oracles.lambdas(shipped, table, table.model_keys)
        min_lambda = min(own.values())
        psd = [oracles.sympy_psd(b.Q.rows) for b in shipped.blocks]
        bad_ok = not any(oracles.has_bad_subgraph(k)
                         for k, v in own.items() if v <= 0)
        copy = self.C.load_certificate(self.cert_path.read_text())
        if not all(oracles.is_permuted_copy(b, s, p) for b, s, p
                   in zip(copy.blocks, shipped.blocks, self.perms)):
            problems.append("permuted: file is not the permuted layout")
        sha = {"shipped": hashlib.sha256(
                   self.shipped_text.encode()).hexdigest(),
               "permuted": hashlib.sha256(
                   self.cert_path.read_bytes()).hexdigest()}
        fmt = self.C.format_rational
        for (name, _), (out, err) in zip(self.round_ops(), first):
            if err is not None or out[0] != 0:
                continue            # failed operations are counted
            lines = _verdict_lines(out[1]).splitlines()
            want = ["PSD block=%d %s" % (r, "ok" if ok else "FAILED")
                    for r, ok in enumerate(psd, start=1)]
            want += ["MIN_LAMBDA " + fmt(min_lambda),
                     "NEGATIVE_LAMBDAS %d" % sum(v < 0 for v in own.values()),
                     "BAD_FAMILY_CONDITION " + ("ok" if bad_ok else "FAILED"),
                     "VERDICT " + ("VERIFIED" if all(psd) and bad_ok
                                   and min_lambda >= 0 else "FAILED")]
            missing = [w for w in want if w not in lines]
            if missing:
                problems.append("%s: report lacks %s" % (name, missing))
            if not any(ln.startswith("input sha256=%s " % sha[name])
                       for ln in lines):
                problems.append("%s: input checksum missing" % name)
        return problems


def _verdict_lines(text):
    """The report lines the checks read; timing lines vary run to run."""
    return "\n".join(ln for ln in text.splitlines() if ln.startswith(
        ("PSD ", "MIN_LAMBDA ", "NEGATIVE_LAMBDA", "BAD_FAMILY_", "VERDICT ",
         "input sha256=")))
