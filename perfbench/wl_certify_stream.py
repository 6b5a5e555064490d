"""certify-stream: one long-lived process verifying candidate certificates.

Set-up builds the coefficient table of the shipped layout once.  Each
operation takes one candidate from text to verdict: certificate text goes
through `load_certificate`, a float solver file through `parse_solution` and
`round_solution`; a candidate whose flag layout differs from the shipped one
gets a fresh table; then `verify`.  One round holds every candidate once, so
the same layers are driven through their failing paths as well as their
passing ones, in the same proportion in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

import oracles
import tracing

NEAR_DEN = 4 * 10**6     # recovers the shipped entries from 1e-14 noise
COARSE_DEN = 10**3       # too coarse: most blocks stop being PSD
NOISE = 1e-14
LAMBDA_SAMPLE = 24       # lambdas per failing candidate recomputed here
SUM_RULE_SAMPLE = 60     # models whose table cells are re-counted here
LINES_PER_BLOCK = 60     # TYPE, 3 rows, FLAGS, 27 vectors, Q, 27 rows


@dataclass(frozen=True)
class Candidate:
    name: str
    text: str = ""             # certificate text, or
    solution: str = ""         # path of a float solution file
    max_den: int = 0
    malformed: bool = False    # expected to end in CertificateError


class Workload:
    def __init__(self, seed, workdir, tracer):
        self.rng = random.Random(seed)
        self.check_rng = random.Random("check-%d" % seed)
        self.workdir = workdir
        self.tr = tracer

    def setup(self):
        tracing.patch_all(self.tr, tracing.VERIFY_LAYERS + tracing.SDP_LAYERS)
        from triflag import certificate, exact, sdp
        self.C, self.exact, self.sdp = certificate, exact, sdp
        shipped_text = certificate.shipped_certificate_text()
        self.shipped = certificate.load_certificate(shipped_text)
        self.table = certificate.coefficient_table(self.shipped)
        self.candidates = self._candidates(shipped_text)

    # -- inputs ---------------------------------------------------------

    def _candidates(self, shipped_text):
        C, rng, shipped = self.C, self.rng, self.shipped
        self.delta = Fraction(1, rng.randrange(10**6, 10**8))
        self.negated = rng.randrange(10)
        self.perms = [[rng.sample(range(27), 27) for _ in range(10)]
                      for _ in range(2)]
        lines = shipped_text.splitlines()

        def edited(line_no, new_line):
            out = list(lines)
            out[line_no] = new_line
            return "\n".join(out) + "\n"

        def q_row(block, i):
            return 2 + LINES_PER_BLOCK * block + 33 + i

        cands = [
            Candidate("shipped", text=C.serialize_certificate(shipped)),
            Candidate("bound-lower", text=C.serialize_certificate(
                replace(shipped, bound=shipped.bound - self.delta))),
            Candidate("bound-raise", text=C.serialize_certificate(
                replace(shipped, bound=shipped.bound + self.delta))),
            Candidate("negated", text=C.serialize_certificate(
                self._negated(self.negated))),
        ]
        for t, perms in enumerate(self.perms):
            cands.append(Candidate("permuted-%d" % t,
                                   text=C.serialize_certificate(
                                       permuted(shipped, perms))))
        for name, den in (("sdp-near-0", NEAR_DEN), ("sdp-near-1", NEAR_DEN),
                          ("sdp-coarse", COARSE_DEN)):
            path = self.workdir / ("%s.sol" % name)
            self._write_solution(path)
            cands.append(Candidate(name, solution=str(path), max_den=den))

        # Malformed files.  The first three reach faults in load_certificate
        # and are the same in every run; the last two are rejected today.
        first_q = lines[q_row(0, 0)].split()
        cands += [
            Candidate("bound-zero-den", malformed=True,
                      text=edited(1, "BOUND 1/0")),
            Candidate("q-zero-den", malformed=True, text=edited(
                q_row(0, 0), " ".join(["3/0"] + first_q[1:]))),
            Candidate("trailing-text", malformed=True,
                      text=shipped_text + "TYPE 11\n0 1 1\n"),
        ]
        b, i, j = rng.randrange(10), *sorted(rng.sample(range(27), 2))
        row = lines[q_row(b, i)].split()
        row[j] = _bump(row[j])
        cands += [
            Candidate("asymmetric-q", malformed=True,
                      text=edited(q_row(b, i), " ".join(row))),
            Candidate("truncated", malformed=True, text="\n".join(
                lines[:rng.randrange(2, len(lines) - 1)]) + "\n"),
        ]
        return cands

    def _negated(self, r):
        blocks = list(self.shipped.blocks)
        b = blocks[r]
        blocks[r] = replace(b, Q=type(b.Q)([[-x for x in row]
                                            for row in b.Q.rows]))
        return replace(self.shipped, blocks=tuple(blocks))

    def _write_solution(self, path):
        """Solver-style file: dual vector, then matrix entries of the upper
        triangle of each block, shipped values plus uniform noise."""
        rng = self.rng
        out = [" ".join("%r" % rng.uniform(-1, 1) for _ in range(792))]
        for r, block in enumerate(self.shipped.blocks, start=1):
            q = block.Q.rows
            for i in range(27):
                for j in range(i, 27):
                    val = float(q[i][j]) + rng.uniform(-NOISE, NOISE)
                    out.append("2 %d %d %d %r" % (r, i + 1, j + 1, val))
        path.write_text("\n".join(out) + "\n")

    # -- operations -----------------------------------------------------

    def round_ops(self):
        return self.candidates

    def run(self, cand):
        C = self.C
        if cand.solution:
            solution = self.sdp.parse_solution(cand.solution)
            cert = self.sdp.round_solution(solution, max_den=cand.max_den)
        else:
            cert = C.load_certificate(cand.text)
        same_layout = all(a.type_sigma == b.type_sigma
                          and a.vectors == b.vectors
                          for a, b in zip(cert.blocks, self.shipped.blocks))
        table = self.table if same_layout else C.coefficient_table(cert)
        return cert, C.verify(cert, table)

    def failed(self, cand, out, err):
        if cand.malformed:
            return not isinstance(err, self.C.CertificateError)
        return err is not None

    def digest(self, out, err):
        if err is not None:
            return type(err).__name__, str(err)
        cert, rep = out
        return (rep.psd_ok, rep.lambdas, rep.bad_family_violations,
                rep.verified, cert.bound, tuple(b.Q for b in cert.blocks))

    # -- checks ---------------------------------------------------------

    def check(self, first):
        problems = []
        rng = self.check_rng
        shipped, table = self.shipped, self.table
        keys = table.model_keys
        own = oracles.lambdas(shipped, table, keys)
        tight = {k for k, lam in own.items() if lam == 0}
        problems += oracles.table_sum_rule(
            shipped, table, rng.sample(keys, SUM_RULE_SAMPLE))
        psd_memo = {}
        d = self.delta
        for cand, (out, err) in zip(self.candidates, first):
            if out is None or cand.malformed:
                continue            # failed operations are counted, not checked
            cert, rep = out
            bad = []
            perms = None
            if cand.name.startswith("permuted"):
                perms = self.perms[int(cand.name[-1])]
                if not all(oracles.is_permuted_copy(b, s, p) for b, s, p
                           in zip(cert.blocks, shipped.blocks, perms)):
                    bad.append("loaded blocks are not the permuted layout")
            bad += self._check_psd(cert, rep, psd_memo, perms)
            if rep.verified != (all(rep.psd_ok) and rep.bad_family_ok and
                                all(v >= 0 for v in rep.lambdas.values())):
                bad.append("verdict does not follow from the report")
            name = cand.name
            if perms is not None:
                want = own
            elif name == "bound-lower":
                want = {k: v + d for k, v in own.items()}
                if rep.min_lambda != d:
                    bad.append("min lambda %s, expected delta" % rep.min_lambda)
            elif name == "bound-raise":
                want = {k: v - d for k, v in own.items()}
                if any(rep.lambdas[k] != -d for k in tight):
                    bad.append("tight models do not read -delta")
                if set(rep.negative_lambda_keys) != {
                        k for k, v in own.items() if v < d}:
                    bad.append("negative lambdas are not the models below delta")
            elif name == "shipped" or name.startswith("sdp-near"):
                if cert.bound != shipped.bound or any(
                        a.Q != b.Q for a, b in zip(cert.blocks, shipped.blocks)):
                    bad.append("certificate differs from the shipped one")
                want = own
            else:                   # negated, sdp-coarse: a sample of lambdas
                if name == "negated" and rep.psd_failed_blocks != [
                        self.negated + 1]:
                    bad.append("negated block %d not the only PSD failure"
                               % (self.negated + 1))
                want = oracles.lambdas(cert, table,
                                       rng.sample(keys, LAMBDA_SAMPLE))
            if any(rep.lambdas[k] != v for k, v in want.items()):
                bad.append("lambdas differ from the sums over table cells")
            if len(want) == len(keys) and rep.bad_family_ok == any(
                    oracles.has_bad_subgraph(k)
                    for k, v in want.items() if v <= 0):
                bad.append("bad-family condition %s" % rep.bad_family_ok)
            expect_ok = name in ("shipped", "bound-lower") or \
                name.startswith(("permuted", "sdp-near"))
            if rep.verified != expect_ok:
                bad.append("verdict %s" % rep.verdict)
            problems += ["%s: %s" % (name, b) for b in bad]
        return problems

    def _check_psd(self, cert, rep, memo, perms=None):
        """PSD verdicts: sympy confirms each distinct PSD block; a NotPSD
        block's witness must give v^T Q v < 0 by the sum in `oracles`.  A
        block of a permuted layout is checked as the shipped block it was
        shown to be a permuted copy of."""
        bad = []
        for r, (block, ok) in enumerate(zip(cert.blocks, rep.psd_ok)):
            if ok:
                key = block.Q.rows if perms is None else \
                    self.shipped.blocks[r].Q.rows
                if key not in memo:
                    memo[key] = oracles.sympy_psd(key)
                if not memo[key]:
                    bad.append("block %d reported PSD, sympy disagrees"
                               % (r + 1))
                continue
            verdict = self.exact.psd_check(block.Q)
            if verdict.is_psd or not (oracles.quadratic_form(
                    block.Q.rows, verdict.witness) < 0):
                bad.append("block %d: witness does not show NotPSD" % (r + 1))
        return bad


def permuted(cert, perms):
    """`cert` with the flags of block r listed in the order perms[r]."""
    blocks = []
    for b, p in zip(cert.blocks, perms):
        rows = [[b.Q.rows[p[i]][p[j]] for j in range(27)] for i in range(27)]
        blocks.append(replace(b, vectors=tuple(b.vectors[k] for k in p),
                              flags=tuple(b.flags[k] for k in p),
                              Q=type(b.Q)(rows)))
    return replace(cert, blocks=tuple(blocks))


def _bump(token):
    """A different rational token."""
    x = Fraction(token) + 1
    return str(x.numerator) if x.denominator == 1 else \
        "%d/%d" % (x.numerator, x.denominator)
