"""Command-line interface.

Subcommands bind the library into reproducible batch workflows.  Exit codes:
0 when the command's core assertion held, 1 when it failed, 2 on I/O or
parse errors.  Reports embed the tool version and a checksum of every input
file so runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import __version__
from . import certificate as cert_mod
from . import sdp as sdp_mod
from .exact import DEFAULT_MAX_DEN, format_rational
from .extremal import brute_min_mono, build_gex, is_member_gn
from .graphs import (_open_text, corollary_value, count_models_polya,
                     enumerate_models, format_graph, goodman, mono_triangles,
                     parse_graph)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _stamp(inputs=()) -> list:
    lines = ["triflag %s" % __version__]
    for path in inputs:
        lines.append("input sha256=%s path=%s" % (_sha256(path), path))
    return lines


def _write(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(lines, out_path=None):
    text = "\n".join(lines) + "\n"
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def _positive_int(text: str) -> int:
    """The argparse type of --max-den: a decimal integer >= 1."""
    if text.isascii() and text.isdigit() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError("expected an integer >= 1: %r" % text)


def _load_graph(path):
    with _open_text(path) as fh:
        return parse_graph(fh)


def cmd_enumerate(args) -> int:
    models = enumerate_models(args.n, args.k)
    expected = count_models_polya(args.n, args.k)
    lines = []
    for M in models:
        lines.append(format_graph(M).rstrip("\n"))
        lines.append("")
    lines.append("count %d" % len(models))
    if args.out:
        _write(args.out, "\n".join(lines) + "\n")
    print("models=%d polya=%d %s"
          % (len(models), expected, "OK" if len(models) == expected else "MISMATCH"))
    return 0 if len(models) == expected else 1


def cmd_verify(args) -> int:
    if args.cert:
        with _open_text(args.cert) as fh:
            cert = cert_mod.load_certificate(fh)
        lines = _stamp([args.cert])
    else:
        cert = cert_mod.load_shipped_certificate()
        lines = _stamp()
        lines.append("input sha256=%s path=<shipped>"
                     % hashlib.sha256(
                         cert_mod.shipped_certificate_text().encode()).hexdigest())
    report = cert_mod.verify(cert)
    lines.append(cert_mod.report_text(report).rstrip("\n"))
    _emit(lines, args.out)
    return 0 if report.verified else 1


def cmd_extremal(args) -> int:
    G = build_gex(args.n)
    tri = mono_triangles(G)["total"]
    formula = corollary_value(args.n)
    if args.out:
        _write(args.out, format_graph(G))
    print("triangles=%d formula=%d %s"
          % (tri, formula, "OK" if tri == formula else "MISMATCH"))
    return 0 if tri == formula else 1


def cmd_check_gn(args) -> int:
    G = _load_graph(args.graph)
    member, witness = is_member_gn(G)
    if member:
        sizes = sorted(map(len, witness.partition.classes), reverse=True)
        print("member colour=%d classes=%s"
              % (witness.partition.colour, ",".join(map(str, sizes))))
        return 0
    print("not a member")
    return 1


def cmd_count(args) -> int:
    G = _load_graph(args.graph)
    per = mono_triangles(G)
    formula = corollary_value(G.n) if G.k == 3 and G.n >= 5 else None
    line = "triangles=%d by_colour=%s" % (
        per["total"], ",".join(str(per[c]) for c in range(1, G.k + 1)))
    if formula is not None:
        line += " formula=%d" % formula
    print(line)
    return 0


def cmd_brute(args) -> int:
    best, minimisers = brute_min_mono(args.n, args.k)
    line = "minimum=%d minimisers=%d" % (best, len(minimisers))
    ok = True
    if args.k == 2:
        formula = goodman(args.n)
        ok = best == formula
        line += " formula=%d %s" % (formula, "OK" if ok else "MISMATCH")
    print(line)
    return 0 if ok else 1


def cmd_goodman(args) -> int:
    formula = goodman(args.n)
    if args.n <= 7:
        brute, _ = brute_min_mono(args.n, 2)
        ok = brute == formula
        print("formula=%d brute=%d %s"
              % (formula, brute, "OK" if ok else "MISMATCH"))
        return 0 if ok else 1
    print("formula=%d" % formula)
    return 0


def cmd_sdp_export(args) -> int:
    sdp_mod.export_sdp(args.out)
    print("wrote %s (m=%d blocks=%d)"
          % (args.out, sdp_mod.NUM_MODELS, sdp_mod.NUM_BLOCKS))
    return 0


def cmd_sdp_round(args) -> int:
    solution = sdp_mod.parse_solution(args.solution)
    cert = sdp_mod.round_solution(solution, max_den=args.max_den)
    if args.out:
        _write(args.out, cert_mod.serialize_certificate(cert))
    report = cert_mod.verify(cert)
    lines = _stamp([args.solution])
    lines.append("max_den=%d bound=%s" % (args.max_den,
                                          format_rational(cert.bound)))
    lines.append(cert_mod.report_text(report).rstrip("\n"))
    _emit(lines)
    return 0 if report.verified else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="triflag",
        description="Exact tools for the minimum monochromatic-triangle "
                    "density 1/25 in 3-coloured complete graphs.")
    p.add_argument("--version", action="version",
                   version="triflag " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate",
                        help="enumerate coloured graphs up to isomorphism")
    sp.add_argument("--n", type=int, required=True, help="vertex count")
    sp.add_argument("--k", type=int, default=3, help="colour count")
    sp.add_argument("--out", help="write the model list here")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("verify", help="verify a certificate exactly")
    sp.add_argument("--cert", help="certificate path (default: shipped)")
    sp.add_argument("--out", help="write the report here")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("extremal", help="build the blow-up construction")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", help="write the graph here")
    sp.set_defaults(func=cmd_extremal)

    sp = sub.add_parser("check-gn",
                        help="test membership in the extremal family")
    sp.add_argument("graph", help="graph file")
    sp.set_defaults(func=cmd_check_gn)

    sp = sub.add_parser("count", help="count monochromatic triangles")
    sp.add_argument("graph", help="graph file")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("brute",
                        help="exact minimum by exhaustive search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=3)
    sp.set_defaults(func=cmd_brute)

    sp = sub.add_parser("goodman", help="two-colour minimum formula")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_goodman)

    sp = sub.add_parser("sdp-export", help="write the sparse SDP problem")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sdp_export)

    sp = sub.add_parser("sdp-round",
                        help="round a solver solution and verify it")
    sp.add_argument("solution", help="solver solution file")
    sp.add_argument("--max-den", type=_positive_int, default=DEFAULT_MAX_DEN)
    sp.add_argument("--out", help="write the rounded certificate here")
    sp.set_defaults(func=cmd_sdp_round)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
