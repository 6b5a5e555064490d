import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import triflag
from triflag.certificate import (Certificate, CertificateBlock,
                                 serialize_certificate,
                                 shipped_certificate_text)
from triflag.exact import DEFAULT_MAX_DEN, SymMatrix
from triflag.cli import build_parser, main
from triflag.extremal import build_gex
from triflag.graphs import GRAPH_MAX_N, format_graph, parse_graph


SRC = str(Path(triflag.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_python(*args):
    """A fresh interpreter with this package first on its path."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=path))


def test_enumerate(tmp_path, capsys):
    out = tmp_path / "models.txt"
    code, stdout, _ = run(capsys, "enumerate", "--n", "4", "--k", "3",
                          "--out", str(out))
    assert code == 0
    assert "models=66 polya=66 OK" in stdout
    text = out.read_text()
    assert text.count("4 3\n") == 66
    assert text.rstrip().endswith("count 66")


def test_verify_shipped(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, "verify", "--out", str(report))
    assert code == 0
    assert "VERDICT VERIFIED" in stdout
    text = report.read_text()
    assert "triflag" in text
    assert "sha256" in text


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--cert", "/no/such/file")
    assert code == 2
    assert "error" in err


def test_verify_corrupted_bound(tmp_path, capsys, shipped_cert):
    bad = Certificate(Fraction(1, 24), shipped_cert.blocks)
    path = tmp_path / "bad.cert"
    path.write_text(serialize_certificate(bad))
    code, stdout, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 1
    assert "VERDICT FAILED" in stdout


def test_verify_unparsable_certificate(tmp_path, capsys):
    path = tmp_path / "garbage.cert"
    path.write_text("FLAGCERT 1\nBOUND nonsense\n")
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2


@pytest.mark.parametrize("old, new", [
    ("BOUND 1/25", "BOUND 1/0"),
    ("Q 27\n24/25 ", "Q 27\n3/0 "),
])
def test_verify_zero_denominator(tmp_path, capsys, old, new):
    text = shipped_certificate_text()
    assert old in text
    path = tmp_path / "zero-den.cert"
    path.write_text(text.replace(old, new, 1))
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2
    assert "denominator must be positive" in err


def test_witness_check_survives_optimized_interpreter(tmp_path,
                                                       shipped_cert):
    blocks = list(shipped_cert.blocks)
    b = blocks[0]
    blocks[0] = CertificateBlock(
        b.type_sigma, b.vectors, b.flags,
        SymMatrix([[-x for x in row] for row in b.Q.rows]))
    path = tmp_path / "negated.cert"
    path.write_text(serialize_certificate(
        Certificate(shipped_cert.bound, tuple(blocks))))
    proc = run_python("-O", "-m", "triflag.cli", "verify", "--cert",
                      str(path))
    assert proc.returncode == 1, proc.stderr
    assert "PSD block=1 FAILED" in proc.stdout


def test_inexact_division_survives_optimized_interpreter():
    code = ("import triflag.exact as e\n"
            "q = e._exact_quotients\n"
            "e._exact_quotients = lambda v, d: q([x + (d > 1) for x in v], d)\n"
            "try:\n"
            "    e.psd_check(e.SymMatrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))\n"
            "except e.InexactDivisionError:\n"
            "    print('raised')\n")
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


@pytest.mark.parametrize("setting, want", [(None, "1"), ("3", "3")])
def test_openblas_threads_default_to_one(monkeypatch, setting, want):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if setting is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
    proc = run_python("-c", "import os, triflag; "
                            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want + "\n"


@pytest.mark.parametrize("module", ["triflag.exact", "triflag.graphs"])
def test_openblas_default_is_set_before_numpy_loads(monkeypatch, module):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code = ("import os, sys\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy':\n"
            "        seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.addaudithook(hook)\n"
            "import %s\n"
            "print(seen[:1])\n" % module)
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['1']\n"


def test_cli_import_leaves_networkx_unloaded():
    proc = run_python("-c", "import sys, triflag.cli; "
                            "sys.exit('networkx' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_extremal_and_count_and_check(tmp_path, capsys):
    graph = tmp_path / "gex11.txt"
    code, stdout, _ = run(capsys, "extremal", "--n", "11",
                          "--out", str(graph))
    assert code == 0
    assert "triangles=1 formula=1 OK" in stdout
    assert parse_graph(graph.read_text()) == build_gex(11)

    code, stdout, _ = run(capsys, "count", str(graph))
    assert code == 0
    assert stdout == "triangles=1 by_colour=1,0,0 formula=1\n"

    code, stdout, _ = run(capsys, "check-gn", str(graph))
    assert code == 0
    assert "member" in stdout


def test_extremal_refuses_a_vertex_count_above_the_bound(capsys):
    start = time.perf_counter()
    code, stdout, err = run(capsys, "extremal", "--n", str(GRAPH_MAX_N + 1))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert stdout == ""
    assert err == "error: vertex count must be 0 <= n <= %d, got %d\n" % (
        GRAPH_MAX_N, GRAPH_MAX_N + 1)


def test_count_refuses_a_graph_file_above_the_bound_at_its_header(
        tmp_path, capsys):
    # refused at the header: neither the 20 MB of rows behind it nor the bad
    # last row is parsed (test_graphs checks that none is read)
    path = tmp_path / "g.txt"
    row = " ".join(["1"] * (GRAPH_MAX_N + 1)) + "\n"
    path.write_text("%d 3\n" % (GRAPH_MAX_N + 1)
                    + row * (20_000_000 // len(row)) + "x\n")
    code, stdout, err = run(capsys, "count", str(path))
    assert code == 2
    assert stdout == ""
    assert err == "error: vertex count must be 0 <= n <= %d, got %d\n" % (
        GRAPH_MAX_N, GRAPH_MAX_N + 1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the process's own peak RSS (VmHWM)")
@pytest.mark.parametrize("command", [["count"], ["verify", "--cert"],
                                     ["sdp-round"]],
                         ids=["count", "verify", "sdp-round"])
def test_a_long_first_line_is_refused_without_holding_it(tmp_path, command):
    # a 20 MB first line is refused after its first 256 KiB; each file runs
    # in a fresh process, which prints its own peak RSS (VmHWM, kB) at exit.
    # ru_maxrss would not do: Linux carries the parent's peak into it
    # across fork and exec
    script = ("import atexit, re, sys; atexit.register(lambda: print("
              "re.search(r'VmHWM:\\s*(\\d+)', open('/proc/self/status')"
              ".read())[1])); "
              "from triflag.cli import main; sys.exit(main(sys.argv[1:]))")
    long_line = tmp_path / "long.txt"
    long_line.write_text("%d%s3\n" % (GRAPH_MAX_N + 1, " " * 20_000_000))
    one_line = tmp_path / "one.txt"
    one_line.write_text("%d 3\n" % (GRAPH_MAX_N + 1))
    peak, err = {}, {}
    for path in (long_line, one_line):
        proc = run_python("-c", script, *command, str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        peak[path], err[path] = int(proc.stdout), proc.stderr
    assert err[long_line] == ("error: line 1 is longer than 262144 "
                              "characters\n")
    assert peak[long_line] <= peak[one_line] + 2048


@pytest.mark.parametrize("command", [["count"], ["check-gn"],
                                     ["verify", "--cert"], ["sdp-round"]],
                         ids=["count", "check-gn", "verify", "sdp-round"])
def test_a_byte_that_is_not_utf8_is_refused_naming_its_line(tmp_path, capsys,
                                                            command):
    # the byte lies well past the first 8 KiB, which a decoding file would
    # read ahead of the line it returns
    if command[0] == "verify":
        lines = shipped_certificate_text().splitlines()
    elif command[0] == "sdp-round":
        lines = [" ".join(["0"] * 792)] + ["2 1 1 1 1.0"] * 2000
    else:
        lines = format_graph(build_gex(100)).splitlines()
    number = len(lines) - 3
    data = [line.encode() for line in lines]
    data[number - 1] = data[number - 1][:3] + b"\xff" + data[number - 1][3:]
    path = tmp_path / "input.txt"
    path.write_bytes(b"\n".join(data) + b"\n")
    assert b"\n".join(data).index(b"\xff") > 2 * 8192
    code, stdout, err = run(capsys, *command, str(path))
    assert code == 2
    assert stdout == ""
    assert err == "error: line %d: byte 0xff is not UTF-8\n" % number


def test_file_commands_name_their_encoding(tmp_path):
    # under -X warn_default_encoding a text file opened without an
    # encoding warns, and -W error turns the warning into a traceback
    solution = tmp_path / "sol.txt"
    solution.write_text(" ".join(["0"] * 792) + "\n2 1 1 1 1.0\n")
    files = {name: str(tmp_path / name)
             for name in ("models", "g", "problem", "cert", "report")}
    commands = [["enumerate", "--n", "4", "--out", files["models"]],
                ["extremal", "--n", "11", "--out", files["g"]],
                ["count", files["g"]],
                ["check-gn", files["g"]],
                ["verify"],
                ["sdp-export", "--out", files["problem"]],
                ["sdp-round", str(solution), "--out", files["cert"]],
                ["verify", "--cert", files["cert"], "--out", files["report"]]]
    proc = run_python("-X", "warn_default_encoding",
                      "-W", "error::EncodingWarning", "-c",
                      "from triflag.cli import main; "
                      "print([main(argv) for argv in %r])" % commands)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 1, 1]"


def test_extremal_has_no_colour_count_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extremal", "--n", "11", "--k", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sdp-export", "--out", "p.dat-s"],
                                  ["sdp-round", "solution.txt"]])
def test_sdp_commands_have_no_layout_option(capsys, argv):
    # the bridge has one layout, the shipped certificate's
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cert", "my.cert"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cert my.cert" in capsys.readouterr().err


def test_sdp_round_default_max_den_is_the_library_default():
    args = build_parser().parse_args(["sdp-round", "solution.txt"])
    assert args.max_den == DEFAULT_MAX_DEN == 4 * 10**6


@pytest.mark.parametrize("value", ["0", "-5", "x", "1.5", "\u0661"])
def test_sdp_round_max_den_below_one_is_a_usage_error(tmp_path, capsys,
                                                      value):
    # argparse rejects it before the solution file is opened: the file
    # does not exist, and a missing file would return 2, not exit with it
    missing = tmp_path / "missing.txt"
    with pytest.raises(SystemExit) as exc:
        main(["sdp-round", str(missing), "--max-den", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: triflag sdp-round")
    assert ("error: argument --max-den: expected an integer >= 1: %r"
            % value) in err


@pytest.mark.parametrize("n, k, entries, want", [
    (4, 1, (1, 1, 1, 1, 1, 1), "triangles=4 by_colour=4\n"),
    (4, 2, (1, 2, 2, 2, 2, 2), "triangles=2 by_colour=0,2\n"),
    (3, 4, (4, 4, 4), "triangles=1 by_colour=0,0,0,1\n"),
    (4, 3, (1, 1, 1, 1, 1, 1), "triangles=4 by_colour=4,0,0\n"),
])
def test_count_reports_every_colour(tmp_path, capsys, n, k, entries, want):
    from triflag.graphs import ColouredGraph
    path = tmp_path / "g.txt"
    path.write_text(format_graph(ColouredGraph(n, k, entries)))
    code, stdout, _ = run(capsys, "count", str(path))
    assert code == 0
    assert stdout == want


def test_count_rejects_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(format_graph(build_gex(5)).replace("3", "\u0663"))
    code, stdout, err = run(capsys, "count", str(path))
    assert code == 2
    assert stdout == ""
    assert "not a decimal integer" in err


def test_enumerate_size_limit(capsys):
    # refused before any gather: 8 vertices by the bytes its candidates
    # would gather (151 GB), 10 by the vertex limit
    for n, k in (("8", "2"), ("10", "1")):
        start = time.perf_counter()
        code, _, err = run(capsys, "enumerate", "--n", n, "--k", k)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
    # 256 does not fit the one-byte colours
    code, _, err = run(capsys, "enumerate", "--n", "2", "--k", "256")
    assert code == 2
    assert "k <= 255" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_enumerate_refuses_a_colour_count_below_one(capsys, k):
    code, _, err = run(capsys, "enumerate", "--n", "5", "--k", k)
    assert code == 2
    assert "error: colour count must be 1 <= k <= 255, got %s" % k in err


@pytest.mark.parametrize("k", ["256", "4000000", "1000000000", "0"])
def test_count_refuses_a_graph_file_with_a_colour_count_out_of_range(
        tmp_path, capsys, k):
    # memory and output grow with k, so a huge k must fail up front
    path = tmp_path / "g.txt"
    path.write_text("3 %s\n0 1 1\n1 0 1\n1 1 0\n" % k)
    code, stdout, err = run(capsys, "count", str(path))
    assert code == 2
    assert stdout == ""
    assert "error: colour count must be 1 <= k <= 255, got %s" % k in err


def test_check_gn_rejects_non_member(tmp_path, capsys):
    path = tmp_path / "red6.txt"
    from triflag.graphs import ColouredGraph
    path.write_text(format_graph(ColouredGraph(6, 3, (1,) * 15)))
    code, stdout, _ = run(capsys, "check-gn", str(path))
    assert code == 1
    assert "not a member" in stdout


def test_check_gn_takes_the_largest_admitted_graph(tmp_path, capsys,
                                                  shuffled_member):
    G = shuffled_member(GRAPH_MAX_N, random.Random(400), 4)
    path = tmp_path / "member400.txt"
    path.write_text(format_graph(G))
    code, stdout, _ = run(capsys, "check-gn", str(path))
    assert code == 0
    assert stdout == "member colour=3 classes=80,80,80,80,80\n"


def test_goodman(capsys):
    code, stdout, _ = run(capsys, "goodman", "--n", "6")
    assert code == 0
    assert "formula=2 brute=2 OK" in stdout
    code, stdout, _ = run(capsys, "goodman", "--n", "100")
    assert code == 0
    assert "formula=39200" in stdout


def test_brute(capsys):
    code, stdout, _ = run(capsys, "brute", "--n", "5", "--k", "3")
    assert code == 0
    assert "minimum=0" in stdout


def test_brute_size_limit(capsys):
    code, _, err = run(capsys, "brute", "--n", "9", "--k", "3")
    assert code == 2


def test_sdp_export_and_round(tmp_path, capsys, shipped_cert,
                              shipped_table):
    prob = tmp_path / "problem.dat-s"
    code, stdout, _ = run(capsys, "sdp-export", "--out", str(prob))
    assert code == 0
    assert prob.exists()

    # build a solution file from the shipped certificate and round-trip it
    from triflag.certificate import lambda_vector
    lams = lambda_vector(shipped_cert, shipped_table)
    lines = [" ".join(["0.0"] * 792)]
    for b, blk in enumerate(shipped_cert.blocks, start=1):
        for i in range(27):
            for j in range(i, 27):
                v = blk.Q.rows[i][j]
                if v:
                    lines.append("2 %d %d %d %.17g" % (b, i + 1, j + 1,
                                                       float(v)))
    for k, key in enumerate(shipped_table.model_keys, start=1):
        lines.append("2 11 %d %d %.17g" % (k, k, float(lams[key])))
    sol = tmp_path / "solution.txt"
    sol.write_text("\n".join(lines) + "\n")

    out_cert = tmp_path / "rounded.cert"
    code, stdout, _ = run(capsys, "sdp-round", str(sol),
                          "--max-den", "4000000", "--out", str(out_cert))
    assert code == 0
    assert "VERDICT VERIFIED" in stdout
    from triflag.certificate import load_certificate
    assert load_certificate(out_cert.read_text()) == shipped_cert


def test_sdp_round_bad_solution(tmp_path, capsys):
    sol = tmp_path / "bad.txt"
    sol.write_text("1.0 2.0\n")
    code, _, err = run(capsys, "sdp-round", str(sol))
    assert code == 2


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_sdp_round_non_finite_value(tmp_path, capsys, value):
    sol = tmp_path / "sol.txt"
    lines = [" ".join(["0"] * 792)]
    lines += ["2 1 %d %d 1.0" % (i, i) for i in range(1, 28)]
    lines.append("2 1 1 2 " + value)             # line 29
    sol.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "sdp-round", str(sol))
    assert code == 2
    assert "line 29: non-finite value" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "triflag %s\n" % triflag.__version__


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
        assert triflag.__version__ == tomllib.load(fh)["project"]["version"]


def test_verify_process_imports_no_unused_modules():
    # numpy.ma came in through np.unique, importlib.metadata through the
    # version stamp; neither is used by verification
    proc = run_python("-c", "\n".join([
        "import sys",
        "before = 'importlib.metadata' in sys.modules",
        "import triflag.cli",
        "code = triflag.cli.main(['verify'])",
        "print(code, before, 'importlib.metadata' in sys.modules,",
        "      'numpy.ma' in sys.modules)"]))
    lines = proc.stdout.splitlines()
    assert lines[0] == "triflag %s" % triflag.__version__
    code, before, after, ma = lines[-1].split()
    assert code == "0"
    assert ma == "False"
    assert after == "False" or before == "True"
