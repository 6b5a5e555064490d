"""Every layer the traced benchmark run patches by name is still reached.

The traced run rebinds the names in `perfbench/tracing.py`'s layer lists
and calls a run incorrect when a patched layer records no span.  These
tests run `perfbench/traced_cli.py` as the verify-cli workload does and
apply the same rule, so a renamed or bypassed layer fails here too.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triflag import certificate as cert_mod

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("with_cert", [False, True],
                         ids=["shipped", "cert-file"])
def test_traced_verify_reaches_every_layer(with_cert, tmp_path):
    tracing = load_tracing()
    args = ["verify"]
    if with_cert:
        cert = tmp_path / "cert.txt"
        cert.write_text(cert_mod.shipped_certificate_text())
        args += ["--cert", str(cert)]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]))
    run = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans)] + args,
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "VERDICT VERIFIED"
    tracer = tracing.Tracer()
    tracer.merge(spans)
    tracer.patched = [name for _, _, name, _ in tracing.VERIFY_LAYERS]
    assert tracer.unreached() == []


def test_every_sdp_layer_exists():
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.SDP_LAYERS:
        assert hasattr(importlib.import_module(module_name), attr), attr
