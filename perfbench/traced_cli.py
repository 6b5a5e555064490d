"""Run one `triflag` command with the verification layers traced.

    python3 perfbench/traced_cli.py SPANS_OUT verify [--cert PATH]

Used by the traced run of the verify-cli workload in place of
`python -m triflag.cli`.  Times the package import, then rebinds the layer
functions listed in `tracing.VERIFY_LAYERS`, runs the command and writes the
spans to SPANS_OUT.  Exits with the command's exit code.
"""

import sys
import time

t0 = time.process_time()
import triflag.cli  # noqa: E402

t1 = time.process_time()
import tracing  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.add("cli.import", t0, t1)
    tracing.patch_all(tracer, tracing.VERIFY_LAYERS)
    code = triflag.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
