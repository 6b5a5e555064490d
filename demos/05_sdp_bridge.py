"""
Regenerating the certificate through an external SDP solver
===========================================================

The bridge writes the verification problem in the standard sparse SDP
interchange format, reads a numeric solution back, rounds it to exact
rationals, and sends the result through the ordinary verification path.
No solver ships with the package; this demo fakes the solver step by
dumping the known solution to a file.

"""

import tempfile
from pathlib import Path

from triflag import (coefficient_table, export_sdp, lambda_vector,
                     load_shipped_certificate, parse_sdp, parse_solution,
                     round_solution, verify)

cert = load_shipped_certificate()
table = coefficient_table(cert)

work = Path(tempfile.mkdtemp())
problem = work / "problem.dat-s"
export_sdp(problem)                     # in the shipped certificate's layout
print(parse_sdp(problem).block_sizes)   # ten 27-blocks plus the slack

# pretend a solver ran: write its solution file from the known answer
lams = lambda_vector(cert, table)
lines = [" ".join(["0.0"] * 792)]
for b, blk in enumerate(cert.blocks, start=1):
    for i in range(27):
        for j in range(i, 27):
            if blk.Q.rows[i][j]:
                lines.append("2 %d %d %d %.17g"
                             % (b, i + 1, j + 1, float(blk.Q.rows[i][j])))
for k, key in enumerate(table.model_keys, start=1):
    lines.append("2 11 %d %d %.17g" % (k, k, float(lams[key])))
solution = work / "solution.txt"
solution.write_text("\n".join(lines) + "\n")

# parse, round to bounded-denominator rationals, and re-verify
numeric = parse_solution(solution)
rounded = round_solution(numeric, max_den=4 * 10**6)
print(rounded == cert)                  # exact recovery
print(verify(rounded, table).verdict)
