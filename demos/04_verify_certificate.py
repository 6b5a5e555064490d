"""
Verifying the semidefinite certificate exactly
==============================================

The shipped certificate proves that asymptotically at least 1/25 of all
triangles are monochromatic in any 3-colouring of a large complete graph.
Every check below runs in exact rational arithmetic.

"""

from triflag import (coefficient_table, extremal_zero_report,
                     load_shipped_certificate, report_text, verify)

cert = load_shipped_certificate()
print(cert.bound)                       # 1/25
print(len(cert.blocks))                 # ten types

# the expensive part: exact product coefficients for all ten types
# against all 792 five-vertex models
table = coefficient_table(cert)

report = verify(cert, table)
print(report_text(report))

# the bound is tight: the models induced in the 25-vertex extremal
# construction all sit exactly on the boundary
rows = extremal_zero_report(report.lambdas)
occurring = [key for key, lam, occ in rows if occ]
assert all(lam == 0 for key, lam, occ in rows if occ)
print("%d models occur in the construction, all with lambda = 0"
      % len(occurring))
