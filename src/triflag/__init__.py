"""Exact verification toolkit for the minimum monochromatic-triangle
density in 3-edge-coloured complete graphs.

The headline fact: over all 3-colourings of the edges of K_n, the minimum
proportion of monochromatic triangles tends to 1/25, attained by balanced
blow-ups of the unique triangle-free 2-colouring of K_5.  The lower bound
is a semidefinite certificate checked here in exact rational arithmetic;
the upper bound is the explicit construction in `extremal`.
"""

import os as _os

# Set before any submodule imports numpy.  The only BLAS work in the package
# is one small eigensolve per PSD block in `exact`, too small to share out;
# an idle OpenBLAS thread pool beside it only burns CPU.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .exact import (SymMatrix, LdlFactorization, PsdVerdict, WitnessError,
                    InexactDivisionError, psd_check, parse_rational,
                    format_rational, rational_reconstruct, DEFAULT_MAX_DEN)
from .graphs import (ColouredGraph, SizeLimitError, canonical_key,
                     is_isomorphic, enumerate_models,
                     count_models_polya, density, subgraph_class_counts,
                     mono_triangles, goodman, corollary_value, bad_family,
                     format_graph, parse_graph)
from .flags import (Flag, ten_types, identity_flag,
                    flag_from_vector, vector_of_flag, enumerate_flags,
                    flag_density, avg_coefficient, verify_chain_rule)
from .certificate import (Certificate, CertificateBlock, CertificateError,
                          CoefficientTable, VerificationReport,
                          load_certificate, serialize_certificate,
                          load_shipped_certificate, coefficient_table,
                          lambda_vector, verify, report_text,
                          extremal_zero_report)
from .extremal import (ClassPartition, MembershipWitness, pentagon_base,
                       build_gex, class_sizes, is_member_gn, brute_min_mono)
from .sdp import (SdpFormatError, export_sdp, parse_solution,
                  round_solution)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
