import dataclasses

import triflag

# The public names of the package.  Adding or removing one is an API
# change: update this list in the same change.
PUBLIC_NAMES = [
    "Certificate", "CertificateBlock", "CertificateError", "ClassPartition",
    "CoefficientTable", "ColouredGraph", "DEFAULT_MAX_DEN", "Flag",
    "InexactDivisionError", "LdlFactorization", "MembershipWitness",
    "PsdVerdict", "SdpFormatError", "SizeLimitError",
    "SymMatrix", "VerificationReport",
    "WitnessError", "avg_coefficient", "bad_family", "brute_min_mono",
    "build_gex", "canonical_key", "certificate",
    "class_sizes", "coefficient_table", "corollary_value",
    "count_models_polya", "density", "enumerate_flags", "enumerate_models",
    "exact", "export_sdp", "extremal", "extremal_zero_report",
    "flag_density", "flag_from_vector", "flags", "format_graph",
    "format_rational", "goodman", "graphs", "identity_flag",
    "is_isomorphic", "is_member_gn", "lambda_vector", "load_certificate",
    "load_shipped_certificate", "mono_triangles", "parse_graph",
    "parse_rational", "parse_solution", "pentagon_base",
    "psd_check", "rational_reconstruct", "report_text", "round_solution",
    "sdp", "serialize_certificate", "subgraph_class_counts", "ten_types",
    "vector_of_flag", "verify", "verify_chain_rule",
]


def test_public_surface_is_pinned():
    assert sorted(triflag.__all__) == PUBLIC_NAMES


# The dataclass fields the benchmark under perfbench/ reads and passes to
# dataclasses.replace(); renaming one breaks it.
def test_benchmark_fields_are_pinned():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(triflag.Certificate) == ["bound", "blocks"]
    assert names(triflag.CertificateBlock) == ["type_sigma", "vectors",
                                               "flags", "Q"]
    assert names(triflag.CoefficientTable) == ["model_keys", "counts",
                                               "valid_injections"]
