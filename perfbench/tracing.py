"""Span recording for the traced benchmark run.

Spans are kept in memory (name, start, end, parent span, operation id) and
written out when the run ends.  Their clock is the process's CPU time
(`time.process_time`), like the end-to-end metrics.  They are recorded only
by this directory's code: `Tracer.patch` rebinds a name in one of the
package's modules to a wrapper that opens a span around each call.  Calls a
module makes to a function through its own binding of that name are
therefore timed too, which is how the spans reach inside `verify` and
`coefficient_table`.  Names bound elsewhere (for example `extremal`'s own
import of `mono_triangles`) are left alone, so only the calls listed by a
workload are timed.  A listed name that is missing stops the run, and one
that records no call makes the run incorrect (`Tracer.unreached`): after a
rename or a rebinding, the layer must not read 0, as an unreached layer
does.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import nullcontext

SETUP_OP = -1


class Tracer:
    """In-memory span recorder."""

    enabled = True

    def __init__(self):
        self.spans = []          # dicts: name, start, end, parent, op, extra
        self.op = SETUP_OP       # id of the operation in flight
        self._stack = []
        self._patches = []
        self._calls = {}         # base span name -> calls so far
        self.patched = []        # base span names, in patch order

    def span(self, name):
        return _Span(self, name)

    def add(self, name, start, end):
        """Record a span measured outside `span` (an import)."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": None, "op": self.op, "extra": {}})

    def merge(self, path):
        """Add the spans a child process wrote to `path`, under the current
        operation."""
        with open(path) as fh:
            child = json.load(fh)["spans"]
        base = len(self.spans)
        for sp in child:
            if sp["parent"] is not None:
                sp["parent"] += base
            sp["op"] = self.op
            self.spans.append(sp)

    def patch(self, module_name, attr, name, classify=None):
        """Open a span around every call through `module_name.attr`.

        `classify(args, result, calls_before)` may return a suffix for the
        span name and extra fields to store with the span.  A missing
        attribute raises AttributeError.
        """
        module = importlib.import_module(module_name)
        orig = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            calls = tracer._calls.get(name, 0)
            tracer._calls[name] = calls + 1
            with tracer.span(name) as rec:
                result = orig(*args, **kwargs)
                if classify is not None:
                    suffix, extra = classify(args, result, calls)
                    if suffix:
                        rec["name"] = name + "." + suffix
                    rec["extra"].update(extra)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))
        self.patched.append(name)

    def unreached(self):
        """One problem line for each patched name with no span."""
        seen = {sp["name"] for sp in self.spans}
        return ["layer %s was patched but recorded no call" % name
                for name in self.patched
                if not any(s == name or s.startswith(name + ".")
                           for s in seen)]

    def unpatch(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.rec = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": None, "op": tracer.op, "extra": {}}

    def __enter__(self):
        tr = self.tracer
        rec = self.rec
        if tr._stack:
            rec["parent"] = tr._stack[-1]
        tr._stack.append(len(tr.spans))
        tr.spans.append(rec)
        rec["start"] = time.process_time()
        return rec

    def __exit__(self, *exc):
        self.rec["end"] = time.process_time()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """Stands in for `Tracer` in the untraced run; records nothing."""

    enabled = False
    op = SETUP_OP

    def span(self, name):
        return nullcontext()

    def patch(self, module_name, attr, name, classify=None):
        pass

    def unpatch(self):
        pass

    def unreached(self):
        return []


def psd_outcome(args, result, calls):
    return ("" if result.is_psd else "fail"), {}


def first_call_cold(args, result, calls):
    return ("cold" if calls == 0 else "warm"), {}


# Each entry: (module, attribute, span name, classifier).
VERIFY_LAYERS = [
    ("triflag.certificate", "load_certificate",
     "certificate.load_certificate", None),
    ("triflag.certificate", "coefficient_table",
     "certificate.coefficient_table", None),
    ("triflag.certificate", "triangle_pair_counts",
     "flags.triangle_pair_counts", None),
    ("triflag.certificate", "psd_check", "exact.psd_check", psd_outcome),
    ("triflag.certificate", "lambda_vector",
     "certificate.lambda_vector", None),
    ("triflag.certificate", "verify", "certificate.verify", None),
    ("triflag.certificate", "enumerate_models",
     "graphs.enumerate_models", first_call_cold),
]

SDP_LAYERS = [
    ("triflag.sdp", "parse_solution", "sdp.parse_solution", None),
    ("triflag.sdp", "round_solution", "sdp.round_solution", None),
]


def patch_all(tracer, layers):
    for module_name, attr, name, classify in layers:
        tracer.patch(module_name, attr, name, classify)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, measured_ops):
    """Per-layer metrics from a list of span dicts.

    Times are medians per call over the whole run (set-up included, since
    some layers run only there).  Counts are per measured operation, taken
    over spans of measured operations only, so they repeat exactly for
    whole rounds of the same operations.
    """
    by_name = {}
    child_time = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        by_name.setdefault(sp["name"], []).append(i)
        if sp["parent"] is not None:
            child_time[sp["parent"]] += sp["end"] - sp["start"]

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"]
                for i in by_name.get(name, ())]

    def measured(name):
        return [spans[i] for i in by_name.get(name, ())
                if spans[i]["op"] != SETUP_OP]

    def per_op(total):
        return total / measured_ops if measured_ops else 0.0

    verify_self = [spans[i]["end"] - spans[i]["start"] - child_time[i]
                   for i in by_name.get("certificate.verify", ())]
    m = {
        "cli.import_s": _median(durations("cli.import")),
        "certificate.load_certificate_s":
            _median(durations("certificate.load_certificate")),
        "certificate.coefficient_table_s":
            _median(durations("certificate.coefficient_table")),
        "flags.triangle_pair_counts_s":
            _median(durations("flags.triangle_pair_counts")),
        "flags.triangle_pair_counts_calls":
            per_op(len(measured("flags.triangle_pair_counts"))),
        "exact.psd_check_s": _median(durations("exact.psd_check")),
        "exact.psd_check_fail_s": _median(durations("exact.psd_check.fail")),
        "certificate.lambda_vector_s":
            _median(durations("certificate.lambda_vector")),
        "certificate.verify.self_s": _median(verify_self),
        "graphs.enumerate_models.cold_s":
            _median(durations("graphs.enumerate_models.cold")),
        "graphs.enumerate_models.warm_s":
            _median(durations("graphs.enumerate_models.warm")),
        "sdp.parse_solution_s": _median(durations("sdp.parse_solution")),
        "sdp.round_solution_s": _median(durations("sdp.round_solution")),
        "graphs.subgraph_class_counts.extremal_s":
            _median(durations("graphs.subgraph_class_counts.extremal")),
        "graphs.subgraph_class_counts.random_s":
            _median(durations("graphs.subgraph_class_counts.random")),
        "graphs.canonicalised_listings": per_op(sum(
            sp["extra"]["rows"]
            for sp in measured("graphs.canonical_keys_batch"))),
        "graphs.is_isomorphic.small_s":
            _median(durations("graphs.is_isomorphic.small")),
        "graphs.is_isomorphic.large_s":
            _median(durations("graphs.is_isomorphic.large")),
        "graphs.mono_triangles_s": _median(durations("graphs.mono_triangles")),
        "extremal.build_gex_s": _median(durations("extremal.build_gex")),
        "extremal.is_member_gn_s": _median(durations("extremal.is_member_gn")),
    }
    return m


# name -> unit, in BENCHMARK.json order
LAYER_UNITS = {name: ("s" if name.endswith("_s") else "count")
               for name in layer_metrics([], 0)}
