"""Nested spans around landaucap's layer functions, recorded from outside.

`install` replaces each listed function with a wrapper that records a span
(name, start, end, parent) and a few counts read off the return value. The
wrapper is bound under every name in every landaucap module that refers to
the original, so calls through `from .x import f` aliases are traced too.
A listed function the library no longer has is skipped and reported, so a
later refactor reads as zeros rather than as a crash.

`layer_metrics` folds the spans of one operation into the per-layer
metrics. "self" is a span's duration minus its child spans; the operation
runs on one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name, counts read from the return value)
TRACED = (
    ("landaucap.region", "boundary_points", "region.boundary_points", None),
    ("landaucap.weight", "weight_from_config", "weight.weight_from_config", None),
    ("landaucap.weight", "mixed_moments", "weight.mixed_moments",
     lambda r: {"design_degree": r.design_degree}),
    # private, traced only to count the nodes of the 2-d rule a table is built on
    ("landaucap.weight", "_build_rule", "weight.build_rule",
     lambda r: {"nodes": len(r.nodes) if hasattr(r, "nodes") else len(r.rho) * r.ntheta}),
    ("landaucap._mp", "gauss_legendre", "mp.gauss_legendre", lambda r: {"nodes": len(r[0])}),
    ("landaucap._mp", "tanh_sinh", "mp.tanh_sinh", lambda r: {"nodes": len(r)}),
    ("landaucap._mp", "hermitian_cholesky", "mp.hermitian_cholesky", None),
    ("landaucap.orthopoly", "monic_orthogonalize", "orthopoly.monic_orthogonalize", None),
    ("landaucap.orthopoly", "rho_estimates", "orthopoly.rho_estimates", None),
    ("landaucap.landau", "toeplitz_spectrum", "landau.toeplitz_spectrum", None),
    ("landaucap.landau", "level_q_matrix", "landau.level_q_matrix", None),
    ("landaucap.landau", "spectrum", "landau.spectrum",
     lambda r: {"trusted_count": r.trusted_count}),
    ("landaucap.landau", "theorem_predictions", "landau.theorem_predictions", None),
    ("landaucap.chebyshev", "capacity_estimate", "chebyshev.capacity_estimate", None),
    ("landaucap.chebyshev", "chebyshev_polynomial", "chebyshev.chebyshev_polynomial",
     lambda r: {"iterations": r.iterations}),
    ("landaucap.cli", "main", "cli.main", None),
)

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    "cli.main.s",
    "cli.main.self_s",
    "weight.weight_from_config.s",
    "weight.mixed_moments.self_s",
    "weight.mixed_moments.calls",
    "weight.design_degree",
    "weight.nodes",
    "weight.build_rule.self_s",
    "mp.gauss_legendre.s",
    "mp.tanh_sinh.s",
    "mp.hermitian_cholesky.s",
    "mp.hermitian_cholesky.calls",
    "landau.level_q_matrix.self_s",
    "landau.spectrum.s",
    "landau.trusted_count",
    "orthopoly.monic_orthogonalize.self_s",
    "orthopoly.rho_estimates.s",
    "chebyshev.capacity_estimate.self_s",
    "chebyshev.chebyshev_polynomial.s",
    "chebyshev.lawson_iterations",
    "region.boundary_points.s",
)


def metric_unit(metric: str) -> str:
    return "s" if metric.endswith((".s", ".self_s")) else "count"


class Tracer:
    """Spans of one operation, kept in memory until it ends."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(result))
            return result
        return traced

    def install(self):
        """Wrap every TRACED function; returns the names that were missing."""
        missing = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "landaucap"]
        for mod_name, attr, name, counts in TRACED:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            traced = self.wrap(name, original, counts)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, traced)
        return missing


def layer_metrics(spans):
    """Per-layer totals, self times and counts of one operation's spans."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        total[sp["name"]] += dur
        self_s[sp["name"]] += dur
        calls[sp["name"]] += 1
        if sp["parent"] is not None:
            self_s[spans[sp["parent"]]["name"]] -= dur
        if sp["name"] == "weight.mixed_moments":
            # -1 marks the tanh-sinh radial path, which has no design degree
            count["weight.design_degree"] = sp.get("design_degree", 0)
            # the table's own rule is the first rule its call builds directly;
            # later direct rule calls come from density evaluations
            rule = next((c for c in spans[i + 1:] if c["parent"] == i and "nodes" in c), None)
            count["weight.nodes"] += rule["nodes"] if rule else 0
        elif sp["name"] == "landau.spectrum":
            count["landau.trusted_count"] += sp.get("trusted_count", 0)
        elif sp["name"] == "chebyshev.chebyshev_polynomial":
            count["chebyshev.lawson_iterations"] += sp.get("iterations", 0)
    out = {}
    for metric in METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = total[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]
        elif kind == "calls":
            out[metric] = calls[layer]
        else:
            out[metric] = count[metric]
    return out
