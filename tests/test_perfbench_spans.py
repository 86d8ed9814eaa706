"""The benchmark's span tracer still finds the functions it wraps.

perfbench/spans.py looks each traced function up by module and name and
skips one it cannot find, so a rename would silently zero a per-layer
metric. Loading the tracer by path, as the benchmark does, turns such a
rename into a failing test.
"""

import importlib
import importlib.util
from pathlib import Path

from landaucap.region import Disc
from landaucap.weight import _build_rule

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# traced names the library no longer has; their metrics read zero
STALE = {"landaucap.region.boundary_points", "landaucap.chebyshev.chebyshev_polynomial",
         "landaucap._mp.tanh_sinh"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = set()
    for mod_name, attr, _, _ in load_spans().TRACED:
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            missing.add(f"{mod_name}.{attr}")
    # equality, so the list can name no function the library still has
    assert missing == STALE


def test_build_rule_keeps_the_nodes_the_tracer_counts():
    counts = next(c for _, attr, _, c in load_spans().TRACED if attr == "_build_rule")
    # a plain table of bidegree 4 on a circle: 4 + 2 trapezoid nodes, of
    # which the disc's mirror rule keeps t = 0..3
    rule = _build_rule(Disc(0.7 + 0j, 1.0), maxdeg=4, prec=64)
    assert hasattr(rule, "nodes")
    assert counts(rule) == {"nodes": len(rule.nodes)} == {"nodes": 4}
