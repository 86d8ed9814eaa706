"""Logarithmic capacity from Symm's integral equation for the equilibrium measure.

The equilibrium measure mu of a compact set K lives on its outer boundary
and solves  int log|z - zeta| dmu(zeta) = log Cap(K)  for z on the boundary,
with mu(boundary) = 1 (Symm, Numer. Math. 9, 1966). The boundary is cut into
straight panels carrying a constant density each; the log potential of each
panel is integrated exactly and collocated at the panel midpoints. With the
unknowns sigma and gamma = log Cap and the mass row  sum sigma_j L_j = 1 the
system is one dense (n+1) x (n+1) solve, nonsingular also at Cap = 1.

Two levels are solved, n and 2n panels, and |fine - coarse| is reported as
the error bound. Polygon edges are graded towards their corners, where the
density is singular; circles take uniform chord panels, whose O(h^2) error
one Richardson step removes. The module keeps its name: the capacity was
once read off the decay of minimax (Chebyshev) polynomial norms.

The matrix is assembled a block of columns at a time by numpy broadcasting,
with the elementwise operations and their order of a column-by-column loop,
so its bits do not depend on the block. A block holds at most
_BLOCK_ENTRIES entries (12 columns of the 320-panel level): its temporaries
take a few times its entries' bytes, and a whole-matrix broadcast is no
faster but peaks near 9 times the bytes of the matrix. Both levels of the
unit square take about 7 ms on a 2-core x86-64 host (15 ms column by column).

Everything here runs in double precision.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._record import record
from .errors import NonConvergenceError
from .region import Annulus, Disc, Polygon, Region, UnionRegion, contains, _strictly_inside
from .region import region_key as _region_key

__all__ = ["CapacityEstimate", "capacity_estimate"]

_CIRCLE_PANELS = 128      # coarse panels per circle; the fine level doubles every count
_POLYGON_PANELS = 160     # coarse panels per polygon, shared out by arclength
_MIN_RUN_PANELS = 4       # least coarse panels between two corners
_CORNER_TURN = 0.05       # radians; gentler vertices lie on a smooth stretch of boundary
_MAX_REL_ERROR = 1e-3     # largest |fine - coarse| / Cap accepted
_BLOCK_ENTRIES = 4096     # matrix entries assembled at once: wider blocks only raise peak memory


@record(frozen=True)
class CapacityEstimate:
    extrapolated: float     # the capacity: fine level, Richardson-corrected on circles
    error_bound: float      # |fine - coarse|
    panels: tuple           # (coarse, fine) panel counts
    values: tuple           # (coarse, fine) capacity of each level
    masses: tuple           # equilibrium mass of each fine panel
    region_key: Optional[str] = None  # provenance of the solved region


def _graded(m: int) -> np.ndarray:
    """m + 1 breakpoints on [0, 1], graded towards both ends by t -> t^3."""
    half = (np.arange(m // 2 + 1) / (m // 2)) ** 3 / 2
    return np.concatenate([half, 1 - half[-2::-1]])


def _polygon_breakpoints(vs: tuple, level: int) -> np.ndarray:
    """Closed ring of panel breakpoints along a polygon, corners included.

    Vertices turning by more than _CORNER_TURN are corners; each stretch
    between two corners gets panels in proportion to its length, graded
    towards both ends. A polygon without corners, every vertex turning by
    less than _CORNER_TURN (a finely sampled smooth curve), is resampled
    uniformly in arclength plus turning, so its bends get as many panels
    as its straight stretches.
    """
    ring = np.array(vs + (vs[0],))
    edges = np.diff(ring)
    lengths = np.abs(edges)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    perimeter = cum[-1]
    turn = np.abs(np.angle(edges / np.roll(edges, 1)))  # at the first vertex of each edge
    corners = np.flatnonzero(turn > _CORNER_TURN)
    if len(corners) == 0:
        # spread the panels by arclength and by turning alike
        weight = lengths / perimeter + (turn + np.roll(turn, -1)) / (2 * turn.sum())
        cw = np.concatenate([[0.0], np.cumsum(weight)])
        n = _POLYGON_PANELS * level
        s = np.interp(cw[-1] * np.arange(n) / n, cw, cum)
    else:
        starts = cum[corners]
        spans = np.diff(np.append(starts, starts[0] + perimeter))
        counts = [level * max(_MIN_RUN_PANELS, 2 * round(_POLYGON_PANELS * span / (2 * perimeter)))
                  for span in spans]
        s = np.concatenate([start + span * _graded(m)[:-1]
                            for start, span, m in zip(starts, spans, counts)]) % perimeter
    k = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(vs) - 1)
    points = ring[k] + (s - cum[k]) / lengths[k] * edges[k]
    return np.append(points, points[0])


def _part_breakpoints(part, level: int) -> np.ndarray:
    if isinstance(part, Polygon):
        return _polygon_breakpoints(part.vertices, level)
    # a disc, or the outer circle of an annulus: the hole carries no charge
    radius = part.radius if isinstance(part, Disc) else part.outer
    n = _CIRCLE_PANELS * level
    return part.center + radius * np.exp(2j * np.pi * np.arange(n + 1) / n)


def _panels(region: Region, level: int):
    """Panel endpoints (a, b) of the region's outer boundary at one level.

    Each part of a union gets its own panels; a panel is dropped when its
    midpoint lies strictly inside another part, or on an earlier part, so a
    shared edge is kept once. A single part keeps every panel of its ring.
    """
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    a, b = [], []
    for i, part in enumerate(parts):
        ring = _part_breakpoints(part, level)
        za, zb = ring[:-1], ring[1:]
        if len(parts) > 1:
            keep = [not (any(_strictly_inside(q, mid, 1e-12) for q in parts[i + 1:])
                         or any(contains(q, mid) for q in parts[:i]))
                    for mid in 0.5 * (za + zb)]
            za, zb = za[keep], zb[keep]
        a.append(za)
        b.append(zb)
    return np.concatenate(a), np.concatenate(b)


def _panel_log_integral(s, y, y2):
    """F(s) with F(L - x) - F(-x) = int_0^L log|x - t + iy| dt, given y2 = y * y.

    0.5 s log(s^2 + y^2) - s + y atan2(s, y), evaluated in that order, so
    its bits are the expression's, but in place on two temporaries.
    """
    f = s * s
    f += y2
    np.log(f, out=f)
    f *= 0.5 * s
    f -= s
    g = np.arctan2(s, y)
    g *= y
    f += g
    return f


def _solve(a: np.ndarray, b: np.ndarray):
    """Capacity and panel masses from the collocated Symm system, assembled
    in blocks of at most _BLOCK_ENTRIES entries."""
    n = len(a)
    if n == 0:
        raise NonConvergenceError("0 boundary panels kept: every panel's midpoint "
                                  "lies inside or on another part")
    mid = 0.5 * (a + b)
    d = b - a
    lengths = np.abs(d)
    turn = d.conjugate() / lengths
    system = np.zeros((n + 1, n + 1))
    width = max(1, _BLOCK_ENTRIES // n)
    for j in range(0, n, width):
        k = slice(j, min(j + width, n))
        # midpoints in the frame of each panel k: w = x + iy, the panel on [0, L]
        w = mid[:, None] - a[k]
        w *= turn[k]
        y = np.abs(w.imag)
        y2 = y * y
        np.subtract(_panel_log_integral(lengths[k] - w.real, y, y2),
                    _panel_log_integral(-w.real, y, y2), out=system[:n, k])
    system[:n, n] = -1.0
    system[n, :n] = lengths
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol).all():
        raise NonConvergenceError(f"the Symm system on {n} boundary panels has no finite solution")
    return math.exp(sol[n]), sol[:n] * lengths


def capacity_estimate(region: Region) -> CapacityEstimate:
    """Logarithmic capacity of the region from two panel levels.

    Raises NonConvergenceError when doubling the panels moves the capacity
    by more than _MAX_REL_ERROR relative.
    """
    a1, b1 = _panels(region, 1)
    a2, b2 = _panels(region, 2)
    coarse, _ = _solve(a1, b1)
    fine, masses = _solve(a2, b2)
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    cap = fine
    if all(isinstance(p, (Disc, Annulus)) for p in parts):
        cap = fine + (fine - coarse) / 3  # chord panels: error ~ h^2
    error_bound = abs(fine - coarse)
    if not error_bound <= _MAX_REL_ERROR * cap:
        raise NonConvergenceError(
            f"capacity moved by {error_bound:.2e} between {len(a1)} and {len(a2)} boundary panels, "
            f"more than {_MAX_REL_ERROR:g} relative")
    return CapacityEstimate(
        extrapolated=cap,
        error_bound=error_bound,
        panels=(len(a1), len(a2)),
        values=(coarse, fine),
        masses=tuple(masses.tolist()),
        region_key=_region_key(region),
    )
