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

A single disc, annulus or polygon that the rotation by w = exp(2 pi i / m)
about 0 maps onto itself (region._rotation_order, m = 2 or 4) is solved on
one rotation block: its first n/m panels, whose rotations by w^r are the
whole ring in order. The equilibrium density is rotation invariant, so
the n/m unknowns of the block carry it, and each entry sums the potentials
of the m rotated copies of its panel (Fassler & Stiefel, Group Theoretical
Methods and Their Applications, 1992). Every other support, a union
among them, is one block with m = 1, solved as the whole ring.

The matrix is assembled a block of columns at a time by numpy broadcasting,
with the elementwise operations and their order of a column-by-column loop,
so its bits do not depend on the block. A block holds at most
_BLOCK_ENTRIES entries and 1/_BLOCK_SHARE of the system's, and its
temporaries take a few times its entries' bytes: the 320-panel system of
the unit square peaks at 1.25 times its own bytes, the 80-unknown block of
the centred square at 1.8, where a whole-matrix broadcast is no faster but
peaks near 9. Both levels of the unit square (m = 1) take about 6 ms in a
fresh process on a 2-core x86-64 host (15 ms column by column), those of
the centred square (m = 4) about 2.5 ms.

Everything here runs in double precision.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ._record import record
from .errors import NonConvergenceError
from .region import Annulus, Disc, Polygon, Region, UnionRegion, contains, _rotation_order, _strictly_inside
from .region import region_key as _region_key

__all__ = ["CapacityEstimate", "capacity_estimate"]

_CIRCLE_PANELS = 128      # coarse panels per circle; the fine level doubles every count
_POLYGON_PANELS = 160     # coarse panels per polygon, shared out by arclength
_MIN_RUN_PANELS = 4       # least coarse panels between two corners
_CORNER_TURN = 0.05       # radians; gentler vertices lie on a smooth stretch of boundary
_MAX_REL_ERROR = 1e-3     # largest |fine - coarse| / Cap accepted
_BLOCK_ENTRIES = 4096     # matrix entries assembled at once: wider blocks only raise peak memory
_BLOCK_SHARE = 10         # nor more than 1/_BLOCK_SHARE of the system's: small systems peak low too


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


def _turned(z, quarters: int):
    """z rotated by quarters quarter turns about 0, exactly: the products
    with 1j, -1 and -1j only swap and negate parts."""
    return z * 1j ** (quarters % 4) if quarters % 4 else z


def _polygon_breakpoints(vs: tuple, level: int, m: int) -> np.ndarray:
    """The first 1/m of the closed ring of panel breakpoints along a
    polygon, corners included, closed by w = exp(2 pi i / m) times its
    first point.

    Vertices turning by more than _CORNER_TURN are corners; each stretch
    between two corners gets panels in proportion to its length, graded
    towards both ends. A polygon without corners, every vertex turning by
    less than _CORNER_TURN (a finely sampled smooth curve), is resampled
    uniformly in arclength plus turning, so its bends get as many panels
    as its straight stretches.

    A polygon of rotation order m shifts its vertex ring by k/m places,
    k vertices (weight._symmetry), so the block runs from its first corner
    to that corner's image k/m vertices on, or holds the first n/m samples
    of a ring with no corners.
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
        s = np.interp(cw[-1] * np.arange(n // m) / n, cw, cum)
    else:
        end = corners[0] + len(vs) // m
        starts = cum[corners[corners < end]]
        stop = cum[end] if end < len(vs) else cum[end - len(vs)] + perimeter
        spans = np.diff(np.append(starts, stop))
        counts = [level * max(_MIN_RUN_PANELS, 2 * round(_POLYGON_PANELS * span / (2 * perimeter)))
                  for span in spans]
        s = np.concatenate([start + span * _graded(c)[:-1]
                            for start, span, c in zip(starts, spans, counts)]) % perimeter
    k = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(vs) - 1)
    points = ring[k] + (s - cum[k]) / lengths[k] * edges[k]
    return np.append(points, _turned(points[0], 4 // m))


def _part_breakpoints(part, level: int, m: int) -> np.ndarray:
    """The breakpoints of one rotation block of the part's ring, 1/m of it."""
    if isinstance(part, Polygon):
        return _polygon_breakpoints(part.vertices, level, m)
    # a disc, or the outer circle of an annulus: the hole carries no charge
    radius = part.radius if isinstance(part, Disc) else part.outer
    n = _CIRCLE_PANELS * level
    return part.center + radius * np.exp(2j * np.pi * np.arange(n // m + 1) / n)


def _panels(region: Region, level: int, m: int):
    """Panel endpoints (a, b) of one rotation block of the region's outer
    boundary at one level, m the rotation order of a single part.

    Each part of a union gets its own panels; a panel is dropped when its
    midpoint lies strictly inside another part, or on an earlier part, so a
    shared edge is kept once. A single part keeps every panel of its block.
    """
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    a, b = [], []
    for i, part in enumerate(parts):
        ring = _part_breakpoints(part, level, m)
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


def _potentials(mid, a, turn, lengths):
    """The log potentials P(mid_i; panel j) of a column block of panels
    a_j + t conj(turn_j), 0 <= t <= lengths_j, at the points mid."""
    # mid in the frame of each panel: w = x + iy, the panel on [0, L]
    w = mid[:, None] - a
    w *= turn
    y = np.abs(w.imag)
    s = -w.real
    del w  # 16 bytes an entry fewer where the temporaries peak, in the integrals
    y2 = y * y
    f = _panel_log_integral(lengths + s, y, y2)
    f -= _panel_log_integral(s, y, y2)
    return f


def _solve(a: np.ndarray, b: np.ndarray, m: int):
    """Capacity and panel masses from the collocated Symm system on one
    rotation block of panels a -> b, m blocks to the ring.

    Entry (i, j) is sum_r P(mid_i; w^r a_j, w^r b_j), w = exp(2 pi i / m);
    the potential is rotation invariant, so the sum turns the midpoint
    back by w^-r in place of the panel, exactly, and adds the blocks in
    the order r = 0, 1, ..., m - 1. The mass row is m sum sigma_j L_j = 1,
    and the masses of the block are tiled m times, in the ring's order.
    With m = 1 this is the whole system, column for column. The system is
    assembled in blocks of at most _BLOCK_ENTRIES entries and
    1/_BLOCK_SHARE of its own."""
    n = len(a)
    if n == 0:
        raise NonConvergenceError("0 boundary panels kept: every panel's midpoint "
                                  "lies inside or on another part")
    mid = 0.5 * (a + b)
    d = b - a
    lengths = np.abs(d)
    turn = d.conjugate() / lengths
    mids = [_turned(mid, -r * (4 // m)) for r in range(m)]
    system = np.zeros((n + 1, n + 1))
    width = max(1, min(_BLOCK_ENTRIES, (n + 1) ** 2 // _BLOCK_SHARE) // n)
    for j in range(0, n, width):
        k = slice(j, min(j + width, n))
        system[:n, k] = _potentials(mids[0], a[k], turn[k], lengths[k])
        for z in mids[1:]:
            system[:n, k] += _potentials(z, a[k], turn[k], lengths[k])
    system[:n, n] = -1.0
    system[n, :n] = m * lengths
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.isfinite(sol).all():
        raise NonConvergenceError(f"the Symm system on {m * n} boundary panels has no finite solution")
    return math.exp(sol[n]), np.tile(sol[:n] * lengths, m)


def capacity_estimate(region: Region) -> CapacityEstimate:
    """Logarithmic capacity of the region from two panel levels, each
    solved on one rotation block of a single part (m = 1 for a union).

    Raises NonConvergenceError when doubling the panels moves the capacity
    by more than _MAX_REL_ERROR relative.
    """
    m = 1 if isinstance(region, UnionRegion) else _rotation_order(region)
    a1, b1 = _panels(region, 1, m)
    a2, b2 = _panels(region, 2, m)
    coarse, _ = _solve(a1, b1, m)
    fine, masses = _solve(a2, b2, m)
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    cap = fine
    if all(isinstance(p, (Disc, Annulus)) for p in parts):
        cap = fine + (fine - coarse) / 3  # chord panels: error ~ h^2
    error_bound = abs(fine - coarse)
    panels = (m * len(a1), m * len(a2))
    if not error_bound <= _MAX_REL_ERROR * cap:
        raise NonConvergenceError(
            f"capacity moved by {error_bound:.2e} between {panels[0]} and {panels[1]} boundary panels, "
            f"more than {_MAX_REL_ERROR:g} relative")
    return CapacityEstimate(
        extrapolated=cap,
        error_bound=error_bound,
        panels=panels,
        values=(coarse, fine),
        masses=tuple(masses.tolist()),
        region_key=_region_key(region),
    )
