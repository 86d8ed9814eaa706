"""Capacity from Symm's integral equation against closed forms and geometry.

Independent checks: the capacity of a disc is its radius, that of a regular
n-gon of side s is Gamma(1/n) s / (2^(1+2/n) sqrt(pi) Gamma(1/2+1/n)), that
of a rectangle follows from complete elliptic integrals; it
ignores interior holes, scales linearly under affine maps and grows with
the set.
"""

import cmath
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from mpmath import mp

from landaucap import chebyshev
from landaucap.errors import NonConvergenceError
from landaucap.region import (Annulus, Disc, Polygon, UnionRegion, affine, contains, _rotation_order,
                              _strictly_inside)
from landaucap.chebyshev import CapacityEstimate, capacity_estimate
from test_symmetry import square_support

UNIT_SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
SQUARE_CAPACITY = 0.5901702995080481  # Gamma(1/4)^2 / (4 pi^(3/2)), side 1
TRIANGLE = Polygon((0j, 1 + 0j, complex(0.5, math.sqrt(3) / 2)))
TRIANGLE_CAPACITY = math.gamma(1 / 3) ** 3 * math.sqrt(3) / (8 * math.pi ** 2)  # side 1
CENTRED_SQUARE = affine(UNIT_SQUARE, 1.0, -0.5 - 0.5j)
CENTRED_RECTANGLE = Polygon((-1 - 0.5j, 1 - 0.5j, 1 + 0.5j, -1 + 0.5j))


def rounded_square(d):
    """The unit square's d-neighbourhood, each corner a quarter circle of 64 chords."""
    return Polygon(tuple(v + d * cmath.exp(1j * math.pi * (1 + k / 2 + j / 128))
                         for k, v in enumerate(UNIT_SQUARE.vertices) for j in range(65)))


def rounded_centred_square(d):
    """The centred square's d-neighbourhood, each corner a quarter circle of
    64 chords: one quarter of the ring, turned exactly by i, -1 and -i."""
    quarter = [complex(0.5, -0.5) + d * cmath.exp(1j * math.pi * (-0.5 + j / 128)) for j in range(65)]
    turns = [lambda z: z, lambda z: complex(-z.imag, z.real), lambda z: -z,
             lambda z: complex(z.imag, -z.real)]
    return Polygon(tuple(turn(z) for turn in turns for z in quarter))


def rectangle_capacity(a, b):
    """Capacity of an a x b rectangle: with m the elliptic parameter solving
    a/b = (E(m) - (1-m) K(m)) / (E(1-m) - m K(1-m)),
    Cap = a / (4 (E(m) - (1-m) K(m)))."""
    def lhs(m):
        return mp.ellipe(m) - (1 - m) * mp.ellipk(m)

    with mp.workprec(80):
        m = mp.findroot(lambda m: lhs(m) - mp.mpf(a) / b * lhs(1 - m), 0.5)
        return float(a / (4 * lhs(m)))


# ------------------------------------------------------------------ capacity

def test_disc_capacity_two_percent():
    est = capacity_estimate(Disc(1 + 0.5j, 1.5))
    assert abs(est.extrapolated - 1.5) / 1.5 < 0.02


def test_square_capacity_ten_percent():
    est = capacity_estimate(UNIT_SQUARE)
    assert est.error_bound <= 1e-3 * est.extrapolated
    assert 0.9 * SQUARE_CAPACITY < est.extrapolated < 1.1 * SQUARE_CAPACITY


def test_annulus_matches_disc():
    hole = capacity_estimate(Annulus(0j, 0.5, 1.0))
    full = capacity_estimate(Disc(0j, 1.0))
    assert abs(hole.extrapolated - full.extrapolated) < 0.005


def test_affine_scaling_one_percent():
    base = capacity_estimate(UNIT_SQUARE)
    scaled = capacity_estimate(affine(UNIT_SQUARE, 2.0, 1 + 1j))
    assert abs(scaled.extrapolated / base.extrapolated - 2) < 0.02
    rotated = capacity_estimate(affine(UNIT_SQUARE, 1 + 1j, 0j))
    assert abs(rotated.extrapolated / base.extrapolated - math.sqrt(2)) < 0.02 * math.sqrt(2)


def test_translation_invariance():
    base = capacity_estimate(UNIT_SQUARE)
    moved = capacity_estimate(affine(UNIT_SQUARE, 1.0, 5 - 3j))
    assert abs(moved.extrapolated - base.extrapolated) < 0.01 * base.extrapolated


def test_dilation_decreases_to_base():
    base = capacity_estimate(UNIT_SQUARE).extrapolated
    vals = [capacity_estimate(rounded_square(d)).extrapolated for d in (0.1, 0.05, 0.025)]
    assert vals[0] > vals[1] > vals[2] > base - 0.005


def test_nested_monotonicity():
    inner = capacity_estimate(UNIT_SQUARE)
    outer = capacity_estimate(Disc(0.5 + 0.5j, 0.8))
    assert inner.extrapolated <= outer.extrapolated * (1 + 2 * 2e-3)


def min_enclosing_circle(points):
    """Smallest circle containing all points, brute force over candidates."""
    def radius(c):
        return max(abs(p - c) for p in points)
    candidates = [(a + b) / 2 for a, b in itertools.combinations(points, 2)]
    for a, b, c in itertools.combinations(points, 3):
        d = 2 * ((a.real - c.real) * (b.imag - c.imag) - (b.real - c.real) * (a.imag - c.imag))
        if abs(d) < 1e-14:
            continue
        ux = ((abs(a) ** 2 - abs(c) ** 2) * (b.imag - c.imag) - (abs(b) ** 2 - abs(c) ** 2) * (a.imag - c.imag)) / d
        uy = ((abs(b) ** 2 - abs(c) ** 2) * (a.real - c.real) - (abs(a) ** 2 - abs(c) ** 2) * (b.real - c.real)) / d
        candidates.append(complex(ux, uy))
    center = min(candidates, key=radius)
    return center, radius(center)


def test_degree_one_is_min_enclosing_circle():
    # the degree-1 Chebyshev norm of a convex polygon is the radius of its
    # minimum enclosing circle, and Cap <= t_n^(1/n) for every n; from below,
    # Cap >= diam/4 (a segment) and Cap >= sqrt(area/pi) (Polya-Szego)
    vs = (0j, 2 + 0j, 2.5 + 1.2j, 0.8 + 1.9j)
    _, radius = min_enclosing_circle(vs)
    diam = max(abs(a - b) for a, b in itertools.combinations(vs, 2))
    area = 0.5 * abs(sum((a.conjugate() * b).imag for a, b in zip(vs, vs[1:] + vs[:1])))
    est = capacity_estimate(Polygon(vs))
    assert max(diam / 4, math.sqrt(area / math.pi)) < est.extrapolated - est.error_bound
    assert est.extrapolated + est.error_bound < radius


def test_capacity_fit_window_containment():
    # polygons take no extrapolation step: the capacity is the fine level,
    # inside the window of the two solved levels, whose width is the bound
    for region in (UNIT_SQUARE, Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))):
        est = capacity_estimate(region)
        assert min(est.values) <= est.extrapolated <= max(est.values)
        assert est.extrapolated == est.values[1]
        assert est.error_bound == max(est.values) - min(est.values)


def test_concurrent_calls_match_serial():
    # the solver keeps no shared state, so concurrent calls agree bit for
    # bit with a serial one, and so does a rerun
    serial = capacity_estimate(UNIT_SQUARE)
    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = list(pool.map(capacity_estimate, [UNIT_SQUARE] * 3))
    assert all(est == serial for est in pooled)
    assert capacity_estimate(UNIT_SQUARE) == serial


# ------------------------------------------------------------ Symm solver

CLOSED_FORMS = [
    # (region, exact capacity, relative band)
    (UNIT_SQUARE, SQUARE_CAPACITY, 1e-4),
    (TRIANGLE, TRIANGLE_CAPACITY, 1e-4),
    (Disc(0j, 1.0), 1.0, 5e-7),
    (Disc(1 + 0.5j, 1.5), 1.5, 1e-6),
    (Annulus(0j, 0.5, 1.0), 1.0, 1e-6),
    (Polygon((0j, 2 + 0j, 2 + 1j, 1j)), rectangle_capacity(2, 1), 1e-4),
    (Polygon((0j, 3 + 0j, 3 + 1j, 1j)), rectangle_capacity(3, 1), 1e-4),
]


def test_rectangle_formula_reduces_to_square():
    assert abs(rectangle_capacity(1, 1) - SQUARE_CAPACITY) < 1e-15


@pytest.mark.parametrize("region,exact,band", CLOSED_FORMS)
def test_capacity_matches_closed_form(region, exact, band):
    est = capacity_estimate(region)
    assert abs(est.extrapolated - exact) <= band * exact
    assert abs(est.extrapolated - exact) <= est.error_bound
    assert isinstance(est, CapacityEstimate)
    assert est.panels[1] == 2 * est.panels[0] == len(est.masses)


@pytest.mark.parametrize("region", [UNIT_SQUARE, TRIANGLE, Disc(0.3 - 0.2j, 0.7)])
def test_scaling_and_translation_covariance(region):
    base = capacity_estimate(region).extrapolated
    for a, b in ((2.0, 0j), (0.37, 0j), (1.0, 5 - 3j), (1 + 1j, -2 + 0.5j)):
        moved = capacity_estimate(affine(region, a, b)).extrapolated
        assert abs(moved - abs(a) * base) <= 1e-9 * abs(a) * base


def test_disjoint_union_between_one_disc_and_enclosing_disc():
    est = capacity_estimate(UnionRegion((Disc(0j, 1.0), Disc(3 + 0j, 1.0))))
    assert 1.0 < est.extrapolated < 2.5  # the enclosing disc is Disc(1.5, 2.5)
    # each disc carries half the mass, by symmetry
    half = math.fsum(est.masses[:len(est.masses) // 2])
    assert abs(half - 0.5) < 1e-9


def test_union_sharing_an_edge_matches_the_rectangle():
    pair = capacity_estimate(UnionRegion((UNIT_SQUARE, affine(UNIT_SQUARE, 1.0, 1.0))))
    rect = capacity_estimate(Polygon((0j, 2 + 0j, 2 + 1j, 1j)))
    assert abs(pair.extrapolated - rect.extrapolated) <= pair.error_bound + rect.error_bound


def test_rounded_corners_settle():
    # a rounded square has hundreds of vertices and no corner; its panels
    # follow arclength and turning, so the small rounded corners are resolved
    est = capacity_estimate(rounded_square(0.01))
    assert est.error_bound <= 1e-4 * est.extrapolated
    wider = capacity_estimate(rounded_square(0.025))
    assert SQUARE_CAPACITY < est.extrapolated < wider.extrapolated


def test_panel_masses_are_a_probability_measure():
    for region in (UNIT_SQUARE, TRIANGLE, Disc(0j, 1.0), rounded_square(0.05)):
        masses = capacity_estimate(region).masses
        assert min(masses) >= 0
        assert abs(math.fsum(masses) - 1) <= 1e-12


def test_reruns_are_bit_identical():
    for region in (UNIT_SQUARE, Disc(1 + 0.5j, 1.5)):
        assert capacity_estimate(region) == capacity_estimate(region)


@pytest.mark.parametrize("region", [
    UnionRegion((Disc(0j, 1.0), Disc(0j, 1.0))),
    UnionRegion((Disc(0j, 1.0), Annulus(0j, 0.5, 1.0))),
    UnionRegion((Disc(0j, 1.0), Disc(1e-9 + 0j, 1.0))),
    Disc(1e17 + 0j, 1.0),
])
def test_degenerate_panels_raise_nonconvergence(region):
    # coincident circles drop every panel (each chord midpoint lies a
    # sagitta inside the other circle); at 1e17 the circle's breakpoints
    # round onto one segment, traced up and down, and the system is singular
    with pytest.raises(NonConvergenceError, match=r"\d+ boundary panels"):
        capacity_estimate(region)


@pytest.mark.parametrize("region,name", [(UNIT_SQUARE, "_POLYGON_PANELS"),
                                         (Disc(0j, 1.0), "_CIRCLE_PANELS")])
def test_unsettled_refinement_raises(monkeypatch, region, name):
    monkeypatch.setattr(chebyshev, name, 16)
    with pytest.raises(NonConvergenceError, match="boundary panels"):
        capacity_estimate(region)


# ------------------------------------------------------------ block assembly

def _panel_log_integral(s, y):
    return 0.5 * s * np.log(s * s + y * y) - s + y * np.arctan2(s, y)


def _column_solve(a, b):
    """The column-at-a-time assembly _solve replaced, kept as its reference."""
    n = len(a)
    mid = 0.5 * (a + b)
    d = b - a
    lengths = np.abs(d)
    system = np.zeros((n + 1, n + 1))
    for j in range(n):
        w = (mid - a[j]) * (d[j].conjugate() / lengths[j])
        y = np.abs(w.imag)
        system[:n, j] = _panel_log_integral(lengths[j] - w.real, y) - _panel_log_integral(-w.real, y)
    system[:n, n] = -1.0
    system[n, :n] = lengths
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    sol = np.linalg.solve(system, rhs)
    return math.exp(sol[n]), sol[:n] * lengths


def _turns(m):
    """w^r = exp(2 pi i r / m), r = 0..m-1, exactly, for m = 1, 2, 4."""
    return [1j ** (4 // m * r) for r in range(m)]


def _block_column_solve(a, b, m):
    """The column loop over one rotation block of panels: column j sums the
    potentials of the panel's m rotations w^r (a_j, b_j), r = 0, 1, ...,
    taken at the midpoints turned back by w^-r, and the mass row is
    m sum sigma_j L_j = 1."""
    n = len(a)
    mid = 0.5 * (a + b)
    d = b - a
    lengths = np.abs(d)
    system = np.zeros((n + 1, n + 1))
    for j in range(n):
        for r, w_r in enumerate(_turns(m)):
            w = (mid * w_r.conjugate() - a[j]) * (d[j].conjugate() / lengths[j])
            y = np.abs(w.imag)
            column = _panel_log_integral(lengths[j] - w.real, y) - _panel_log_integral(-w.real, y)
            system[:n, j] = column if r == 0 else system[:n, j] + column
    system[:n, n] = -1.0
    system[n, :n] = m * lengths
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    sol = np.linalg.solve(system, rhs)
    return math.exp(sol[n]), np.tile(sol[:n] * lengths, m)


def _loop_panels(region, level, m):
    """The panel-at-a-time _panels, kept as its reference."""
    parts = region.parts if isinstance(region, UnionRegion) else (region,)
    a, b = [], []
    for i, part in enumerate(parts):
        ring = chebyshev._part_breakpoints(part, level, m)
        for za, zb in zip(ring[:-1], ring[1:]):
            mid = 0.5 * (za + zb)
            if any(_strictly_inside(q, mid, 1e-12) for q in parts[i + 1:]) or any(
                    contains(q, mid) for q in parts[:i]):
                continue
            a.append(za)
            b.append(zb)
    return np.array(a), np.array(b)


def _order(region):
    return 1 if isinstance(region, UnionRegion) else _rotation_order(region)


def _bits(est):
    """Every field of a CapacityEstimate, each float as its exact hex string."""
    def exact(x):
        if isinstance(x, tuple):
            return tuple(map(exact, x))
        return x.hex() if isinstance(x, float) else x
    return {name: exact(getattr(est, name)) for name in type(est)._fields}


BLOCK_REGIONS = {
    "square-predict-seed1": square_support(1),
    "square-predict-seed7": square_support(7),
    "unit-square": UNIT_SQUARE,
    "triangle": TRIANGLE,
    "disc": Disc(1 + 0.5j, 1.5),
    "annulus": Annulus(0j, 0.5, 1.0),
    "two-discs": UnionRegion((Disc(0j, 1.0), Disc(3 + 0j, 1.0))),
    "edge-sharing": UnionRegion((UNIT_SQUARE, affine(UNIT_SQUARE, 1.0, 1.0))),
    "overlapping-discs": UnionRegion((Disc(0j, 1.0), Disc(1 + 0j, 1.0))),
    "rounded-square": rounded_square(0.01),  # 260 vertices, no corner
    "rounded-centred-square": rounded_centred_square(0.01),  # the same, turned exactly
}
# the rotation order of each support that a rotation about 0 maps onto itself
ROTATED = {"square-predict-seed1": 4, "square-predict-seed7": 4, "annulus": 4,
           "rounded-centred-square": 4}


def _fields_close(est, whole, band):
    """Every field of est within band of whole's: relative for the capacity
    values, absolute for the masses and for the error bound (a difference
    of two levels, so its rounding is relative to the capacity)."""
    assert est.panels == whole.panels and est.region_key == whole.region_key
    for x, y in zip((est.extrapolated,) + est.values, (whole.extrapolated,) + whole.values):
        assert abs(x - y) <= band * y
    assert abs(est.error_bound - whole.error_bound) <= band * whole.extrapolated
    assert len(est.masses) == len(whole.masses)
    assert max(abs(x - y) for x, y in zip(est.masses, whole.masses)) <= band


@pytest.mark.parametrize("name", BLOCK_REGIONS)
def test_block_assembly_matches_the_column_loop_bit_for_bit(monkeypatch, name):
    # the blocks make the loop's elementwise operations in the loop's order,
    # so neither the panels nor any field of the estimate moves a bit; a
    # support of rotation order m > 1 is held to the loop over its rotation
    # block, and to the loop over its whole ring within 1e-14
    region = BLOCK_REGIONS[name]
    m = _order(region)
    assert m == ROTATED.get(name, 1)
    for level in (1, 2):
        panels, reference = chebyshev._panels(region, level, m), _loop_panels(region, level, m)
        assert [(x.dtype, x.tobytes()) for x in panels] == [(x.dtype, x.tobytes()) for x in reference]
    est = capacity_estimate(region)
    monkeypatch.setattr(chebyshev, "_panels", _loop_panels)
    if m == 1:
        monkeypatch.setattr(chebyshev, "_solve", lambda a, b, m: _column_solve(a, b))
        assert _bits(est) == _bits(capacity_estimate(region))
        return
    monkeypatch.setattr(chebyshev, "_solve", _block_column_solve)
    assert _bits(est) == _bits(capacity_estimate(region))
    monkeypatch.setattr(chebyshev, "_rotation_order", lambda region: 1)
    monkeypatch.setattr(chebyshev, "_solve", lambda a, b, m: _column_solve(a, b))
    _fields_close(est, capacity_estimate(region), 1e-14)


SYMMETRIC = [
    # (support, rotation order)
    (square_support(1), 4),
    (square_support(7), 4),
    (CENTRED_SQUARE, 4),
    (Disc(0j, 1.0), 4),
    (Annulus(0j, 0.4, 1.0), 4),
    (CENTRED_RECTANGLE, 2),
    (rounded_centred_square(0.01), 4),
]


@pytest.mark.parametrize("region,m", SYMMETRIC)
def test_rotation_block_matches_the_whole_ring(monkeypatch, region, m):
    # one rotation block of n/m unknowns solves the same system as the
    # whole ring of n, up to rounding: measured at most 9.5e-16 relative
    # in the capacity and 5.8e-15 in the masses
    assert _order(region) == m
    est = capacity_estimate(region)
    monkeypatch.setattr(chebyshev, "_rotation_order", lambda region: 1)
    _fields_close(est, capacity_estimate(region), 1e-14)


@pytest.mark.parametrize("region,m", SYMMETRIC)
def test_rotating_the_block_gives_every_panel_in_ring_order(region, m):
    # the block's rotations by w^r, r = 0..m-1, are the panels of the whole
    # ring, one after another from where the ring starts
    for level in (1, 2):
        a, b = chebyshev._panels(region, level, m)
        whole = chebyshev._panels(region, level, 1)
        scale = np.abs(whole[0]).max()
        for block, ring in zip((a, b), whole):
            turned = np.concatenate([block * w_r for w_r in _turns(m)])
            assert len(turned) == len(ring) == m * len(block)
            assert np.abs(turned - ring).max() <= 1e-14 * scale
        # each block closes where its successor starts, exactly on a polygon
        if isinstance(region, Polygon):
            assert b[-1] == a[0] * _turns(m)[1]


@pytest.mark.parametrize("region,m,n", [(UNIT_SQUARE, 1, 320), (CENTRED_SQUARE, 4, 80)],
                         ids=["unit-square", "centred-square"])
def test_block_assembly_memory_is_bounded(region, m, n):
    # the blocks' temporaries are bounded by _BLOCK_ENTRIES and a share of
    # the system, not by the matrix: a whole-matrix broadcast peaks near 9x
    # the system's own bytes; a rotation block's system is (n/m + 1)^2
    a, b = chebyshev._panels(region, 2, m)
    tracemalloc.start()
    try:
        chebyshev._solve(a, b, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) == n
    assert peak <= 2 * 8 * (n + 1) ** 2
