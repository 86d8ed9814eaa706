import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from landaucap.region import (
    Annulus,
    Disc,
    Polygon,
    UnionRegion,
    affine,
    boundary_points,
    bounding_radius,
    capacity_known,
    contains,
    convex_hull,
    dilate,
    region_from_config,
    region_to_config,
)

RNG = np.random.default_rng(20260814)

UNIT_SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
L_SHAPE = Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))
SAMPLE_REGIONS = [
    Disc(0j, 1.0),
    Disc(1 + 0.5j, 1.5),
    Annulus(0j, 0.5, 1.0),
    UNIT_SQUARE,
    L_SHAPE,
    UnionRegion((Disc(-2 + 0j, 0.5), Disc(2 + 0j, 0.5))),
]


def random_inner_points(region, k):
    """Rejection sample k points of the region."""
    hi = bounding_radius(region) + 0.1
    pts = []
    while len(pts) < k:
        z = complex(RNG.uniform(-hi, hi), RNG.uniform(-hi, hi))
        if contains(region, z):
            pts.append(z)
    return pts


def boundary_distance(region, z):
    if isinstance(region, Disc):
        return abs(abs(z - region.center) - region.radius)
    if isinstance(region, Annulus):
        return abs(abs(z - region.center) - region.outer)
    if isinstance(region, Polygon):
        vs = region.vertices
        n = len(vs)
        best = math.inf
        for i in range(n):
            a, b = vs[i], vs[(i + 1) % n]
            ab = b - a
            t = min(1.0, max(0.0, ((z - a).real * ab.real + (z - a).imag * ab.imag) / abs(ab) ** 2))
            best = min(best, abs(z - (a + t * ab)))
        return best
    if isinstance(region, UnionRegion):
        return min(boundary_distance(p, z) for p in region.parts)
    raise TypeError


# ---------------------------------------------------------------- contains

def test_contains_disc_closed():
    d = Disc(0j, 1.0)
    assert contains(d, 1.0 + 0j)
    assert contains(d, 0j)
    assert not contains(d, 1.0000001 + 0j)


def test_contains_annulus_hole():
    a = Annulus(0j, 0.5, 1.0)
    assert contains(a, 0.75j)
    assert contains(a, 0.5 + 0j)
    assert not contains(a, 0.25j)


def test_contains_polygon_and_union():
    assert contains(UNIT_SQUARE, 0.5 + 0.5j)
    assert contains(UNIT_SQUARE, 0j)  # vertex, closed semantics
    assert not contains(UNIT_SQUARE, 1.5 + 0.5j)
    u = UnionRegion((Disc(-2 + 0j, 0.5), Disc(2 + 0j, 0.5)))
    assert contains(u, -2 + 0.25j)
    assert not contains(u, 0j)


def test_polygon_orientation_normalized():
    cw = Polygon((0j, 1j, 1 + 1j, 1 + 0j))
    assert set(cw.vertices) == {0j, 1j, 1 + 1j, 1 + 0j}
    # shoelace of stored ring is positive
    vs = cw.vertices
    area2 = sum(
        (vs[i].real * vs[(i + 1) % len(vs)].imag - vs[(i + 1) % len(vs)].real * vs[i].imag)
        for i in range(len(vs))
    )
    assert area2 > 0


def test_polygon_rejects_degenerate():
    with pytest.raises(ValueError):
        Polygon((0j, 1 + 0j, 2 + 0j))  # zero area
    with pytest.raises(ValueError):
        Polygon((0j, 1 + 0j, 1 + 0j, 1j))  # repeated vertex
    with pytest.raises(ValueError):
        Polygon((0j, 1 + 1j, 1 + 0j, 1j))  # bowtie
    # non-finite points: construction alone must fail, before any table work
    inf, nan = float("inf"), float("nan")
    for build in (lambda: Disc(complex(inf, 0), 1.0),
                  lambda: Annulus(complex(nan, 0), 0.5, 1.0),
                  lambda: Polygon((0j, 1 + 0j, complex(inf, 1))),
                  lambda: Polygon((0j, 1 + 0j, complex(1, nan)))):
        with pytest.raises(ValueError, match="must be finite"):
            build()


# ---------------------------------------------------------- boundary_points

@pytest.mark.parametrize("region", SAMPLE_REGIONS)
@pytest.mark.parametrize("m", [8, 33, 128])
def test_boundary_points_on_boundary(region, m):
    pts = boundary_points(region, m)
    assert len(pts) == m
    scale = max(1.0, bounding_radius(region))
    for z in pts:
        assert boundary_distance(region, z) <= 1e-12 * scale


@pytest.mark.parametrize("region", [Disc(1 + 0.5j, 1.5), UNIT_SQUARE, L_SHAPE])
def test_boundary_points_spacing(region, m=64):
    pts = boundary_points(region, m)
    gaps = np.abs(np.diff(np.concatenate([pts, pts[:1]])))
    mean = gaps.mean()
    assert gaps.max() <= 4.0 * mean
    assert gaps.min() >= mean / 4.0


def test_boundary_points_annulus_outer_only():
    pts = boundary_points(Annulus(0j, 0.5, 1.0), 8)
    assert np.allclose(np.abs(pts), 1.0, atol=1e-12)


def test_boundary_points_min_count():
    with pytest.raises(ValueError):
        boundary_points(Disc(0j, 1.0), 7)


def test_boundary_points_disjoint_union_split():
    u = UnionRegion((Disc(-2 + 0j, 0.5), Disc(2 + 0j, 0.5)))
    pts = boundary_points(u, 32)
    left = sum(1 for z in pts if z.real < 0)
    assert 8 <= left <= 24  # rough proportionality for equal perimeters


def test_boundary_points_overlapping_union_outer_only():
    u = UnionRegion((Disc(0j, 1.0), Disc(0.5 + 0j, 1.0)))
    pts = boundary_points(u, 64)
    assert len(pts) == 64
    for z in pts:
        # on the outer boundary of the union: on some part's circle and not
        # strictly inside the other
        on0 = abs(abs(z) - 1.0) <= 1e-9
        on1 = abs(abs(z - 0.5) - 1.0) <= 1e-9
        assert on0 or on1
        if on0:
            assert abs(z - 0.5) >= 1.0 - 1e-9
        if on1:
            assert abs(z) >= 1.0 - 1e-9


# --------------------------------------------------------------- convex hull

def test_hull_disc_circumscribed():
    hull = convex_hull(Disc(0j, 1.0))
    mods = np.array([abs(v) for v in hull.vertices])
    assert mods.min() >= 1.0 - 1e-12
    assert mods.max() <= 1.0 + 1e-6


def test_hull_contains_region_points():
    for region in SAMPLE_REGIONS:
        hull = convex_hull(region)
        slack = dilate(hull, 1e-9)
        for z in random_inner_points(region, 100):
            assert contains(slack, z)


def test_hull_idempotent():
    for region in [Disc(1 + 0.5j, 1.5), L_SHAPE, UnionRegion((Disc(-1 + 0j, 0.3), UNIT_SQUARE))]:
        h1 = convex_hull(region)
        h2 = convex_hull(h1)
        vs1 = {(round(v.real, 10), round(v.imag, 10)) for v in h1.vertices}
        for v in h2.vertices:
            assert min(abs(v - complex(*p)) for p in vs1) <= 1e-9


def test_hull_of_l_shape_is_its_hull():
    hull = convex_hull(L_SHAPE)
    assert contains(hull, 1.5 + 1.5j)  # point in hull but not in L
    assert not contains(L_SHAPE, 1.5 + 1.5j)


# ----------------------------------------------------------- bounding radius

def test_bounding_radius_exact():
    assert bounding_radius(Disc(1 + 0.5j, 1.5)) == abs(1 + 0.5j) + 1.5
    assert bounding_radius(UNIT_SQUARE) == abs(1 + 1j)
    assert bounding_radius(Annulus(2j, 0.25, 0.5)) == 2.5
    u = UnionRegion((Disc(-2 + 0j, 0.5), Disc(2 + 0j, 0.5)))
    assert bounding_radius(u) == 2.5


# ------------------------------------------------------------------- dilate

def test_dilate_identity_at_zero():
    for region in SAMPLE_REGIONS:
        assert dilate(region, 0.0) is region


def test_dilate_disc_annulus_exact():
    assert dilate(Disc(1j, 1.0), 0.25) == Disc(1j, 1.25)
    assert dilate(Annulus(0j, 0.5, 1.0), 0.25) == Annulus(0j, 0.25, 1.25)
    assert dilate(Annulus(0j, 0.5, 1.0), 0.75) == Disc(0j, 1.75)


def test_dilate_square_sandwich():
    # contains the true delta-neighbourhood, inside the (1+1e-6) one
    delta = 0.1
    big = dilate(UNIT_SQUARE, delta)
    for z in random_inner_points(UNIT_SQUARE, 50):
        w = z + delta * np.exp(2j * np.pi * RNG.uniform())
        if abs(w - z) <= delta:  # any point within delta of the square
            assert contains(big, w)
    # outer bound: every dilated-polygon vertex is within delta*(1+1e-6)
    for v in big.vertices:
        d = boundary_distance(UNIT_SQUARE, v)
        inside = contains(UNIT_SQUARE, v)
        assert inside or d <= delta * (1.0 + 1.0e-6) + 1e-15


def test_dilate_monotone_in_delta():
    for region in [Disc(1 + 0.5j, 1.5), UNIT_SQUARE, L_SHAPE]:
        small = dilate(region, 0.05)
        large = dilate(region, 0.20)
        hi = bounding_radius(region) + 0.3
        count = 0
        while count < 100:
            z = complex(RNG.uniform(-hi, hi), RNG.uniform(-hi, hi))
            if contains(small, z):
                count += 1
                assert contains(large, z, tol=1e-12)


def test_dilate_nonconvex_covers_reflex_corner():
    fat = dilate(L_SHAPE, 0.1)
    # near the reflex corner 1+1j the neighbourhood bulges into the notch
    assert contains(fat, 1.05 + 1.05j)
    assert contains(fat, 1.0 + 2.05j)
    assert not contains(fat, 1.5 + 1.5j)


# ------------------------------------------------------------------- affine

def test_affine_exact_images():
    assert affine(Disc(1j, 2.0), 2j, 1 + 0j) == Disc(2j * 1j + 1, 4.0)
    sq = affine(UNIT_SQUARE, 2.0, 1j)
    assert sq.vertices[1] == 2 + 1j
    ann = affine(Annulus(0j, 1.0, 2.0), 0.5j, 0j)
    assert ann.inner == 0.5 and ann.outer == 1.0


def test_affine_composition():
    a1, b1, a2, b2 = 1.5 - 0.5j, 2j, -0.25 + 1j, 3.0 + 0j
    for region in [Disc(1 + 1j, 0.5), UNIT_SQUARE]:
        lhs = affine(affine(region, a1, b1), a2, b2)
        rhs = affine(region, a2 * a1, a2 * b1 + b2)
        assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(
    st.complex_numbers(min_magnitude=0.1, max_magnitude=3, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_affine_disc_membership_transport(a, b):
    d = Disc(0.3 + 0.1j, 0.7)
    img = affine(d, a, b)
    for z in [0.3 + 0.1j, 0.3 + 0.1j + 0.7, 0.3 + 0.1j - 0.7j]:
        assert contains(img, a * z + b, tol=1e-9 * (1 + abs(a)))


# ------------------------------------------------------------ capacity_known

def test_capacity_known():
    assert capacity_known(Disc(3 - 2j, 0.75)) == 0.75
    assert capacity_known(UNIT_SQUARE) == pytest.approx(0.5901702995080481, rel=1e-14)
    assert capacity_known(Annulus(0j, 0.5, 1.0)) is None
    assert capacity_known(UnionRegion((Disc(0j, 1.0),))) is None


def test_capacity_known_regular_polygons():
    # the n-gon formula against the separate closed forms for n = 3 and 4
    triangle = Polygon((0j, 2 + 0j, complex(1, math.sqrt(3))))
    exact3 = math.gamma(1 / 3) ** 3 * math.sqrt(3) / (8 * math.pi ** 2)
    assert capacity_known(triangle) == pytest.approx(2 * exact3, rel=1e-14)
    square = affine(UNIT_SQUARE, 3 * complex(math.cos(0.4), math.sin(0.4)), 5 - 1j)
    exact4 = math.gamma(0.25) ** 2 / (4 * math.pi ** 1.5)
    assert capacity_known(square) == pytest.approx(3 * exact4, rel=1e-13)
    hexagon = Polygon(tuple(complex(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                            for k in range(6)))
    assert math.sqrt(3) / 2 < capacity_known(hexagon) < 1  # between in- and circumradius
    # equal sides without a common circle, and a common circle without equal sides
    rhombus = (0j, 1 + 0j, complex(1.5, math.sqrt(3) / 2), complex(0.5, math.sqrt(3) / 2))
    assert capacity_known(Polygon(rhombus)) is None
    assert capacity_known(Polygon((0j, 2 + 0j, 2 + 1j, 1j))) is None


# ------------------------------------------------------------------- config

def test_config_round_trip():
    for region in SAMPLE_REGIONS:
        rec = region_to_config(region)
        back = region_from_config(rec)
        assert back == region


def test_config_rejects_malformed():
    with pytest.raises(ValueError):
        region_from_config({"shape": "blob"})
    with pytest.raises(ValueError):
        region_from_config({"shape": "disc", "center": [0, 0]})
    with pytest.raises(ValueError):
        region_from_config({"shape": "disc", "center": [0], "radius": 1.0})
    with pytest.raises(ValueError):
        region_from_config({"radius": 1.0})
