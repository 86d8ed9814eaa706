import math

import pytest
from hypothesis import given, settings, strategies as st

from landaucap.region import (
    Annulus,
    Disc,
    Polygon,
    UnionRegion,
    affine,
    bounding_radius,
    capacity_known,
    contains,
    region_from_config,
)
from landaucap.weight import _build_rule

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


def boundary_distance(region, z):
    if isinstance(region, Disc):
        return abs(abs(z - region.center) - region.radius)
    if isinstance(region, Annulus):
        d = abs(z - region.center)
        return min(abs(d - region.inner), abs(d - region.outer))
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


def rule_size(region, degree):
    """Node count of the boundary rule: degree + 2 per circle, degree // 2 + 1 per edge."""
    if isinstance(region, Disc):
        return degree + 2
    if isinstance(region, Annulus):
        return 2 * (degree + 2)
    if isinstance(region, Polygon):
        return len(region.vertices) * (degree // 2 + 1)
    return sum(rule_size(p, degree) for p in region.parts)


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
    # the same crossing with its edges cut into 300 vertices
    corners = (0j, 1 + 1j, 1 + 0j, 2j)
    ring = tuple(a + (b - a) * k / 75 for a, b in zip(corners, corners[1:] + corners[:1])
                 for k in range(75))
    with pytest.raises(ValueError, match="self-intersect"):
        Polygon(ring)
    # non-finite points: construction alone must fail, before any table work
    inf, nan = float("inf"), float("nan")
    for build in (lambda: Disc(complex(inf, 0), 1.0),
                  lambda: Annulus(complex(nan, 0), 0.5, 1.0),
                  lambda: Polygon((0j, 1 + 0j, complex(inf, 1))),
                  lambda: Polygon((0j, 1 + 0j, complex(1, nan)))):
        with pytest.raises(ValueError, match="must be finite"):
            build()


# ------------------------------------------------------- boundary rule nodes

@pytest.mark.parametrize("region", SAMPLE_REGIONS)
@pytest.mark.parametrize("m", [8, 33, 128])
def test_boundary_points_on_boundary(region, m):
    # the nodes that boundary-path moment tables integrate over
    rule = _build_rule(region, m, 64)
    assert len(rule.nodes) == len(rule.steps) == rule_size(region, m)
    scale = max(1.0, bounding_radius(region))
    for z in rule.nodes:
        assert boundary_distance(region, complex(z)) <= 1e-12 * scale


# ----------------------------------------------------------- bounding radius

def test_bounding_radius_exact():
    assert bounding_radius(Disc(1 + 0.5j, 1.5)) == abs(1 + 0.5j) + 1.5
    assert bounding_radius(UNIT_SQUARE) == abs(1 + 1j)
    assert bounding_radius(Annulus(2j, 0.25, 0.5)) == 2.5
    u = UnionRegion((Disc(-2 + 0j, 0.5), Disc(2 + 0j, 0.5)))
    assert bounding_radius(u) == 2.5


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
    assert contains(img, a * d.center + b)
    for z in [d.center + 0.7, d.center - 0.7j]:
        # boundary points land on the image circle, up to rounding
        assert abs(abs(a * z + b - img.center) - img.radius) <= 1e-9 * (1 + abs(a))


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

def test_config_parses_every_shape():
    disc = {"shape": "disc", "center": [-2, 0], "radius": 0.5}
    recs = [
        {"shape": "disc", "center": [0, 0], "radius": 1},
        {"shape": "disc", "center": [1, 0.5], "radius": 1.5},
        {"shape": "annulus", "center": [0, 0], "inner": 0.5, "outer": 1},
        {"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        {"shape": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]},
        {"shape": "union", "parts": [disc, dict(disc, center=[2, 0])]},
    ]
    for rec, region in zip(recs, SAMPLE_REGIONS, strict=True):
        assert region_from_config(rec) == region


def test_config_rejects_malformed():
    with pytest.raises(ValueError):
        region_from_config({"shape": "blob"})
    with pytest.raises(ValueError):
        region_from_config({"shape": "disc", "center": [0, 0]})
    with pytest.raises(ValueError):
        region_from_config({"shape": "disc", "center": [0], "radius": 1.0})
    with pytest.raises(ValueError):
        region_from_config({"radius": 1.0})
