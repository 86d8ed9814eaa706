"""Geometry of plane regions used as weight supports.

A region is a disc, an annulus, a simple polygon, or a finite union of
these, always with closed-set semantics. Everything here runs in double
precision; extended precision enters only at the quadrature stage.
"""

from __future__ import annotations

import cmath
import math
from typing import Union as _TUnion

from ._record import record

__all__ = [
    "Disc",
    "Annulus",
    "Polygon",
    "UnionRegion",
    "Region",
    "contains",
    "bounding_radius",
    "affine",
    "capacity_known",
    "region_from_config",
    "region_key",
]


@record(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("disc radius must be positive and finite")
        _finite_points((self.center,), "disc centre")


@record(frozen=True)
class Annulus:
    center: complex
    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer and math.isfinite(self.outer)):
            raise ValueError("annulus radii must satisfy 0 <= inner < outer")
        _finite_points((self.center,), "annulus centre")


@record(frozen=True)
class Polygon:
    vertices: tuple

    def __post_init__(self):
        vs = tuple(complex(v) for v in self.vertices)
        _finite_points(vs, "polygon vertices")
        if len(vs) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        area2 = _signed_area2(vs)
        if area2 == 0.0:
            raise ValueError("polygon has zero area")
        if area2 < 0.0:
            vs = vs[::-1]  # normalize to counterclockwise
        _validate_simple(vs)
        object.__setattr__(self, "vertices", vs)


@record(frozen=True)
class UnionRegion:
    parts: tuple

    def __post_init__(self):
        flat = []
        for p in self.parts:
            if isinstance(p, UnionRegion):
                flat.extend(p.parts)
            elif isinstance(p, (Disc, Annulus, Polygon)):
                flat.append(p)
            else:
                raise ValueError("union parts must be regions")
        if not flat:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", tuple(flat))


Region = _TUnion[Disc, Annulus, Polygon, UnionRegion]


def _finite_points(points, what: str) -> None:
    if not all(cmath.isfinite(complex(z)) for z in points):
        raise ValueError(f"{what} must be finite")


def _signed_area2(vs) -> float:
    # twice the shoelace area, positive for counterclockwise
    a = 0.0
    n = len(vs)
    for i in range(n):
        p, q = vs[i], vs[(i + 1) % n]
        a += p.real * q.imag - q.real * p.imag
    return a


def _orient(p, q, r) -> float:
    """Twice the signed area of pqr, positive when r lies left of p -> q."""
    return (q.real - p.real) * (r.imag - p.imag) - (q.imag - p.imag) * (r.real - p.real)


def _seg_intersect(a, b, c, d) -> bool:
    """Proper or improper intersection of open segments ab and cd."""

    def on_seg(p, q, r):
        return (
            min(p.real, q.real) - 1e-15 <= r.real <= max(p.real, q.real) + 1e-15
            and min(p.imag, q.imag) - 1e-15 <= r.imag <= max(p.imag, q.imag) + 1e-15
        )

    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and on_seg(a, b, c):
        return True
    if o2 == 0 and on_seg(a, b, d):
        return True
    if o3 == 0 and on_seg(c, d, a):
        return True
    if o4 == 0 and on_seg(c, d, b):
        return True
    return False


def _validate_simple(vs):
    n = len(vs)
    for i in range(n):
        if abs(vs[i] - vs[(i + 1) % n]) == 0.0:
            raise ValueError("polygon has a repeated consecutive vertex")
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared-endpoint neighbours
            c, d = vs[j], vs[(j + 1) % n]
            if _seg_intersect(a, b, c, d):
                raise ValueError("polygon edges self-intersect")


def _dist_to_segment(z, a, b) -> float:
    ab = b - a
    L2 = abs(ab) ** 2
    if L2 == 0.0:
        return abs(z - a)
    t = ((z - a).real * ab.real + (z - a).imag * ab.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(z - (a + t * ab))


def _polygon_scale(vs) -> float:
    return max(1.0, max(abs(v) for v in vs))


def contains(region: Region, z: complex) -> bool:
    """Closed membership test; a polygon's edges count within 1e-12 of its scale."""
    z = complex(z)
    if isinstance(region, Disc):
        return abs(z - region.center) <= region.radius
    if isinstance(region, Annulus):
        d = abs(z - region.center)
        return region.inner <= d <= region.outer
    if isinstance(region, Polygon):
        vs = region.vertices
        eps = 1e-12 * _polygon_scale(vs)
        n = len(vs)
        for i in range(n):
            if _dist_to_segment(z, vs[i], vs[(i + 1) % n]) <= eps:
                return True
        inside = False
        x, y = z.real, z.imag
        for i in range(n):
            p, q = vs[i], vs[(i + 1) % n]
            if (p.imag > y) != (q.imag > y):
                xi = p.real + (y - p.imag) * (q.real - p.real) / (q.imag - p.imag)
                if x < xi:
                    inside = not inside
        return inside
    if isinstance(region, UnionRegion):
        return any(contains(p, z) for p in region.parts)
    raise TypeError(f"not a region: {region!r}")


def _strictly_inside(region: Region, z: complex, margin: float) -> bool:
    """True when z is in the interior with clearance > margin from the boundary."""
    if isinstance(region, Disc):
        return abs(z - region.center) < region.radius - margin
    if isinstance(region, Annulus):
        d = abs(z - region.center)
        return region.inner + margin < d < region.outer - margin
    if isinstance(region, Polygon):
        vs = region.vertices
        n = len(vs)
        if any(_dist_to_segment(z, vs[i], vs[(i + 1) % n]) <= margin for i in range(n)):
            return False
        return contains(region, z)
    if isinstance(region, UnionRegion):
        return any(_strictly_inside(p, z, margin) for p in region.parts)
    raise TypeError(f"not a region: {region!r}")


def bounding_radius(region: Region) -> float:
    """max |z| over the region, exactly."""
    if isinstance(region, Disc):
        return abs(region.center) + region.radius
    if isinstance(region, Annulus):
        return abs(region.center) + region.outer
    if isinstance(region, Polygon):
        return max(abs(v) for v in region.vertices)
    if isinstance(region, UnionRegion):
        return max(bounding_radius(p) for p in region.parts)
    raise TypeError(f"not a region: {region!r}")


def affine(region: Region, a: complex, b: complex) -> Region:
    """Exact image under z -> a*z + b, a != 0."""
    a, b = complex(a), complex(b)
    if a == 0:
        raise ValueError("affine scale must be nonzero")
    if isinstance(region, Disc):
        return Disc(a * region.center + b, abs(a) * region.radius)
    if isinstance(region, Annulus):
        return Annulus(a * region.center + b, abs(a) * region.inner, abs(a) * region.outer)
    if isinstance(region, Polygon):
        return Polygon(tuple(a * v + b for v in region.vertices))
    if isinstance(region, UnionRegion):
        return UnionRegion(tuple(affine(p, a, b) for p in region.parts))
    raise TypeError(f"not a region: {region!r}")


def capacity_known(region: Region):
    """Exact logarithmic capacity where a closed form exists.

    Discs have their radius. A regular n-gon of side s has
    Gamma(1/n) s / (2^(1 + 2/n) sqrt(pi) Gamma(1/2 + 1/n)) (Polya & Szego,
    Isoperimetric Inequalities in Mathematical Physics, 1951); a polygon
    counts as regular when its sides agree and its vertices lie on one
    circle about their centroid, both within a relative 1e-12. Its side s
    is the mean side length. Only this branch imports numpy.
    """
    if isinstance(region, Disc):
        return region.radius
    if isinstance(region, Polygon):
        import numpy as np

        vs = np.array(region.vertices)
        sides = np.abs(vs - np.roll(vs, 1))
        radii = np.abs(vs - vs.mean())
        if np.ptp(sides) <= 1e-12 * sides.max() and np.ptp(radii) <= 1e-12 * radii.max():
            n, side = len(vs), float(sides.mean())
            return (math.gamma(1 / n) * side
                    / (2 ** (1 + 2 / n) * math.sqrt(math.pi) * math.gamma(0.5 + 1 / n)))
    return None


def _part_keys(support: Region, image) -> set:
    """The support's parts under the map image, each as an exact key: a
    polygon's counterclockwise vertex cycle started at its least vertex, a
    disc's or annulus's centre and radii."""
    keys = set()
    for part in support.parts if isinstance(support, UnionRegion) else (support,):
        if isinstance(part, Polygon):
            vs = [image(v) for v in part.vertices]
            i = vs.index(min(vs, key=lambda z: (z.real, z.imag)))
            keys.add((Polygon, tuple(vs[i:] + vs[:i])))
        elif isinstance(part, Disc):
            keys.add((Disc, image(part.center), part.radius))
        else:
            keys.add((Annulus, image(part.center), part.inner, part.outer))
    return keys


def _rotation_order(support: Region) -> int:
    """The order m of the rotations z -> exp(2 pi i / m) z about 0 that map
    the support onto itself: 4 when z -> iz does, else 2 when z -> -z does,
    else 1.

    Both maps take binary floats to binary floats exactly, so the support
    is compared with its image part by part with no tolerance. The moment
    rule and table (weight._symmetry) and Symm's capacity system
    (chebyshev) read the same test."""
    parts = _part_keys(support, lambda z: z)
    if _part_keys(support, lambda z: complex(-z.imag, z.real)) == parts:
        return 4
    if _part_keys(support, lambda z: -z) == parts:
        return 2
    return 1


def region_key(region: Region) -> str:
    """Canonical provenance string for cross-checking derived estimates."""
    if isinstance(region, Disc):
        return f"disc({region.center!r},{region.radius!r})"
    if isinstance(region, Annulus):
        return f"annulus({region.center!r},{region.inner!r},{region.outer!r})"
    if isinstance(region, Polygon):
        return "polygon(" + ",".join(repr(v) for v in region.vertices) + ")"
    if isinstance(region, UnionRegion):
        return "union(" + ";".join(region_key(p) for p in region.parts) + ")"
    raise TypeError(f"not a region: {region!r}")


def _real(x) -> float:
    """A config number as float; a non-number (a string too), a boolean, NaN
    or infinity is a ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        val = float(x)
    except OverflowError as e:
        raise ValueError(f"expected a finite number, got {x!r}") from e
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {x!r}")
    return val


def _items(x, what: str):
    if not isinstance(x, (list, tuple)):
        raise ValueError(f"{what} must be a list")
    return x


def _cx(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError("points must be [re, im] pairs")
    return complex(_real(pair[0]), _real(pair[1]))


def region_from_config(rec: dict) -> Region:
    if not isinstance(rec, dict) or "shape" not in rec:
        raise ValueError("region record needs a 'shape' key")
    shape = rec["shape"]
    try:
        if shape == "disc":
            return Disc(_cx(rec["center"]), _real(rec["radius"]))
        if shape == "annulus":
            return Annulus(_cx(rec["center"]), _real(rec["inner"]), _real(rec["outer"]))
        if shape == "polygon":
            return Polygon(tuple(_cx(p) for p in _items(rec["vertices"], "vertices")))
        if shape == "union":
            return UnionRegion(tuple(region_from_config(p) for p in _items(rec["parts"], "parts")))
    except KeyError as e:
        raise ValueError(f"region record missing key {e}") from e
    raise ValueError(f"unknown region shape {shape!r}")
