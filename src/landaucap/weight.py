"""Weights on plane regions and their mixed moment tables.

A weight is a nonnegative density on a compact support region. The moment
table mu_ab = int z^a conj(z)^b v(z) g(z) dm(z) comes in two flavours:
plain (g = 1) and Gaussian (g = exp(-b0 |z|^2 / 2)). Tables are computed
at a stated bit precision and stored with monomials prescaled by the
bounding radius, which keeps the Gram entries of order of the total mass.

A table takes one of three paths (mixed_moments): 1d radial integrals for a
centred radial weight, a contour integral over the boundary for any other
constant density (Green's theorem), and a 2d area rule for the rest. The
last two share one exact fixed-point integer Gram kernel.

A three-dimensional potential V enters as its x3-integral, a density on
the plane: ball_reduction_weight is the solid ball's, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from mpmath import mp

from ._mp import cdot, fixed_bits, from_fixed, gauss_legendre, map_rule, tanh_sinh, to_fixed
from .errors import DegenerateMomentError
from .region import (
    Annulus,
    Disc,
    Polygon,
    Region,
    UnionRegion,
    bounding_radius,
    contains,
    region_from_config,
    region_key,
    region_to_config,
    _real,
    _strictly_inside,
)

__all__ = [
    "Constant",
    "Radial",
    "Generic",
    "Weight",
    "MomentTable",
    "quadrature",
    "mixed_moments",
    "weight_key",
    "weight_from_config",
    "weight_to_config",
    "emission_digits",
]

DEGENERATE_MSG = "moment table numerically degenerate; increase precision"
UNION_MSG = "union parts must be pairwise disjoint for quadrature"


def emission_digits(prec: int) -> int:
    return math.ceil(prec * 0.3)


# ------------------------------------------------------------------ densities

@dataclass(frozen=True)
class Constant:
    c: float = 1.0


@dataclass(frozen=True)
class Radial:
    """Density depending on |z| only (radial about the origin)."""

    profile: Callable
    poly_degree: Optional[int] = None  # set when profile is polynomial in rho
    label: str = "radial"


@dataclass(frozen=True)
class Generic:
    fn: Callable
    label: str = "generic"


@dataclass(frozen=True)
class Weight:
    support: Region
    density: object
    positive_on: Optional[Region] = None  # region whose interior has v >= c > 0 on compacts

    def __post_init__(self):
        d = self.density
        if isinstance(d, Constant):
            if not d.c > 0:
                raise ValueError("weight is degenerate (zero mass)")
            if self.positive_on is None:
                object.__setattr__(self, "positive_on", self.support)
            return
        if not isinstance(d, (Radial, Generic)):
            raise ValueError("density must be Constant, Radial or Generic")
        # sampling nondegeneracy check at double precision
        vals = [float(_density_value(d, z)) for z in _probe_points(self.support)]
        if min(vals) < -1e-12:
            raise ValueError("weight must be nonnegative")
        if max(vals) <= 0.0:
            raise ValueError("weight is degenerate (zero mass)")


def _probe_points(support: Region, per_axis: int = 12):
    r = bounding_radius(support)
    pts = []
    for i in range(per_axis):
        for j in range(per_axis):
            z = complex(-r + (2 * r) * (i + 0.5) / per_axis, -r + (2 * r) * (j + 0.5) / per_axis)
            if contains(support, z):
                pts.append(z)
    if not pts:
        raise ValueError("support has no probe points, region looks degenerate")
    return pts


def _density_value(density, z):
    if isinstance(density, Constant):
        return mp.mpf(density.c)
    if isinstance(density, Radial):
        return density.profile(abs(z))
    return density.fn(z)


def _density_key(density) -> str:
    if isinstance(density, Constant):
        return f"const:{density.c!r}"
    if isinstance(density, Radial):
        return f"radial:{density.label}:{density.poly_degree}"
    return f"generic:{density.label}"


def weight_key(w: Weight) -> str:
    return f"{_density_key(w.density)}|{region_key(w.support)}"


# ----------------------------------------------------------- quadrature rules

@dataclass
class _Rule:
    """Nodes with area weights, or with the steps dz of a boundary rule."""

    nodes: list
    weights: list
    boundary: bool = False


def _polar(center, lo, hi, degree, prec):
    """Product rule on the ring lo <= |z - center| <= hi: Gauss-Legendre in
    the radius, degree + 1 equispaced angles."""
    n_r = max(1, math.ceil((degree + 2) / 2))
    xs, ws = gauss_legendre(n_r, prec)
    T = degree + 1
    with mp.workprec(prec + 10):
        rho, rw = map_rule(xs, ws, lo, hi)
        circle = [mp.expjpi(mp.mpf(2 * t) / T) for t in range(T)]
        step = 2 * mp.pi / T
        nodes = [center + r * e for r in rho for e in circle]
        weights = [w * r * step for r, w in zip(rho, rw) for _ in circle]
    return nodes, weights


def _triangle_rule(a, b, c, degree, prec):
    """Tensor rule on a triangle via the collapsed-square map, exact for
    total degree <= degree."""
    n_u = max(1, math.ceil((degree + 2) / 2))
    n_v = max(1, math.ceil((degree + 1) / 2))
    xu, wu = gauss_legendre(n_u, prec)
    xv, wv = gauss_legendre(n_v, prec)
    with mp.workprec(prec + 10):
        a, b, c = mp.mpc(a), mp.mpc(b), mp.mpc(c)
        area2 = abs(mp.im(mp.conj(b - a) * (c - a)))  # twice the area
        us, uw = map_rule(xu, wu, mp.mpf(0), mp.mpf(1))
        vs, vw = map_rule(xv, wv, mp.mpf(0), mp.mpf(1))
        nodes, weights = [], []
        for u, wu_ in zip(us, uw):
            for v, wv_ in zip(vs, vw):
                nodes.append(a + u * ((1 - v) * (b - a) + v * (c - a)))
                weights.append(wu_ * wv_ * area2 * u)
    return nodes, weights


def _edges(vs, degree, prec):
    """Gauss-Legendre on every edge of a counterclockwise ring, degree // 2 + 1
    nodes each: exact for polynomials in (z, conj z) of degree <= degree."""
    xs, ws = gauss_legendre(degree // 2 + 1, prec)
    nodes, steps = [], []
    with mp.workprec(prec + 10):
        for a, b in zip(vs, vs[1:] + vs[:1]):
            half, mid = (mp.mpc(b) - a) / 2, (mp.mpc(b) + a) / 2
            nodes.extend(mid + half * x for x in xs)
            steps.extend(half * w for w in ws)
    return nodes, steps


def _circle(center, radius, degree, prec, sign=1):
    """Trapezoid rule with degree + 2 nodes on a counterclockwise circle (sign
    -1 reverses it): exact for polynomials in (z, conj z) of degree <= degree."""
    T = degree + 2
    with mp.workprec(prec + 10):
        es = [mp.expjpi(mp.mpf(2 * t) / T) for t in range(T)]
        r = mp.mpf(radius)
        k = mp.mpc(0, sign * 2 * mp.pi / T) * r
        return [center + r * e for e in es], [k * e for e in es]


def _is_convex_ring(vs) -> bool:
    n = len(vs)
    for i in range(n):
        a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
        if (b.real - a.real) * (c.imag - b.imag) - (b.imag - a.imag) * (c.real - b.real) < 0:
            return False
    return True


def _triangulate(vs):
    if _is_convex_ring(vs):
        return [(vs[0], vs[i], vs[i + 1]) for i in range(1, len(vs) - 1)]
    # ear clipping for simple non-convex rings
    idx = list(range(len(vs)))
    tris = []

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    def inside(p, a, b, c):
        # closed triangle: a vertex exactly on a diagonal must block the ear
        d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        clipped = False
        for k in range(len(idx)):
            i0, i1, i2 = idx[k - 1], idx[k], idx[(k + 1) % len(idx)]
            a, b, c = vs[i0], vs[i1], vs[i2]
            if cross(a, b, c) <= 0:
                continue
            if any(inside(vs[j], a, b, c) for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append((a, b, c))
            idx.pop(k)
            clipped = True
            break
        if not clipped:
            raise ValueError("triangulation failed; polygon may be degenerate")
    tris.append((vs[idx[0]], vs[idx[1]], vs[idx[2]]))
    return tris


def _rep_point(region: Region) -> complex:
    if isinstance(region, Disc):
        return region.center
    if isinstance(region, Annulus):
        return region.center + (region.inner + region.outer) / 2.0
    if isinstance(region, Polygon):
        a, b, c = _triangulate(region.vertices)[0]
        return (a + b + c) / 3.0
    if isinstance(region, UnionRegion):
        return _rep_point(region.parts[0])
    raise TypeError


def _bounding_circle(region: Region):
    if isinstance(region, Disc):
        return region.center, region.radius
    if isinstance(region, Annulus):
        return region.center, region.outer
    if isinstance(region, Polygon):
        c = sum(region.vertices) / len(region.vertices)
        return c, max(abs(v - c) for v in region.vertices)
    if isinstance(region, UnionRegion):
        circles = [_bounding_circle(p) for p in region.parts]
        c = sum(ci for ci, _ in circles) / len(circles)
        return c, max(abs(ci - c) + ri for ci, ri in circles)
    raise TypeError


def _disjoint(a: Region, b: Region) -> bool:
    ca, ra = _bounding_circle(a)
    cb, rb = _bounding_circle(b)
    if abs(ca - cb) >= ra + rb - 1e-15:
        return True
    if isinstance(a, Disc) and isinstance(b, Disc):
        return abs(a.center - b.center) >= a.radius + b.radius - 1e-15
    from .region import boundary_points  # local import to dodge cycles

    for first, second in ((a, b), (b, a)):
        if _strictly_inside(second, _rep_point(first), 1e-12):
            return False
        for z in boundary_points(first, 512):
            if _strictly_inside(second, complex(z), 1e-12):
                return False
    return True


def _build_rule(support: Region, degree: int, prec: int, boundary: bool = False) -> _Rule:
    """Area rule on the support, or with boundary=True a rule on its
    positively oriented boundary; either is exact for polynomials in
    (z, conj z) of total degree <= degree."""
    parts = support.parts if isinstance(support, UnionRegion) else (support,)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not _disjoint(parts[i], parts[j]):
                raise ValueError(UNION_MSG)
    nodes, weights = [], []
    for p in parts:
        for ns, ws in _pieces(p, degree, prec, boundary):
            nodes.extend(ns)
            weights.extend(ws)
    return _Rule(nodes, weights, boundary)


def _pieces(part: Region, degree: int, prec: int, boundary: bool):
    """(nodes, weights) pieces of one part's area or boundary rule."""
    if isinstance(part, Polygon):
        if boundary:
            return [_edges(part.vertices, degree, prec)]
        return [_triangle_rule(a, b, c, degree, prec) for a, b, c in _triangulate(part.vertices)]
    if not isinstance(part, (Disc, Annulus)):
        raise TypeError(f"not a region: {part!r}")
    lo, hi = _radial_interval(part)
    if not boundary:
        return [_polar(part.center, lo, hi, degree, prec)]
    inner = [_circle(part.center, lo, degree, prec, -1)] if isinstance(part, Annulus) else []
    return [_circle(part.center, hi, degree, prec)] + inner


def quadrature(support: Region, design_degree: int, precision_bits: int = 128):
    """Nodes and weights integrating polynomials in (z, conj z) of total
    degree <= design_degree exactly over the support."""
    if design_degree < 0:
        raise ValueError("design degree must be >= 0")
    rule = _build_rule(support, design_degree, precision_bits)
    return rule.nodes, rule.weights


# ------------------------------------------------------------- moment tables

@dataclass
class MomentTable:
    kind: str              # "plain" | "gaussian"
    b0: float
    maxdeg: int
    precision_bits: int
    scale_radius: object   # mpf; monomials are (z / scale_radius)^a
    rows: list             # rows[a][b], b <= a
    path: str              # "radial" | "boundary" | "area", see mixed_moments
    weight_key: str
    design_degree: int

    def entry(self, a: int, b: int):
        """Scaled moment for monomials (z/R0)^a conj(z/R0)^b."""
        if max(a, b) > self.maxdeg:
            raise IndexError("degree beyond table")
        if b <= a:
            return self.rows[a][b]
        return mp.conj(self.rows[b][a])

    def raw_entry(self, a: int, b: int):
        """Unscaled moment mu_ab."""
        with mp.workprec(self.precision_bits + 10):
            return self.entry(a, b) * self.scale_radius ** (a + b)


def _gaussian_excess(b0: float, rmax: float, prec: int) -> int:
    """Extra design degrees resolving exp(-b0 |z|^2/2) on |z| <= rmax: the
    smallest K with (b0 rmax^2/2)^(K+1)/(K+1)! below the emission floor."""
    x = float(b0) * float(rmax) ** 2 / 2.0
    target = -(emission_digits(prec) + 10) * math.log(10.0)
    lx = math.log(x) if x > 0 else -700.0
    K = 1
    while (K + 1) * lx - math.lgamma(K + 2) > target:
        K += 1
    return max(30, 2 * K)


def _default_precision(maxdeg: int) -> int:
    return 128 if maxdeg <= 24 else 256


_GENERIC_MARGIN = 48  # oversampling degrees for non-polynomial densities on the 2d path


def _density_margin(density) -> int:
    if isinstance(density, Constant):
        return 0
    if isinstance(density, Radial) and density.poly_degree is not None:
        k = density.poly_degree
        return k if k % 2 == 0 else k + _GENERIC_MARGIN  # odd |z|^k is not polynomial in (x, y)
    return _GENERIC_MARGIN


def _radial_applicable(w: Weight) -> bool:
    if not isinstance(w.support, (Disc, Annulus)):
        return False
    if w.support.center != 0:
        return False
    return isinstance(w.density, (Constant, Radial))


def _radial_interval(support):
    if isinstance(support, Disc):
        return mp.mpf(0), mp.mpf(support.radius)
    return mp.mpf(support.inner), mp.mpf(support.outer)


def _radial_table(w, kind, maxdeg, prec, b0):
    lo, hi = _radial_interval(w.support)
    d = w.density
    poly_deg = 0 if isinstance(d, Constant) else d.poly_degree
    gaussian = kind == "gaussian"
    if poly_deg is not None:
        need = 2 * maxdeg + 1 + poly_deg
        if gaussian:
            need += _gaussian_excess(b0, float(hi), prec)
        xs, ws = gauss_legendre(math.ceil((need + 1) / 2), prec)
        rho, rw = map_rule(xs, ws, lo, hi)
    else:
        need = -1  # adaptive double-exponential rule, no polynomial design degree
        pairs = tanh_sinh(prec)
        rho, rw = map_rule([x for x, _ in pairs], [wt for _, wt in pairs], lo, hi)
    R0 = mp.mpf(bounding_radius(w.support))
    b0m = mp.mpf(b0)
    two_pi = 2 * mp.pi
    data, ratio = [], []
    for r, wt in zip(rho, rw):
        val = mp.mpf(d.c) if isinstance(d, Constant) else mp.mpf(d.profile(r))
        if gaussian:
            val *= mp.exp(-b0m * r * r / 2)
        data.append(two_pi * wt * r * val)
        ratio.append((r / R0) ** 2)
    rows = []
    for a in range(maxdeg + 1):
        s = mp.fsum(data)
        if not s > 0:
            raise DegenerateMomentError(DEGENERATE_MSG)
        rows.append([mp.mpf(0)] * a + [s])
        if a < maxdeg:
            data = [dv * rv for dv, rv in zip(data, ratio)]
    return rows, R0, need


def _s_rows(xs, maxdeg):
    """S_b(x) = int_0^1 t^b exp(-x t) dt for b = 0..maxdeg at every x, as
    rows[b][i]: S_maxdeg from its positive series
    exp(-x) sum_j x^j / ((b+1)...(b+1+j)), then downward by
    S_b = (exp(-x) + x S_(b+1)) / (b+1). No step cancels."""
    cols = []
    for x in xs:
        ex = mp.exp(-x)
        term = total = mp.one / (maxdeg + 1)
        j = maxdeg + 1
        while term > mp.eps * total:
            j += 1
            term = term * x / j
            total += term
        col = [ex * total]
        for b in range(maxdeg, 0, -1):
            col.append((ex + x * col[-1]) / b)
        cols.append(col[::-1])
    return [list(row) for row in zip(*cols)]


def _gram_table(w, rule: _Rule, kind, maxdeg, prec, b0, guard=0):
    """Scaled table rows[a][b] = sum_i x_i u_i^a conj(y_ib), u = z / R0, as
    exact fixed-point integer sums carrying guard more bits, rounded once
    per entry to prec.

    Area rule: x_i = c_i, the node weight times the density and the
    Gaussian, and y_ib = u_i^b. Boundary rule: x_i = c R0 dz_i / 2i and
    y_ib = S_b(beta |z_i|^2) u_i^(b+1), the contour form of the constant
    density's moments (see mixed_moments)."""
    R0 = mp.mpf(bounding_radius(w.support))
    F = fixed_bits(prec + guard, len(rule.nodes))
    with mp.workprec(F):
        zs = [mp.mpc(z) for z in rule.nodes]
        beta = mp.mpf(b0) / 2 if kind == "gaussian" else mp.zero
        sq = [beta * (z.real ** 2 + z.imag ** 2) for z in zs]
        if rule.boundary:
            k = mp.mpc(0, -mp.mpf(w.density.c) * R0 / 2)
            x0 = [k * dz for dz in rule.weights]
            srows = _s_rows(sq, maxdeg)
        else:
            x0 = [wt * mp.mpf(_density_value(w.density, z)) for z, wt in zip(zs, rule.weights)]
            if beta:
                x0 = [x * mp.exp(-s) for x, s in zip(x0, sq)]
        us = [z / R0 for z in zs]
    (xr, xi), e_x = to_fixed([[mp.re(x) for x in x0], [mp.im(x) for x in x0]], F)
    (ur, ui), e_u = to_fixed([[u.real for u in us], [u.imag for u in us]], F)

    def times_u(p):
        pr, pi = p
        return ([(a * c - b * d) >> -e_u for a, b, c, d in zip(pr, pi, ur, ui)],
                [(a * d + b * c) >> -e_u for a, b, c, d in zip(pr, pi, ur, ui)])

    xs = [(xr, xi)]
    ys = [([1 << -e_u] * len(ur), [0] * len(ur))]  # u^k over 2^e_u
    for _ in range(maxdeg):
        xs.append(times_u(xs[-1]))
    for _ in range(maxdeg + 1):
        ys.append(times_u(ys[-1]))
    if rule.boundary:
        fixed_s = [to_fixed([row], F) for row in srows]
        ys = [([(v * p) >> -e_s for v, p in zip(s, pr)], [(v * p) >> -e_s for v, p in zip(s, pi)])
              for ((s,), e_s), (pr, pi) in zip(fixed_s, ys[1:])]
    rows = []
    for a in range(maxdeg + 1):
        row = []
        for b in range(a + 1):
            re, im = cdot(xs[a], ys[b])
            row.append(from_fixed(re, None if b == a else im, e_x + e_u, prec))
        rows.append(row)
    return rows, R0


def mixed_moments(
    w: Weight,
    kind: str,
    maxdeg: int,
    precision_bits: Optional[int] = None,
    b0: float = 2.0,
) -> MomentTable:
    """Moment table mu_ab for 0 <= a, b <= maxdeg, Hermitian by construction,
    on one of three paths named by MomentTable.path:

    - "radial": a disc or annulus centred at 0 with a Constant or Radial
      density; 1d radial integrals, exactly zero off the diagonal.
    - "boundary": a Constant density c on any other support. For b <= a,
      with beta = b0/2 (Gaussian) or 0 (plain) and
      S_b(x) = int_0^1 t^b exp(-x t) dt,
      mu_ab = (c/2i) contour-integral of z^a conj(z)^(b+1) S_b(beta |z|^2) dz
      (Green's theorem: (b+1) S_b + x S_b' = exp(-x)). With design degree
      D = 2 maxdeg + 1, plus the Gaussian excess, each polygon edge gets
      D//2 + 1 Gauss-Legendre nodes and each circle D + 2 trapezoid nodes
      (an annulus's inner circle reversed); a union joins its parts' rules,
      so an edge two parts share cancels. Plain tables are exact.
    - "area": a Generic density, or a Radial one off centre, on a 2d product
      rule of design degree 2 maxdeg, plus the Gaussian excess, plus 48
      degrees for a non-polynomial density, which is then approximate.

    Boundary and area node values, evaluated at _mp.fixed_bits (32 guard
    bits and the bit length of the node count past precision_bits), become
    fixed-point integers; the sums are exact and each entry is rounded once.
    Against the same rule summed in mpc at 128 more bits, every entry lies
    within 4 units of 2^-precision_bits sqrt(G_aa G_bb); about 1 is typical.

    The radial path rejects a nonpositive diagonal entry. A boundary or area
    table is checked where it is used: by the Cholesky of
    monic_orthogonalize when plain, by the level-q assembly when Gaussian.
    """
    if kind not in ("plain", "gaussian"):
        raise ValueError("kind must be 'plain' or 'gaussian'")
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    prec = precision_bits if precision_bits is not None else _default_precision(maxdeg)

    with mp.workprec(prec):
        if _radial_applicable(w):
            rows, R0, degree_used = _radial_table(w, kind, maxdeg, prec, b0)
            path = "radial"
        else:
            boundary = isinstance(w.density, Constant)
            degree_used = 2 * maxdeg + (1 if boundary else 0) + _density_margin(w.density)
            guard = 0
            if kind == "gaussian":
                rmax = bounding_radius(w.support)
                degree_used += _gaussian_excess(b0, rmax, prec)
                if boundary:
                    # boundary terms lack the factor exp(-b0 |z|^2 / 2) of the
                    # moments, so their sum cancels up to b0 rmax^2 / 2 nats
                    guard = math.ceil(b0 * rmax ** 2 / 2 / math.log(2))
            rule = _build_rule(w.support, degree_used, prec + guard, boundary)
            rows, R0 = _gram_table(w, rule, kind, maxdeg, prec, b0, guard)
            path = "boundary" if boundary else "area"
    return MomentTable(
        kind=kind,
        b0=float(b0),
        maxdeg=maxdeg,
        precision_bits=prec,
        scale_radius=R0,
        rows=rows,
        path=path,
        weight_key=weight_key(w),
        design_degree=degree_used,
    )


# ------------------------------------------------------------------ configs

def weight_from_config(rec: dict) -> Weight:
    if not isinstance(rec, dict) or "density" not in rec:
        raise ValueError("weight record needs a 'density'")
    dens = rec["density"]
    if not isinstance(dens, dict) or "kind" not in dens:
        raise ValueError("density record needs a 'kind'")
    kind = dens["kind"]
    if kind == "ball3d_reduction":
        R = _real(dens.get("R", 1.0))
        if not R > 0:
            raise ValueError("ball radius must be positive")
        if rec.get("support") not in (None, "auto"):
            raise ValueError("ball3d_reduction fixes its own support; omit it or use 'auto'")
        return ball_reduction_weight(R)
    if "support" not in rec:
        raise ValueError("weight record needs a 'support'")
    support = region_from_config(rec["support"])
    if kind == "constant":
        return Weight(support, Constant(_real(dens.get("c", 1.0))))
    if kind == "radial":
        prof = dens.get("profile", "chi")
        if prof == "chi":
            return Weight(support, Constant(1.0))
        if isinstance(prof, str) and prof.startswith("power:"):
            k = int(prof.split(":", 1)[1])
            if k < 0:
                raise ValueError("power profile needs k >= 0")
            return Weight(support, Radial(lambda r, _k=k: r**_k, poly_degree=k, label=f"power:{k}"))
        raise ValueError(f"unknown radial profile {prof!r}")
    raise ValueError(f"unknown density kind {kind!r}")


def ball_reduction_weight(R: float = 1.0) -> Weight:
    """Weight from collapsing the indicator of the ball of radius R along x3;
    the chord integral gives 2 sqrt(R^2 - |z|^2) on the disc shadow.

    The profile evaluates that chord in closed form at the working precision,
    with R^2 formed there too, so the weight carries every bit of
    ``precision_bits``. It depends on |z| only, so the diagonal moment path
    applies. Any other 3d potential enters the same way: write its
    x3-integral as a Radial or Generic density on the shadow region."""
    R = float(R)

    def chord(r):
        r = mp.mpf(r)
        return 2 * mp.sqrt(mp.mpf(R) ** 2 - r * r) if r < R else mp.mpf(0)

    return Weight(Disc(0j, R), Radial(chord, None, label=f"ball3d:{R}"), positive_on=Disc(0j, R))


def weight_to_config(w: Weight) -> dict:
    d = w.density
    if isinstance(d, Constant):
        dens = {"kind": "constant", "c": d.c}
    elif isinstance(d, Radial) and d.label.startswith("power:"):
        dens = {"kind": "radial", "profile": d.label}
    elif isinstance(d, Radial) and d.label.startswith("ball3d:"):
        return {"support": "auto", "density": {"kind": "ball3d_reduction", "R": float(d.label.split(":", 1)[1])}}
    else:
        raise ValueError("weight has no config form (callable density)")
    return {"support": region_to_config(w.support), "density": dens}
