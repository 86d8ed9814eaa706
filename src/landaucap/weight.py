"""Weights on plane regions and their mixed moment tables.

A weight is a nonnegative density on a compact support region. The moment
table mu_ab = int z^a conj(z)^b v(z) g(z) dm(z) comes in two flavours:
plain (g = 1) and Gaussian (g = exp(-b0 |z|^2 / 2)). Tables are computed
at a stated bit precision and stored with monomials prescaled by the
bounding radius, which keeps the Gram entries of order of the total mass.

A three-dimensional potential V enters as its x3-integral, a density on
the plane: ball_reduction_weight is the solid ball's, in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from mpmath import mp

from ._mp import cdot, dot, fixed_bits, from_fixed, gauss_legendre, map_rule, tanh_sinh, to_fixed
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
class _PolarRule:
    center: complex
    rho: list    # radial nodes, mpf
    rw: list     # radial weights including the rho jacobian, mpf
    ntheta: int


@dataclass
class _FlatRule:
    nodes: list
    weights: list


def _polar(center, lo, hi, degree, prec) -> _PolarRule:
    n_r = max(1, math.ceil((degree + 2) / 2))
    xs, ws = gauss_legendre(n_r, prec)
    with mp.workprec(prec + 10):
        rho, rw = map_rule(xs, ws, mp.mpf(lo), mp.mpf(hi))
        rw = [w * r for w, r in zip(rw, rho)]
    return _PolarRule(center, rho, rw, degree + 1)


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


def _build_rule(support: Region, degree: int, prec: int):
    if isinstance(support, Disc):
        return _polar(support.center, 0, support.radius, degree, prec)
    if isinstance(support, Annulus):
        return _polar(support.center, support.inner, support.outer, degree, prec)
    if isinstance(support, Polygon):
        nodes, weights = [], []
        for a, b, c in _triangulate(support.vertices):
            ns, ws = _triangle_rule(a, b, c, degree, prec)
            nodes.extend(ns)
            weights.extend(ws)
        return _FlatRule(nodes, weights)
    if isinstance(support, UnionRegion):
        parts = support.parts
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if not _disjoint(parts[i], parts[j]):
                    raise ValueError(UNION_MSG)
        nodes, weights = [], []
        for p in parts:
            ns, ws = _materialize(_build_rule(p, degree, prec), prec)
            nodes.extend(ns)
            weights.extend(ws)
        return _FlatRule(nodes, weights)
    raise TypeError(f"not a region: {support!r}")


def _materialize(rule, prec):
    if isinstance(rule, _FlatRule):
        return rule.nodes, rule.weights
    with mp.workprec(prec + 10):
        T = rule.ntheta
        step = 2 * mp.pi / T
        nodes, weights = [], []
        for r, w in zip(rule.rho, rule.rw):
            for t in range(T):
                nodes.append(rule.center + r * mp.expjpi(mp.mpf(2 * t) / T))
                weights.append(w * step)
    return nodes, weights


def quadrature(support: Region, design_degree: int, precision_bits: int = 128):
    """Nodes and weights integrating polynomials in (z, conj z) of total
    degree <= design_degree exactly over the support."""
    if design_degree < 0:
        raise ValueError("design degree must be >= 0")
    rule = _build_rule(support, design_degree, precision_bits)
    return _materialize(rule, precision_bits)


# ------------------------------------------------------------- moment tables

@dataclass
class MomentTable:
    kind: str              # "plain" | "gaussian"
    b0: float
    maxdeg: int
    precision_bits: int
    scale_radius: object   # mpf; monomials are (z / scale_radius)^a
    rows: list             # rows[a][b], b <= a
    diagonal: bool
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


def _polar_dft_table(w, rule: _PolarRule, kind, maxdeg, prec, b0):
    """Origin moments via centered angular DFT sums plus an exact binomial
    shift; a pure reassociation of the quadrature sum, carried out in exact
    fixed-point integer arithmetic and rounded once per entry."""
    R0 = mp.mpf(bounding_radius(w.support))
    b0m = mp.mpf(b0)
    T = rule.ntheta
    step = 2 * mp.pi / T
    omega = [mp.expjpi(mp.mpf(2 * t) / T) for t in range(T)]
    center = mp.mpc(rule.center)
    gaussian = kind == "gaussian"
    dens = w.density

    F = fixed_bits(prec, len(rule.rho) * T)
    with mp.workprec(F):
        cos_sin = ([mp.cospi(mp.mpf(2 * m) / T) for m in range(T)],
                   [mp.sinpi(mp.mpf(2 * m) / T) for m in range(T)])
        rr = [r / R0 for r in rule.rho]
    (cos_t, sin_t), e_trig = to_fixed(cos_sin, F)
    (rfix,), e_r = to_fixed([rr], F)
    omega_k = [([cos_t[(t * k) % T] for t in range(T)], [sin_t[(t * k) % T] for t in range(T)])
               for k in range(maxdeg + 1)]

    # angular sums C_i[k] = sum_t c_{i,t} omega^{t k}, one ring at a time,
    # each ring's node values over their own exponent
    const_val = mp.mpf(dens.c) if isinstance(dens, Constant) else None
    ring_sums, ring_exps = [], []
    for r, rwt in zip(rule.rho, rule.rw):
        base = rwt * step
        cdata = []
        for t in range(T):
            z = center + r * omega[t]
            val = base * const_val if const_val is not None else base * mp.mpf(_density_value(dens, z))
            if gaussian:
                val *= mp.exp(-b0m * (mp.re(z) ** 2 + mp.im(z) ** 2) / 2)
            cdata.append(val)
        (c,), e_i = to_fixed([cdata], F)
        ring_sums.append([(dot(c, cos_k), dot(c, sin_k)) for cos_k, sin_k in omega_k])
        ring_exps.append(e_i)
    # exact left shifts put every ring over the smallest exponent
    e_c = min(ring_exps)
    chat = [([sums[k][0] << (e - e_c) for sums, e in zip(ring_sums, ring_exps)],
             [sums[k][1] << (e - e_c) for sums, e in zip(ring_sums, ring_exps)])
            for k in range(maxdeg + 1)]

    # (r_i / R0)^m, m = 0..2 maxdeg, every row over the exponent e_r
    powers = [[1 << -e_r] * len(rfix)]
    for _ in range(2 * maxdeg):
        powers.append([(p * r) >> -e_r for p, r in zip(powers[-1], rfix)])

    # scaled centered moments nu[alpha][beta] over 2^e_nu, Hermitian,
    # stored as (re, im) rows of integers
    e_nu = e_c + e_trig + e_r
    nu = [([0] * (maxdeg + 1), [0] * (maxdeg + 1)) for _ in range(maxdeg + 1)]
    for alpha in range(maxdeg + 1):
        for beta in range(alpha + 1):
            re_k, im_k = chat[alpha - beta]
            re, im = dot(powers[alpha + beta], re_k), dot(powers[alpha + beta], im_k)
            nu[alpha][0][beta] = nu[beta][0][alpha] = re
            nu[alpha][1][beta], nu[beta][1][alpha] = im, -im

    if center == 0:
        return [
            [from_fixed(nu[a][0][b], nu[a][1][b], e_nu, prec) for b in range(a)]
            + [from_fixed(nu[a][0][a], None, e_nu, prec)]
            for a in range(maxdeg + 1)
        ], R0

    # u^a = sum_alpha K[a][alpha] (u - chat0)^alpha, K[a][alpha] = C(a, alpha) chat0^(a - alpha),
    # so the table is K nu K^H: two triangular products, one exponent per row of K
    with mp.workprec(F):
        chat0 = center / R0
        pw = [mp.mpc(1)]
        for _ in range(maxdeg):
            pw.append(pw[-1] * chat0)
        kmat = []
        for a in range(maxdeg + 1):
            ka = [math.comb(a, al) * pw[a - al] for al in range(a + 1)]
            kmat.append(to_fixed([[v.real for v in ka], [v.imag for v in ka]], F))
    rows = []
    for a in range(maxdeg + 1):
        ka, e_ka = kmat[a]
        # (K nu)[a][beta] = sum_alpha K[a][alpha] conj(nu[beta][alpha])
        m_re, m_im = zip(*(cdot(ka, (re[: a + 1], im[: a + 1])) for re, im in nu))
        row = []
        for b in range(a + 1):
            kb, e_kb = kmat[b]
            re, im = cdot((m_re[: b + 1], m_im[: b + 1]), kb)
            row.append(from_fixed(re, None if b == a else im, e_ka + e_nu + e_kb, prec))
        rows.append(row)
    return rows, R0


def _flat_table(w, rule: _FlatRule, kind, maxdeg, prec, b0):
    """Gram entries sum_i c_i u_i^a conj(u_i)^b, u = z / R0, as exact
    fixed-point integer dot products of the rows x^a = sqrt|c| u^a, rounded
    once per entry."""
    R0 = mp.mpf(bounding_radius(w.support))
    b0m = mp.mpf(b0)
    gaussian = kind == "gaussian"
    dens = w.density
    cs = []
    for z, wt in zip(rule.nodes, rule.weights):
        val = wt * mp.mpf(dens.c) if isinstance(dens, Constant) else wt * mp.mpf(_density_value(dens, z))
        if gaussian:
            val *= mp.exp(-b0m * (mp.re(z) ** 2 + mp.im(z) ** 2) / 2)
        cs.append(val)
    F = fixed_bits(prec, len(cs))
    with mp.workprec(F):
        roots = [mp.sqrt(abs(c)) for c in cs]
        us = [mp.mpc(z) / R0 for z in rule.nodes]
    (root,), e_x = to_fixed([roots], F)
    (ur, ui), e_u = to_fixed([[u.real for u in us], [u.imag for u in us]], F)
    xs = [(root, [0] * len(root))]
    for _ in range(maxdeg):
        xr, xi = xs[-1]
        xs.append((
            [(p * c - q * d) >> -e_u for p, q, c, d in zip(xr, xi, ur, ui)],
            [(p * d + q * c) >> -e_u for p, q, c, d in zip(xr, xi, ur, ui)],
        ))
    # a negative node value flips the sign of its conjugate factor
    if any(c < 0 for c in cs):
        sign = [-1 if c < 0 else 1 for c in cs]
        ys = [([s * v for s, v in zip(sign, xr)], [s * v for s, v in zip(sign, xi)]) for xr, xi in xs]
    else:
        ys = xs
    rows = []
    for a in range(maxdeg + 1):
        row = []
        for b in range(a + 1):
            re, im = cdot(xs[a], ys[b])
            row.append(from_fixed(re, None if b == a else im, 2 * e_x, prec))
        rows.append(row)
    return rows, R0


def mixed_moments(
    w: Weight,
    kind: str,
    maxdeg: int,
    precision_bits: Optional[int] = None,
    b0: float = 2.0,
) -> MomentTable:
    """Moment table mu_ab for 0 <= a, b <= maxdeg, Hermitian by construction.

    A disc or annulus centered at the origin with a Constant/Radial density
    gets the diagonal radial path; every other weight, a Generic density
    included, the two-dimensional one. On the 2d path the design degree
    covers the monomials exactly; non-polynomial densities get an
    oversampling margin of 48 degrees, so results for such densities are
    approximate, not design-exact.

    The 2d sums are exact: node values, evaluated at precision_bits, are
    converted once to fixed-point integers carrying 32 guard bits
    (_mp.FIXED_GUARD_BITS) plus the bit length of the node count past the
    precision; the sums run over Python integers, and each table entry is
    rounded once to precision_bits. Against the same rule summed at 128 more
    bits, every entry lies within 4 units in the last place of
    sqrt(G_aa G_bb); about 1 is typical.

    The radial path rejects a nonpositive diagonal entry. A 2d table is
    checked where it is used: by the Cholesky of monic_orthogonalize when
    plain, by the level-q assembly when Gaussian.
    """
    if kind not in ("plain", "gaussian"):
        raise ValueError("kind must be 'plain' or 'gaussian'")
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    prec = precision_bits if precision_bits is not None else _default_precision(maxdeg)

    with mp.workprec(prec):
        if _radial_applicable(w):
            rows, R0, degree_used = _radial_table(w, kind, maxdeg, prec, b0)
            diagonal = True
        else:
            degree_used = 2 * maxdeg
            if kind == "gaussian":
                degree_used += _gaussian_excess(b0, bounding_radius(w.support), prec)
            degree_used += _density_margin(w.density)
            rule = _build_rule(w.support, degree_used, prec)
            if isinstance(rule, _PolarRule):
                rows, R0 = _polar_dft_table(w, rule, kind, maxdeg, prec, b0)
            else:
                rows, R0 = _flat_table(w, rule, kind, maxdeg, prec, b0)
            diagonal = False
    return MomentTable(
        kind=kind,
        b0=float(b0),
        maxdeg=maxdeg,
        precision_bits=prec,
        scale_radius=R0,
        rows=rows,
        diagonal=diagonal,
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
