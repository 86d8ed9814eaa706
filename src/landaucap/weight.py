"""Weights on plane regions and their mixed moment tables.

A weight is one of three densities on a compact support region: a
Constant c, a Power |z|^k, or the solid ball's Chord 2 sqrt(R^2 - |z|^2) on
Disc(0, R); each evaluates itself at the working precision. The moment
table mu_ab = int z^a conj(z)^b v(z) g(z) dm(z) comes in two flavours:
plain (g = 1) and Gaussian (g = exp(-b0 |z|^2 / 2)). Tables are computed
at a stated bit precision and stored with monomials prescaled by the
bounding radius, which keeps the Gram entries of order of the total mass.

A table takes one of two paths (mixed_moments): 1d radial integrals on a
disc or annulus centred at 0, and for a Constant or Power anywhere else a
contour integral over the boundary (Green's theorem). Both evaluate their
node values once in mpf, sum them as exact fixed-point integers and round
each entry once. The boundary path's incomplete-gamma factors S_s are
integer rows too (_s_column); a plain table has S_s(0) = 1 / (s + 1),
so it divides each entry by b + 1 + k/2 inside that rounding instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from mpmath import mp

from ._mp import dot, fixed_bits, from_fixed, gauss_legendre, map_rule, tanh_sinh, to_fixed
from .errors import DegenerateMomentError, NonConvergenceError
from .region import (
    Annulus,
    Disc,
    Polygon,
    Region,
    UnionRegion,
    bounding_radius,
    region_from_config,
    region_key,
    _orient,
    _real,
    _strictly_inside,
)

__all__ = [
    "Constant",
    "Power",
    "Chord",
    "Weight",
    "MomentTable",
    "mixed_moments",
    "weight_key",
    "weight_from_config",
    "emission_digits",
]

DEGENERATE_MSG = "moment table numerically degenerate; increase precision"
UNION_MSG = "union parts must be pairwise disjoint for quadrature"
# union parts may overlap by at most this distance and still count as touching
_TOUCH = 1e-12
ODD_POWER_MSG = ("an odd power |z|^k is not smooth where the boundary passes through the "
                 "origin: the boundary rule would need more than {} nodes on one circle or edge")
# per circle or edge; the Gram kernel holds about 4 maxdeg integers per node
_MAX_ODD_POWER_NODES = 1 << 14


def emission_digits(prec: int) -> int:
    return math.ceil(prec * 0.3)


# ------------------------------------------------------------------ densities

@dataclass(frozen=True)
class Constant:
    c: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError("density constant must be finite")

    def value(self, r):
        return mp.mpf(self.c)


@dataclass(frozen=True)
class Power:
    """|z|^k, the config profile power:k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError("power profile needs k >= 0")

    def value(self, r):
        return mp.mpf(r) ** self.k


@dataclass(frozen=True)
class Chord:
    """2 sqrt(R^2 - |z|^2), the x3-chord of the solid ball of radius R, on
    its shadow Disc(0, R); R^2 is formed at the working precision."""

    R: float

    def __post_init__(self):
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ValueError("ball radius must be positive")

    def value(self, r):
        r = mp.mpf(r)
        return 2 * mp.sqrt(mp.mpf(self.R) ** 2 - r * r) if r < self.R else mp.mpf(0)


@dataclass(frozen=True)
class Weight:
    support: Region
    density: object  # Constant, Power or Chord

    def __post_init__(self):
        d = self.density
        if not isinstance(d, (Constant, Power, Chord)):
            raise ValueError("density must be Constant, Power or Chord")
        if isinstance(d, Constant) and not d.c > 0:
            raise ValueError("weight is degenerate: density constant must be positive, "
                             f"got {d.c!r}")
        if isinstance(d, Chord) and self.support != Disc(0j, d.R):
            raise ValueError("a Chord density needs the support Disc(0, R)")


def _density_key(density) -> str:
    if isinstance(density, Constant):
        return f"const:{density.c!r}"
    if isinstance(density, Power):
        return f"radial:power:{density.k}:{density.k}"
    return f"radial:ball3d:{density.R}:None"


def weight_key(w: Weight) -> str:
    return f"{_density_key(w.density)}|{region_key(w.support)}"


# ------------------------------------------------------------ boundary rules

@dataclass
class _Rule:
    """Nodes on a positively oriented boundary with their steps dz."""

    nodes: list
    steps: list


def _odd_power_nodes(log_decay: float, prec: int) -> int:
    """Nodes past the design degree that bring a quadrature error falling
    like exp(-log_decay * nodes) below 2^-prec."""
    count = math.ceil(prec * math.log(2) / log_decay) if log_decay > 0 else math.inf
    if count > _MAX_ODD_POWER_NODES:
        raise NonConvergenceError(ODD_POWER_MSG.format(_MAX_ODD_POWER_NODES))
    return count


def _edges(vs, degree, prec, k=0):
    """Gauss-Legendre on every edge of a counterclockwise ring, degree // 2 + 1
    nodes each: exact for polynomials in (z, conj z) of degree <= degree.

    For odd k, |z|^k is polynomial along an edge whose line passes through
    the origin once the edge is split there. On any other edge it is analytic
    inside the Bernstein ellipse through the edge parameter t0 of the origin,
    so the error falls like rho(t0)^-2 per node. Those edges all get the
    largest count of _odd_power_nodes more, so the ring computes at most two
    Gauss-Legendre rules."""
    pieces, extra = [], 0
    for a, b in zip(vs, vs[1:] + vs[:1]):
        if k % 2 and mp.fmul(a.real, b.imag, exact=True) != mp.fmul(a.imag, b.real, exact=True):
            t0 = -(a + b) / (b - a)
            root = cmath.sqrt(t0 * t0 - 1)
            rho = max(abs(t0 + root), abs(t0 - root))
            extra = max(extra, _odd_power_nodes(2 * math.log(rho), prec))
            pieces.append((a, b, True))
        elif k % 2 and a.real * b.real + a.imag * b.imag < 0:  # the origin lies inside the edge
            pieces += [(a, 0j, False), (0j, b, False)]
        else:
            pieces.append((a, b, False))
    n = degree // 2 + 1
    nodes, steps = [], []
    with mp.workprec(prec + 10):
        for a, b, analytic in pieces:
            xs, ws = gauss_legendre(n + extra if analytic else n, prec)
            half, mid = (mp.mpc(b) - a) / 2, (mp.mpc(b) + a) / 2
            nodes.extend(mid + half * x for x in xs)
            steps.extend(half * w for w in ws)
    return nodes, steps


def _circle(center, radius, degree, prec, k=0, sign=1):
    """Trapezoid rule with degree + 2 nodes on a counterclockwise circle (sign
    -1 reverses it): exact for polynomials in (z, conj z) of degree <= degree.

    For odd k, |z|^k has Fourier coefficients falling like q^j on the circle,
    q = min(|center|, radius) / max(|center|, radius), so the rule gets
    _odd_power_nodes more; a circle through the origin has q = 1."""
    T = degree + 2
    if k % 2 and center != 0:
        T += _odd_power_nodes(abs(math.log(abs(center) / radius)), prec)
    with mp.workprec(prec + 10):
        es = [mp.expjpi(mp.mpf(2 * t) / T) for t in range(T)]
        r = mp.mpf(radius)
        step = mp.mpc(0, sign * 2 * mp.pi / T) * r
        return [center + r * e for e in es], [step * e for e in es]


def _rep_point(region: Region) -> complex:
    """A point inside the region."""
    if isinstance(region, Disc):
        return region.center
    if isinstance(region, Annulus):
        return region.center + (region.inner + region.outer) / 2.0
    if isinstance(region, Polygon):
        # the midpoint of the first two crossings of a line between the two
        # lowest vertex heights
        vs = region.vertices
        lo, hi = sorted({v.imag for v in vs})[:2]
        y = (lo + hi) / 2
        xs = sorted(a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
                    for a, b in zip(vs, vs[1:] + vs[:1]) if (a.imag < y) != (b.imag < y))
        return complex((xs[0] + xs[1]) / 2, y)
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


def _boundary_pieces(part: Region):
    """A part's boundary as edges (a, b) and circles (centre, radius)."""
    if isinstance(part, Polygon):
        vs = part.vertices
        return list(zip(vs, vs[1:] + vs[:1])), []
    if isinstance(part, Disc):
        return [], [(part.center, part.radius)]
    return [], [(part.center, r) for r in (part.inner, part.outer) if r > 0]


def _edges_cross(a, b, c, d) -> bool:
    """Segments ab and cd cross where each endpoint clears the other's line."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    return ((o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0)
            and min(abs(o1), abs(o2)) > _TOUCH * abs(b - a)
            and min(abs(o3), abs(o4)) > _TOUCH * abs(d - c))


def _edge_crosses_circle(a, b, c, r) -> bool:
    """Segment ab crosses the circle |z - c| = r away from ab's endpoints."""
    length = abs(b - a)
    w = (c - a) * (b - a).conjugate() / length
    foot, dist = w.real, abs(w.imag)  # c's position along ab and its distance from the line
    if dist >= r - _TOUCH:
        return False
    half = math.sqrt(r * r - dist * dist)
    return any(_TOUCH < t < length - _TOUCH for t in (foot - half, foot + half))


def _circles_cross(c1, r1, c2, r2) -> bool:
    return abs(r1 - r2) + _TOUCH < abs(c1 - c2) < r1 + r2 - _TOUCH


def _disjoint(a: Region, b: Region) -> bool:
    """Whether two parts share no interior point; touching parts count as disjoint.

    Interiors meet when the boundaries cross, when a point of one boundary
    piece (an edge's midpoint, a circle's point at angle 0) lies strictly
    inside the other part, or when one part's interior point does. Overlaps
    thinner than _TOUCH count as touching.
    """
    ca, ra = _bounding_circle(a)
    cb, rb = _bounding_circle(b)
    if abs(ca - cb) >= ra + rb - 1e-15:
        return True
    edges_a, circles_a = _boundary_pieces(a)
    edges_b, circles_b = _boundary_pieces(b)
    if (any(_edges_cross(p, q, s, t) for p, q in edges_a for s, t in edges_b)
            or any(_edge_crosses_circle(p, q, c, r) for p, q in edges_a for c, r in circles_b)
            or any(_edge_crosses_circle(p, q, c, r) for p, q in edges_b for c, r in circles_a)
            or any(_circles_cross(*ka, *kb) for ka in circles_a for kb in circles_b)):
        return False
    for first, second, edges, circles in ((a, b, edges_a, circles_a), (b, a, edges_b, circles_b)):
        points = ([_rep_point(first)] + [(p + q) / 2 for p, q in edges]
                  + [c + r for c, r in circles])
        if any(_strictly_inside(second, z, _TOUCH) for z in points):
            return False
    return True


def _build_rule(support: Region, degree: int, prec: int, k: int = 0) -> _Rule:
    """A rule on the positively oriented boundary of the support, exact for
    polynomials in (z, conj z) of total degree <= degree and, for odd k,
    resolving |z|^k times them to 2^-prec."""
    parts = support.parts if isinstance(support, UnionRegion) else (support,)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not _disjoint(parts[i], parts[j]):
                raise ValueError(UNION_MSG)
    nodes, steps = [], []
    for p in parts:
        for ns, ds in _pieces(p, degree, prec, k):
            nodes.extend(ns)
            steps.extend(ds)
    return _Rule(nodes, steps)


def _pieces(part: Region, degree: int, prec: int, k: int):
    """(nodes, steps) pieces of one part's boundary rule."""
    if isinstance(part, Polygon):
        return [_edges(part.vertices, degree, prec, k)]
    if not isinstance(part, (Disc, Annulus)):
        raise TypeError(f"not a region: {part!r}")
    lo, hi = _radial_interval(part)
    inner = [_circle(part.center, lo, degree, prec, k, -1)] if lo > 0 else []
    return [_circle(part.center, hi, degree, prec, k)] + inner


# ------------------------------------------------------------- moment tables

@dataclass
class MomentTable:
    maxdeg: int
    precision_bits: int
    scale_radius: object   # mpf; monomials are (z / scale_radius)^a
    rows: list             # rows[a][b], b <= a
    path: str              # "radial" | "boundary", see mixed_moments
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


def _power(density) -> int:
    """k for a density c |z|^k, which the boundary path integrates."""
    return density.k if isinstance(density, Power) else 0


def _radial_applicable(w: Weight) -> bool:
    return isinstance(w.support, (Disc, Annulus)) and w.support.center == 0


def _radial_interval(support):
    if isinstance(support, Disc):
        return mp.mpf(0), mp.mpf(support.radius)
    return mp.mpf(support.inner), mp.mpf(support.outer)


def _radial_rule(w, kind, maxdeg, prec, b0):
    """The [-1, 1] rule (xs, ws) of a radial table and its design degree:
    Gauss-Legendre exact for the polynomial moments of a Constant or Power
    (plus the Gaussian excess), tanh-sinh (degree -1) for the Chord's
    square-root endpoint."""
    d = w.density
    if isinstance(d, Chord):
        pairs = tanh_sinh(prec)
        return [x for x, _ in pairs], [wt for _, wt in pairs], -1
    need = 2 * maxdeg + 1 + _power(d)
    if kind == "gaussian":
        need += _gaussian_excess(b0, float(_radial_interval(w.support)[1]), prec)
    xs, ws = gauss_legendre(math.ceil((need + 1) / 2), prec)
    return xs, ws, need


def _radial_table(w, kind, maxdeg, prec, b0):
    """Diagonal rows[a][a] = sum_i d_i (r_i / R0)^(2a), d_i = 2 pi w_i r_i v(r_i)
    [exp(-b0 r_i^2 / 2)], as exact fixed-point integer sums rounded once
    per entry to prec.

    Node values carry guard more bits, b0 (hi^2 - lo^2) / 2 / ln 2 for a
    Gaussian table (0 for a plain one): the largest value sets the shared
    step, and the Gaussian factor of the nodes that dominate the top rows
    can lie that far below it. Each row's products are shifted back so that
    the largest keeps the same bit count, so the falling powers lose no
    relative precision."""
    lo, hi = _radial_interval(w.support)
    d = w.density
    gaussian = kind == "gaussian"
    xs, ws, need = _radial_rule(w, kind, maxdeg, prec, b0)
    guard = math.ceil(b0 * float(hi * hi - lo * lo) / 2 / math.log(2)) if gaussian else 0
    F = fixed_bits(prec + guard, len(xs))
    R0 = mp.mpf(bounding_radius(w.support))
    with mp.workprec(F):
        rho, rw = map_rule(xs, ws, lo, hi)
        two_pi = 2 * mp.pi
        b0m = mp.mpf(b0)
        data = [two_pi * wt * r * d.value(r) * (mp.exp(-b0m * r * r / 2) if gaussian else 1)
                for r, wt in zip(rho, rw)]
        ratio = [(r / R0) ** 2 for r in rho]
    (data,), e_d = to_fixed([data], F)
    (ratio,), e_r = to_fixed([ratio], F)
    rows = []
    for a in range(maxdeg + 1):
        s = from_fixed(sum(data), None, e_d, prec)
        if not s > 0:
            raise DegenerateMomentError(DEGENERATE_MSG)
        rows.append([mp.mpf(0)] * a + [s])
        if a < maxdeg:
            data = [x * y for x, y in zip(data, ratio)]
            shift = max(max(data).bit_length() - F, 0)
            data = [x >> shift for x in data]
            e_d += e_r + shift
    return rows, R0, need


def _s_column(x, maxdeg: int, k: int, G: int):
    """[S_(b+k/2)(x) 2^G for b = 0..maxdeg] as integers, S_s(x) =
    int_0^1 t^s exp(-x t) dt, from X = x 2^G and E = exp(-x) 2^G: at
    b = maxdeg the positive series exp(-x) sum_j x^j / ((s+1)...(s+1+j)),
    then downward by S_s = (exp(-x) + x S_(s+1)) / (s+1). Every term is
    positive, so no step cancels and each truncation costs one unit."""
    X = int(mp.ldexp(x, G))
    E = int(mp.ldexp(mp.exp(-x), G))
    j = 2 * maxdeg + k + 2  # 2 (s + 1)
    term = total = (2 << G) // j
    while term:
        j += 2
        term = ((term * X >> G) << 1) // j
        total += term
    col = [total * E >> G]
    for b in range(maxdeg, 0, -1):
        col.append(2 * (E + (X * col[-1] >> G)) // (2 * b + k))
    return col[::-1]


def _boundary_guard(w, kind, b0) -> int:
    """Bits a Gaussian boundary sum can lose: its terms lack the factor
    exp(-b0 |z|^2 / 2) of the moments, so they cancel up to b0 rmax^2 / 2
    nats, rmax the bounding radius. A plain sum loses none."""
    if kind != "gaussian":
        return 0
    return math.ceil(b0 * bounding_radius(w.support) ** 2 / 2 / math.log(2))


def _gram_table(w, rule: _Rule, kind, maxdeg, prec, b0):
    """Scaled table rows[a][b] = sum_i x_i u_i^a conj(y_ib), u = z / R0, as
    exact fixed-point integer sums carrying guard = _boundary_guard more
    bits, rounded once per entry to prec, with x_i = v(z_i) R0 dz_i / 2i
    and y_ib = S_(b+k/2)(beta |z_i|^2) u_i^(b+1): the contour form of the
    moments of v = c |z|^k (see mixed_moments).

    The node values are evaluated at F = fixed_bits(prec + guard, nodes)
    and converted once; from there on the kernel is integer-only. A
    Gaussian table takes its S rows from _s_column at the shared scale
    2^G, G = F + bitlen(2 maxdeg + k + 2) + 1. Since
    S_s(x) >= exp(-x) / (s+1) and exp(-x) >= 2^-guard on the nodes, every
    S_s keeps at least F - guard + 1 bits of itself, more than the sum
    keeps past the cancellation the guard covers. A plain table has
    S_s(0) = 1 / (s+1): it sums x conj(u^(b+1)) and divides by
    (2b + 2 + k) / 2 inside the rounding of each entry. Each complex entry
    takes three real dot products, with x_r + x_i formed once per a and
    y_r - y_i once per b."""
    R0 = mp.mpf(bounding_radius(w.support))
    k = _power(w.density)
    gaussian = kind == "gaussian"
    guard = _boundary_guard(w, kind, b0)
    F = fixed_bits(prec + guard, len(rule.nodes))
    with mp.workprec(F):
        zs = [mp.mpc(z) for z in rule.nodes]
        x0 = [mp.mpc(0, -w.density.value(abs(z)) * R0 / 2) * dz
              for z, dz in zip(zs, rule.steps)]
        us = [z / R0 for z in zs]
        if gaussian:
            G = F + (2 * maxdeg + k + 2).bit_length() + 1
            beta = mp.mpf(b0) / 2
            srows = list(zip(*(_s_column(beta * (z.real ** 2 + z.imag ** 2), maxdeg, k, G)
                               for z in zs)))
    (xr, xi), e_x = to_fixed([[mp.re(x) for x in x0], [mp.im(x) for x in x0]], F)
    (ur, ui), e_u = to_fixed([[u.real for u in us], [u.imag for u in us]], F)

    def times_u(p):
        pr, pi = p
        return ([(a * c - b * d) >> -e_u for a, b, c, d in zip(pr, pi, ur, ui)],
                [(a * d + b * c) >> -e_u for a, b, c, d in zip(pr, pi, ur, ui)])

    xs = [(xr, xi)]
    ys = [(ur, ui)]  # u^(b+1) over 2^e_u
    for _ in range(maxdeg):
        xs.append(times_u(xs[-1]))
        ys.append(times_u(ys[-1]))
    if gaussian:
        ys = [([(s * p) >> G for s, p in zip(row, pr)], [(s * p) >> G for s, p in zip(row, pi)])
              for row, (pr, pi) in zip(srows, ys)]
    sums = [[r + i for r, i in zip(pr, pi)] for pr, pi in xs]
    diffs = [[r - i for r, i in zip(pr, pi)] for pr, pi in ys]
    # a plain entry is 2 sum / (2b + 2 + k): the 2 goes into the exponent
    e = e_x + e_u if gaussian else e_x + e_u + 1
    rows = []
    for a, (pr, pi) in enumerate(xs):
        row = []
        for b, (qr, qi) in enumerate(ys[:a + 1]):
            A, B = dot(pr, qr), dot(pi, qi)
            im = dot(sums[a], diffs[b]) - A + B if b < a else None
            row.append(from_fixed(A + B, im, e, prec, 1 if gaussian else 2 * b + 2 + k))
        rows.append(row)
    return rows, R0


def mixed_moments(
    w: Weight,
    kind: str,
    maxdeg: int,
    precision_bits: int,
    b0: float = 2.0,
) -> MomentTable:
    """Moment table mu_ab for 0 <= a, b <= maxdeg, Hermitian by construction,
    on one of two paths named by MomentTable.path:

    - "radial": a disc or annulus centred at 0, with any density; 1d radial
      integrals mu_aa = 2 pi int r^(2a+1) v(r) g(r) dr, exactly zero off the
      diagonal, by Gauss-Legendre exact for a Constant or Power (plus the
      Gaussian excess) and by tanh-sinh for the Chord's square-root edge.
    - "boundary": a density v = c |z|^k (a Constant, k = 0, or a Power) on
      any other support. For b <= a, with
      beta = b0/2 (Gaussian) or 0 (plain) and
      S_s(x) = int_0^1 t^s exp(-x t) dt,
      mu_ab = (1/2i) contour-integral of v z^a conj(z)^(b+1) S_(b+k/2)(beta |z|^2) dz
      (Green's theorem: (s+1) S_s + x S_s' = exp(-x) for real s). With
      design degree D = 2 maxdeg + 1 + k, plus the Gaussian excess, each
      polygon edge gets D//2 + 1 Gauss-Legendre nodes and each circle D + 2
      trapezoid nodes (an annulus's inner circle reversed); a union joins
      its parts' rules, so an edge two parts share cancels. Plain tables
      with even k are exact. For odd k, |z|^k is not a polynomial: a circle
      or an edge gets the further nodes that resolve it to
      2^-precision_bits at a rate set by its distance from the origin, an
      edge on a line through the origin is split there instead, and a
      circle through the origin raises NonConvergenceError.

    On both paths the node values, evaluated at _mp.fixed_bits (32 guard
    bits and the bit length of the node count past precision_bits, plus
    b0 rmax^2 / 2 / ln 2 on Gaussian boundary tables and
    b0 (hi^2 - lo^2) / 2 / ln 2 on Gaussian radial ones), become
    fixed-point integers; the sums are exact and each entry is rounded
    once. A Gaussian boundary table builds its S_(b+k/2) rows on integers
    from one exp per node (_s_column); a plain one sums
    v z^a conj(z)^(b+1) and divides by b + 1 + k/2 in that rounding.
    Against the same rule summed in mpc (mpf) at 128 more bits, with S_s
    from mpmath's incomplete gamma, every boundary entry lies within 4
    units of 2^-precision_bits sqrt(G_aa G_bb), at most 0.96 on the tested
    supports, and every radial entry within 2 units of 2^-precision_bits
    of itself.

    The radial path rejects a nonpositive diagonal entry. A boundary table
    is checked where it is used: by the Cholesky of monic_orthogonalize when
    plain, by the level-q assembly when Gaussian.
    """
    if kind not in ("plain", "gaussian"):
        raise ValueError("kind must be 'plain' or 'gaussian'")
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    prec = precision_bits

    with mp.workprec(prec):
        if _radial_applicable(w):
            rows, R0, degree_used = _radial_table(w, kind, maxdeg, prec, b0)
            path = "radial"
        else:
            k = _power(w.density)
            degree_used = 2 * maxdeg + 1 + k
            if kind == "gaussian":
                degree_used += _gaussian_excess(b0, bounding_radius(w.support), prec)
            rule = _build_rule(w.support, degree_used, prec + _boundary_guard(w, kind, b0), k)
            rows, R0 = _gram_table(w, rule, kind, maxdeg, prec, b0)
            path = "boundary"
    return MomentTable(
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
        if rec.get("support") not in (None, "auto"):
            raise ValueError("ball3d_reduction fixes its own support; omit it or use 'auto'")
        return ball_reduction_weight(_real(dens.get("R", 1.0)))
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
            return Weight(support, Power(int(prof.split(":", 1)[1])))
        raise ValueError(f"unknown radial profile {prof!r}")
    raise ValueError(f"unknown density kind {kind!r}")


def ball_reduction_weight(R: float = 1.0) -> Weight:
    """Weight from collapsing the indicator of the ball of radius R along x3:
    the Chord 2 sqrt(R^2 - |z|^2) on the disc shadow, in closed form at the
    working precision. It depends on |z| only, so the diagonal moment path
    applies."""
    chord = Chord(float(R))
    return Weight(Disc(0j, chord.R), chord)
