"""Weights on plane regions and their mixed moment tables.

A weight is one of three densities on a compact support region: a
Constant c, a Power |z|^k, or the solid ball's Chord 2 sqrt(R^2 - |z|^2) on
Disc(0, R); each evaluates itself at the working precision. The moment
table mu_ab = int z^a conj(z)^b v(z) g(z) dm(z) comes in two flavours:
plain (g = 1) and Gaussian (g = exp(-b0 |z|^2 / 2)). Tables are computed
at a stated bit precision and stored with monomials prescaled by the
bounding radius, which keeps the Gram entries of order of the total mass.

A table takes one of two paths (mixed_moments): closed-form 1d radial
integrals on a disc or annulus centred at 0, and for a Constant or Power
anywhere else a contour integral over the boundary (Green's theorem).
Both work on exact fixed-point integers and round each entry once, at the
width of its own sums, not at the stated precision. The incomplete-gamma
factors S_s of both paths are integer rows (_s_column), as are the Chord's
Beta-Kummer sums (_chord_column); a plain boundary table has
S_s(0) = 1 / (s + 1), so it divides each entry by b + 1 + k/2 inside that
rounding instead.

One exact test of a support's symmetry (_symmetry) sets its boundary
rule and table. A single disc or annulus off 0 is mirrored about the line
through 0 and its centre, and is turned onto the real axis, where
z -> conj(z) maps it onto itself: its rule holds one node of each mirror
pair, and its table, the moments of the turned support, is real by
construction (MomentTable.turn); entry() gives back the moments of the
support itself. A support that the rotation by 2 pi / m about 0 maps onto
itself has a table zero off the classes a = b (mod m) (MomentTable.stride),
and a single such polygon's rule holds one block of the rotation, the
first 1/m of its edges.
"""

from __future__ import annotations

import cmath
import math

from mpmath import libmp, mp

from ._mp import dot, fixed_bits, from_fixed, gauss_legendre, raw_parts, to_fixed
from ._record import record
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
    _rotation_order,
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
]

DEGENERATE_MSG = "moment table numerically degenerate; increase precision"
UNION_MSG = "union parts must be pairwise disjoint for quadrature"
# union parts may overlap by at most this distance and still count as touching
_TOUCH = 1e-12
ODD_POWER_MSG = ("an odd power |z|^k is not smooth where the boundary passes through the "
                 "origin: the boundary rule would need more than {} nodes on one circle or edge")
# per circle or edge; the Gram kernel holds about 4 maxdeg integers per node
_MAX_ODD_POWER_NODES = 1 << 14
# bits past a rule's precision to which a circle resolves its Gaussian tail
_TAIL_MARGIN = 10
GUARD_MSG = ("a Gaussian moment table on this support cancels in more than {} guard bits "
             "(beta rmax^2 / ln 2, beta = b0 / 2, rmax the bounding radius)")
# the largest guard of one cancelling Gaussian sum; the tests and verify
# suites reach 289 (the centred square of side 20, b0 = 2), 56 times less
_MAX_GUARD_BITS = 1 << 14


# ------------------------------------------------------------------ densities

@record(frozen=True)
class Constant:
    c: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.c):
            raise ValueError("density constant must be finite")

    def value(self, r):
        return mp.mpf(self.c)


@record(frozen=True)
class Power:
    """|z|^k, the config profile power:k."""

    k: int

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 0):
            raise ValueError("power profile needs k >= 0")

    def value(self, r):
        return mp.mpf(r) ** self.k


@record(frozen=True)
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


@record(frozen=True)
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
        # the rules and guards square distances up to 2 rmax in doubles
        rmax = bounding_radius(self.support)
        if not math.isfinite((2 * rmax) * (2 * rmax)):
            raise ValueError(f"support too large: (2 rmax)^2 overflows a double, rmax = {rmax!r}")


def _density_key(density) -> str:
    if isinstance(density, Constant):
        return f"const:{density.c!r}"
    if isinstance(density, Power):
        return f"radial:power:{density.k}:{density.k}"
    return f"radial:ball3d:{density.R}:None"


def weight_key(w: Weight) -> str:
    return f"{_density_key(w.density)}|{region_key(w.support)}"


# ------------------------------------------------------------ boundary rules

@record
class _Rule:
    """Nodes on a positively oriented boundary with their steps dz, the
    largest design degree of its pieces (-1 when none is stated), and the
    support's symmetry record (stride, fold, turn) of _symmetry.

    turn is None for a literal rule. Otherwise the rule lies on the disc or
    annulus turned by conj(w), w = turn / |turn|, which z -> conj(z) maps
    onto itself, and holds one node of each mirror pair: a node off the
    real axis stands for itself and its conjugate, its step doubled, and
    the rule integrates the real part of the boundary integrand.

    fold is the order m of a rotation about 0 that maps a polygon onto
    itself, 1 when there is none: the nodes and steps are then those of
    its first k/m edges (k vertices), one block of the rotation, which
    stands for all m, and _gram_table sums it m times."""

    nodes: list
    steps: list
    design_degree: int
    stride: int
    fold: int
    turn: object


def _odd_power_nodes(log_decay: float, prec: int) -> int:
    """Nodes past the design degree that bring a quadrature error falling
    like exp(-log_decay * nodes) below 2^-prec."""
    count = math.ceil(prec * math.log(2) / log_decay) if log_decay > 0 else math.inf
    if count > _MAX_ODD_POWER_NODES:
        raise NonConvergenceError(ODD_POWER_MSG.format(_MAX_ODD_POWER_NODES))
    return count


def _edges(vs, maxdeg, prec, k, beta, fold):
    """Gauss-Legendre on the edges of a counterclockwise ring for the table
    of bidegree maxdeg of v = c |z|^k, Gaussian exp(-beta |z|^2) unless
    beta = 0: n nodes each, exact in (z, conj z) to the design degree
    2n - 1, returned with the nodes and steps.

    A ring of fold m (_symmetry) keeps the nodes of its first len(vs) / m
    edges only: the rotation by exp(2 pi i / m) carries them onto the
    rest. The sizing below runs over the whole ring, though it is
    rotation invariant.

    The integrand z^a conj(z)^(b+1) |z|^k dz of an even k has degree
    <= 2 maxdeg + 1 + k. On a piece z = m + h t, t in [-1, 1], the Gaussian
    is a constant times exp(-2 beta Re(conj(m) h) t - beta |h|^2 t^2), whose
    Chebyshev coefficients fall like (beta |Re(conj(m) h)|)^j / j! and, at
    degrees 2j, like (beta |h|^2 / 4)^j / j! (Trefethen, "Is Gauss
    quadrature better than Clenshaw-Curtis?", SIAM Rev. 50, 2008). The
    piece's excess degree is the _gaussian_tail of the first plus twice
    that of the second, to 2^-(prec + _TAIL_MARGIN); the ring takes the
    largest.

    For odd k, |z|^k is polynomial along an edge whose line passes through
    the origin once the edge is split there. On any other edge it is analytic
    inside the Bernstein ellipse through the edge parameter t0 of the origin,
    so the error falls like rho(t0)^-2 per node. Those edges all get the
    largest count of _odd_power_nodes more, so the ring computes at most two
    Gauss-Legendre rules; their design degree counts the larger."""
    pieces, extra, ends = [], 0, []
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
        ends.append(len(pieces))
    bits = prec + _TAIL_MARGIN
    excess = max(2 * _gaussian_tail(beta * abs(b - a) ** 2 / 16, bits)
                 + _gaussian_tail(beta * abs(((a + b).conjugate() * (b - a)).real) / 4, bits)
                 for a, b, _ in pieces)
    n = (2 * maxdeg + 1 + k + excess) // 2 + 1
    nodes, steps = [], []
    with mp.workprec(prec + 10):
        for a, b, analytic in pieces[:ends[len(vs) // fold - 1]]:
            xs, ws = gauss_legendre(n + extra if analytic else n, prec)
            half, mid = (mp.mpc(b) - a) / 2, (mp.mpc(b) + a) / 2
            nodes.extend(mid + half * x for x in xs)
            steps.extend(half * w for w in ws)
    return nodes, steps, 2 * (n + extra) - 1


def _circle_size(center, radius, maxdeg: int, prec: int, k: int, beta: float) -> int:
    """Trapezoid nodes T on |z - center| = radius for a table of bidegree
    maxdeg of v = c |z|^k, Gaussian exp(-beta |z|^2) unless beta = 0.

    On the circle the boundary integrand z^a conj(z)^(b+1) |z|^k dz of an
    even k has Fourier frequencies from -(b + k/2) to a + k/2 + 1, so
    T = maxdeg + 2 + k/2 nodes integrate a whole table exactly. The
    Gaussian adds the factor exp(-2 beta t r |c| cos(theta - arg c)), whose
    coefficients I_m(2 beta t r |c|) fall like (beta r |c|)^m / m! for
    t <= 1: the circle gets _gaussian_tail more nodes, to
    2^-(prec + _TAIL_MARGIN), none when centred at 0 (Trefethen and
    Weideman, "The exponentially convergent trapezoidal rule", SIAM Rev. 56,
    2014). For odd k, |z|^k has Fourier coefficients falling like q^j,
    q = min(|center|, radius) / max(|center|, radius), so the rule gets
    half of k rounded up and _odd_power_nodes more; a circle through the
    origin has q = 1."""
    T = maxdeg + 2 + (k + 1) // 2
    T += _gaussian_tail(beta * radius * abs(center), prec + _TAIL_MARGIN)
    if k % 2 and center != 0:
        T += _odd_power_nodes(abs(math.log(abs(center) / radius)), prec)
    return T


def _gaussian_tail(x: float, bits: int) -> int:
    """The least M with x^M / M! <= 2^-bits; 0 when x = 0."""
    target = -bits * math.log(2)
    M = 0
    while x > 0 and M * math.log(x) - math.lgamma(M + 1) > target:
        M += 1
    return M


def _circle(center, radius, T: int, prec: int, sign=1, half=False):
    """The trapezoid rule with T nodes on a counterclockwise circle (sign -1
    reverses it): exact for trigonometric polynomials of degree < T.

    half, for a circle centred on the real axis, keeps the nodes
    t = 0..T/2: node t stands for itself and its mirror image T - t, and
    its step is doubled except on the axis (t = 0 and t = T/2)."""
    ts = range(T // 2 + 1) if half else range(T)
    with mp.workprec(prec + 10):
        es = [mp.expjpi(mp.mpf(2 * t) / T) for t in ts]
        r = mp.mpf(radius)
        step = mp.mpc(0, sign * 2 * mp.pi / T) * r
        steps = [step * e for e in es]
        if half:
            steps = [d if 2 * t % T == 0 else 2 * d for t, d in zip(ts, steps)]
        return [center + r * e for e in es], steps


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


def _build_rule(support: Region, maxdeg: int, prec: int, k: int = 0, beta: float = 0) -> _Rule:
    """A rule on the positively oriented boundary of the support for the
    table of bidegree maxdeg of v = c |z|^k, Gaussian exp(-beta |z|^2)
    unless beta = 0, at prec bits; its nodes carry _boundary_guard more
    bits. Each piece is sized on its own (_pieces); the rule's design
    degree is the largest of theirs.

    The rule records the support's _symmetry. A single disc or annulus
    lies turned by conj(w), w = c / |c| for its centre c, onto the real
    axis, centred at |c|, formed at the rule's working precision from the
    double c, and keeps one node of each mirror pair (_circle). Every
    density c |z|^k, and each circle's size, is the same on the turned
    support. A single polygon of fold m keeps the nodes of the first 1/m
    of its edges (_edges). A union keeps its whole rule, even where a rotation
    permutes its parts."""
    parts = support.parts if isinstance(support, UnionRegion) else (support,)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not _disjoint(parts[i], parts[j]):
                raise ValueError(UNION_MSG)
    prec += _boundary_guard(support, beta)
    stride, fold, turn = _symmetry(support)
    nodes, steps, design = [], [], -1
    for p in parts:
        for ns, ds, d in _pieces(p, maxdeg, prec, k, beta, turn is not None, fold):
            nodes.extend(ns)
            steps.extend(ds)
            design = max(design, d)
    return _Rule(nodes, steps, design, stride, fold, turn)


def _pieces(part: Region, maxdeg: int, prec: int, k: int, beta: float, turned: bool, fold: int):
    """(nodes, steps, design degree) pieces of one part's boundary rule:
    Gauss-Legendre on a polygon's edges (_edges, the first 1/fold of
    them), on each circle the trapezoid rule of its own _circle_size, whose
    design degree is T - 2 (an annulus's inner circle reversed); both size
    the Gaussian's tail by _gaussian_tail. A turned disc or annulus
    (_build_rule) is centred at |c| and keeps half of each circle."""
    if isinstance(part, Polygon):
        return [_edges(part.vertices, maxdeg, prec, k, beta, fold)]
    if not isinstance(part, (Disc, Annulus)):
        raise TypeError(f"not a region: {part!r}")
    center = part.center
    if turned:
        with mp.workprec(prec + 10):
            center = abs(mp.mpc(center))
    lo, hi = _radial_interval(part)
    circles = [(hi, 1)] + ([(lo, -1)] if lo > 0 else [])
    out = []
    for r, sign in circles:
        T = _circle_size(part.center, float(r), maxdeg, prec, k, beta)
        out.append((*_circle(center, r, T, prec, sign, turned), T - 2))
    return out


# ------------------------------------------------------------- moment tables

@record
class MomentTable:
    maxdeg: int
    precision_bits: int
    scale_radius: object   # mpf; monomials are (z / scale_radius)^a
    rows: list             # rows[a][b], b <= a
    path: str              # "radial" | "boundary", see mixed_moments
    weight_key: str
    # the largest of the boundary rule's pieces: T - 2 on a circle of T trapezoid
    # nodes, 2n - 1 on an edge of n Gauss-Legendre nodes; -1 on the radial
    # path, which has no rule
    design_degree: int
    stride: int = 1        # rows[a][b] is an exact 0 unless a = b (mod stride)
    # None: rows are the moments, complex. Otherwise rows are real, the
    # moments of the support turned by conj(w), w = turn / |turn| (_symmetry);
    # 1 on the radial path
    turn: object = None

    def entry(self, a: int, b: int):
        """Scaled moment for monomials (z/R0)^a conj(z/R0)^b; an exact 0
        off the residue classes of the stride. On a turned table it is
        w^(a-b) rows[a][b], formed at the entry's width plus 10 bits."""
        if max(a, b) > self.maxdeg:
            raise IndexError("degree beyond table")
        if b > a:
            z = self.entry(b, a)
            if hasattr(z, "_mpc_"):  # the exact conjugate
                z = mp.make_mpc((z._mpc_[0], libmp.mpf_neg(z._mpc_[1])))
            return z
        z = self.rows[a][b]
        if self.turn in (None, 1) or a == b or not z:
            return z
        with mp.workprec(max(self.precision_bits, z._mpf_[3]) + 10 + self.maxdeg.bit_length()):
            w = mp.mpc(self.turn)
            return z * (w / abs(w)) ** (a - b)

    def raw_entry(self, a: int, b: int):
        """Unscaled moment mu_ab, at the entry's width plus 10 bits."""
        z = self.entry(a, b)
        with mp.workprec(max([self.precision_bits] + [x[3] for x in raw_parts(z)]) + 10):
            return z * self.scale_radius ** (a + b)


def _power(density) -> int:
    """k for a density c |z|^k, which the boundary path integrates."""
    return density.k if isinstance(density, Power) else 0


def _radial_applicable(w: Weight) -> bool:
    return isinstance(w.support, (Disc, Annulus)) and w.support.center == 0


def _symmetry(support: Region):
    """(stride, fold, turn) of a support, from exact tests on its doubles:
    the stride is its rotation order m (region._rotation_order; every
    density c |z|^k is rotation invariant, so mu_ab = 0 unless
    a = b (mod m)), the fold the number of blocks of its rule that the
    rotation maps onto each other, and the turn that of a mirror line
    through 0, or None.

    - A single disc or annulus: (m, 1, c or 1), c its centre; m is 1 off
      0, where the boundary path takes it. The line through 0 and c is a
      mirror line: w = c / |c| turns the support by conj(w) onto the real
      axis, where z -> conj(z) maps it onto itself. Rotation about 0 is a
      diagonal unitary on every Landau level and keeps every density
      c |z|^k, so the turned support has the same minimal norms and
      level-q eigenvalues, and its moments mu_ab = conj(w)^(a-b) mu_ab
      are real.
    - A single polygon: (m, m, None).
    - A union: (m, 1, None), its rule whole even where the rotation
      permutes its parts.

    A polygon's fold is m. For m > 1 the rotation by w = exp(2 pi i / m)
    maps the counterclockwise vertex ring onto itself, so it shifts the
    ring by some s places: vs[(j + s) % k] == w vs[j], k vertices. It
    fixes only 0. A fixed vertex, or a fixed point inside an edge (which
    lies on that edge alone), would have s = 0 and put every vertex at 0.
    So by Brouwer 0 lies inside the polygon, and the boundary winds once
    around it. The m arcs vs[0] -> vs[s] -> vs[2s] -> ... are rotations of
    each other and each turns by the same angle, 2 pi / m + 2 pi n.
    Together they cover the ring t = m s / k times, so 1 + m n = t with
    1 <= t < m. That forces t = 1 and s = k/m: the ring's first k/m edges
    are a block whose m rotations are the whole rule."""
    m = _rotation_order(support)
    if isinstance(support, (Disc, Annulus)):
        return m, 1, support.center or 1
    return m, m if isinstance(support, Polygon) else 1, None


def _radial_interval(support):
    if isinstance(support, Disc):
        return mp.mpf(0), mp.mpf(support.radius)
    return mp.mpf(support.inner), mp.mpf(support.outer)


def _radial_table(w, maxdeg, prec, beta):
    """Diagonal rows[a][a] = mu_aa / hi^(2a) in closed form, hi = R0 the
    outer radius, with x = beta hi^2 (beta as in mixed_moments):

    - c |z|^k: pi c hi^(2+k) S_(a+k/2)(x), less
      pi c lo^(2+k) (lo/hi)^(2a) S_(a+k/2)(beta lo^2) on an annulus;
    - Chord: 2 pi R^3 J_a(x), J_a as in _chord_column.

    The S and J columns are integers at the scale 2^G (_s_column,
    _chord_column), the prefactors and (lo/hi)^(2a) too; each entry is an
    exact integer combination rounded once to G bits. E = exp(-x) 2^G is
    good to one unit, so a column is known to exp(x) 2^-G of itself: G
    carries x / ln 2 guard bits past fixed_bits(prec, 2 maxdeg + k + 2).
    On an annulus the subtraction cancels: the outer term exceeds the
    entry by up to int_0^hi / int_lo^hi <= exp(x) hi^2 / (hi^2 - lo^2), so
    G carries x / ln 2 and log2(hi^2 / (hi^2 - lo^2)) bits more. Each of
    the two guards is capped by _guard_bits."""
    lo, hi = _radial_interval(w.support)
    d = w.density
    k = _power(d)
    x = beta * float(hi) ** 2
    guard = _guard_bits(x / math.log(2))
    if lo > 0:
        guard += _guard_bits(x / math.log(2) + math.log2(float(hi * hi / (hi * hi - lo * lo))))
    G = fixed_bits(prec + guard, 2 * maxdeg + k + 2)
    with mp.workprec(G):
        if isinstance(d, Chord):
            pre = [2 * mp.pi * hi ** 3]
            cols = [_chord_column(beta * hi * hi, maxdeg, G)]
        else:
            c = mp.pi * d.value(1)  # v(1) = c
            pre = [c * hi ** (2 + k)]
            cols = [_s_column(beta * hi * hi, maxdeg, k, G)]
            if lo > 0:
                pre.append(-c * lo ** (2 + k))
                cols.append(_s_column(beta * lo * lo, maxdeg, k, G))
                Q = int(mp.ldexp((lo / hi) ** 2, G))
        (P,), e = to_fixed([[x._mpf_ for x in pre]], G)
    rows = []
    Qa = 1 << G  # (lo/hi)^(2a) 2^G
    for a in range(maxdeg + 1):
        total = P[0] * cols[0][a] << G
        if lo > 0:
            total += P[1] * cols[1][a] * Qa
            Qa = Qa * Q >> G
        s = from_fixed(total, None, e - 2 * G, G)
        if not s > 0:
            raise DegenerateMomentError(DEGENERATE_MSG)
        rows.append([mp.mpf(0)] * a + [s])
    return rows, hi


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


def _chord_column(x, maxdeg: int, G: int):
    """[J_a(x) 2^G for a = 0..maxdeg] as integers, J_a(x) =
    int_0^1 t^a sqrt(1 - t) exp(-x t) dt, from X = x 2^G and
    E = exp(-x) 2^G: the positive series
    exp(-x) sum_j x^j / j! B(a+1, j+3/2), whose term j+1 is term j times
    x (2j+3) / ((j+1)(2a+2j+5)), from B(a+1, 3/2) = B(a, 3/2) 2a / (2a+3)
    and B(1, 3/2) = 2/3. No step cancels and each truncation costs one
    unit."""
    X = int(mp.ldexp(x, G))
    E = int(mp.ldexp(mp.exp(-x), G))
    col = []
    B = (2 << G) // 3
    for a in range(maxdeg + 1):
        if a:
            B = B * 2 * a // (2 * a + 3)
        term = total = B
        j = 0
        while term:
            term = term * X * (2 * j + 3) // ((j + 1) * (2 * a + 2 * j + 5) << G)
            total += term
            j += 1
        col.append(total * E >> G)
    return col


def _guard_bits(bits: float) -> int:
    """ceil(bits) guard bits for a sum that cancels in bits bits; raises
    NonConvergenceError past _MAX_GUARD_BITS (an infinite count too), before
    any rule or table is built at that width."""
    if not bits <= _MAX_GUARD_BITS:
        raise NonConvergenceError(GUARD_MSG.format(_MAX_GUARD_BITS))
    return math.ceil(bits)


def _boundary_guard(support, beta) -> int:
    """Bits a Gaussian boundary sum can lose: its terms lack the factor
    exp(-beta |z|^2) of the moments, so they cancel up to beta rmax^2 nats,
    rmax the bounding radius (_guard_bits). A plain sum (beta = 0) loses
    none."""
    return _guard_bits(beta * bounding_radius(support) ** 2 / math.log(2))


def _gram_table(w, rule: _Rule, maxdeg, prec, beta):
    """Scaled table rows[a][b] = sum_i x_i u_i^a conj(y_ib), u = z / R0, as
    exact fixed-point integer sums carrying guard = _boundary_guard more
    bits, rounded once per entry to F bits (below), with
    x_i = v(z_i) R0 dz_i / 2i and y_ib = S_(b+k/2)(beta |z_i|^2) u_i^(b+1):
    the contour form of the moments of v = c |z|^k (see mixed_moments).

    The node values are evaluated at F = fixed_bits(prec + guard,
    rule.fold len(rule.nodes)), the literal node count, and converted
    once; from there on the kernel is integer-only. A Gaussian table takes
    its S rows from _s_column at the shared scale 2^G,
    G = F + bitlen(2 maxdeg + k + 2) + 1. Since
    S_s(x) >= exp(-x) / (s+1) and exp(-x) >= 2^-guard on the nodes, every
    S_s keeps at least F - guard + 1 bits of itself, more than the sum
    keeps past the cancellation the guard covers. A plain table has
    S_s(0) = 1 / (s+1): it sums x conj(u^(b+1)) and divides by
    (2b + 2 + k) / 2 inside the rounding of each entry to F. Each complex
    entry takes three real dot products, with x_r + x_i formed once per a
    and y_r - y_i once per b. On a mirror rule (rule.turn set, _Rule) the
    table is real: each entry is the real part x_r y_r + x_i y_i, two dot
    products, and an mpf. Only entries with a = b (mod rule.stride) are
    summed; the others, zero on a support that the rotation by
    2 pi / stride maps onto itself, are stored as exact zeros.

    A rule of fold m > 1 (_Rule), m then the stride, holds one block of
    the rotation: the node w z, w = exp(2 pi i / m), has x' = w x,
    u' = w u and y'_b = w^(b+1) y_b, so its term is w^(a-b) times that of
    z, and on every summed entry the m blocks add up to m times the one
    held. The exponent takes log2 m before the one rounding, which is
    exact; F is that of the whole rule, and m times the block's truncation
    is within that of the whole rule's terms. The entries are not those of
    the whole sum bit for bit: its integer powers u^a round down on each
    node, the block's are rotated."""
    R0 = mp.mpf(bounding_radius(w.support))
    k = _power(w.density)
    gaussian = beta != 0
    guard = _boundary_guard(w.support, beta)
    F = fixed_bits(prec + guard, rule.fold * len(rule.nodes))
    with mp.workprec(F):
        zs = [mp.mpc(z) for z in rule.nodes]
        if isinstance(w.density, Constant):  # one value, and no |z| per node
            vs = [w.density.value(0)] * len(zs)
        else:
            vs = [w.density.value(abs(z)) for z in zs]
        x0 = [mp.mpc(0, -v * R0 / 2) * dz for v, dz in zip(vs, rule.steps)]
        us = [z / R0 for z in zs]
        if gaussian:
            G = F + (2 * maxdeg + k + 2).bit_length() + 1
            srows = list(zip(*(_s_column(beta * (z.real ** 2 + z.imag ** 2), maxdeg, k, G)
                               for z in zs)))
    (xr, xi), e_x = to_fixed(list(zip(*(x._mpc_ for x in x0))), F)
    (ur, ui), e_u = to_fixed(list(zip(*(u._mpc_ for u in us))), F)

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
    real = rule.turn is not None
    if not real:
        sums = [[r + i for r, i in zip(pr, pi)] for pr, pi in xs]
        diffs = [[r - i for r, i in zip(pr, pi)] for pr, pi in ys]
    # a plain entry is 2 sum / (2b + 2 + k): the 2 goes into the exponent,
    # as does the fold, a power of two
    e = e_x + e_u + rule.fold.bit_length() - 1 + (0 if gaussian else 1)
    rows = []
    for a, (pr, pi) in enumerate(xs):
        row = []
        for b, (qr, qi) in enumerate(ys[:a + 1]):
            if (a - b) % rule.stride:
                row.append(mp.zero)
                continue
            A, B = dot(pr, qr), dot(pi, qi)
            im = dot(sums[a], diffs[b]) - A + B if b < a and not real else None
            row.append(from_fixed(A + B, im, e, F, 1 if gaussian else 2 * b + 2 + k))
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
      diagonal, in closed form (_radial_table): incomplete-gamma factors
      S_(a+k/2) for a Constant or Power and a Beta-Kummer series for the
      Chord. No rule is built, so design_degree is -1.
    - "boundary": a density v = c |z|^k (a Constant, k = 0, or a Power) on
      any other support. For b <= a, with
      beta = b0/2 (Gaussian) or 0 (plain) and
      S_s(x) = int_0^1 t^s exp(-x t) dt,
      mu_ab = (1/2i) contour-integral of v z^a conj(z)^(b+1) S_(b+k/2)(beta |z|^2) dz
      (Green's theorem: (s+1) S_s + x S_s' = exp(-x) for real s). Each
      piece of the boundary sizes its own rule (_build_rule): Gauss-Legendre
      for the degree 2 maxdeg + 1 + k on a polygon's edges (_edges), the
      trapezoid rule of the frequency span maxdeg + 2 + k/2 on a circle
      (_circle_size; an annulus's inner circle reversed), and on every piece
      _gaussian_tail resolves the Gaussian to 2^-(precision_bits + guard + 10).
      A union joins its parts' rules, so an edge two parts share cancels.
      Plain tables with even k are exact. For odd k, |z|^k is not a
      polynomial: a circle or an edge gets the further nodes that resolve
      it to 2^-precision_bits at a rate set by its distance from the
      origin, an edge on a line through the origin is split there instead,
      and a circle through the origin raises NonConvergenceError.
      design_degree is the largest of the pieces'.

    The boundary path reads the support's symmetry once, from _symmetry,
    through the rule it records it on. MomentTable.turn records the frame
    of the rows. A single disc or annulus off 0, mirrored about the line
    through 0 and its centre c, is turned by conj(w), w = c / |c|, onto the
    real axis, and its rule holds one node of each mirror pair: the rows are
    then the real moments of the turned support, mpf entries, with half the
    nodes and two dot products per entry. They have the same minimal norms
    and level-q eigenvalues, and entry() returns the support's own
    w^(a-b) rows[a][b]. A radial table is real with turn 1, and any other
    boundary table complex with turn None.

    MomentTable.stride records the exact residue classes: mu_ab is an exact
    0 unless a = b (mod stride). It is maxdeg + 1 on the radial path. On the
    boundary path it is the support's rotation order m in (4, 2, 1)
    (_rotation_order, an exact test), and only the entries with
    a = b (mod m) are summed; on the rotated unit square that is a quarter
    of them. A single polygon's rule holds one block of the rotation, the
    first 1/m of its edges, a quarter of the nodes on the rotated unit
    square, and each entry is m times the block's sum (_gram_table). The
    entries lie within 1e-9 units of 2^-precision_bits sqrt(G_aa G_bb)
    of the sums over every node (2.7e-10 at most on the tested squares and
    rectangle, at N = 24 and 128 bits and at N = 48 and 256); the log norms
    and level-q spectra of the tested supports come out bit for bit the
    same. Every other table sums each of its entries with the same
    arithmetic as a whole table.

    On the boundary path the node values, evaluated at _mp.fixed_bits (32
    guard bits and the bit length of the node count past precision_bits,
    plus _boundary_guard, beta rmax^2 / ln 2), become fixed-point
    integers; the sums are exact and each entry is rounded once, to that
    same width. A Gaussian boundary table builds its S_(b+k/2) rows on
    integers from one exp per node (_s_column); a plain one sums
    v z^a conj(z)^(b+1) and divides by b + 1 + k/2 in that rounding. The
    radial path combines integer columns with the guard bits of
    _radial_table and rounds each entry once, to its width G; the
    Cholesky and the level-q assembly read those bits exactly.
    Against the same rule summed in mpc (mpf) at 128 more bits,
    with S_s from mpmath's incomplete gamma, every boundary entry lies
    within 4 units of 2^-precision_bits sqrt(G_aa G_bb), at most 0.96 on
    the tested supports. Against a rule of 40 more total degrees on every
    piece at 64 more bits, every tested circle and polygon table lies
    within 1 unit (0.69 to 0.99). Against mpmath's incomplete gamma and Kummer closed
    forms at 128 more bits, every radial entry lies within 2 units of
    2^-precision_bits of itself.

    The radial path rejects a nonpositive diagonal entry. A boundary table
    is checked where it is used: by the Cholesky of monic_orthogonalize when
    plain, by the level-q assembly when Gaussian.
    """
    if kind not in ("plain", "gaussian"):
        raise ValueError("kind must be 'plain' or 'gaussian'")
    if maxdeg < 0:
        raise ValueError("maxdeg must be >= 0")
    prec = precision_bits
    beta = b0 / 2 if kind == "gaussian" else 0

    with mp.workprec(prec):
        if _radial_applicable(w):
            rows, R0 = _radial_table(w, maxdeg, prec, beta)
            path, stride, degree_used, turn = "radial", maxdeg + 1, -1, 1
        else:
            rule = _build_rule(w.support, maxdeg, prec, _power(w.density), beta)
            path, stride, degree_used, turn = "boundary", rule.stride, rule.design_degree, rule.turn
            rows, R0 = _gram_table(w, rule, maxdeg, prec, beta)
    return MomentTable(
        maxdeg=maxdeg,
        precision_bits=prec,
        scale_radius=R0,
        rows=rows,
        path=path,
        weight_key=weight_key(w),
        design_degree=degree_used,
        stride=stride,
        turn=turn,
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
            digits = prof[len("power:"):]
            # int() would also take signs, spaces, underscores and non-ASCII digits
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"power profile needs k as ASCII digits, got {prof!r}")
            return Weight(support, Power(int(digits)))
        raise ValueError(f"unknown radial profile {prof!r}")
    raise ValueError(f"unknown density kind {kind!r}")


def ball_reduction_weight(R: float = 1.0) -> Weight:
    """Weight from collapsing the indicator of the ball of radius R along x3:
    the Chord 2 sqrt(R^2 - |z|^2) on the disc shadow, in closed form at the
    working precision. It depends on |z| only, so the diagonal moment path
    applies."""
    chord = Chord(float(R))
    return Weight(Disc(0j, chord.R), chord)
