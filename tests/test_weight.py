"""Weights, boundary rules and moment tables against independent closed forms.

Oracle values are classical integrals: disc moments pi r^(2a+2)/(a+1),
Gaussian disc moments via the lower incomplete gamma, separable square
moments via binomial expansion, polar integrals of |z|, and chord integrals
of the solid ball.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import landaucap.weight as weight_module
from landaucap.errors import NonConvergenceError
from landaucap.region import Annulus, Disc, Polygon, UnionRegion, bounding_radius
from landaucap._mp import _legendre_node, _legendre_seeds, fixed_bits, gauss_legendre
from landaucap.weight import (
    Chord,
    Constant,
    MomentTable,
    Power,
    UNION_MSG,
    Weight,
    ball_reduction_weight,
    mixed_moments,
    weight_from_config,
    weight_key,
)

L_SHAPE = Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))


def boundary_table(w, *args, **kwargs):
    """mixed_moments with centred discs and annuli sent down the boundary
    path, as every other support is."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weight_module, "_radial_applicable", lambda w: False)
        return mixed_moments(w, *args, **kwargs)


def mass(support, prec=128, density=Constant(1.0)):
    tab = boundary_table(Weight(support, density), "plain", 0, prec)
    assert tab.path == "boundary"
    return tab.raw_entry(0, 0)


# ------------------------------------------------------------ boundary rules

@pytest.mark.parametrize("n", [1, 2, 25, 26])
def test_gauss_legendre_mirrors_the_refined_half(n):
    # the nonpositive half is its float64 seeds refined by the integer
    # Newton loop, bit for bit, and the rest is its exact mirror. The
    # positive seeds refined on their own need not land on the mirror bit
    # for bit, since the loop rounds down; test_gauss_legendre_matches_mpf_newton
    # checks the whole rule against an mpf refinement of every seed
    prec = 128
    seeds, _ = np.polynomial.legendre.leggauss(n)
    half = [_legendre_node(n, float(x0), prec) for x0 in seeds[:(n + 1) // 2]]
    xs, ws = gauss_legendre(n, prec)
    assert [x._mpf_ for x in xs[:len(half)]] == [x for x, _ in half]
    assert [w._mpf_ for w in ws[:len(half)]] == [w for _, w in half]
    with mp.workprec(prec + 30):
        assert list(xs) == [-x for x in xs[::-1]]
    assert list(ws) == list(ws[::-1])


def test_legendre_seeds_are_numpys_leggauss_bytes():
    # the float64 steps of numpy.polynomial.legendre.leggauss, one for one
    for n in range(1, 201):
        assert _legendre_seeds(n).tobytes() == np.polynomial.legendre.leggauss(n)[0].tobytes(), n


def test_gauss_legendre_does_not_import_numpy_polynomial():
    code = ("import sys\n"
            "from landaucap._mp import gauss_legendre\n"
            "gauss_legendre(25, 128)\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def _mpf_legendre_rule(n, prec):
    """Gauss-Legendre by Newton steps in mpf at prec + 60 bits, from the
    same float64 seeds: P_n by its three-term recurrence, and
    P_n' = n (x P_n - P_(n-1)) / (x^2 - 1)."""
    def pair(x):
        pm, p = mp.one, x
        for k in range(2, n + 1):
            pm, p = p, ((2 * k - 1) * x * p - (k - 1) * pm) / k
        return p, n * (x * p - pm) / (x * x - 1)

    seeds, _ = np.polynomial.legendre.leggauss(n)
    xs, ws = [], []
    with mp.workprec(prec + 60):
        for x0 in seeds:
            x = mp.mpf(float(x0))
            for _ in range(20):
                p, dp = pair(x)
                x -= p / dp
                if abs(p / dp) <= mp.mpf(2) ** -(prec + 50):
                    break
            p, dp = pair(x)
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
    return xs, ws


@pytest.mark.parametrize("n,prec", [(1, 128), (2, 128), (25, 128), (26, 128), (80, 128), (41, 256)])
def test_gauss_legendre_matches_mpf_newton(n, prec):
    # nodes within 2^-(prec+30), weights within 2^-(prec+30) of themselves:
    # the rule is rounded once to prec + 30 bits
    xs, ws = gauss_legendre(n, prec)
    ref_x, ref_w = _mpf_legendre_rule(n, prec)
    with mp.workprec(prec + 60):
        unit = mp.mpf(2) ** -(prec + 30)
        for x, w, rx, rw in zip(xs, ws, ref_x, ref_w):
            assert abs(x - rx) <= unit
            assert abs(w - rw) <= 2 * unit * rw


def test_disc_area_exact():
    with mp.workprec(128):
        got = mass(Disc(0.2 - 0.1j, 1.3))
        area = mp.pi * mp.mpf(1.3) ** 2
        assert abs(got - area) / area < mp.mpf(10) ** -35


def test_disc_second_moment():
    # int |z|^2 over unit disc = pi/2
    with mp.workprec(128):
        got = mass(Disc(0j, 1.0), density=Power(2))
        assert abs(got - mp.pi / 2) < mp.mpf(10) ** -35


def test_annulus_area():
    with mp.workprec(128):
        got = mass(Annulus(0j, 0.5, 1.25))
        area = mp.pi * (mp.mpf(1.25) ** 2 - mp.mpf(0.5) ** 2)
        assert abs(got - area) / area < mp.mpf(10) ** -35


def test_square_monomial():
    # int x^2 y^2 over [0,1]^2 = 1/9, and x^2 y^2 = (|z|^4 - Re z^4) / 8
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    tab = mixed_moments(Weight(sq, Constant(1.0)), "plain", 4, 128)
    with mp.workprec(128):
        got = (tab.raw_entry(2, 2) - mp.re(tab.raw_entry(4, 0))) / 8
        assert abs(got - mp.mpf(1) / 9) < mp.mpf(10) ** -36


def test_triangle_centroid():
    tri = Polygon((0j, 2 + 0j, 1j))
    tab = mixed_moments(Weight(tri, Constant(1.0)), "plain", 1, 128)
    with mp.workprec(128):
        assert abs(tab.raw_entry(0, 0) - 1) < mp.mpf(10) ** -36
        # int z = area * centroid = 1 * (0 + 2 + i) / 3
        assert abs(tab.raw_entry(1, 0) - mp.mpc(2, 1) / 3) < mp.mpf(10) ** -36


def test_l_shape_area():
    with mp.workprec(128):
        assert abs(mass(L_SHAPE) - 3) < mp.mpf(10) ** -35


def test_union_quadrature_disjoint():
    # apart, a disc in an annulus's hole, and a disc tangent to a square
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    with mp.workprec(128):
        for parts, area in (((Disc(0j, 1.0), Disc(5 + 0j, 0.5)), mp.pi * (1 + mp.mpf(0.25))),
                            ((Annulus(0j, 0.5, 1.0), Disc(0j, 0.4)),
                             mp.pi * (1 - mp.mpf(0.25) + mp.mpf(0.4) ** 2)),
                            ((sq, Disc(1.5 + 0.5j, 0.5)), 1 + mp.pi / 4)):
            assert abs(mass(UnionRegion(parts)) - area) / area < mp.mpf(10) ** -35


def test_union_quadrature_rejects_overlap():
    # crossing boundaries give an overlap away; identical or nested parts
    # share no crossing, and a boundary or interior point of one part
    # strictly inside the other gives them away
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    inner = Polygon((0.25 + 0.25j, 0.75 + 0.25j, 0.5 + 0.75j))
    wide = Polygon((-100 - 0.1j, 100 - 0.1j, 100 + 0.1j, -100 + 0.1j))
    tall = Polygon((50 - 100j, 50.02 - 100j, 50.02 + 10j, 50 + 10j))
    for parts in ((Disc(0j, 1.0), Disc(1 + 0j, 1.0)), (sq, sq), (sq, inner), (L_SHAPE, L_SHAPE),
                  (wide, tall), (Annulus(0j, 0.5, 1.0), Disc(0j, 0.6))):
        with pytest.raises(ValueError, match="pairwise disjoint"):
            mass(UnionRegion(parts), 64)


# ------------------------------------------------------ plain moment oracles

def test_plain_disc_radial_path_closed_form():
    w = Weight(Disc(0j, 1.5), Constant(1.0))
    tab = mixed_moments(w, "plain", 20, precision_bits=128)
    assert tab.path == "radial"
    with mp.workprec(150):
        r = mp.mpf(1.5)
        for a in range(21):
            exact = mp.pi * r ** (2 * a + 2) / (a + 1)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


def test_plain_disc_generic_matches_radial():
    tab = boundary_table(Weight(Disc(0j, 1.5), Constant(1.0)), "plain", 12, precision_bits=128)
    assert tab.path == "boundary"
    with mp.workprec(150):
        r = mp.mpf(1.5)
        mass = mp.pi * r * r
        for a in range(13):
            exact = mp.pi * r ** (2 * a + 2) / (a + 1)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30
            for b in range(a):
                assert abs(tab.entry(a, b)) < mass * mp.mpf(10) ** -30


def test_plain_annulus_closed_form():
    w = Weight(Annulus(0j, 0.6, 1.1), Constant(1.0))
    tab = mixed_moments(w, "plain", 16, precision_bits=128)
    with mp.workprec(150):
        ri, ro = mp.mpf(0.6), mp.mpf(1.1)
        for a in range(17):
            exact = mp.pi * (ro ** (2 * a + 2) - ri ** (2 * a + 2)) / (a + 1)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


def test_plain_shifted_disc_binomial_oracle():
    # mu_ab over Disc(c, r) = sum_k C(a,k) C(b,k) c^(a-k) conj(c)^(b-k) pi r^(2k+2)/(k+1)
    c, r = 0.7 + 0.2j, 1.0
    w = Weight(Disc(c, r), Constant(1.0))
    tab = mixed_moments(w, "plain", 8, precision_bits=128)
    with mp.workprec(150):
        cm, rm = mp.mpc(c), mp.mpf(r)
        mass = mp.pi * rm * rm
        for a in range(9):
            for b in range(a + 1):
                exact = mp.fsum(
                    math.comb(a, k) * math.comb(b, k)
                    * cm ** (a - k) * mp.conj(cm) ** (b - k)
                    * mp.pi * rm ** (2 * k + 2) / (k + 1)
                    for k in range(min(a, b) + 1)
                )
                assert abs(tab.raw_entry(a, b) - exact) < mass * mp.mpf(10) ** -30


def test_plain_square_separable_oracle():
    # mu_ab over [0,1]^2 by expanding (x+iy)^a (x-iy)^b termwise
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    w = Weight(sq, Constant(1.0))
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    with mp.workprec(150):
        i1 = mp.mpc(0, 1)
        for a in range(7):
            for b in range(a + 1):
                exact = mp.fsum(
                    math.comb(a, j) * math.comb(b, k)
                    * i1 ** (a - j) * (-i1) ** (b - k)
                    / ((j + k + 1) * (a + b - j - k + 1))
                    for j in range(a + 1)
                    for k in range(b + 1)
                )
                assert abs(tab.raw_entry(a, b) - exact) < mp.mpf(10) ** -30


def test_plain_lshape_and_union_mass():
    wl = Weight(L_SHAPE, Constant(1.0))
    tl = mixed_moments(wl, "plain", 2, precision_bits=128)
    u = UnionRegion((Disc(-2 + 0j, 0.75), Disc(2 + 0j, 1.0)))
    wu = Weight(u, Constant(1.0))
    tu = mixed_moments(wu, "plain", 2, precision_bits=128)
    with mp.workprec(150):
        assert abs(tl.raw_entry(0, 0) - 3) < mp.mpf(10) ** -30
        mass = mp.pi * (mp.mpf(0.75) ** 2 + 1)
        assert abs(tu.raw_entry(0, 0) - mass) / mass < mp.mpf(10) ** -30
        # mu_11 = sum over discs of pi r^2 (|c|^2 + r^2/2)
        m11 = mp.pi * mp.mpf(0.75) ** 2 * (4 + mp.mpf(0.75) ** 2 / 2) + mp.pi * (4 + mp.mpf(0.5))
        assert abs(tu.raw_entry(1, 1) - m11) / m11 < mp.mpf(10) ** -30


def test_scaled_entries_match_raw():
    w = Weight(Disc(0j, 2.0), Constant(1.0))
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    # entries carry their fixed-point width, 164 bits here, so the product
    # is formed at more than that
    with mp.workprec(200):
        for a in range(7):
            assert abs(tab.entry(a, a) * tab.scale_radius ** (2 * a) - tab.raw_entry(a, a)) == 0


def test_polynomial_radial_profile():
    # v = |z|^4 on unit disc: mu_aa = 2 pi / (2a + 6)
    w = Weight(Disc(0j, 1.0), Power(4))
    tab = mixed_moments(w, "plain", 10, precision_bits=128)
    with mp.workprec(150):
        for a in range(11):
            exact = 2 * mp.pi / (2 * a + 6)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


# -------------------------------------------------------- gaussian moments

def test_gaussian_disc_incomplete_gamma():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "gaussian", 16, precision_bits=128, b0=2.0)
    with mp.workprec(150):
        for a in range(17):
            exact = mp.pi * mp.gammainc(a + 1, 0, 1)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


def test_gaussian_generic_matches_radial():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    t1 = mixed_moments(w, "gaussian", 10, precision_bits=128, b0=2.0)
    t2 = boundary_table(w, "gaussian", 10, precision_bits=128, b0=2.0)
    with mp.workprec(150):
        for a in range(11):
            d = abs(t1.raw_entry(a, a) - t2.raw_entry(a, a)) / t1.raw_entry(a, a)
            assert d < mp.mpf(10) ** -30


def test_gaussian_general_b0_quad_oracle():
    # independent oracle: 1d integral by mpmath's adaptive quadrature
    b0, r = 3.7, 1.2
    w = Weight(Disc(0j, r), Constant(1.0))
    tab = mixed_moments(w, "gaussian", 8, precision_bits=128, b0=b0)
    with mp.workprec(200):
        for a in (0, 3, 8):
            exact = 2 * mp.pi * mp.quad(
                lambda t: t ** (2 * a + 1) * mp.exp(-mp.mpf(b0) * t * t / 2), [0, mp.mpf(r)]
            )
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


def test_gaussian_tail_of_zero_is_empty():
    # a circle centred at 0 and an edge with Re(conj(m) h) = 0 add no tail
    for bits in (74, 138, 266):
        assert weight_module._gaussian_tail(0.0, bits) == 0
    assert weight_module._gaussian_tail(0.7, 143) == 34


# -------------------------------------------------------- table structure

def test_hermitian_mirror_exact():
    w = Weight(Disc(0.4 - 0.3j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    # entry(a, b), b > a, is the exact conjugate; mp.conj rounds to the
    # context, so it runs above the entries' fixed-point width
    with mp.workprec(200):
        for a in range(7):
            for b in range(7):
                assert tab.entry(a, b) == mp.conj(tab.entry(b, a))
        assert mp.im(tab.entry(3, 3)) == 0


def test_entry_bounds_checked():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "plain", 4, precision_bits=128)
    with pytest.raises(IndexError):
        tab.entry(5, 0)


def test_mixed_moments_validation():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with pytest.raises(ValueError):
        mixed_moments(w, "weird", 4, 128)
    with pytest.raises(ValueError):
        mixed_moments(w, "plain", -1, 128)


def test_degenerate_weight_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        Weight(Disc(0j, 1.0), Constant(0.0))
    with pytest.raises(ValueError, match="density constant must be positive, got -2.0"):
        Weight(Disc(0j, 1.0), Constant(-2.0))
    with pytest.raises(ValueError, match="k >= 0"):
        Power(-1)
    for R in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="ball radius"):
            Chord(R)
    for support in (Disc(0j, 2.0), Disc(0.1 + 0j, 1.0), Annulus(0j, 0.5, 1.0)):
        with pytest.raises(ValueError, match="Disc\\(0, R\\)"):
            Weight(support, Chord(1.0))


def test_support_whose_squared_diameter_overflows_rejected():
    # (2 rmax)^2 is the largest square the rules and guards form in doubles,
    # so rmax may not pass sqrt(max double) / 2
    bound = math.sqrt(sys.float_info.max) / 2
    Weight(Disc(0j, bound / 2), Constant(1.0))
    for support in (Disc(0j, 1e200), Disc(0j, bound * 1.0001), Annulus(1e160j, 1.0, 2.0)):
        with pytest.raises(ValueError, match="support too large"):
            Weight(support, Constant(1.0))


@pytest.mark.parametrize("support", [Disc(0j, 1e20), Annulus(0j, 1.0, 1e20), Disc(0.5 + 0j, 1e20),
                                     Polygon((-4e153 - 4e153j, 4e153 - 4e153j, 4e153 + 4e153j,
                                              -4e153 + 4e153j))])
def test_unbounded_gaussian_guard_raises_nonconvergence(support):
    # both guards, the radial table's and the boundary sum's, are capped:
    # past _MAX_GUARD_BITS the Gaussian table raises before it builds a rule
    w = Weight(support, Constant(1.0))
    with pytest.raises(NonConvergenceError, match="guard bits"):
        mixed_moments(w, "gaussian", 2, precision_bits=64)
    bits = weight_module._MAX_GUARD_BITS * math.log(2)
    assert weight_module._boundary_guard(Disc(0j, 1.0), bits) == weight_module._MAX_GUARD_BITS
    with pytest.raises(NonConvergenceError, match="guard bits"):
        weight_module._boundary_guard(Disc(0j, 1.0), 1.0001 * bits)


@settings(max_examples=12, deadline=None)
@given(
    radius=st.floats(min_value=0.3, max_value=2.0),
    maxdeg=st.integers(min_value=0, max_value=6),
)
def test_radial_generic_agreement_property(radius, maxdeg):
    w = Weight(Disc(0j, radius), Constant(1.0))
    t1 = mixed_moments(w, "plain", maxdeg, precision_bits=128)
    t2 = boundary_table(w, "plain", maxdeg, precision_bits=128)
    with mp.workprec(140):
        for a in range(maxdeg + 1):
            d = abs(t1.entry(a, a) - t2.entry(a, a)) / t1.entry(a, a)
            assert d < mp.mpf(10) ** -25


# ------------------------------------- fixed-point kernel vs the mpc loops
#
# Boundary tables are exact fixed-point integer sums rounded once per entry.
# The references below are plain mpc multiply-add loops over the same rule
# at prec + 128 bits, with S_s from mpmath's incomplete gamma, so any
# difference is rounding in the kernel. Units are 2^-prec sqrt(G_aa G_bb).

POWER1 = Power(1)
POWER2 = Power(2)


def _s_reference(s, x):
    """int_0^1 t^s exp(-x t) dt = gamma(s + 1, x) / x^(s + 1)."""
    return mp.gammainc(s + 1, 0, x) / x ** (s + 1) if x else 1 / (s + 1)


def _reference_table(w, rule, beta, maxdeg):
    R0 = mp.mpf(bounding_radius(w.support))
    beta = mp.mpf(beta)
    half_k = mp.mpf(weight_module._power(w.density)) / 2
    zs = [mp.mpc(z) for z in rule.nodes]
    us = [z / R0 for z in zs]
    xs = [w.density.value(abs(z)) * R0 * dz / mp.mpc(0, 2)
          for z, dz in zip(zs, rule.steps)]
    ys = [[_s_reference(b + half_k, beta * abs(z) ** 2) * u ** (b + 1) for z, u in zip(zs, us)]
          for b in range(maxdeg + 1)]
    rows = []
    for a in range(maxdeg + 1):
        xa = [x * u ** a for x, u in zip(xs, us)]
        row = [mp.fsum(x * mp.conj(y) for x, y in zip(xa, ys[b])) for b in range(a + 1)]
        # a mirror rule's nodes stand for themselves and their conjugates
        real = rule.turn is not None
        rows.append([mp.re(x) for x in row] if real else row[:a] + [mp.re(row[a])])
    return rows


def literal_rows(tab):
    """The lower triangle of the moments mu_ab themselves, read through
    MomentTable.entry: w^(a-b) rows[a][b] on a table turned by a mirror."""
    return [[tab.entry(a, b) for b in range(a + 1)] for a in range(tab.maxdeg + 1)]


def _assert_within_units(rows, ref, maxdeg, prec, units=4):
    with mp.workprec(prec + 128):
        bound = units * mp.mpf(2) ** -prec
        for a in range(maxdeg + 1):
            assert mp.im(rows[a][a]) == 0
            for b in range(a + 1):
                scale = mp.sqrt(abs(ref[a][a]) * abs(ref[b][b]))
                assert abs(rows[a][b] - ref[a][b]) <= bound * scale, (a, b)


def _assert_kernel_matches_reference(w, rule, beta, maxdeg, prec):
    with mp.workprec(prec):
        rows, _ = weight_module._gram_table(w, rule, maxdeg, prec, beta)
    with mp.workprec(prec + 128):
        ref = _reference_table(w, rule, beta, maxdeg)
    _assert_within_units(rows, ref, maxdeg, prec)


# beta = b0/2 of each table kind at b0 = 2
BETA = {"plain": 0, "gaussian": 1.0}


def _boundary_rule(w, beta, maxdeg, prec):
    """The boundary rule mixed_moments builds."""
    return weight_module._build_rule(w.support, maxdeg, prec, weight_module._power(w.density), beta)


def literal_symmetry(monkeypatch):
    """Make every rule literal and every table whole (stride and fold 1), as
    the mpc reference sums it; a disc or annulus keeps its mirror turn."""
    symmetry = weight_module._symmetry
    monkeypatch.setattr(weight_module, "_symmetry", lambda support: (1, 1, symmetry(support)[2]))


def _support_excess(support, beta, prec):
    """The Gaussian excess degree that once sized every piece from the whole
    support: the least K with (beta rmax^2)^(K+1) / (K+1)! below
    10^-(ceil(0.3 prec) + 10), rmax the bounding radius, doubled and at
    least 30; even, and 0 on a plain table."""
    if not beta:
        return 0
    lx = math.log(beta * bounding_radius(support) ** 2)
    target = -(math.ceil(prec * 0.3) + 10) * math.log(10.0)
    K = 1
    while (K + 1) * lx - math.lgamma(K + 2) > target:
        K += 1
    return max(30, 2 * K)


def _degree_rule(w, beta, maxdeg, prec, extra):
    """A reference rule sized by one total degree
    D = 2 maxdeg + 1 + k + extra, plus _support_excess, for every piece:
    D + 2 trapezoid nodes on each circle (with the odd-power nodes on top),
    D // 2 + 1 Gauss-Legendre nodes on each edge (with the odd-power nodes
    on top), at the guarded precision of _build_rule. extra is even."""
    k = weight_module._power(w.density)
    extra += _support_excess(w.support, beta, prec)
    degree = 2 * maxdeg + 1 + k + extra
    prec += weight_module._boundary_guard(w.support, beta)
    nodes, steps = [], []
    for part in w.support.parts if isinstance(w.support, UnionRegion) else (w.support,):
        if isinstance(part, Polygon):
            # a plain ring of bidegree maxdeg + extra / 2 has total degree D
            pieces = [weight_module._edges(part.vertices, maxdeg + extra // 2, prec, k, 0, 1)[:2]]
        else:
            lo, hi = weight_module._radial_interval(part)
            pieces = []
            for r, sign in [(hi, 1)] + ([(lo, -1)] if lo > 0 else []):
                T = degree + 2
                if k % 2 and part.center != 0:
                    T += weight_module._odd_power_nodes(abs(math.log(abs(part.center) / r)), prec)
                pieces.append(weight_module._circle(part.center, r, T, prec, sign))
        for ns, ds in pieces:
            nodes += ns
            steps += ds
    return weight_module._Rule(nodes, steps, -1, 1, 1, None)


SIDE3_SQUARE = Polygon((-1.5 - 1.5j, 1.5 - 1.5j, 1.5 + 1.5j, -1.5 + 1.5j))


@pytest.mark.parametrize("support,density,kind,maxdeg,prec", [
    (Disc(0.7 + 0j, 1.0), Constant(1.0), "gaussian", 12, 128),
    # corner nodes carry exp(-4.5) of the centre's Gaussian factor
    (SIDE3_SQUARE, Constant(1.0), "gaussian", 12, 128),
    (Disc(0.6 - 0.5j, 1.0), Constant(1.0), "plain", 16, 64),
    (Annulus(0.3j, 0.4, 1.0), Constant(1.0), "gaussian", 12, 128),
    # S rows down to exp(-49): the guard bits keep them
    (Disc(6 + 0j, 1.0), Constant(1.0), "gaussian", 6, 128),
    # plain odd powers divide by the half-integer b + 1 + k/2
    (Disc(0.7 + 0j, 1.0), POWER1, "plain", 12, 128),
    (Disc(0.7 + 0j, 1.0), Power(3), "plain", 12, 128),
])
def test_boundary_kernel_matches_mpc_sum(support, density, kind, maxdeg, prec, monkeypatch):
    literal_symmetry(monkeypatch)
    w = Weight(support, density)
    beta = BETA[kind]
    _assert_kernel_matches_reference(w, _boundary_rule(w, beta, maxdeg, prec), beta, maxdeg, prec)


@pytest.mark.parametrize("prec", [128, 256])
@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("x", [0.0, 1e-3, 2.89, 49.0])
def test_s_column_matches_incomplete_gamma(x, k, prec):
    # the scale of a Gaussian table whose guard covers x, on one node: S_s
    # keeps F - guard bits of itself, within 2 units
    maxdeg = 48
    guard = math.ceil(x / math.log(2))
    F = fixed_bits(prec + guard, 1)
    G = F + (2 * maxdeg + k + 2).bit_length() + 1
    with mp.workprec(F):
        col = weight_module._s_column(mp.mpf(x), maxdeg, k, G)
    assert len(col) == maxdeg + 1
    with mp.workprec(prec + 128):
        unit = mp.mpf(2) ** -(F - guard)
        for b, c in enumerate(col):
            exact = _s_reference(b + mp.mpf(k) / 2, mp.mpf(x))
            assert abs(mp.ldexp(c, -G) - exact) <= 2 * unit * exact, b


def test_boundary_table_resolves_gaussian():
    # the table's rule against one of 40 more total degrees at +128 bits
    w = Weight(Disc(0.7 + 0j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "gaussian", 24, precision_bits=128)
    rule = _degree_rule(w, 1.0, 24, 256, extra=40)
    with mp.workprec(256):
        ref, _ = weight_module._gram_table(w, rule, 24, 256, 1.0)
    _assert_within_units(tab.rows, ref, 24, 128)


# the benchmark's off-centre disc at seed 1: centre 0.7 exp(i theta)
SEED1_CENTER = 0.465012067751137 + 0.5232244039088887j
DISC_07 = Disc(0.7 + 0j, 1.0)


@pytest.mark.parametrize("support,density,kind,maxdeg,prec,nodes", [
    # every single disc and annulus is turned onto the real axis, and its
    # rule keeps the nodes t = 0..T/2 of each circle's T; the union keeps
    # its whole rule
    (Disc(SEED1_CENTER, 1.0), Constant(1.0), "gaussian", 24, 128, 31),
    (DISC_07, Constant(1.0), "gaussian", 48, 256, 53),
    (Disc(3 + 0j, 1.0), Constant(1.0), "gaussian", 48, 256, 68),
    (Disc(6 + 0j, 1.0), Constant(1.0), "gaussian", 24, 128, 57),
    (Annulus(0.3j, 0.4, 1.0), Constant(1.0), "gaussian", 24, 128, 53),
    (UnionRegion((Disc(-1.2 + 0j, 1.0), Disc(1.2 + 0.3j, 0.8))), Constant(1.0),
     "gaussian", 24, 128, 130),
    (DISC_07, Constant(1.0), "plain", 48, 256, 26),
    (DISC_07, POWER1, "plain", 24, 128, 139),
    (DISC_07, POWER1, "gaussian", 24, 128, 161),
    (DISC_07, POWER2, "plain", 24, 128, 14),
    (DISC_07, POWER2, "gaussian", 24, 128, 31),
    (DISC_07, Power(3), "plain", 24, 128, 139),
    (DISC_07, Power(3), "gaussian", 24, 128, 161),
])
def test_circle_rules_sized_per_circle_match_a_longer_rule(support, density, kind, maxdeg, prec,
                                                           nodes):
    # each circle's own frequency span and Gaussian tail against one rule of
    # 40 more total degrees on every circle, at 64 more bits: within 1 unit
    _assert_matches_a_longer_rule(Weight(support, density), kind, maxdeg, prec, nodes)


def _assert_matches_a_longer_rule(w, kind, maxdeg, prec, nodes):
    # the table's rule has the pinned literal node count, and its table lies
    # within 1 unit of the one of _degree_rule with 40 more degrees at 64
    # more bits
    beta = BETA[kind]
    rule = _boundary_rule(w, beta, maxdeg, prec)
    assert rule.fold * len(rule.nodes) == nodes
    tab = boundary_table(w, kind, maxdeg, prec)
    rule = _degree_rule(w, beta, maxdeg, prec + 64, extra=40)
    with mp.workprec(prec + 64):
        ref, _ = weight_module._gram_table(w, rule, maxdeg, prec + 64, beta)
    _assert_within_units(literal_rows(tab), ref, maxdeg, prec, units=1)


@pytest.mark.parametrize("support, turn", [
    (Annulus(0.3j, 0.4, 1.0), 0.3j),
    (Disc(-0.5 + 0.6j, 0.8), -0.5 + 0.6j),
    # a polygon keeps its whole rule
    (Polygon((0j, 1 + 0j, 1 + 1j, 1j)), None),
])
def test_half_rule_matches_the_literal_full_rule(support, turn, monkeypatch):
    # the mirror rule, read through entry(), against the full rule on the
    # support itself, as built with no mirror: within 1 unit
    w = Weight(support, Constant(1.0))
    half = boundary_table(w, "gaussian", 24, 128)
    assert half.turn == turn
    monkeypatch.setattr(weight_module, "_symmetry", lambda support: (1, 1, None))
    full = boundary_table(w, "gaussian", 24, 128)
    assert full.turn is None
    if turn is None:
        assert half.rows == full.rows
    _assert_within_units(literal_rows(half), full.rows, 24, 128, units=1)


def test_offcenter_workload_disc_rule_size():
    # frequency span 24 + 2 and a Gaussian tail of 34 nodes (beta r |c| = 0.7
    # to 128 + 5 + 10 bits), T = 60; one total degree for every piece takes
    # 161. The disc is turned onto the real axis and its rule keeps the
    # nodes t = 0..30 of the 60
    w = Weight(Disc(SEED1_CENTER, 1.0), Constant(1.0))
    rule = _boundary_rule(w, 1.0, 24, 128)
    assert len(rule.nodes) == 31 and rule.design_degree == 58
    assert rule.turn == SEED1_CENTER
    assert mixed_moments(w, "gaussian", 24, 128).design_degree == 58
    # a circle centred at 0 needs no Gaussian tail: T = 26, of which 14 are kept
    centred = Weight(Disc(0j, 1.0), Constant(1.0))
    assert len(_boundary_rule(centred, 1.0, 24, 128).nodes) == 14


@pytest.mark.parametrize("support", [SIDE3_SQUARE, L_SHAPE, Polygon((0j, 2 + 0j, 0.5 + 1.5j))])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("kind", ["plain"])
def test_polygon_edges_keep_the_total_degree_count(support, k, kind):
    maxdeg, prec = 12, 128
    n = (2 * maxdeg + 1 + k) // 2 + 1
    rule = _boundary_rule(Weight(support, Power(k)), BETA[kind], maxdeg, prec)
    assert rule.fold * len(rule.nodes) == len(support.vertices) * n
    assert rule.design_degree == 2 * n - 1
    # the table records the edges' design degree
    tab = mixed_moments(Weight(support, Power(k)), kind, maxdeg, prec)
    assert tab.design_degree == 2 * n - 1


UNIT_SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))
CORNER_SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
_H = math.sqrt(3) / 2
CORNER_TRIANGLE = Polygon((0j, 1 + 0j, 0.5 + _H * 1j))
CENTRED_TRIANGLE = Polygon(tuple(v - (1.5 + _H * 1j) / 3 for v in CORNER_TRIANGLE.vertices))
POLYGON_CASES = [
    # (support, density, N=24 at 128 bits, N=48 at 256 bits): node counts
    (UNIT_SQUARE, Constant(1.0), 180, 336),
    (CORNER_SQUARE, Constant(1.0), 236, 428),
    (CENTRED_TRIANGLE, Constant(1.0), 141, 261),
    (CORNER_TRIANGLE, Constant(1.0), 174, 318),
    (Polygon((-2 - 2j, 2 - 2j, 2 + 2j, -2 + 2j)), Constant(1.0), 256, 440),
    (Polygon((3 + 3j, 4 + 3j, 4 + 4j, 3 + 4j)), Constant(1.0), 312, 512),
    (UnionRegion((CORNER_SQUARE, Polygon((1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j)))), Constant(1.0),
     496, 888),
    (UNIT_SQUARE, POWER2, 184, 340),
    (CORNER_SQUARE, POWER1, 296, None),
]


@pytest.mark.parametrize("support,density,maxdeg,prec,nodes", [
    pytest.param(support, density, maxdeg, prec, nodes,
                 id=f"{weight_key(Weight(support, density))}-N{maxdeg}")
    for support, density, *counts in POLYGON_CASES
    for (maxdeg, prec), nodes in zip([(24, 128), (48, 256)], counts) if nodes
])
def test_polygon_rules_sized_per_edge_match_a_longer_rule(support, density, maxdeg, prec, nodes):
    # each edge's own Gaussian tail, the ring's largest, against one rule of
    # the old support-wide excess and 40 more total degrees on every edge, at
    # 64 more bits: within 1 unit, on fewer nodes
    _assert_matches_a_longer_rule(Weight(support, density), "gaussian", maxdeg, prec, nodes)


@pytest.mark.parametrize("support,k,rules", [
    (L_SHAPE, 0, 1),
    # the two edges through the origin need no odd-power nodes, the third does
    (Polygon((0j, 2 + 0j, 0.5 + 1.5j)), 1, 2),
    (Polygon((0.3 + 0.1j, 1.3 + 0.1j, 1.3 + 1.1j, 0.3 + 1.1j)), 3, 1),
])
def test_a_ring_computes_at_most_two_gauss_legendre_rules(support, k, rules, monkeypatch):
    # edges of different lengths and distances share the ring's largest
    # Gaussian excess, so the lru-cached rule is computed once or twice
    calls = set()

    def recording(n, prec):
        calls.add((n, prec))
        return gauss_legendre(n, prec)

    monkeypatch.setattr(weight_module, "gauss_legendre", recording)
    weight_module._build_rule(support, 12, 128, k, 1.0)
    assert len(calls) == rules


def test_boundary_table_far_from_origin():
    # the Gaussian moments of Disc(6, 1) are about e^-25 of the boundary
    # terms, so the sum must carry the bits that cancel
    w = Weight(Disc(6 + 0j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "gaussian", 6, 128)
    _assert_within_units(tab.rows, mixed_moments(w, "gaussian", 6, 256).rows, 6, 128)
    with mp.workprec(200):
        # the circle |z| = rho meets the disc in an arc of half-angle phi
        def phi(rho):
            return mp.acos((rho * rho + 35) / (12 * rho))

        mass = mp.quad(lambda rho: 2 * phi(rho) * rho * mp.exp(-rho * rho), [5, 6, 7])
        assert abs(tab.raw_entry(0, 0) - mass) < mass * mp.mpf(10) ** -30


def test_union_sharing_an_edge_matches_rectangle():
    # the shared edge's two opposite rules cancel
    left = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    right = Polygon((1 + 0j, 2 + 0j, 2 + 1j, 1 + 1j))
    rect = Polygon((0j, 2 + 0j, 2 + 1j, 1j))
    union = mixed_moments(Weight(UnionRegion((left, right)), Constant(1.0)), "gaussian", 10, 128)
    whole = mixed_moments(Weight(rect, Constant(1.0)), "gaussian", 10, 128)
    _assert_within_units(union.rows, whole.rows, 10, 128)


def test_overlapping_union_table_rejected():
    w = Weight(UnionRegion((Disc(0j, 1.0), Disc(1 + 0j, 1.0))), Constant(1.0))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        mixed_moments(w, "plain", 4, 128)


def test_flat_kernel_gaussian_side3_square(monkeypatch):
    # an odd power: node values follow |z| along the edges
    literal_symmetry(monkeypatch)
    w = Weight(SIDE3_SQUARE, POWER1)
    _assert_kernel_matches_reference(w, _boundary_rule(w, 1.0, 12, 128), 1.0, 12, 128)


def test_flat_kernel_signed_node_values():
    # steps of either sign in both parts enter with their signs
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with mp.workprec(128):
        nodes = [mp.mpc(0.3, 0.1), mp.mpc(-0.5, 0.4), mp.mpc(0.2, -0.7), mp.mpc(-0.1, -0.2)]
        steps = [mp.mpc(1, -0.25), mp.mpc(-0.5, 0.5), mp.mpc(2, 0), mp.mpc(-1.25, -3)]
    rule = weight_module._Rule(nodes, steps, -1, 1, 1, None)
    _assert_kernel_matches_reference(w, rule, 0, 3, 128)


# -------------------------------------------------------------- table paths

@pytest.mark.parametrize("w,path", [
    (Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), "boundary"),
    (Weight(SIDE3_SQUARE, Constant(2.0)), "boundary"),
    (Weight(UnionRegion((Disc(-2 + 0j, 0.75), Disc(2 + 0j, 1.0))), Constant(1.0)), "boundary"),
    (Weight(L_SHAPE, POWER1), "boundary"),
    (Weight(Disc(0.7 + 0j, 1.0), POWER1), "boundary"),
    (Weight(Disc(0j, 1.0), POWER1), "radial"),
    (ball_reduction_weight(1.0), "radial"),
])
def test_table_names_its_path(w, path):
    assert mixed_moments(w, "plain", 2, 64).path == path


def test_every_config_density_takes_radial_or_boundary():
    densities = [{"kind": "constant", "c": 2.0}, {"kind": "radial", "profile": "chi"}]
    densities += [{"kind": "radial", "profile": f"power:{k}"} for k in range(4)]
    l_shape = {"shape": "polygon",
               "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    supports = [({"shape": "disc", "center": [0, 0], "radius": 1}, "radial"),
                ({"shape": "disc", "center": [0.7, 0], "radius": 1}, "boundary"),
                ({"shape": "annulus", "center": [0, 0.3], "inner": 0.4, "outer": 1},
                 "boundary"),
                (l_shape, "boundary"),
                ({"shape": "union", "parts": [
                    l_shape, {"shape": "disc", "center": [-1.5, 0], "radius": 0.5}]},
                 "boundary")]
    ball = {"density": {"kind": "ball3d_reduction", "R": 1.0}}
    cases = [(ball, "radial")] + [({"support": s, "density": d}, path)
                                  for s, path in supports for d in densities]
    for rec, path in cases:
        w = weight_from_config(rec)
        for kind in ("plain", "gaussian"):
            assert mixed_moments(w, kind, 4, 64).path == path, rec


# ----------------------------------------------------------- odd radial powers

def _disc_edge(t):
    """Distance from 0 to the edge of Disc(0.7, 1) in the direction t."""
    c = mp.mpf(0.7)
    return c * mp.cos(t) + mp.sqrt(1 - (c * mp.sin(t)) ** 2)


def _disc_power1(kind, a, b):
    """mu_ab of |z| on Disc(0.7, 1) in polar coordinates about 0: the radial
    integral int_0^R r^(a+b+2) g(r) dr in closed form, then a 1d quadrature
    in the angle."""
    m = a + b + 3
    if kind == "plain":
        radial = lambda R: R ** m / m  # noqa: E731
    else:
        radial = lambda R: mp.gammainc(mp.mpf(m) / 2, 0, R * R) / 2  # noqa: E731
    return mp.quad(lambda t: mp.expj((a - b) * t) * radial(_disc_edge(t)), [0, mp.pi, 2 * mp.pi])


def _rectangle_power1(x0, x1, y0, y1):
    """int |z| over [x0, x1] x [y0, y1] with x0 <= 0 < x1 and y0 <= 0 < y1,
    from the quadrant integrals int_0^X int_0^Y |z| (X, Y > 0)."""
    def quadrant(X, Y):
        if not (X and Y):
            return 0
        R = mp.sqrt(X * X + Y * Y)
        return (2 * X * Y * R + X ** 3 * mp.log((Y + R) / X) + Y ** 3 * mp.log((X + R) / Y)) / 6

    return mp.fsum(quadrant(abs(mp.mpf(x)), abs(mp.mpf(y))) for x in (x0, x1) for y in (y0, y1))


def _polygon_mass(support):
    xs = sorted({v.real for v in support.vertices})
    ys = sorted({v.imag for v in support.vertices})
    return _rectangle_power1(xs[0], xs[-1], ys[0], ys[-1])


SHIFTED_SQUARE = Polygon(tuple(v + (0.3 + 0.1j) for v in (-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j)))


@pytest.mark.parametrize("support,kind", [
    (Disc(0.7 + 0j, 1.0), "plain"),
    (Disc(0.7 + 0j, 1.0), "gaussian"),
    # the origin inside, off every edge's line
    (SHIFTED_SQUARE, "plain"),
    # the origin at a vertex
    (Polygon((0j, 1 + 0j, 1 + 1j, 1j)), "plain"),
    # the origin inside an edge, which is split there
    (Polygon((-1 + 0j, 1 + 0j, 1 + 1j, -1 + 1j)), "plain"),
])
def test_power1_offcenter_mass(support, kind):
    tab = mixed_moments(Weight(support, POWER1), kind, 4, 128)
    assert tab.path == "boundary"
    with mp.workprec(200):
        if isinstance(support, Disc):
            for a, b in ((0, 0), (2, 1), (4, 4)):
                exact = _disc_power1(kind, a, b)
                assert abs(tab.raw_entry(a, b) - exact) < abs(exact) * mp.mpf(10) ** -30, (a, b)
        else:
            assert abs(tab.raw_entry(0, 0) - _polygon_mass(support)) < mp.mpf(10) ** -30


@pytest.mark.parametrize("kind", ["plain", "gaussian"])
def test_power2_is_the_shifted_constant_table(kind):
    # |z|^2 z^a conj(z)^b = z^(a+1) conj(z)^(b+1), so mu2_ab = mu0_(a+1)(b+1)
    support = Disc(0.7 + 0.2j, 1.0)
    p2 = mixed_moments(Weight(support, POWER2), kind, 8, 128)
    c = mixed_moments(Weight(support, Constant(1.0)), kind, 9, 128)
    with mp.workprec(256):
        r2 = p2.scale_radius ** 2
        ref = [[r2 * c.entry(a + 1, b + 1) for b in range(a + 1)] for a in range(9)]
    _assert_within_units(literal_rows(p2), ref, 8, 128)


def test_odd_power_on_a_circle_through_the_origin_raises():
    # the last circle misses 0 by 1e-9, which would take ~1e11 nodes
    for support in (Disc(1 + 0j, 1.0), Annulus(0.5j, 0.5, 1.0), Disc(1 + 1e-9 + 0j, 1.0)):
        with pytest.raises(NonConvergenceError, match="odd power"):
            mixed_moments(Weight(support, POWER1), "plain", 2, 64)


# ------------------------------------- radial kernel vs mpmath closed forms
#
# Radial tables are closed forms on fixed-point integers rounded once per
# entry. The reference evaluates the same integrals with mpmath at
# prec + 128 bits: the incomplete gamma for c |z|^k and Beta times Kummer's
# 1F1 for the Chord. Units are 2^-prec of the entry.

UNIT_DISC, DISC6, DISC10 = (Weight(Disc(0j, R), Constant(1.0)) for R in (1.0, 6.0, 10.0))
POWER2_ANNULUS = Weight(Annulus(0j, 0.5, 2.0), Power(2))
BALL = ball_reduction_weight(1.0)
FULL_GRID = [("plain", 2.0, 128, 48), ("plain", 2.0, 256, 49), ("gaussian", 2.0, 128, 49),
             ("gaussian", 2.0, 256, 48), ("gaussian", 3.0, 128, 48), ("gaussian", 3.0, 256, 49)]
RADIAL_CASES = [(w, *case) for w in (UNIT_DISC, DISC6, DISC10, POWER2_ANNULUS, BALL)
                for case in FULL_GRID]


def _case_id(case):
    w, kind, b0, prec, maxdeg = case
    return f"{weight_key(w)}-{kind}-{b0}-{prec}-{maxdeg}"


def _radial_reference(w, kind, maxdeg, b0):
    """mu_aa / hi^(2a) for a = 0..maxdeg, hi the outer radius: with
    beta = b0/2 (Gaussian) or 0 (plain) and s = a + k/2, pi c times
    gamma(s+1, beta lo^2, beta hi^2) / beta^(s+1) (for beta = 0,
    (hi^(2s+2) - lo^(2s+2)) / (s+1)) for c |z|^k, and
    2 pi R^(2a+3) B(a+1, 3/2) 1F1(a+1; a+5/2; -beta R^2) for the Chord."""
    lo, hi = weight_module._radial_interval(w.support)
    beta = mp.mpf(b0) / 2 if kind == "gaussian" else mp.zero
    d = w.density
    sums = []
    for a in range(maxdeg + 1):
        if isinstance(d, Chord):
            half = mp.mpf(3) / 2
            mu = (2 * mp.pi * hi ** (2 * a + 3) * mp.beta(a + 1, half)
                  * mp.hyp1f1(a + 1, a + 1 + half, -beta * hi * hi))
        else:
            s = a + mp.mpf(weight_module._power(d)) / 2
            if beta:
                integral = mp.gammainc(s + 1, beta * lo * lo, beta * hi * hi) / beta ** (s + 1)
            else:
                integral = (hi ** (2 * s + 2) - lo ** (2 * s + 2)) / (s + 1)
            mu = mp.pi * d.value(1) * integral
        sums.append(mu / hi ** (2 * a))
    return sums


def _assert_radial_within_two_units(w, kind, b0, prec, maxdeg):
    tab = mixed_moments(w, kind, maxdeg, precision_bits=prec, b0=b0)
    assert tab.path == "radial"
    with mp.workprec(prec + 128):
        ref = _radial_reference(w, kind, maxdeg, b0)
        for a in range(maxdeg + 1):
            assert all(tab.entry(a, b) == 0 for b in range(a))
            assert abs(tab.entry(a, a) - ref[a]) <= 2 * mp.mpf(2) ** -prec * ref[a], a


@pytest.mark.parametrize("w,kind,b0,prec,maxdeg", RADIAL_CASES, ids=map(_case_id, RADIAL_CASES))
def test_radial_kernel_matches_mpf_sum(w, kind, b0, prec, maxdeg):
    _assert_radial_within_two_units(w, kind, b0, prec, maxdeg)


# exp(-b0 r^2 / 2) peaks far inside the support, where a quadrature step
# set by the precision alone under-resolves it (on the radius-10 ball, by
# up to 2.5e12 units). On a wide annulus the outer incomplete gamma, known to
# exp(x) 2^-G of itself (x = b0 hi^2 / 2), exceeds the entry by up to
# exp(x) hi^2 / (hi^2 - lo^2): the guard bits must cover both factors
WIDE_CASES = [(ball_reduction_weight(10.0), 24), (Weight(Annulus(0j, 9.0, 10.0), Constant(1.0)), 12),
              (Weight(Annulus(0j, 5.0, 6.0), Power(1)), 12)]


@pytest.mark.parametrize("w,maxdeg", WIDE_CASES, ids=[weight_key(w) for w, _ in WIDE_CASES])
def test_radial_wide_gaussian_supports(w, maxdeg):
    _assert_radial_within_two_units(w, "gaussian", 2.0, 128, maxdeg)


def test_radial_tables_build_no_rule(monkeypatch):
    def no_rule(*args):
        raise AssertionError("a radial table built a quadrature rule")

    monkeypatch.setattr(weight_module, "gauss_legendre", no_rule)
    for w in (UNIT_DISC, Weight(Annulus(0j, 0.5, 2.0), Power(3)), BALL):
        for kind in ("plain", "gaussian"):
            tab = mixed_moments(w, kind, 12, 128, b0=3.0)
            assert tab.path == "radial" and tab.design_degree == -1
            assert all(tab.entry(a, a) > 0 for a in range(13))


GAUSSIAN_DISC_CASES = [c for c in RADIAL_CASES
                       if c[0] in (UNIT_DISC, DISC6, DISC10) and c[1] == "gaussian"]


@pytest.mark.parametrize("w,kind,b0,prec,maxdeg", GAUSSIAN_DISC_CASES,
                         ids=map(_case_id, GAUSSIAN_DISC_CASES))
def test_radial_gaussian_disc_incomplete_gamma(w, kind, b0, prec, maxdeg):
    # mu_aa = pi (2/b0)^(a+1) gamma(a+1, b0 R^2/2), stored over R^(2a)
    tab = mixed_moments(w, kind, maxdeg, prec, b0=b0)
    R = mp.mpf(w.support.radius)
    with mp.workprec(prec + 64):
        c = 2 / mp.mpf(b0)
        for a in range(maxdeg + 1):
            exact = mp.pi * c ** (a + 1) * mp.gammainc(a + 1, 0, R * R / c) / R ** (2 * a)
            assert abs(tab.entry(a, a) - exact) <= 2 * mp.mpf(2) ** -prec * exact, a


# ----------------------------------------------------------- ball reduction

def test_ball_chord_profile():
    w = ball_reduction_weight(1.0)
    with mp.workprec(128):
        for x in (0.0, 0.3, 0.65, 0.95):
            z = mp.mpc(x, 0.2)
            exact = 2 * mp.sqrt(1 - abs(z) ** 2)
            assert abs(w.density.value(abs(z)) - exact) < mp.mpf(10) ** -10


@pytest.mark.parametrize("prec,maxdeg", [(64, 20), (128, 40), (256, 49)])
def test_ball_moment_table_full_precision(prec, maxdeg):
    # every diagonal entry within 2 ulp of 2 pi B(a+1, 3/2) at any precision
    w = ball_reduction_weight(1.0)
    tab = mixed_moments(w, "plain", maxdeg, precision_bits=prec)
    with mp.workprec(prec + 64):
        for a in range(maxdeg + 1):
            exact = 2 * mp.pi * mp.beta(a + 1, mp.mpf(3) / 2)
            assert abs(tab.raw_entry(a, a) - exact) / exact <= 2 * mp.mpf(2) ** -prec


def test_ball_mass_full_precision_non_dyadic_radius():
    # R = 0.7 is not dyadic: R^2 must be formed at the working precision
    w = ball_reduction_weight(0.7)
    tab = mixed_moments(w, "plain", 0, precision_bits=128)
    with mp.workprec(192):
        exact = 4 * mp.pi * mp.mpf(0.7) ** 3 / 3
        assert abs(tab.raw_entry(0, 0) - exact) / exact <= 16 * mp.mpf(2) ** -128


def test_ball_moment_table_beta_oracle():
    # mu_aa = 2 pi B(a+1, 3/2) for the chord weight of the unit ball
    w = ball_reduction_weight(1.0)
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    assert tab.path == "radial"
    with mp.workprec(140):
        for a in range(7):
            exact = 2 * mp.pi * mp.beta(a + 1, mp.mpf(3) / 2)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -10


def test_ball_mass_conservation():
    # plane mass of the reduced weight equals the ball volume 4 pi / 3
    w = ball_reduction_weight(1.0)
    tab = mixed_moments(w, "plain", 0, precision_bits=128)
    with mp.workprec(140):
        assert abs(tab.raw_entry(0, 0) - 4 * mp.pi / 3) < mp.mpf(10) ** -10


# ------------------------------------------------------------------ configs

def test_weight_config_density_keys():
    # the density half of each key is pinned: predict prints the keys
    recs = [
        ({"support": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
          "density": {"kind": "constant", "c": 2.0}}, "const:2.0"),
        ({"support": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
          "density": {"kind": "radial", "profile": "power:3"}}, "radial:power:3:3"),
        ({"density": {"kind": "ball3d_reduction", "R": 0.7}}, "radial:ball3d:0.7:None"),
    ]
    for rec, density_key in recs:
        w = weight_from_config(rec)
        assert weight_key(w).split("|")[0] == density_key


def test_weight_config_chi_is_constant():
    rec = {"support": {"shape": "annulus", "center": [0.0, 0.0], "inner": 0.5, "outer": 1.0},
           "density": {"kind": "radial", "profile": "chi"}}
    w = weight_from_config(rec)
    assert isinstance(w.density, Constant)
    assert w.density.c == 1.0


def test_weight_config_rejects_malformed():
    disc = {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0}
    bad = [
        {"support": disc},
        {"support": disc, "density": {"kind": "voodoo"}},
        {"support": disc, "density": {"kind": "radial", "profile": "power:-2"}},
        {"support": disc, "density": {"kind": "radial", "profile": "mystery"}},
        {"density": {"kind": "ball3d_reduction", "R": -1.0}},
        {"support": disc, "density": {"kind": "ball3d_reduction", "R": 1.0}},
        {"density": {"kind": "constant", "c": 1.0}},
    ]
    for rec in bad:
        with pytest.raises(ValueError):
            weight_from_config(rec)

