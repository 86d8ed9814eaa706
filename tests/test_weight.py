"""Weights, boundary rules and moment tables against independent closed forms.

Oracle values are classical integrals: disc moments pi r^(2a+2)/(a+1),
Gaussian disc moments via the lower incomplete gamma, separable square
moments via binomial expansion, polar integrals of |z|, and chord integrals
of the solid ball.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import landaucap.weight as weight_module
from landaucap.errors import DegenerateMomentError, NonConvergenceError
from landaucap.region import Annulus, Disc, Polygon, UnionRegion, bounding_radius
from landaucap._mp import _legendre_node, fixed_bits, gauss_legendre, map_rule, tanh_sinh
from landaucap.weight import (
    Chord,
    Constant,
    MomentTable,
    Power,
    UNION_MSG,
    Weight,
    ball_reduction_weight,
    emission_digits,
    mixed_moments,
    weight_from_config,
    weight_key,
    _gaussian_excess,
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


TS_PRECS = [64, 128, 256, 512]


@pytest.mark.parametrize("prec", TS_PRECS)
def test_tanh_sinh_is_exactly_antisymmetric(prec):
    tanh_sinh.cache_clear()
    pairs = tanh_sinh(prec)
    assert len(pairs) % 2 == 1 and pairs[len(pairs) // 2][0] == 0
    for (x, w), (y, v) in zip(pairs, pairs[::-1]):
        assert x == mp.fneg(y, exact=True) and w == v


@pytest.mark.parametrize("prec", TS_PRECS)
def test_tanh_sinh_matches_the_tanh_cosh_formulas(prec):
    # reference: x = tanh(u), w = h pi/2 cosh(t) / cosh(u)^2, u = pi/2 sinh(t),
    # at 60 bits past the precision
    pairs = tanh_sinh(prec)
    m = 5 if prec <= 150 else 6 if prec <= 300 else 7
    kmax = len(pairs) // 2
    with mp.workprec(prec + 60):
        h = mp.mpf(2) ** -m
        tol = mp.mpf(2) ** -(prec + 20)
        for (x, w), k in zip(pairs, range(-kmax, kmax + 1)):
            t = k * h
            u = mp.pi / 2 * mp.sinh(t)
            assert abs(x - mp.tanh(u)) <= tol, k
            assert abs(w - h * mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2) <= tol, k


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
    with mp.workprec(140):
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


def test_gaussian_excess_floor_and_growth():
    assert _gaussian_excess(2.0, 1.0, 128) >= 30
    assert _gaussian_excess(2.0, 3.0, 128) > _gaussian_excess(2.0, 1.0, 128)
    assert _gaussian_excess(2.0, 1.0, 256) > _gaussian_excess(2.0, 1.0, 128)


# -------------------------------------------------------- table structure

def test_hermitian_mirror_exact():
    w = Weight(Disc(0.4 - 0.3j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    with mp.workprec(140):
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


def _reference_table(w, rule, kind, maxdeg, b0):
    R0 = mp.mpf(bounding_radius(w.support))
    beta = mp.mpf(b0) / 2 if kind == "gaussian" else mp.mpf(0)
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
        row[a] = mp.re(row[a])
        rows.append(row)
    return rows


def _assert_within_units(rows, ref, maxdeg, prec, units=4):
    with mp.workprec(prec + 128):
        bound = units * mp.mpf(2) ** -prec
        for a in range(maxdeg + 1):
            assert mp.im(rows[a][a]) == 0
            for b in range(a + 1):
                scale = mp.sqrt(abs(ref[a][a]) * abs(ref[b][b]))
                assert abs(rows[a][b] - ref[a][b]) <= bound * scale, (a, b)


def _assert_kernel_matches_reference(w, rule, kind, maxdeg, prec, b0=2.0):
    with mp.workprec(prec):
        rows, _ = weight_module._gram_table(w, rule, kind, maxdeg, prec, b0)
    with mp.workprec(prec + 128):
        ref = _reference_table(w, rule, kind, maxdeg, b0)
    _assert_within_units(rows, ref, maxdeg, prec)


def _boundary_rule(w, kind, maxdeg, prec, extra=0):
    """The boundary rule mixed_moments builds, extra degrees past design."""
    k = weight_module._power(w.density)
    degree = 2 * maxdeg + 1 + k + extra
    if kind == "gaussian":
        degree += _gaussian_excess(2.0, bounding_radius(w.support), prec)
    return weight_module._build_rule(w.support, degree, prec, k)


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
def test_boundary_kernel_matches_mpc_sum(support, density, kind, maxdeg, prec):
    w = Weight(support, density)
    _assert_kernel_matches_reference(w, _boundary_rule(w, kind, maxdeg, prec), kind, maxdeg, prec)


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
    # the trapezoid rule at design degree against 40 more degrees at +128 bits
    w = Weight(Disc(0.7 + 0j, 1.0), Constant(1.0))
    tab = mixed_moments(w, "gaussian", 24, precision_bits=128)
    rule = _boundary_rule(w, "gaussian", 24, 256, extra=40)
    with mp.workprec(256):
        ref, _ = weight_module._gram_table(w, rule, "gaussian", 24, 256, 2.0)
    _assert_within_units(tab.rows, ref, 24, 128)


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


def test_flat_kernel_gaussian_side3_square():
    # an odd power: node values follow |z| along the edges
    w = Weight(SIDE3_SQUARE, POWER1)
    _assert_kernel_matches_reference(w, _boundary_rule(w, "gaussian", 12, 128), "gaussian", 12, 128)


def test_flat_kernel_signed_node_values():
    # steps of either sign in both parts enter with their signs
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with mp.workprec(128):
        nodes = [mp.mpc(0.3, 0.1), mp.mpc(-0.5, 0.4), mp.mpc(0.2, -0.7), mp.mpc(-0.1, -0.2)]
        steps = [mp.mpc(1, -0.25), mp.mpc(-0.5, 0.5), mp.mpc(2, 0), mp.mpc(-1.25, -3)]
    rule = weight_module._Rule(nodes, steps)
    _assert_kernel_matches_reference(w, rule, "plain", 3, 128)


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
    _assert_within_units(p2.rows, ref, 8, 128)


def test_odd_power_on_a_circle_through_the_origin_raises():
    # the last circle misses 0 by 1e-9, which would take ~1e11 nodes
    for support in (Disc(1 + 0j, 1.0), Annulus(0.5j, 0.5, 1.0), Disc(1 + 1e-9 + 0j, 1.0)):
        with pytest.raises(NonConvergenceError, match="odd power"):
            mixed_moments(Weight(support, POWER1), "plain", 2, 64)


# --------------------------------------------- radial kernel vs the mpf sum
#
# Radial tables are exact fixed-point integer sums rounded once per entry.
# The reference sums the same rule in mpf at prec + 128 bits, so any
# difference is rounding in the kernel. Units are 2^-prec of the entry.

UNIT_DISC, DISC6, DISC10 = (Weight(Disc(0j, R), Constant(1.0)) for R in (1.0, 6.0, 10.0))
POWER2_ANNULUS = Weight(Annulus(0j, 0.5, 2.0), Power(2))
BALL = ball_reduction_weight(1.0)
# (kind, b0, prec, maxdeg): the parity of maxdeg sets that of the node count
FULL_GRID = [("plain", 2.0, 128, 48), ("plain", 2.0, 256, 49), ("gaussian", 2.0, 128, 49),
             ("gaussian", 2.0, 256, 48), ("gaussian", 3.0, 128, 48), ("gaussian", 3.0, 256, 49)]
RADIAL_CASES = [(w, *case) for w in (UNIT_DISC, DISC6, DISC10, POWER2_ANNULUS, BALL)
                for case in FULL_GRID]


def _case_id(case):
    w, kind, b0, prec, maxdeg = case
    return f"{weight_key(w)}-{kind}-{b0}-{prec}-{maxdeg}"


def _radial_reference(w, kind, maxdeg, prec, b0):
    xs, ws, _ = weight_module._radial_rule(w, kind, maxdeg, prec, b0)
    lo, hi = weight_module._radial_interval(w.support)
    R0 = mp.mpf(bounding_radius(w.support))
    rho, rw = map_rule(xs, ws, lo, hi)
    g = (lambda r: mp.exp(-mp.mpf(b0) * r * r / 2)) if kind == "gaussian" else (lambda r: 1)
    data = [2 * mp.pi * wt * r * w.density.value(r) * g(r) for r, wt in zip(rho, rw)]
    ratio = [(r / R0) ** 2 for r in rho]
    sums = []
    for _ in range(maxdeg + 1):
        sums.append(mp.fsum(data))
        data = [x * q for x, q in zip(data, ratio)]
    return sums


@pytest.mark.parametrize("w,kind,b0,prec,maxdeg", RADIAL_CASES, ids=map(_case_id, RADIAL_CASES))
def test_radial_kernel_matches_mpf_sum(w, kind, b0, prec, maxdeg):
    tab = mixed_moments(w, kind, maxdeg, precision_bits=prec, b0=b0)
    assert tab.path == "radial"
    with mp.workprec(prec + 128):
        ref = _radial_reference(w, kind, maxdeg, prec, b0)
        for a in range(maxdeg + 1):
            assert all(tab.entry(a, b) == 0 for b in range(a))
            assert abs(tab.entry(a, a) - ref[a]) <= 2 * mp.mpf(2) ** -prec * ref[a], a


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


def test_emission_digits():
    assert emission_digits(128) == 39
    assert emission_digits(256) == 77
