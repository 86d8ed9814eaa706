"""Weights, quadrature and moment tables against independent closed forms.

Oracle values are classical integrals: disc moments pi r^(2a+2)/(a+1),
Gaussian disc moments via the lower incomplete gamma, separable square
moments via binomial expansion, and chord integrals of the solid ball.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import landaucap.weight as weight_module
from landaucap.errors import DegenerateMomentError
from landaucap.region import Annulus, Disc, Polygon, UnionRegion, bounding_radius
from landaucap.weight import (
    Constant,
    Generic,
    MomentTable,
    Radial,
    UNION_MSG,
    Weight,
    ball_reduction_weight,
    emission_digits,
    mixed_moments,
    quadrature,
    weight_from_config,
    weight_key,
    weight_to_config,
    _gaussian_excess,
)

L_SHAPE = Polygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))


def flat(support):
    """The constant weight 1 as a Generic density, which takes the 2d path."""
    return Weight(support, Generic(lambda z: 1.0 + 0 * abs(z), label="flat"))


def quad_sum(support, degree, f, prec=128):
    nodes, weights = quadrature(support, degree, prec)
    with mp.workprec(prec):
        return mp.fsum(w * f(z) for z, w in zip(nodes, weights))


# ---------------------------------------------------------------- quadrature

def test_disc_area_exact():
    with mp.workprec(128):
        got = quad_sum(Disc(0.2 - 0.1j, 1.3), 0, lambda z: mp.mpf(1))
        area = mp.pi * mp.mpf(1.3) ** 2
        assert abs(got - area) / area < mp.mpf(10) ** -35


def test_disc_second_moment():
    # int |z|^2 over unit disc = pi/2
    with mp.workprec(128):
        got = quad_sum(Disc(0j, 1.0), 2, lambda z: abs(z) ** 2)
        assert abs(got - mp.pi / 2) < mp.mpf(10) ** -35


def test_annulus_area():
    with mp.workprec(128):
        got = quad_sum(Annulus(0j, 0.5, 1.25), 0, lambda z: mp.mpf(1))
        area = mp.pi * (mp.mpf(1.25) ** 2 - mp.mpf(0.5) ** 2)
        assert abs(got - area) / area < mp.mpf(10) ** -35


def test_square_monomial():
    # int x^2 y^2 over [0,1]^2 = 1/9; degree-4 integrand
    sq = Polygon((0j, 1 + 0j, 1 + 1j, 1j))
    with mp.workprec(128):
        got = quad_sum(sq, 4, lambda z: mp.re(z) ** 2 * mp.im(z) ** 2)
        assert abs(got - mp.mpf(1) / 9) < mp.mpf(10) ** -36


def test_triangle_centroid():
    tri = Polygon((0j, 2 + 0j, 1j))
    with mp.workprec(128):
        area = quad_sum(tri, 0, lambda z: mp.mpf(1))
        assert abs(area - 1) < mp.mpf(10) ** -36
        # int x = area * centroid_x = 1 * (0 + 2 + 0)/3
        mx = quad_sum(tri, 1, lambda z: mp.re(z))
        assert abs(mx - mp.mpf(2) / 3) < mp.mpf(10) ** -36


def test_l_shape_area():
    with mp.workprec(128):
        got = quad_sum(L_SHAPE, 0, lambda z: mp.mpf(1))
        assert abs(got - 3) < mp.mpf(10) ** -35


def test_union_quadrature_disjoint():
    u = UnionRegion((Disc(0j, 1.0), Disc(5 + 0j, 0.5)))
    with mp.workprec(128):
        got = quad_sum(u, 0, lambda z: mp.mpf(1))
        area = mp.pi * (1 + mp.mpf(0.25))
        assert abs(got - area) / area < mp.mpf(10) ** -35


def test_union_quadrature_rejects_overlap():
    u = UnionRegion((Disc(0j, 1.0), Disc(1 + 0j, 1.0)))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        quadrature(u, 2, 128)


def test_quadrature_degree_validation():
    with pytest.raises(ValueError):
        quadrature(Disc(0j, 1.0), -1, 128)


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
    tab = mixed_moments(flat(Disc(0j, 1.5)), "plain", 12, precision_bits=128)
    assert tab.path == "area"
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
    w = Weight(Disc(0j, 1.0), Radial(lambda r: r ** 4, poly_degree=4, label="power:4"))
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
    t2 = mixed_moments(flat(w.support), "gaussian", 10, precision_bits=128, b0=2.0)
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


def test_default_precision_rule():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    assert mixed_moments(w, "plain", 24).precision_bits == 128
    assert mixed_moments(w, "plain", 25).precision_bits == 256


def test_mixed_moments_validation():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with pytest.raises(ValueError):
        mixed_moments(w, "weird", 4)
    with pytest.raises(ValueError):
        mixed_moments(w, "plain", -1)


def test_degenerate_weight_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        Weight(Disc(0j, 1.0), Constant(0.0))
    with pytest.raises(ValueError, match="degenerate"):
        Weight(Disc(0j, 1.0), Generic(lambda z: 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        Weight(Disc(0j, 1.0), Generic(lambda z: -1.0))


@settings(max_examples=12, deadline=None)
@given(
    radius=st.floats(min_value=0.3, max_value=2.0),
    maxdeg=st.integers(min_value=0, max_value=6),
)
def test_radial_generic_agreement_property(radius, maxdeg):
    w = Weight(Disc(0j, radius), Constant(1.0))
    t1 = mixed_moments(w, "plain", maxdeg, precision_bits=128)
    t2 = mixed_moments(flat(w.support), "plain", maxdeg, precision_bits=128)
    with mp.workprec(140):
        for a in range(maxdeg + 1):
            d = abs(t1.entry(a, a) - t2.entry(a, a)) / t1.entry(a, a)
            assert d < mp.mpf(10) ** -25


# ------------------------------------- fixed-point kernel vs the mpc loops
#
# Boundary and area tables are exact fixed-point integer sums rounded once
# per entry. The references below are plain mpc multiply-add loops over the
# same rule at prec + 128 bits, with S_b from mpmath's incomplete gamma, so
# any difference is rounding in the kernel. Units are 2^-prec sqrt(G_aa G_bb).

def _s_reference(b, x):
    """int_0^1 t^b exp(-x t) dt = gamma(b + 1, x) / x^(b + 1)."""
    return mp.gammainc(b + 1, 0, x) / x ** (b + 1) if x else mp.mpf(1) / (b + 1)


def _reference_table(w, rule, kind, maxdeg, b0):
    R0 = mp.mpf(bounding_radius(w.support))
    beta = mp.mpf(b0) / 2 if kind == "gaussian" else mp.mpf(0)
    zs = [mp.mpc(z) for z in rule.nodes]
    us = [z / R0 for z in zs]
    if rule.boundary:
        k = mp.mpf(w.density.c) * R0 / mp.mpc(0, 2)
        xs = [k * dz for dz in rule.weights]
        ys = [[_s_reference(b, beta * abs(z) ** 2) * u ** (b + 1) for z, u in zip(zs, us)]
              for b in range(maxdeg + 1)]
    else:
        xs = [wt * mp.mpf(weight_module._density_value(w.density, z)) * mp.exp(-beta * abs(z) ** 2)
              for z, wt in zip(zs, rule.weights)]
        ys = [[u ** b for u in us] for b in range(maxdeg + 1)]
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
    degree = 2 * maxdeg + 1 + extra
    if kind == "gaussian":
        degree += _gaussian_excess(2.0, bounding_radius(w.support), prec)
    return weight_module._build_rule(w.support, degree, prec, boundary=True)


SIDE3_SQUARE = Polygon((-1.5 - 1.5j, 1.5 - 1.5j, 1.5 + 1.5j, -1.5 + 1.5j))


@pytest.mark.parametrize("support,kind,maxdeg,prec", [
    (Disc(0.7 + 0j, 1.0), "gaussian", 12, 128),
    # corner nodes carry exp(-4.5) of the centre's Gaussian factor
    (SIDE3_SQUARE, "gaussian", 12, 128),
    (Disc(0.6 - 0.5j, 1.0), "plain", 16, 64),
    (Annulus(0.3j, 0.4, 1.0), "gaussian", 12, 128),
])
def test_boundary_kernel_matches_mpc_sum(support, kind, maxdeg, prec):
    w = Weight(support, Constant(1.0))
    _assert_kernel_matches_reference(w, _boundary_rule(w, kind, maxdeg, prec), kind, maxdeg, prec)


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
    # area rule: the collapsed-square map shrinks weights near each apex
    w = flat(SIDE3_SQUARE)
    rule = weight_module._build_rule(SIDE3_SQUARE, 24, 128)
    _assert_kernel_matches_reference(w, rule, "gaussian", 12, 128)


def test_flat_kernel_signed_node_values():
    # a negative node value enters with its sign
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with mp.workprec(128):
        nodes = [mp.mpc(0.3, 0.1), mp.mpc(-0.5, 0.4), mp.mpc(0.2, -0.7), mp.mpc(-0.1, -0.2)]
        weights = [mp.mpf(1), mp.mpf(-0.5), mp.mpf(2), mp.mpf(-1.25)]
    rule = weight_module._Rule(nodes, weights)
    _assert_kernel_matches_reference(w, rule, "plain", 3, 128)


# -------------------------------------------------------------- table paths

POWER1 = Radial(lambda r: r, poly_degree=1, label="power:1")


@pytest.mark.parametrize("w,path", [
    (Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), "boundary"),
    (Weight(SIDE3_SQUARE, Constant(2.0)), "boundary"),
    (Weight(UnionRegion((Disc(-2 + 0j, 0.75), Disc(2 + 0j, 1.0))), Constant(1.0)), "boundary"),
    (flat(Disc(0j, 1.0)), "area"),
    (Weight(Disc(0.7 + 0j, 1.0), POWER1), "area"),
    (Weight(Disc(0j, 1.0), POWER1), "radial"),
    (ball_reduction_weight(1.0), "radial"),
])
def test_table_names_its_path(w, path):
    assert mixed_moments(w, "plain", 2, 64).path == path


def test_constant_tables_build_no_area_rule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("area rule built for a constant density")

    monkeypatch.setattr(weight_module, "_triangle_rule", refuse)
    monkeypatch.setattr(weight_module, "_polar", refuse)
    for support in (Disc(0.7 + 0j, 1.0), Annulus(0.3j, 0.4, 1.0), L_SHAPE,
                    UnionRegion((L_SHAPE, Disc(5 + 0j, 1.0)))):
        for kind in ("plain", "gaussian"):
            assert mixed_moments(Weight(support, Constant(1.0)), kind, 4, 64).path == "boundary"


@pytest.mark.xfail(strict=True, reason="the area rule's 48-degree margin cannot resolve the "
                                       "cone |z| at the origin inside an off-centre disc")
def test_power1_offcenter_mass():
    # polar coordinates about 0: the disc's edge lies at rho(theta), and
    # int |z| dA = int rho(theta)^3 / 3 dtheta
    tab = mixed_moments(Weight(Disc(0.7 + 0j, 1.0), POWER1), "plain", 4, 128)
    with mp.workprec(160):
        def rho(t):
            return mp.mpf(0.7) * mp.cos(t) + mp.sqrt(mp.mpf(0.51) + mp.mpf(0.49) * mp.cos(t) ** 2)

        exact = mp.quad(lambda t: rho(t) ** 3 / 3, [0, mp.pi, 2 * mp.pi])
        assert abs(tab.raw_entry(0, 0) - exact) < mp.mpf(10) ** -30


# ----------------------------------------------------------- ball reduction

def test_ball_chord_profile():
    w = ball_reduction_weight(1.0)
    with mp.workprec(128):
        for x in (0.0, 0.3, 0.65, 0.95):
            z = mp.mpc(x, 0.2)
            exact = 2 * mp.sqrt(1 - abs(z) ** 2)
            assert abs(w.density.profile(abs(z)) - exact) < mp.mpf(10) ** -10


@pytest.mark.parametrize("prec,maxdeg", [(64, 20), (128, 40), (256, 49)])
def test_ball_moment_table_full_precision(prec, maxdeg):
    # every diagonal entry within 16 ulp of 2 pi B(a+1, 3/2) at any precision
    w = ball_reduction_weight(1.0)
    tab = mixed_moments(w, "plain", maxdeg, precision_bits=prec)
    with mp.workprec(prec + 64):
        for a in range(maxdeg + 1):
            exact = 2 * mp.pi * mp.beta(a + 1, mp.mpf(3) / 2)
            assert abs(tab.raw_entry(a, a) - exact) / exact <= 16 * mp.mpf(2) ** -prec


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

def test_weight_config_round_trips():
    recs = [
        {"support": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
         "density": {"kind": "constant", "c": 2.0}},
        {"support": {"shape": "disc", "center": [0.0, 0.0], "radius": 1.0},
         "density": {"kind": "radial", "profile": "power:3"}},
        {"density": {"kind": "ball3d_reduction", "R": 1.0}},
    ]
    for rec in recs:
        w = weight_from_config(rec)
        back = weight_to_config(w)
        w2 = weight_from_config(back)
        assert weight_key(w2) == weight_key(w)


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
