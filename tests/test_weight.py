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
    assert tab.diagonal
    with mp.workprec(150):
        r = mp.mpf(1.5)
        for a in range(21):
            exact = mp.pi * r ** (2 * a + 2) / (a + 1)
            assert abs(tab.raw_entry(a, a) - exact) / exact < mp.mpf(10) ** -30


def test_plain_disc_generic_matches_radial():
    tab = mixed_moments(flat(Disc(0j, 1.5)), "plain", 12, precision_bits=128)
    assert not tab.diagonal
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


# ------------------------------------- fixed-point kernels vs the mpc loops
#
# The 2d tables are exact fixed-point integer sums rounded once per entry.
# The references below are the plain mpc multiply-add loops they replaced,
# run at prec + 128 bits on the same rule, so any difference is rounding in
# the kernel. The rules sit below design degree to keep the loops fast; a
# same-rule comparison does not need exactness. At these sizes the mpc loops
# themselves, run at prec, miss the 4-ulp bound (8.6, 13 and 14 ulp).

def _reference_flat_table(w, rule, kind, maxdeg, b0):
    R0 = mp.mpf(bounding_radius(w.support))
    b0m = mp.mpf(b0)
    cs, zs = [], []
    for z, wt in zip(rule.nodes, rule.weights):
        val = wt * mp.mpf(weight_module._density_value(w.density, z))
        if kind == "gaussian":
            val *= mp.exp(-b0m * (mp.re(z) ** 2 + mp.im(z) ** 2) / 2)
        cs.append(val)
        zs.append(mp.mpc(z) / R0)
    mpow = [[mp.mpc(1)] * len(zs)]
    for a in range(maxdeg):
        mpow.append([p * z for p, z in zip(mpow[-1], zs)])
    rows = []
    for a in range(maxdeg + 1):
        row = []
        for b in range(a + 1):
            acc = mp.mpc(0)
            for i in range(len(zs)):
                acc += cs[i] * mpow[a][i] * mp.conj(mpow[b][i])
            row.append(mp.re(acc) if b == a else acc)
        rows.append(row)
    return rows


def _reference_polar_table(w, rule, kind, maxdeg, b0):
    R0 = mp.mpf(bounding_radius(w.support))
    b0m = mp.mpf(b0)
    T = rule.ntheta
    step = 2 * mp.pi / T
    omega = [mp.expjpi(mp.mpf(2 * t) / T) for t in range(T)]
    center = mp.mpc(rule.center)
    chat = []
    for r, rwt in zip(rule.rho, rule.rw):
        cdata = []
        for t in range(T):
            z = center + r * omega[t]
            val = rwt * step * mp.mpf(weight_module._density_value(w.density, z))
            if kind == "gaussian":
                val *= mp.exp(-b0m * (mp.re(z) ** 2 + mp.im(z) ** 2) / 2)
            cdata.append(val)
        chat.append([mp.fsum(cdata[t] * omega[(t * k) % T] for t in range(T)) for k in range(maxdeg + 1)])
    rr = [r / R0 for r in rule.rho]
    nu = [[None] * (maxdeg + 1) for _ in range(maxdeg + 1)]
    for alpha in range(maxdeg + 1):
        for beta in range(alpha + 1):
            acc = mp.mpc(0)
            for i in range(len(rr)):
                acc += rr[i] ** (alpha + beta) * chat[i][alpha - beta]
            nu[alpha][beta] = acc
            nu[beta][alpha] = mp.conj(acc)
    chat0 = center / R0
    kmat = [[math.comb(a, al) * chat0 ** (a - al) for al in range(a + 1)] for a in range(maxdeg + 1)]
    rows = []
    for a in range(maxdeg + 1):
        row = []
        for b in range(a + 1):
            acc = mp.mpc(0)
            for al in range(a + 1):
                for be in range(b + 1):
                    acc += kmat[a][al] * mp.conj(kmat[b][be]) * nu[al][be]
            row.append(mp.re(acc) if b == a else acc)
        rows.append(row)
    return rows


def _assert_kernel_matches_reference(w, rule, kind, maxdeg, prec, b0=2.0):
    flat = isinstance(rule, weight_module._FlatRule)
    kernel = weight_module._flat_table if flat else weight_module._polar_dft_table
    reference = _reference_flat_table if flat else _reference_polar_table
    with mp.workprec(prec):
        rows, _ = kernel(w, rule, kind, maxdeg, prec, b0)
    with mp.workprec(prec + 128):
        ref = reference(w, rule, kind, maxdeg, b0)
        bound = 4 * mp.mpf(2) ** -prec
        for a in range(maxdeg + 1):
            assert mp.im(rows[a][a]) == 0
            for b in range(a + 1):
                scale = mp.sqrt(abs(ref[a][a]) * abs(ref[b][b]))
                assert abs(rows[a][b] - ref[a][b]) <= bound * scale, (a, b)


def test_flat_kernel_gaussian_side3_square():
    # corner nodes carry exp(-4.5) of the centre's Gaussian factor, and the
    # collapsed-square map shrinks weights near each apex
    sq = Polygon((-1.5 - 1.5j, 1.5 - 1.5j, 1.5 + 1.5j, -1.5 + 1.5j))
    w = Weight(sq, Constant(1.0))
    rule = weight_module._build_rule(sq, 24, 128)
    _assert_kernel_matches_reference(w, rule, "gaussian", 12, 128)


def test_polar_kernel_gaussian_offcenter_disc():
    w = Weight(Disc(0.7 + 0j, 1.0), Constant(1.0))
    rule = weight_module._build_rule(w.support, 40, 128)
    _assert_kernel_matches_reference(w, rule, "gaussian", 12, 128)


def test_polar_kernel_plain_offcenter_disc_64_bits():
    w = Weight(Disc(0.6 - 0.5j, 1.0), Constant(1.0))
    rule = weight_module._build_rule(w.support, 32, 64)
    _assert_kernel_matches_reference(w, rule, "plain", 16, 64)


def test_flat_kernel_signed_node_values():
    # a negative node value must flip its conjugate factor, not vanish
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    with mp.workprec(128):
        nodes = [mp.mpc(0.3, 0.1), mp.mpc(-0.5, 0.4), mp.mpc(0.2, -0.7), mp.mpc(-0.1, -0.2)]
        weights = [mp.mpf(1), mp.mpf(-0.5), mp.mpf(2), mp.mpf(-1.25)]
    rule = weight_module._FlatRule(nodes, weights)
    _assert_kernel_matches_reference(w, rule, "plain", 3, 128)


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
    assert tab.diagonal
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
