"""Monic orthogonalization against exactly solvable weights.

Closed forms used as oracles: a disc of radius r has M_n = pi r^(2n+2)/(n+1)
wherever it is centred; scaling multiplies M_n by alpha^(2n+2); degree-1
norms follow from the 2x2 Gram determinant ratio.
"""

import math

import pytest
from mpmath import mp

from landaucap._mp import hermitian_cholesky
from landaucap.errors import DegenerateMomentError
from landaucap.region import Annulus, Disc, Polygon, capacity_known
from landaucap.weight import (
    Constant,
    MomentTable,
    Power,
    Weight,
    mixed_moments,
)
from landaucap.orthopoly import monic_orthogonalize, rho_estimates

UNIT_SQUARE = Polygon((0j, 1 + 0j, 1 + 1j, 1j))


def disc_basis(radius=1.0, center=0j, maxdeg=12, prec=128):
    w = Weight(Disc(center, radius), Constant(1.0))
    return monic_orthogonalize(mixed_moments(w, "plain", maxdeg, precision_bits=prec))


def square_basis(side=1.0, maxdeg=10, prec=128):
    sq = Polygon((0j, complex(side, 0), complex(side, side), complex(0, side)))
    w = Weight(sq, Constant(1.0))
    return monic_orthogonalize(mixed_moments(w, "plain", maxdeg, precision_bits=prec))


# ------------------------------------------------------------ closed forms

def test_disc_minimal_norms_closed_form():
    # the centred disc takes the radial path, the off-centre one the boundary path
    for radius, center, maxdeg in ((1.5, 0j, 20), (1.0, 0.45 + 0.2j, 10)):
        basis = disc_basis(radius=radius, center=center, maxdeg=maxdeg)
        assert basis.source.path == ("radial" if center == 0 else "boundary")
        with mp.workprec(140):
            r = mp.mpf(radius)
            for n in range(maxdeg + 1):
                exact = mp.pi * r ** (2 * n + 2) / (n + 1)
                got = mp.exp(basis.log_norms[n])
                assert abs(got - exact) / exact < mp.mpf(10) ** -15


def test_disc_minimizers_are_monomials():
    # the centred disc's Gram matrix is diagonal, so the minimizers are the
    # monomials and each pivot M_n is the diagonal moment itself
    basis = disc_basis(radius=1.5, maxdeg=12)
    tab = basis.source
    with mp.workprec(140):
        for a in range(13):
            for b in range(a):
                assert tab.entry(a, b) == 0
            exact = mp.log(tab.raw_entry(a, a))
            assert abs(basis.log_norms[a] - exact) < mp.mpf(10) ** -30


def test_mass_is_degree_zero_norm():
    w = Weight(Disc(0.3 + 0.7j, 1.1), Constant(1.0))
    tab = mixed_moments(w, "plain", 4, precision_bits=128)
    basis = monic_orthogonalize(tab)
    with mp.workprec(140):
        assert abs(mp.exp(basis.log_norms[0]) - tab.raw_entry(0, 0)) < mp.mpf(10) ** -35


def test_shifted_disc_degree_one():
    # M_1 = pi r^4 / 2; oracle via the Gram determinant ratio
    a = 0.6 - 0.25j
    w = Weight(Disc(a, 1.0), Constant(1.0))
    tab = mixed_moments(w, "plain", 6, precision_bits=128)
    basis = monic_orthogonalize(tab)
    with mp.workprec(140):
        det_ratio = (tab.raw_entry(0, 0) * tab.raw_entry(1, 1) - abs(tab.raw_entry(1, 0)) ** 2) / tab.raw_entry(0, 0)
        got = mp.exp(basis.log_norms[1])
        assert abs(got - det_ratio) / det_ratio < mp.mpf(10) ** -30
        assert abs(got - mp.pi / 2) / (mp.pi / 2) < mp.mpf(10) ** -30


def test_scaling_covariance_radial_and_generic():
    with mp.workprec(140):
        b1 = disc_basis(radius=1.0, maxdeg=15)
        b2 = disc_basis(radius=2.0, maxdeg=15)
        for n in range(16):
            ratio = mp.exp(b2.log_norms[n] - b1.log_norms[n])
            assert abs(ratio - 2 ** (2 * n + 2)) / 2 ** (2 * n + 2) < mp.mpf(10) ** -12
        s1 = square_basis(side=1.0, maxdeg=8)
        s2 = square_basis(side=2.0, maxdeg=8)
        for n in range(9):
            ratio = mp.exp(s2.log_norms[n] - s1.log_norms[n])
            assert abs(ratio - 2 ** (2 * n + 2)) / 2 ** (2 * n + 2) < mp.mpf(10) ** -12


def test_density_scaling_linearity():
    w1 = Weight(Disc(0.2 + 0.1j, 1.0), Constant(1.0))
    w2 = Weight(Disc(0.2 + 0.1j, 1.0), Constant(2.0))
    b1 = monic_orthogonalize(mixed_moments(w1, "plain", 8, precision_bits=128))
    b2 = monic_orthogonalize(mixed_moments(w2, "plain", 8, precision_bits=128))
    with mp.workprec(140):
        for n in range(9):
            assert abs(mp.exp(b2.log_norms[n] - b1.log_norms[n]) - 2) < mp.mpf(10) ** -25


def test_support_monotonicity():
    b_small = disc_basis(radius=1.0, maxdeg=10)
    b_big = disc_basis(radius=1.2, maxdeg=10)
    for n in range(11):
        assert b_small.log_norms[n] < b_big.log_norms[n]


def test_translation_covariance_of_minimizers():
    # p(z - a) is monic whenever p is, so translation leaves every M_n alone
    base = square_basis(maxdeg=10)
    a = 0.5 - 0.25j  # dyadic, so the moved vertices are exact
    moved = Polygon(tuple(v + a for v in UNIT_SQUARE.vertices))
    w = Weight(moved, Constant(1.0))
    shifted = monic_orthogonalize(mixed_moments(w, "plain", 10, precision_bits=128))
    for n in range(11):
        assert abs(shifted.log_norms[n] - base.log_norms[n]) < mp.mpf(10) ** -20


def test_trivial_degree_step_bound():
    # M_{n+1} <= R0^2 M_n, in log domain with tiny slack
    cases = [
        disc_basis(center=0.5 + 0.1j, maxdeg=10),
        square_basis(maxdeg=10),
        monic_orthogonalize(
            mixed_moments(Weight(Annulus(0j, 0.5, 1.0), Constant(1.0)), "plain", 10, precision_bits=128)
        ),
    ]
    with mp.workprec(140):
        for basis in cases:
            log_r02 = 2 * mp.log(basis.source.scale_radius)
            for n in range(basis.maxdeg):
                assert basis.log_norms[n + 1] <= basis.log_norms[n] + log_r02 + mp.mpf(10) ** -18


def _mpc_cholesky_log_pivots(rows, prec):
    """The earlier kernel, kept as the reference: the full Hermitian matrix
    from its lower triangle, factored by an mpc loop that rounds after every
    multiply-subtract."""
    n = len(rows)
    with mp.workprec(prec):
        g = [[rows[a][b] if b <= a else mp.conj(rows[b][a]) for b in range(n)] for a in range(n)]
        L = [[mp.mpc(0)] * n for _ in range(n)]
        logs = []
        for i in range(n):
            for j in range(i + 1):
                s = g[i][j]
                for k in range(j):
                    s -= L[i][k] * mp.conj(L[j][k])
                if i == j:
                    piv = mp.re(s)
                    L[i][i] = mp.sqrt(piv)
                    logs.append(mp.log(piv))
                else:
                    L[i][j] = s / L[j][j]
        return logs


CENTRED_SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))
TRIANGLE = Polygon((0j, 1 + 0j, complex(0.5, math.sqrt(3) / 2)))


@pytest.mark.parametrize("support, density, kind", [
    (CENTRED_SQUARE, Constant(1.0), "plain"),
    (TRIANGLE, Constant(1.0), "plain"),
    (UNIT_SQUARE, Constant(1.0), "plain"),
    (Disc(0.7 + 0j, 1.0), Power(1), "plain"),
    (Disc(0.7 + 0j, 1.0), Constant(1.0), "gaussian"),
])
def test_cholesky_log_pivots_match_the_mpc_loop(support, density, kind):
    # against the mpc loop at p + 128 bits on the same table, the log pivots
    # err by at most twice the loop's own worst error at p
    N, p = 24, 128
    rows = mixed_moments(Weight(support, density), kind, N, p).rows
    got = hermitian_cholesky(rows, p)
    ref = _mpc_cholesky_log_pivots(rows, p + 128)
    loop = _mpc_cholesky_log_pivots(rows, p)
    assert len(got) == N + 1
    with mp.workprec(p + 128):
        worst = max(abs(a - b) for a, b in zip(got, ref))
        worst_loop = max(abs(a - b) for a, b in zip(loop, ref))
    assert worst <= 2 * worst_loop


def test_square_table_is_factored_once(monkeypatch):
    # the Cholesky of monic_orthogonalize is the plain table's only check
    from landaucap import _mp

    sizes = []

    def counting(g, prec):
        sizes.append(len(g))
        return _mp.hermitian_cholesky(g, prec)

    for mod in ("landaucap.weight", "landaucap.orthopoly"):
        monkeypatch.setattr(f"{mod}.hermitian_cholesky", counting, raising=False)
    square_basis(maxdeg=10)
    assert sizes == [11]


# --------------------------------------------------------------- sequences

def test_rho_sequence_disc_values():
    w = Weight(Disc(0j, 1.0), Constant(1.0))
    basis = monic_orthogonalize(mixed_moments(w, "plain", 40, precision_bits=256))
    est = rho_estimates(basis, 1)
    with mp.workprec(140):
        # closed form M_n^(1/n) = (pi/(n+1))^(1/n); check the endpoint n=40
        exact = (mp.pi / 41) ** (mp.mpf(1) / 40)
        assert abs(est.sequence[-1] - exact) / exact < mp.mpf(10) ** -20
        assert est.rho_minus_hat <= est.rho_plus_hat
        # extrapolated limit r^2 = 1 within 1%
        assert abs(est.extrapolated - 1) < 0.01
        assert est.window == (1, 40)


def test_rho_estimates_validation():
    basis = disc_basis(maxdeg=8)
    with pytest.raises(ValueError):
        rho_estimates(basis, 0)
    with pytest.raises(ValueError):
        rho_estimates(basis, 8)
    with pytest.raises(ValueError, match="window"):
        rho_estimates(basis, 1)  # tail of ceil(7/3) = 3 points is too small


def test_rho_envelope_vs_capacity_bounds():
    # extrapolated rho within 5% of the squared capacity of the support
    w = Weight(Disc(0j, 1.3), Constant(1.0))
    basis = monic_orthogonalize(mixed_moments(w, "plain", 32, precision_bits=256))
    est = rho_estimates(basis, 1)
    cap2 = mp.mpf(capacity_known(w.support)) ** 2
    with mp.workprec(100):
        assert est.extrapolated <= (1 + 0.05) * cap2
        assert est.extrapolated >= (1 - 0.05) * cap2


# ----------------------------------------------------------- degenerate path

def test_degenerate_moment_matrix_message():
    one = mp.mpf(1)
    rank_deficient = MomentTable(
        maxdeg=1, precision_bits=128, scale_radius=one,
        rows=[[one], [mp.mpc(1), one]], path="boundary", weight_key="synthetic",
        design_degree=2,
    )
    with pytest.raises(DegenerateMomentError, match="degree 1"):
        monic_orthogonalize(rank_deficient)
    zero_diag = MomentTable(
        maxdeg=1, precision_bits=128, scale_radius=one,
        rows=[[one], [mp.mpf(0), mp.mpf(0)]], path="radial", weight_key="synthetic",
        design_degree=2,
    )
    with pytest.raises(DegenerateMomentError, match="degree 1"):
        monic_orthogonalize(zero_diag)
