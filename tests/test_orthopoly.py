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
from landaucap.region import Annulus, Disc, Polygon, UnionRegion, capacity_known
from landaucap.weight import (
    Constant,
    MomentTable,
    Power,
    Weight,
    _boundary_guard,
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


def _fdot_cholesky_log_pivots(rows, prec, stride):
    """The mp.fdot kernel hermitian_cholesky replaced, kept as its bit-level
    reference: per residue class of stride, each entry is one fdot of g_nk
    and the products -L_nj conj(L_kj), exact, with the sum rounded once to
    prec; L_nk is that sum over L_kk, and d_n its real part."""
    L, logs = [], []
    with mp.workprec(prec):
        for n, row in enumerate(rows):
            Ln, neg = [], []
            for k in range(n % stride, n + 1, stride):
                prev = L[k] if k < n else Ln
                s = mp.fdot([(row[k], mp.one)] + list(zip(neg, prev)), conjugate=True)
                if k == n:
                    d = mp.re(s)
                    if not d > 0:
                        raise DegenerateMomentError(
                            f"non-positive pivot at degree {n}; raise precision or lower N")
                    logs.append(mp.log(d))
                    Ln.append(mp.sqrt(d))
                else:
                    Ln.append(s / L[k][-1])
                    neg.append(-Ln[-1])
            L.append(Ln)
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
    table = mixed_moments(Weight(support, density), kind, N, p)
    rows = table.rows
    got = hermitian_cholesky(rows, p, table.stride)
    ref = _mpc_cholesky_log_pivots(rows, p + 128)
    loop = _mpc_cholesky_log_pivots(rows, p)
    assert len(got) == N + 1
    with mp.workprec(p + 128):
        worst = max(abs(a - b) for a, b in zip(got, ref))
        worst_loop = max(abs(a - b) for a, b in zip(loop, ref))
    assert worst <= 2 * worst_loop


RECTANGLE = Polygon((-1 - 0.5j, 1 - 0.5j, 1 + 0.5j, -1 + 0.5j))
OFFCENTRE_ANNULUS = Annulus(0.5 + 0j, 0.3, 1.0)
TWO_DISCS = UnionRegion((Disc(-0.6 + 0j, 0.5), Disc(0.6 + 0.2j, 0.4)))
TINY_DISC = Disc(1 + 0j, 0.01)


def _rows_and_stride(table):
    return table.rows, table.stride


def _plain(support, N, p, density=Constant(1.0)):
    return lambda: _rows_and_stride(mixed_moments(Weight(support, density), "plain", N, p))


def _gaussian(support, N, p):
    """The table level_q_matrix checks at p: built at p + _boundary_guard."""
    return lambda: _rows_and_stride(mixed_moments(Weight(support, Constant(1.0)), "gaussian", N,
                                                  p + _boundary_guard(support, 1.0)))


def _int_zero_rows():
    # one class {0, 1, 2} whose entry (2, 0) is a Python int 0
    return [[mp.mpf(2)], [mp.mpc(1, 0.5), mp.mpf(3)], [0, mp.mpc(0.25, -0.5), mp.mpf(4)]], 1


def _real_rows():
    # Hilbert, all mpf: fdot returns an mpf for every entry
    with mp.workprec(160):
        return [[mp.mpf(1) / (i + j + 1) for j in range(i + 1)] for i in range(12)], 1


def _blocked_rows(first):
    # test_symmetry's classes {0, 2} and {1, 3} of stride 2, failing at degree 2 or 3
    one = mp.mpf(1)
    return [[one], [0, one], [first, 0, one], [0, one, 0, one]], 2


@pytest.mark.parametrize("build, p, fails", [
    pytest.param(_gaussian(Disc(0.7 + 0j, 1.0), 24, 128), 128, False, id="workload-disc-gaussian"),
    pytest.param(_plain(Disc(0.7 + 0j, 1.0), 48, 256), 256, False, id="offcentre-disc-N48-p256"),
    pytest.param(_plain(CENTRED_SQUARE, 24, 128), 128, False, id="centred-square-stride4"),
    pytest.param(_gaussian(CENTRED_SQUARE, 24, 128), 128, False, id="centred-square-gaussian"),
    pytest.param(_plain(RECTANGLE, 24, 128), 128, False, id="rectangle-stride2"),
    pytest.param(_plain(TRIANGLE, 24, 128), 128, False, id="vertex-triangle"),
    pytest.param(_plain(UNIT_SQUARE, 24, 128), 128, False, id="unit-square"),
    pytest.param(_plain(Disc(0.7 + 0j, 1.0), 24, 128, Power(1)), 128, False, id="power1"),
    pytest.param(_plain(Disc(0.7 + 0j, 1.0), 24, 128, Power(2)), 128, False, id="power2"),
] + [
    pytest.param(_plain(support, 16, p), p, False, id=f"{name}-p{p}")
    for name, support in (("offcentre-annulus", OFFCENTRE_ANNULUS), ("two-discs", TWO_DISCS))
    for p in (64, 128, 512)
] + [
    pytest.param(_int_zero_rows, 64, False, id="int-zeros"),
    pytest.param(_real_rows, 128, False, id="all-real"),
    pytest.param(_plain(TINY_DISC, 6, 64), 64, True, id="tiny-disc-plain-fails"),
    pytest.param(_gaussian(TINY_DISC, 6, 64), 64, True, id="tiny-disc-gaussian-fails"),
    pytest.param(lambda: _blocked_rows(mp.mpf(1)), 64, True, id="blocked-fails-at-2"),
    pytest.param(lambda: _blocked_rows(mp.mpf(0.5)), 64, True, id="blocked-fails-at-3"),
])
def test_cholesky_is_bit_identical_to_the_fdot_loop(build, p, fails):
    # the integer kernel keeps fdot's roundings: the same raw log pivots, or
    # the same non-positive pivot named. It would differ only where fdot's
    # mpf_sum drops a term more than 2p bits below its running sum, which
    # none of these tables reaches
    def outcome(factor):
        try:
            return [x._mpf_ for x in factor(rows, p, stride)]
        except DegenerateMomentError as err:
            return str(err)

    rows, stride = build()
    got = outcome(hermitian_cholesky)
    assert got == outcome(_fdot_cholesky_log_pivots)
    assert isinstance(got, str) == fails


@pytest.mark.parametrize("support, band", [
    pytest.param(UNIT_SQUARE, mp.mpf("1e-17"), id="unit-square"),
    pytest.param(Disc(0.7 + 0j, 1.0), mp.mpf("1e-25"), id="offcenter-disc"),
])
def test_minimal_norms_keep_the_table_width(support, band):
    # each plain entry is rounded once at its fixed-point width, not to p,
    # and the Cholesky sums it exactly: at N=24 and 128 bits the worst
    # |log M_n| lies 9.3e-19 (square) and 7.3e-27 (disc) from a 512-bit run,
    # against 9.1e-15 and 9.4e-23 with the table rounded to p; each band is
    # more than 10 times the first error
    w = Weight(support, Constant(1.0))
    lo = monic_orthogonalize(mixed_moments(w, "plain", 24, precision_bits=128)).log_norms
    hi = monic_orthogonalize(mixed_moments(w, "plain", 24, precision_bits=512)).log_norms
    with mp.workprec(600):
        for n, (a, b) in enumerate(zip(lo, hi)):
            assert abs(a - b) <= band, n


def test_square_table_is_factored_once(monkeypatch):
    # the Cholesky of monic_orthogonalize is the plain table's only check
    from landaucap import _mp

    sizes = []

    def counting(g, prec, stride, real=False):
        sizes.append(len(g))
        return _mp.hermitian_cholesky(g, prec, stride, real)

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
