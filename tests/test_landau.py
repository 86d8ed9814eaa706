"""Compression matrices, their Householder-QL spectra, oracle equivalence,
and the asymptotic ratio sequences they feed."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from landaucap.chebyshev import CapacityEstimate, capacity_estimate
from landaucap import landau, weight as weight_module
from landaucap.errors import DegenerateMomentError, NonConvergenceError
from landaucap.landau import (
    LandauBasisSpec,
    _creation_pow,
    level_q_matrix,
    radial_oracle,
    spectrum,
    theorem_predictions,
    toeplitz_spectrum,
)
from landaucap.orthopoly import monic_orthogonalize, rho_estimates
from landaucap.region import Annulus, Disc, Polygon, region_key
from landaucap.weight import Constant, Power, Weight, ball_reduction_weight, mixed_moments, weight_key

UNIT_DISC = Weight(Disc(0j, 1.0), Constant(1.0))
SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))


def _full(rows):
    """The mp.matrix of the Hermitian block whose lower triangle is rows,
    for the mp.eighe references."""
    n = len(rows)
    a = mp.matrix(n, n)
    for j, row in enumerate(rows):
        for k, x in enumerate(row):
            a[j, k], a[k, j] = x, mp.conj(x)
    return a


def on_boundary_path(fn, *args):
    """fn(*args) with centred discs sent down the dense boundary moment path,
    as every other support is, instead of the diagonal radial one."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weight_module, "_radial_applicable", lambda w: False)
        return fn(*args)


def g(a, x):
    return mp.gammainc(a, 0, x)


def q1_diag(n, r2):
    """Closed form for the level-1 diagonal over a centered disc."""
    if n == 0:
        return g(2, r2)
    return (n * n * g(n, r2) - 2 * n * g(n + 1, r2) + g(n + 2, r2)) / mp.factorial(n)


# ------------------------------------------------------------- basis spec

def test_basis_spec_validation():
    with pytest.raises(ValueError, match="nonnegative integer"):
        LandauBasisSpec(-1, 2.0, 4)
    with pytest.raises(ValueError, match="nonnegative integer"):
        LandauBasisSpec(1.5, 2.0, 4)
    with pytest.raises(ValueError, match="b0 must be positive"):
        LandauBasisSpec(0, 0.0, 4)
    with pytest.raises(ValueError, match="N must be >= q"):
        LandauBasisSpec(2, 2.0, 1)
    with pytest.raises(ValueError, match="N must be >= q"):
        level_q_matrix(UNIT_DISC, 2, 2.0, 1, 64)


# ------------------------------------------------------- ground-level matrix

def test_lll_disc_diagonal_closed_form():
    with mp.workprec(160):
        for r in (0.5, 1.0, 2.0):
            v = Weight(Disc(0j, r), Constant(1.0))
            T = level_q_matrix(v, 0, 2.0, 10, 128)
            r2 = mp.mpf(r) ** 2
            for j in range(11):
                exact = g(j + 1, r2) / mp.factorial(j)
                assert abs(T[j][j] - exact) / exact < mp.mpf(10) ** -30
                assert all(x == 0 for x in T[j][:j])


def test_lll_t00_value():
    T = level_q_matrix(UNIT_DISC, 0, 2.0, 0, 128)
    with mp.workprec(160):
        exact = 1 - mp.exp(-1)
        assert abs(T[0][0] - exact) / exact < mp.mpf(10) ** -35


def test_lll_generic_path_matches_radial():
    Tg = on_boundary_path(level_q_matrix, UNIT_DISC, 0, 2.0, 8, 128)
    Tr = level_q_matrix(UNIT_DISC, 0, 2.0, 8, 128)
    with mp.workprec(160):
        diag_rel = max(abs(Tg[j][j] - Tr[j][j]) / abs(Tr[j][j]) for j in range(9))
        assert diag_rel < mp.mpf(10) ** -30
        # dense-path off-diagonals are rounding dust at the working floor
        maxdiag = max(abs(Tr[j][j]) for j in range(9))
        off = max(abs(Tg[j][k]) for j in range(9) for k in range(j))
        assert off < mp.mpf(10) ** -35 * maxdiag


def test_lll_diagonal_bounded_by_ess_sup():
    w = Weight(SQUARE, Constant(0.75))
    T = level_q_matrix(w, 0, 2.0, 8, 128)
    with mp.workprec(128):
        for j in range(9):
            assert mp.re(T[j][j]) <= mp.mpf("0.75") * (1 + mp.mpf(10) ** -30)
            assert mp.re(T[j][j]) > 0


# ------------------------------------------------------------ level-q matrix

def test_creation_rule():
    assert _creation_pow(5, 0) == {(5, 0): 1}
    assert _creation_pow(5, 1) == {(4, 0): 5, (5, 1): -1}
    assert _creation_pow(0, 2) == {(0, 2): 1}
    assert _creation_pow(2, 2) == {(0, 0): 2, (1, 1): -4, (2, 2): 1}


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_creation_monomials_keep_the_angular_index(q):
    # every monomial z^m conj(z)^l of the level-q image of z^j has m - l = j - q,
    # so entry (j, k) pairs moments with a - b = j - k
    for j in range(12):
        assert all(m - l == j - q for m, l in _creation_pow(j, q))


RADIAL_WEIGHTS = [UNIT_DISC, Weight(Annulus(0j, 0.5, 2.0), Power(2)), ball_reduction_weight(1.0)]


@pytest.mark.parametrize("q", [0, 1, 2, 3])
@pytest.mark.parametrize("v", RADIAL_WEIGHTS, ids=weight_key)
def test_radial_assembly_is_the_dense_loop_on_the_diagonal(v, q, monkeypatch):
    # a radial table assembles only k = j; the dense loop over the same
    # table, told it is not radial, must give the same block bit for bit
    N = 6
    T = level_q_matrix(v, q, 2.0, N, 128)

    def as_dense(*args, **kwargs):
        table = mixed_moments(*args, **kwargs)
        assert table.path == "radial"
        table.path = "boundary"
        return table

    monkeypatch.setattr(landau, "mixed_moments", as_dense)
    D = level_q_matrix(v, q, 2.0, N, 128)
    for j in range(N + 1):
        assert T[j][j] == D[j][j] and mp.im(T[j][j]) == 0
        for k in range(j):
            assert T[j][k] == 0 and D[j][k] == 0


def test_level_q1_disc_diagonal_closed_form():
    with mp.workprec(160):
        for r in (1.0, 1.3):
            v = Weight(Disc(0j, r), Constant(1.0))
            T = level_q_matrix(v, 1, 2.0, 8, 128)
            r2 = mp.mpf(r) ** 2
            for n in range(9):
                exact = q1_diag(n, r2)
                assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -25
                assert all(x == 0 for x in T[n][:n])


def test_level_q1_unit_disc_tie():
    # the first three level-1 diagonal entries coincide at radius 1
    T = level_q_matrix(UNIT_DISC, 1, 2.0, 4, 128)
    with mp.workprec(160):
        exact = 1 - 2 * mp.exp(-1)
        for n in range(3):
            assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -30
        assert abs(T[3][3] - exact) / exact > mp.mpf("0.01")


def test_level_q1_generic_path_matches_closed_form():
    T = on_boundary_path(level_q_matrix, UNIT_DISC, 1, 2.0, 6, 128)
    with mp.workprec(160):
        for n in range(7):
            exact = q1_diag(n, mp.mpf(1))
            assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -25


def test_level_q2_closed_form_and_hermiticity():
    T = level_q_matrix(UNIT_DISC, 2, 2.0, 4, 128)
    with mp.workprec(160):
        # creation applied twice to z^0 gives conj(z)^2, so T00 = gamma(3,1)/2!
        exact = g(3, 1) / 2
        assert abs(T[0][0] - exact) / exact < mp.mpf(10) ** -25


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("support", [Disc(0j, 1.0), Disc(0.3 + 0j, 0.8)], ids=["radial", "dense"])
def test_level_q_matrix_is_a_lower_triangle(support, q):
    # row j holds entries k <= j and ends in a real mpf diagonal; the
    # radial block is exactly zero below it, the dense one is not
    N = 5
    T = level_q_matrix(Weight(support, Constant(1.0)), q, 2.0, N, 128)
    assert isinstance(T, list) and len(T) == N + 1
    for j, row in enumerate(T):
        assert isinstance(row, list) and len(row) == j + 1
        assert type(row[j]) is mp.mpf and row[j] > 0
    below = [x for row in T for x in row[:-1]]
    assert all(x == 0 for x in below) == (support.center == 0)


def test_leading_block_is_the_prefix():
    # the leading m x m block of an assembly is rows[:m], and its spectrum
    # matches mp.eighe of that block on every trusted eigenvalue
    p = 128
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 16, p)
    for m in (9, 13):
        sp = spectrum(T[:m], p)
        assert len(sp.eigs) == m and sp.eigen_solve == "householder-ql"
        with mp.workprec(p + 128):
            ref = sorted(mp.eighe(_full(T[:m]), eigvals_only=True), reverse=True)
            for got, want in zip(sp.eigenvalues()[:sp.trusted_count], ref):
                assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want


# ----------------------------------------------------------------- spectrum

def test_spectrum_diagonal_exact():
    m = [[3], [0, 1], [0, 0, 2]]
    sp = spectrum(m, 128)
    with mp.workprec(128):
        assert sp.log_eigs == (mp.log(3), mp.log(2), mp.log(1))
    assert sp.trusted_count == 3
    assert sp.matrix_residual == 0.0


def test_spectrum_2x2_complex_closed_form():
    m = [[mp.mpf(2)], [mp.mpc(0, -1), mp.mpf(1)]]
    sp = spectrum(m, 128)
    with mp.workprec(128):
        lam = ((3 + mp.sqrt(5)) / 2, (3 - mp.sqrt(5)) / 2)
        for got, want in zip(sp.eigenvalues(), lam):
            assert abs(got - want) / want < mp.mpf(10) ** -30


def test_eigenvalues_keep_the_run_precision():
    # called outside any workprec, the linear view still carries the run's bits
    sp = radial_oracle(UNIT_DISC, 2.0, 5, 128)
    eigs = sp.eigenvalues()
    with mp.workprec(128):
        exact = 1 - mp.exp(-1)
        assert abs(eigs[0] - exact) / exact < mp.mpf(10) ** -30


def test_spectrum_rejects_bad_input():
    # row j of the lower triangle holds j + 1 entries: a square block, a
    # ragged row and an upper triangle are all rejected
    for bad in ([[1.0, 0.5], [0.5, 1.0]], [[1.0], [0.5]], [[1.0, 0.5], [1.0]]):
        with pytest.raises(ValueError, match="lower triangle"):
            spectrum(bad, 64)


def test_spectrum_rejects_a_non_real_diagonal():
    # exactly real, not real within a tolerance, on the dense and the
    # diagonal path alike
    for bad in ([[mp.mpf(1)], [0.5, mp.mpc(1, 1e-40)]], [[mp.mpf(1)], [0, mp.mpc(1, 1e-3)]],
                [[1j]]):
        with pytest.raises(ValueError, match="diagonal .* must be real"):
            spectrum(bad, 64)


def test_diagonal_block_skips_the_integer_conversion(monkeypatch):
    # exactly zero below the diagonal: the eigenvalues are read without
    # _fixed_columns, and a lower triangle leaves no residual to report
    def unused(*args):
        raise AssertionError("a diagonal block reached _fixed_columns")

    monkeypatch.setattr(landau, "_fixed_columns", unused)
    sp = spectrum([[2], [0, mp.mpc(1, 0)]], 64)
    assert sp.eigen_solve == "diagonal"
    assert sp.matrix_residual == 0.0
    with mp.workprec(64):
        assert sp.eigenvalues() == (2, 1)


def test_spectrum_trusted_floor():
    sp = toeplitz_spectrum(UNIT_DISC, 0, 2.0, 20, 48)
    eigs = sp.eigenvalues()
    with mp.workprec(48):
        floor = eigs[0] * mp.mpf(10) ** (-mp.mpf(48) / 3)
        recount = sum(1 for e in eigs if e > floor)
    assert sp.trusted_count == recount
    assert 0 < sp.trusted_count < 21
    trusted = eigs[: sp.trusted_count]
    assert all(e > 0 for e in trusted)
    assert all(a >= b for a, b in zip(trusted, trusted[1:]))


def test_spectrum_determinism():
    v = Weight(Disc(0.5 + 0.2j, 0.8), Constant(1.0))
    s1 = toeplitz_spectrum(v, 1, 2.0, 7, 128)
    s2 = toeplitz_spectrum(v, 1, 2.0, 7, 128)
    assert s1.log_eigs == s2.log_eigs


def test_offcenter_continuity_at_small_shift():
    base = toeplitz_spectrum(UNIT_DISC, 0, 2.0, 10, 128)
    shifted = toeplitz_spectrum(Weight(Disc(1e-6 + 0j, 1.0), Constant(1.0)), 0, 2.0, 10, 128)
    with mp.workprec(128):
        for n in range(10):
            drift = abs(shifted.eigenvalues()[n] - base.eigenvalues()[n])
            assert drift < mp.mpf(10) ** -4


def test_truncation_interlacing():
    v = Weight(Disc(0.4 + 0j, 0.9), Constant(1.0))
    small = toeplitz_spectrum(v, 0, 2.0, 10, 128)
    large = toeplitz_spectrum(v, 0, 2.0, 15, 128)
    with mp.workprec(128):
        slack = 1 + mp.mpf(10) ** -25
        for n in range(10):
            assert small.eigenvalues()[n] <= large.eigenvalues()[n] * slack


def test_s1_below_ess_sup():
    v = Weight(Disc(0.2 + 0.1j, 1.1), Constant(0.6))
    sp = toeplitz_spectrum(v, 0, 2.0, 8, 128)
    with mp.workprec(128):
        assert sp.eigenvalues()[0] <= mp.mpf("0.6") * (1 + mp.mpf(10) ** -30)


def _dense_with_spectrum(lams, seed, prec):
    """G diag(lams) G^H as a list-of-lists at prec bits, with G three cyclic
    passes of seeded random complex Givens rotations."""
    rng = random.Random(seed)
    n = len(lams)
    with mp.workprec(prec):
        a = [[mp.mpc(lams[i]) if i == j else mp.mpc(0) for j in range(n)] for i in range(n)]
        for _ in range(3):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    theta = mp.mpf(rng.uniform(0.0, 2 * math.pi))
                    c = mp.cos(theta)
                    s = mp.sin(theta) * mp.expj(rng.uniform(0.0, 2 * math.pi))
                    # rows by J = [[c, -conj(s)], [s, c]], then columns by J^H
                    for k in range(n):
                        x, y = a[i][k], a[j][k]
                        a[i][k] = c * x - mp.conj(s) * y
                        a[j][k] = s * x + c * y
                    for k in range(n):
                        x, y = a[k][i], a[k][j]
                        a[k][i] = c * x - s * y
                        a[k][j] = mp.conj(s) * x + c * y
        return a


@pytest.mark.parametrize("n, prec", [(13, 128), (13, 64), (25, 128)])
def test_spectrum_matches_exact_oracle(n, prec):
    # a dense matrix with known eigenvalues gamma(k, 1)/(k-1)!, built 128 bits
    # past the run and rounded once to it: every eigenvalue must land within
    # a few units of 2^-p s_1
    with mp.workprec(prec + 128):
        lams = [mp.gammainc(k, 0, 1, regularized=True) for k in range(1, n + 1)]
    a = _dense_with_spectrum(lams, 20 + n, prec + 128)
    with mp.workprec(prec):
        a = [[+x for x in row[:j]] + [+row[j].real] for j, row in enumerate(a)]
    sp = spectrum(a, prec)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(prec + 128):
        bound = 4 * mp.mpf(2) ** -prec * lams[0]
        for got, want in zip(sp.eigenvalues(), lams):
            assert abs(got - want) <= bound


def test_centred_disc_spectrum_within_two_units():
    # q = 0 on the unit disc: s_n = gamma(n, 1)/(n-1)! exactly, and every
    # eigenvalue must lie within 2^(1-p) relative of it
    p = 256
    sp = toeplitz_spectrum(UNIT_DISC, 0, 2.0, 48, p)
    with mp.workprec(p + 64):
        for n, got in enumerate(sp.eigenvalues(), start=1):
            exact = mp.gammainc(n, 0, 1, regularized=True)
            assert abs(got - exact) <= mp.mpf(2) ** (1 - p) * exact, n


def test_spectrum_diagonal_beyond_fixed_range():
    # 2^-400 lies below the fixed-point step of a 64-bit solve; a diagonal
    # input's eigenvalues are read from the input, not from its integers, so
    # it comes back exactly
    tiny = mp.mpf(2) ** -400
    sp = spectrum([[1], [0, tiny]], 64)
    with mp.workprec(64):
        assert sp.log_eigs == (mp.log(1), mp.log(tiny))
    assert sp.eigen_solve == "diagonal"
    assert sp.matrix_residual == 0.0


def test_spectrum_decides_diagonal_from_exact_zeros():
    # off-diagonal entries below the fixed-point step vanish as integers, but
    # they are not exact zeros, so the block is reduced, not read as diagonal
    tiny = mp.mpf(2) ** -400
    sp = spectrum([[1], [tiny, mp.mpf(1) / 2]], 64)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(64):
        assert sp.eigenvalues() == (1, mp.mpf(1) / 2)


def test_tiny_offcenter_disc_level_q_raises_with_the_degree():
    # radius 0.01 at distance 1: the Gaussian table fails its Cholesky at 64 bits
    w = Weight(Disc(1 + 0j, 0.01), Constant(1.0))
    with pytest.raises(DegenerateMomentError, match="non-positive pivot at degree"):
        level_q_matrix(w, 0, 2.0, 6, 64)


def test_spectrum_reports_eigen_solve():
    v = Weight(Disc(0.7 + 0j, 1.0), Constant(1.0))
    assert toeplitz_spectrum(v, 0, 2.0, 12, 128).eigen_solve == "householder-ql"
    assert toeplitz_spectrum(UNIT_DISC, 0, 2.0, 12, 128).eigen_solve == "diagonal"
    assert radial_oracle(UNIT_DISC, 2.0, 12, 128).eigen_solve == "diagonal"


def test_spectrum_ql_nonconvergence_raises(monkeypatch):
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 12, 128)

    def stuck(ctx, d, e):
        raise RuntimeError("tridiag_eigen: no convergence to an eigenvalue after 2 iterations")

    monkeypatch.setattr(landau, "tridiag_eigen", stuck)
    with pytest.raises(NonConvergenceError, match="no convergence"):
        spectrum(T, 128)

    def broken(ctx, d, e):
        raise RuntimeError("some other failure")

    # only the QL's own non-convergence is a solver failure
    monkeypatch.setattr(landau, "tridiag_eigen", broken)
    with pytest.raises(RuntimeError, match="some other failure"):
        spectrum(T, 128)


def _record_ql_input(monkeypatch):
    """Wrap the QL so that each call's diagonal and sub-diagonal are kept."""
    calls = []
    real = landau.tridiag_eigen

    def recording(ctx, d, e):
        calls.append((list(d), list(e)))
        return real(ctx, d, e)

    monkeypatch.setattr(landau, "tridiag_eigen", recording)
    return calls


def test_ql_starts_at_the_small_end(monkeypatch):
    # the off-centre disc's tridiagonal falls from 2^-1 to 2^-92 down its
    # diagonal; the QL deflates from the top, so it must receive the small
    # end first (91 QL iterations top-down, 34 small end first)
    calls = _record_ql_input(monkeypatch)
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 24, 128)
    spectrum(T, 128)
    (d, e), = calls
    assert abs(d[0]) <= abs(d[-1])
    assert e[-1] == 0


def _graded_tridiagonal(n, prec, ascending):
    """The lower triangle of a Hermitian tridiagonal block with diagonal
    2^(-3k) and complex sub-diagonal entries a quarter of their neighbours'
    geometric mean, listed small end first when ascending."""
    with mp.workprec(prec):
        diag = [mp.mpf(2) ** (-3 * k) for k in range(n)]
        sub = [mp.sqrt(diag[k] * diag[k + 1]) / 4 * mp.expj(k + 1) for k in range(n - 1)]
        if ascending:
            diag.reverse()
            sub = [mp.conj(z) for z in reversed(sub)]
        a = [[mp.mpc(0)] * k + [diag[k]] for k in range(n)]
        for k in range(n - 1):
            a[k + 1][k] = sub[k]
        return a


def test_ql_keeps_an_upward_graded_order(monkeypatch):
    # a block graded small to large already starts at the small end: the QL
    # receives its order unchanged, and its flip (the same matrix graded
    # downward) is reversed into that same order, so both give the same
    # bits, each within 2^(1-p) relative of mp.eighe
    p, n = 128, 16
    calls = _record_ql_input(monkeypatch)
    up = spectrum(_graded_tridiagonal(n, p, True), p)
    down = spectrum(_graded_tridiagonal(n, p, False), p)
    (d_up, e_up), (d_down, e_down) = calls
    with mp.workprec(p):
        assert d_up[0] == mp.mpf(2) ** (-3 * (n - 1)) and d_up[-1] == 1
    assert (d_down, e_down) == (d_up, e_up)
    assert up.eigs == down.eigs
    with mp.workprec(p + 128):
        ref = sorted(mp.eighe(_full(_graded_tridiagonal(n, p, True)), eigvals_only=True),
                     reverse=True)
        for got, want in zip(up.eigenvalues(), ref):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want


DENSE_SUPPORTS = {
    "offcenter-disc": Disc(0.7 + 0j, 1.0),
    "corner-square": Polygon((0j, 1 + 0j, 1 + 1j, 1j)),
    "centred-square": SQUARE,
}


@pytest.mark.parametrize("support, q", [
    pytest.param(support, q, id=name if q == 0 else f"{name}-q{q}")
    for q in (0, 1, 2) for name, support in DENSE_SUPPORTS.items()
])
def test_dense_spectrum_within_two_ulp(support, q):
    # every trusted eigenvalue within 2^(1-p) relative of the same block
    # solved by mp.eighe at p + 128 bits; three quarters of the centred
    # square's block is rounding noise, and at q = 0 all 25 of its eigenvalues
    # are trusted down to s_25/s_1 = 5.9e-37
    p = 128
    T = level_q_matrix(Weight(support, Constant(1.0)), q, 2.0, 24, p)
    sp = spectrum(T, p)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(p + 128):
        ref = sorted(mp.eighe(_full(T), eigvals_only=True), reverse=True)
        for got, want in zip(sp.eigenvalues()[:sp.trusted_count], ref):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want
    assert sp.matrix_residual <= 1e-30


def test_matrix_residual_sees_a_wrong_reduction(monkeypatch):
    # a unitary similarity keeps the Frobenius norm, so a reduction that is
    # not one, here off by 1e-20 of one diagonal entry, shows in the residual
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 12, 128)
    assert spectrum(T, 128).matrix_residual <= 1e-30
    reduce = landau._householder_tridiagonal

    def off(re, im, bits):
        diag, sub2 = reduce(re, im, bits)
        diag[0] += diag[0] // 10 ** 20
        return diag, sub2

    monkeypatch.setattr(landau, "_householder_tridiagonal", off)
    assert spectrum(T, 128).matrix_residual >= 1e-12


def test_spectrum_keeps_the_input_precision():
    # level_q_matrix assembles at p + 20 bits; the small eigenvalues of the
    # off-centre block are ill-conditioned against rounding it to p, which
    # moved s_25 by 2.2e-23 relative
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 24, 128)
    lo = spectrum(T, 128)
    hi = spectrum(T, 256)
    assert lo.trusted_count == 25
    with mp.workprec(300):
        for a, b in zip(lo.log_eigs[:lo.trusted_count], hi.log_eigs):
            assert abs(mp.expm1(a - b)) <= mp.mpf(10) ** -30


# ------------------------------------------------------------ radial oracle

def test_radial_oracle_closed_values():
    sp = radial_oracle(UNIT_DISC, 2.0, 5, 128)
    with mp.workprec(160):
        eigs = sp.eigenvalues()
        assert abs(eigs[0] - (1 - mp.exp(-1))) < mp.mpf(10) ** -30
        assert abs(eigs[1] - (1 - 2 * mp.exp(-1))) < mp.mpf(10) ** -30
    assert abs(float(eigs[0]) - 0.632120558829) < 1e-12
    assert abs(float(eigs[1]) - 0.264241117657) < 1e-12


def test_radial_oracle_requires_centered_radial():
    for w in (
        Weight(Disc(0.3 + 0j, 1.0), Constant(1.0)),
        Weight(SQUARE, Constant(1.0)),
        Weight(Disc(0.3 + 0j, 1.0), Power(2)),
    ):
        with pytest.raises(ValueError, match="oracle requires centered radial weight"):
            radial_oracle(w, 2.0, 4, 128)


def test_radial_oracle_profile_quadrature():
    v = Weight(Disc(0j, 1.0), Power(2))
    sp = radial_oracle(v, 2.0, 6, 192)
    with mp.workprec(256):
        exact = sorted((g(n + 2, 1) / mp.factorial(n) for n in range(7)), reverse=True)
        for a, b in zip(sp.eigenvalues(), exact):
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_radial_oracle_annulus():
    v = Weight(Annulus(0j, 0.5, 1.2), Constant(1.0))
    sp = radial_oracle(v, 2.0, 6, 160)
    with mp.workprec(224):
        # square the same binary doubles the annulus was built from
        lo2, hi2 = mp.mpf(0.5) ** 2, mp.mpf(1.2) ** 2
        exact = sorted(((g(n + 1, hi2) - g(n + 1, lo2)) / mp.factorial(n) for n in range(7)), reverse=True)
        for a, b in zip(sp.eigenvalues(), exact):
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_oracle_equivalence_of_spectrum():
    # contract tolerance 1e-8; dense path included for the unit radius
    for r in (0.5, 1.0, 2.0):
        v = Weight(Disc(0j, r), Constant(1.0))
        sp = toeplitz_spectrum(v, 0, 2.0, 16, 192)
        orc = radial_oracle(v, 2.0, 16, 192)
        nt = min(sp.trusted_count, orc.trusted_count)
        assert nt > 10
        with mp.workprec(192):
            for a, b in zip(sp.eigenvalues()[:nt], orc.eigenvalues()[:nt]):
                assert abs(a - b) / b < mp.mpf(10) ** -8
    dense = spectrum(on_boundary_path(level_q_matrix, UNIT_DISC, 0, 2.0, 12, 128), 128)
    orc = radial_oracle(UNIT_DISC, 2.0, 12, 128)
    with mp.workprec(128):
        nt = min(dense.trusted_count, orc.trusted_count)
        for a, b in zip(dense.eigenvalues()[:nt], orc.eigenvalues()[:nt]):
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_level_q_oracle_closed_form_q1():
    # Laguerre form must reproduce the direct expansion of |n z^(n-1) - zbar z^n|^2
    orc = radial_oracle(UNIT_DISC, 2.0, 10, 192, q=1)
    with mp.workprec(256):
        one = mp.mpf(1)
        vals = [g(2, one)]
        for n in range(1, 11):
            vals.append((n * n * g(n, one) - 2 * n * g(n + 1, one) + g(n + 2, one)) / mp.factorial(n))
        exact = sorted(vals, reverse=True)
        for a, b in zip(orc.eigenvalues(), exact):
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_level_q_oracle_matches_matrix():
    # independent derivations: Laguerre quadrature vs creation-coefficient assembly
    cases = [
        (UNIT_DISC, 1, 2.0, 16, 192),
        (UNIT_DISC, 2, 2.0, 12, 192),
        (Weight(Annulus(0j, 0.5, 1.2), Constant(1.0)), 1, 3.0, 8, 160),
        (Weight(Disc(0j, 1.0), Power(2)), 1, 2.0, 8, 160),
    ]
    for w, q, b0, N, p in cases:
        sp = toeplitz_spectrum(w, q, b0, N, p)
        orc = radial_oracle(w, b0, N, p, q=q)
        nt = min(sp.trusted_count, orc.trusted_count)
        assert nt > N // 2
        with mp.workprec(p):
            for a, b in zip(sp.eigenvalues()[:nt], orc.eigenvalues()[:nt]):
                assert abs(a - b) / b < mp.mpf(10) ** -8


def test_level_q_oracle_validation():
    with pytest.raises(ValueError, match="truncation N must be >= q"):
        radial_oracle(UNIT_DISC, 2.0, 1, 128, q=2)
    with pytest.raises(ValueError, match="q must be a nonnegative integer"):
        radial_oracle(UNIT_DISC, 2.0, 8, 128, q=-1)


# --------------------------------------------------------- field rescaling

def test_general_b0_assembly_against_direct_normalization():
    # same spectrum from level_q_matrix, which folds eta = sqrt(b0/2) into
    # its unscaling powers and prefactor, and from normalizing the field-b0
    # Gaussian moments directly in log form; both read one table, so only
    # rounding separates them
    b0 = 3.7
    v = Weight(Disc(0.3 + 0j, 0.8), Constant(1.0))
    sp_int = toeplitz_spectrum(v, 0, b0, 8, 128)
    G = mixed_moments(v, "gaussian", maxdeg=8, precision_bits=128, b0=b0)
    with mp.workprec(148):
        T = [[G.raw_entry(j, k) * mp.e ** (
                (mp.mpf(j + k + 2) / 2) * mp.log(mp.mpf(b0) / 2)
                - mp.log(mp.pi)
                - (mp.loggamma(j + 1) + mp.loggamma(k + 1)) / 2
              ) for k in range(j + 1)] for j in range(9)]
        for j in range(9):
            T[j][j] = mp.re(T[j][j])
    sp_dir = spectrum(T, 128)
    with mp.workprec(128):
        nt = min(sp_int.trusted_count, sp_dir.trusted_count)
        assert nt > 5
        for a, b in zip(sp_int.eigenvalues()[:nt], sp_dir.eigenvalues()[:nt]):
            assert abs(a - b) / b < mp.mpf(10) ** -30


def test_general_b0_radial_closed_form():
    # b0 = 5 on the unit disc: s_{n+1} = gamma(n+1, 5/2)/n!
    with mp.workprec(256):
        exact = sorted((g(n + 1, mp.mpf(5) / 2) / mp.factorial(n) for n in range(7)), reverse=True)
    orc = radial_oracle(UNIT_DISC, 5.0, 6, 128)
    mat = toeplitz_spectrum(UNIT_DISC, 0, 5.0, 6, 128)
    with mp.workprec(160):
        for a, b in zip(orc.eigenvalues(), exact):
            assert abs(a - b) / b < mp.mpf(10) ** -35
        for a, b in zip(mat.eigenvalues(), exact):
            assert abs(a - b) / b < mp.mpf(10) ** -35


def test_general_b0_ball_chord_matches_oracle():
    # level 1 at b0 = 3 on the ball chord: the tanh-sinh table built at b0
    # against the Laguerre quadrature of the oracle, to the working precision
    w = ball_reduction_weight(1.0)
    sp = toeplitz_spectrum(w, 1, 3.0, 16, 256)
    orc = radial_oracle(w, 3.0, 16, 256, q=1)
    assert sp.trusted_count == orc.trusted_count == 17
    with mp.workprec(256):
        for a, b in zip(sp.eigenvalues(), orc.eigenvalues()):
            assert abs(a - b) / b < mp.mpf(10) ** -70


# ------------------------------------------------------- ratio sequences

def _lemma1_sides(v, N, prec):
    """(n! s_(n+1))^(1/n), (b0/2) M_n^(1/n) and their ratio at b0 = 2, for n
    from 1 to the last n whose s_(n+1) is trusted."""
    sp = toeplitz_spectrum(v, 0, 2.0, N, prec)
    ns = range(1, sp.trusted_count)
    basis = monic_orthogonalize(mixed_moments(v, "plain", maxdeg=ns[-1], precision_bits=prec))
    with mp.workprec(prec):
        lhs = [mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n]) / n) for n in ns]
        rhs = [mp.exp(basis.log_norms[n] / n) for n in ns]
        return lhs, rhs, [a / b for a, b in zip(lhs, rhs)]


def test_lemma1_first_entry_closed_forms():
    lhs, rhs, ratio = _lemma1_sides(UNIT_DISC, 12, 128)
    with mp.workprec(160):
        s2 = 1 - 2 * mp.exp(-1)
        m1 = mp.pi / 2
        assert abs(lhs[0] - s2) / s2 < mp.mpf(10) ** -30
        assert abs(rhs[0] - m1) / m1 < mp.mpf(10) ** -30
        assert abs(ratio[0] - s2 / m1) / (s2 / m1) < mp.mpf(10) ** -25
    assert all(r > 0 for r in ratio)


def test_lemma1_disc_window_and_trend():
    _, _, ratio = _lemma1_sides(UNIT_DISC, 40, 256)
    assert len(ratio) == 40
    with mp.workprec(256):
        # independent closed-form oracle: ratio_n = (gamma(n+1,1) (n+1)/pi)^(1/n)
        for n in (10, 20, 30):
            oracle = (g(n + 1, 1) * (n + 1) / mp.pi) ** (mp.mpf(1) / n)
            got = ratio[n - 1]
            assert abs(got - oracle) / oracle < mp.mpf(10) ** -10
        r30 = ratio[29]
        assert mp.mpf("0.85") < r30 < mp.mpf("1.15")
        # |ratio - 1| decreasing over the last third of trusted n
        tail = ratio[-(len(ratio) // 3):]
        gaps = [abs(r - 1) for r in tail]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + mp.mpf(10) ** -3


def test_ground_level_ratio_check_solves_one_spectrum(monkeypatch):
    # the ratio is read off the check's own spectrum, not a second solve
    from landaucap import verify

    calls = []
    solve = landau.spectrum

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(landau, "spectrum", counting)
    assert all(r.passed for r in verify.ground_level_ratio_checks())
    assert len(calls) == 1


def test_theorem_predictions_disc():
    v = Weight(Disc(0j, 1.3), Constant(1.0))
    plain = mixed_moments(v, "plain", maxdeg=40, precision_bits=256)
    rho = rho_estimates(monic_orthogonalize(plain))
    preds = theorem_predictions(v, 0, 2.0, rho, 1.3)
    with mp.workprec(256):
        rho_true = mp.mpf("1.69")
        t1 = preds["theorem1"]
        assert abs(t1["extrapolated"] - rho_true) / rho_true < mp.mpf("0.015")
        assert abs(t1["limsup"] - rho_true) / rho_true < mp.mpf("0.08")
        assert abs(t1["liminf"] - rho_true) / rho_true < mp.mpf("0.08")
        assert t1["limsup"] >= t1["liminf"]
        assert abs(preds["theorem2"]["limit"] - rho_true) < mp.mpf(10) ** -10
        t3 = preds["theorem3"]
        assert abs(t3["extrapolated"] - rho_true ** 2) / rho_true ** 2 < mp.mpf("0.03")
        la = preds["log_asymptote"]
        assert la["nlogn_coefficient"] == -1
        assert abs(la["linear_coefficient"] - 2 * mp.log(mp.mpf("1.3"))) < mp.mpf(10) ** -12
    # squares are formed at the precision in effect when predictions were made
    assert preds["theorem3"]["limsup"] == preds["theorem1"]["limsup"] ** 2
    assert preds["provenance"]["support"] == region_key(Disc(0j, 1.3))


def test_theorem_predictions_provenance_mismatch():
    v = Weight(Disc(0j, 1.3), Constant(1.0))
    plain = mixed_moments(v, "plain", maxdeg=20, precision_bits=128)
    rho = rho_estimates(monic_orthogonalize(plain))
    other = Weight(SQUARE, Constant(1.0))
    with pytest.raises(ValueError, match="provenance does not match this weight"):
        theorem_predictions(other, 0, 2.0, rho, 0.59)
    stale = CapacityEstimate(0.6, 1e-6, (4, 8), (0.6, 0.6), (1.0,), region_key=region_key(Disc(0j, 0.5)))
    with pytest.raises(ValueError, match="provenance does not match supp"):
        theorem_predictions(v, 0, 2.0, rho, stale)
    untagged = CapacityEstimate(1.29, 1e-6, (4, 8), (1.29, 1.29), (1.0,), region_key=None)
    preds = theorem_predictions(v, 0, 2.0, rho, untagged)
    assert abs(float(preds["theorem2"]["limit"]) - 1.29**2) < 1e-10


def test_theorem_predictions_square_q1():
    w = Weight(SQUARE, Constant(1.0))
    cap = capacity_estimate(SQUARE)
    plain = mixed_moments(w, "plain", maxdeg=16, precision_bits=128)
    rho = rho_estimates(monic_orthogonalize(plain))
    preds = theorem_predictions(w, 1, 2.0, rho, cap)
    known = 0.5901702995080481  # capacity of a unit-side square
    t2 = float(preds["theorem2"]["limit"])
    assert abs(t2 - float(mp.mpf(cap.extrapolated) ** 2)) < 1e-15
    assert abs(t2 - known**2) / known**2 < 0.1
    assert preds["q"] == 1


def test_theorem_predictions_rejects_bad_capacity():
    v = Weight(Disc(0j, 1.0), Constant(1.0))
    plain = mixed_moments(v, "plain", maxdeg=20, precision_bits=128)
    rho = rho_estimates(monic_orthogonalize(plain))
    with pytest.raises(ValueError, match="capacity must be positive"):
        theorem_predictions(v, 0, 2.0, rho, 0.0)


# ---------------------------------------------------------------- properties

@settings(max_examples=6, deadline=None)
@given(
    r=st.floats(min_value=0.4, max_value=1.6),
    a=st.floats(min_value=-0.4, max_value=0.4),
)
def test_spectrum_properties_random_discs(r, a):
    v = Weight(Disc(complex(a, 0), r), Constant(1.0))
    T = level_q_matrix(v, 0, 2.0, 6, 96)
    sp = spectrum(T, 96)
    eigs = sp.eigenvalues()[: sp.trusted_count]
    assert sp.trusted_count >= 1
    with mp.workprec(96):
        assert all(e > 0 for e in eigs)
        assert all(x >= y for x, y in zip(eigs, eigs[1:]))
        assert eigs[0] <= 1 + mp.mpf(10) ** -25
