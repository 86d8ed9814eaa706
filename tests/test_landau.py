"""Compression matrices, their Householder-QL spectra, oracle equivalence,
and the asymptotic ratio sequences they feed."""

import functools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from landaucap._mp import FIXED_GUARD_BITS, round_shift
from landaucap.chebyshev import CapacityEstimate, capacity_estimate
from landaucap import landau, weight as weight_module
from landaucap.errors import DegenerateMomentError, NonConvergenceError
from landaucap.landau import (
    LandauBasisSpec,
    LevelBlock,
    _creation_pow,
    level_q_matrix,
    radial_oracle,
    spectrum,
    theorem_predictions,
    toeplitz_spectrum,
)
from landaucap.orthopoly import monic_orthogonalize, rho_estimates
from landaucap.region import Annulus, Disc, Polygon, region_key
from landaucap.weight import (
    Constant,
    Power,
    Weight,
    ball_reduction_weight,
    mixed_moments,
    weight_from_config,
    weight_key,
)
from test_symmetry import level_block, load_workloads

UNIT_DISC = Weight(Disc(0j, 1.0), Constant(1.0))
SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))
# no reflection through 0 maps it onto itself, so its moments stay complex
ASYMMETRIC_TRIANGLE = Polygon((0j, 1 + 0j, 0.3 + 0.8j))


def _rows(block):
    """The lower triangle of a LevelBlock as exact mp numbers: an mpf on the
    diagonal and within a real class, an mpc within a complex class, and 0
    between classes."""
    n = sum(len(re) for re, _, _ in block.classes)
    rows = [[0] * j + [None] for j in range(n)]
    for c, (re, im, e) in enumerate(block.classes):
        idx = range(c, n, block.stride)
        for t, k in enumerate(idx):
            rows[k][k] = mp.make_mpf(libmp.from_man_exp(re[t][t], e))
            for s, j in enumerate(idx[:t]):
                x = libmp.from_man_exp(re[t][s], e)
                rows[k][j] = (mp.make_mpf(x) if im is None
                              else mp.make_mpc((x, libmp.from_man_exp(im[t][s], e))))
    return rows


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
            T = _rows(level_q_matrix(v, 0, 2.0, 10, 128))
            r2 = mp.mpf(r) ** 2
            for j in range(11):
                exact = g(j + 1, r2) / mp.factorial(j)
                assert abs(T[j][j] - exact) / exact < mp.mpf(10) ** -30
                assert all(x == 0 for x in T[j][:j])


def test_lll_t00_value():
    T = _rows(level_q_matrix(UNIT_DISC, 0, 2.0, 0, 128))
    with mp.workprec(160):
        exact = 1 - mp.exp(-1)
        assert abs(T[0][0] - exact) / exact < mp.mpf(10) ** -35


def test_lll_generic_path_matches_radial():
    Tg = _rows(on_boundary_path(level_q_matrix, UNIT_DISC, 0, 2.0, 8, 128))
    Tr = _rows(level_q_matrix(UNIT_DISC, 0, 2.0, 8, 128))
    with mp.workprec(160):
        diag_rel = max(abs(Tg[j][j] - Tr[j][j]) / abs(Tr[j][j]) for j in range(9))
        assert diag_rel < mp.mpf(10) ** -30
        # dense-path off-diagonals are rounding dust at the working floor
        maxdiag = max(abs(Tr[j][j]) for j in range(9))
        off = max(abs(Tg[j][k]) for j in range(9) for k in range(j))
        assert off < mp.mpf(10) ** -35 * maxdiag


def test_lll_diagonal_bounded_by_ess_sup():
    w = Weight(SQUARE, Constant(0.75))
    T = _rows(level_q_matrix(w, 0, 2.0, 8, 128))
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
    # table, told its stride is 1, assembles the same exact sums and exact
    # zeros off the diagonal. It rounds them onto one grid for the whole
    # block, not one per index, so the two diagonals differ by at most half
    # a unit of each grid, and the eigenvalues agree bit for bit
    N = 6
    T = level_q_matrix(v, q, 2.0, N, 128)

    def as_dense(*args, **kwargs):
        table = mixed_moments(*args, **kwargs)
        assert table.path == "radial" and table.stride == N + q + 1
        table.stride = 1
        return table

    monkeypatch.setattr(landau, "mixed_moments", as_dense)
    D = level_q_matrix(v, q, 2.0, N, 128)
    assert all(len(re) == 1 for re, _, _ in T.classes) and len(D.classes) == 1
    (re, im, e), = D.classes
    # a radial table is real, so both blocks are real
    assert im is None and all(t_im is None for _, t_im, _ in T.classes)
    assert not any(x for row in re for x in row[:-1])
    with mp.workprec(600):
        for j, (t_re, _, t_e) in enumerate(T.classes):
            gap = abs(mp.ldexp(t_re[0][0], t_e) - mp.ldexp(re[j][j], e))
            assert gap <= mp.ldexp(1, e - 1) + mp.ldexp(1, t_e - 1)
    assert spectrum(T, 128).eigs == spectrum(D, 128).eigs


def test_level_q1_disc_diagonal_closed_form():
    with mp.workprec(160):
        for r in (1.0, 1.3):
            v = Weight(Disc(0j, r), Constant(1.0))
            T = _rows(level_q_matrix(v, 1, 2.0, 8, 128))
            r2 = mp.mpf(r) ** 2
            for n in range(9):
                exact = q1_diag(n, r2)
                assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -25
                assert all(x == 0 for x in T[n][:n])


def test_level_q1_unit_disc_tie():
    # the first three level-1 diagonal entries coincide at radius 1
    T = _rows(level_q_matrix(UNIT_DISC, 1, 2.0, 4, 128))
    with mp.workprec(160):
        exact = 1 - 2 * mp.exp(-1)
        for n in range(3):
            assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -30
        assert abs(T[3][3] - exact) / exact > mp.mpf("0.01")


def test_level_q1_generic_path_matches_closed_form():
    T = _rows(on_boundary_path(level_q_matrix, UNIT_DISC, 1, 2.0, 6, 128))
    with mp.workprec(160):
        for n in range(7):
            exact = q1_diag(n, mp.mpf(1))
            assert abs(T[n][n] - exact) / exact < mp.mpf(10) ** -25


def test_level_q2_closed_form_and_hermiticity():
    T = _rows(level_q_matrix(UNIT_DISC, 2, 2.0, 4, 128))
    with mp.workprec(160):
        # creation applied twice to z^0 gives conj(z)^2, so T00 = gamma(3,1)/2!
        exact = g(3, 1) / 2
        assert abs(T[0][0] - exact) / exact < mp.mpf(10) ** -25


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("support", [Disc(0j, 1.0), Disc(0.3 + 0.4j, 0.8), ASYMMETRIC_TRIANGLE],
                         ids=["radial", "dense", "complex"])
def test_level_q_matrix_is_a_lower_triangle(support, q):
    # one integer lower triangle per residue class: row t holds t + 1 real
    # parts and t imaginary ones, and its diagonal is positive; the radial
    # block is one class per index, the dense one a single class whose
    # entries below the diagonal are not zero. Both tables are real (the
    # off-centre disc is turned onto the real axis), so neither block has
    # imaginary parts; the asymmetric triangle's block has them
    N = 5
    T = level_q_matrix(Weight(support, Constant(1.0)), q, 2.0, N, 128)
    assert isinstance(T, LevelBlock)
    assert sum(len(re) for re, _, _ in T.classes) == N + 1
    for c, (re, im, e) in enumerate(T.classes):
        assert len(re) == len(range(c, N + 1, T.stride)) and isinstance(e, int)
        assert (im is None) == (support != ASYMMETRIC_TRIANGLE)
        for t, xs in enumerate(re):
            assert len(xs) == t + 1 and xs[t] > 0 and all(type(x) is int for x in xs)
        for t, ys in enumerate(im or []):
            assert len(ys) == t and all(type(y) is int for y in ys)
    if isinstance(support, Disc) and support.center == 0:
        assert all(len(re) == 1 for re, _, _ in T.classes)
    else:
        (re, im, _), = T.classes
        im = im or [[] for _ in re]
        assert all(any(xs[:-1]) or any(ys) for xs, ys in zip(re[1:], im[1:]))


def _mpc_level_q_rows(table, q, b0, N):
    """The mpc assembly level_q_matrix replaced, kept as its reference:
    every term of entry (j, k), k >= j, read through MomentTable.entry and
    summed in mpc at the table's precision + 256, normalised through
    log-gamma. Returns the lower triangle."""
    prec = table.precision_bits + 256
    polys = [_creation_pow(j, q) for j in range(N + 1)]
    rows = [[mp.mpf(0)] * (j + 1) for j in range(N + 1)]
    with mp.workprec(prec):
        R0_eta = table.scale_radius * mp.sqrt(mp.mpf(b0) / 2)
        unscale = [R0_eta ** n for n in range(2 * (N + q) + 1)]
        log_pi_q = mp.log(mp.pi) + mp.loggamma(q + 1) - mp.log(mp.mpf(b0) / 2)
        f = [mp.exp(-(log_pi_q + mp.loggamma(n + 1)) / 2) for n in range(N + 1)]
        for j in range(N + 1):
            for k in range(j, N + 1, table.stride):
                acc = mp.mpc(0)
                for (m1, l1), c1 in polys[j].items():
                    for (m2, l2), c2 in polys[k].items():
                        a, b = m1 + l2, l1 + m2
                        acc += (c1 * c2) * (table.entry(a, b) * unscale[a + b])
                val = acc * (f[j] * f[k])
                rows[k][j] = val.real if k == j else mp.conj(val)
    return rows


RECTANGLE = Polygon((-1 - 0.5j, 1 - 0.5j, 1 + 0.5j, -1 + 0.5j))
SIDE20_SQUARE = Polygon((-10 - 10j, 10 - 10j, 10 + 10j, -10 + 10j))
ASSEMBLY_SUPPORTS = (("disc-stride1", Disc(0.7 + 0j, 1.0)), ("rectangle-stride2", RECTANGLE),
                     ("square-stride4", SQUARE))


@pytest.mark.parametrize("v, q, N, p, b0", [
    pytest.param(Weight(support, Constant(1.0)), q, 12, 128, 2.0, id=f"{name}-q{q}")
    for name, support in ASSEMBLY_SUPPORTS for q in (0, 1, 2)
] + [
    pytest.param(ball_reduction_weight(1.0), 1, 48, 256, 2.0, id="ball-q1-radial"),
    pytest.param(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 24, 128, 2.0, id="workload-disc"),
    # guard 289: the table's entries carry 685 bits, more than 2p + 32 = 160
    pytest.param(Weight(SIDE20_SQUARE, Constant(1.0)), 0, 6, 64, 2.0, id="side20-square-p64"),
] + [
    # at b0 = 3, r^2 = 3 R0^2 / 2 is not a power of two and F_j not a power of r
    pytest.param(Weight(support, Constant(1.0)), q, 12, 128, 3.0, id=f"{name}-q{q}-b3")
    for name, support in ASSEMBLY_SUPPORTS for q in (0, 1, 2, 3)
] + [
    pytest.param(ball_reduction_weight(1.0), 1, 48, 256, 3.0, id="ball-q1-radial-b3"),
    pytest.param(UNIT_DISC, 2, 12, 128, 3.0, id="unit-disc-q2-b3"),
])
def test_level_q_matrix_matches_the_mpc_loop_within_its_roundings(v, q, N, p, b0, monkeypatch):
    # against the mpc loop on the same table at 256 more bits, every part of
    # entry (k, j) lies within the two roundings of the assembly, P the
    # table's precision + 20 and out = 2p + 32:
    # - F_j F_k: each F_j is the square root of F_j^2 = b0 (r^2)^(j - q) /
    #   (2 pi q! j!), formed at P + 20 bits and rounded once to P, and the
    #   product of two mantissas is exact, so F_j F_k, and the entry with
    #   it, lies within about one unit 2^-P of itself; the moments and the
    #   (r^2)^l are read exactly, so the band allows 2^(3 - P) |T_kj|;
    # - the result rounded once to nearest onto its class's grid 2^e, half a
    #   unit 2^(e - 1).
    # Past the half unit the cases read 1.1 to 1.9 units of 2^-P |T_kj|
    # (the side-20 square 0); the log-gamma normalisation with P-rounded
    # powers of r and a P-rounded F_j F_k that this replaced read 10.9 to
    # 175 units at b0 = 2 and 20 to 1.0e4 at b0 = 3 (Disc(0.7, 1) at
    # q = 3). No part of the block is wider than out, the bits spectrum
    # reads.
    tables = []

    def recording(*args, **kwargs):
        tables.append(mixed_moments(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(landau, "mixed_moments", recording)
    block = level_q_matrix(v, q, b0, N, p)
    rows = _rows(block)
    ref = _mpc_level_q_rows(tables[0], q, b0, N)
    P, out = tables[0].precision_bits + 20, 2 * p + FIXED_GUARD_BITS
    assert all(abs(x) <= 1 << out for re, im, _ in block.classes for part in (re, im or [])
               for row in part for x in row)
    with mp.workprec(P + 256):
        for k, (row, want_row) in enumerate(zip(rows, ref)):
            half_unit = mp.ldexp(1, block.classes[k % block.stride][2] - 1)
            for got, want in zip(row, want_row):
                band = mp.mpf(2) ** (3 - P) * abs(want) + half_unit
                assert abs(mp.re(got) - mp.re(want)) <= band
                assert abs(mp.im(got) - mp.im(want)) <= band


def test_leading_block_is_the_prefix():
    # the leading m x m block of an assembly keeps of each class the rows of
    # its indices below m, and its spectrum matches mp.eighe of that block
    # on every trusted eigenvalue
    p = 128
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 16, p)
    for m in (9, 13):
        lead = LevelBlock(T.stride, tuple(
            (re[:len(range(c, m, T.stride))], im and im[:len(range(c, m, T.stride))], e)
            for c, (re, im, e) in enumerate(T.classes[:m])))
        sp = spectrum(lead, p)
        assert len(sp.eigs) == m and sp.eigen_solve == "householder-ql"
        with mp.workprec(p + 128):
            ref = sorted(mp.eighe(_full(_rows(lead)), eigvals_only=True), reverse=True)
            for got, want in zip(sp.eigenvalues()[:sp.trusted_count], ref):
                assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want


# ----------------------------------------------------------------- spectrum

def test_spectrum_diagonal_exact():
    # a stride past N leaves one index per class, each its own eigenvalue
    sp = spectrum(level_block([[3], [0, 1], [0, 0, 2]], 3, 128), 128)
    with mp.workprec(128):
        assert sp.log_eigs == (mp.log(3), mp.log(2), mp.log(1))
    assert sp.trusted_count == 3
    assert sp.matrix_residual == 0.0


def test_spectrum_2x2_complex_closed_form():
    sp = spectrum(level_block([[mp.mpf(2)], [mp.mpc(0, -1), mp.mpf(1)]], 1, 128), 128)
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
    # row t of a class holds t + 1 real parts and t imaginary ones, or no
    # imaginary part at all (im None, a real class): a square class, a ragged
    # real row, an imaginary part on the diagonal, a missing imaginary row and
    # an empty class are all rejected, real or complex
    for re, im in (([[1, 2], [2, 1]], [[], [0]]), ([[1], [2]], [[], [0]]),
                   ([[1], [2, 1]], [[0], [0]]), ([[1], [2, 1]], [[]]), ([], []),
                   ([[1, 2], [2, 1]], None), ([[1], [2]], None), ([[1], [2, 1, 0]], None),
                   ([], None), ([[1], [2, 1]], [])):
        with pytest.raises(ValueError, match="lower triangle"):
            spectrum(LevelBlock(1, ((re, im, 0),)), 64)
    # the same 2x2 class, real and complex with a zero imaginary part, is
    # accepted and solved alike
    real = spectrum(LevelBlock(1, (([[1 << 80], [1 << 78, 1 << 79]], None, -80),)), 64)
    zero = spectrum(LevelBlock(1, (([[1 << 80], [1 << 78, 1 << 79]], [[], [0]], -80),)), 64)
    assert real.eigs == zero.eigs and real.eigen_solve == "householder-ql"


def test_diagonal_block_skips_the_integer_conversion(monkeypatch):
    # a radial block is one class per index: its eigenvalues are its
    # diagonal, each rounded once to p, and it never reaches the Householder
    # reduction; a direct sum of single indices leaves no residual to report
    def unused(*args):
        raise AssertionError("a diagonal block reached _householder_tridiagonal")

    monkeypatch.setattr(landau, "_householder_tridiagonal", unused)
    T = level_q_matrix(UNIT_DISC, 1, 2.0, 12, 64)
    sp = spectrum(T, 64)
    assert sp.eigen_solve == "diagonal"
    assert sp.matrix_residual == 0.0
    with mp.workprec(64):
        assert sp.eigenvalues() == tuple(sorted((+mp.ldexp(re[0][0], e) for re, _, e in T.classes),
                                                reverse=True))


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
    # past the run and rounded once onto the grid of a level block: every
    # eigenvalue must land within a few units of 2^-p s_1
    with mp.workprec(prec + 128):
        lams = [mp.gammainc(k, 0, 1, regularized=True) for k in range(1, n + 1)]
    a = _dense_with_spectrum(lams, 20 + n, prec + 128)
    sp = spectrum(level_block([row[:j + 1] for j, row in enumerate(a)], 1, prec), prec)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(prec + 128):
        bound = 4 * mp.mpf(2) ** -prec * lams[0]
        for got, want in zip(sp.eigenvalues(), lams):
            assert abs(got - want) <= bound


@pytest.mark.parametrize("N, p", [(48, 256), (64, 64), (96, 64)])
def test_centred_disc_spectrum_within_two_units(N, p):
    # q = 0 on the unit disc: s_n = gamma(n, 1)/(n-1)! exactly, and every
    # eigenvalue must lie within 2^(1-p) relative of it. Each index is its
    # own class on its own grid: at N = 64 and 64 bits one grid for the
    # whole diagonal rounded 38 of the 65 eigenvalues away from this
    sp = toeplitz_spectrum(UNIT_DISC, 0, 2.0, N, p)
    with mp.workprec(p + 64):
        for n, got in enumerate(sp.eigenvalues(), start=1):
            exact = mp.gammainc(n, 0, 1, regularized=True)
            assert abs(got - exact) <= mp.mpf(2) ** (1 - p) * exact, n


def test_spectrum_diagonal_beyond_fixed_range():
    # 2^-400 lies far below 2^-p of the other index; each class has its own
    # grid, so with a stride past N it comes back exactly
    tiny = mp.mpf(2) ** -400
    sp = spectrum(level_block([[1], [0, tiny]], 2, 64), 64)
    with mp.workprec(64):
        assert sp.log_eigs == (mp.log(1), mp.log(tiny))
    assert sp.eigen_solve == "diagonal"
    assert sp.matrix_residual == 0.0


def test_spectrum_decides_diagonal_from_exact_zeros():
    # the exact zeros are those between the classes of the stride: an
    # off-diagonal entry within a class that rounds to a zero integer on its
    # grid is not one, so the class is reduced, not read as diagonal
    tiny = mp.mpf(2) ** -400
    rows = [[1], [tiny, mp.mpf(1) / 2]]
    dense = level_block(rows, 1, 64)
    (_, im, _), = dense.classes
    assert dense.classes[0][0][1][0] == 0 and im[1] == [0]
    sp = spectrum(dense, 64)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(64):
        assert sp.eigenvalues() == (1, mp.mpf(1) / 2)
    # with stride 2 the entry lies between the classes and is dropped
    assert spectrum(level_block(rows, 2, 64), 64).eigen_solve == "diagonal"


def test_round_shift_rounds_to_nearest_even_as_libmp():
    # m 2^-s to the nearest integer, ties to even, for either sign; exact
    # when s <= 0
    rng = random.Random(7)
    for _ in range(3000):
        m, s = rng.randrange(-(1 << 80), 1 << 80), rng.randint(-8, 90)
        want = m << -s if s <= 0 else libmp.to_int(libmp.from_man_exp(m, -s), libmp.round_nearest)
        assert round_shift(m, s) == want, (m, s)
    for m, want in ((1, 0), (3, 2), (5, 2), (7, 4), (-1, 0), (-3, -2), (-5, -2), (-7, -4)):
        assert round_shift(m, 1) == want, m


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
    monkeypatch.setattr(landau, "_QL_ITERATIONS", 0)
    with pytest.raises(NonConvergenceError, match="no convergence"):
        spectrum(T, 128)


def _record_ql_input(monkeypatch):
    """Wrap the QL so that each call's diagonal and squared sub-diagonal are kept."""
    calls = []
    real = landau._tridiagonal_ql

    def recording(diag, sub2, bits, p):
        calls.append((list(diag), list(sub2)))
        return real(diag, sub2, bits, p)

    monkeypatch.setattr(landau, "_tridiagonal_ql", recording)
    return calls


def test_ql_starts_at_the_small_end(monkeypatch):
    # the off-centre disc's tridiagonal falls from 2^-1 to 2^-92 down its
    # diagonal; the QL deflates from the top, so it must receive the small
    # end first (72 QL sweeps top-down, 28 small end first, re-measured on
    # its real block)
    calls = _record_ql_input(monkeypatch)
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 24, 128)
    spectrum(T, 128)
    (d, sub2), = calls
    assert abs(d[0]) <= abs(d[-1])
    assert len(sub2) == len(d) - 1


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
    up = spectrum(level_block(_graded_tridiagonal(n, p, True), 1, p), p)
    down = spectrum(level_block(_graded_tridiagonal(n, p, False), 1, p), p)
    (d_up, e_up), (d_down, e_down) = calls
    # the diagonal 2^(-3k) is exact on the integer grid, small end first
    assert d_up[0] > 0 and d_up[-1] == d_up[0] << 3 * (n - 1)
    assert (d_down, e_down) == (d_up, e_up)
    assert up.eigs == down.eigs
    with mp.workprec(p + 128):
        ref = sorted(mp.eighe(_full(_graded_tridiagonal(n, p, True)), eigvals_only=True),
                     reverse=True)
        for got, want in zip(up.eigenvalues(), ref):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want


QL_BLOCKS = {
    "offcenter-disc": Disc(0.7 + 0j, 1.0),
    "corner-square": Polygon((0j, 1 + 0j, 1 + 1j, 1j)),
    "vertex-triangle": Polygon((0j, 1 + 0j, complex(0.5, math.sqrt(3) / 2))),
}


@functools.lru_cache(maxsize=None)
def _ql_input(name, q, N, p):
    """The integer tridiagonal the QL receives for the ground-field block of
    QL_BLOCKS[name], with its grid exponent and fraction bits."""
    (re, im, e), = level_q_matrix(Weight(QL_BLOCKS[name], Constant(1.0)), q, 2.0, N, p).classes
    bits = 2 * p + FIXED_GUARD_BITS
    re, im, e = landau._class_columns(re, im, e, bits)
    diag, sub2 = landau._householder_tridiagonal(re, im, bits)
    if abs(diag[0]) > abs(diag[-1]):
        diag.reverse()
        sub2.reverse()
    return tuple(diag), tuple(sub2), e, bits


@pytest.mark.parametrize("name, q, N, p", [
    pytest.param(name, q, N, p, id=f"{name}-q{q}-N{N}-p{p}")
    for name, q, N, p in [("offcenter-disc", q, N, p) for q in (0, 1, 2)
                          for N, p in ((24, 128), (48, 256))]
    + [("corner-square", 0, N, p) for N, p in ((24, 128), (48, 256), (64, 256))]
    + [("vertex-triangle", 0, 24, 128)]
])
def test_integer_ql_matches_mpmath_ql(name, q, N, p):
    # every eigenvalue rounded to p equals that of mpmath's implicit QL
    # (tridiag_eigen, the routine behind mp.eighe) at 2p + 52 bits on the
    # same Householder output
    diag, sub2, e, bits = _ql_input(name, q, N, p)
    eigs, guard = landau._tridiagonal_ql(diag, sub2, bits, p)
    with mp.workprec(bits + 20):
        d = [mp.ldexp(x, e) for x in diag]
        tridiag_eigen(mp, d, [mp.ldexp(mp.sqrt(s), e) for s in sub2] + [mp.zero])
    with mp.workprec(p):
        want = sorted(+x for x in d)
        assert sorted(+mp.ldexp(x, e - guard) for x in eigs) == want


@pytest.mark.parametrize("a, p", [(1e-18, 64), (1e-20, 64), (1e-30, 96), (1e-38, 128)])
def test_integer_ql_converges_past_a_tiny_coupling(a, p):
    # a disc of radius 1.5 barely off 0 gives a tridiagonal whose first
    # coupling is 2^-50 or less of its diagonal, yet above the deflation
    # floor; reversed, every chase starts below it, and with the guard of
    # the diagonal's span alone each of these took more than 30 sweeps for
    # one eigenvalue
    v = Weight(Disc(complex(a, 0), 1.5), Constant(1.0))
    T = level_q_matrix(v, 0, 2.0, 6, p)
    (re, im, e), = T.classes
    bits = 2 * p + FIXED_GUARD_BITS
    diag, sub2 = landau._householder_tridiagonal(*landau._class_columns(re, im, e, bits)[:2], bits)
    assert abs(diag[0]) > abs(diag[-1])
    assert sub2[0] << 100 < diag[0] ** 2 < sub2[0] << 2 * (p + 40)
    sp = spectrum(T, p)
    assert sp.eigen_solve == "householder-ql"
    with mp.workprec(p + 128):
        ref = sorted(mp.eighe(_full(_rows(T)), eigvals_only=True), reverse=True)
        for got, want in zip(sp.eigenvalues(), ref):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want


def test_integer_ql_converges_in_three_sweeps_an_eigenvalue(monkeypatch):
    # the corner square's tridiagonal at N=64 spans 412 bits; with too few
    # guard bits f = s e underflows at its small end and the QL stalls
    diag, sub2, e, bits = _ql_input("corner-square", 0, 64, 256)
    monkeypatch.setattr(landau, "_QL_ITERATIONS", 3)
    eigs, guard = landau._tridiagonal_ql(diag, sub2, bits, 256)
    assert len(eigs) == 65


def test_integer_ql_splits_where_a_rotation_vanishes():
    # at 4 fraction bits a sweep of this block meets a rotation whose f and
    # g both round to 0; the QL splits the matrix there, as imtql1 does on
    # underflow, instead of dividing by g; it keeps the trace exactly and
    # stays within 1.5 of the eigenvalues -11.964, -0.738 and 7.702
    eigs, guard = landau._tridiagonal_ql([4, -5, -4], [35, 38], 4, 2)
    assert guard == 0 and sum(eigs) == -5
    for got, want in zip(sorted(eigs), (-11.964, -0.738, 7.702)):
        assert abs(got - want) <= 1.5


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
        ref = sorted(mp.eighe(_full(_rows(T)), eigvals_only=True), reverse=True)
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


WIDE_LEVEL_CASES = [
    pytest.param(Weight(Disc(0j, 3.0), Constant(1.0)), q, id=f"disc3-q{q}") for q in (0, 1, 2)
] + [
    pytest.param(Weight(Polygon((-2 - 2j, 2 - 2j, 2 + 2j, -2 + 2j)), Constant(1.0)), q,
                 id=f"side4-square-q{q}") for q in (0, 1, 2)
] + [pytest.param(ball_reduction_weight(10.0), 1, id="ball10-q1")] + [
    # the moments carry their fixed-point width into the assembly: with them
    # rounded to p + g, q = 6 and 8 read 55 and 1.9e3 units on Disc(0, 3),
    # 174 and 762 on Disc(0, 1.4)
    pytest.param(Weight(Disc(0j, r), Constant(1.0)), q, id=f"disc{r}-q{q}")
    for r in (3.0, 1.4) for q in (6, 8)
]


@pytest.mark.parametrize("v, q", WIDE_LEVEL_CASES)
def test_wide_support_level_q_within_two_units(v, q):
    # beta R0^2 = 9, 8 and 100: the creation coefficients' moments cancel,
    # which a table rounded to p bits turned into up to 233 units; the table
    # carries the kernel's guard bits, so every trusted s_n lies within
    # 2^(1-p) of itself of a 512-bit run
    p = 128
    lo = toeplitz_spectrum(v, q, 2.0, 24, p)
    hi = toeplitz_spectrum(v, q, 2.0, 24, 512)
    assert lo.trusted_count == 25
    with mp.workprec(600):
        for n, (got, want) in enumerate(zip(lo.eigenvalues(), hi.eigenvalues()), start=1):
            assert abs(got - want) <= mp.mpf(2) ** (1 - p) * want, n


@pytest.mark.parametrize("seed", [1, 7])
def test_workload_disc_tail_against_a_512_bit_run(seed):
    # q = 0, N = 24, 128 bits: the worst trusted s_n, s_25 on both seeds,
    # lies 1.0e9 (seed 1) and 8.6e8 (seed 7) units of 2^-128 s_n from a
    # 512-bit run, against 8.7e12 and 3.2e14 with the moments rounded to
    # p + g and each level-q term at p + g + 20; the band, 1e10 units, is
    # 10 times the first. The tail is ill-conditioned, so this is not the
    # 2-unit band of the wide supports, and its last digits move with any
    # rounding of the block: on the literal complex path the same figure
    # read 4.7e8 and 4.6e8, and 1.4e9 and 5.6e8 on Disc(0.7, 1) and
    # Disc(0.7i, 1), which now share one turned block and read 8.6e8.
    # The disc is read back from JSON, as the command line reads it
    config = json.loads(json.dumps(load_workloads().offcenter_config(seed)))
    v = weight_from_config(config["weight"])
    lo = toeplitz_spectrum(v, 0, 2.0, 24, 128)
    hi = toeplitz_spectrum(v, 0, 2.0, 24, 512)
    assert lo.trusted_count == 25
    with mp.workprec(600):
        for n, (got, want) in enumerate(zip(lo.eigenvalues(), hi.eigenvalues()), start=1):
            assert abs(got - want) <= 10 ** 10 * mp.mpf(2) ** -128 * want, n


def test_spectrum_keeps_the_input_precision():
    # level_q_matrix rounds each entry once onto a grid of 2p + 32 bits, the
    # width spectrum reads; the small eigenvalues of the off-centre block are
    # ill-conditioned against rounding it to p, which moved s_25 by 2.2e-23
    # relative. Read at a higher p, the block is shifted up exactly, the same
    # integers as the block rounded onto the wider grid
    T = level_q_matrix(Weight(Disc(0.7 + 0j, 1.0), Constant(1.0)), 0, 2.0, 24, 128)
    lo = spectrum(T, 128)
    hi = spectrum(T, 256)
    assert hi.eigs == spectrum(level_block(_rows(T), T.stride, 256), 256).eigs
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
    sp_dir = spectrum(level_block(T, 1, 128), 128)
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
    # level 1 at b0 = 3 on the ball chord: the closed-form table built at b0
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
@example(r=1.5, a=1e-30)  # a coupling of 2^-101 relative: the QL once stalled
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
