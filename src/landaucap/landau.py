"""Truncated Landau-level compressions and their spectral asymptotics.

The compression of multiplication by a compactly supported weight v onto the
q-th Landau level is represented by its top-left (N+1)x(N+1) block in the
normalized level basis, kept from assembly to eigen-solve as its lower
triangle with a real diagonal, the moment table's own layout.  It is
assembled from Gaussian mixed moments, reduced to a real tridiagonal matrix
by Householder reflections on fixed-point Python integers at 2p + 32 bits
(p the working precision), and the tridiagonal solved by mpmath's implicit
QL at 2p + 52 bits, each eigenvalue rounded once to p bits.  The s_n decay
super-geometrically, so the tridiagonal is steeply graded; the QL deflates
from the top, and it is handed the tridiagonal small end first, which takes
fewer iterations.  radial_oracle gives the eigenvalues of a centred radial
weight by 1d quadrature, and theorem_predictions the n-th-root limits that
the minimal norms and the capacity predict for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp
from mpmath.matrices.eigen_symmetric import tridiag_eigen

from ._mp import FIXED_GUARD_BITS, dot, from_fixed, hermitian_cholesky, to_fixed
from .chebyshev import CapacityEstimate
from .errors import NonConvergenceError
from .region import region_key
from .weight import (
    Constant,
    Weight,
    _radial_applicable,
    _radial_interval,
    mixed_moments,
    weight_key,
)

__all__ = [
    "LandauBasisSpec",
    "ToeplitzSpectrum",
    "level_q_matrix",
    "spectrum",
    "toeplitz_spectrum",
    "radial_oracle",
    "theorem_predictions",
]

ORACLE_MSG = "oracle requires centered radial weight"

@dataclass(frozen=True)
class LandauBasisSpec:
    q: int
    b0: float
    N: int

    def __post_init__(self):
        if not (isinstance(self.q, int) and self.q >= 0):
            raise ValueError("q must be a nonnegative integer")
        if not self.b0 > 0:
            raise ValueError("b0 must be positive")
        if self.N < self.q:
            raise ValueError("truncation N must be >= q")


@dataclass
class ToeplitzSpectrum:
    log_eigs: tuple         # log s_n descending, mpf (-inf for nonpositive noise)
    matrix_residual: float  # Frobenius-norm gap / trace; 0 on the diagonal path
    trusted_count: int      # eigenvalues above s_1 * 10^(-p/3)
    eigen_solve: str        # "diagonal", or "householder-ql" for a dense block
    eigs: tuple             # s_n descending, each rounded once to p (0 for nonpositive noise)

    def eigenvalues(self):
        """s_1 >= s_2 >= ... as mpf at the run's precision (nonpositive noise
        entries collapse to 0), not read back from log_eigs, whose rounding
        would cost log2|log s_n| bits."""
        return self.eigs


def _sorted_spectrum(eigs, residual: float, precision_bits: int,
                     eigen_solve: str) -> ToeplitzSpectrum:
    """Sort eigenvalues descending, count those above s_1 * 10^(-p/3) and
    take logs, all at the caller's working precision."""
    eigs = sorted(eigs, reverse=True)
    s1 = eigs[0] if eigs else mp.mpf(0)
    trusted = 0
    if s1 > 0:
        floor = s1 * mp.mpf(10) ** (-(precision_bits / mp.mpf(3)))
        trusted = sum(1 for e in eigs if e > floor)
    log_eigs = tuple(mp.log(e) if e > 0 else mp.ninf for e in eigs)
    with mp.workprec(precision_bits):
        values = tuple(+e if e > 0 else mp.zero for e in eigs)
    return ToeplitzSpectrum(log_eigs, residual, trusted, eigen_solve, values)


# ------------------------------------------------------------ matrix assembly

def _creation_pow(j: int, q: int) -> dict:
    """Polynomial part of the q-fold creation image of z^j at b0 = 2.

    Monomials are keyed (m, l) for z^m conj(z)^l with exact integer
    coefficients; one application maps P to dP/dz - conj(z) P.
    """
    poly = {(j, 0): 1}
    for _ in range(q):
        nxt = {}
        for (m, l), c in poly.items():
            if m > 0:
                key = (m - 1, l)
                nxt[key] = nxt.get(key, 0) + c * m
            key = (m, l + 1)
            nxt[key] = nxt.get(key, 0) - c
        poly = nxt
    return poly


def level_q_matrix(v: Weight, q: int, b0: float, N: int, precision_bits: int):
    """Compression matrix on the q-th level via the symbolic creation rule.

    Basis functions at b0=2 are (polynomial in z, conj z) x exp(-|z|^2/2)
    obtained by q applications of P -> dP/dz - conj(z) P to z^j; entries are
    finite combinations of Gaussian mixed moments up to degree N + q with an
    overall prefactor 1/q! (the creation-operator modulus (2 b0)^q cancels
    the (2 b0)^(-q) of the quadratic form).  A field b0 enters through the
    dilation z -> z / eta, eta = sqrt(b0/2), which carries the level at b0
    unitarily onto the one at 2: the moments of v(z / eta) at b0 = 2 are
    eta^(a+b+2) times those of v at b0, so the table G of v is built at b0
    itself and eta is folded into the powers (R0 eta)^(a+b) that unscale it
    and into the prefactor.  At q = 0 this is the ground level,
    T_jk = G_jk / sqrt(pi^2 (2/b0)^(j+k+2) j! k!); the factorials enter
    through log-gamma in log domain.

    Every monomial of the level-q image of z^j has m - l = j - q, so entry
    (j, k) combines moments with a - b = j - k. A radial table is zero off
    its diagonal, so on one only the entries k = j are assembled and the
    rest are exactly 0.

    The block is Hermitian and returned as its lower triangle, rows[j][k]
    for k <= j, the layout spectrum reads: entry (j, k), k >= j, is formed
    and its conjugate stored at rows[k][j], and the diagonal keeps its
    real part, an mpf.  The leading m x m block is the prefix rows[:m].

    A boundary table is checked by hermitian_cholesky on its stored lower
    triangle, its log pivots unused: a non-positive pivot at the working
    precision raises DegenerateMomentError naming the degree.
    """
    LandauBasisSpec(q, float(b0), N)  # validate the triple
    table = mixed_moments(v, "gaussian", maxdeg=N + q, precision_bits=precision_bits, b0=b0)
    if table.path != "radial":
        hermitian_cholesky(table.rows, table.precision_bits)
    polys = [_creation_pow(j, q) for j in range(N + 1)]
    rows = [[mp.mpf(0)] * (j + 1) for j in range(N + 1)]
    with mp.workprec(precision_bits + 10):
        R0_eta = table.scale_radius * mp.sqrt(mp.mpf(b0) / 2)
        unscale = [R0_eta ** n for n in range(2 * (N + q) + 1)]
    with mp.workprec(precision_bits + 20):
        log_pi_q = mp.log(mp.pi) + mp.loggamma(q + 1) - mp.log(mp.mpf(b0) / 2)
        half_lg = [mp.loggamma(n + 1) / 2 for n in range(N + 1)]
        for j in range(N + 1):
            for k in ([j] if table.path == "radial" else range(j, N + 1)):
                acc = mp.mpc(0)
                for (m1, l1), c1 in polys[j].items():
                    for (m2, l2), c2 in polys[k].items():
                        a, b = m1 + l2, l1 + m2
                        acc += (c1 * c2) * (table.entry(a, b) * unscale[a + b])
                val = acc * mp.e ** (-(log_pi_q + half_lg[j] + half_lg[k]))
                rows[k][j] = val.real if k == j else mp.conj(val)
    return rows


# -------------------------------------------------------------- eigenvalues

def _fixed_columns(rows, bits: int):
    """Integer columns (re, im) of the Hermitian matrix whose lower triangle
    is rows, over one power of two 2^e.

    The triangle is read at bits precision, converted once with to_fixed
    (its largest entry keeping bits bits) and doubled onto half that step,
    a guard bit for the reduction's own roundings.  Column j holds a_kj
    for every k, conjugates mirrored above the diagonal.
    """
    parts = []
    with mp.workprec(bits):
        for row in rows:
            row = [mp.mpc(z) for z in row]
            parts += [[z.real for z in row], [z.imag for z in row]]
    ints, e = to_fixed(parts, bits)
    lre = [[2 * x for x in part] for part in ints[0::2]]
    lim = [[2 * y for y in part] for part in ints[1::2]]
    n = len(rows)
    re = [lre[j][:j] + [lre[k][j] for k in range(j, n)] for j in range(n)]
    im = [[-y for y in lim[j][:j]] + [lim[k][j] for k in range(j, n)] for j in range(n)]
    return re, im, e - 1


def _householder_tridiagonal(re, im, bits: int):
    """Reduce exactly Hermitian integer columns (re, im) to a real
    tridiagonal matrix by complex Householder reflections carried at bits
    fraction bits; returns the integer diagonal and the exact squared
    sub-diagonal moduli, on the scale of the input.

    For column k the entries x below the diagonal give the reflector
    u = (x - alpha e_1) sqrt(2) / |x - alpha e_1|, |u|^2 = 2, with
    alpha = -|x| x_0/|x_0|; the trailing block B becomes
    B - u w^H - w u^H with p = B u, K = u^H p / 2 and w = p - K u, exactly
    Hermitian again.  The sub-diagonal alpha keeps only its modulus |x|: a
    diagonal unitary similarity takes the phases away.  The columns are
    overwritten.
    """
    n = len(re)
    one = 1 << bits
    half = one >> 1
    diag, sub2 = [], []
    for k in range(n - 1):
        diag.append(re[k][k])
        xr, xi = re[k][k + 1:], im[k][k + 1:]
        s = dot(xr, xr) + dot(xi, xi)
        sub2.append(s)
        if not (any(xr[1:]) or any(xi[1:])):
            continue            # x is already a multiple of e_1
        nx = math.isqrt(s << 2 * bits)                                  # |x| 2^bits
        a0 = math.isqrt((xr[0] * xr[0] + xi[0] * xi[0]) << 2 * bits)   # |x_0| 2^bits
        den = math.isqrt(nx * (nx + a0))        # sqrt(|x| (|x| + |x_0|)) 2^bits
        ur = [((x << 2 * bits) + (den >> 1)) // den for x in xr]
        ui = [((x << 2 * bits) + (den >> 1)) // den for x in xi]
        if a0:
            # u_0 = (x_0/|x_0|) (|x_0| + |x|) / sqrt(|x| (|x| + |x_0|))
            num, div = (a0 + nx) << 2 * bits, a0 * den
            ur[0] = (xr[0] * num + (div >> 1)) // div
            ui[0] = (xi[0] * num + (div >> 1)) // div
        else:
            ur[0], ui[0] = one, 0
        cols = range(k + 1, n)
        pr, pi = [], []
        for j in cols:
            # p_j = sum_i B_ji u_i = conj(sum_i B_ij conj(u_i)), B_ij in column j
            cr, ci = re[j][k + 1:], im[j][k + 1:]
            pr.append((dot(cr, ur) + dot(ci, ui) + half) >> bits)
            pi.append((dot(cr, ui) - dot(ci, ur) + half) >> bits)
        k2 = dot(ur, pr) + dot(ui, pi)                                  # 2K 2^bits
        wr = [x - ((k2 * y + one * one) >> 2 * bits + 1) for x, y in zip(pr, ur)]
        wi = [x - ((k2 * y + one * one) >> 2 * bits + 1) for x, y in zip(pi, ui)]
        for t, j in enumerate(cols):
            a, b, c, d = wr[t], wi[t], ur[t], ui[t]
            cr, ci = re[j], im[j]
            # B_ij -= u_i conj(w_j) + w_i conj(u_j) on and below the diagonal,
            # and above it the conjugates of the columns already updated
            cr[j:] = [z - ((a * x + b * y + c * g + d * h + half) >> bits)
                      for z, x, y, g, h in zip(cr[j:], ur[t:], ui[t:], wr[t:], wi[t:])]
            ci[j:] = [z - ((a * y - b * x + c * h - d * g + half) >> bits)
                      for z, x, y, g, h in zip(ci[j:], ur[t:], ui[t:], wr[t:], wi[t:])]
            cr[k + 1:j] = [re[i][j] for i in range(k + 1, j)]
            ci[k + 1:j] = [-im[i][j] for i in range(k + 1, j)]
    if n:
        diag.append(re[n - 1][n - 1])
    return diag, sub2


def spectrum(rows, precision_bits: int) -> ToeplitzSpectrum:
    """Eigenvalues of a Hermitian compression block by Householder
    tridiagonalization and implicit QL.

    The block is its lower triangle rows[j][k], k <= j, with a real
    diagonal (the layout level_q_matrix returns); a ValueError is raised
    when row j does not hold j + 1 entries or a diagonal entry is not real.
    The triangle is read at 2p + FIXED_GUARD_BITS bits, not rounded to p
    first (level_q_matrix assembles it at p + 20 bits), converted once to
    integers over a shared power of two and mirrored into the upper
    triangle, exactly Hermitian.  Householder reflections reduce them to a
    real tridiagonal matrix, whose eigenvalues mpmath's implicit QL finds
    at 2p + 52 bits; each is then rounded once to p = precision_bits.  The
    QL (EISPACK's imtql2) deflates from the top with a shift from the
    leading 2x2 block, so, as LAPACK's dsteqr does, the tridiagonal is
    reversed when |d_0| > |d_(n-1)|: a graded one is then started at its
    small end, and the off-centre disc's at N=24 takes 34 iterations
    instead of 91.  Reversal is a permutation similarity and leaves the
    spectrum unchanged.  Eigenvalues are reported sorted descending in log
    domain, trusted_count marks how many exceed the relative floor
    s_1 * 10^(-p/3), and eigen_solve names the path taken.  A block that is
    exactly zero below its diagonal skips the integer conversion: its
    sorted diagonal, each entry rounded once to p, is the spectrum, and
    matrix_residual is 0.  Any other block is reduced, even when its
    off-diagonal integers vanish, and matrix_residual is
    sqrt(|sum |a_ij|^2 - sum s_n^2|) / trace, which a unitary similarity
    keeps at zero.  Raises NonConvergenceError when the QL does not
    converge.
    """
    p = precision_bits
    if any(len(row) != j + 1 for j, row in enumerate(rows)):
        raise ValueError("rows must be a lower triangle: row j holds j + 1 entries")
    if any(mp.im(row[-1]) for row in rows):
        raise ValueError("the diagonal of a Hermitian matrix must be real")
    bits = 2 * p + FIXED_GUARD_BITS
    with mp.workprec(p):
        if not any(x for row in rows for x in row[:-1]):
            eigs = [+mp.re(row[-1]) for row in rows]  # each rounded once to p
            return _sorted_spectrum(eigs, 0.0, p, "diagonal")
        re, im, e = _fixed_columns(rows, bits)
        fro2 = sum(dot(cr, cr) + dot(ci, ci) for cr, ci in zip(re, im))
        diag, sub2 = _householder_tridiagonal(re, im, bits)
        # the QL runs 20 bits past the integers, so every bit they hold enters
        with mp.workprec(bits + 20):
            d = [from_fixed(x, None, e, mp.prec) for x in diag]
            sub = [mp.ldexp(mp.sqrt(s), e) for s in sub2]
            trace = mp.fsum(d)
            if abs(d[0]) > abs(d[-1]):  # start a graded QL at its small end
                d.reverse()
                sub.reverse()
            sub.append(mp.mpf(0))
            try:
                tridiag_eigen(mp, d, sub)
            except RuntimeError as err:
                if not str(err).startswith("tridiag_eigen: no convergence"):
                    raise
                raise NonConvergenceError(str(err)) from err
            gap = mp.ldexp(fro2, 2 * e) - mp.fsum(x * x for x in d)
            residual = float(mp.sqrt(abs(gap)) / trace) if trace > 0 else 0.0
        eigs = [+x for x in d]  # each rounded once to p
        return _sorted_spectrum(eigs, residual, p, "householder-ql")


def toeplitz_spectrum(v: Weight, q: int = 0, b0: float = 2.0, N: int = 48,
                      precision_bits: int = 256) -> ToeplitzSpectrum:
    """Assemble the level-q compression of v and diagonalize it."""
    rows = level_q_matrix(v, q, b0, N, precision_bits)
    return spectrum(rows, precision_bits)


# ------------------------------------------------------------- radial oracle

def radial_oracle(v: Weight, b0: float, N: int, precision_bits: int,
                  q: int = 0) -> ToeplitzSpectrum:
    """Level-q eigenvalues of a centered radial weight by 1d quadrature.

    Separation of variables diagonalizes the compression in the angular
    momentum basis: at level q the candidate attached to basis index j is

        (p! / (p + a)!) int t^a [L_p^(a)(t)]^2 e^(-t) u(sqrt t) dt

    with m = j - q, a = |m|, p = q + min(m, 0), L the associated Laguerre
    polynomial and u(rho) = v(rho sqrt(2/b0)) the profile seen at field 2.
    At q = 0 this is (1/j!) int t^j e^(-t) u(sqrt t) dt, and for
    characteristic profiles it collapses to gamma(j+1, r^2)/j!. Independent
    of the creation-polynomial matrix assembly, so it serves as an oracle.
    """
    if not _radial_applicable(v):
        raise ValueError(ORACLE_MSG)
    LandauBasisSpec(q, float(b0), N)  # validates q, b0, N together
    with mp.workprec(precision_bits + 20):
        # reduce to b0 = 2 inside the integral: t = (b0/2) rho^2, exact in mpf
        scale = mp.mpf(b0) / 2
        lo, hi = _radial_interval(v.support)
        lo2, hi2 = scale * lo * lo, scale * hi * hi
        d = v.density
        dens = lambda t: d.value(mp.sqrt(t / scale))
        vals = []
        for j in range(N + 1):
            m = j - q
            alpha = abs(m)
            pdeg = q + min(m, 0)
            if q == 0 and isinstance(d, Constant):
                vals.append(d.value(0) * mp.gammainc(j + 1, lo2, hi2) / mp.factorial(j))
                continue
            norm = mp.e ** (mp.loggamma(pdeg + 1) - mp.loggamma(pdeg + alpha + 1))
            f = lambda t: t ** alpha * mp.laguerre(pdeg, alpha, t) ** 2 * mp.e ** (-t) * dens(t)
            vals.append(norm * mp.quad(f, [lo2, hi2]))
        return _sorted_spectrum(vals, 0.0, precision_bits, "diagonal")


# --------------------------------------------------------------- predictions

def theorem_predictions(v_or_w: Weight, q: int, b0: float, rho, cap) -> dict:
    """Predicted n-th-root limits for the three perturbed eigenvalue families.

    rho is a RhoEstimate for the plain moments of v_or_w and cap either a
    CapacityEstimate for supp v_or_w or a known capacity value; the ground
    family gets b0 rho/2 (limsup/liminf from the tail envelope), the level-q
    family (b0/2) Cp^2, and the three-dimensional family (b0 rho/2)^2, plus
    the log-asymptote coefficients -n log n and log(b0/2) + 2 log Cp.
    """
    LandauBasisSpec(q, float(b0), q)
    wkey = weight_key(v_or_w)
    if getattr(rho, "weight_key", None) not in (None, wkey):
        raise ValueError("rho estimate provenance does not match this weight")
    skey = region_key(v_or_w.support)
    if isinstance(cap, CapacityEstimate):
        if cap.region_key not in (None, skey):
            raise ValueError("capacity estimate provenance does not match supp v")
        cp = mp.mpf(cap.extrapolated)
    else:
        cp = mp.mpf(cap)
    if not cp > 0:
        raise ValueError("capacity must be positive")
    half_b0 = mp.mpf(b0) / 2
    t1 = {"limsup": half_b0 * rho.rho_plus_hat, "liminf": half_b0 * rho.rho_minus_hat,
          "extrapolated": half_b0 * rho.extrapolated}
    t3 = {key: val ** 2 for key, val in t1.items()}
    return {
        "theorem1": t1,
        "theorem2": {"limit": half_b0 * cp ** 2},
        "theorem3": t3,
        "log_asymptote": {
            "nlogn_coefficient": mp.mpf(-1),
            "linear_coefficient": mp.log(half_b0) + 2 * mp.log(cp),
        },
        "q": q,
        "b0": float(b0),
        "provenance": {"weight": wkey, "support": skey},
    }
