"""Truncated Landau-level compressions and their spectral asymptotics.

The compression of multiplication by a compactly supported weight v onto the
q-th Landau level is represented by its top-left (N+1)x(N+1) block in the
normalized level basis.  The block is assembled from Gaussian mixed moments
and diagonalized by a cyclic complex Jacobi sweep on fixed-point Python
integers at 2p + 32 bits (p the working precision), each eigenvalue rounded
once to p bits; the resulting eigenvalues s_n feed the n-th-root sequences
that the minimal-norm and capacity machinery is asymptotically equal to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp

from ._mp import FIXED_GUARD_BITS, dot, from_fixed, hermitian_cholesky, to_fixed
from .chebyshev import CapacityEstimate
from .errors import DegenerateMomentError, NonConvergenceError
from .orthopoly import monic_orthogonalize
from .region import region_key
from .weight import (
    DEGENERATE_MSG,
    Constant,
    Weight,
    _default_precision,
    _radial_applicable,
    _radial_interval,
    mixed_moments,
    weight_key,
)

__all__ = [
    "LandauBasisSpec",
    "ToeplitzSpectrum",
    "AsymptoticsReport",
    "level_q_matrix",
    "spectrum",
    "toeplitz_spectrum",
    "radial_oracle",
    "lemma1_sequences",
    "theorem_predictions",
]

TRUST_MSG = "raise precision to extend the trusted spectral tail"
ORACLE_MSG = "oracle requires centered radial weight"

_MAX_SWEEPS = 60


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
    spec: LandauBasisSpec
    log_eigs: tuple         # log s_n descending, mpf (-inf for nonpositive noise)
    matrix_residual: float  # max of Hermiticity defect and final off-diagonal mass
    trusted_count: int      # eigenvalues above s_1 * 10^(-p/3)
    precision_bits: int     # p, the working precision of the run
    sweeps: int = 0         # Jacobi sweeps run; 0 for a diagonal input or an oracle

    def eigenvalues(self):
        """s_1 >= s_2 >= ... as mpf at the run's precision (nonpositive noise
        entries collapse to 0)."""
        with mp.workprec(self.precision_bits):
            return tuple(mp.exp(lg) for lg in self.log_eigs)


def _sorted_spectrum(spec: LandauBasisSpec, eigs, residual: float,
                     precision_bits: int, sweeps: int) -> ToeplitzSpectrum:
    """Sort eigenvalues descending, count those above s_1 * 10^(-p/3) and
    take logs, all at the caller's working precision."""
    eigs = sorted(eigs, reverse=True)
    s1 = eigs[0] if eigs else mp.mpf(0)
    trusted = 0
    if s1 > 0:
        floor = s1 * mp.mpf(10) ** (-(precision_bits / mp.mpf(3)))
        trusted = sum(1 for e in eigs if e > floor)
    log_eigs = tuple(mp.log(e) if e > 0 else mp.ninf for e in eigs)
    return ToeplitzSpectrum(spec, log_eigs, residual, trusted, precision_bits, sweeps)


@dataclass
class AsymptoticsReport:
    n_values: tuple
    lhs_sequence: tuple     # (n! s_{n+1})^(1/n), mpf
    rhs_sequence: tuple     # (b0/2) M_n^(1/n), mpf
    ratio_sequence: tuple
    predicted_limits: Optional[dict] = None
    trusted_n_max: Optional[int] = None


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

    Raises DegenerateMomentError when a 2d Gaussian table fails its
    Cholesky at the working precision.
    """
    LandauBasisSpec(q, float(b0), N)  # validate the triple
    table = mixed_moments(v, "gaussian", maxdeg=N + q, precision_bits=precision_bits, b0=b0)
    if table.path != "radial":
        size = table.maxdeg + 1
        gram = [[table.entry(a, b) for b in range(size)] for a in range(size)]
        try:
            hermitian_cholesky(gram, table.precision_bits)
        except DegenerateMomentError as e:
            raise DegenerateMomentError(DEGENERATE_MSG) from e
    polys = [_creation_pow(j, q) for j in range(N + 1)]
    T = mp.matrix(N + 1, N + 1)
    with mp.workprec(precision_bits + 10):
        R0_eta = table.scale_radius * mp.sqrt(mp.mpf(b0) / 2)
        unscale = [R0_eta ** n for n in range(2 * (N + q) + 1)]
    with mp.workprec(precision_bits + 20):
        log_pi_q = mp.log(mp.pi) + mp.loggamma(q + 1) - mp.log(mp.mpf(b0) / 2)
        half_lg = [mp.loggamma(n + 1) / 2 for n in range(N + 1)]
        for j in range(N + 1):
            for k in range(j, N + 1):
                acc = mp.mpc(0)
                for (m1, l1), c1 in polys[j].items():
                    for (m2, l2), c2 in polys[k].items():
                        a, b = m1 + l2, l1 + m2
                        acc += (c1 * c2) * (table.entry(a, b) * unscale[a + b])
                val = acc * mp.e ** (-(log_pi_q + half_lg[j] + half_lg[k]))
                T[j, k] = val
                if k != j:
                    T[k, j] = mp.conj(val)
    return T


# -------------------------------------------------------------- eigenvalues

def _fixed_columns(a, n, bits: int):
    """(re, im) integer columns of the Hermitian list-of-lists a over one
    power of two 2^e; the lower triangle is copied from the upper one by
    conjugation, so the fixed-point matrix is exactly Hermitian."""
    parts = []
    for j in range(n):
        parts.append([a[k][j].real for k in range(n)])
        parts.append([a[k][j].imag for k in range(n)])
    ints, e = to_fixed(parts, bits)
    re, im = ints[0::2], ints[1::2]
    for j in range(n):
        for k in range(j + 1, n):
            re[j][k] = re[k][j]
            im[j][k] = -im[k][j]
    return re, im, e


def _offdiag_squared(re, im) -> int:
    """Exact squared off-diagonal Frobenius mass of integer columns."""
    total = sum(dot(cr, cr) + dot(ci, ci) for cr, ci in zip(re, im))
    return total - sum(cr[k] * cr[k] for k, cr in enumerate(re))


def _rotate(re, im, i: int, j: int, w: int) -> None:
    """One complex Jacobi rotation zeroing a_ij (i < j) of the integer
    columns (re, im), with its scalars carried at w fraction bits.

    Columns i and j are rotated and their conjugates written into rows i and
    j, so the matrix stays exactly Hermitian; the new 2x2 diagonal is
    alpha - t|beta| and gamma + t|beta|.
    """
    ri, ii, rj, ij = re[i], im[i], re[j], im[j]
    br, bi = rj[i], ij[i]
    alpha, gamma = ri[i], rj[j]
    d = gamma - alpha
    ab = math.isqrt((br * br + bi * bi) << 2 * w)          # |beta| 2^w
    dw = abs(d) << w
    # t = sign(d) 2|beta| / (|d| + sqrt(d^2 + 4|beta|^2)), tan of the angle
    t = (ab << w + 1) // (dw + math.isqrt(dw * dw + 4 * ab * ab))
    if d < 0:
        t = -t
    one = 1 << 2 * w
    c = one // math.isqrt(one + t * t)                    # 1/sqrt(1 + t^2)
    s = t * c
    # (u + iv) = s beta/|beta| at w bits; s still carries 2w of them
    u = (s * br) // ab
    v = (s * bi) // ab
    half = 1 << w - 1
    nri = [(c * x - u * y - v * z + half) >> w for x, y, z in zip(ri, rj, ij)]
    nii = [(c * x - u * y + v * z + half) >> w for x, y, z in zip(ii, ij, rj)]
    nrj = [(u * x - v * y + c * z + half) >> w for x, y, z in zip(ri, ii, rj)]
    nij = [(u * x + v * y + c * z + half) >> w for x, y, z in zip(ii, ri, ij)]
    tb = (t * ab + (one >> 1)) >> 2 * w
    nri[i], nrj[j] = alpha - tb, gamma + tb
    nii[i] = nij[j] = nri[j] = nii[j] = nrj[i] = nij[i] = 0
    re[i], im[i], re[j], im[j] = nri, nii, nrj, nij
    for cr, ci, xr, xi, yr, yi in zip(re, im, nri, nii, nrj, nij):
        cr[i] = xr
        ci[i] = -xi
        cr[j] = yr
        ci[j] = -yi


def spectrum(matrix, precision_bits: int, spec: Optional[LandauBasisSpec] = None) -> ToeplitzSpectrum:
    """Eigenvalues of a Hermitian compression block by cyclic complex Jacobi.

    The block is checked and symmetrized at 2p + FIXED_GUARD_BITS bits, not
    rounded to p first (level_q_matrix assembles it at p + 20 bits). It is
    then converted once to integers over a shared power of two, that many
    bits below its largest entry, and the rotations run on those integers exactly
    Hermitian until the off-diagonal Frobenius mass drops below 10^(-p/2)
    times the trace; each eigenvalue is then rounded once to
    p = precision_bits.  Eigenvalues are reported sorted descending in log
    domain, trusted_count marks how many exceed the relative floor
    s_1 * 10^(-p/3), and sweeps counts the sweeps run.  A diagonal input is
    not converted: its sorted diagonal, each entry rounded once to p, is the
    spectrum.  Raises NonConvergenceError after _MAX_SWEEPS sweeps.
    """
    p = precision_bits
    if hasattr(matrix, "rows"):
        n = matrix.rows
        if matrix.cols != n:
            raise ValueError("matrix must be square")
        rows = [[matrix[i, j] for j in range(n)] for i in range(n)]
    else:
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square")
        rows = matrix
    with mp.workprec(p):
        tol = mp.mpf(10) ** (-(p / mp.mpf(2)))
        bits = 2 * p + FIXED_GUARD_BITS
        # check and symmetrize at the width of the integer columns below, so
        # no input bit they can hold is rounded away first
        with mp.workprec(bits):
            a = [[mp.mpc(x) for x in row] for row in rows]
            amax = mp.mpf(0)
            herm = mp.mpf(0)
            for i in range(n):
                for j in range(n):
                    amax = max(amax, abs(a[i][j]))
                    herm = max(herm, abs(a[i][j] - mp.conj(a[j][i])))
            if amax > 0 and herm > tol * amax:
                raise ValueError(
                    f"matrix is not Hermitian within tolerance (relative defect {mp.nstr(herm / amax, 6)})"
                )
            for i in range(n):
                for j in range(i + 1, n):
                    sym = (a[i][j] + mp.conj(a[j][i])) / 2
                    a[i][j] = sym
                    a[j][i] = mp.conj(sym)
                a[i][i] = mp.mpc(mp.re(a[i][i]))

        trace = mp.re(sum(a[i][i] for i in range(n)))
        threshold = tol * (trace if trace > 0 else n * amax)
        if threshold <= 0:
            threshold = mp.mpf(2) ** (-p)
        skip = threshold / (n * n) if n else threshold
        sweeps = 0
        if any(a[i][j] != 0 for i in range(n) for j in range(i + 1, n)):
            re, im, e = _fixed_columns(a, n, bits)
            thr2 = int(mp.ldexp(threshold, -e) ** 2)
            skip2 = int(mp.ldexp(skip, -e) ** 2)
            off2 = _offdiag_squared(re, im)
            while off2 >= thr2:
                if sweeps >= _MAX_SWEEPS:
                    raise NonConvergenceError("Jacobi sweep limit reached before off-diagonal target")
                for i in range(n - 1):
                    for j in range(i + 1, n):
                        x, y = re[j][i], im[j][i]       # a_ij, row i of column j
                        if x * x + y * y > skip2:
                            _rotate(re, im, i, j, bits)
                off2 = _offdiag_squared(re, im)
                sweeps += 1
            eigs = [from_fixed(re[k][k], None, e, p) for k in range(n)]
            off = mp.sqrt(from_fixed(off2, None, 2 * e, p))
        else:
            eigs = [+mp.re(a[i][i]) for i in range(n)]  # each rounded once to p
            off = mp.mpf(0)

        residual = 0.0
        if amax > 0:
            residual = float(herm / amax)
        if trace > 0:
            residual = max(residual, float(off / trace))
        if spec is None:
            spec = LandauBasisSpec(0, 2.0, n - 1)
        return _sorted_spectrum(spec, eigs, residual, p, sweeps)


def toeplitz_spectrum(v: Weight, q: int = 0, b0: float = 2.0, N: int = 48,
                      precision_bits: int = 256) -> ToeplitzSpectrum:
    """Assemble the level-q compression of v and diagonalize it."""
    T = level_q_matrix(v, q, b0, N, precision_bits)
    return spectrum(T, precision_bits, spec=LandauBasisSpec(q, float(b0), N))


# ------------------------------------------------------------- radial oracle

def radial_oracle(v: Weight, b0: float = 2.0, N: int = 48,
                  precision_bits: Optional[int] = None, q: int = 0) -> ToeplitzSpectrum:
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
    p_bits = precision_bits if precision_bits is not None else _default_precision(N)
    with mp.workprec(p_bits + 20):
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
        return _sorted_spectrum(LandauBasisSpec(q, float(b0), N), vals, 0.0, p_bits, 0)


# ------------------------------------------------------- asymptotic sequences

def lemma1_sequences(v: Weight, b0: float = 2.0, N: int = 48,
                     precision_bits: int = 256) -> AsymptoticsReport:
    """The two sides of (n! s_{n+1})^(1/n) = (b0/2) M_n^(1/n) (1 + o(1)).

    lhs comes from the ground-level spectrum of v, rhs from the monic
    minimal norms of the plain moments of the same v; the sequences stop at
    the largest n with trusted s_{n+1}.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    sp = toeplitz_spectrum(v, 0, b0, N, precision_bits)
    if sp.trusted_count < 5:
        raise NonConvergenceError(TRUST_MSG)
    n_max = sp.trusted_count - 1
    plain = mixed_moments(v, "plain", maxdeg=n_max, precision_bits=precision_bits)
    basis = monic_orthogonalize(plain)
    with mp.workprec(precision_bits):
        half_b0 = mp.mpf(b0) / 2
        ns, lhs, rhs, ratio = [], [], [], []
        for n in range(1, n_max + 1):
            left = mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n]) / n)
            right = half_b0 * mp.exp(basis.log_norms[n] / n)
            ns.append(n)
            lhs.append(left)
            rhs.append(right)
            ratio.append(left / right)
    return AsymptoticsReport(tuple(ns), tuple(lhs), tuple(rhs), tuple(ratio),
                             predicted_limits=None, trusted_n_max=n_max)


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
    t1 = {"limsup": half_b0 * rho.rho_plus_hat, "liminf": half_b0 * rho.rho_minus_hat}
    t3 = {"limsup": t1["limsup"] ** 2, "liminf": t1["liminf"] ** 2}
    if rho.extrapolated is not None:
        t1["extrapolated"] = half_b0 * rho.extrapolated
        t3["extrapolated"] = t1["extrapolated"] ** 2
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
