"""Monic orthogonal polynomials for a weighted area measure.

Gram-Schmidt is performed implicitly through a Cholesky factorization of the
moment matrix: the n-th pivot is the squared minimal norm M_n among monic
degree-n polynomials, and back-substitution recovers the minimizer's
coefficients. The n-th-root sequence M_n^{1/n} estimates the decay rate
rho, with a three-parameter tail fit for extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp

from ._mp import hermitian_cholesky
from .errors import DegenerateMomentError, NonConvergenceError
from .weight import MomentTable

__all__ = [
    "MonicOrthoBasis",
    "RhoEstimate",
    "monic_orthogonalize",
    "rho_estimates",
    "zeros",
    "evaluate",
    "orthogonality_defect",
]


@dataclass
class MonicOrthoBasis:
    maxdeg: int
    coeffs: list        # row n: coefficients of z^0..z^(n-1) of monic p_n (leading 1 implicit)
    log_norms: list     # log M_n for 0 <= n <= maxdeg, mpf
    source: MomentTable


@dataclass
class RhoEstimate:
    sequence: list      # M_n^{1/n} for n in [n_min, N]
    rho_plus_hat: object
    rho_minus_hat: object
    extrapolated: Optional[object]
    window: tuple
    weight_key: Optional[str] = None  # provenance of the underlying moments


def monic_orthogonalize(moments: MomentTable) -> MonicOrthoBasis:
    """Monic orthogonal polynomials and their squared norms M_n.

    The moment table holds prescaled entries for monomials (z/R0)^a; pivots
    are rescaled back through log M_n += 2n log R0, and coefficients through
    c_k *= R0^(n-k), so everything reported lives in the plain z basis. The
    Cholesky is also the table's validity check: a nonpositive pivot, on a
    diagonal table too, raises DegenerateMomentError.
    """
    N = moments.maxdeg
    prec = moments.precision_bits
    with mp.workprec(prec):
        logR0 = mp.log(moments.scale_radius)
        G = [[moments.entry(a, b) for b in range(N + 1)] for a in range(N + 1)]
        try:
            L, log_pivots = hermitian_cholesky(G, prec)
        except DegenerateMomentError as e:
            raise DegenerateMomentError(
                f"non-positive pivot at degree {e.degree}; raise precision or lower N"
            ) from e
        log_norms = [lp + 2 * n * logR0 for n, lp in enumerate(log_pivots)]
        coeff_rows = [[]]
        for n in range(1, N + 1):
            rhs = [-G[i][n] for i in range(n)]
            y = [mp.mpc(0)] * n
            for i in range(n):
                s = rhs[i]
                for k in range(i):
                    s -= L[i][k] * y[k]
                y[i] = s / L[i][i]
            c = [mp.mpc(0)] * n
            for i in range(n - 1, -1, -1):
                s = y[i]
                for j in range(i + 1, n):
                    s -= mp.conj(L[j][i]) * c[j]
                c[i] = s / mp.conj(L[i][i])
            # stationarity reads G conj(c) = -g, so the solve above found conj(c)
            c = [mp.conj(v) for v in c]
            # undo the monomial prescale: coefficient of z^k gains R0^(n-k)
            coeff_rows.append([c[k] * moments.scale_radius ** (n - k) for k in range(n)])
        return MonicOrthoBasis(N, coeff_rows, log_norms, moments)


def rho_estimates(basis: MonicOrthoBasis, n_min: int = 1) -> RhoEstimate:
    """n-th roots M_n^{1/n} over [n_min, N], tail envelope, and a fitted limit.

    The tail is the last ceil((N - n_min)/3) entries; the extrapolation fits
    log M_n = n log rho + c log n + d over the tail by least squares.
    """
    N = basis.maxdeg
    if not 1 <= n_min < N:
        raise ValueError("need 1 <= n_min < maxdeg")
    prec = basis.source.precision_bits
    with mp.workprec(prec):
        ns = list(range(n_min, N + 1))
        seq = [mp.exp(basis.log_norms[n] / n) for n in ns]
        tail_len = math.ceil((N - n_min) / 3)
        if tail_len < 4:
            raise ValueError("tail window too small (< 4 points); compute more degrees")
        tail_ns = ns[-tail_len:]
        tail_vals = seq[-tail_len:]
        rho_plus = max(tail_vals)
        rho_minus = min(tail_vals)
        # least squares for log M_n = n log rho + c log n + d on the tail
        rows = [[mp.mpf(n), mp.log(n), mp.mpf(1)] for n in tail_ns]
        ys = [basis.log_norms[n] for n in tail_ns]
        ata = mp.matrix(3, 3)
        atb = mp.matrix(3, 1)
        for r, y in zip(rows, ys):
            for i in range(3):
                atb[i] += r[i] * y
                for j in range(3):
                    ata[i, j] += r[i] * r[j]
        sol = mp.lu_solve(ata, atb)
        extrapolated = mp.exp(sol[0])
        return RhoEstimate(seq, rho_plus, rho_minus, extrapolated, (n_min, N), basis.source.weight_key)


def evaluate(basis: MonicOrthoBasis, n: int, z) -> object:
    """p_n(z) by Horner's rule in the plain z basis."""
    if not 0 <= n <= basis.maxdeg:
        raise ValueError("degree outside basis")
    with mp.workprec(basis.source.precision_bits):
        z = mp.mpc(z)
        acc = mp.mpc(1)
        row = basis.coeffs[n]
        for k in range(n - 1, -1, -1):
            acc = acc * z + row[k]
        return acc


def orthogonality_defect(basis: MonicOrthoBasis, j: int, k: int) -> object:
    """|<p_j, p_k>_v| / sqrt(M_j M_k), recombined from the moment table."""
    table = basis.source
    with mp.workprec(table.precision_bits):
        cj = list(basis.coeffs[j]) + [mp.mpc(1)]
        ck = list(basis.coeffs[k]) + [mp.mpc(1)]
        acc = mp.mpc(0)
        for a in range(j + 1):
            for b in range(k + 1):
                acc += cj[a] * mp.conj(ck[b]) * table.raw_entry(a, b)
        return abs(acc) / mp.exp((basis.log_norms[j] + basis.log_norms[k]) / 2)


def zeros(basis: MonicOrthoBasis, n: int) -> list:
    """Roots of p_n with multiplicity, from companion-matrix eigenvalues."""
    if not 1 <= n <= basis.maxdeg:
        raise ValueError("need 1 <= n <= maxdeg")
    prec = basis.source.precision_bits
    with mp.workprec(prec):
        R0 = basis.source.scale_radius
        # scaled basis u = z/R0 keeps the companion matrix well conditioned
        cs = [basis.coeffs[n][k] / R0 ** (n - k) for k in range(n)]
        A = mp.matrix(n, n)
        for i in range(1, n):
            A[i, i - 1] = 1
        for i in range(n):
            A[i, n - 1] = -cs[i]
        try:
            eigs = mp.eig(A, left=False, right=False)
        except Exception as e:  # pragma: no cover - mpmath failure path
            raise NonConvergenceError(f"eigenvalue iteration failed at degree {n}") from e
        if isinstance(eigs, tuple):  # mpmath's 1x1 shortcut ignores the flags
            eigs = eigs[0]
        roots = sorted((R0 * u for u in eigs), key=lambda r: (mp.re(r), mp.im(r)))
        # residual sanity: |p_n(root)| small relative to the coefficient scale
        scale = max([mp.mpf(1)] + [abs(c) for c in cs])
        floor = scale * mp.mpf(2) ** (-prec // 4) * 4 ** n
        for r in roots:
            if abs(evaluate(basis, n, r)) / R0**n > floor:
                raise NonConvergenceError(f"zero refinement failed at degree {n}")
        return roots
