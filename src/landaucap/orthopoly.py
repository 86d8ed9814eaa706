"""Monic orthogonal polynomials for a weighted area measure.

Gram-Schmidt is performed implicitly through a Cholesky factorization of the
moment matrix: the n-th pivot is the squared minimal norm M_n among monic
degree-n polynomials. The n-th-root sequence M_n^{1/n} estimates the decay
rate rho, with a three-parameter tail fit for extrapolation.
"""

from __future__ import annotations

import math
from typing import Optional

from mpmath import mp

from ._mp import hermitian_cholesky
from ._record import record
from .weight import MomentTable

__all__ = [
    "MonicOrthoBasis",
    "RhoEstimate",
    "monic_orthogonalize",
    "rho_estimates",
]


@record
class MonicOrthoBasis:
    maxdeg: int
    log_norms: list     # log M_n for 0 <= n <= maxdeg, mpf
    source: MomentTable


@record
class RhoEstimate:
    rho_plus_hat: object    # max and min of M_n^{1/n} over the tail window
    rho_minus_hat: object
    extrapolated: object
    window: tuple
    weight_key: Optional[str] = None  # provenance of the underlying moments


def monic_orthogonalize(moments: MomentTable) -> MonicOrthoBasis:
    """The squared norms M_n of the monic orthogonal polynomials.

    hermitian_cholesky reads the table's stored lower triangle (rows) one
    residue class of its stride at a time and returns the log pivots, the
    log squared norms of the monomials (z/R0)^a the table is prescaled to;
    log M_n += 2n log R0 takes them back to the plain z basis. A table
    turned onto a mirror image (MomentTable.turn) holds the real moments
    of the turned support, a diagonal unitary similarity of the support's
    own with the same pivots, and is factored in real arithmetic. The
    Cholesky is also the table's validity check: a nonpositive pivot, on a
    diagonal table too, raises its DegenerateMomentError.
    """
    N = moments.maxdeg
    prec = moments.precision_bits
    log_pivots = hermitian_cholesky(moments.rows, prec, moments.stride, moments.turn is not None)
    with mp.workprec(prec):
        logR0 = mp.log(moments.scale_radius)
        log_norms = [lp + 2 * n * logR0 for n, lp in enumerate(log_pivots)]
        return MonicOrthoBasis(N, log_norms, moments)


def rho_estimates(basis: MonicOrthoBasis, n_min: int = 1) -> RhoEstimate:
    """The envelope of the n-th roots M_n^{1/n} on the tail, and a fitted limit.

    The tail is the last ceil((N - n_min)/3) degrees; the extrapolation fits
    log M_n = n log rho + c log n + d over the tail by least squares.
    """
    N = basis.maxdeg
    if not 1 <= n_min < N:
        raise ValueError("need 1 <= n_min < maxdeg")
    prec = basis.source.precision_bits
    with mp.workprec(prec):
        tail_len = math.ceil((N - n_min) / 3)
        if tail_len < 4:
            raise ValueError("tail window too small (< 4 points); compute more degrees")
        tail_ns = range(N + 1 - tail_len, N + 1)
        tail_vals = [mp.exp(basis.log_norms[n] / n) for n in tail_ns]
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
        return RhoEstimate(rho_plus, rho_minus, extrapolated, (n_min, N), basis.source.weight_key)
