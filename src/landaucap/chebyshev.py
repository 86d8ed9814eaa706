"""Minimax monic polynomials on compact sets and capacity from norm decay.

The degree-n minimax problem min_monic max_boundary |t(z)| is solved on a
boundary sample by Lawson's iteratively reweighted least squares: each
weighted problem is the discrete monic orthogonal polynomial, obtained from
the R factor of a QR factorization in centered and rescaled coordinates.
The n-th root of the minimax norm converges to the logarithmic capacity of
the set, which a two-parameter fit over a degree ladder extrapolates.

Everything here runs in double precision: the solver tolerance (>= 1e-3
relative by default) makes extended precision pointless.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonConvergenceError
from .region import Region, boundary_points
from .region import region_key as _region_key

__all__ = [
    "ChebyshevResult",
    "CapacityEstimate",
    "DEFAULT_LADDER",
    "chebyshev_polynomial",
    "capacity_estimate",
    "monic_values",
]

DEFAULT_LADDER = (4, 8, 12, 16, 20, 24, 28, 32)
MAX_LAWSON_ITERATIONS = 500


@dataclass
class ChebyshevResult:
    degree: int
    coeffs: list            # z-basis coefficients of z^0..z^(n-1); leading 1 implicit
    log_sup_norm: float     # log of the max modulus over the boundary sample
    sample_size: int
    solver_tolerance: float
    converged: bool
    iterations: int


@dataclass
class CapacityEstimate:
    degrees: list
    values: list            # exp(log_sup_norm / n) per ladder degree
    converged: list
    extrapolated: float
    fit_degrees: list
    region_key: Optional[str] = None  # provenance of the sampled region


def monic_values(coeffs: Sequence[complex], zs) -> np.ndarray:
    """Evaluate the monic polynomial with given low-order coefficients."""
    zs = np.asarray(zs, dtype=complex)
    acc = np.ones_like(zs)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * zs + coeffs[k]
    return acc


def chebyshev_polynomial(region: Region, n: int, m: Optional[int] = None, tol: float = 2e-3) -> ChebyshevResult:
    """Lawson IRLS minimax fit of a monic degree-n polynomial on the boundary.

    Stops when the relative gap between the max residual and the weighted
    mean residual drops below tol, or after 500 iterations (converged=False).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if m is None:
        m = 16 * n
    if m < 8 * n:
        raise ValueError("need at least 8n boundary samples")
    if not 0 < tol <= 1e-2:
        raise ValueError("solver tolerance must lie in (0, 1e-2]")
    zeta = np.asarray([complex(z) for z in boundary_points(region, m)], dtype=complex)
    center = zeta.mean()
    scale = float(np.abs(zeta - center).max())
    if scale == 0.0:
        raise ValueError("degenerate boundary sample (all points coincide)")
    x = (zeta - center) / scale

    V = np.vander(x, n + 1, increasing=True)
    w = np.full(len(x), 1.0 / len(x))
    converged = False
    iterations = 0
    rmax = 0.0
    coeff_vec = np.zeros(n + 1, dtype=complex)
    for iterations in range(1, MAX_LAWSON_ITERATIONS + 1):
        # weighted least squares monic minimizer = discrete monic orthogonal
        # polynomial: R of the sqrt(w)-scaled Vandermonde, one triangular solve
        R = np.linalg.qr(np.sqrt(w)[:, None] * V, mode="r")
        a = np.linalg.solve(R[:n, :n], -R[:n, n])
        coeff_vec = np.append(a, 1.0)
        r = np.abs(V @ coeff_vec)
        rmax = float(r.max())
        if rmax == 0.0:
            raise ValueError("degenerate boundary sample (zero minimax norm)")
        gap = (rmax - float(w @ r)) / rmax
        if gap < tol:
            converged = True
            break
        w = w * r
        w = w / w.sum()

    # expand s^n t((z - c)/s) back to the plain z basis
    full = np.zeros(n + 1, dtype=complex)
    neg_center_pow = (-center) ** np.arange(n + 1)
    for k in range(n + 1):
        ck = coeff_vec[k] * scale ** (n - k)
        for j in range(k + 1):
            full[j] += ck * math.comb(k, j) * neg_center_pow[k - j]
    log_sup = n * math.log(scale) + math.log(rmax)
    return ChebyshevResult(
        degree=n,
        coeffs=list(full[:n]),
        log_sup_norm=log_sup,
        sample_size=len(zeta),
        solver_tolerance=tol,
        converged=converged,
        iterations=iterations,
    )


def _thread_count(threads: Optional[int], jobs: int) -> int:
    if threads is None:
        raw = os.environ.get("LANDAUCAP_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            threads = 1
    return max(1, min(threads, jobs))


def capacity_estimate(
    region: Region,
    degrees: Sequence[int] = DEFAULT_LADDER,
    m_rule: Optional[Callable[[int], int]] = None,
    tol: float = 2e-3,
    threads: Optional[int] = None,
) -> CapacityEstimate:
    """Capacity of the region from the n-th roots of minimax norms.

    Fits log ||t_n|| = n log c + d over the top half of the converged ladder
    degrees and reports exp(log c), clamped into the range of the fit-window
    values. Ladder degrees are independent and solved in a thread pool sized
    by the threads argument (default: the LANDAUCAP_THREADS variable, else 1);
    results are reduced in degree order, so the output does not depend on
    the thread count.
    """
    degrees = list(degrees)
    if not degrees or any(d < 1 for d in degrees) or degrees != sorted(degrees):
        raise ValueError("degrees must be an ascending list of integers >= 1")
    if m_rule is None:
        m_rule = lambda n: 16 * n

    nthreads = _thread_count(threads, len(degrees))
    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            results = list(pool.map(lambda n: chebyshev_polynomial(region, n, m_rule(n), tol), degrees))
    else:
        results = [chebyshev_polynomial(region, n, m_rule(n), tol) for n in degrees]

    values = [math.exp(res.log_sup_norm / res.degree) for res in results]
    conv = [res.converged for res in results]
    usable = [(res.degree, res.log_sup_norm) for res in results if res.converged]
    if len(usable) < 3:
        raise NonConvergenceError("fewer than 3 ladder degrees converged; capacity fit aborted")
    half = usable[-max(2, math.ceil(len(usable) / 2)):]
    ns = np.array([n for n, _ in half], dtype=float)
    ys = np.array([y for _, y in half], dtype=float)
    slope = float(np.polyfit(ns, ys, 1)[0])
    window_vals = [math.exp(y / n) for n, y in half]
    extrapolated = min(max(math.exp(slope), min(window_vals)), max(window_vals))
    return CapacityEstimate(
        degrees=degrees,
        values=values,
        converged=conv,
        extrapolated=extrapolated,
        fit_degrees=[n for n, _ in half],
        region_key=_region_key(region),
    )
