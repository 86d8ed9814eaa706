"""Extended-precision building blocks: Gauss-Legendre and tanh-sinh node
caches, a Hermitian Cholesky and exact fixed-point dot products, all on top
of mpmath."""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np
from mpmath import libmp, mp

from .errors import DegenerateMomentError


@lru_cache(maxsize=128)
def gauss_legendre(n: int, prec: int):
    """Nodes and weights on [-1, 1], exact for polynomial degree 2n-1.

    float64 seeds refined by Newton steps at extended precision; each step
    doubles the correct digits, so a handful suffices even at 512 bits.
    numpy's seeds are antisymmetric, and so is the refinement, so only the
    nonpositive half is refined and the rest mirrored, exactly at the
    working precision.
    """
    if n < 1:
        raise ValueError("need at least one node")
    seeds, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    with mp.workprec(prec + 30):
        eps = mp.mpf(2) ** (-(prec + 10))
        for x0 in seeds[:(n + 1) // 2]:
            x = mp.mpf(float(x0))
            for _ in range(10):
                p, dp = _legendre_pair(n, x)
                dx = p / dp
                x -= dx
                if abs(dx) <= eps:
                    break
            p, dp = _legendre_pair(n, x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        nodes += [-x for x in nodes[:n // 2][::-1]]
        weights += weights[:n // 2][::-1]
    return tuple(nodes), tuple(weights)


def _legendre_pair(n: int, x):
    pm, p = mp.one, x
    for k in range(2, n + 1):
        pm, p = p, ((2 * k - 1) * x * p - (k - 1) * pm) / k
    dp = n * (x * p - pm) / (x * x - 1)
    return p, dp


@lru_cache(maxsize=16)
def tanh_sinh(prec: int):
    """Tanh-sinh nodes/weights on [-1, 1]; robust to endpoint singularities.

    x = tanh(pi/2 sinh(kh)). Step h = 2^-m gives roughly exp(-pi^2/h) error
    for strip-analytic integrands, so m is picked from the precision; the
    sum is truncated once 1 - |x| drops below 2^-(prec+20).

    Only k >= 0 is computed and the rule mirrored, so it is exactly
    antisymmetric. With t = kh, u = pi/2 sinh(t) and E = exp(-2u), each node
    takes two exponentials: x = (1 - E) / (1 + E) and
    w = h pi (e^t + e^-t) E / (1 + E)^2, which is h pi/2 cosh(t) / cosh(u)^2.
    """
    if prec <= 150:
        m = 5
    elif prec <= 300:
        m = 6
    else:
        m = 7
    with mp.workprec(prec + 30):
        h = mp.mpf(2) ** (-m)
        u_cut = mp.log(2) * (prec + 24) / 2
        kmax = int(mp.ceil(mp.asinh(2 * u_cut / mp.pi) / h)) + 1
        half = []
        for k in range(kmax + 1):
            et = mp.exp(k * h)
            eti = 1 / et
            E = mp.exp(-mp.pi / 2 * (et - eti))
            x = (1 - E) / (1 + E)
            w = h * mp.pi * (et + eti) * E / (1 + E) ** 2
            half.append((x, w))
        return tuple((-x, w) for x, w in half[:0:-1]) + tuple(half)


def map_rule(nodes, weights, lo, hi):
    """Affine image of a [-1, 1] rule onto [lo, hi]."""
    half = (hi - lo) / 2
    mid = (hi + lo) / 2
    return [mid + half * x for x in nodes], [half * w for w in weights]


def hermitian_cholesky(g, prec: int):
    """Lower Cholesky factor of a Hermitian matrix given as list-of-lists.

    Returns (L, log_pivots) with log_pivots[n] = log(L[n][n]^2). Raises
    DegenerateMomentError (with .degree set) on a non-positive pivot.
    """
    n = len(g)
    with mp.workprec(prec):
        L = [[mp.mpc(0)] * n for _ in range(n)]
        logs = []
        for i in range(n):
            for j in range(i + 1):
                s = g[i][j]
                for k in range(j):
                    s -= L[i][k] * mp.conj(L[j][k])
                if i == j:
                    piv = mp.re(s)
                    if not piv > 0:
                        err = DegenerateMomentError(f"non-positive pivot at degree {i}")
                        err.degree = i
                        raise err
                    L[i][i] = mp.sqrt(piv)
                    logs.append(mp.log(piv))
                else:
                    L[i][j] = s / L[j][j]
        return L, logs


# Fraction bits a fixed-point computation carries past the precision it
# needs: past that of its result plus the bit length of the term count in a
# sum, past twice the working precision in the Householder reduction of the
# eigen-solve.
FIXED_GUARD_BITS = 32


def fixed_bits(prec: int, count: int) -> int:
    """Bits kept per value in a fixed-point sum of count terms at prec bits."""
    return prec + FIXED_GUARD_BITS + count.bit_length()


def to_fixed(parts, bits: int):
    """Lists of mpf as integers over one shared power of two.

    Returns (ints, e) with parts[j][i] ~ ints[j][i] * 2^e, rounded down:
    the largest magnitude keeps `bits` bits, the others the same absolute
    step 2^e.
    """
    top = max((v._mpf_[2] + v._mpf_[3] for part in parts for v in part if v), default=0)
    e = top - bits
    return [[libmp.to_fixed(v._mpf_, -e) for v in part] for part in parts], e


def from_fixed(re: int, im, e: int, prec: int):
    """(re + i im) * 2^e rounded once to prec bits: an mpf when im is None,
    else an mpc."""
    out = libmp.from_man_exp(re, e, prec, libmp.round_nearest)
    if im is None:
        return mp.make_mpf(out)
    return mp.make_mpc((out, libmp.from_man_exp(im, e, prec, libmp.round_nearest)))


def dot(xs, ys) -> int:
    """Exact sum of xs[i] * ys[i] over integers."""
    return sum(map(operator.mul, xs, ys))


def cdot(x, y):
    """Exact sum of x_i conj(y_i) over complex integer vectors given as
    (re, im) pairs of lists; returns (re, im)."""
    (xr, xi), (yr, yi) = x, y
    return dot(xr, yr) + dot(xi, yi), dot(xi, yr) - dot(xr, yi)
