"""Extended-precision building blocks: the Gauss-Legendre node cache, the
log pivots of the Cholesky of a Hermitian matrix, read from its stored
lower triangle one residue class at a time, in real arithmetic when the
matrix is real, and exact fixed-point dot products and roundings.  The
kernels run on Python integers and mpmath's raw libmp tuples, with
libmp's rounding; mpf and mpc objects are read and made only at their
edges."""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np
from mpmath import libmp, mp

from .errors import DegenerateMomentError


@lru_cache(maxsize=128)
def gauss_legendre(n: int, prec: int):
    """Nodes and weights on [-1, 1], exact for polynomial degree 2n-1, each
    rounded once to prec + 30 bits.

    float64 seeds (_legendre_seeds) refined by Newton steps on fixed-point
    integers (_legendre_node); each step doubles the correct digits, so a
    handful suffices even at 512 bits. The seeds are antisymmetric, so only
    the nonpositive half is refined and the rest mirrored: the rule is
    exactly antisymmetric, which the refinement, rounding down, is not on
    its own.
    """
    if n < 1:
        raise ValueError("need at least one node")
    seeds = _legendre_seeds(n)
    half = [_legendre_node(n, float(x0), prec) for x0 in seeds[:(n + 1) // 2]]
    mirror = half[:n // 2][::-1]
    nodes = [x for x, _ in half] + [libmp.mpf_neg(x) for x, _ in mirror]
    weights = [w for _, w in half + mirror]
    return tuple(map(mp.make_mpf, nodes)), tuple(map(mp.make_mpf, weights))


def _legendre_seeds(n: int):
    """The nodes of numpy.polynomial.legendre.leggauss(n), by its float64
    steps one for one, without importing numpy.polynomial (about 3 ms a
    process): the eigenvalues of the symmetric companion matrix of P_n
    (legcompanion, whose last column loses only zeros), one Newton step by
    the Clenshaw sums of legval on P_n and on its legder coefficients, and
    (x - x[::-1]) / 2. At n = 1 legcompanion's -0.0 is 0.0 here; the last
    step maps both to 0.0."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    mat = np.zeros((n, n))
    scl = 1. / np.sqrt(2 * np.arange(n) + 1)
    top = mat.reshape(-1)[1::n + 1]
    top[...] = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[n::n + 1] = top
    x = np.linalg.eigvalsh(mat)
    d, der = c.copy(), np.empty(n)
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j - 1) * d[j]
        d[j - 2] += d[j]
    if n > 1:
        der[1] = 3 * d[2]
    der[0] = d[1]
    x -= _legendre_clenshaw(x, c) / _legendre_clenshaw(x, der)
    return (x - x[::-1]) / 2


def _legendre_clenshaw(x, c):
    """numpy.polynomial.legendre.legval(x, c) for a float64 array x and
    coefficients c, in its operations and their order."""
    if len(c) == 1:
        return c[0] + 0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    nd = len(c)
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _legendre_node(n: int, x0: float, prec: int):
    """The root of P_n next to x0 and its Gauss weight, as raw mpf tuples
    rounded once to prec + 30 bits.

    x is held as x 2^bits, bits = prec + 30 + 2 bitlen(n): the recurrence
    for P_n truncates one unit per step, and the weight
    2 (1 - x^2) / (n (x P_n - P_(n-1)))^2 loses up to about n^2 of
    relative precision at the outermost nodes, where P_(n-1) is smallest.
    Newton steps dx = P_n (x^2 - 1) / (n (x P_n - P_(n-1))) stop once
    |dx| <= 2^-(prec+10)."""
    bits = prec + 30 + 2 * n.bit_length()
    one = 1 << bits
    tol = one >> prec + 10
    x = int(mp.ldexp(x0, bits))
    for _ in range(10):
        p, pm = _legendre_pair(n, x, bits)
        dx = p * ((x * x >> bits) - one) // (n * ((x * p >> bits) - pm))
        x -= dx
        if abs(dx) <= tol:
            break
    p, pm = _legendre_pair(n, x, bits)
    d = n * ((x * p >> bits) - pm)
    out = prec + 30
    weight = libmp.mpf_div(libmp.from_int(2 * (one * one - x * x)), libmp.from_int(d * d),
                           out, libmp.round_nearest)
    return libmp.from_man_exp(x, -bits, out, libmp.round_nearest), weight


def _legendre_pair(n: int, x: int, bits: int):
    """P_n(x) 2^bits and P_(n-1)(x) 2^bits for x 2^bits, by the three-term
    recurrence on integers, each step rounded down."""
    pm, p = 1 << bits, x
    for k in range(2, n + 1):
        pm, p = p, ((2 * k - 1) * (x * p >> bits) - (k - 1) * pm) // k
    return p, pm


def hermitian_cholesky(rows, prec: int, stride: int, real: bool = False):
    """Log pivots log d_n of the Hermitian matrix G whose lower triangle is
    rows[n][k], k <= n (the layout of MomentTable.rows): G = L L^H with
    d_n = L_nn^2, so d_n is the squared distance of basis vector n from the
    span of those before it.

    Each entry is g_nk - sum_j L_nj conj(L_kj), j < k, summed exactly on
    integers and rounded once to prec: a finished row of L keeps its
    entries left of the diagonal as integer mantissas over one exponent,
    the least of theirs and 0, the row in progress likewise, and the
    products of two rows take three integer dot products, as the Gram
    kernel of the moment table does. L_nk is that sum over L_kk
    (libmp.mpf_div) and d_n its real part when k = n, L_nn = sqrt(d_n)
    (libmp.mpf_sqrt), all rounded to nearest at prec. This is mp.fdot's
    arithmetic bit for bit, except where fdot's mpf_sum drops a term whose
    top lies more than 2 prec bits below the running sum's last bit, or
    drops the running sum for a term whose last bit lies more than 2 prec
    bits above the sum's top: the integer sum keeps both. No tested table
    reaches that case.

    rows[n][k] is an exact zero unless n = k (mod stride), the table's
    residue classes (MomentTable.stride), so L is exactly zero between the
    classes and each is factored on its own, row n over the indices
    k = n (mod stride) up to n; the pivots come out in the order of n, and
    the terms left out are exact zeros, so every pivot is the one the whole
    matrix gives. A radial table, whose stride exceeds its degree, is read
    on its diagonal alone. Row n needs every earlier row of its class, so
    the factor is kept until the last pivot and dropped. Raises
    DegenerateMomentError on a non-positive pivot, at the least such degree.

    real states that the table is real (MomentTable.turn is set: a mirror
    or radial table): L is real, each entry's imaginary part is not read,
    and each entry takes one integer dot product, the complex arithmetic
    less its imaginary terms. Its pivots are bit for bit those of the
    complex arithmetic on the same entries as mpc with zero imaginary
    parts.
    """
    rnd = libmp.round_nearest
    L, logs = [], []  # L[k] = (re, im, re - im, e, L_kk): L_kj = (re_j + i im_j) 2^e
    for n, row in enumerate(rows):
        # L_nj = (ar_j + i ai_j) 2^e so far, ab = ar + ai; ai and ab stay empty when real
        ar, ai, ab, e = [], [], [], 0
        for k in range(n % stride, n + 1, stride):
            gr, gi = raw_parts(row[k])
            if k == n:
                d = _round_difference(gr, dot(ar, ar) + dot(ai, ai), 2 * e, prec)
                if d[0] or not d[1]:
                    raise DegenerateMomentError(
                        f"non-positive pivot at degree {n}; raise precision or lower N")
                logs.append(mp.make_mpf(libmp.mpf_log(d, prec, rnd)))
                L.append((ar, ai, [x - y for x, y in zip(ar, ai)], e,
                          libmp.mpf_sqrt(d, prec, rnd)))
                break
            cr, ci, cd, ek, lkk = L[k]
            A = dot(ar, cr)
            if real:
                xs = (libmp.mpf_div(_round_difference(gr, A, e + ek, prec), lkk, prec, rnd),)
            else:
                B = dot(ai, ci)
                sr = _round_difference(gr, A + B, e + ek, prec)
                si = _round_difference(gi, dot(ab, cd) - A + B, e + ek, prec)
                xs = libmp.mpf_div(sr, lkk, prec, rnd), libmp.mpf_div(si, lkk, prec, rnd)
            lo = min([e] + [x[2] for x in xs if x[1]])
            if lo < e:
                ar, ai, ab = ([x << e - lo for x in ys] for ys in (ar, ai, ab))
                e = lo
            r = libmp.to_fixed(xs[0], -e)
            ar.append(r)
            if not real:
                i = libmp.to_fixed(xs[1], -e)
                ai.append(i)
                ab.append(r + i)
    return logs


def raw_parts(z):
    """The real and imaginary parts of z (an mpf, an mpc or a Python number)
    as raw mpf tuples, unrounded."""
    z = mp.convert(z)
    return z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, libmp.fzero)


def _round_difference(g, m: int, e: int, prec: int):
    """g - m 2^e, g a raw mpf, summed exactly and rounded once to prec."""
    lo = min(g[2], e) if g[1] else e
    return libmp.from_man_exp(libmp.to_fixed(g, -lo) - (m << e - lo), lo, prec,
                              libmp.round_nearest)


# Fraction bits a fixed-point computation carries past the precision it
# needs: past that of its result plus the bit length of the term count in a
# sum, past twice the working precision in the Householder reduction of the
# eigen-solve.
FIXED_GUARD_BITS = 32


def fixed_bits(prec: int, count: int) -> int:
    """Bits kept per value in a fixed-point sum of count terms at prec bits."""
    return prec + FIXED_GUARD_BITS + count.bit_length()


def to_fixed(parts, bits: int):
    """Lists of raw mpf tuples as integers over one shared power of two.

    Returns (ints, e) with parts[j][i] ~ ints[j][i] * 2^e, rounded down:
    the largest magnitude keeps `bits` bits, the others the same absolute
    step 2^e.
    """
    top = max((x[2] + x[3] for part in parts for x in part if x[1]), default=0)
    e = top - bits
    return [[libmp.to_fixed(x, -e) for x in part] for part in parts], e


def exact_fixed(parts):
    """(ints, e) with parts[j][i] = ints[j][i] * 2^e exactly, e the least exponent."""
    e = min((x[2] for part in parts for x in part if x[1]), default=0)
    return [[libmp.to_fixed(x, -e) for x in part] for part in parts], e


def round_shift(m: int, s: int) -> int:
    """m 2^-s rounded to the nearest integer, ties to even, as libmp's
    round_nearest rounds; exact when s <= 0."""
    if s <= 0:
        return m << -s
    q = m >> s
    r = m - (q << s)
    half = 1 << s - 1
    return q + (r > half or (r == half and q & 1))


def from_fixed(re: int, im, e: int, prec: int, den: int = 1):
    """(re + i im) * 2^e / den rounded once to prec bits: an mpf when im is
    None, else an mpc."""
    def part(m):
        if den == 1:
            return libmp.from_man_exp(m, e, prec, libmp.round_nearest)
        return libmp.mpf_div(libmp.from_man_exp(m, e), libmp.from_int(den), prec, libmp.round_nearest)

    if im is None:
        return mp.make_mpf(part(re))
    return mp.make_mpc((part(re), part(im)))


def dot(xs, ys) -> int:
    """Exact sum of xs[i] * ys[i] over integers."""
    return sum(map(operator.mul, xs, ys))

