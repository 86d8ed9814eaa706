"""Truncated Landau-level compressions and their spectral asymptotics.

The compression of multiplication by a compactly supported weight v onto the
q-th Landau level is represented by its top-left (N+1)x(N+1) block in the
normalized level basis.  It is assembled from Gaussian mixed moments, as
exact integers, into a LevelBlock: one integer lower triangle per residue
class of the moment table's stride, each rounded once onto its own power of
two at 2p + 32 bits (p the working precision), the one format spectrum
reads; a real table (a support with a mirror line through 0, turned onto
the real axis) gives real classes.  A class of one index is its own
eigenvalue.  Every other class is reduced to a real tridiagonal matrix by
Householder reflections on those integers, and the tridiagonal solved by
an implicit QL on the same integers, carried as many bits further down as
the tridiagonal's entries span, each eigenvalue rounded once to p bits.
The s_n decay super-geometrically, so the tridiagonal is steeply graded;
the QL deflates from the top, and it is handed the tridiagonal small end
first, which takes fewer iterations.  radial_oracle gives the eigenvalues of a centred
radial weight by 1d quadrature, and theorem_predictions the n-th-root
limits that the minimal norms and the capacity predict for them.
"""

from __future__ import annotations

import math

from mpmath import mp

from ._mp import (
    FIXED_GUARD_BITS,
    dot,
    exact_fixed,
    from_fixed,
    hermitian_cholesky,
    raw_parts,
    round_shift,
)
from ._record import record
from .chebyshev import CapacityEstimate
from .errors import NonConvergenceError
from .region import region_key
from .weight import (
    Constant,
    Weight,
    _boundary_guard,
    _radial_applicable,
    _radial_interval,
    mixed_moments,
    weight_key,
)

__all__ = [
    "LandauBasisSpec",
    "LevelBlock",
    "ToeplitzSpectrum",
    "level_q_matrix",
    "spectrum",
    "toeplitz_spectrum",
    "radial_oracle",
    "theorem_predictions",
]

ORACLE_MSG = "oracle requires centered radial weight"

@record(frozen=True)
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


@record
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


@record(frozen=True)
class LevelBlock:
    """A Hermitian block as the direct sum of its residue classes.

    Class c holds the indices c, c + stride, ... <= N and is stored as
    (re, im, e): row t of its lower triangle is re[t] (t + 1 real parts)
    and im[t] (the t imaginary parts left of the diagonal), every entry
    (re + i im) 2^e.  The diagonal is real by construction.  A real class,
    from a real moment table (MomentTable.turn), has im None.
    """
    stride: int
    classes: tuple


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
    and into the prefactor.  The normalisation is a closed form,
    ||z^j exp(-b0 |z|^2 / 4)||^2 = pi j! (2/b0)^(j+1), times q! on level q:
    at q = 0, T_jk = G_jk / sqrt(pi^2 (2/b0)^(j+k+2) j! k!).

    Every monomial of the level-q image of z^j has m - l = j - q, so entry
    (j, k) combines moments with a - b = j - k. The table's moments are
    exact zeros unless a = b (mod table.stride), so only the entries with
    k = j (mod stride) are assembled and the rest are exactly 0: one
    residue class each on a support with rotation order 2 or 4, the
    diagonal alone on a radial table, whose stride exceeds N + q.

    The block is returned as a LevelBlock, one integer lower triangle per
    residue class of table.stride, the one format spectrum reads; the
    leading m x m block keeps of each class the rows of its indices below m.
    A real table (a mirror-symmetric support turned onto the real axis, or a
    radial one; MomentTable.turn) gives real classes (re, None, e): the
    block of the turned weight, D T D^H with D = diag(w^j), which has the
    same eigenvalues.

    A monomial pair of entry (k, j) reads the stored moment rows[b][a],
    (b, a) = (l1 + m2, m1 + l2), scaled by r^(a+b) = r^(2(l1+l2)) r^(j-q)
    r^(k-q), r = R0 eta: the entry is F_j F_k S_jk with
    F_j^2 = b0 (r^2)^(j-q) / (2 pi q! j!) and
    S_jk = sum c1 c2 (r^2)^(l1+l2) rows[b][a].  R0 (bounding_radius) and
    b0 are doubles, so r^2 = R0^2 b0 / 2 is an exact binary number, and
    the (r^2)^l (l <= 2q) and the moments are read as integers over their
    least exponent, exactly: S_jk is one exact integer sum.  Each F_j is
    one square root, rounded once to P = prec + 20 bits, of its square
    formed at P + 20; F_j F_k is the exact product of two mantissas, and
    S_jk times it is rounded once, to nearest, onto its class's grid
    2^(top - out), top the top bit of the class's largest part and
    out = 2 precision_bits + FIXED_GUARD_BITS, the bits spectrum reads.
    Each class has its own grid: a radial block's diagonal falls by
    hundreds of bits, and one grid for the whole block rounded its small
    entries away (38 of the 65 eigenvalues of the unit disc at N=64 and 64
    bits, 25 of them to 0).  F_j needs P bits only: a diagonal scaling
    D T D of a positive definite T moves each eigenvalue by at most about
    twice D's relative error (Ostrowski, "A quantitative formulation of
    Sylvester's law of inertia", PNAS 45, 1959).

    The creation coefficients have both signs, so moments cancel in an
    entry: the table carries g = _boundary_guard(support, b0/2) bits past
    precision_bits, as its kernel does.  On a centred disc the cancellation
    in entry j peaks near j = b0 R0^2 / 2, so g needs no term in N; at N=24
    and 128 bits every trusted s_n of Disc(0, 3) and Disc(0, 1.4) lies
    within 0.98 units of 2^-128 s_n of a 512-bit run up to q = 12.

    A boundary table is checked by hermitian_cholesky on its stored lower
    triangle at precision_bits, its log pivots unused: a non-positive pivot
    raises DegenerateMomentError naming the degree.
    """
    LandauBasisSpec(q, float(b0), N)  # validate the triple
    prec = precision_bits + _boundary_guard(v.support, b0 / 2)
    table = mixed_moments(v, "gaussian", maxdeg=N + q, precision_bits=prec, b0=b0)
    if table.path != "radial":
        hermitian_cholesky(table.rows, precision_bits, table.stride, table.turn is not None)
    polys = [_creation_pow(j, q) for j in range(N + 1)]
    P, out = prec + 20, 2 * precision_bits + FIXED_GUARD_BITS
    with mp.workprec(P + 20):
        (mr, er), (mb, eb) = mp.mpf(table.scale_radius).man_exp, mp.mpf(b0).man_exp
        m, E = mr * mr * mb, 2 * er + eb - 1  # r^2 = R0^2 b0 / 2 = m 2^E exactly
        norm = mp.mpf(b0) / (2 * mp.pi * math.factorial(q))
        # F_n = man 2^exp, the square root of F_n^2 rounded once to P
        F = [mp.sqrt(norm * mp.ldexp(m, E) ** (n - q) / math.factorial(n), prec=P).man_exp
             for n in range(N + 1)]
    e_r = min(0, 2 * q * E)
    r2 = [m ** l << (l * E - e_r) for l in range(2 * q + 1)]  # (r^2)^l = r2[l] 2^e_r
    cells = [(b, a) for b in range(N + q + 1) for a in range(b % table.stride, b + 1, table.stride)]
    real = table.turn is not None  # the imaginary parts are exact zeros: not read
    parts = list(zip(*(raw_parts(table.rows[b][a]) for b, a in cells)))
    ints, lo = exact_fixed(parts[:1] if real else parts)
    moments = dict(zip(cells, zip(*ints)))
    classes = []
    for c in range(min(table.stride, N + 1)):
        exact = []  # exact[t][s] = (re, im, x): entry (k, j) of the class is (re + i im) 2^x
        for k in range(c, N + 1, table.stride):
            row = []
            for j in range(c, k + 1, table.stride):
                re = im = 0
                for (m1, l1), c1 in polys[j].items():
                    for (m2, l2), c2 in polys[k].items():
                        g = moments[l1 + m2, m1 + l2]
                        w = c1 * c2 * r2[l1 + l2]
                        re += w * g[0]
                        if not real:
                            im += w * g[1]
                (fj, ej), (fk, ek) = F[j], F[k]
                f = fj * fk  # F_j F_k = f 2^(ej + ek), exactly
                row.append((re * f, im * f if j < k else 0, ej + ek + e_r + lo))
            exact.append(row)
        e = max(max(abs(x), abs(y)).bit_length() + z for row in exact for x, y, z in row) - out
        classes.append(([[round_shift(x, e - z) for x, _, z in row] for row in exact],
                        None if real else
                        [[round_shift(y, e - z) for _, y, z in row[:-1]] for row in exact], e))
    return LevelBlock(table.stride, tuple(classes))


# -------------------------------------------------------------- eigenvalues

def _class_columns(re, im, e: int, bits: int):
    """Integer columns (re, im) of the Hermitian matrix whose lower triangle
    is one class of a LevelBlock, over one power of two; im is None for a
    real class.

    The class is shifted up exactly until its widest part holds bits bits
    (level_q_matrix builds it that wide), never rounded, and one bit
    further, a guard bit for the reduction's own roundings.  Column j holds
    a_kj for every k, conjugates mirrored above the diagonal.
    """
    width = max(abs(x).bit_length() for part in (re, im or []) for row in part for x in row)
    s = max(0, bits - width) + 1
    n = len(re)
    cre = [[x << s for x in re[j]] + [re[k][j] << s for k in range(j + 1, n)] for j in range(n)]
    if im is None:
        return cre, None, e - s
    cim = [[-y << s for y in im[j]] + [0] + [im[k][j] << s for k in range(j + 1, n)]
           for j in range(n)]
    return cre, cim, e - s


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
    overwritten.  A real class (im None) is reduced by _real_householder.
    """
    if im is None:
        return _real_householder(re, bits)
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


def _real_householder(cols, bits: int):
    """_householder_tridiagonal on real symmetric integer columns: the same
    reflections with every imaginary term dropped, so on a class whose
    imaginary parts are zero it gives the complex reduction's diagonal and
    squared sub-diagonal bit for bit, with a quarter of its products."""
    n = len(cols)
    one = 1 << bits
    half = one >> 1
    diag, sub2 = [], []
    for k in range(n - 1):
        diag.append(cols[k][k])
        x = cols[k][k + 1:]
        s = dot(x, x)
        sub2.append(s)
        if not any(x[1:]):
            continue
        nx = math.isqrt(s << 2 * bits)
        a0 = abs(x[0]) << bits
        den = math.isqrt(nx * (nx + a0))
        u = [((y << 2 * bits) + (den >> 1)) // den for y in x]
        if a0:
            num, div = (a0 + nx) << 2 * bits, a0 * den
            u[0] = (x[0] * num + (div >> 1)) // div
        else:
            u[0] = one
        rest = range(k + 1, n)
        p = [(dot(cols[j][k + 1:], u) + half) >> bits for j in rest]
        k2 = dot(u, p)
        w = [y - ((k2 * v + one * one) >> 2 * bits + 1) for y, v in zip(p, u)]
        for t, j in enumerate(rest):
            a, c = w[t], u[t]
            col = cols[j]
            col[j:] = [z - ((a * y + c * g + half) >> bits)
                       for z, y, g in zip(col[j:], u[t:], w[t:])]
            col[k + 1:j] = [cols[i][j] for i in range(k + 1, j)]
    if n:
        diag.append(cols[n - 1][n - 1])
    return diag, sub2


# Iterations the implicit QL allows one eigenvalue, as EISPACK's imtql1 does
_QL_ITERATIONS = 30


def _tridiagonal_ql(diag, sub2, bits: int, p: int):
    """Eigenvalues of the real symmetric tridiagonal matrix with integer
    diagonal diag and squared sub-diagonal sub2, both on the grid of the
    Householder reduction that carries bits fraction bits, by the implicit
    QL of Martin & Wilkinson (Numer. Math. 12, 1968; EISPACK's imtql1) on
    integers.  Returns (eigs, guard): eigs[i] 2^-guard on diag's scale.

    Values are held guard bits below the grid, guard the span
    max - min of the diagonal's bit lengths, and the ratios c, s of each
    rotation and the shift's g at 2^(bits + guard).  The span is how far
    the small end lies below the large one; with too few guard bits
    f = s e underflows there and the iteration stalls.  On 43 blocks at 128
    and 256 bits the least guard that converged in about n sweeps was at
    most 0.46 span (the corner square at N=40 and 128 bits: 104 of 229), so
    the full span leaves more than half spare.  The span also covers each
    coupling that does not deflate at once: a chase that starts below a
    coupling 2^-t the size of its neighbours reaches l with t bits fewer,
    and without them the top stalled above the deflation floor (Disc(1e-38,
    1.5) at N=6 and 128 bits: 38 sweeps; 5 with them).  On the off-centre
    disc and the polygons the tests solve no coupling is shorter than the
    shortest diagonal entry, so there the guard is the diagonal's span.
    The sub-diagonal enters as isqrt of sub2, rounded down.  e_m deflates
    where |e_m| is at most one unit of the grid, inside the reduction's own
    error, or at most 2^-(p+40) (|d_m| + |d_(m+1)|).
    Each sweep takes its shift from the leading 2x2 block and its
    rotations run from the deflation point up to l; a rotation whose f and
    g both vanish splits the matrix there instead (imtql1's recovery from
    underflow).  Raises NonConvergenceError when one eigenvalue takes more
    than _QL_ITERATIONS sweeps.
    """
    n = len(diag)
    rel = p + 40
    lengths = [abs(x).bit_length() for x in diag]
    for m, s in enumerate(sub2):
        em = math.isqrt(s)
        if em > 1 and em << rel > abs(diag[m]) + abs(diag[m + 1]):
            lengths.append(em.bit_length())
    guard = max(lengths) - min(lengths)
    frac = bits + guard
    one = 1 << frac
    one2 = one * one
    unit = 1 << guard
    d = [x << guard for x in diag]
    e = [math.isqrt(s << 2 * guard) for s in sub2] + [0]
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m + 1 < n:
                em = abs(e[m])
                if em <= unit or em << rel <= abs(d[m]) + abs(d[m + 1]):
                    break
                m += 1
            if m == l:
                break
            if sweeps == _QL_ITERATIONS:
                raise NonConvergenceError(
                    f"implicit QL: no convergence to an eigenvalue after {sweeps} iterations")
            sweeps += 1
            pv = d[l]
            g = ((d[l + 1] - pv) << frac) // (2 * e[l])
            r = math.isqrt(g * g + one2)
            g = d[m] - pv + (e[l] << frac) // (g - r if g < 0 else g + r)
            s, c, pv = one, one, 0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i] >> frac
                b = c * e[i] >> frac
                if abs(f) > abs(g):
                    c = (g << frac) // f
                    r = math.isqrt(c * c + one2)
                    e[i + 1] = f * r >> frac
                    s = one2 // r
                    c = c * s >> frac
                elif g:
                    s = (f << frac) // g
                    r = math.isqrt(s * s + one2)
                    e[i + 1] = g * r >> frac
                    c = one2 // r
                    s = s * c >> frac
                else:
                    d[i + 1] -= pv
                    e[i + 1] = 0
                    break
                g = d[i + 1] - pv
                r = ((d[i] - g) * s + 2 * c * b) >> frac
                pv = s * r >> frac
                d[i + 1] = g + pv
                g = (c * r >> frac) - b
            else:
                d[l] -= pv
                e[l] = g
            e[m] = 0
    return d, guard


def _reduce_and_solve(re, im, e: int, bits: int, p: int):
    """Eigenvalues of one class of a LevelBlock, each rounded once to p, by
    Householder reduction and implicit QL on integers, with the class's
    Frobenius gap sum |a_ij|^2 - sum s_n^2 and its trace at bits + 20."""
    re, im, e = _class_columns(re, im, e, bits)
    fro2 = sum(dot(c, c) for part in (re, im or []) for c in part)
    diag, sub2 = _householder_tridiagonal(re, im, bits)
    if abs(diag[0]) > abs(diag[-1]):  # start a graded QL at its small end
        diag.reverse()
        sub2.reverse()
    eigs, guard = _tridiagonal_ql(diag, sub2, bits, p)
    gap = (fro2 << 2 * guard) - dot(eigs, eigs)
    return ([from_fixed(x, None, e - guard, p) for x in eigs],
            from_fixed(gap, None, 2 * (e - guard), bits + 20),
            from_fixed(sum(diag), None, e, bits + 20))


def spectrum(block: LevelBlock, precision_bits: int) -> ToeplitzSpectrum:
    """Eigenvalues of a Hermitian compression block by Householder
    tridiagonalization and implicit QL, one residue class at a time.

    The block is a LevelBlock, the direct sum of its classes, and each is
    solved on its own: one per residue class on a support with rotation
    order 2 or 4 (MomentTable.stride), one per index on a radial weight.
    A class of one index is its own eigenvalue, its integer rounded once to
    p = precision_bits.  Every other class, even one whose off-diagonal
    integers vanish, is mirrored into integer columns at 2p +
    FIXED_GUARD_BITS bits, exactly Hermitian; a class built at a lower p is
    shifted up exactly.  Householder reflections reduce the columns to a
    real tridiagonal matrix, whose eigenvalues an implicit QL on integers
    finds (_tridiagonal_ql); each is then rounded once to p.  A real class
    (im None, from a mirror-symmetric or radial table) is reduced by the
    same reflections less their imaginary terms (_real_householder); the
    QL is shared.  The QL (EISPACK's imtql1) deflates from the top with a
    shift from the leading 2x2 block, so, as LAPACK's dsteqr does, the
    tridiagonal is reversed when |d_0| > |d_(n-1)|: a graded one is then
    started at its small end.  The off-centre disc's real block at N=24
    and 128 bits then takes 28 QL sweeps instead of 72, on Disc(0.7, 1)
    and on the benchmark discs of seeds 1 and 7 alike.  Reversal is a
    permutation similarity and leaves the spectrum unchanged.

    The merged eigenvalues are reported sorted descending in log domain,
    trusted_count marks how many exceed the relative floor
    s_1 * 10^(-p/3), and eigen_solve is "diagonal" when every class holds
    one index, else "householder-ql".  matrix_residual is
    sqrt(sum over classes of |sum |a_ij|^2 - sum s_n^2|) / trace, which a
    unitary similarity of each class keeps at zero, and 0 on the diagonal
    path.  Raises ValueError when a class is not a lower triangle (row t
    of t + 1 real parts and, unless im is None, t imaginary ones), and
    NonConvergenceError when the QL takes more than _QL_ITERATIONS sweeps
    for one eigenvalue.
    """
    p = precision_bits
    bits = 2 * p + FIXED_GUARD_BITS
    for re, im, _ in block.classes:
        if (not re or any(len(x) != t + 1 for t, x in enumerate(re))
                or im is not None and (len(im) != len(re)
                                       or any(len(y) != t for t, y in enumerate(im)))):
            raise ValueError("each class of the block must be a lower triangle: "
                             "row t holds t + 1 real parts and, unless the class is "
                             "real (im None), t imaginary ones")
    eigs, gaps, traces = [], [], []
    with mp.workprec(p):
        for re, im, e in block.classes:
            if len(re) == 1:
                eigs.append(from_fixed(re[0][0], None, e, p))
                traces.append(from_fixed(re[0][0], None, e, bits + 20))
                continue
            d, gap, trace = _reduce_and_solve(re, im, e, bits, p)
            eigs += d
            gaps.append(abs(gap))
            traces.append(trace)
        if not gaps:
            return _sorted_spectrum(eigs, 0.0, p, "diagonal")
        with mp.workprec(bits + 20):
            trace = mp.fsum(traces)
            residual = float(mp.sqrt(mp.fsum(gaps)) / trace) if trace > 0 else 0.0
        return _sorted_spectrum(eigs, residual, p, "householder-ql")


def toeplitz_spectrum(v: Weight, q: int = 0, b0: float = 2.0, N: int = 48,
                      precision_bits: int = 256) -> ToeplitzSpectrum:
    """Assemble the level-q compression of v and diagonalize it."""
    return spectrum(level_q_matrix(v, q, b0, N, precision_bits), precision_bits)


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
