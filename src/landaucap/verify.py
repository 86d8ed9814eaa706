"""Named cross-check suites tying the three quantity families together.

Each suite runs a batch of checks comparing computed spectra, minimal norms,
and capacities against closed forms, against each other, and against the
structural invariants they must satisfy (monotonicity, scaling covariance,
interlacing, determinism). Every check reports a measured value next to the
bound it must meet, so a failing run shows how far off it was.

The desk-scale bands (10-20% on n-th root limits at n = 40) are generous on
purpose: the limits carry polynomial prefactors that die like n^c/n, so at
n = 40 even exact arithmetic sits several percent away from the limit.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List

from mpmath import mp

from ._record import record
from .chebyshev import capacity_estimate
from .landau import (
    level_q_matrix,
    radial_oracle,
    spectrum,
    theorem_predictions,
    toeplitz_spectrum,
)
from .orthopoly import monic_orthogonalize, rho_estimates
from .region import Annulus, Disc, Polygon, affine, bounding_radius
from .weight import Constant, Weight, ball_reduction_weight, mixed_moments

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "capacity_disc_checks",
    "capacity_scaling_checks",
    "minimal_norm_closed_form_checks",
    "ground_level_ratio_checks",
    "dense_offcenter_limit_checks",
    "level_one_checks",
    "ball_reduction_checks",
    "property_checks",
    "prediction_consistency_checks",
]


@record
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str


def _num(x, digits: int = 8) -> str:
    return mp.nstr(mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x, digits)


_UNIT_DISC = Weight(Disc(0j, 1.0), Constant(1.0))
_SQUARE = Polygon((-0.5 - 0.5j, 0.5 - 0.5j, 0.5 + 0.5j, -0.5 + 0.5j))


def _runtime_check(name: str, elapsed: float, bound: float) -> CheckResult:
    return CheckResult(name, elapsed < bound, f"{elapsed:.1f} s", f"< {bound:.0f} s")


# --------------------------------------------------------------- capacity side

def capacity_disc_checks() -> List[CheckResult]:
    """Capacity of an off-center disc from the Symm solve.

    The band is five times the 2.0e-7 relative error measured with 128/256
    panels; the reported error bound must cover the error as well.
    """
    t0 = time.perf_counter()
    est = capacity_estimate(Disc(1 + 0.5j, 1.5))
    elapsed = time.perf_counter() - t0
    err = abs(est.extrapolated - 1.5)
    return [
        CheckResult("disc capacity equals the radius", err / 1.5 <= 1e-6,
                    f"{est.extrapolated:.10f} (dev {err / 1.5:.2e})", "within 1e-6 of 1.5"),
        CheckResult("disc capacity error bound covers the error", err <= est.error_bound,
                    f"error {err:.2e}, bound {est.error_bound:.2e}", "error <= bound"),
        _runtime_check("disc capacity runtime", elapsed, 60.0),
    ]


def capacity_scaling_checks() -> List[CheckResult]:
    """Capacity is homogeneous of degree one under dilation of the set.

    The panels of the doubled square are the square's doubled, so the ratio
    is 2 to rounding (it reads 2 exactly); the band leaves 1e-9.
    """
    base = capacity_estimate(_SQUARE)
    doubled = capacity_estimate(affine(_SQUARE, 2.0, 0j))
    ratio = doubled.extrapolated / base.extrapolated
    return [
        CheckResult("capacity doubles with the set", abs(ratio - 2) <= 1e-9,
                    f"ratio {ratio:.12f} ({base.extrapolated:.8f} vs {doubled.extrapolated:.8f})",
                    "ratio within 1e-9 of 2"),
    ]


# ---------------------------------------------------------- minimal norm side

def minimal_norm_closed_form_checks() -> List[CheckResult]:
    """M_n of a centered disc indicator equals pi r^(2n+2)/(n+1)."""
    t0 = time.perf_counter()
    worst = mp.mpf(0)
    with mp.workprec(320):
        for r in (0.5, 1.0, 2.0):
            w = Weight(Disc(0j, r), Constant(1.0))
            basis = monic_orthogonalize(mixed_moments(w, "plain", maxdeg=40, precision_bits=256))
            rr = mp.mpf(r)
            for n in range(41):
                exact = mp.pi * rr ** (2 * n + 2) / (n + 1)
                dev = abs(mp.exp(basis.log_norms[n]) - exact) / exact
                worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    return [
        CheckResult("disc minimal norms match pi r^(2n+2)/(n+1), n <= 40",
                    worst <= mp.mpf(10) ** -8, f"worst rel dev {_num(worst, 4)}", "<= 1e-8"),
        _runtime_check("minimal norm closed-form runtime", elapsed, 30.0),
    ]


# ------------------------------------------------------ ground level (q = 0)

def ground_level_ratio_checks() -> List[CheckResult]:
    """(n! s_(n+1))^(1/n) against (b0/2) M_n^(1/n) on the unit disc.

    Both sides come from one ground-level spectrum and one plain table up to
    the last degree n whose s_(n+1) is trusted.
    """
    t0 = time.perf_counter()
    out: List[CheckResult] = []
    b0 = 2.0
    sp = toeplitz_spectrum(_UNIT_DISC, 0, b0, 48, 256)
    with mp.workprec(256):
        worst = mp.mpf(0)
        for n in range(sp.trusted_count):
            exact = mp.gammainc(n + 1, 0, 1) / mp.factorial(n)
            worst = max(worst, abs(mp.exp(sp.log_eigs[n]) - exact) / exact)
    out.append(CheckResult("ground spectrum matches gamma(n+1,1)/n! (oracle)",
                           worst <= mp.mpf(10) ** -8, f"worst rel dev {_num(worst, 4)}", "<= 1e-8"))

    plain = mixed_moments(_UNIT_DISC, "plain", maxdeg=sp.trusted_count - 1, precision_bits=256)
    basis = monic_orthogonalize(plain)
    with mp.workprec(256):
        half_b0 = mp.mpf(b0) / 2
        ratio = {n: mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n]) / n)
                 / (half_b0 * mp.exp(basis.log_norms[n] / n)) for n in range(20, 41)}
        ratio_30 = ratio[30]
        dev_30 = abs(ratio_30 - 1)
        out.append(CheckResult("two-sided ratio at n = 30", dev_30 <= mp.mpf("0.15"),
                               f"ratio {_num(ratio_30, 8)} (|1 - ratio| = {_num(dev_30, 4)})",
                               "|ratio - 1| <= 0.15"))
        devs = [abs(ratio[n] - 1) for n in range(20, 41)]
        worst_jump = max(b - a for a, b in zip(devs, devs[1:]))
        out.append(CheckResult("|ratio - 1| nonincreasing over n in [20, 40]",
                               worst_jump <= mp.mpf(10) ** -3,
                               f"worst increase {_num(worst_jump, 4)}", "<= 1e-3 jitter"))
    out.append(_runtime_check("ground-level ratio runtime", time.perf_counter() - t0, 120.0))
    return out


def dense_offcenter_limit_checks() -> List[CheckResult]:
    """n-th root limit for an off-center disc through the dense matrix path.

    The compression of an off-center disc indicator is unitarily equivalent
    to the centered one, so (n! s_n)^(1/n) must approach b0/2 * Cp^2 = 1;
    the whole matrix is assembled and diagonalized without any radial
    shortcut. The companion pairing (n! s_(n+1))^(1/n) carries an extra
    1/n factor whose n-th root still sits ~11% low at n = 40, so the n-th
    eigenvalue is the one compared against the limit here.
    """
    t0 = time.perf_counter()
    v = Weight(Disc(0.7 + 0j, 1.0), Constant(1.0))
    sp = toeplitz_spectrum(v, 0, 2.0, 48, 256)
    with mp.workprec(256):
        n = 40
        lhs = mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n - 1]) / n)
        companion = mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n]) / n)
        dev = abs(lhs - 1)
    elapsed = time.perf_counter() - t0
    return [
        CheckResult("(n! s_n)^(1/n) at n = 40, dense off-center path",
                    dev <= mp.mpf("0.10"),
                    f"{_num(lhs, 8)} (companion (n! s_(n+1))^(1/n) = {_num(companion, 8)})",
                    "within 10% of 1"),
        _runtime_check("dense off-center runtime", elapsed, 180.0),
    ]


# ------------------------------------------------------------- level q = 1

def level_one_checks() -> List[CheckResult]:
    """First excited level on the unit disc: entries and n-th root limit."""
    out: List[CheckResult] = []
    T = level_q_matrix(_UNIT_DISC, 1, 2.0, 48, 256)
    # the block is the direct sum of its classes: diagonal exactly when each holds one index
    ones = sum(len(re) == 1 for re, _, _ in T.classes)
    single = ones == len(T.classes)
    with mp.workprec(320):
        worst = mp.mpf(0)
        for j in range(49):
            re, _, e = T.classes[j % T.stride]
            if j == 0:
                exact = mp.gammainc(2, 0, 1)
            else:
                exact = (j * j * mp.gammainc(j, 0, 1) - 2 * j * mp.gammainc(j + 1, 0, 1)
                         + mp.gammainc(j + 2, 0, 1)) / mp.factorial(j)
            worst = max(worst, abs(mp.ldexp(re[j // T.stride][-1], e) - exact) / exact)
    out.append(CheckResult("level-1 matrix matches the radial closed form",
                           worst <= mp.mpf(10) ** -8 and single,
                           f"worst diag rel dev {_num(worst, 4)}, "
                           f"{ones} of {len(T.classes)} classes hold one index",
                           "diag <= 1e-8, offdiag exactly 0"))

    sp = spectrum(T, 256)
    orc = radial_oracle(_UNIT_DISC, 2.0, 48, 256, q=1)
    with mp.workprec(256):
        nt = min(sp.trusted_count, orc.trusted_count)
        dev_oracle = max(abs(a - b) / b for a, b in
                         zip(sp.eigenvalues()[:nt], orc.eigenvalues()[:nt]))
        n = 40
        lhs = mp.exp((mp.loggamma(n + 1) + sp.log_eigs[n]) / n)
        dev = abs(lhs - 1)
    out.append(CheckResult("level-1 spectrum matches the Laguerre oracle",
                           dev_oracle <= mp.mpf(10) ** -8,
                           f"max rel dev {_num(dev_oracle, 4)} over {nt} eigenvalues", "<= 1e-8"))
    out.append(CheckResult("(n! s_(n+1))^(1/n) at n = 40, level 1",
                           dev <= mp.mpf("0.12"), f"{_num(lhs, 8)}", "within 12% of 1"))
    return out


# ----------------------------------------------------------- 3d ball reduction

def ball_reduction_checks() -> List[CheckResult]:
    """Collapse the unit ball indicator to 2 sqrt(1-|z|^2) and take limits."""
    out: List[CheckResult] = []
    w = ball_reduction_weight(1.0)

    basis = monic_orthogonalize(mixed_moments(w, "plain", maxdeg=40, precision_bits=128))
    rho = rho_estimates(basis)
    with mp.workprec(128):
        dev_rho = abs(rho.extrapolated - 1)
        out.append(CheckResult("fitted rho of the ball weight",
                               dev_rho <= mp.mpf("0.10"),
                               f"{_num(rho.extrapolated, 8)} (envelope [{_num(rho.rho_minus_hat, 6)}, "
                               f"{_num(rho.rho_plus_hat, 6)}])", "within 10% of 1"))
        preds = theorem_predictions(w, 0, 2.0, rho, 1.0)
        limit = preds["theorem3"]["extrapolated"]
        dev_l = abs(limit - 1)
    out.append(CheckResult("squared-limit prediction (b0 rho/2)^2",
                           dev_l <= mp.mpf("0.20"), f"{_num(limit, 8)}", "within 20% of 1"))
    return out


# ------------------------------------------------------ prediction consistency

def prediction_consistency_checks() -> List[CheckResult]:
    """Capacity-based limit prediction against the exact disc value."""
    plain = mixed_moments(_UNIT_DISC, "plain", maxdeg=20, precision_bits=128)
    rho = rho_estimates(monic_orthogonalize(plain))
    est = capacity_estimate(Disc(0j, 1.0))
    preds = theorem_predictions(_UNIT_DISC, 1, 2.0, rho, est)
    with mp.workprec(128):
        limit = preds["theorem2"]["limit"]
        dev = abs(limit - 1)
    # Cap^2 doubles the capacity's 2.0e-7 error: 4.1e-7, band 1e-6
    return [
        CheckResult("level-limit prediction (b0/2) Cp^2 on the unit disc",
                    dev <= mp.mpf(10) ** -6, f"{_num(limit, 10)}", "within 1e-6 of 1"),
    ]


# ------------------------------------------------------------ property suite

def property_checks() -> List[CheckResult]:
    """Structural invariants at small sizes: one batch, a couple of minutes."""
    t0 = time.perf_counter()
    out: List[CheckResult] = []
    masses = capacity_estimate(_SQUARE).masses
    total = math.fsum(masses)
    out.append(CheckResult("equilibrium panel masses on the square are >= 0 and sum to 1",
                           min(masses) >= 0 and abs(total - 1) <= 1e-12,
                           f"min {min(masses):.2e}, sum - 1 = {total - 1:.1e}",
                           "all >= 0, |sum - 1| <= 1e-12"))

    wsq = Weight(_SQUARE, Constant(1.0))
    basis = monic_orthogonalize(mixed_moments(wsq, "plain", maxdeg=10, precision_bits=128))
    with mp.workprec(128):
        r0sq = mp.mpf(bounding_radius(_SQUARE)) ** 2
        worst_step = max(mp.exp(basis.log_norms[n + 1] - basis.log_norms[n]) / r0sq
                         for n in range(10))
    out.append(CheckResult("M_(n+1) <= R0^2 M_n", worst_step <= 1 + mp.mpf(10) ** -20,
                           f"worst step ratio {_num(worst_step, 6)} of R0^2", "<= 1"))

    small = monic_orthogonalize(mixed_moments(Weight(Disc(0j, 0.8), Constant(1.0)),
                                              "plain", maxdeg=8, precision_bits=128))
    big = monic_orthogonalize(mixed_moments(Weight(Disc(0j, 1.0), Constant(1.0)),
                                            "plain", maxdeg=8, precision_bits=128))
    mono = all(small.log_norms[n] <= big.log_norms[n] for n in range(9))
    out.append(CheckResult("M_n monotone in the weight", mono,
                           "M_n(r=0.8) <= M_n(r=1.0) for n <= 8", "pointwise monotone"))

    doubled = monic_orthogonalize(mixed_moments(Weight(affine(_SQUARE, 2.0, 0j), Constant(1.0)),
                                                "plain", maxdeg=6, precision_bits=128))
    with mp.workprec(128):
        worst_scale = max(abs(mp.exp(doubled.log_norms[n] - basis.log_norms[n]
                                     - (2 * n + 2) * mp.log(2)) - 1) for n in range(7))
    out.append(CheckResult("scaling covariance M_n(2 Omega) = 4^(n+1) M_n(Omega)",
                           worst_scale <= mp.mpf(10) ** -12,
                           f"worst rel dev {_num(worst_scale, 4)}", "<= 1e-12"))

    cap_small = capacity_estimate(Disc(0j, 0.8)).extrapolated
    cap_disc = capacity_estimate(Disc(0j, 1.0)).extrapolated
    cap_ann = capacity_estimate(Annulus(0j, 0.4, 1.0)).extrapolated
    out.append(CheckResult("capacity monotone under inclusion",
                           cap_small <= cap_disc * (1 + 1e-9),
                           f"{cap_small:.6f} <= {cap_disc:.6f}", "Cp(disc 0.8) <= Cp(disc 1)"))
    out.append(CheckResult("capacity ignores interior holes",
                           abs(cap_ann - cap_disc) <= 2e-3,
                           f"|{cap_ann:.6f} - {cap_disc:.6f}| = {abs(cap_ann - cap_disc):.2e}",
                           "annulus vs disc <= 2e-3"))

    voff = Weight(Disc(0.4 + 0.2j, 1.0), Constant(1.0))
    sp12 = toeplitz_spectrum(voff, 0, 2.0, 12, 128)
    herm_pos = sp12.matrix_residual <= 1e-30 and all(
        lg > mp.ninf for lg in sp12.log_eigs[:sp12.trusted_count])
    out.append(CheckResult("compression Hermitian with positive trusted spectrum",
                           herm_pos, f"residual {sp12.matrix_residual:.2e}, "
                           f"{sp12.trusted_count} trusted > 0", "residual <= 1e-30"))

    sp10 = toeplitz_spectrum(voff, 0, 2.0, 10, 128)
    with mp.workprec(128):
        slack = 1 + mp.mpf(10) ** -25
        e10 = sp10.eigenvalues()
        e12 = sp12.eigenvalues()
        inter = all(e12[k] * slack >= e10[k] for k in range(11)) and all(
            e10[k] * slack >= e12[k + 2] for k in range(11))
    out.append(CheckResult("truncation interlacing N = 10 vs N = 12", inter,
                           "s_k(N=12) >= s_k(N=10) >= s_(k+2)(N=12)", "interlaced"))

    rerun = toeplitz_spectrum(voff, 0, 2.0, 12, 128)
    det_spec = rerun.log_eigs == sp12.log_eigs
    det_cap = capacity_estimate(_SQUARE) == capacity_estimate(_SQUARE)
    out.append(CheckResult("determinism across reruns",
                           det_spec and det_cap,
                           f"spectra identical: {det_spec}, capacities identical: {det_cap}",
                           "bit-identical"))

    out.append(_runtime_check("property suite runtime", time.perf_counter() - t0, 120.0))
    return out


# ------------------------------------------------------------------- suites

SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "lemma1": lambda: minimal_norm_closed_form_checks() + ground_level_ratio_checks(),
    "lemma2-q1": level_one_checks,
    "theorem1": dense_offcenter_limit_checks,
    "theorem2": lambda: (capacity_disc_checks() + capacity_scaling_checks()
                         + prediction_consistency_checks()),
    "theorem3": ball_reduction_checks,
    "properties": property_checks,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> List[CheckResult]:
    """All checks of one named suite; unknown names raise ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return SUITES[name]()
