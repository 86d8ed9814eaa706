"""The three benchmark workloads: their inputs, oracles and output checks.

Every oracle here is computed with mpmath alone, never with landaucap, so a
check compares the program against an independent computation. A check
returns the list of problems it found; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from mpmath import mp

# offcenter-toeplitz: constant weight on a unit disc at distance 0.7 from 0
OFFCENTER_N = 24
OFFCENTER_BITS = 128          # the CLI default
# truncating the operator to N+1 rows perturbs s_n by 7.3e-10 relative at
# n = 12 and by 2.2e-8 at n = 13 (N = 24), so the oracle match stops at N/2
OFFCENTER_ORACLE_N = OFFCENTER_N // 2
EIG_REL_TOL = 1e-8

# ball-level1: chord weight 2 sqrt(1 - |z|^2) of the unit ball, level q = 1
BALL_N = 48
BALL_BITS = 256

# square-predict: constant weight on the unit square centred at 0
SQUARE_N = 24
SQUARE_LADDER = {"start": 8, "stop": 64, "step": 8}
CAP_REL_TOL = 1e-3            # landaucap 0.1.0 reads 3.2e-4
RHO_REL_TOL = 5e-3            # rho_extrapolated against Cap^2; landaucap 0.1.0 reads 2.9e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra_args: tuple
    config: Callable          # seed -> config record
    oracle: Callable          # () -> expected values, computed before timing
    check: Callable           # (output record, expected) -> list of problems


def _unit(seed: int) -> complex:
    """The seed's direction: the disc shift or the square's rotation."""
    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(angle), math.sin(angle))


def _rows(out: dict, key: str) -> list:
    return [mp.mpf(row[key]) for row in out["rows"]]


# ------------------------------------------------------- offcenter-toeplitz

def offcenter_config(seed: int) -> dict:
    c = 0.7 * _unit(seed)
    return {"weight": {"support": {"shape": "disc", "center": [c.real, c.imag], "radius": 1.0},
                       "density": {"kind": "constant"}},
            "q": 0, "b0": 2.0, "N": OFFCENTER_N}


def offcenter_oracle() -> list:
    """s_n of the untruncated operator, gamma(n, 1)/(n-1)! for n = 1..N+1.

    A magnetic translation carries the disc to the centred one and commutes
    with the Landau projection, so these hold for any centre.
    """
    with mp.workprec(OFFCENTER_BITS + 40):
        return [mp.gammainc(n, 0, 1, regularized=True) for n in range(1, OFFCENTER_N + 2)]


def offcenter_check(out: dict, exact: list) -> list:
    sn = _rows(out, "sn")
    if len(sn) != len(exact):
        return [f"expected {len(exact)} eigenvalues, got {len(sn)}"]
    problems = []
    for n in range(1, OFFCENTER_ORACLE_N + 1):
        rel = abs(sn[n - 1] - exact[n - 1]) / exact[n - 1]
        if rel > EIG_REL_TOL:
            problems.append(f"s_{n} is off the gamma(n,1)/(n-1)! oracle by {mp.nstr(rel, 3)}")
    # Cauchy interlacing: the truncated block's s_n lie in [0, s_n(untruncated)]
    slack = sn[0] * mp.mpf(2) ** (20 - OFFCENTER_BITS)
    for n, (s, e) in enumerate(zip(sn, exact), start=1):
        if not -slack <= s <= e + slack:
            problems.append(f"s_{n} = {mp.nstr(s, 6)} is outside [0, {mp.nstr(e, 6)}]")
    return problems


# --------------------------------------------------------------- ball-level1

def ball_config(seed: int) -> dict:
    return {"weight": {"density": {"kind": "ball3d_reduction", "R": 1.0}},
            "q": 1, "b0": 2.0, "N": BALL_N}


def _chord_moment(k: int):
    """int_0^1 t^k e^-t 2 sqrt(1-t) dt = 2 B(k+1, 3/2) 1F1(k+1; k+5/2; -1)."""
    return 2 * mp.beta(k + 1, mp.mpf(3) / 2) * mp.hyp1f1(k + 1, k + mp.mpf(5) / 2, -1)


def ball_oracle() -> list:
    """Level-1 eigenvalues of the chord weight, sorted descending.

    Basis index j has angular momentum m = j - 1, a = |m| and p = 1 + min(m, 0);
    its eigenvalue is (p!/(p+a)!) int_0^1 t^a [L_p^a(t)]^2 e^-t 2 sqrt(1-t) dt,
    with L_0^a = 1 and L_1^a(t) = a + 1 - t expanded into chord moments.
    """
    with mp.workprec(BALL_BITS + 40):
        vals = []
        for j in range(BALL_N + 1):
            a = abs(j - 1)
            if j == 0:
                vals.append(_chord_moment(a) / mp.factorial(a))
            else:
                integral = ((a + 1) ** 2 * _chord_moment(a) - 2 * (a + 1) * _chord_moment(a + 1)
                            + _chord_moment(a + 2))
                vals.append(integral / mp.factorial(a + 1))
        return sorted(vals, reverse=True)


def ball_check(out: dict, exact: list) -> list:
    sn = _rows(out, "sn")
    if len(sn) != len(exact):
        return [f"expected {len(exact)} eigenvalues, got {len(sn)}"]
    problems = []
    for n, (s, e) in enumerate(zip(sn, exact), start=1):
        rel = abs(s - e) / e
        if rel > EIG_REL_TOL:
            problems.append(f"s_{n} is off the Laguerre chord integral by {mp.nstr(rel, 3)}")
    return problems


# ------------------------------------------------------------ square-predict

def square_config(seed: int) -> dict:
    rot = _unit(seed)
    corners = [rot * complex(x, y) for x, y in ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))]
    return {"weight": {"support": {"shape": "polygon", "vertices": [[z.real, z.imag] for z in corners]},
                       "density": {"kind": "constant"}},
            "q": 0, "b0": 2.0, "N": SQUARE_N, "degrees": SQUARE_LADDER}


def square_oracle() -> dict:
    """Capacity of the unit square, Gamma(1/4)^2 / (4 pi^(3/2))."""
    with mp.workprec(80):
        return {"capacity": mp.gamma(mp.mpf(1) / 4) ** 2 / (4 * mp.pi ** 1.5)}


def square_check(out: dict, exact: dict) -> list:
    rows = {row["quantity"]: mp.mpf(row["value"]) for row in out["rows"]}
    cap = exact["capacity"]
    problems = []
    cap_est = mp.mpf(out["summary"]["capacity_extrapolated"])
    rel = abs(cap_est - cap) / cap
    if rel > CAP_REL_TOL:
        problems.append(f"capacity is off Gamma(1/4)^2/(4 pi^1.5) by {mp.nstr(rel, 3)}")
    rho = mp.mpf(out["summary"]["rho_extrapolated"])
    rel = abs(rho - cap ** 2) / cap ** 2
    if rel > RHO_REL_TOL:
        problems.append(f"rho_extrapolated is off Cap^2 by {mp.nstr(rel, 3)}")
    if not rows["nth_root_liminf"] <= rows["nth_root_limsup"]:
        problems.append("nth_root_liminf exceeds nth_root_limsup")
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("offcenter-toeplitz", "toeplitz", (), offcenter_config, offcenter_oracle,
                 offcenter_check),
        Workload("ball-level1", "toeplitz", ("--precision", str(BALL_BITS)), ball_config,
                 ball_oracle, ball_check),
        Workload("square-predict", "predict", (), square_config, square_oracle, square_check),
    )
}


def check_output(workload: Workload, path, expected) -> list:
    """Problems with the JSON table the CLI wrote to path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            out = json.load(fh)
        return workload.check(out, expected)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable output: {e!r}"]
