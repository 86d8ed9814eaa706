"""Self-test of the benchmark's output checks and span arithmetic.

    python3 perfbench/selftest.py

Every check must accept an output that equals its oracle and reject one
perturbed by a small amount (eigenvalues scaled by 1+1e-6, the capacity
moved by 1%, ...), so that no check can pass vacuously. When the
benchmark has run before, the real CLI outputs it left under
perfbench/out/work are put through the same accept/reject test. The
speed sampler (`speed.py`) must leave mpmath's results and precision as
they were. Prints one line per case and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

from mpmath import mp

import workloads as wl
from spans import layer_metrics
from speed import Sampler

WORK = Path(__file__).resolve().parent / "out" / "work"
DIGITS = 60


def _eig_output(values) -> dict:
    return {"rows": [{"n": i + 1, "sn": mp.nstr(v, DIGITS)} for i, v in enumerate(values)]}


def _square_output(cap, rho, liminf, limsup) -> dict:
    return {"rows": [{"quantity": "nth_root_limsup", "value": mp.nstr(limsup, DIGITS)},
                     {"quantity": "nth_root_liminf", "value": mp.nstr(liminf, DIGITS)}],
            "summary": {"capacity_extrapolated": mp.nstr(cap, DIGITS),
                        "rho_extrapolated": mp.nstr(rho, DIGITS)}}


def _scaled(out: dict, key: str, factor, rows=None) -> dict:
    """Copy of an eigenvalue table with rows (default all) scaled."""
    out = copy.deepcopy(out)
    for i, row in enumerate(out["rows"]):
        if rows is None or i in rows:
            row[key] = mp.nstr(mp.mpf(row[key]) * factor, DIGITS)
    return out


def _moved(out: dict, key: str, factor) -> dict:
    out = copy.deepcopy(out)
    out["summary"][key] = mp.nstr(mp.mpf(out["summary"][key]) * factor, DIGITS)
    return out


def _dropped_row(out: dict) -> dict:
    out = copy.deepcopy(out)
    out["rows"].pop()
    return out


def _swapped_bounds(out: dict) -> dict:
    out = copy.deepcopy(out)
    rows = {r["quantity"]: r for r in out["rows"]}
    lo, hi = rows["nth_root_liminf"], rows["nth_root_limsup"]
    lo["value"], hi["value"] = hi["value"], lo["value"]
    return out


def _eig_cases(name, out, tail_index):
    yes = 1 + mp.mpf("1e-6")
    cases = [(f"{name}: eigenvalues scaled by 1+1e-6", _scaled(out, "sn", yes)),
             (f"{name}: eigenvalues scaled by 1-1e-6", _scaled(out, "sn", 2 - yes)),
             (f"{name}: s_1 alone scaled by 1+1e-6", _scaled(out, "sn", yes, rows={0})),
             (f"{name}: last eigenvalue missing", _dropped_row(out))]
    if tail_index is not None:
        cases.append((f"{name}: s_{tail_index + 1} raised 1% above its interlacing bound",
                      _scaled(out, "sn", mp.mpf("1.01"), rows={tail_index})))
        cases.append((f"{name}: last eigenvalue negative",
                      _scaled(out, "sn", -1, rows={len(out["rows"]) - 1})))
    return cases


def _square_cases(name, out):
    return [(f"{name}: capacity moved by +1%", _moved(out, "capacity_extrapolated", mp.mpf("1.01"))),
            (f"{name}: capacity moved by -1%", _moved(out, "capacity_extrapolated", mp.mpf("0.99"))),
            (f"{name}: rho_extrapolated moved by +1%", _moved(out, "rho_extrapolated", mp.mpf("1.01"))),
            (f"{name}: rho_extrapolated moved by -1%", _moved(out, "rho_extrapolated", mp.mpf("0.99"))),
            (f"{name}: liminf above limsup", _swapped_bounds(out))]


def check_cases(name, workload, expected, out, reject_cases):
    """(label, passed) for the accepted output and each perturbation."""
    results = []
    problems = workload.check(out, expected)
    results.append((f"{name}: accepts the output {problems or ''}", not problems))
    for label, bad in reject_cases:
        results.append((f"{label} is rejected", bool(workload.check(bad, expected))))
    return results


def synthetic_cases():
    results = []
    exact = wl.offcenter_oracle()
    # untruncated values sit on the interlacing bound, so they must pass; s_20
    # is past the oracle match, where only interlacing guards it
    results += check_cases("offcenter-toeplitz", wl.WORKLOADS["offcenter-toeplitz"], exact, _eig_output(exact),
                           _eig_cases("offcenter-toeplitz", _eig_output(exact), 19))
    exact = wl.ball_oracle()
    results += check_cases("ball-level1", wl.WORKLOADS["ball-level1"], exact, _eig_output(exact),
                           _eig_cases("ball-level1", _eig_output(exact), None))
    exact = wl.square_oracle()
    cap = exact["capacity"]
    out = _square_output(cap, cap ** 2, mp.mpf("0.29"), mp.mpf("0.31"))
    results += check_cases("square-predict", wl.WORKLOADS["square-predict"], exact, out,
                           _square_cases("square-predict", out))
    return results


def recorded_cases():
    """The same accept/reject test on CLI outputs an earlier run left behind."""
    results = []
    for name, workload in wl.WORKLOADS.items():
        paths = sorted(WORK.glob(f"{name}-trace*-seed*/output.json"))
        if not paths:
            continue
        out = json.loads(paths[-1].read_text(encoding="utf-8"))
        expected = workload.oracle()
        label = f"{name} (recorded)"
        if name == "square-predict":
            cases = _square_cases(label, out)
        else:
            cases = _eig_cases(label, out, None)
        results += check_cases(label, workload, expected, out, cases)
    return results


def oracle_cases():
    """The closed forms the oracles use, against direct quadrature."""
    chord = lambda t: 2 * mp.sqrt(1 - t)
    results = []
    with mp.workprec(200):
        for k in (0, 5, 30):
            direct = mp.quad(lambda t: t ** k * mp.exp(-t) * chord(t), [0, 1])
            rel = abs(wl._chord_moment(k) - direct) / direct
            results.append((f"chord moment k={k} matches quadrature ({mp.nstr(rel, 3)})",
                            rel < 1e-40))
        exact = wl.ball_oracle()
        for j in (0, 2, 30):
            a, p = abs(j - 1), 1 + min(j - 1, 0)
            f = lambda t: t ** a * mp.laguerre(p, a, t) ** 2 * mp.exp(-t) * chord(t)
            direct = mp.quad(f, [0, 1]) * mp.factorial(p) / mp.factorial(p + a)
            hit = min(abs(v - direct) / direct for v in exact)
            results.append((f"ball oracle holds the j={j} Laguerre integral ({mp.nstr(hit, 3)})",
                            hit < 1e-40))
    return results


def span_cases():
    # cli.main [0, 10] > mixed_moments [1, 5] > build_rule [1, 2] (40 nodes)
    #                                         > gauss_legendre [3, 4] (64 nodes, a density call)
    #                  > spectrum [6, 9] (7 trusted)
    spans = [{"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
             {"name": "weight.mixed_moments", "parent": 0, "start": 1.0, "end": 5.0,
              "design_degree": 12},
             {"name": "weight.build_rule", "parent": 1, "start": 1.0, "end": 2.0, "nodes": 40},
             {"name": "mp.gauss_legendre", "parent": 1, "start": 3.0, "end": 4.0, "nodes": 64},
             {"name": "landau.spectrum", "parent": 0, "start": 6.0, "end": 9.0,
              "trusted_count": 7}]
    m = layer_metrics(spans)
    want = {"cli.main.s": 10.0, "cli.main.self_s": 3.0, "weight.mixed_moments.self_s": 2.0,
            "weight.mixed_moments.calls": 1, "weight.design_degree": 12, "weight.nodes": 40,
            "mp.gauss_legendre.s": 1.0, "landau.spectrum.s": 3.0, "landau.trusted_count": 7,
            "chebyshev.lawson_iterations": 0}
    return [(f"layer_metrics {k} = {v}", m[k] == v) for k, v in want.items()]


def sampler_cases():
    """The speed sampler leaves mpmath's results and precision as they were."""
    def work():
        with mp.workprec(200):
            return mp.fsum(mp.exp(mp.mpf(k) / 7) * mp.sqrt(k) for k in range(4000)), mp.prec

    plain = work()
    sampler = Sampler(0.002).start()
    sampled = work()
    speed = sampler.stop()
    return [("sampled mpmath work gives the same value at the same precision", sampled == plain),
            (f"sampler took {speed['samples']} samples, factor {speed['factor']:.3f}",
             speed["samples"] > 1 and speed["factor"] > 0 and speed["spent_s"] > 0)]


def main() -> int:
    results = (synthetic_cases() + recorded_cases() + oracle_cases() + span_cases()
               + sampler_cases())
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad}/{len(results)} self-test cases pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
