"""Batch front end: read a JSON experiment record, run one pipeline, emit a table.

Commands map one-to-one onto the library layers: `capacity` solves Symm's
integral equation for the equilibrium measure, `orthopoly` the monic
orthogonalization, `toeplitz` the level-q compression spectrum, `predict`
the capacity-based limit predictions, and `verify` a named cross-check
suite. Results go to one CSV or JSON table; every linear column has a
log-domain twin because the spectra decay below any fixed-precision linear
representation within a few dozen eigenvalues.

Exit codes: 0 success, 1 a verify check failed, 2 malformed config, an
invariant violation or an unwritable output path, 3 a solver did not
converge, 4 the moment matrix degenerated at the working precision.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import sys
from typing import List, Optional

from mpmath import mp

from .chebyshev import capacity_estimate
from .errors import DegenerateMomentError, NonConvergenceError
from .landau import radial_oracle, theorem_predictions, toeplitz_spectrum
from .orthopoly import monic_orthogonalize, rho_estimates
from .region import capacity_known, region_from_config
from .verify import SUITE_NAMES, run_suite
from .weight import mixed_moments, weight_from_config

ALLOWED_PRECISIONS = (64, 128, 256, 512)
COMMANDS = ("capacity", "orthopoly", "toeplitz", "verify", "predict")
# capacities are float64; 17 significant digits round-trip a double
FLOAT_DIGITS = 17


def emission_digits(prec: int) -> int:
    return math.ceil(prec * 0.3)


class ConfigError(ValueError):
    """A config record is missing, malformed, or out of documented range."""


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing the {key!r} record")
    return cfg[key]


def _number(cfg: dict, key: str, default, kind=int):
    """cfg[key] read as int or float. A non-number (a string too), a
    boolean, NaN, an infinity, or a non-integral value for an int field
    (24.0 is integral) is a ConfigError."""
    val = cfg.get(key, default)
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or (kind is int and isinstance(val, float) and not val.is_integer())):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {val!r}")
    try:
        num = kind(val)
    except (ValueError, OverflowError) as e:
        raise ConfigError(f"{key} must be a number, got {val!r}") from e
    if not math.isfinite(num):
        raise ConfigError(f"{key} must be finite, got {val!r}")
    return num


def _dec(x, digits: int) -> str:
    """Decimal string at the emission digit count; logs of zero print -inf."""
    if x == mp.ninf:
        return "-inf"
    return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def _log_dec(x, digits: int) -> str:
    """log of a linear value, or empty when the log is undefined."""
    x = mp.mpf(x)
    if x <= 0:
        return ""
    return mp.nstr(mp.log(x), digits, strip_zeros=False)


def _render_csv(header: List[str], rows: List[list], summary: List[tuple]) -> str:
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for row in rows:
        wr.writerow(["true" if v is True else "false" if v is False else v for v in row])
    # summary trailer: keys carry a "# " prefix so table rows parse cleanly
    for key, val in summary:
        wr.writerow([f"# {key}", "true" if val is True else "false" if val is False else val]
                    + [""] * max(0, len(header) - 2))
    return buf.getvalue()


def _render_json(command: str, precision: int, header: List[str],
                 rows: List[list], summary: List[tuple]) -> str:
    payload = {
        "command": command,
        "precision_bits": precision,
        "rows": [dict(zip(header, row)) for row in rows],
        "summary": dict(summary),
    }
    return json.dumps(payload, indent=1) + "\n"


def _emit(command: str, precision: int, fmt: str, output: Optional[str],
          header: List[str], rows: List[list], summary: List[tuple]) -> None:
    if fmt == "json":
        text = _render_json(command, precision, header, rows, summary)
    else:
        text = _render_csv(header, rows, summary)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------------ commands

def cmd_capacity(cfg: dict, precision: int, fmt: str, output: Optional[str]) -> int:
    region = region_from_config(_require(cfg, "region"))
    est = capacity_estimate(region)
    rows = [[n, _dec(val, FLOAT_DIGITS), _log_dec(val, FLOAT_DIGITS)]
            for n, val in zip(est.panels, est.values)]
    summary = [("extrapolated", _dec(est.extrapolated, FLOAT_DIGITS)),
               ("log_extrapolated", _log_dec(est.extrapolated, FLOAT_DIGITS)),
               ("error_bound", _dec(est.error_bound, 6))]
    known = capacity_known(region)
    if known is not None:
        summary.append(("known_value", _dec(known, FLOAT_DIGITS)))
    _emit("capacity", precision, fmt, output,
          ["panels", "capacity", "log_capacity"], rows, summary)
    return 0


def cmd_orthopoly(cfg: dict, precision: int, fmt: str, output: Optional[str]) -> int:
    w = weight_from_config(_require(cfg, "weight"))
    N = _number(cfg, "N", 24)
    table = mixed_moments(w, "plain", maxdeg=N, precision_bits=precision)
    basis = monic_orthogonalize(table)
    rho = rho_estimates(basis, n_min=_number(cfg, "n_min", 1))
    digits = emission_digits(precision)
    rows = []
    with mp.workprec(precision + 10):
        for n in range(N + 1):
            log_mn = basis.log_norms[n]
            nth = _dec(mp.exp(log_mn / n), digits) if n >= 1 else ""
            rows.append([n, _dec(log_mn, digits), _dec(mp.exp(log_mn), digits), nth])
        summary = [("rho_plus_hat", _dec(rho.rho_plus_hat, digits)),
                   ("rho_minus_hat", _dec(rho.rho_minus_hat, digits)),
                   ("rho_extrapolated", _dec(rho.extrapolated, digits)),
                   ("tail_window", f"{rho.window[0]} {rho.window[1]}")]
    _emit("orthopoly", precision, fmt, output,
          ["n", "log_Mn", "Mn", "Mn_nth_root"], rows, summary)
    return 0


def cmd_toeplitz(cfg: dict, precision: int, fmt: str, output: Optional[str],
                 oracle: bool) -> int:
    w = weight_from_config(_require(cfg, "weight"))
    q = _number(cfg, "q", 0)
    b0 = _number(cfg, "b0", 2.0, float)
    N = _number(cfg, "N", 48)
    # a non-radial --oracle run is a config error, rejected before the solve
    orc = radial_oracle(w, b0, N, precision, q=q) if oracle else None
    sp = toeplitz_spectrum(w, q, b0, N, precision)
    digits = emission_digits(precision)
    rows = []
    max_dev = mp.mpf(0)
    eigs = sp.eigenvalues()
    with mp.workprec(precision + 10):
        for i, lg in enumerate(sp.log_eigs):
            row = [i + 1, _dec(lg, digits), _dec(eigs[i], digits), i < sp.trusted_count]
            if orc is not None:
                if i < min(sp.trusted_count, orc.trusted_count):
                    exact = orc.eigenvalues()[i]
                    dev = abs(eigs[i] - exact) / exact
                    max_dev = max(max_dev, dev)
                    row += [_dec(orc.log_eigs[i], digits), _dec(dev, 6)]
                else:
                    row += ["", ""]
            rows.append(row)
        summary = [("trusted_count", sp.trusted_count),
                   ("matrix_residual", _dec(sp.matrix_residual, 6)),
                   ("eigen_solve", sp.eigen_solve),
                   ("q", q), ("b0", _dec(b0, digits))]
        if orc is not None:
            summary.append(("max_oracle_rel_dev", _dec(max_dev, 6)))
    header = ["n", "log_sn", "sn", "trusted"]
    if orc is not None:
        header += ["oracle_log_sn", "oracle_rel_dev"]
    _emit("toeplitz", precision, fmt, output, header, rows, summary)
    return 0


def cmd_predict(cfg: dict, precision: int, fmt: str, output: Optional[str]) -> int:
    w = weight_from_config(_require(cfg, "weight"))
    q = _number(cfg, "q", 0)
    b0 = _number(cfg, "b0", 2.0, float)
    N = _number(cfg, "N", 24)
    basis = monic_orthogonalize(mixed_moments(w, "plain", maxdeg=N, precision_bits=precision))
    rho = rho_estimates(basis, n_min=_number(cfg, "n_min", 1))
    est = capacity_estimate(w.support)
    digits = emission_digits(precision)
    rows = []

    def add(name, val, digits=digits):
        rows.append([name, _dec(val, digits), _log_dec(val, digits)])

    with mp.workprec(precision + 10):
        preds = theorem_predictions(w, q, b0, rho, est)
        t1, t3 = preds["theorem1"], preds["theorem3"]
        add("nth_root_limsup", t1["limsup"])
        add("nth_root_liminf", t1["liminf"])
        add("nth_root_extrapolated", t1["extrapolated"])
        add("level_limit", preds["theorem2"]["limit"], FLOAT_DIGITS)
        add("squared_limsup", t3["limsup"])
        add("squared_liminf", t3["liminf"])
        add("squared_extrapolated", t3["extrapolated"])
        la = preds["log_asymptote"]
        add("log_asymptote_nlogn_coefficient", la["nlogn_coefficient"])
        add("log_asymptote_linear_coefficient", la["linear_coefficient"], FLOAT_DIGITS)
        summary = [("capacity_extrapolated", _dec(est.extrapolated, FLOAT_DIGITS)),
                   ("capacity_error_bound", _dec(est.error_bound, 6)),
                   ("rho_extrapolated", _dec(rho.extrapolated, digits)),
                   ("q", q), ("b0", _dec(b0, digits)),
                   ("weight", preds["provenance"]["weight"]),
                   ("support", preds["provenance"]["support"])]
    _emit("predict", precision, fmt, output,
          ["quantity", "value", "log_value"], rows, summary)
    return 0


def cmd_verify(cfg: dict, precision: int, fmt: str, output: Optional[str]) -> int:
    suite = _require(cfg, "suite")
    if not isinstance(suite, str):
        raise ConfigError(f"suite must be a name, got {suite!r}")
    results = run_suite(suite)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{suite}] {status} {r.name}: measured {r.measured}, "
                         f"expected {r.expected}\n")
    rows = [[suite, r.name, "PASS" if r.passed else "FAIL", r.measured, r.expected]
            for r in results]
    all_pass = all(r.passed for r in results)
    summary = [("checks", len(results)), ("failed", sum(not r.passed for r in results))]
    if output:
        _emit("verify", precision, fmt, output,
              ["suite", "check", "result", "measured", "expected"], rows, summary)
    return 0 if all_pass else 1


# ---------------------------------------------------------------- entry point

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="landaucap",
        description="Spectral tails of weighted Landau-level compressions, monic "
                    "minimal norms, and logarithmic capacity from one config record.",
        epilog=f"Verify suites: {', '.join(SUITE_NAMES)}.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", required=True, help="JSON experiment record")
    p.add_argument("--output", help="write the table here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), dest="fmt")
    p.add_argument("--precision", type=int, help=f"working precision bits {ALLOWED_PRECISIONS}")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check a radial toeplitz run against the 1d quadrature oracle")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line and return its exit code.

    The heap is frozen for the length of the command (gc.freeze), so the
    collections the command's own allocations trigger do not scan the
    interpreter's and the imported modules' objects again; a freeze the
    caller made is left as it is.
    """
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        return _run(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv: Optional[List[str]]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    except OSError as e:
        sys.stderr.write(f"landaucap: cannot read config: {e}\n")
        return 2
    except json.JSONDecodeError as e:
        sys.stderr.write(f"landaucap: config is not valid JSON: {e}\n")
        return 2

    fmt = args.fmt or cfg.get("format", "csv")
    output = args.output or cfg.get("output")
    try:
        precision = args.precision if args.precision is not None else _number(cfg, "precision_bits", 128)
        if precision not in ALLOWED_PRECISIONS:
            raise ConfigError(f"precision_bits must be one of {ALLOWED_PRECISIONS}, got {precision}")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {fmt!r}")
        if output is not None and not isinstance(output, str):
            raise ConfigError(f"output must be a path, got {output!r}")
        if args.command == "capacity":
            return cmd_capacity(cfg, precision, fmt, output)
        if args.command == "orthopoly":
            return cmd_orthopoly(cfg, precision, fmt, output)
        if args.command == "toeplitz":
            return cmd_toeplitz(cfg, precision, fmt, output, args.oracle)
        if args.command == "predict":
            return cmd_predict(cfg, precision, fmt, output)
        return cmd_verify(cfg, precision, fmt, output)
    except DegenerateMomentError as e:
        sys.stderr.write(f"landaucap: degenerate moment matrix: {e}\n")
        return 4
    except NonConvergenceError as e:
        sys.stderr.write(f"landaucap: solver did not converge: {e}\n")
        return 3
    except ValueError as e:
        sys.stderr.write(f"landaucap: invalid config: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"landaucap: cannot write output: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
