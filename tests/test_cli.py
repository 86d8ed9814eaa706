"""End-to-end command line tests driven through the in-process entry point.

Each test writes a JSON config to a temp directory, invokes main() with
argv lists, and checks the rendered CSV/JSON output plus the exit code.
Error paths assert the documented codes: 2 for config problems and an
unwritable output, 3 for capacity non-convergence, 4 for a degenerate
moment matrix.
"""

import csv
import gc
import io
import json
import math

import pytest
from mpmath import mp

from landaucap import chebyshev, cli, landau
from landaucap.cli import main
from landaucap.region import capacity_known, region_from_config

UNIT_DISC_WEIGHT = {
    "support": {"shape": "disc", "center": [0, 0], "radius": 1.0},
    "density": {"kind": "constant"},
}

UNIT_SQUARE_WEIGHT = {
    "support": {"shape": "polygon",
                "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]},
    "density": {"kind": "constant"},
}

OFFCENTER_WEIGHT = {
    "support": {"shape": "disc", "center": [0.7, 0], "radius": 1.0},
    "density": {"kind": "constant"},
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    table = [r for r in body if not r[0].startswith("#")]
    summary = {}
    for r in body:
        if r[0].startswith("#"):
            summary[r[0][1:].strip()] = r[1]
    return header, table, summary


def test_capacity_disc_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "cap.json", {
        "region": {"shape": "disc", "center": [1.0, 0.5], "radius": 1.5},
        "precision_bits": 64,
    })
    code, out, err = run_cli(["capacity", "--config", cfg], capsys)
    assert code == 0
    header, table, summary = parse_csv(out)
    assert header == ["panels", "capacity", "log_capacity"]
    assert [int(r[0]) for r in table] == [128, 256]
    # each level sits near the radius already
    for r in table:
        assert abs(float(r[1]) - 1.5) < 1e-3
        assert abs(float(r[2]) - math.log(float(r[1]))) < 1e-12
    err_cap = abs(float(summary["extrapolated"]) - 1.5)
    assert err_cap < 1e-6
    assert err_cap <= float(summary["error_bound"])
    assert abs(float(summary["log_extrapolated"]) - math.log(1.5)) < 1e-6
    assert float(summary["known_value"]) == 1.5


def test_capacity_json_and_output_file(tmp_path, capsys):
    out_path = tmp_path / "cap.json.out"
    cfg = write_config(tmp_path / "cap.json", {
        "region": {"shape": "disc", "center": [0, 0], "radius": 2.0},
        "degrees": [4, 6, 8, 10],
        "precision_bits": 64,
    })
    code, out, err = run_cli(
        ["capacity", "--config", cfg, "--format", "json",
         "--output", str(out_path)], capsys)
    assert code == 0
    assert out == ""  # table went to the file, not stdout
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "capacity"
    assert payload["precision_bits"] == 64
    assert len(payload["rows"]) == 2
    assert abs(float(payload["summary"]["extrapolated"]) - 2.0) < 1e-4


def test_capacity_square_known_value_and_ignored_ladder_keys(tmp_path, capsys):
    square = {"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    outputs = []
    for extra in ({}, {"degrees": {"start": 8, "stop": 64, "step": 8}, "tol": 1e-30,
                       "m_multiplier": 3}):
        cfg = write_config(tmp_path / "cap.json", {"region": square, **extra})
        code, out, err = run_cli(["capacity", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0])["summary"]
    known = float(summary["known_value"])
    assert abs(known - 0.5901702995080481) < 1e-15
    assert abs(float(summary["extrapolated"]) - known) <= min(1e-4 * known,
                                                              float(summary["error_bound"]))


def test_capacity_nonconvergence_exits_3(tmp_path, capsys, monkeypatch):
    # too few panels: doubling them moves the capacity by more than 1e-3
    monkeypatch.setattr(chebyshev, "_POLYGON_PANELS", 16)
    cfg = write_config(tmp_path / "cap.json", {
        "region": {"shape": "polygon",
                   "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "precision_bits": 64,
    })
    out_path = tmp_path / "never.csv"
    code, out, err = run_cli(
        ["capacity", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 3
    assert "did not converge" in err
    assert not out_path.exists()


@pytest.mark.parametrize("region", [
    {"shape": "union", "parts": [{"shape": "disc", "center": [0, 0], "radius": 1.0}] * 2},
    {"shape": "disc", "center": [1e17, 0], "radius": 1.0},
])
def test_capacity_degenerate_panels_exit_3(tmp_path, capsys, region):
    # valid regions whose panels all drop (coincident circles) or collapse
    # onto one segment (a circle at 1e17) leave Symm's system empty or
    # singular: a solver failure, not an invalid config
    cfg = write_config(tmp_path / "cap.json", {"region": region})
    out_path = tmp_path / "never.csv"
    code, out, err = run_cli(["capacity", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 3
    assert "did not converge" in err and "boundary panels" in err
    assert not out_path.exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    out_path = tmp_path / "none.csv"
    code, out, err = run_cli(
        ["capacity", "--config", str(bad), "--output", str(out_path)], capsys)
    assert code == 2
    assert not out_path.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        ["capacity", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2


def test_bad_precision_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {"suite": "properties"})
    code, out, err = run_cli(
        ["verify", "--config", cfg, "--precision", "100"], capsys)
    assert code == 2
    assert "precision_bits" in err


def test_orthopoly_disc_first_norm(tmp_path, capsys):
    # centered unit disc: M_1 = pi/2, reported in log and linear columns
    cfg = write_config(tmp_path / "orth.json", {
        "weight": UNIT_DISC_WEIGHT, "N": 12, "precision_bits": 128,
    })
    code, out, err = run_cli(
        ["orthopoly", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = {int(r["n"]): r for r in payload["rows"]}
    assert len(rows) == 13
    m1 = rows[1]
    with mp.workprec(128):
        assert abs(mp.mpf(m1["log_Mn"]) - mp.log(mp.pi / 2)) < mp.mpf(10) ** -30
        assert abs(mp.mpf(m1["Mn"]) - mp.pi / 2) < mp.mpf(10) ** -30
        assert abs(mp.mpf(m1["Mn_nth_root"]) - mp.pi / 2) < mp.mpf(10) ** -30
    assert rows[0]["Mn_nth_root"] == ""
    summary = payload["summary"]
    assert 0.5 < float(summary["rho_extrapolated"]) < 1.2
    assert summary["tail_window"].split()[0].isdigit()


def test_orthopoly_tail_window_guard(tmp_path, capsys):
    # the tail fit needs at least four points; N=8 cannot supply them
    cfg = write_config(tmp_path / "orth.json", {
        "weight": UNIT_DISC_WEIGHT, "N": 8, "precision_bits": 64,
    })
    code, out, err = run_cli(["orthopoly", "--config", cfg], capsys)
    assert code == 2
    assert "tail window" in err


def test_orthopoly_overlapping_union_exits_2(tmp_path, capsys):
    # two thin crossed rectangles: no vertex of either lies inside the other
    def rect(x0, x1, y0, y1):
        return {"shape": "polygon", "vertices": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]}

    cfg = write_config(tmp_path / "crossed.json", {
        "weight": {"support": {"shape": "union", "parts": [rect(-100, 100, -0.1, 0.1),
                                                           rect(50, 50.02, -100, 10)]},
                   "density": {"kind": "constant"}},
        "N": 12,
    })
    code, out, err = run_cli(["orthopoly", "--config", cfg], capsys)
    assert code == 2
    assert "pairwise disjoint" in err


def test_orthopoly_degenerate_moments_exit_4(tmp_path, capsys):
    # two tiny far-apart discs: Gram matrix falls below working precision
    cfg = write_config(tmp_path / "degen.json", {
        "weight": {
            "support": {"shape": "union", "parts": [
                {"shape": "disc", "center": [-1, 0], "radius": 0.1},
                {"shape": "disc", "center": [1, 0], "radius": 0.1},
            ]},
            "density": {"kind": "constant"},
        },
        "N": 24,
        "precision_bits": 64,
    })
    out_path = tmp_path / "degen.csv"
    code, out, err = run_cli(
        ["orthopoly", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 4
    assert "degenerate moment matrix" in err
    assert err.count("degenerate moment matrix") == 1
    assert not out_path.exists()


TINY_OFFCENTER = {
    "weight": {
        "support": {"shape": "disc", "center": [1, 0], "radius": 0.01},
        "density": {"kind": "constant"},
    },
    "N": 6,
    "precision_bits": 64,
}


@pytest.mark.parametrize("command", ["toeplitz", "orthopoly", "predict"])
def test_tiny_offcenter_disc_exits_4(tmp_path, capsys, command):
    # radius 0.01 at distance 1: at 64 bits both the plain table (orthopoly,
    # predict) and the Gaussian one (toeplitz) fail their Cholesky
    cfg = write_config(tmp_path / "tiny.json", TINY_OFFCENTER)
    out_path = tmp_path / "tiny.csv"
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 4
    assert "degenerate moment matrix" in err
    assert err.count("degenerate moment matrix") == 1
    assert not out_path.exists()


def _square(half):
    return {"shape": "polygon",
            "vertices": [[-half, -half], [half, -half], [half, half], [-half, half]]}


# each overflowed a double once squared: the radial table's hi^2, the
# Gaussian guard's rmax^2, an edge's |b - a|^2
HUGE_SUPPORTS = {"disc": {"shape": "disc", "center": [0, 0], "radius": 1e200},
                 "offcentre-disc": {"shape": "disc", "center": [0.5, 0], "radius": 1e200},
                 "square-1e160": _square(1e160), "square-7e153": _square(7e153)}


@pytest.mark.parametrize("command", ["toeplitz", "orthopoly", "predict"])
@pytest.mark.parametrize("name", HUGE_SUPPORTS)
def test_huge_support_exits_2(tmp_path, capsys, name, command):
    # (2 rmax)^2 must be a finite double, rmax the bounding radius: a larger
    # support is a config error, plain tables included, with no traceback
    cfg = write_config(tmp_path / "huge.json", {
        "weight": {"support": HUGE_SUPPORTS[name], "density": {"kind": "constant"}}, "N": 12,
    })
    out_path = tmp_path / "huge.csv"
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert "support too large" in err and "Traceback" not in err
    assert not out_path.exists()


# Gaussian guards past weight._MAX_GUARD_BITS: 1.44e40 bits on the disc,
# 4.6e307 on the square, each within the range check above
GUARD_SUPPORTS = {"offcentre-disc-1e20": {"shape": "disc", "center": [0.5, 0], "radius": 1e20},
                  "square-4e153": _square(4e153)}


@pytest.mark.parametrize("name", GUARD_SUPPORTS)
def test_unbounded_gaussian_guard_exits_3(tmp_path, capsys, name):
    # the Gaussian table would cancel in more guard bits than the cap: exit
    # 3 before any rule is built, with no traceback and no output file
    cfg = write_config(tmp_path / "guard.json", {
        "weight": {"support": GUARD_SUPPORTS[name], "density": {"kind": "constant"}}, "N": 12,
    })
    out_path = tmp_path / "guard.csv"
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 3
    assert "guard bits" in err and "Traceback" not in err
    assert not out_path.exists()


def test_toeplitz_truncation_too_small_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "toep.json", {
        "weight": UNIT_DISC_WEIGHT, "q": 2, "N": 1, "precision_bits": 64,
    })
    code, out, err = run_cli(["toeplitz", "--config", cfg], capsys)
    assert code == 2
    assert "truncation" in err


def test_toeplitz_oracle_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path / "toep.json", {
        "weight": UNIT_DISC_WEIGHT, "q": 1, "N": 16, "precision_bits": 128,
    })
    code, out, err = run_cli(
        ["toeplitz", "--config", cfg, "--oracle", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["q"] == 1
    assert float(payload["summary"]["max_oracle_rel_dev"]) < 1e-8
    head = payload["rows"][0]
    assert set(head) >= {"n", "log_sn", "sn", "trusted",
                         "oracle_log_sn", "oracle_rel_dev"}
    trusted = [r for r in payload["rows"] if r["trusted"]]
    assert len(trusted) == int(payload["summary"]["trusted_count"]) >= 5
    for r in trusted:
        assert float(r["oracle_rel_dev"]) < 1e-8


def test_toeplitz_ball_oracle_full_precision(tmp_path, capsys):
    # the closed-form chord keeps the ball spectrum exact to the last digits
    cfg = write_config(tmp_path / "toep.json", {
        "weight": {"density": {"kind": "ball3d_reduction"}}, "q": 1, "N": 12,
    })
    code, out, err = run_cli(
        ["toeplitz", "--config", cfg, "--oracle", "--precision", "256", "--format", "json"],
        capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert float(summary["max_oracle_rel_dev"]) <= 1e-60
    assert int(summary["trusted_count"]) == 13


def test_toeplitz_oracle_general_field_full_precision(tmp_path, capsys):
    # at b0 != 2 the table is built at the field itself, so the spectrum
    # holds to the working precision there as it does at b0 = 2
    cfg = write_config(tmp_path / "toep.json", {
        "weight": UNIT_DISC_WEIGHT, "q": 1, "b0": 3.0, "N": 24, "precision_bits": 128,
    })
    code, out, err = run_cli(
        ["toeplitz", "--config", cfg, "--oracle", "--format", "json"], capsys)
    assert code == 0
    summary = json.loads(out)["summary"]
    assert float(summary["b0"]) == 3.0
    assert float(summary["max_oracle_rel_dev"]) < 1e-30


def test_toeplitz_oracle_rejects_offcenter(tmp_path, capsys):
    cfg = write_config(tmp_path / "toep.json", {
        "weight": {
            "support": {"shape": "disc", "center": [0.5, 0], "radius": 1.0},
            "density": {"kind": "constant"},
        },
        "q": 0, "N": 6, "precision_bits": 64,
    })
    code, out, err = run_cli(
        ["toeplitz", "--config", cfg, "--oracle"], capsys)
    assert code == 2
    assert "radial" in err


def test_toeplitz_oracle_rejects_before_the_solve(tmp_path, capsys, monkeypatch):
    # a non-radial --oracle run is a config error found before any solve
    def unused(*args):
        raise AssertionError("toeplitz_spectrum ran before the oracle check")

    monkeypatch.setattr(cli, "toeplitz_spectrum", unused)
    cfg = write_config(tmp_path / "toep.json", {
        "weight": OFFCENTER_WEIGHT, "q": 0, "N": 48, "precision_bits": 256,
    })
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--oracle"], capsys)
    assert code == 2
    assert "oracle requires centered radial weight" in err


def test_toeplitz_reports_eigen_solve(tmp_path, capsys):
    cfg = write_config(tmp_path / "toep.json", {
        "weight": OFFCENTER_WEIGHT, "q": 0, "N": 12, "precision_bits": 64,
    })
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["eigen_solve"] == "householder-ql"
    # the centred disc takes the radial path: a diagonal block, no reduction
    cfg = write_config(tmp_path / "disc.json", {
        "weight": UNIT_DISC_WEIGHT, "q": 0, "N": 12, "precision_bits": 64,
    })
    code, out, err = run_cli(["toeplitz", "--config", cfg], capsys)
    assert code == 0
    header, table, summary = parse_csv(out)
    assert summary["eigen_solve"] == "diagonal"


def test_toeplitz_ql_nonconvergence_exits_3(tmp_path, capsys, monkeypatch):
    # no QL sweep allowed: the first eigenvalue that has not deflated fails
    monkeypatch.setattr(landau, "_QL_ITERATIONS", 0)
    cfg = write_config(tmp_path / "toep.json", {
        "weight": OFFCENTER_WEIGHT, "q": 0, "N": 12, "precision_bits": 128,
    })
    out_path = tmp_path / "toep.csv"
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 3
    assert "solver did not converge" in err
    assert not out_path.exists()


def test_predict_unit_disc_level_limit(tmp_path, capsys):
    cfg = write_config(tmp_path / "pred.json", {
        "weight": UNIT_DISC_WEIGHT, "q": 1, "N": 16,
        "degrees": [4, 6, 8, 10, 12], "precision_bits": 128,
    })
    code, out, err = run_cli(
        ["predict", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    values = {r["quantity"]: float(r["value"]) for r in payload["rows"]}
    # B0/2 * Cap(unit disc)^2 = 1 for the level shift limit
    assert abs(values["level_limit"] - 1.0) < 1e-6
    assert abs(values["squared_extrapolated"]
               - values["nth_root_extrapolated"] ** 2) < 1e-12
    assert values["log_asymptote_nlogn_coefficient"] == -1.0
    summary = payload["summary"]
    assert abs(float(summary["capacity_extrapolated"]) - 1.0) < 1e-4
    assert "disc" in summary["support"]
    assert summary["weight"].startswith("const:")


def test_predict_square_capacity_and_error_bound(tmp_path, capsys):
    cfg = write_config(tmp_path / "pred.json", {
        "weight": {"support": {"shape": "polygon",
                               "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]},
                   "density": {"kind": "constant"}},
        "q": 0, "N": 13, "precision_bits": 64,
    })
    code, out, err = run_cli(["predict", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    summary = payload["summary"]
    cap = float(summary["capacity_extrapolated"])
    bound = float(summary["capacity_error_bound"])
    exact = 0.5901702995080481
    assert abs(cap - exact) <= min(1e-4 * exact, bound)
    values = {r["quantity"]: float(r["value"]) for r in payload["rows"]}
    assert abs(values["level_limit"] - cap ** 2) < 1e-12


@pytest.mark.parametrize("command, payload", [
    ("capacity", {"region": {"shape": "disc", "center": [0, 0], "radius": 1.0}}),
    ("toeplitz", {"weight": UNIT_DISC_WEIGHT, "N": 8}),
    ("verify", {"suite": "theorem3"}),
], ids=["capacity", "toeplitz", "verify"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, payload, target):
    # the table is computed, then cannot be written: one stderr line naming
    # the path, no traceback
    out_path = tmp_path / "absent" / "out.csv" if target == "missing-dir" else tmp_path
    cfg = write_config(tmp_path / "cfg.json", payload)
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert err.startswith("landaucap: cannot write output:") and err.count("\n") == 1
    assert str(out_path) in err and "Traceback" not in err
    assert not (tmp_path / "absent").exists()


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "ver.json", {"suite": "nope"})
    code, out, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 2
    assert "unknown suite" in err
    assert out == ""  # nothing emitted before the config check


def test_verify_suite_smoke(tmp_path, capsys):
    # the cheapest suite end to end: closed-form first Landau level checks
    cfg = write_config(tmp_path / "ver.json", {"suite": "lemma2-q1"})
    code, out, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[lemma2-q1]")]
    assert lines and all(" PASS " in ln for ln in lines)
    assert all(" FAIL " not in ln for ln in lines)
    assert any("measured" in ln and "expected" in ln for ln in lines)


def test_reruns_write_identical_files(tmp_path, capsys):
    # every command runs on one thread, in a fixed order
    cfg = write_config(tmp_path / "cap.json", {
        "region": {"shape": "polygon",
                   "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "degrees": [4, 6, 8, 10, 12],
        "precision_bits": 64,
    })
    outputs = []
    for run in range(3):
        path = tmp_path / f"cap_{run}.csv"
        code, out, err = run_cli(
            ["capacity", "--config", cfg, "--output", str(path)], capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_precision_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "orth.json", {
        "weight": UNIT_DISC_WEIGHT, "N": 14, "precision_bits": 64,
    })
    code, out, err = run_cli(
        ["orthopoly", "--config", cfg, "--precision", "256",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["precision_bits"] == 256
    # 256 bits emit ceil(0.3 * 256) = 77 decimal digits
    m1 = json.loads(out)["rows"][1]["log_Mn"]
    mantissa = m1.replace("-", "").replace(".", "").split("e")[0]
    assert len(mantissa) >= 70


# ------------------------------------------------- digits of emitted values

def significant_digits(text):
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0"))


def test_predict_matches_orthopoly_at_working_precision(tmp_path, capsys):
    # predict derives its rows at the working precision, not at 53 bits
    cfg = write_config(tmp_path / "sq.json", {"weight": UNIT_SQUARE_WEIGHT, "N": 24})
    code, out, _ = run_cli(["orthopoly", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    ortho = json.loads(out)["summary"]
    code, out, _ = run_cli(["predict", "--config", cfg, "--format", "json"], capsys)
    assert code == 0
    pred = json.loads(out)
    assert pred["summary"]["rho_extrapolated"] == ortho["rho_extrapolated"]
    rows = {r["quantity"]: r["value"] for r in pred["rows"]}
    with mp.workprec(256):
        limsup = mp.mpf(rows["nth_root_limsup"])
        rel = abs(mp.mpf(rows["squared_limsup"]) / limsup ** 2 - 1)
    assert rel <= mp.mpf(10) ** -35


def test_capacity_values_emitted_as_doubles(tmp_path, capsys):
    # float64 capacities print 17 significant digits that parse back to the
    # same double, whatever the working precision
    region = UNIT_SQUARE_WEIGHT["support"]
    est = chebyshev.capacity_estimate(region_from_config(region))
    known = capacity_known(region_from_config(region))
    cfg = write_config(tmp_path / "cap.json", {"region": region})
    code, out, _ = run_cli(["capacity", "--config", cfg, "--format", "json",
                            "--precision", "256"], capsys)
    assert code == 0
    payload = json.loads(out)
    summary = payload["summary"]
    with mp.workprec(256):
        expected = [(summary["extrapolated"], est.extrapolated),
                    (summary["log_extrapolated"], mp.log(est.extrapolated)),
                    (summary["known_value"], known)]
        for row, val in zip(payload["rows"], est.values):
            expected += [(row["capacity"], val), (row["log_capacity"], mp.log(val))]
    for text, value in expected:
        assert significant_digits(text) <= 17, text
        assert float(text) == float(value), text


def test_predict_capacity_values_emitted_as_doubles(tmp_path, capsys):
    cfg = write_config(tmp_path / "pred.json", {
        "weight": UNIT_SQUARE_WEIGHT, "q": 0, "b0": 3.0, "N": 13})
    code, out, _ = run_cli(["predict", "--config", cfg, "--format", "json",
                            "--precision", "256"], capsys)
    assert code == 0
    payload = json.loads(out)
    rows = {r["quantity"]: r["value"] for r in payload["rows"]}
    cap_text = payload["summary"]["capacity_extrapolated"]
    est = chebyshev.capacity_estimate(region_from_config(UNIT_SQUARE_WEIGHT["support"]))
    with mp.workprec(256):
        cap = mp.mpf(est.extrapolated)
        expected = [(cap_text, cap),
                    (rows["level_limit"], mp.mpf(1.5) * cap ** 2),
                    (rows["log_asymptote_linear_coefficient"], mp.log(1.5) + 2 * mp.log(cap))]
    for text, value in expected:
        assert significant_digits(text) <= 17, text
        assert float(text) == float(value), text
    # the rows that do not depend on the capacity keep every digit
    assert significant_digits(rows["nth_root_limsup"]) >= 70


# ------------------------------------------------- config errors vs bugs

@pytest.mark.parametrize("payload", [
    {"weight": {**UNIT_DISC_WEIGHT}, "N": None},
    {"weight": {"support": {"shape": "disc", "center": [0, 0], "radius": None},
                "density": {"kind": "constant"}}},
    {"weight": {"support": UNIT_DISC_WEIGHT["support"],
                "density": {"kind": "constant", "c": None}}},
    {"weight": {"support": {"shape": "polygon", "vertices": 4},
                "density": {"kind": "constant"}}},
    {"weight": {**UNIT_DISC_WEIGHT}, "output": ["x.csv"]},
])
def test_null_config_fields_exit_2(tmp_path, capsys, payload):
    cfg = write_config(tmp_path / "bad.json", payload)
    code, out, err = run_cli(["toeplitz", "--config", cfg], capsys)
    assert code == 2
    assert "invalid config" in err


def test_non_string_suite_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "ver.json", {"suite": ["x"]})
    code, out, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 2
    assert "invalid config" in err


def test_internal_type_error_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    # a bug in the library must surface as a traceback, not as exit 2
    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr(cli, "toeplitz_spectrum", broken)
    cfg = write_config(tmp_path / "toep.json", {"weight": UNIT_DISC_WEIGHT, "N": 8})
    with pytest.raises(TypeError, match="internal bug"):
        main(["toeplitz", "--config", cfg])


@pytest.mark.parametrize("command,fields", [
    ("toeplitz", {"N": 4.9}),
    ("toeplitz", {"N": 4, "q": 0.5}),
    ("orthopoly", {"N": 12, "n_min": 1.5}),
    ("toeplitz", {"N": True}),
])
def test_non_integral_integer_fields_exit_2(tmp_path, capsys, command, fields):
    # a fractional or boolean N, q or n_min must not be truncated to an int
    cfg = write_config(tmp_path / "frac.json", {"weight": UNIT_DISC_WEIGHT, **fields})
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert "invalid config" in err
    assert not out_path.exists()


def test_integral_float_precision_runs_and_fractional_exits_2(tmp_path, capsys):
    payload = {"weight": OFFCENTER_WEIGHT, "q": 0, "N": 4.0, "precision_bits": 128.0}
    cfg = write_config(tmp_path / "p.json", payload)
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--format", "json"], capsys)
    assert code == 0, err
    result = json.loads(out)
    assert result["precision_bits"] == 128
    assert len(result["rows"]) == 5
    cfg = write_config(tmp_path / "q.json", {**payload, "precision_bits": 128.5})
    code, out, err = run_cli(["toeplitz", "--config", cfg], capsys)
    assert code == 2
    assert "invalid config" in err


@pytest.mark.parametrize("command,payload", [
    ("toeplitz", {"weight": {"support": UNIT_DISC_WEIGHT["support"],
                             "density": {"kind": "constant", "c": math.inf}}}),
    ("orthopoly", {"weight": {"support": {"shape": "polygon",
                                          "vertices": [[0, 0], [1, 0], [math.nan, 1]]},
                              "density": {"kind": "constant"}}}),
    ("orthopoly", {"weight": {"support": {"shape": "disc", "center": [math.nan, 0], "radius": 1.0},
                              "density": {"kind": "constant"}}}),
    ("toeplitz", {"weight": {"support": {"shape": "disc", "center": [math.inf, 0], "radius": 1.0},
                             "density": {"kind": "constant"}}}),
    ("toeplitz", {"weight": UNIT_DISC_WEIGHT, "b0": math.inf}),
    ("capacity", {"region": {"shape": "disc", "center": [True, False], "radius": True}}),
    ("orthopoly", {"weight": {"support": UNIT_DISC_WEIGHT["support"],
                              "density": {"kind": "constant", "c": True}}}),
    ("toeplitz", {"weight": {"density": {"kind": "ball3d_reduction", "R": True}}}),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, payload):
    # JSON readers accept NaN and Infinity, and true is not the number 1;
    # they must stop at the config
    cfg = write_config(tmp_path / "nonfinite.json", {"N": 12, "precision_bits": 64, **payload})
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert "invalid config" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command,payload", [
    ("capacity", {"region": {"shape": "disc", "center": ["0", "0"], "radius": "1.5"},
                  "precision_bits": "64"}),
    ("capacity", {"region": {"shape": "disc", "center": [0, 0], "radius": "1.5"}}),
    ("capacity", {"region": {"shape": "disc", "center": [0, 0], "radius": 1.5},
                  "precision_bits": "64"}),
    ("orthopoly", {"weight": UNIT_DISC_WEIGHT, "N": "12"}),
    ("toeplitz", {"weight": UNIT_DISC_WEIGHT, "N": 4, "b0": "2"}),
    ("toeplitz", {"weight": {"support": UNIT_DISC_WEIGHT["support"],
                             "density": {"kind": "constant", "c": "1"}}, "N": 4}),
])
def test_string_config_numbers_exit_2(tmp_path, capsys, command, payload):
    # int("12") and float("1.5") parse strings; a config number must be a
    # JSON number, as a boolean must not be one
    cfg = write_config(tmp_path / "strings.json", payload)
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli([command, "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert "invalid config" in err
    assert not out_path.exists()


def test_odd_power_on_a_circle_through_the_origin_exits_3(tmp_path, capsys):
    # |z| is not smooth on a circle through 0, so no boundary rule resolves it
    cfg = write_config(tmp_path / "p1.json", {
        "weight": {"support": {"shape": "disc", "center": [1, 0], "radius": 1.0},
                   "density": {"kind": "radial", "profile": "power:1"}},
        "N": 12, "precision_bits": 64,
    })
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(["orthopoly", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 3
    assert "odd power" in err
    assert not out_path.exists()


POWER_PROFILE_SUPPORT = {"shape": "disc", "center": [0.5, 0], "radius": 1.0}


@pytest.mark.parametrize("profile", ["power: 1_0", "power:٢", "power:+2", "power: 2"])
def test_power_profile_needs_ascii_digits_exit_2(tmp_path, capsys, profile):
    # int() takes underscores, signs, spaces and non-ASCII digits; k must not
    cfg = write_config(tmp_path / "power.json", {
        "weight": {"support": POWER_PROFILE_SUPPORT,
                   "density": {"kind": "radial", "profile": profile}},
        "N": 12, "precision_bits": 64,
    })
    out_path = tmp_path / "out.csv"
    code, out, err = run_cli(["predict", "--config", cfg, "--output", str(out_path)], capsys)
    assert code == 2
    assert "invalid config" in err
    assert not out_path.exists()


def test_power_profile_in_ascii_digits_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "power.json", {
        "weight": {"support": POWER_PROFILE_SUPPORT,
                   "density": {"kind": "radial", "profile": "power:3"}},
        "N": 12, "precision_bits": 64,
    })
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(["predict", "--config", cfg, "--format", "json",
                              "--output", str(out_path)], capsys)
    assert code == 0, err
    assert "radial:power:3:3|" in out_path.read_text()


def test_emission_digits():
    assert cli.emission_digits(128) == 39
    assert cli.emission_digits(256) == 77


def test_disc_barely_off_centre_converges(tmp_path, capsys):
    # its tridiagonal's first coupling is about 2^-128 of the diagonal, and
    # the QL once stalled behind it (exit 3)
    cfg = write_config(tmp_path / "near.json", {
        "weight": {"support": {"shape": "disc", "center": [1e-38, 0], "radius": 1.5},
                   "density": {"kind": "constant"}},
        "N": 6,
    })
    code, out, err = run_cli(["toeplitz", "--config", cfg, "--format", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["summary"]["eigen_solve"] == "householder-ql"


@pytest.fixture
def thawed():
    """No freeze in force when the test starts, as in a fresh process."""
    gc.unfreeze()
    assert gc.get_freeze_count() == 0


def _frozen_during(monkeypatch, name):
    """Record, on each call of cli.name, whether the heap was frozen."""
    seen, command = [], getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append(gc.get_freeze_count() > 0)
        return command(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    return seen


@pytest.mark.parametrize("payload, code", [
    ({"weight": UNIT_DISC_WEIGHT, "N": 12}, 0),
    ({"weight": UNIT_DISC_WEIGHT, "N": "four"}, 2),
    (TINY_OFFCENTER, 4),
])
def test_main_freezes_the_heap_for_the_command_only(tmp_path, capsys, monkeypatch,
                                                    thawed, payload, code):
    seen = _frozen_during(monkeypatch, "cmd_orthopoly")
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert run_cli(["orthopoly", "--config", cfg], capsys)[0] == code
    assert seen == [True]
    assert gc.get_freeze_count() == 0


def test_main_thaws_the_heap_when_an_exception_escapes(tmp_path, monkeypatch, thawed):
    def boom(*args):
        assert gc.get_freeze_count() > 0
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_orthopoly", boom)
    cfg = write_config(tmp_path / "cfg.json", {"weight": UNIT_DISC_WEIGHT, "N": 12})
    with pytest.raises(RuntimeError, match="boom"):
        main(["orthopoly", "--config", cfg])
    assert gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["no-such-command", "--config", cfg])
    assert gc.get_freeze_count() == 0


def test_main_keeps_its_callers_freeze(tmp_path, capsys, thawed):
    cfg = write_config(tmp_path / "cfg.json", {"weight": UNIT_DISC_WEIGHT, "N": 12})
    gc.freeze()
    try:
        count = gc.get_freeze_count()
        assert count > 0
        assert run_cli(["orthopoly", "--config", cfg], capsys)[0] == 0
        assert gc.get_freeze_count() == count
    finally:
        gc.unfreeze()
