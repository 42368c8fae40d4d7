import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fisherqp
from fisherqp import extremizers
from fisherqp.cli import main
from fisherqp.reports import CHECKS


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


GRID = {"xmin": -8.0, "xmax": 8.0, "n": 4097}


def test_verify_identities_pass(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["overall_pass"] is True
    assert report["schema"] == 1
    assert report["inputs_digest"].startswith("sha256:")
    names = {c["name"] for c in report["checks"]}
    assert {"qp-four-forms", "mean-QP-equals-FI", "fluctuation-mean-zero",
            "fluctuation-second-moment", "thermal-fisher-route-b"} <= names
    # the standing discrepancy flags are always present (with ratios)
    assert {"flag-mean-qp-sign", "flag-thermal-route-factor"} <= names
    flagged = [c for c in report["checks"] if c["flagged"]]
    assert all("ratio" in c["note"] for c in flagged[:2])
    assert (out / "density.csv").exists()
    assert (out / "meta.json").exists()


def test_verify_identities_gibbs_density(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": {"xmin": -8.0, "xmax": 8.0, "n": 8193},
            "density": {
                "kind": "gibbs",
                "energy": {"kind": "monomial", "power": 2, "coeff": 0.5},
                "gamma": 1.0,
            },
        },
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 0
    names = {c["name"] for c in read_report(out)["checks"]}
    assert {"gibbs-qp-formula", "gibbs-fisher-formula"} <= names


def test_report_determinism(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["verify-identities", "--input", inp, "--out", str(out1)])
    main(["verify-identities", "--input", inp, "--out", str(out2)])
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", str(bad), "--out", str(out)]) == 2
    assert not (out / "report.json").exists()


def test_missing_input_exits_2(tmp_path):
    assert main([
        "verify-identities", "--input", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "out"),
    ]) == 2


def test_schema_violation_exits_2(tmp_path):
    inp = write_json(tmp_path / "in.json", {"grid": GRID})  # no density
    assert main(["verify-identities", "--input", inp, "--out",
                 str(tmp_path / "out")]) == 2


def test_epi_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": GRID,
            "constraints": [{"kind": "monomial", "power": 2, "lambda": -4.0}],
        },
    )
    out = tmp_path / "out"
    assert main(["epi", "--input", inp, "--out", str(out)]) == 0
    result = json.loads((out / "epi_result.json").read_text())
    assert result["alpha_norm"] == pytest.approx(4.0, abs=1e-3)
    assert (out / "p_I.csv").exists() and (out / "psi.csv").exists()


def test_lapack_failure_exits_3_with_report(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError but is a numerical failure, not a
    # malformed input
    monkeypatch.setattr(extremizers, "MAX_ITERATIONS", 1)
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "constraints": [{"kind": "monomial", "power": 2, "lambda": -4.0}]},
    )
    out = tmp_path / "out"
    assert main(["epi", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["error"]["type"] == "LinAlgError"
    assert report["checks"] == [] and report["overall_pass"] is False


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf"])
def test_bad_tol_scale_exits_2(tmp_path, capsys, scale):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out),
                 f"--tol-scale={scale}"]) == 2
    assert "--tol-scale must be positive and finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_epi_solver_failure_exits_3(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": GRID,
            "constraints": [{"kind": "monomial", "power": 2, "lambda": 4.0}],
        },
    )
    out = tmp_path / "out"
    assert main(["epi", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["error"]["type"] == "EdgeLocalized"
    assert report["overall_pass"] is False


TINY_GRID = {"xmin": -1.0, "xmax": 1.0, "n": 3}  # one interior point


def test_epi_single_interior_point_exits_2(tmp_path, capsys):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": TINY_GRID, "constraints": [{"kind": "monomial", "lambda": -4.0}]},
    )
    assert main(["epi", "--input", inp, "--out", str(tmp_path / "out")]) == 2
    assert "interior grid points" in capsys.readouterr().err


def test_sweep_single_interior_point_exits_2(tmp_path, capsys):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": TINY_GRID, "constraint": {"kind": "monomial"},
         "lambdas": [-1.0, -2.0, -4.0]},
    )
    assert main(["sweep", "--input", inp, "--out", str(tmp_path / "out")]) == 2
    assert "interior grid points" in capsys.readouterr().err


def test_nan_multiplier_exits_2(tmp_path):
    epi_in = write_json(
        tmp_path / "epi.json",
        {"grid": GRID, "constraints": [{"kind": "monomial", "lambda": float("nan")}]},
    )
    sweep_in = write_json(
        tmp_path / "sweep.json",
        {"grid": GRID, "constraint": {"kind": "monomial"},
         "lambdas": [-1.0, float("nan"), -4.0]},
    )
    assert main(["epi", "--input", epi_in, "--out", str(tmp_path / "a")]) == 2
    assert main(["sweep", "--input", sweep_in, "--out", str(tmp_path / "b")]) == 2


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg dominates import time; only the LAPACK solvers load it
    src = str(Path(fisherqp.__file__).resolve().parents[1])
    code = "import sys, fisherqp.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_maxent_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "constraint": {"kind": "monomial", "power": 2}, "target": 1.0},
    )
    out = tmp_path / "out"
    assert main(["maxent", "--input", inp, "--out", str(out)]) == 0
    result = json.loads((out / "maxent_result.json").read_text())
    assert result["alpha_gibbs"] == pytest.approx(0.5, abs=1e-6)


def test_sweep_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": GRID,
            "constraint": {"kind": "monomial", "power": 2},
            "lambdas": list(-np.exp(np.linspace(0, np.log(8), 13))),
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--input", inp, "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    names = {c["name"] for c in read_report(out)["checks"]}
    assert {"fisher-euler", "legendre-relations"} <= names


def test_evolve_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": {"xmin": -10.0, "xmax": 10.0, "n": 2561},
            "initial": {"kind": "gaussian", "sigma": 1.0},
            "potential": {"kind": "free"},
            "dt": 1.0 / 1024,
            "steps": 256,
            "dump": True,
        },
    )
    out = tmp_path / "out"
    assert main(["evolve", "--input", inp, "--out", str(out)]) == 0
    names = {c["name"] for c in read_report(out)["checks"]}
    assert names == {"continuity", "modified-hj", "entropy-rate"}
    assert (out / "trajectory" / "manifest.json").exists()


def test_evolve_window_reports_like_full_run(tmp_path):
    # without dump only the check window is kept; the checks must not notice
    spec = {
        "grid": {"xmin": -10.0, "xmax": 10.0, "n": 1281},
        "initial": {"kind": "gaussian", "sigma": 1.0, "momentum": 1.0},
        "potential": {"kind": "harmonic", "strength": 0.5},
        "dt": 1.0 / 512,
        "steps": 128,
        "check_index": 100,
    }
    checks = []
    for dump in (False, True):
        out = tmp_path / f"out{dump}"
        inp = write_json(tmp_path / f"in{dump}.json", {**spec, "dump": dump})
        assert main(["evolve", "--input", inp, "--out", str(out)]) == 0
        checks.append(read_report(out)["checks"])
    assert checks[0] == checks[1]


@pytest.mark.parametrize("index", [0, 64, 99999])
def test_evolve_out_of_range_check_index_exits_2(tmp_path, capsys, index):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": {"xmin": -10.0, "xmax": 10.0, "n": 513},
            "initial": {"kind": "gaussian", "sigma": 1.0},
            "potential": {"kind": "free"},
            "dt": 1.0 / 1024,
            "steps": 64,
            "check_index": index,
        },
    )
    out = tmp_path / "out"
    assert main(["evolve", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"schema error: index {index} must be interior (1..63)\n"
    )
    assert not (out / "report.json").exists()


def test_thermal_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": {"xmin": -16.0, "xmax": 16.0, "n": 8193},
            "heat": {"kind": "quadratic", "coeff": 0.125},
        },
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 0
    names = {c["name"] for c in read_report(out)["checks"]}
    assert "ratio-law-evolution" in names
    assert "thermalized-qp-vanishes" in names
    assert "flag-thermal-route-factor" in names


def test_thermal_log_affine(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": GRID,
            "heat": {"kind": "log-affine", "a": 4.0, "b": 0.2},
        },
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 0
    report = read_report(out)
    byname = {c["name"]: c for c in report["checks"]}
    assert byname["vanishing-qp-family"]["pass"] is True


@pytest.mark.parametrize("timing", [
    {"dt": 0},
    {"t_final": "inf"},
    {"t_final": 1e300, "dt": 1e-300},
    {"t_final": float("nan")},
])
def test_thermal_bad_step_count_exits_2(tmp_path, capsys, timing):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "heat": {"kind": "quadratic", "coeff": 0.125}, **timing},
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("schema error: t_final")
    assert not (out / "report.json").exists()


def test_thermal_over_work_budget_exits_2(tmp_path, capsys):
    # 4e9 steps on n = 257: refused before anything is computed
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 257},
         "heat": {"kind": "quadratic", "coeff": 0.125}, "t_final": 0.004, "dt": 1e-12},
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "schema error: thermal: 2*n*steps = 2.06e+12 point-steps "
        "exceeds the budget of 1e+10 point-steps\n"
    )
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("steps,dump,estimate", [
    (5120, True, "the dump's n*(steps+1)*76 = 6.38e+09 B exceeds the budget of 1.07e+09 B"),
    # 0.54 GB at 16 B per point and step, but 2.55 GB of CSV
    (2047, True, "the dump's n*(steps+1)*76 = 2.55e+09 B exceeds the budget of 1.07e+09 B"),
    (10**6, False, "n*steps = 1.64e+10 point-steps exceeds the budget of 1e+10 point-steps"),
])
def test_evolve_over_budget_exits_2(tmp_path, capsys, steps, dump, estimate):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 16385},
         "initial": {"kind": "gaussian", "sigma": 1.0}, "potential": {"kind": "free"},
         "dt": 1.0 / 1024, "steps": steps, "dump": dump},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: evolve: {estimate}\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("payload_n,flag_n", [(10**13, None), (4097, "10000000000000")])
def test_grid_over_max_points_exits_2(tmp_path, capsys, payload_n, flag_n):
    # refused before any array is allocated: no MemoryError, no report
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {**GRID, "n": payload_n}, "density": {"kind": "gaussian"}},
    )
    out = tmp_path / "out"
    flag = ["--n", flag_n] if flag_n else []
    assert main(["verify-identities", "--input", inp, "--out", str(out), *flag]) == 2
    assert capsys.readouterr().err == (
        "schema error: verify-identities: n = 1e+13 points exceeds the budget of "
        "4.19e+06 points\n"
    )
    assert not (out / "report.json").exists()


SMALL_EVOLVE = {"grid": {"xmin": -10.0, "xmax": 10.0, "n": 257},
                "initial": {"kind": "gaussian"}, "potential": {"kind": "free"},
                "dt": 1.0 / 1024, "steps": 8}
SMALL_MAXENT = {"grid": GRID, "target": 1.0}


@pytest.mark.parametrize("command,payload,key,value", [
    ("evolve", {**SMALL_EVOLVE, "steps": 8.7}, "steps", 8.7),
    ("evolve", {**SMALL_EVOLVE, "check_index": 4.5}, "check_index", 4.5),
    ("evolve", {**SMALL_EVOLVE, "check_index": True}, "check_index", True),
    ("verify-identities", {"grid": {**GRID, "n": 4097.5}, "density": {"kind": "gaussian"}},
     "n", 4097.5),
    ("maxent", {**SMALL_MAXENT, "constraint": {"kind": "monomial", "power": 2.5}},
     "power", 2.5),
    ("maxent", {**SMALL_MAXENT, "constraint": {"kind": "monomial", "power": True}},
     "power", True),
])
def test_non_integral_integer_exits_2(tmp_path, capsys, command, payload, key, value):
    # refused, not truncated: int() would run 8 steps for 8.7
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"schema error: {command}: {key} must be an integer, not {value!r}\n"
    )
    assert not (out / "report.json").exists()


def test_thermal_one_point_support_exits_3(tmp_path, capfd):
    # Q = 1e306 x^2 leaves one grid point on the coupled density's support:
    # the slope fit is refused by name before LAPACK sees it
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 257},
         "heat": {"kind": "quadratic", "coeff": 1e306}},
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 3
    assert read_report(out)["error"]["type"] == "DegenerateSupport"
    err = capfd.readouterr().err
    assert err.startswith("numerical failure: DegenerateSupport: gibbs-form-slope")
    assert err.count("\n") == 1  # no LAPACK or numpy message


def test_failed_check_exits_3(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    code = main([
        "verify-identities", "--input", inp, "--out", str(out),
        "--tol-scale", "1e-12",
    ])
    assert code == 3
    assert read_report(out)["overall_pass"] is False


def test_grid_override(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    assert main([
        "verify-identities", "--input", inp, "--out", str(out),
        "--n", "8193", "--xmin", "-9", "--xmax", "9",
    ]) == 0
    density_rows = (out / "density.csv").read_text().splitlines()
    assert len(density_rows) == 8194
    assert density_rows[1].startswith("-9,")


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert "eq2.4 mean-QP-equals-FI" in lines
    assert "eq5.11 fisher-euler" in lines
    assert len(lines) == len(CHECKS)


# Small inputs for every command form; together their reports carry every
# registered check (their verdicts are not the subject here).
COVERAGE_GRID = {"xmin": -8.0, "xmax": 8.0, "n": 1025}
COVERAGE_FIXTURES = {
    "vi-gaussian": ("verify-identities",
                    {"grid": COVERAGE_GRID, "density": {"kind": "gaussian"}}),
    "vi-gibbs": ("verify-identities",
                 {"grid": COVERAGE_GRID,
                  "density": {"kind": "gibbs", "gamma": 1.0,
                              "energy": {"kind": "monomial", "power": 2, "coeff": 0.5}}}),
    "evolve": ("evolve",
               {"grid": {"xmin": -10.0, "xmax": 10.0, "n": 513},
                "initial": {"kind": "gaussian"}, "potential": {"kind": "free"},
                "dt": 1.0 / 1024, "steps": 16}),
    "epi": ("epi",
            {"grid": COVERAGE_GRID,
             "constraints": [{"kind": "monomial", "power": 2, "lambda": -4.0}]}),
    "maxent": ("maxent",
               {"grid": COVERAGE_GRID, "constraint": {"kind": "monomial", "power": 2},
                "target": 1.0}),
    "sweep": ("sweep",
              {"grid": COVERAGE_GRID, "constraint": {"kind": "monomial", "power": 2},
               "lambdas": [-1.0, -1.5, -2.0, -3.0, -4.0, -6.0, -8.0]}),
    "thermal-quadratic": ("thermal",
                          {"grid": {"xmin": -16.0, "xmax": 16.0, "n": 1025},
                           "heat": {"kind": "quadratic", "coeff": 0.125}}),
    "thermal-log-affine": ("thermal",
                           {"grid": COVERAGE_GRID,
                            "heat": {"kind": "log-affine", "a": 4.0, "b": 0.2}}),
}
# the one call-site override of a registered tolerance
TOL_OVERRIDES = {("epi", "mean-QP-equals-FI"): 1e-5}


def test_registry_equals_reported_checks(tmp_path):
    table = {c.name: c.tol for c in CHECKS}
    reported = set()
    for label, (command, payload) in COVERAGE_FIXTURES.items():
        out = tmp_path / label
        main([command, "--input", write_json(tmp_path / f"{label}.json", payload),
              "--out", str(out)])
        for check in read_report(out)["checks"]:
            name = check["name"]
            reported.add(name)
            assert check["tol"] == TOL_OVERRIDES.get((command, name), table[name]), name
    assert reported == set(table)
