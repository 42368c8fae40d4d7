import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import fisherqp
from fisherqp import (Grid, PhysicalConstants, ScalarField, density_from_samples, extremizers,
                     propagator, suites)
from fisherqp.cli import COMMANDS, main
from fisherqp.reports import CHECKS, IdentityCheck, make_check
from fisherqp.serialization import save_json


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _refuse_constant(token):
    raise ValueError(f"report.json is not strict JSON: it holds {token}")


def read_report(out_dir):
    """The report, parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads((out_dir / "report.json").read_text(), parse_constant=_refuse_constant)


GRID = {"xmin": -8.0, "xmax": 8.0, "n": 4097}
SMALL_GRID = {"xmin": -8.0, "xmax": 8.0, "n": 257}


def test_verify_identities_pass(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["overall_pass"] is True
    assert report["schema"] == 2
    assert report["inputs_digest"].startswith("sha256:")
    byname = {c["name"]: c for c in report["checks"]}
    assert list(byname) == ["qp-four-forms", "mean-QP-equals-FI", "fluctuation-mean-zero"]
    for record in report["checks"]:
        assert set(record) == {"name", "paper_eq", "lhs", "rhs", "abs_err", "rel_err",
                               "tol", "note", "pass"}
    # the standing sign discrepancy is a measured ratio in the note
    assert "(measured ratio " in byname["mean-QP-equals-FI"]["note"]
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


def test_verify_identities_off_thermal_equality_skips_the_thermal_pair(tmp_path):
    # verify-identities forms no thermal pair (the thermal Fisher route is
    # the thermal command's): with hbar*omega != k*T it reports the checks
    # of any other constants
    inp = write_json(
        tmp_path / "in.json",
        {
            "grid": GRID,
            "density": {
                "kind": "gibbs",
                "energy": {"kind": "monomial", "power": 2, "coeff": 0.5},
                "gamma": 1.0,
            },
            "constants": {"hbar": 0.7, "mass": 1.9},
        },
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 0
    names = [c["name"] for c in read_report(out)["checks"]]
    assert names == ["qp-four-forms", "mean-QP-equals-FI", "fluctuation-mean-zero",
                     "gibbs-qp-formula", "gibbs-fisher-formula"]


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


def test_epi_reports_each_comparison_once(tmp_path):
    # integral(p_I Q) against (hbar^2/8m) FI is epi-ground-state scaled
    # (epi_suite), so it is not reported; at n = 1025 its 1e-5 tolerance
    # failed runs that epi-ground-state passes at 1e-4
    codes = {}
    for lam in (-1.0, -0.5):
        inp = write_json(tmp_path / "in.json", {
            "grid": {"xmin": -8.0, "xmax": 8.0, "n": 1025},
            "constraints": [{"kind": "monomial", "power": 2, "lambda": lam}],
        })
        out = tmp_path / f"out{lam}"
        codes[lam] = main(["epi", "--input", inp, "--out", str(out)])
        byname = {c["name"]: c for c in read_report(out)["checks"]}
        assert list(byname) == ["epi-ground-state", "epi-stationarity", "riccati"]
        assert byname["epi-ground-state"]["pass"] and byname["riccati"]["pass"]
    # at lambda = -0.5 the dropped record (1.08e-5) alone failed the run;
    # at lambda = -1 epi-stationarity, relative to its G term, reads
    # 9.2e-5 against 1e-4
    assert codes == {-1.0: 0, -0.5: 0}


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


SMALL_SWEEP = {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 257},
               "constraint": {"kind": "monomial", "power": 2}}


def small_epi(lam):
    return {"grid": SMALL_SWEEP["grid"],
            "constraints": [{"kind": "monomial", "power": 2, "lambda": lam}]}


def small_maxent(target):
    return {**SMALL_SWEEP, "target": target}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("command,payload,message", [
    ("sweep", {**SMALL_SWEEP, "lambdas": [True, -2.0, -3.0]},
     "lambda must be a finite number, not True"),
    ("sweep", {**SMALL_SWEEP, "lambdas": ["-1", -2.0, -3.0]},
     "lambda must be a finite number, not '-1'"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1.0, float("nan"), -4.0]},
     "lambda must be a finite number, not nan"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1.0, -float("inf"), -4.0]},
     "lambda must be a finite number, not -inf"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1.0, -2.0, -(10**400)]},
     f"lambda must be a finite number, not {-(10**400)!r}"),
    ("sweep", {**SMALL_SWEEP, "lambdas": 5}, "lambdas must be a list, not 5"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1e308, -2.0, -3.0]},
     "lambda = -1e+308 overflows the effective potential lambda*A"),
    ("epi", small_epi(True), "lambda must be a finite number, not True"),
    ("epi", small_epi("-4"), "lambda must be a finite number, not '-4'"),
    ("epi", small_epi(float("inf")), "lambda must be a finite number, not inf"),
    ("epi", small_epi(-1e308),
     "lambda = -1e+308 overflows the effective potential lambda*A"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1e300, -2.0, -3.0, -4.0]},
     "multipliers [-1e+300] give an EPI operator of norm 7.88e+300, above 1e+154; "
     "its square overflows"),
    ("epi", small_epi(-1e300),
     "multipliers [-1e+300] give an EPI operator of norm 7.88e+300, above 1e+154; "
     "its square overflows"),
    ("epi", {**small_epi(-1e306),
             "constraints": [{"kind": "monomial", "power": 2, "lambda": -1e306}] * 3},
     "the sum of the lambda*A terms overflows"),
    ("maxent", small_maxent(float("nan")), "target must be a finite number, not nan"),
    ("maxent", small_maxent(float("inf")), "target must be a finite number, not inf"),
    ("maxent", small_maxent(-float("inf")), "target must be a finite number, not -inf"),
    ("maxent", small_maxent(10**400), f"target must be a finite number, not {10**400!r}"),
    ("maxent", small_maxent(True), "target must be a finite number, not True"),
    ("maxent", small_maxent("1.0"), "target must be a finite number, not '1.0'"),
], ids=["sweep-bool", "sweep-str", "sweep-nan", "sweep-neginf", "sweep-bigint",
        "sweep-scalar", "sweep-overflow", "epi-bool", "epi-str", "epi-inf",
        "epi-overflow", "sweep-operator-norm", "epi-operator-norm", "epi-sum-overflow",
        "maxent-nan", "maxent-inf", "maxent-neginf", "maxent-bigint", "maxent-bool",
        "maxent-str"])
def test_bad_multiplier_exits_2(tmp_path, capsys, command, payload, message):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: {command}: {message}\n"
    assert not (out / "report.json").exists()


SOLVING_RUNS = {
    "sweep": {**SMALL_SWEEP, "lambdas": [-1.0, -2.0, -4.0, -8.0, -16.0]},
    "epi": small_epi(-4.0),
    "evolve": {"grid": SMALL_SWEEP["grid"], "initial": {"kind": "gaussian", "sigma": 1.0},
               "potential": {"kind": "harmonic"}, "dt": 1.0 / 64, "steps": 8},
    "thermal": {"grid": {"xmin": -16.0, "xmax": 16.0, "n": 513},
                "heat": {"kind": "quadratic", "coeff": 0.125}},
}


# dx = 1e-160/256: dx^2 underflows to 0, which the stencils and the
# operators divide by
UNDERFLOWING_GRID = {"xmin": 0.0, "xmax": 1e-160, "n": 257}
TINY_PACKET = {"kind": "gaussian", "center": 5e-161, "sigma": 6.25e-162}


@pytest.mark.parametrize("command,payload", [
    ("verify-identities", {"density": TINY_PACKET}),
    ("evolve", {**SOLVING_RUNS["evolve"], "initial": TINY_PACKET}),
    ("epi", SOLVING_RUNS["epi"]),
    ("sweep", SOLVING_RUNS["sweep"]),
    ("thermal", SOLVING_RUNS["thermal"]),
])
def test_underflowing_grid_spacing_exits_2(tmp_path, capsys, command, payload):
    inp = write_json(tmp_path / "in.json", {**payload, "grid": UNDERFLOWING_GRID})
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"schema error: {command}: dx^2 = 0 overflows or vanishes: "
        f"it must lie in [2.23e-308, 4.49e+307]\n")
    assert not out.exists()


def expected_lapack():
    """The name ``meta.json`` gives the LAPACK a solving run uses here:
    numpy's own OpenBLAS where numpy loaded one, else scipy's."""
    lapack = fisherqp.grid._numpy_openblas()
    return lapack.name if lapack else f"scipy {scipy.__version__} cython_lapack"


def test_cli_import_leaves_scipy_linalg_unloaded(tmp_path):
    # importing the CLI loads no scipy.  Where numpy ships its own
    # OpenBLAS, a solving run imports no scipy module at all and, on
    # Linux, maps that one OpenBLAS file and no other; elsewhere it loads
    # scipy's cython_lapack extension alone, not the scipy.linalg package
    hook = (
        "import atexit, runpy, sys\n"
        "def report():\n"
        "    maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "    print('mapped:', *sorted({line.split()[-1].rsplit('/', 1)[-1]\n"
        "                              for line in maps.splitlines()\n"
        "                              if 'libscipy_openblas' in line}))\n"
        "    print('loaded:', *sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "atexit.register(report)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fisherqp.__file__).resolve().parents[1]))

    def loaded(code, *argv):
        out = subprocess.run([sys.executable, "-c", hook + code, *argv], env=env,
                             capture_output=True, text=True)
        assert out.returncode in (0, 3), out.stderr
        mapped, modules = (set(line.split()[1:]) for line in out.stdout.splitlines()[-2:])
        return mapped, modules

    assert loaded("import fisherqp.cli")[1] == set()
    numpy_lapack = fisherqp.grid._numpy_openblas()
    for command, payload in SOLVING_RUNS.items():
        inp = write_json(tmp_path / f"{command}.json", payload)
        mapped, modules = loaded("runpy.run_module('fisherqp.cli', run_name='__main__')",
                                 command, "--input", inp, "--out", str(tmp_path / command))
        if numpy_lapack is None:
            assert "scipy.linalg.cython_lapack" in modules and "scipy.linalg" not in modules
        else:
            assert modules == set(), command
            if sys.platform == "linux":
                assert mapped == {numpy_lapack.name.split(" ")[0]}, command
        assert (tmp_path / command / "report.json").exists()


def builtin_sha256():
    """Whether this interpreter has its built-in SHA-256 module."""
    return any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(not builtin_sha256(), reason="the interpreter has no built-in SHA-256")
def test_a_run_loads_no_hashlib_and_maps_no_libcrypto(tmp_path):
    # hashlib maps OpenSSL's libcrypto, several MB resident; every command,
    # run in one fresh process, digests its input without it
    code = (
        "import sys\n"
        "from fisherqp.cli import main\n"
        "for command, inp, out in zip(*[iter(sys.argv[1:])] * 3):\n"
        "    assert main([command, '--input', inp, '--out', out]) in (0, 3), command\n"
        "maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
        "print('mapped:', *sorted({line.split()[-1] for line in maps.splitlines()\n"
        "                          if 'libcrypto' in line}))\n"
        "print('loaded:', *sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    runs = {**SOLVING_RUNS,
            "verify-identities": {"grid": SMALL_GRID, "density": {"kind": "gaussian"}},
            "maxent": small_maxent(1.0)}
    argv = []
    for command, payload in runs.items():
        argv += [command, write_json(tmp_path / f"{command}.json", payload),
                 str(tmp_path / command)]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-2:] == ["mapped:", "loaded:"]
    assert all((tmp_path / command / "report.json").exists() for command in runs)


@pytest.mark.parametrize("preamble", [
    "",
    "import sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n",
], ids=["builtin", "hashlib-fallback"])
def test_inputs_digest_is_the_sha256_of_the_input_file(tmp_path, preamble):
    # either module that cli takes sha256 from digests the input's bytes
    # as hashlib does; with neither built-in module importable, the run
    # falls back on hashlib
    inp = write_json(tmp_path / "in.json", {"grid": SMALL_GRID, "density": {"kind": "gaussian"}})
    out = tmp_path / "out"
    code = (preamble + "import runpy, sys\n"
            "try:\n"
            "    runpy.run_module('fisherqp.cli', run_name='__main__')\n"
            "finally:\n"
            "    print('hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, "verify-identities", "--input", inp,
                           "--out", str(out)], env=child_env(), capture_output=True, text=True)
    assert proc.returncode in (0, 3), proc.stderr
    loads_hashlib = bool(preamble) or not builtin_sha256()
    assert proc.stdout.split() == [str(loads_hashlib)]
    digest = "sha256:" + hashlib.sha256(Path(inp).read_bytes()).hexdigest()
    assert read_report(out)["inputs_digest"] == digest


def test_fallback_lapack_writes_the_same_bytes(tmp_path, monkeypatch):
    # scipy's cython_lapack, which solves where numpy ships no OpenBLAS of
    # its own, writes every report, sweep table and psi dump that the
    # default LAPACK writes, byte for byte: the evolve runs take the
    # complex step with no odd-even level (257 points) and with one (2049)
    runs = {"sweep": SOLVING_RUNS["sweep"], "thermal": SOLVING_RUNS["thermal"],
            "evolve": {**SOLVING_RUNS["evolve"], "dump": True},
            "evolve-levels": {**SOLVING_RUNS["evolve"], "dump": True,
                              "grid": {"xmin": -8.0, "xmax": 8.0, "n": 2049}}}
    written = {}
    for lapack in ("default", "fallback"):
        if lapack == "fallback":
            monkeypatch.setattr(fisherqp.grid, "_numpy_openblas", lambda: None)
        monkeypatch.setattr(fisherqp.grid, "_LOADED", None)
        for run, payload in runs.items():
            command = run.split("-")[0]
            inp = write_json(tmp_path / f"{run}.json", payload)
            out = tmp_path / lapack / run
            code = main([command, "--input", inp, "--out", str(out)])
            meta = json.loads((out / "meta.json").read_text())
            written[lapack, run] = code, {p.relative_to(out).as_posix(): p.read_bytes()
                                          for p in out.rglob("*")
                                          if p.is_file() and p.name != "meta.json"}
            assert meta["lapack"] == (expected_lapack() if lapack == "default"
                                      else f"scipy {scipy.__version__} cython_lapack")
    for run in runs:
        assert written["default", run] == written["fallback", run], run
    assert "sweep.csv" in written["default", "sweep"][1]
    assert "trajectory/psi.npy" in written["default", "evolve-levels"][1]
    assert all(code in (0, 3) for code, _ in written.values())


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**threads):
    """This environment with the package on PYTHONPATH, and of the OpenBLAS
    thread variables only ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(fisherqp.__file__).resolve().parents[1])
    return {**env, **threads}


def run_cli(command, inp, out, env):
    proc = subprocess.run([sys.executable, "-m", "fisherqp.cli", command, "--input", inp,
                           "--out", str(out)], env=env, capture_output=True, text=True)
    assert proc.returncode in (0, 3), proc.stderr


@pytest.mark.parametrize("threads, expected", [
    ({}, ("1", None, None)),
    ({"OMP_NUM_THREADS": "2"}, (None, None, "2")),
    ({"OPENBLAS_NUM_THREADS": "2"}, ("2", None, None)),
    ({"GOTO_NUM_THREADS": "2"}, (None, "2", None)),
], ids=["none-set", "omp", "openblas", "goto"])
def test_import_runs_openblas_on_one_thread_unless_a_count_is_set(threads, expected):
    # OpenBLAS reads the variables once, as it loads with numpy (and with
    # scipy's LAPACK extension, where the package falls back on it): the
    # package sets one before either loads
    code = ("import json, os, fisherqp\n"
            f"print(json.dumps([os.environ.get(k) for k in {THREAD_VARS!r}]))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(**threads),
                         capture_output=True, text=True, check=True)
    assert tuple(json.loads(out.stdout)) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts Linux threads")
def test_a_solving_run_starts_no_blas_thread():
    # the package first, as the CLI imports it: numpy loaded before it
    # would start its pool at the default count
    code = ("import os, fisherqp, numpy as np\n"
            "from fisherqp.grid import _bind\n"
            "_bind('dpttrf', np.ones(3), np.ones(2))()\n"
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the package makes no BLAS-backed call: a thermal run's reductions and
    # a sweep's LAPACK solves read alike at either thread count
    for command, files, check in (("thermal", ["report.json"], "thermal-fisher-route-b"),
                                  ("sweep", ["report.json", "sweep.csv"], "fisher-euler")):
        inp = write_json(tmp_path / f"{command}.json", SOLVING_RUNS[command])
        written = []
        for count in ("1", "2"):
            out = tmp_path / f"{command}-{count}"
            run_cli(command, inp, out, child_env(OPENBLAS_NUM_THREADS=count))
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "meta.json"})
        assert sorted(written[0]) == files
        assert f'"name": "{check}"'.encode() in written[0]["report.json"]
        assert written[0] == written[1], command


def test_meta_records_versions_thread_variables_and_stage_times(tmp_path):
    # verify-identities solves nothing, so it names no LAPACK; a sweep
    # names the one it solved with.  An explicit OPENBLAS_NUM_THREADS=1
    # reads as the caller's, not the default
    runs = [("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "gaussian"}},
             {}, None, ("1", None, None), True),
            ("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "gaussian"}},
             {"OPENBLAS_NUM_THREADS": "1"}, None, ("1", None, None), False),
            ("sweep", SOLVING_RUNS["sweep"], {"OMP_NUM_THREADS": "2"}, expected_lapack(),
             (None, None, "2"), False)]
    for i, (command, payload, threads, lapack, seen, defaulted) in enumerate(runs):
        inp = write_json(tmp_path / f"{command}.json", payload)
        out = tmp_path / f"{command}-{i}"
        run_cli(command, inp, out, child_env(**threads))
        meta = json.loads((out / "meta.json").read_text())
        assert meta["fisherqp_version"] == fisherqp.__version__
        assert meta["numpy_version"] == np.__version__
        assert sorted(meta) == ["blas_thread_env", "blas_threads_defaulted",
                                "fisherqp_version", "generated_at", "lapack",
                                "numpy_version", "peak_rss_mb", "stage_s", "vm_hwm_mb"]
        assert meta["lapack"] == lapack, command
        assert meta["blas_thread_env"] == dict(zip(THREAD_VARS, seen)), command
        assert meta["blas_threads_defaulted"] is defaulted, threads
        assert sorted(meta["stage_s"]) == ["parse", "suite"]
        assert all(v >= 0.0 for v in meta["stage_s"].values())


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_meta_records_the_peak_rss_in_mb(tmp_path, monkeypatch):
    # the peak resident memory of this process as the report is written,
    # read between two readings of ru_maxrss (KiB on Linux); null where
    # the resource module is missing
    import resource
    inp = write_json(tmp_path / "in.json", {"grid": SMALL_GRID, "density": {"kind": "gaussian"}})
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert main(["verify-identities", "--input", inp, "--out", str(tmp_path / "a")]) in (0, 3)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peak = json.loads((tmp_path / "a" / "meta.json").read_text())["peak_rss_mb"]
    assert before <= peak <= after
    monkeypatch.setattr(fisherqp.cli, "resource", None)
    assert main(["verify-identities", "--input", inp, "--out", str(tmp_path / "b")]) in (0, 3)
    assert json.loads((tmp_path / "b" / "meta.json").read_text())["peak_rss_mb"] is None


def vm_hwm_mb():
    """``VmHWM`` of this process in MB of 2**20 bytes."""
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 2**10


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_meta_records_the_own_peak_rss_in_mb(tmp_path, monkeypatch):
    # the process's own peak resident memory as the report is written,
    # read between two readings of VmHWM; null where the status file
    # cannot be opened
    inp = write_json(tmp_path / "in.json", {"grid": SMALL_GRID, "density": {"kind": "gaussian"}})
    before = vm_hwm_mb()
    assert main(["verify-identities", "--input", inp, "--out", str(tmp_path / "a")]) in (0, 3)
    after = vm_hwm_mb()
    peak = json.loads((tmp_path / "a" / "meta.json").read_text())["vm_hwm_mb"]
    assert before <= peak <= after

    def unreadable(*args, **kwargs):
        raise PermissionError("no status file")

    monkeypatch.setattr(fisherqp.cli, "open", unreadable, raising=False)
    assert main(["verify-identities", "--input", inp, "--out", str(tmp_path / "b")]) in (0, 3)
    assert json.loads((tmp_path / "b" / "meta.json").read_text())["vm_hwm_mb"] is None


SCHEMA_ERRORS = {
    "verify-identities": {"grid": SMALL_GRID, "density": {"kind": "nope"}},
    "evolve": {"grid": SMALL_GRID, "initial": {"kind": "gaussian"},
               "potential": {"kind": "nope"}, "dt": 0.01, "steps": 8},
    "epi": {"grid": SMALL_GRID, "constraints": [{"kind": "nope", "lambda": -1.0}]},
    "maxent": {"grid": SMALL_GRID, "constraint": {"kind": "nope"}, "target": 1.0},
    "sweep": {"grid": SMALL_GRID, "constraint": {"kind": "nope"}, "lambdas": [-1.0, -2.0]},
    "thermal": {"grid": SMALL_GRID, "heat": {"kind": "nope"}},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_schema_error_leaves_no_out_directory(tmp_path, capsys, command):
    inp = write_json(tmp_path / "in.json", SCHEMA_ERRORS[command])
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert "unknown" in capsys.readouterr().err
    assert not out.exists()


def test_maxent_command(tmp_path):
    inp = write_json(
        tmp_path / "in.json",
        {"grid": GRID, "constraint": {"kind": "monomial", "power": 2}, "target": 1.0},
    )
    out = tmp_path / "out"
    assert main(["maxent", "--input", inp, "--out", str(out)]) == 0
    result = json.loads((out / "maxent_result.json").read_text())
    assert result["alpha_gibbs"] == pytest.approx(0.5, abs=1e-6)


def test_maxent_solves_a_multiplier_near_zero(tmp_path):
    # A = 1e16 x^2 with target 1e16 needs alpha = 1/(2e16): the bisection's
    # stop is relative to its bracket, so a multiplier far below 1 is found
    inp = write_json(tmp_path / "in.json", {
        "grid": GRID, "constraint": {"kind": "monomial", "power": 2, "coeff": 1e16},
        "target": 1e16})
    out = tmp_path / "out"
    assert main(["maxent", "--input", inp, "--out", str(out)]) == 0
    result = json.loads((out / "maxent_result.json").read_text())
    assert result["alpha_gibbs"] == pytest.approx(5e-17, rel=1e-6)


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_maxent_writes_a_partition_function_that_overflows_as_null(tmp_path, capsys):
    # A = x^2 - 2000: Z = exp(1000) * sqrt(2 pi) overflows, alpha_gibbs does not
    x = Grid(**GRID).x
    inp = write_json(tmp_path / "in.json", {
        "grid": GRID, "constraint": {"kind": "tabulated", "data": (x**2 - 2000.0).tolist()},
        "target": -1999.0})
    out = tmp_path / "out"
    assert main(["maxent", "--input", inp, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    result = json.loads((out / "maxent_result.json").read_text(),
                        parse_constant=_refuse_constant)
    assert result["Z"] is None
    assert result["alpha_gibbs"] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_gibbs_density_whose_partition_function_overflows_runs_clean(tmp_path, capsys):
    # E = x^2/2 - 1000 at gamma = 1: Z overflows, and the density does not need it
    x = Grid(**GRID).x
    inp = write_json(tmp_path / "in.json", {"grid": GRID, "density": {
        "kind": "gibbs", "energy": {"kind": "tabulated", "data": (x**2 / 2 - 1000.0).tolist()},
        "gamma": 1.0}})
    assert main(["verify-identities", "--input", inp, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


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
    traj = out / "trajectory"
    assert sorted(path.name for path in traj.iterdir()) == ["manifest.json", "psi.npy"]
    assert np.load(traj / "psi.npy", allow_pickle=False).shape == (257, 2561)


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
        f"schema error: evolve: index {index} must be interior (1..63)\n"
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
    assert "thermal-fisher-route-b" in names


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


BAD_TIMINGS = [
    ({"dt": 0}, "t_final and dt must be positive"),
    ({"t_final": "inf"}, "t_final must be a finite number, not 'inf'"),
    ({"t_final": 1e300, "dt": 1e-300}, "t_final/dt = inf is not a finite step count"),
    ({"t_final": float("nan")}, "t_final must be a finite number, not nan"),
    ({"dt": -1}, "t_final and dt must be positive"),
    ({"dt": 0.0007}, "t_final must be an integer multiple of dt"),
]
# (id prefix, heat field); the quadratic cases keep the bare ids timing0, ...
HEAT_KINDS = [("", {"kind": "quadratic", "coeff": 0.125}),
              ("log-affine-", {"kind": "log-affine", "a": 4.0, "b": 0.2})]


# a static log-affine run never steps, but its timing is validated all the same
@pytest.mark.parametrize("heat, timing, message", [
    pytest.param(heat, timing, message, id=f"{prefix}timing{i}")
    for prefix, heat in HEAT_KINDS
    for i, (timing, message) in enumerate(BAD_TIMINGS)
])
def test_thermal_bad_step_count_exits_2(tmp_path, capsys, heat, timing, message):
    inp = write_json(tmp_path / "in.json", {"grid": GRID, "heat": heat, **timing})
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: thermal: {message}\n"
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


def budget_evolve(steps, dump):
    """An evolve input on 16385 points: a dump of its every step takes
    n*(steps+1)*16 B, at most 1 GiB for steps <= 4094."""
    return {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 16385},
            "initial": {"kind": "gaussian", "sigma": 1.0}, "potential": {"kind": "free"},
            "dt": 1.0 / 1024, "steps": steps, "dump": dump}


@pytest.mark.parametrize("steps,dump,estimate", [
    (5120, True, "the dump's n*(steps+1)*16 = 1.34e+09 B exceeds the budget of 1.07e+09 B"),
    # the smallest step count over the budget, by 64 KiB
    (4095, True, "the dump's n*(steps+1)*16 = 1.07e+09 B exceeds the budget of 1.07e+09 B"),
    (10**6, False, "n*steps = 1.64e+10 point-steps exceeds the budget of 1e+10 point-steps"),
], ids=["dump-5120", "dump-4095", "work-1e6"])
def test_evolve_over_budget_exits_2(tmp_path, capsys, steps, dump, estimate):
    inp = write_json(tmp_path / "in.json", budget_evolve(steps, dump))
    out = tmp_path / "out"
    assert main(["evolve", "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: evolve: {estimate}\n"
    assert not (out / "report.json").exists()


def test_evolve_dump_just_under_budget_parses():
    # 192 KiB under 1 GiB: the parse stage accepts it (the run is not made)
    parse, _ = COMMANDS["evolve"]
    problem = parse(budget_evolve(4094, True))
    assert problem["dump"] is True
    assert problem["steps"] == 4094


def test_grid_over_max_points_exits_2(tmp_path, capsys):
    # refused before any array is allocated: no MemoryError, no report
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {**GRID, "n": 10**13}, "density": {"kind": "gaussian"}},
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 2
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
    # the suite refuses it by name
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 257},
         "heat": {"kind": "quadratic", "coeff": 1e306}},
    )
    out = tmp_path / "out"
    assert main(["thermal", "--input", inp, "--out", str(out)]) == 3
    assert read_report(out)["error"]["type"] == "DegenerateSupport"
    # and no numpy message
    assert capfd.readouterr().err == ("numerical failure: DegenerateSupport: thermal needs a "
                                      "support of at least 3 points; the density's support "
                                      "has 1\n")


def spike(width):
    grid = SMALL_SWEEP["grid"]
    values = [0.0] * grid["n"]
    values[128 : 128 + width] = [1.0] * width
    return {"grid": grid, "density": {"kind": "samples", "values": values}}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize(
    "command, payload, message",
    [
        # the ground state collapses onto one grid point
        ("epi", small_epi(-1e152),
         "riccati needs a support of at least 3 points; the density's support has 1"),
        ("verify-identities", spike(1),
         "verify-identities needs a support of at least 3 points; "
         "the density's support has 1"),
        ("verify-identities", spike(2),
         "verify-identities needs a support of at least 3 points; "
         "the density's support has 2"),
    ],
    ids=["epi-deep-well", "one-point-spike", "two-point-spike"],
)
def test_support_too_small_to_differentiate_exits_3(tmp_path, capsys, command,
                                                    payload, message):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["error"] == {"type": "DegenerateSupport", "message": message}
    assert report["overall_pass"] is False
    assert capsys.readouterr().err == f"numerical failure: DegenerateSupport: {message}\n"


THERMAL_ONE_POINT = {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 257},
                     "heat": {"kind": "quadratic", "coeff": 1e306}}


VERIFY_BEFORE_GUARD = ["qp-four-forms", "mean-QP-equals-FI", "fluctuation-mean-zero"]


@pytest.mark.parametrize("command, payload, names, artifacts", [
    ("verify-identities", spike(1), VERIFY_BEFORE_GUARD, ["density.csv"]),
    ("verify-identities", spike(2), VERIFY_BEFORE_GUARD, ["density.csv"]),
    ("thermal", THERMAL_ONE_POINT, ["ratio-law-evolution", "fluctuation-chain"], []),
], ids=["one-point-spike", "two-point-spike", "thermal-one-point"])
def test_failed_run_keeps_the_checks_yielded_before_the_error(tmp_path, command, payload,
                                                              names, artifacts):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["error"]["type"] == "DegenerateSupport"
    assert [c["name"] for c in report["checks"]] == names
    assert report["overall_pass"] is False
    # and the artifacts yielded before the error
    assert sorted(p.name for p in out.iterdir()) == artifacts + ["meta.json", "report.json"]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize("width", [3, 4, 5, 8, 16])
def test_flat_topped_density_reports_every_check(tmp_path, width):
    # a compact support of at least 3 points: the jump at its edges fails
    # the quantum-potential checks, not the run
    inp = write_json(tmp_path / "in.json", spike(width))
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert "error" not in report
    byname = {c["name"]: c for c in report["checks"]}
    assert len(byname) == 3
    assert byname["qp-four-forms"]["pass"] is False
    assert byname["mean-QP-equals-FI"]["pass"] is False


@pytest.mark.parametrize("command, payload", [
    ("verify-identities", {"grid": GRID, "density": [1]}),
    ("verify-identities", {"grid": GRID, "density": {"kind": "mixture", "components": [1]}}),
    ("sweep", {**SMALL_SWEEP, "constraint": [1], "lambdas": [-1.0, -2.0, -3.0]}),
    ("thermal", {"grid": GRID, "heat": "x"}),
    ("evolve", {**SMALL_EVOLVE, "potential": [1]}),
    # only a JSON boolean says whether to dump: "false" is truthy
    ("evolve", {**SMALL_EVOLVE, "dump": "false"}),
    ("evolve", {**SMALL_EVOLVE, "dump": 1}),
    ("evolve", {**SMALL_EVOLVE, "dump": None}),
    # an integer beyond the float range
    ("verify-identities", {"grid": GRID, "density": {"kind": "gaussian", "sigma": 10**400}}),
    ("verify-identities", {"grid": GRID, "density": {"kind": "gaussian"},
                           "constants": {"hbar": 10**400}}),
    ("thermal", {"grid": GRID, "heat": {"kind": "quadratic", "coeff": 0.125}, "dt": 10**400}),
    # a number sent as a string or a bool
    ("evolve", {**SMALL_EVOLVE, "dt": "0.0009765625"}),
    ("evolve", {**SMALL_EVOLVE, "initial": {"kind": "gaussian", "momentum": True}}),
    ("thermal", {"grid": GRID, "heat": {"kind": "quadratic", "coeff": True}}),
    ("thermal", {"grid": GRID, "heat": {"kind": "log-affine", "a": "4"}}),
    ("verify-identities", {"grid": GRID, "density": {"kind": "gaussian"},
                           "constants": {"hbar": "1"}}),
    ("verify-identities", {"grid": GRID, "density": {"kind": "gaussian", "sigma": True}}),
    ("verify-identities", {"grid": {**GRID, "xmin": "-8"}, "density": {"kind": "gaussian"}}),
    ("maxent", {"grid": GRID, "constraint": {"kind": "monomial", "coeff": "1"},
                "target": 1.0}),
    # array inputs of strings or bools
    ("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "samples",
                                                           "values": ["1.0"] * 257}}),
    ("thermal", {"grid": SMALL_GRID, "heat": {"kind": "values", "values": [True] * 257}}),
    ("maxent", {"grid": SMALL_GRID, "constraint": {"kind": "tabulated", "data": [True] * 257},
                "target": 1.0}),
    ("evolve", {**SMALL_EVOLVE, "potential": {"kind": "values", "values": ["0"] * 257}}),
    # a phase hbar*k*x beyond the float range, formed without a numpy warning
    ("evolve", {**SMALL_EVOLVE, "initial": {"kind": "gaussian", "momentum": 1e308}}),
    ("evolve", {**SMALL_EVOLVE, "initial": {"kind": "gaussian", "momentum": 1e308},
                "constants": {"hbar": 0.1}}),
    # a Gaussian, a mixture or a Gibbs energy that is not finite at a grid
    # point, formed without a numpy warning
    ("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "gaussian",
                                                           "sigma": 1e-300}}),
    ("verify-identities", {"grid": SMALL_GRID,
                           "density": {"kind": "mixture",
                                       "components": [{"weight": 1e308}] * 2}}),
    ("verify-identities", {"grid": SMALL_GRID,
                           "density": {"kind": "gibbs",
                                       "energy": {"kind": "monomial", "power": -1}}}),
], ids=["density", "mixture-component", "sweep-constraint", "thermal-heat", "evolve-potential",
        "evolve-dump-str", "evolve-dump-int", "evolve-dump-null", "sigma-overflows",
        "hbar-overflows", "thermal-dt-overflows", "evolve-dt-str", "evolve-momentum-bool",
        "thermal-coeff-bool", "thermal-a-str", "hbar-str", "sigma-bool", "grid-xmin-str",
        "maxent-coeff-str", "samples-str", "thermal-values-bool", "tabulated-bool",
        "evolve-potential-str", "evolve-momentum-overflows", "evolve-momentum-over-hbar",
        "sigma-vanishes", "mixture-overflows", "gibbs-energy-pole"])
def test_nested_wrong_type_exits_2(tmp_path, capsys, command, payload):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"schema error: {command}: ")
    assert not (out / "report.json").exists()
    assert not (out / "trajectory").exists()


X2 = {"kind": "monomial", "power": 2}
MIXTURE = {"kind": "mixture", "components": [{"center": -1.0}, {"center": 1.0}]}


@pytest.mark.parametrize("command, payload, key", [
    # an empty object ran as an unconstrained problem or an empty mixture
    ("epi", {"grid": SMALL_GRID, "constraints": {}}, "constraints"),
    ("verify-identities", {"grid": SMALL_GRID, "density": {**MIXTURE, "components": {}}},
     "components"),
    ("evolve", {**SMALL_EVOLVE, "initial": {**MIXTURE, "components": {}}}, "components"),
    # a lone object was iterated over its keys
    ("epi", {"grid": SMALL_GRID, "constraints": {**X2, "lambda": -4.0}}, "constraints"),
    ("verify-identities", {"grid": SMALL_GRID, "density": {**MIXTURE, "components": {
        "center": 0.0}}}, "components"),
    ("evolve", {**SMALL_EVOLVE, "initial": {**MIXTURE, "components": {"center": 0.0}}},
     "components"),
    # an entry that is not an object
    ("epi", {"grid": SMALL_GRID, "constraints": [{**X2, "lambda": -4.0}, "x"]},
     "constraints"),
    ("verify-identities", {"grid": SMALL_GRID, "density": {**MIXTURE, "components": [
        {"center": 0.0}, [1.0]]}}, "components"),
    ("evolve", {**SMALL_EVOLVE, "initial": {**MIXTURE, "components": [0.5]}},
     "components"),
], ids=["epi-empty-object", "vi-empty-object", "evolve-empty-object", "epi-lone-object",
        "vi-lone-object", "evolve-lone-object", "epi-str-entry", "vi-list-entry",
        "evolve-number-entry"])
def test_object_list_that_is_not_a_list_of_objects_exits_2(tmp_path, capsys, command,
                                                           payload, key):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"schema error: {command}: {key} must be a list of objects\n")
    assert not out.exists()


@pytest.mark.parametrize("command, payload, key", [
    # each raised Python's own TypeError or AttributeError text
    ("verify-identities", {"grid": "n", "density": {"kind": "gaussian"}}, "grid"),
    ("verify-identities", {"grid": 5, "density": {"kind": "gaussian"}}, "grid"),
    ("verify-identities", {"grid": SMALL_GRID, "density": "gaussian"}, "density"),
    ("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "gaussian"},
                           "constants": None}, "constants"),
    ("verify-identities", {"grid": SMALL_GRID, "density": {"kind": "gibbs", "energy": 2}},
     "energy"),
    ("evolve", {**SMALL_EVOLVE, "initial": "gaussian"}, "initial"),
    ("evolve", {**SMALL_EVOLVE, "potential": ["free"]}, "potential"),
    ("thermal", {"grid": SMALL_GRID, "heat": 0.5}, "heat"),
    ("maxent", {"grid": SMALL_GRID, "constraint": "x", "target": 1.0}, "constraint"),
    ("sweep", {**SMALL_SWEEP, "constraint": 2, "lambdas": [-1.0, -2.0]}, "constraint"),
], ids=["grid-str", "grid-int", "density-str", "constants-null", "gibbs-energy-int",
        "initial-str", "potential-list", "heat-float", "maxent-constraint-str",
        "sweep-constraint-int"])
def test_section_that_is_not_an_object_is_refused_by_name(tmp_path, capsys, command,
                                                          payload, key):
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: {command}: {key} must be an object\n"
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("the input was refused only after the work started")


@pytest.mark.parametrize("command, payload, message", [
    ("evolve", {**SMALL_EVOLVE, "grid": {"xmin": -8.0, "xmax": 8.0, "n": 16385},
                "steps": 2000, "check_index": 99999},
     "index 99999 must be interior (1..1999)"),
    ("sweep", {**SMALL_SWEEP, "lambdas": [-1.0, -2.0, -1.0]},
     "multiplier values must be distinct"),
    ("thermal", {"grid": GRID, "heat": {"kind": "quadratic", "coeff": 0.125},
                 "constants": {"omega": 3.0}},
     "the coherence checks assume hbar*omega = k*T"),
    ("thermal", {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 1025},
                 "heat": {"kind": "log-affine", "a": 4, "b": 0.2},
                 "constants": {"hbar": 0.7, "mass": 1.9}},
     "the coherence checks assume hbar*omega = k*T"),
    # an array that overflows on the grid, formed without a numpy warning
    ("evolve", {**SMALL_EVOLVE, "potential": {"kind": "harmonic", "strength": 1e307}},
     "strength*x**2 with strength = 1e+307 is non-finite on the grid"),
    ("thermal", {"grid": GRID, "heat": {"kind": "quadratic", "coeff": 1e307}},
     "coeff*x**2 with coeff = 1e+307 is non-finite on the grid"),
    ("thermal", {"grid": GRID, "heat": {"kind": "log-affine", "a": 1e308, "b": 1e307}},
     "a + b*x with a = 1e+308, b = 1e+307 is non-finite on the grid"),
    ("verify-identities", {"grid": GRID, "density": {
        "kind": "gibbs", "energy": {"kind": "monomial", "power": 2}, "gamma": 1e307}},
     "gamma = 1e+307 makes the Gibbs exponent gamma*E - min(gamma*E) non-finite on the grid"),
    # alpha_th = 1/(hbar*omega) = 1e10 times a heat field of 1e300
    ("thermal", {"grid": SMALL_GRID,
                 "heat": {"kind": "values",
                          "values": np.where(np.abs(Grid(**SMALL_GRID).x) < 1.0, 0.0,
                                             1e300).tolist()},
                 "constants": {"hbar": 1e-10, "temperature": 1e-10}},
     "alpha_th = 10000000000.0 makes the Gibbs exponent alpha_th*Q_heat - "
     "min(alpha_th*Q_heat) non-finite on the grid"),
], ids=["evolve-check-index", "sweep-duplicate-lambda", "thermal-not-at-equality",
        "thermal-log-affine-not-at-equality", "evolve-strength-overflows",
        "thermal-coeff-overflows", "thermal-log-affine-overflows", "gibbs-gamma-overflows",
        "thermal-alpha-th-overflows"])
def test_input_errors_are_refused_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                  payload, message):
    monkeypatch.setattr(propagator, "crank_nicolson_flow", _refuse)  # the stepper
    # the first library call of the sweep suite and of each thermal branch
    for name in ("sweep", "coupled_run", "vanishing_qp_residual"):
        monkeypatch.setattr(suites, name, _refuse)
    inp = write_json(tmp_path / "in.json", payload)
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"schema error: {command}: {message}\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, payload, key", [
    ("verify-identities", {"grid": GRID}, "density"),
    ("evolve", SMALL_EVOLVE, "initial"),
], ids=["verify-identities", "evolve"])
def test_a_gaussian_too_wide_to_square_fails_as_a_wide_one(tmp_path, capsys, command, payload,
                                                           key):
    # sigma**2 overflows at 1e200: the flat density fails the truncation
    # check, as at 1e150, not the parse
    results = []
    for sigma in (1e150, 1e200):
        inp = write_json(tmp_path / "in.json",
                         {**payload, key: {"kind": "gaussian", "sigma": sigma}})
        code = main([command, "--input", inp, "--out", str(tmp_path / f"out{sigma:g}")])
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 3
    assert results[0][1].startswith("numerical failure: TruncationError: ")


def test_a_step_that_overflows_the_crank_nicolson_matrix_exits_3(tmp_path, capsys):
    inp = write_json(tmp_path / "in.json", {**SMALL_EVOLVE, "dt": 1e308})
    out = tmp_path / "out"
    assert main(["evolve", "--input", inp, "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numerical failure: NonFinite: "
                                       "the Crank-Nicolson matrix has a non-finite entry\n")
    assert read_report(out)["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("command", ["verify-identities", "evolve", "epi"])
@pytest.mark.parametrize("constants, product", [
    ({"hbar": 1e300}, "hbar^2 = inf"),
    ({"hbar": 1e-300}, "hbar^2 = 0"),
    ({"omega": 1e-300}, "omega^2 = 0"),
], ids=["hbar-overflows", "hbar-vanishes", "omega-vanishes"])
def test_constants_whose_products_overflow_or_vanish_exit_2(tmp_path, capsys, command,
                                                             constants, product):
    payload = {
        "verify-identities": {"grid": GRID, "density": {"kind": "gaussian"}},
        "evolve": SMALL_EVOLVE,
        "epi": small_epi(-4.0),
    }[command]
    inp = write_json(tmp_path / "in.json", {**payload, "constants": constants})
    out = tmp_path / "out"
    assert main([command, "--input", inp, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"schema error: {command}: {product} overflows or vanishes: it must lie in ["
    )
    assert not (out / "report.json").exists()


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_uniform_density_reports_its_flags():
    # a uniform density has FI = 0, so the measured ratios in the notes of
    # both suites have a zero denominator; each still ends with its verdicts
    grid = Grid(**SMALL_SWEEP["grid"])
    heat = ScalarField(grid, np.full(grid.n, 1.3))
    density = density_from_samples(ScalarField(grid, np.ones(grid.n)), truncation_check=False)
    items = list(suites.identities_suite(density, PhysicalConstants(), None))
    byname = {c.name: c for c in items if isinstance(c, IdentityCheck)}
    assert byname["mean-QP-equals-FI"].rhs == 0.0
    assert "(measured ratio +inf)" in byname["mean-QP-equals-FI"].note
    assert len(byname) == 3 and all(c.passed for c in byname.values())
    thermal = list(suites.thermal_suite(heat, density, PhysicalConstants(), None, 1e-3))
    assert "(measured ratio A/B = +inf)" in thermal[-1].note
    assert [c.name for c in thermal] == ["vanishing-qp-family", "thermal-fisher-route-b"]
    assert all(c.passed for c in thermal)


def test_non_finite_record_is_written_as_strict_json(tmp_path):
    # a route that yields NaN still gives a strict-JSON record: its
    # non-finite numbers are written as null, and its verdict fails
    save_json(make_check("mean-QP-equals-FI", float("nan"), 1.0).to_dict(),
              tmp_path / "record.json")
    record = json.loads((tmp_path / "record.json").read_text(),
                        parse_constant=_refuse_constant)
    assert record["lhs"] is record["abs_err"] is record["rel_err"] is None
    assert record["rhs"] == 1.0 and record["tol"] == 1e-6 and record["pass"] is False


def test_undecayed_density_exits_3_without_checks(tmp_path):
    # sigma = 1e10 is flat on the grid: the CLI always applies the
    # truncation check, so the density is refused before any check
    inp = write_json(tmp_path / "in.json", {"grid": SMALL_SWEEP["grid"],
                                            "density": {"kind": "gaussian", "sigma": 1e10}})
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["error"]["type"] == "TruncationError"
    assert report["checks"] == [] and report["overall_pass"] is False
    # the parse refused it, so no suite stage ran
    assert json.loads((out / "meta.json").read_text())["stage_s"]["suite"] is None


def test_failed_sweep_names_each_dropped_multiplier(tmp_path):
    # positive multipliers on x^2 push every ground state onto the walls
    inp = write_json(tmp_path / "in.json", {**SMALL_SWEEP, "lambdas": [3.0, 1.0, 2.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["checks"] == []
    assert report["error"] == {
        "type": "TooFewPoints",
        "message": "need at least 3 records, have 0"
                   "; lambda = 1.0 dropped by EdgeLocalized"
                   "; lambda = 2.0 dropped by EdgeLocalized"
                   "; lambda = 3.0 dropped by EdgeLocalized",
    }
    assert sweep_statuses(out) == ["EdgeLocalized"] * 3


def sweep_statuses(out):
    with open(out / "sweep.csv", newline="") as fh:
        return [row["status"] for row in csv.DictReader(fh)]


def test_sweep_failing_legendre_window_keeps_its_table_and_checks(tmp_path):
    # four records pass fisher-euler; the Legendre relations need five
    inp = write_json(tmp_path / "in.json",
                     {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 1025},
                      "constraint": {"kind": "monomial", "power": 2},
                      "lambdas": [-1.0, -2.0, -4.0, -8.0]})
    out = tmp_path / "out"
    assert main(["sweep", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert [c["name"] for c in report["checks"]] == ["fisher-euler"]
    assert report["error"]["type"] == "TooFewPoints"
    assert sweep_statuses(out) == ["ok"] * 4


def test_failed_check_exits_3(tmp_path):
    # at n = 1025 the quadrature error of integral(P Q) exceeds its 1e-6
    # tolerance: a check fails honestly and the run ends without an error
    inp = write_json(
        tmp_path / "in.json",
        {"grid": {**GRID, "n": 1025}, "density": {"kind": "gaussian", "sigma": 1.0}},
    )
    out = tmp_path / "out"
    assert main(["verify-identities", "--input", inp, "--out", str(out)]) == 3
    report = read_report(out)
    assert report["overall_pass"] is False and "error" not in report
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["mean-QP-equals-FI"]
    assert failed[0]["rel_err"] > 10 * failed[0]["tol"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_options_are_input_and_out(capsys, command):
    # the input file alone states a run: no flag changes what it computes
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"-h", "--help", "--input", "--out"}


def test_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    # each line is 'tag name  description'
    assert "eq2.4 mean-QP-equals-FI  integral(P Q) = (hbar^2/8m) FI" in lines
    assert any(ln.startswith("eq5.11 fisher-euler ") for ln in lines)
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


@pytest.mark.parametrize("form", list(COVERAGE_FIXTURES))
def test_report_determinism(tmp_path, form):
    # the report and every artifact are byte-identical across runs; only
    # meta.json, which holds the timings, may differ
    command, payload = COVERAGE_FIXTURES[form]
    inp = write_json(tmp_path / "in.json", payload)
    codes, runs = [], []
    for name in ("a", "b"):
        out = tmp_path / name
        codes.append(main([command, "--input", inp, "--out", str(out)]))
        runs.append({path.relative_to(out): path.read_bytes()
                     for path in sorted(out.rglob("*"))
                     if path.is_file() and path.name != "meta.json"})
    assert codes[0] == codes[1] and Path("report.json") in runs[0]
    assert runs[0] == runs[1]


def test_evolve_normalizes_each_window_density_once(monkeypatch):
    # the checks read one Madelung window: three densities, each formed once
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return density_from_samples(*args, **kwargs)

    monkeypatch.setattr(propagator, "density_from_samples", counted)
    command, payload = COVERAGE_FIXTURES["evolve"]
    parse, suite = COMMANDS[command]
    list(suite(**parse(payload)))
    assert len(calls) == 3


def test_registry_equals_reported_checks(tmp_path, monkeypatch):
    # every suite runs in process on its parsed problem and writes no file:
    # it yields its artifacts as (name, write) pairs for the driver to write
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    table = {c.name: c.tol for c in CHECKS}
    # every registered check is an assertion: no tolerance lets anything pass
    assert all(math.isfinite(tol) and tol > 0 for tol in table.values())
    reported = set()
    for command, payload in COVERAGE_FIXTURES.values():
        parse, suite = COMMANDS[command]
        for check in suite(**parse(payload)):
            if not isinstance(check, IdentityCheck):
                name, write = check
                assert isinstance(name, str) and callable(write)
                continue
            reported.add(check.name)
            assert check.tol == table[check.name], check.name
    assert reported == set(table)
    assert list(cwd.iterdir()) == []
